"""Intent-aware prompt rendering and augmentation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import jsonl
from .sid import SemanticId

DEFAULT_TOKEN_BUDGET = 2096
DEFAULT_BEHAVIOR_WINDOW_DAYS = 90

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class PromptError(ValueError):
    pass


def count_tokens(text: str) -> int:
    """Whitespace+punctuation token count used for the prompt budget."""
    return len(_WORD_RE.findall(text))


@dataclass(frozen=True)
class UserProfile:
    age: int
    gender: str
    residence: str
    education_level: str
    occupation: str
    consumption_level: str

    def __post_init__(self):
        if not 0 <= self.age <= 120:
            raise PromptError(f"age {self.age} outside [0, 120]")

    def clauses(self) -> list[str]:
        return [
            f"{self.age}-year-old {self.gender}",
            f"resident in {self.residence}",
            f"with a {self.education_level} degree",
            f"working in {self.occupation}",
            f"with a {self.consumption_level} consumption level",
        ]


@dataclass(frozen=True)
class BehaviorEvent:
    days_ago: int
    event_type: str
    domain: str  # "ad" or "content"
    positive: bool = True
    title: str | None = None
    ad_id: str | None = None
    sid: SemanticId | None = None

    def __post_init__(self):
        if self.domain == "ad" and self.ad_id is None:
            raise PromptError("ad-domain event requires an ad reference")
        if self.domain == "content" and self.title is None:
            raise PromptError("content-domain event requires a title")

    def subject_text(self, use_sid: bool = True) -> str:
        if self.domain == "ad":
            if use_sid:
                if self.sid is None:
                    raise PromptError(f"ad event {self.ad_id!r} has no S-ID")
                return self.sid.render()
            return self.title if self.title is not None else self.ad_id
        return self.title


@dataclass
class InterestSummary:
    entries: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        cats = [c for c, _ in self.entries]
        if len(set(cats)) != len(cats):
            raise PromptError("interest summary categories must be distinct")
        if any(n <= 0 for _, n in self.entries):
            raise PromptError("interest counts must be positive")
        self.entries = sorted(self.entries, key=lambda e: (-e[1], e[0]))


@dataclass(frozen=True)
class PromptSample:
    prompt: str
    response: str
    template_id: int
    user_id: str


_PREAMBLE = (
    "The following is an instruction describing a task. "
    "Please give a response to complete this request appropriately."
)
_QUESTION = "what ad will the user be interested in next time?"
_SUMMARY_HEAD = (
    "The categories that have been frequently interacted recently are "
    "(format: category^interaction times): "
)
_BEHAVIOR_HEAD = (
    "The most recent interaction behavior sequence details "
    "(format: time^behavior type^title) are "
)


def _render_profile(profile: UserProfile) -> str:
    return ", ".join(profile.clauses()) + "."


def _render_summary(summary: InterestSummary) -> str:
    if not summary.entries:
        return _SUMMARY_HEAD.rstrip()
    return _SUMMARY_HEAD + "; ".join(f"{c}^{n} times" for c, n in summary.entries) + ";"


def _render_behaviors(events, use_sid: bool = True) -> str:
    body = "; ".join(
        f"{e.days_ago} days ago^{e.event_type}^{e.subject_text(use_sid)}" for e in events
    )
    return _BEHAVIOR_HEAD + body + ("." if body else "")


def _assemble(template_id: int, profile_text, summary_text, behavior_text) -> str:
    if template_id == 0:
        return (
            f"{_PREAMBLE}\n{profile_text} {summary_text}\n"
            f"{behavior_text} {_QUESTION}"
        )
    if template_id == 1:
        return (
            f"{_PREAMBLE}\n[Instruction]: <task> Assuming you are an ad "
            f"recommender system. {profile_text}\n{behavior_text}\n"
            f"{summary_text}\n{_QUESTION}"
        )
    if template_id == 2:
        return (
            f"{_PREAMBLE}\n[Instruction]: <task> Given the user below, "
            f"predict their next ad. {summary_text}\n{profile_text}\n"
            f"{behavior_text} {_QUESTION}"
        )
    raise PromptError(f"unknown template_id {template_id}")


def build_prompt(
    profile: UserProfile,
    summary: InterestSummary,
    events,
    template_id: int = 0,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    use_sid: bool = True,
) -> str:
    """Render one prompt; events must be chronologically ordered oldest-first.

    If the token budget is exceeded, the oldest events are dropped first
    until the prompt fits.
    """
    events = list(events)
    for a, b in zip(events, events[1:]):
        if a.days_ago < b.days_ago:
            raise PromptError("events must be ordered oldest-first")
    profile_text = _render_profile(profile)
    summary_text = _render_summary(summary)

    skeleton = _assemble(template_id, profile_text, summary_text, _render_behaviors([], use_sid))
    if count_tokens(skeleton) > token_budget:
        raise PromptError(
            f"token budget {token_budget} too small for the prompt skeleton "
            f"({count_tokens(skeleton)} tokens)"
        )
    while True:
        prompt = _assemble(
            template_id, profile_text, summary_text, _render_behaviors(events, use_sid)
        )
        if count_tokens(prompt) <= token_budget or not events:
            return prompt
        events = events[1:]  # drop the oldest


def filter_events(events, window_days: int = DEFAULT_BEHAVIOR_WINDOW_DAYS):
    """Positive events within the behavior window, for sequence rendering."""
    return [e for e in events if e.positive and e.days_ago <= window_days]


def interaction_reuse_splits(events):
    """Split the sequence at every positive ad event: one (history, target)
    pair per split, newest split first is not required; order follows the
    sequence."""
    pairs = []
    for i, e in enumerate(events):
        if e.domain == "ad" and e.positive:
            pairs.append((events[:i], e))
    return pairs


def augment(
    events,
    profile: UserProfile,
    summary: InterestSummary,
    user_id: str,
    template_ids=(0,),
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    use_sid: bool = True,
) -> list[PromptSample]:
    """Interaction reuse crossed with the listed templates: one sample per
    (positive ad split, template id), in sequence order."""
    if not template_ids:
        raise PromptError("template_ids must name at least one template")
    return [
        PromptSample(
            prompt=build_prompt(profile, summary, history, tid, token_budget, use_sid),
            response=target.sid.render(),
            template_id=tid,
            user_id=user_id,
        )
        for history, target in interaction_reuse_splits(list(events))
        for tid in template_ids
    ]


def _profile_entry(obj) -> tuple[str, UserProfile]:
    uid = str(obj.pop("user_id"))
    return uid, UserProfile(**obj)


def load_profiles(path) -> dict[str, UserProfile]:
    return dict(jsonl.read(path, _profile_entry))


def load_events(path, sids=None) -> dict[str, list[BehaviorEvent]]:
    """Events JSONL keyed by user; ad events resolve S-IDs from the given
    assignment when available."""

    def entry(obj):
        sid = None
        if sids is not None and obj.get("ad_id") in sids:
            sid = sids[obj["ad_id"]]
        return str(obj["user_id"]), BehaviorEvent(
            days_ago=int(obj["days_ago"]),
            event_type=str(obj["event_type"]),
            domain=str(obj["domain"]),
            positive=bool(obj.get("positive", True)),
            title=obj.get("title"),
            ad_id=obj.get("ad_id"),
            sid=sid,
        )

    out: dict[str, list[BehaviorEvent]] = {}
    for uid, event in jsonl.read(path, entry):
        out.setdefault(uid, []).append(event)
    for uid in out:
        out[uid].sort(key=lambda e: -e.days_ago)
    return out
