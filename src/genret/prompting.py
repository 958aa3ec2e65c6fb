"""Intent-aware prompt rendering and augmentation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import jsonl
from .sid import SemanticId

DEFAULT_TOKEN_BUDGET = 2096
BEHAVIOR_WINDOW_DAYS = 90

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class PromptError(ValueError):
    pass


def count_tokens(text: str) -> int:
    """Whitespace+punctuation token count used for the prompt budget.

    Every token spans at least one character, so the count never exceeds
    len(text)."""
    return len(_WORD_RE.findall(text))


def _fits(text: str, token_budget: int) -> bool:
    """count_tokens(text) <= token_budget, scanning only a text longer than
    the budget, since a shorter one cannot hold more tokens."""
    return len(text) <= token_budget or count_tokens(text) <= token_budget


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


# a profiles line: the user's id and every UserProfile field
PROFILE_RECORD = jsonl.spec(
    user_id=jsonl.key(jsonl.ID), age=jsonl.INT, gender=jsonl.STRING,
    residence=jsonl.STRING, education_level=jsonl.STRING, occupation=jsonl.STRING,
    consumption_level=jsonl.STRING)


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
        if self.days_ago < 0:
            raise PromptError(f"days_ago must be >= 0, got {self.days_ago}")
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


# an events line: the user's id and the event's fields but its S-ID, which
# load_events looks up by ad_id
EVENT_RECORD = jsonl.spec(
    user_id=jsonl.ID, days_ago=jsonl.INT, event_type=jsonl.STRING,
    domain=jsonl.one_of("ad", "content"), positive=jsonl.optional(jsonl.BOOL),
    title=jsonl.optional(jsonl.STRING), ad_id=jsonl.optional(jsonl.ID))


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
    response: SemanticId


_PREAMBLE = (
    "The following is an instruction describing a task. "
    "Please give a response to complete this request appropriately."
)
_QUESTION = "what ad will the user be interested in next time?"
# one format string per template id: a {profile}, a {summary} and a
# {behaviors} slot between the preamble and the question
_TEMPLATES = tuple(f"{_PREAMBLE}\n{body}{_QUESTION}" for body in (
    "{profile} {summary}\n{behaviors} ",
    "[Instruction]: <task> Assuming you are an ad recommender system. "
    "{profile}\n{behaviors}\n{summary}\n",
    "[Instruction]: <task> Given the user below, predict their next ad. "
    "{summary}\n{profile}\n{behaviors} ",
))
TEMPLATE_IDS = tuple(range(len(_TEMPLATES)))
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


def _render_line(event: BehaviorEvent, use_sid: bool = True) -> str:
    return f"{event.days_ago} days ago^{event.event_type}^{event.subject_text(use_sid)}"


def _render_behaviors(lines) -> str:
    body = "; ".join(lines)
    return _BEHAVIOR_HEAD + body + ("." if body else "")


def _assemble(template_id: int, profile_text, summary_text, behavior_text) -> str:
    if template_id not in TEMPLATE_IDS:
        raise PromptError(f"unknown template_id {template_id}")
    return _TEMPLATES[template_id].format(profile=profile_text, summary=summary_text,
                                          behaviors=behavior_text)


def _first_unordered(events) -> int:
    """The index of the first event newer than the one after it, or
    len(events) if they are ordered oldest-first."""
    return next((b for b in range(len(events) - 1)
                 if events[b].days_ago < events[b + 1].days_ago), len(events))


def _check_skeleton(template_id, profile_text, summary_text, token_budget) -> None:
    skeleton = _assemble(template_id, profile_text, summary_text, _render_behaviors([]))
    if not _fits(skeleton, token_budget):
        raise PromptError(
            f"token budget {token_budget} too small for the prompt skeleton "
            f"({count_tokens(skeleton)} tokens)"
        )


def _fitted(template_id, profile_text, summary_text, lines, token_budget) -> str:
    """The prompt of the rendered behaviour lines (oldest first) that fits
    the budget, dropping the oldest first."""
    start = 0
    while True:
        prompt = _assemble(template_id, profile_text, summary_text,
                           _render_behaviors(lines[start:] if start else lines))
        if _fits(prompt, token_budget) or start == len(lines):
            return prompt
        start += 1  # drop the oldest


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
    if _first_unordered(events) < len(events):
        raise PromptError("events must be ordered oldest-first")
    profile_text = _render_profile(profile)
    summary_text = _render_summary(summary)
    _check_skeleton(template_id, profile_text, summary_text, token_budget)
    lines = [_render_line(e, use_sid) for e in events]
    return _fitted(template_id, profile_text, summary_text, lines, token_budget)


def filter_events(events):
    """Positive events within the behavior window, for sequence rendering."""
    return [e for e in events if e.positive and e.days_ago <= BEHAVIOR_WINDOW_DAYS]


def interaction_reuse_splits(events):
    """Split the sequence at every positive ad event: one (history, target)
    pair per split, where history is every event before the target, in
    sequence order."""
    pairs = []
    for i, e in enumerate(events):
        if e.domain == "ad" and e.positive:
            pairs.append((events[:i], e))
    return pairs


def augment(
    events,
    profile: UserProfile,
    summary: InterestSummary,
    template_ids=(0,),
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> tuple[list[PromptSample], list[PromptSample]]:
    """Interaction reuse crossed with the listed templates, in two views:
    (implicit, main), the ads rendered by title, then by S-ID. Each view
    holds one sample per (positive ad split, template id), in sequence order.

    The profile, the summary and each non-ad behaviour line are rendered
    once for both views, and every split's prompt is built from a prefix of
    the lines. Each sample equals ``build_prompt`` of its split's history in
    its view, and the call raises what the first of those calls to raise
    would, implicit view first: the order check over each history, and the
    skeleton check once a split exists."""
    if not template_ids:
        raise PromptError("template_ids must name at least one template")
    events = list(events)
    splits = interaction_reuse_splits(events)
    for _, target in splits:
        if target.sid is None:
            raise PromptError(f"ad event {target.ad_id!r} has no S-ID")
    # a history is a prefix of events, so it is out of order when it holds
    # the first unordered event and the one after it
    unordered = _first_unordered(events)
    profile_text = _render_profile(profile)
    summary_text = _render_summary(summary)
    checked = set()  # template ids whose skeleton fits
    # each history's non-ad lines, which neither view changes, rendered once
    last = len(splits[-1][0]) if splits else 0
    fixed = {k: _render_line(e) for k, e in enumerate(events[:last]) if e.domain != "ad"}
    views = []
    for use_sid in (False, True):
        lines: list[str] = []
        samples = []
        for history, target in splits:
            i = len(history)
            if unordered + 1 < i:
                raise PromptError("events must be ordered oldest-first")
            for tid in template_ids:
                if tid not in checked:
                    _check_skeleton(tid, profile_text, summary_text, token_budget)
                    checked.add(tid)
                lines += [fixed[k] if k in fixed else _render_line(events[k], use_sid)
                          for k in range(len(lines), i)]
                samples.append(PromptSample(
                    _fitted(tid, profile_text, summary_text, lines[:i], token_budget),
                    target.sid))
        views.append(samples)
    return tuple(views)


def _profile_entry(obj) -> tuple[str, UserProfile]:
    uid = obj.pop("user_id")
    return uid, UserProfile(**obj)


def load_profiles(path) -> dict[str, UserProfile]:
    return dict(jsonl.read(path, _profile_entry, jsonl.JsonlError, PROFILE_RECORD))


def load_events(path, sids) -> dict[str, list[BehaviorEvent]]:
    """Events JSONL keyed by user; an ad event carries its ad's S-ID from
    sids, or None when sids has none."""

    def entry(obj):
        uid = obj.pop("user_id")
        return uid, BehaviorEvent(**obj, sid=sids.get(obj.get("ad_id")))

    out: dict[str, list[BehaviorEvent]] = {}
    for uid, event in jsonl.read(path, entry, jsonl.JsonlError, EVENT_RECORD):
        out.setdefault(uid, []).append(event)
    for uid in out:
        out[uid].sort(key=lambda e: -e.days_ago)
    return out
