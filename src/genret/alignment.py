"""Staged-curriculum corpora, staged training, and DPO business alignment."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .catalog import Catalog, render_description
from .prompting import InterestSummary, UserProfile, augment, filter_events
from .scorer import NeuralScorer, NgramScorer, ScorerContext, tokenize_text
from .sid import SemanticId, is_token

STAGES = ("explicit", "implicit", "main")
HISTORY_ADS = 8  # recent ad S-IDs in a scorer context


class AlignmentError(RuntimeError):
    pass


@dataclass(frozen=True)
class CorpusPair:
    prompt: str
    response: str
    stage: str
    bucket: tuple = ()
    user_id: str = ""


@dataclass(frozen=True)
class PreferenceTriplet:
    user: ScorerContext
    high_ad: SemanticId
    low_ad: SemanticId


def make_bucket(profile: UserProfile, summary: InterestSummary, events) -> tuple:
    """Compact n-gram context: age band, gender, top interest, last ad's
    level-1 code."""
    top_cat = summary.entries[0][0] if summary.entries else ""
    last_ad_code = -1
    for e in reversed(list(events)):
        if e.domain == "ad" and e.sid is not None:
            last_ad_code = e.sid.codes[0]
            break
    return (profile.age // 10, profile.gender, top_cat, last_ad_code)


def compact_context(profile: UserProfile, summary: InterestSummary, events) -> ScorerContext:
    """Feature-view context: interest categories plus recent ad S-ID tokens."""
    tokens: list[str] = [f"cat:{c}" for c, _ in summary.entries[:3]]
    ad_events = [e for e in events if e.domain == "ad" and e.sid is not None]
    for e in ad_events[-HISTORY_ADS:]:
        tokens.extend(e.sid.tokens())
    return ScorerContext(tokens=tuple(tokens), bucket=make_bucket(profile, summary, events))


def user_context(profile: UserProfile, events, catalog: Catalog) -> ScorerContext:
    """The scorer context of a user's logged events, for decoding and DPO."""
    return compact_context(profile, summary_from_events(events, catalog), events)


def explicit_pairs(catalog: Catalog, sids: dict[str, SemanticId]) -> list[CorpusPair]:
    """One description -> S-ID pair per catalog ad."""
    pairs = []
    for ad in catalog:
        if ad.ad_id not in sids:
            raise AlignmentError(f"ad {ad.ad_id!r} has no assigned S-ID")
        prompt = (
            f'Given the ad\'s detailed description "{render_description(ad)}", '
            f"what is the corresponding ad?"
        )
        pairs.append(CorpusPair(prompt=prompt, response=sids[ad.ad_id].render(),
                                stage="explicit"))
    return pairs


def build_stage_corpora(catalog: Catalog, sids, profiles, events_by_user,
                        template_ids=(0,), seed: int = 0) -> dict[str, list[CorpusPair]]:
    """Build the explicit/implicit/main corpora from structured user data.

    Prompts render the filtered behaviour window; the n-gram bucket comes
    from all of a user's events, as it does when serving."""
    # seed is unused; it stays because benchmarks/workloads.py passes seed=
    corpora: dict[str, list[CorpusPair]] = {s: [] for s in STAGES}
    corpora["explicit"] = explicit_pairs(catalog, sids)
    for uid in sorted(events_by_user):
        profile = profiles[uid]
        events = filter_events(events_by_user[uid])
        summary = summary_from_events(events_by_user[uid], catalog)
        bucket = make_bucket(profile, summary, events_by_user[uid])
        for stage, use_sid in (("implicit", False), ("main", True)):
            samples = augment(events, profile, summary, uid, template_ids,
                              use_sid=use_sid)
            for s in samples:
                corpora[stage].append(CorpusPair(
                    prompt=s.prompt, response=s.response, stage=stage,
                    bucket=bucket, user_id=uid))
    return corpora


def summary_from_events(events, catalog: Catalog) -> InterestSummary:
    """Interaction counts per category; negative feedback folds into counts."""
    counts: dict[str, int] = {}
    for e in events:
        cat = None
        if e.domain == "ad" and e.ad_id is not None and e.ad_id in catalog:
            cat = catalog.get(e.ad_id).first_category
        elif e.domain == "content" and e.title:
            cat = e.title.split()[0]
        if cat:
            counts[cat] = counts.get(cat, 0) + 1
    return InterestSummary(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def _context(pair: CorpusPair) -> ScorerContext:
    """The neural scorer's context of a pair: its prompt's tokens, or for
    the main stage only its S-ID tokens, as serving's context has."""
    toks = tokenize_text(pair.prompt)
    if pair.stage == "main":
        toks = [t for t in toks if is_token(t)]
    return ScorerContext(tokens=tuple(toks), bucket=pair.bucket)


def _response_tokens(pairs, parsed: dict[str, list[str]]) -> list[list[str]]:
    """Each pair's response as S-ID tokens. ``parsed`` maps the response
    strings seen so far to their tokens; a new string is parsed once and
    added, and pairs that share a string share its list."""
    for p in pairs:
        if p.response not in parsed:
            parsed[p.response] = list(SemanticId.parse(p.response).tokens())
    return [parsed[p.response] for p in pairs]


def train_staged(scorer, corpora: dict[str, list[CorpusPair]],
                 order=STAGES, stage_weights=None, epochs_per_stage=None,
                 learning_rate: float = 0.05, seed: int = 0):
    """Consume stage corpora strictly in the configured order.

    NgramScorer accumulates weighted counts; NeuralScorer runs gradient
    epochs per stage. Returns (scorer, stage_log).
    """
    stage_log = []
    rng = np.random.default_rng(seed)
    parsed: dict[str, list[str]] = {}  # response -> tokens, for this call only
    for stage in order:
        pairs = corpora.get(stage, [])
        if not pairs:
            stage_log.append({"stage": stage, "pairs": 0})
            continue
        if isinstance(scorer, NgramScorer):
            # the n-gram reads only the bucket, so no prompt is tokenized
            weight = (stage_weights or {}).get(stage, 1.0)
            scorer.train([(ScorerContext(bucket=p.bucket), tokens)
                          for p, tokens in zip(pairs, _response_tokens(pairs, parsed))],
                         weight=weight)
            stage_log.append({"stage": stage, "pairs": len(pairs), "weight": weight})
        elif isinstance(scorer, NeuralScorer):
            samples = list(zip(map(_context, pairs), _response_tokens(pairs, parsed)))
            epochs = (epochs_per_stage or {}).get(stage, 3)
            for _ in range(epochs):
                for i in rng.permutation(len(samples)):
                    # gradient ascent on log P(response | context)
                    _, grads = scorer.seq_logprob_and_grad(*samples[i])
                    scorer.apply_grads(grads, -learning_rate)
            stage_log.append({"stage": stage, "pairs": len(pairs), "epochs": epochs})
        else:
            raise AlignmentError(f"unsupported scorer type {type(scorer).__name__}")
    return scorer, stage_log


def build_preference_triplets(users) -> list[PreferenceTriplet]:
    """users: iterable of (ScorerContext, list of (SemanticId, ecpm)), one
    per user. One triplet per unordered pair with a strict ECPM inequality;
    equal-ECPM pairs are skipped."""
    triplets = []
    for context, candidates in users:
        for (sid_a, ecpm_a), (sid_b, ecpm_b) in itertools.combinations(candidates, 2):
            if ecpm_a == ecpm_b:
                continue
            high, low = (sid_a, sid_b) if ecpm_a > ecpm_b else (sid_b, sid_a)
            triplets.append(PreferenceTriplet(user=context, high_ad=high, low_ad=low))
    return triplets


def dpo_loss(policy: NeuralScorer, reference: NeuralScorer,
             triplet: PreferenceTriplet, beta: float = 0.1,
             variant: str = "log-ratio"):
    """DPO loss for one triplet with exact parameter gradients.

    prob-ratio uses raw sequence-probability ratios inside the sigmoid;
    log-ratio is the standard log-probability-ratio form.
    """
    return _dpo_loss(policy, triplet, _reference_logprobs(reference, triplet),
                     beta, variant)


def _reference_logprobs(reference: NeuralScorer, triplet: PreferenceTriplet):
    """(log pi_ref(a_h|u), log pi_ref(a_l|u)) of one triplet."""
    ref_h = reference.seq_logprob(triplet.user, list(triplet.high_ad.tokens()))
    ref_l = reference.seq_logprob(triplet.user, list(triplet.low_ad.tokens()))
    if not (math.isfinite(ref_h) and math.isfinite(ref_l)):
        raise AlignmentError("degenerate reference: zero sequence probability")
    return ref_h, ref_l


def _dpo_loss(policy: NeuralScorer, triplet: PreferenceTriplet, ref, beta, variant):
    """dpo_loss given the reference's log probabilities ``ref``."""
    ctx = triplet.user
    logp_h, grad_h = policy.seq_logprob_and_grad(ctx, list(triplet.high_ad.tokens()))
    logp_l, grad_l = policy.seq_logprob_and_grad(ctx, list(triplet.low_ad.tokens()))
    ref_h, ref_l = ref

    if variant == "prob-ratio":
        rho_h = math.exp(logp_h - ref_h)
        rho_l = math.exp(logp_l - ref_l)
        inner = beta * (rho_h - rho_l)
        coef_h, coef_l = beta * rho_h, beta * rho_l
    elif variant == "log-ratio":
        inner = beta * ((logp_h - ref_h) - (logp_l - ref_l))
        coef_h, coef_l = beta, beta
    else:
        raise AlignmentError(f"unknown DPO variant {variant!r}")

    # loss = -log sigmoid(inner) = softplus(-inner)
    loss = math.log1p(math.exp(-abs(inner))) + max(-inner, 0.0)
    d_inner = -1.0 / (1.0 + math.exp(inner))  # -sigmoid(-inner)
    grads = {k: d_inner * (coef_h * grad_h[k] - coef_l * grad_l[k])
             for k in grad_h}
    return loss, grads


def preference_margin(policy: NeuralScorer, triplets) -> float:
    """Mean of log pi(a_h|u) - log pi(a_l|u) over the batch."""
    margins = [
        policy.seq_logprob(t.user, list(t.high_ad.tokens()))
        - policy.seq_logprob(t.user, list(t.low_ad.tokens()))
        for t in triplets
    ]
    return float(np.mean(margins)) if margins else 0.0


def dpo_update(policy: NeuralScorer, reference: NeuralScorer, triplets,
               beta: float = 0.1, learning_rate: float = 0.01, steps: int = 1,
               variant: str = "log-ratio"):
    """Batch gradient steps on the mean DPO loss; reference stays frozen, so
    its log probabilities are computed once, before the first step.

    Returns (policy, mean_loss_per_step)."""
    losses = []
    refs = [_reference_logprobs(reference, t) for t in triplets] if steps > 0 else []
    for step in range(steps):
        if not triplets:
            losses.append(0.0)
            continue
        total = policy.zero_grads()
        loss_sum = 0.0
        for t, ref in zip(triplets, refs):
            loss, grads = _dpo_loss(policy, t, ref, beta, variant)
            loss_sum += loss
            for k in total:
                total[k] += grads[k] / len(triplets)
        mean_loss = loss_sum / len(triplets)
        if not math.isfinite(mean_loss):
            raise AlignmentError(f"non-finite DPO loss at step {step}")
        policy.apply_grads(total, learning_rate)
        losses.append(mean_loss)
    return policy, losses


def save_corpus(pairs, path):
    jsonl.write(path, ({
        "prompt": p.prompt, "response": p.response, "stage": p.stage,
        "bucket": list(p.bucket), "user_id": p.user_id,
    } for p in pairs), ensure_ascii=False)


def load_corpus(path) -> list[CorpusPair]:
    return list(jsonl.read(path, lambda obj: CorpusPair(
        prompt=obj["prompt"], response=obj["response"], stage=obj["stage"],
        bucket=tuple(obj.get("bucket", ())), user_id=obj.get("user_id", ""))))
