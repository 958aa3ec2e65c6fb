"""Staged-curriculum corpora, staged training, and DPO business alignment."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .catalog import Catalog, render_description
from .prompting import InterestSummary, UserProfile, augment, filter_events
from .scorer import BUCKET, NeuralScorer, NgramScorer, ScorerContext, tokenize_text
from .sid import SemanticId, rendered_tokens
from .vocab import UNK

STAGES = ("explicit", "implicit", "main")
DPO_VARIANTS = ("prob-ratio", "log-ratio")
HISTORY_ADS = 8  # recent ad S-IDs in a scorer context
# Pairs per fine-tuning step: each step sums its pairs' gradients, so the
# learning rate scales with it (B=32 at lr 0.05 diverged at M; ROADMAP item 8)
TRAIN_BATCH = 16
# Triplets per forward and backward of a DPO step. It bounds the step's
# temporaries, a few (rows, |V|) arrays of 2·n rows a triplet: unchunked, at
# M (2 740 triplets, |V| 95) each would take about 17 MB
DPO_CHUNK = 64
DPO_LEARNING_RATE = 0.01  # the default step size of a DPO update


class AlignmentError(RuntimeError):
    pass


@dataclass(frozen=True)
class CorpusPair:
    """One training pair, with the n-gram bucket and user it came from."""
    prompt: str
    response: SemanticId
    stage: str
    bucket: tuple = ()
    user_id: str = ""


# a corpus line: a pair's prompt, its response rendered, its stage, and the
# n-gram bucket and user it came from
CORPUS_RECORD = jsonl.spec(
    prompt=jsonl.STRING, response=jsonl.STRING, stage=jsonl.one_of(*STAGES),
    bucket=jsonl.optional(BUCKET),
    user_id=jsonl.optional(jsonl.STRING))


@dataclass(frozen=True)
class PreferenceTriplet:
    user: ScorerContext
    high_ad: SemanticId
    low_ad: SemanticId


def _ad_sids(events) -> list[SemanticId]:
    """The S-IDs of the ad events that carry one, in event order."""
    return [e.sid for e in events if e.domain == "ad" and e.sid is not None]


def compact_context(profile: UserProfile, summary: InterestSummary, events) -> ScorerContext:
    """The scorer context of a user's event window, the one place that
    builds one: interest categories plus the recent ad S-ID tokens, and the
    n-gram bucket (age band, gender, top interest, last ad's level-0 code)."""
    sids = _ad_sids(events)
    tokens = [f"cat:{c}" for c, _ in summary.entries[:3]]
    for sid in sids[-HISTORY_ADS:]:
        tokens += sid.tokens()
    top_cat = summary.entries[0][0] if summary.entries else ""
    bucket = (profile.age // 10, profile.gender, top_cat,
              sids[-1].codes[0] if sids else -1)
    return ScorerContext(tokens=tuple(tokens), bucket=bucket)


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
        pairs.append(CorpusPair(prompt=prompt, response=sids[ad.ad_id], stage="explicit"))
    return pairs


def build_stage_corpora(catalog: Catalog, sids, profiles, events_by_user,
                        template_ids=(0,), seed: int = 0) -> dict[str, list[CorpusPair]]:
    """Build the explicit/implicit/main corpora from structured user data.

    Prompts render the filtered behaviour window. The n-gram bucket of every
    split is compact_context's, as serving's is, over all of the user's
    logged events, the split's own target and later events included, while
    serving reads only the past: at M, seed 0, the bucket's last-ad code
    equals the response's level-0 code in 70% of main pairs (ROADMAP item 4)."""
    # seed is unused; it stays because benchmarks/workloads.py passes seed=
    corpora: dict[str, list[CorpusPair]] = {s: [] for s in STAGES}
    corpora["explicit"] = explicit_pairs(catalog, sids)
    for uid in sorted(events_by_user):
        profile = profiles[uid]
        events = filter_events(events_by_user[uid])
        summary = summary_from_events(events_by_user[uid], catalog)
        bucket = compact_context(profile, summary, events_by_user[uid]).bucket
        # one augment renders both views: the implicit stage's ads by title,
        # the main stage's by S-ID
        for stage, samples in zip(("implicit", "main"), augment(
                events, profile, summary, template_ids)):
            corpora[stage] += [CorpusPair(prompt=s.prompt, response=s.response, stage=stage,
                                          bucket=bucket, user_id=uid) for s in samples]
    return corpora


def summary_from_events(events, catalog: Catalog) -> InterestSummary:
    """Interaction counts per category; negative feedback folds into counts.
    A content event counts under its title's first word, if it has one."""
    counts: dict[str, int] = {}
    for e in events:
        cat = None
        if e.domain == "ad":
            try:  # one lookup for the ad, which the catalog almost always has
                cat = catalog.get(e.ad_id).first_category
            except KeyError:
                pass
        elif e.domain == "content" and e.title and not e.title.isspace():
            cat = e.title.split()[0]
        if cat:
            counts[cat] = counts.get(cat, 0) + 1
    return InterestSummary(list(counts.items()))


def _response_ids(vocab, responses) -> np.ndarray:
    """S-IDs of one depth n as one (P, n) id array: their codes stacked,
    each level's column mapped in place by one ``code_ids`` gather."""
    n = len(responses[0]) if responses else 0
    if any(len(r) != n for r in responses):
        raise AlignmentError("responses differ in length; a batch needs S-IDs of one depth")
    ids = np.array([r.codes for r in responses], dtype=np.intp).reshape(len(responses), n)
    for level, column in enumerate(ids.T):
        column[:] = vocab.code_ids(level, column)
    return ids


def _compiled(vocab, contexts, responses):
    """Token contexts and their S-ID responses as the neural scorer reads
    them: (each context's id array, mapped in one pass over all the tokens;
    the responses as ``_response_ids``' (P, n) array; the share of context
    tokens that map to ``<unk>``, 0.0 without any)."""
    ids = vocab.ids(list(itertools.chain.from_iterable(contexts)))
    ends = np.cumsum([len(t) for t in contexts], dtype=np.intp).tolist()
    unk = int(np.count_nonzero(ids == vocab.lookup(UNK)))
    return ([ids[end - len(t):end] for t, end in zip(contexts, ends)],
            _response_ids(vocab, responses), unk / len(ids) if len(ids) else 0.0)


def compile_corpus(pairs, vocab):
    """The pairs as ``_compiled`` maps them: (contexts, responses,
    unk_share). A main pair's context is the tokens of the S-ID renders in
    its prompt, the one place that derives it; other stages keep every
    prompt token."""
    contexts = [rendered_tokens(p.prompt) if p.stage == "main" else tokenize_text(p.prompt)
                for p in pairs]
    return _compiled(vocab, contexts, [p.response for p in pairs])


def _check_positive(name: str, value: float) -> None:
    """Raise AlignmentError unless value is a finite number above 0: at 0 a
    step leaves the scorer where it is, and below it steps the wrong way."""
    if not (math.isfinite(value) and value > 0):
        raise AlignmentError(f"{name} must be a finite number > 0, got {value}")


def check_stages(stages) -> None:
    """Raise AlignmentError naming the first stage outside STAGES."""
    unknown = [stage for stage in stages if stage not in STAGES]
    if unknown:
        raise AlignmentError(f"unknown stage {unknown[0]!r}; expected one of {STAGES}")


def train_staged(scorer, corpora: dict[str, list[CorpusPair]],
                 order=STAGES, epochs_per_stage=None,
                 learning_rate: float = 0.02, seed: int = 0):
    """Consume stage corpora strictly in the configured order.

    NgramScorer accumulates counts; NeuralScorer runs gradient epochs per
    stage over the stage's pairs compiled to ids once: each epoch's seeded
    permutation is cut into minibatches of TRAIN_BATCH pairs, and each
    minibatch makes one step on the sum of its pairs' gradients. A neural
    stage logs its ``unk_share``. Returns (scorer, stage_log). A learning
    rate that is not a finite number above 0 fails before any stage trains.
    """
    check_stages(order)
    _check_positive("learning_rate", learning_rate)
    stage_log = []
    rng = np.random.default_rng(seed)
    for stage in order:
        pairs = corpora.get(stage, [])
        if not pairs:
            stage_log.append({"stage": stage, "pairs": 0})
            continue
        if isinstance(scorer, NgramScorer):
            # the n-gram reads only the bucket, so no prompt is tokenized
            ids = _response_ids(scorer.vocab, [p.response for p in pairs]).tolist()
            scorer.train(zip((p.bucket for p in pairs), ids))
            stage_log.append({"stage": stage, "pairs": len(pairs)})
        elif isinstance(scorer, NeuralScorer):
            contexts, responses, unk_share = compile_corpus(pairs, scorer.vocab)
            epochs = (epochs_per_stage or {}).get(stage, 3)
            for _ in range(epochs):
                perm = rng.permutation(len(pairs))
                for start in range(0, len(perm), TRAIN_BATCH):
                    rows = perm[start:start + TRAIN_BATCH]
                    # gradient ascent on sum log P(response | context)
                    _, pullback = scorer.seq_logprob_vjp(
                        [contexts[r] for r in rows], responses[rows])
                    scorer.apply_grads(pullback(), -learning_rate)
            stage_log.append({"stage": stage, "pairs": len(pairs), "epochs": epochs,
                              "unk_share": unk_share})
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
    (chunk,) = _triplet_chunks(_shared_vocab(policy, reference), [triplet])
    logps, pullback = policy.seq_logprob_vjp(*chunk)
    loss, weights = _dpo_terms(logps, _reference_logprobs(reference, [chunk])[0],
                               beta, variant)
    return float(loss[0]), pullback(weights)


def _shared_vocab(policy: NeuralScorer, reference: NeuralScorer):
    """The vocabulary a DPO call maps its triplets in once, for the policy
    and the reference alike, so the two must share it."""
    if reference.vocab != policy.vocab:
        raise AlignmentError("policy and reference have different vocabularies")
    return policy.vocab


def _triplet_chunks(vocab, triplets):
    """The triplets as id batches of at most DPO_CHUNK triplets each: a
    chunk of C triplets is (contexts, responses) over 2C sequences, the C
    high responses and then the C low ones, each under its triplet's
    context."""
    parts = [triplets[s:s + DPO_CHUNK] for s in range(0, len(triplets), DPO_CHUNK)]
    return [_compiled(vocab, [t.user.tokens for t in part] * 2,
                      [t.high_ad for t in part] + [t.low_ad for t in part])[:2]
            for part in parts]


def _reference_logprobs(reference: NeuralScorer, chunks):
    """Each chunk's log pi_ref of its sequences (high, then low)."""
    ref = [reference.seq_logprob_vjp(*chunk)[0] for chunk in chunks]
    if not all(np.isfinite(r).all() for r in ref):
        raise AlignmentError("degenerate reference: zero sequence probability")
    return ref


def _dpo_terms(logps, ref, beta, variant):
    """The DPO loss of each triplet of a chunk, and the weight of each of
    its sequences' log-probability in the gradient of the loss sum:
    (loss (C,), weights (2C,), high responses first)."""
    c = len(logps) // 2
    delta_h, delta_l = logps[:c] - ref[:c], logps[c:] - ref[c:]
    if variant == "prob-ratio":
        rho_h, rho_l = np.exp(delta_h), np.exp(delta_l)
        inner = beta * (rho_h - rho_l)
        coef_h, coef_l = beta * rho_h, beta * rho_l
    elif variant == "log-ratio":
        inner = beta * (delta_h - delta_l)
        coef_h = coef_l = beta
    else:
        raise AlignmentError(f"unknown DPO variant {variant!r}; "
                             f"expected one of {DPO_VARIANTS}")
    # loss = -log sigmoid(inner) = softplus(-inner)
    loss = np.log1p(np.exp(-np.abs(inner))) + np.maximum(-inner, 0.0)
    d_inner = -1.0 / (1.0 + np.exp(inner))  # -sigmoid(-inner)
    return loss, np.concatenate((d_inner * coef_h, -d_inner * coef_l))


def preference_margin(policy: NeuralScorer, triplets) -> float:
    """Mean of log pi(a_h|u) - log pi(a_l|u) over the batch."""
    margins = []
    for chunk in _triplet_chunks(policy.vocab, triplets):
        logps = policy.seq_logprob_vjp(*chunk)[0]
        margins.append(logps[:len(logps) // 2] - logps[len(logps) // 2:])
    return float(np.mean(np.concatenate(margins))) if margins else 0.0


def dpo_update(policy: NeuralScorer, reference: NeuralScorer, triplets,
               beta: float = 0.1, learning_rate: float = DPO_LEARNING_RATE,
               steps: int = 1, variant: str = "log-ratio"):
    """Batch gradient steps on the mean DPO loss; reference stays frozen, so
    its log probabilities are computed once, before the first step, and
    each triplet is mapped to ids once. A step is one forward and one
    weighted backward per DPO_CHUNK triplets, each sequence weighted by its
    share of the mean loss's gradient.

    Returns (policy, mean_loss_per_step)."""
    if steps < 0:
        raise AlignmentError(f"steps must be >= 0, got {steps}")
    _check_positive("beta", beta)
    _check_positive("learning_rate", learning_rate)
    losses = []
    chunks = _triplet_chunks(_shared_vocab(policy, reference), triplets) if steps else []
    refs = _reference_logprobs(reference, chunks)
    for step in range(steps):
        if not triplets:
            losses.append(0.0)
            continue
        total = policy.zero_grads()
        loss_sum = 0.0
        for chunk, ref in zip(chunks, refs):
            logps, pullback = policy.seq_logprob_vjp(*chunk)
            loss, weights = _dpo_terms(logps, ref, beta, variant)
            loss_sum += float(loss.sum())
            for k, g in pullback(weights / len(triplets)).items():
                total[k] += g
        mean_loss = loss_sum / len(triplets)
        if not (math.isfinite(mean_loss) and all(np.isfinite(g).all()
                                                 for g in total.values())):
            raise AlignmentError(f"non-finite DPO loss or gradient at step {step}")
        policy.apply_grads(total, learning_rate)
        losses.append(mean_loss)
    return policy, losses


def save_corpus(pairs, path):
    jsonl.write(path, ({
        "prompt": p.prompt, "response": p.response.render(), "stage": p.stage,
        "bucket": list(p.bucket), "user_id": p.user_id,
    } for p in pairs), ensure_ascii=False)


def _corpus_pair(obj) -> CorpusPair:
    return CorpusPair(prompt=obj["prompt"], response=SemanticId.parse(obj["response"]),
                      stage=obj["stage"], bucket=tuple(obj.get("bucket", ())),
                      user_id=obj.get("user_id", ""))


def load_corpus(path) -> list[CorpusPair]:
    """A saved corpus; a malformed response or an unknown stage fails,
    naming the file and line."""
    return list(jsonl.read(path, _corpus_pair, jsonl.JsonlError, CORPUS_RECORD))
