"""Per-layer metrics derived from a traced run's spans.

Each function reads the spans of one side of the system. A layer that the
workload never calls reports 0, which is the predicted no-change side.
"""

from __future__ import annotations

import numpy as np

from genret import metrics
from genret.sid import parse_token
from genret.vocab import UNK

from tracing import ATTRS, END, NAME, PARENT, START, decodes_in_request_path, self_times

BEAMS = (8, 32, 128)
LEVELS = 4  # three base levels plus the disambiguation level


def _durations(spans, name):
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def fanout_by_prefix(ad_trie) -> dict[tuple, int]:
    """Children under every internal node, keyed by its code prefix."""
    out = {}

    def rec(node, codes):
        if node.children:
            out[codes] = len(node.children)
        for code, child in node.children.items():
            rec(child, codes + (code,))

    rec(ad_trie.root, ())
    return out


def build_side(spans, build, builds: int) -> dict:
    """synth, embed, rqvae, trie, prompting/alignment and scorer writes."""
    cfg = build.rq_config
    collision_rate, max_group, usage = build.codebook
    fanout = fanout_by_prefix(build.trie)
    train_ngram = [s[END] - s[START] for s in spans
                   if s[NAME] == "alignment.train_staged" and s[ATTRS] == "NgramScorer"]
    count = {}
    for s in spans:
        count[s[NAME]] = count.get(s[NAME], 0) + 1
    train_s = _mean(_durations(spans, "rqvae.train"))
    out = {
        "synth.gen_data_s": _mean(_durations(spans, "synth.gen_data")),
        "embed.embed_catalog_s": _mean(_durations(spans, "embed.embed_catalog")),
        "rqvae.train_s": train_s,
        "rqvae.epoch_ms": train_s * 1000.0 / cfg.epochs,
        "rqvae.quantize_calls": count.get("rqvae.quantize", 0) / builds,
        "rqvae.assign_sids_s": _mean(_durations(spans, "rqvae.assign_sids")),
        "rqvae.collision_rate": collision_rate,
        "rqvae.max_collision_group": max_group,
        "trie.build_s": _mean(_durations(spans, "trie.build")),
        "trie.max_fanout": max(fanout.values()),
        "alignment.build_stage_corpora_s": _mean(
            _durations(spans, "alignment.build_stage_corpora")),
        "prompting.augment_calls": count.get("prompting.augment", 0) / builds,
        "alignment.train_staged_s": _mean(train_ngram),
        "scorer.observe_calls": count.get("scorer.observe", 0) / builds,
    }
    out.update({f"rqvae.usage_rate.l{l}": u for l, u in enumerate(usage)})
    for level in range(LEVELS):
        at_level = [n for prefix, n in fanout.items() if len(prefix) == level]
        out[f"trie.fanout.l{level}"] = _mean(at_level)
    for stage, pairs in build.corpora.items():
        out[f"alignment.pairs.{stage}"] = len(pairs)
    return out


def decode_side(spans, build, request_name: str) -> dict:
    """Decoder and scorer reads under request spans named ``request_name``."""
    fanout = fanout_by_prefix(build.trie)
    vocab = build.scorer.vocab
    context_s = {i: 0.0 for i, s in enumerate(spans) if s[NAME] == request_name}
    decodes = {i: s for i, s in enumerate(spans)
               if s[NAME] == "decoder.decode" and s[PARENT] in context_s}
    child_s = {i: 0.0 for i in decodes}
    calls = [0] * LEVELS
    candidates = [0] * LEVELS
    call_s, useful = [], 0
    for s in spans:
        parent = s[PARENT]
        if s[NAME] == "scorer.prob_dist" and parent in decodes:
            level = len(s[ATTRS])
            codes = tuple(parse_token(t)[1] for t in s[ATTRS])
            calls[level] += 1
            candidates[level] += fanout[codes]
            useful += fanout[codes]
            call_s.append(s[END] - s[START])
            child_s[parent] += s[END] - s[START]
        elif s[NAME] in ("alignment.summary_from_events",
                         "alignment.compact_context") and parent in context_s:
            context_s[parent] += s[END] - s[START]
    n = len(decodes)
    unk = total = 0
    for s in decodes.values():
        tokens = s[ATTRS][1].tokens
        total += len(tokens)
        unk += sum(1 for t in tokens if vocab.lookup(t) == vocab.id_of[UNK])
    out = {
        "decoder.context_ms": _mean(list(context_s.values())) * 1000.0,
        "scorer.prob_dist_calls": sum(calls) / n if n else 0.0,
        "scorer.prob_dist_ms": _mean(call_s) * 1000.0,
        "scorer.useful_prob_share": useful / (len(vocab) * len(call_s)) if call_s else 0.0,
        "scorer.unk_context_share": unk / total if total else 0.0,
        "decoder.self_ms": _mean([s[END] - s[START] - child_s[i]
                                  for i, s in decodes.items()]) * 1000.0,
    }
    for level in range(LEVELS):
        out[f"scorer.prob_dist_calls.l{level}"] = calls[level] / n if n else 0.0
        out[f"decoder.candidates.l{level}"] = candidates[level] / n if n else 0.0
    for beam in BEAMS:
        ms = [(s[END] - s[START]) * 1000.0 for s in decodes.values() if s[ATTRS][0] == beam]
        out[f"decoder.decode_ms.b{beam}.p50"] = _pct(ms, 50)
        out[f"decoder.decode_ms.b{beam}.p99"] = _pct(ms, 99)
        out[f"decoder.decode_ms.b{beam}.count"] = len(ms)
    return out


def quality(records) -> dict:
    """Retrieval quality beside hr_at_8; called inside the traced region so
    the metrics layer is traced too."""
    return {
        "metrics.hr_at_1": metrics.hit_ratio(records, 1),
        "metrics.hr_at_4": metrics.hit_ratio(records, 4),
        "metrics.ndcg_at_4": metrics.ndcg(records, 4),
        "metrics.diversity_score": metrics.diversity(records, 8)[2],
        "metrics.ltrr_at_8": metrics.ltrr(records, 8)[0],
    }


def serving_side(spans, report) -> dict:
    """Lookups, nearline ticks, admission and duplicate decodes."""
    lookups_us = [d * 1e6 for d in _durations(spans, "serving.handle_request")]
    # A decode is a duplicate when the same user was last decoded under the
    # same scorer and has sent no request since.
    last_kind, asked, generates, duplicates = {}, {}, 0, 0
    for s in spans:
        if s[NAME] == "serving.handle_request":
            asked[s[ATTRS]] = True
        elif s[NAME] == "serving.generate":
            user, kind = s[ATTRS]
            generates += 1
            if last_kind.get(user) == kind and not asked.get(user, True):
                duplicates += 1
            last_kind[user], asked[user] = kind, False
    admitted = report["admitted_per_group"]
    workers = report["worker_counts"]
    return {
        "serving.lookup_us.p50": _pct(lookups_us, 50),
        "serving.lookup_us.p99": _pct(lookups_us, 99),
        "serving.lookup_us.count": len(lookups_us),
        "serving.nearline_tick_ms": _mean(_durations(spans, "serving.nearline_tick")) * 1000.0,
        "serving.generate_calls": generates,
        "serving.duplicate_decode_share": duplicates / generates if generates else 0.0,
        "serving.queue_len.max": max(report["queue_lengths"]),
        "serving.admitted_share.top_group": (admitted[max(admitted)] / sum(admitted.values())
                                             if admitted else 0.0),
        "serving.worker_imbalance": (max(workers) - min(workers)) / float(np.mean(workers)),
        "serving.decodes_in_request_path": decodes_in_request_path(spans),
        "serving.generation_errors": report["generation_errors"],
    }


def trace_cost(untraced_s: float, traced_s: float) -> dict:
    """Tracing overhead: the same work traced against untraced."""
    return {"trace.overhead_share": traced_s / untraced_s - 1.0}


def complete(measured: dict, names) -> dict:
    """Every per-layer metric in ``names``, 0 for layers this workload never
    called."""
    unknown = set(measured) - set(names)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name in names}


def self_time_table(spans) -> dict:
    return {name: round(t, 6) for name, t in sorted(self_times(spans).items())}
