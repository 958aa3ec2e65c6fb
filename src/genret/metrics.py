"""Offline evaluation: HR@K, NDCG@K, Dice, diversity, LTRR, truncation study."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


class MetricError(ValueError):
    pass


@dataclass
class EvalRecord:
    user_id: str
    retrieved: list[str]
    truth: str
    categories: dict[str, str] = field(default_factory=dict)
    ltr_labels: set[str] | None = None

    def __post_init__(self):
        if len(set(self.retrieved)) != len(self.retrieved):
            raise MetricError(f"user {self.user_id!r}: duplicate retrieved ads")


def _require(records):
    records = list(records)
    if not records:
        raise MetricError("metric undefined on empty records")
    return records


def hit_ratio(records, k: int) -> float:
    """Mean over users of whether the held-out truth appears in the top k."""
    if k < 1:
        raise MetricError("k must be >= 1")
    records = _require(records)
    hits = [1.0 if r.truth in r.retrieved[:k] else 0.0 for r in records]
    return float(np.mean(hits))


def ndcg(records, k: int) -> float:
    """Leave-one-out NDCG: 1/log2(rank+1) when truth ranks within k, else 0."""
    if k < 1:
        raise MetricError("k must be >= 1")
    records = _require(records)
    gains = []
    for r in records:
        try:
            rank = r.retrieved[:k].index(r.truth) + 1
            gains.append(1.0 / math.log2(rank + 1))
        except ValueError:
            gains.append(0.0)
    return float(np.mean(gains))


def dice(list_a, list_b) -> float:
    """Dice similarity 2|A∩B| / (|A|+|B|); two empty lists count as 1.0."""
    set_a, set_b = set(list_a), set(list_b)
    if not set_a and not set_b:
        log.info("dice of two empty lists defined as 1.0")
        return 1.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def diversity(records, k: int):
    """Concentration, abundance, and their combined score.

    concentration: mean share of the most frequent category among the ads
    each user got in the top-k (a list shorter than k counts its own length);
    abundance: mean number of distinct categories; score averages the two
    normalized components (undefined for k=1)."""
    records = _require(records)
    concentrations, abundances = [], []
    for r in records:
        top = r.retrieved[:k]
        cats = [r.categories[a] for a in top]
        counts: dict[str, int] = {}
        for c in cats:
            counts[c] = counts.get(c, 0) + 1
        concentrations.append(max(counts.values()) / len(top) if counts else 0.0)
        abundances.append(len(counts))
    concentration = float(np.mean(concentrations))
    abundance = float(np.mean(abundances))
    if k == 1:
        return concentration, abundance, None
    score = ((1.0 - concentration) + (abundance - 1.0) / (k - 1.0)) / 2.0
    return concentration, abundance, score


def ltrr(records, k: int):
    """Recall@k of LTR labels; users with empty labels are excluded.

    Returns (mean recall, excluded user count)."""
    records = _require(records)
    recalls = []
    excluded = 0
    for r in records:
        labels = r.ltr_labels or set()
        if not labels:
            excluded += 1
            continue
        recalls.append(len(set(r.retrieved[:k]) & labels) / len(labels))
    if not recalls:
        raise MetricError("no user has LTR labels")
    return float(np.mean(recalls)), excluded


def truncation_study(decode_fn, user_sequences: dict, max_drop: int, group_fn=None):
    """Mean Dice between the full-sequence retrieval and each truncation.

    decode_fn(user_id, events) -> ordered ad_id list; drop l removes the l
    oldest events. Users are grouped by group_fn (default: ad-event count
    quartile); returns {group: [mean dice per drop 0..max_drop]}.
    """
    if group_fn is None:
        ad_counts = sorted(
            sum(1 for e in seq if getattr(e, "domain", "ad") == "ad")
            for seq in user_sequences.values()
        )

        def group_fn(seq):
            count = sum(1 for e in seq if getattr(e, "domain", "ad") == "ad")
            rank = sum(1 for c in ad_counts if c <= count) / len(ad_counts)
            return f"q{min(3, int(rank * 4))}"

    per_group: dict[str, list[list[float]]] = {}
    for uid, seq in user_sequences.items():
        seq = list(seq)
        if len(seq) <= max_drop:
            raise MetricError(f"user {uid!r} sequence shorter than max_drop")
        base = decode_fn(uid, seq)
        curve = []
        for drop in range(max_drop + 1):
            lst = base if drop == 0 else decode_fn(uid, seq[drop:])
            curve.append(dice(base, lst))
        per_group.setdefault(group_fn(seq), []).append(curve)
    return {
        g: list(np.mean(np.array(curves), axis=0))
        for g, curves in sorted(per_group.items())
    }
