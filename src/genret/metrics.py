"""Offline evaluation: HR@K, NDCG@K, Dice, diversity, LTRR."""

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

