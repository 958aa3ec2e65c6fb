"""Trie-constrained beam search over a pluggable next-token scorer."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sid import SemanticId, render_token
from .trie import Trie


class DecodeError(RuntimeError):
    pass


@dataclass
class RetrievalList:
    """A ranked list, best first: each ad with its score, and each ad's
    S-ID in the same order."""

    pairs: list[tuple[str, float]]
    sids: list[SemanticId]

    @property
    def entries(self) -> list[tuple[str, SemanticId, float]]:
        """(ad_id, SemanticId, score) per rank."""
        return [(ad_id, sid, score) for (ad_id, score), sid in zip(self.pairs, self.sids)]

    def ad_ids(self) -> list[str]:
        return [ad_id for ad_id, _ in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


def decode(scorer, context, trie: Trie, beam_width: int) -> RetrievalList:
    """Layer-by-layer beam expansion constrained to trie-valid children.

    One ``scorer.begin(context)`` state serves the whole decode. Each layer
    makes one ``state.probs`` call over the trie-valid children of the whole
    beam, and one ``state.keep`` of the survivors, given by their index
    among those children, or None when all of them survive. After each
    layer the top beam_width candidates survive; ties break by higher score
    first, then lexicographic code sequence. Scores are cumulative products
    of per-step probabilities, each a correctly rounded multiplication, so a
    product that underflows to 0.0 ties with every other zero.
    """
    if beam_width < 1:
        raise DecodeError(f"beam_width must be >= 1, got {beam_width}")
    if trie.ad_count == 0:
        raise DecodeError("empty inventory: trie holds no ads")

    # The beam holds level-local indices: its nodes, numbered within their
    # level in breadth-first order, which is lexicographic code order, as
    # trie.levels numbers them, with their costs, the negated scores. The
    # state's row r is the prefix of nodes[r], as the vocabulary ids the
    # scorer reads. The candidates, the children of the kept nodes, are
    # numbered within the next level and come in that order too, so a stable
    # sort on the cost ranks them by (-score, codes). A negated product is
    # exact, so each cost is its score's negation bit for bit, with the
    # same ties.
    state = scorer.begin(context)
    nodes, cost = np.zeros(1, dtype=np.intp), np.full(1, -1.0)
    for level, (count, parent, code, every) in enumerate(trie.levels):
        if len(nodes) == count:  # the whole level is kept
            candidates, rows, codes = every, parent, code
        else:
            kept = np.zeros(count, dtype=bool)
            kept[nodes] = True
            candidates = kept[parent].nonzero()[0]
            rows = nodes.searchsorted(parent[candidates])
            codes = code[candidates]
        p = _probs(state, scorer.vocab, level, rows, codes)
        cost = cost[rows] * p
        if level + 1 == trie.depth:
            break
        keep = None
        if len(p) > beam_width:
            keep = cost.argsort(kind="stable")[:beam_width]
            keep.sort()
            candidates, cost = candidates[keep], cost[keep]
        nodes = candidates
        state.keep(keep)

    # the last level's top k in rank order: it can hold far more candidates
    # than the beam, so only those that tie with or pass the k-th lowest
    # cost are sorted; 0.0 - cost reports a zero of either sign as 0.0
    k = min(beam_width, len(cost))
    within = (cost <= np.partition(cost, k - 1)[k - 1]).nonzero()[0]
    ranked = within[cost[within].argsort(kind="stable")[:k]]
    return _listed(trie, candidates[ranked], 0.0 - cost[ranked])


def _probs(state, vocab, level: int, rows, codes) -> np.ndarray:
    """``state.probs`` of the candidates that extend row ``rows[k]`` by the
    code ``codes[k]`` at ``level``, one value each. Raise DecodeError unless
    every value lies in [0, inf): the first that does not breaks the scorer
    contract, and the error names its token."""
    ids = vocab.code_ids(level, codes)
    p = state.probs(rows, ids)
    if p.shape != ids.shape:
        raise DecodeError(f"scorer contract violated: probs returned shape "
                          f"{p.shape} for {len(ids)} candidates")
    if not (0.0 <= p.min() and p.max() < math.inf):  # a nan fails both
        k = int((~((p >= 0.0) & (p < math.inf))).argmax())
        raise DecodeError(f"scorer contract violated: p={float(p[k])} for token "
                          f"{render_token(level, int(codes[k]))}")
    return p


def _listed(trie: Trie, leaf, scores) -> RetrievalList:
    """The list of the leaves ``leaf`` with their ``scores``, in order."""
    pairs = zip(trie.leaf_ads[leaf].tolist(), scores.tolist())
    return RetrievalList(list(pairs), trie.leaf_sids[leaf].tolist())


def decode_exhaustive(scorer, context, trie: Trie) -> RetrievalList:
    """Score every complete S-ID in the trie by exact per-step products.

    Independent oracle for decode: no pruning, full ranking. One state keeps
    every node of each level, so a level is one ``probs`` call over all of
    the next level's nodes and a ``keep`` of them all.
    """
    if not trie.levels:
        return RetrievalList([], [])
    state = scorer.begin(context)
    score = np.ones(1)
    for level, (_, parent, code, _) in enumerate(trie.levels):
        score = score[parent] * _probs(state, scorer.vocab, level, parent, code) + 0.0
        state.keep(None)
    # the leaves are numbered in code order, so a stable sort ranks them by
    # (-score, codes); + 0.0 above reports a zero of either sign as 0.0
    ranked = (-score).argsort(kind="stable")
    return _listed(trie, ranked, score[ranked])
