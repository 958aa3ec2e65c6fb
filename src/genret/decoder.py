"""Trie-constrained beam search over a pluggable next-token scorer."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sid import SemanticId, render_token
from .trie import Trie


class DecodeError(RuntimeError):
    pass


# The last level's filter ranks by this logarithm first (see decode). For
# every normal p > 0 it may differ from math.log(p) by at most
# _LOG_BOUND * (1 + |math.log(p)|).
_approx_log = np.log
_LOG_BOUND = 2.0 ** -40
_NORMAL = float(np.finfo(np.float64).tiny)  # the least normal float64


@dataclass
class RetrievalList:
    entries: list[tuple[str, SemanticId, float]]

    def ad_ids(self) -> list[str]:
        return [ad_id for ad_id, _, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def decode(scorer, context, trie: Trie, beam_width: int) -> RetrievalList:
    """Layer-by-layer beam expansion constrained to trie-valid children.

    One ``scorer.begin(context)`` state serves the whole decode. Each layer
    makes one ``state.probs`` call over the trie-valid children of the whole
    beam, and the kept ones ``extend`` the state. After each layer the top
    beam_width candidates survive; ties break by higher score first, then
    lexicographic code sequence. Scores are cumulative products of per-step
    probabilities (log-sum internally), each log a ``math.log``.

    The last level, where the beam meets its collision groups' suffixes, can
    hold far more candidates than the beam. There, when the candidates
    outnumber beam_width and every p is a normal float64 above 0 and below
    inf, a filter first drops those that cannot rank, so ``math.log`` is
    taken of the survivors only: the filter-then-verify of the threshold
    algorithm (Fagin, Lotem and Naor, PODS 2001) and WAND (Broder et al.,
    CIKM 2003). In every other case each candidate gets its ``math.log``.

    The filter. A candidate's row cost is c, L = math.log(p) and A =
    _approx_log(p); its exact cost C = c - L and its approximate cost D =
    c - A are each rounded once. With k = beam_width, t the k-th smallest
    D, n = trie.depth and d = _LOG_BOUND, the survivors are the candidates
    with D <= t + 8d(1 + 745n), in number order. They are ranked by C with
    the same stable sort.

    Why the survivors hold the top k. Assume |A - L| <= d(1 + |L|), which
    is at least 2^12 ulps of L, against a few ulps for numpy's SIMD log
    loops and under 1 for glibc's. The log of a positive float64 lies in
    (-745, 710), and in (-709, 710) for a normal one. So a finite c, the
    rounded negated sum of n - 1 logs, has |c| < 745(n - 1)(1 + nu) with
    u = 2^-53 the unit roundoff, and |A| < 710; M = 745n bounds |c| + |A|.
    Then |L| <= (|A| + d)/(1 - d), and for a finite c
        |C - D| <= |A - L| + u(|c| + |L|) + u(|c| + |A|)
                <= 2d(1 + |c| + |A|) <= E = 2d(1 + M).
    If t = inf the threshold is inf and every candidate survives; no cost
    is nan, since no cost is -inf and p < inf. Otherwise the k candidates
    with the smallest D have D <= t, so a finite c, and C <= t + E. A
    candidate with C > t + E ranks behind all k of them, so every one of
    the top k has C <= t + E, and D <= C + E <= t + 4d(1 + M). The
    computed threshold exceeds that: |t| <= M(1 + u), so the roundings of
    the slack and the sum take less than 2u(1 + M) off the 8d(1 + M), and
    2u < 4d; the comparison is exact. So the survivors hold the top k and
    every candidate that ranks before one of them, and their stable sort
    in number order ranks the top k as the sort of all candidates does,
    to the same bits.
    """
    if beam_width < 1:
        raise DecodeError(f"beam_width must be >= 1, got {beam_width}")
    if trie.ad_count == 0:
        raise DecodeError("empty inventory: trie holds no ads")

    # The beam is its trie nodes in breadth-first number order, which is
    # lexicographic code order, with their costs, the negated scores; the
    # state's row r is the prefix of nodes[r], as the vocabulary ids the
    # scorer reads. The candidates, the children of the kept nodes, come in
    # number order too, so a stable sort on cost ranks them by (-score,
    # codes). A cost subtracts each log where a score would add it, and
    # (-s) - x is -(s + x) in every bit.
    state = scorer.begin(context)
    nodes, costs = np.zeros(1, dtype=np.intp), np.zeros(1)
    for level in range(trie.depth):
        start, lo, hi = trie.level_start[level:level + 3]
        if len(nodes) == lo - start:  # the whole level is kept
            candidates = np.arange(lo, hi)
            rows = trie.parent[lo:hi] - start
        else:
            kept = np.zeros(lo, dtype=bool)
            kept[nodes] = True
            candidates = lo + kept[trie.parent[lo:hi]].nonzero()[0]
            rows = nodes.searchsorted(trie.parent[candidates])
        ids = scorer.vocab.code_ids(level, trie.code[candidates])
        p = state.probs(rows, ids)
        if p.shape != ids.shape:
            raise DecodeError(
                f"scorer contract violated: probs returned shape "
                f"{p.shape} for {len(ids)} candidates")
        if level + 1 == trie.depth:
            costs = costs[rows]
            if len(p) > beam_width:
                keep = _within_reach(costs, p, beam_width, trie.depth)
                candidates, costs, p = candidates[keep], costs[keep], p[keep]
            costs -= _logs(p, level, trie.code[candidates])
            break
        costs = costs[rows] - _logs(p, level, trie.code[candidates])
        if len(p) > beam_width:
            keep = costs.argsort(kind="stable")[:beam_width]
            keep.sort()
            candidates, costs, rows, ids = (candidates[keep], costs[keep],
                                            rows[keep], ids[keep])
        nodes = candidates
        state.extend(rows, ids)

    # the last level's top beam_width in rank order: the first of a stable
    # sort of its candidates, or of the filter's survivors, in number order
    ranked = costs.argsort(kind="stable")[:beam_width]
    leaves = map(trie.leaves.__getitem__,
                 (candidates[ranked] - trie.level_start[trie.depth]).tolist())
    return RetrievalList(entries=[(ad_id, sid, score) for (ad_id, sid), score in
                                  zip(leaves, map(math.exp, (-costs[ranked]).tolist()))])


def _within_reach(costs, p, beam_width: int, depth: int):
    """The positions, in number order, of the last level's candidates, of
    row costs ``costs``, that can make its top beam_width, by the filter
    and bound in decode's docstring; every position, as a slice, unless
    each p is a normal float64 above 0 and below inf."""
    if p.dtype != np.float64 or not (_NORMAL <= p.min() and p.max() < math.inf):
        return slice(None)
    approx = costs - _approx_log(p)
    t = np.partition(approx, beam_width - 1)[beam_width - 1]
    return (approx <= t + 8.0 * _LOG_BOUND * (1.0 + 745.0 * depth)).nonzero()[0]


def _logs(p, level: int, codes) -> list[float]:
    """The math.log of each probability of a level. np.log can differ from
    it in the last bit, which would change the scores. math.log raises for
    a p of zero or below, and a nan or infinite p makes the logs' sum no
    finite number, so both leave the fast path for the checked one."""
    p = p.tolist()
    try:
        logs = list(map(math.log, p))
    except ValueError:
        logs = None
    if logs is None or not sum(logs) < math.inf:
        logs = _checked_logs(p, level, codes)
    return logs


def _checked_logs(p, level: int, codes) -> list[float]:
    """The logs of a level's probabilities, -inf for a zero. A p below
    zero, nan or infinite breaks the scorer contract: the first one raises
    DecodeError naming its token, the code ``codes[k]`` at ``level``."""
    for k, x in enumerate(p):
        if not 0.0 <= x < math.inf:
            raise DecodeError(f"scorer contract violated: p={x} for token "
                              f"{render_token(level, int(codes[k]))}")
    return [math.log(x) if x > 0.0 else -math.inf for x in p]


def decode_exhaustive(scorer, context, trie: Trie) -> RetrievalList:
    """Score every complete S-ID in the trie by exact per-step products.

    Independent oracle for decode: no pruning, full ranking.
    """
    results: list[tuple[str, SemanticId, float]] = []

    def rec(node, codes: tuple[int, ...], prefix: tuple[int, ...], log_score: float):
        if node.end_of_ad is not None and len(codes) == trie.depth:
            results.append((node.end_of_ad, SemanticId(codes), math.exp(log_score)))
        if not node.children:
            return
        level = len(codes)
        dist = scorer.prob_dist(context, prefix)
        ids = scorer.vocab.code_ids(level, np.fromiter(node.children, np.intp)).tolist()
        logs = _checked_logs([float(dist[i]) for i in ids], level, list(node.children))
        for (code, child), i, log_p in zip(node.children.items(), ids, logs):
            rec(child, codes + (code,), prefix + (i,), log_score + log_p)

    rec(trie.root, (), (), 0.0)
    results.sort(key=lambda e: (-e[2], e[1].codes))
    return RetrievalList(entries=results)
