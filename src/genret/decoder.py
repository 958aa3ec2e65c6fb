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
    probabilities (log-sum internally).
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
        # math.log per candidate: np.log can differ from it in the last bit,
        # which would change the scores. math.log raises for a p of zero or
        # below, and a nan or infinite p makes the logs' sum no finite
        # number, so both leave the fast path for the checked one
        p = p.tolist()
        try:
            logs = list(map(math.log, p))
        except ValueError:
            logs = None
        if logs is None or not sum(logs) < math.inf:
            logs = _checked_logs(p, level, trie.code[candidates])
        costs = costs[rows] - logs
        if level + 1 == trie.depth:
            break
        if len(p) > beam_width:
            keep = costs.argsort(kind="stable")[:beam_width]
            keep.sort()
            candidates, costs, rows, ids = (candidates[keep], costs[keep],
                                            rows[keep], ids[keep])
        nodes = candidates
        state.extend(rows, ids)

    # the last level's top beam_width in rank order: the first of a stable
    # sort of all its candidates, as a stable sort of the kept ones in
    # number order would rank them
    ranked = costs.argsort(kind="stable")[:beam_width]
    leaves = map(trie.leaves.__getitem__,
                 (candidates[ranked] - trie.level_start[trie.depth]).tolist())
    return RetrievalList(entries=[(ad_id, sid, score) for (ad_id, sid), score in
                                  zip(leaves, map(math.exp, (-costs[ranked]).tolist()))])


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
        ids = [scorer.vocab.code_id(level, c) for c in node.children]
        logs = _checked_logs([float(dist[i]) for i in ids], level, list(node.children))
        for (code, child), i, log_p in zip(node.children.items(), ids, logs):
            rec(child, codes + (code,), prefix + (i,), log_score + log_p)

    rec(trie.root, (), (), 0.0)
    results.sort(key=lambda e: (-e[2], e[1].codes))
    return RetrievalList(entries=results)
