"""Trie-constrained beam search over a pluggable next-token scorer."""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Each layer makes one ``scorer.next_probs`` call over the whole beam. After
    each layer the top beam_width candidates survive; ties break by higher
    score first, then lexicographic code sequence. Scores are cumulative
    products of per-step probabilities (log-sum internally).
    """
    if beam_width < 1:
        raise DecodeError(f"beam_width must be >= 1, got {beam_width}")
    if trie.ad_count == 0:
        raise DecodeError("empty inventory: trie holds no ads")

    # The beam is kept in lexicographic code order, so listing each entry's
    # children in ascending code order lists the candidates in lexicographic
    # order too, and a stable sort on score ranks them by (-score, codes).
    # Each entry's prefix is its vocabulary ids, which is what the scorer reads.
    v = len(scorer.vocab)
    codes, prefixes, scores, nodes = [()], [()], [0.0], [trie.root]
    for level in range(trie.depth):
        probs = scorer.next_probs(context, prefixes)
        if probs.shape != (len(prefixes), v):
            raise DecodeError(
                f"scorer contract violated: next_probs returned shape "
                f"{probs.shape} for {len(prefixes)} prefixes")
        candidates = [(i, c) for i, node in enumerate(nodes) for c in node.children]
        id_of = {c: scorer.vocab.code_id(level, c) for c in {c for _, c in candidates}}
        p = probs.ravel()[[i * v + id_of[c] for i, c in candidates]].tolist()
        bad = [k for k, x in enumerate(p) if not 0.0 <= x < math.inf]
        if bad:
            raise DecodeError(f"scorer contract violated: p={p[bad[0]]} for token "
                              f"{render_token(level, candidates[bad[0]][1])}")
        # math.log per candidate: np.log can differ from it in the last bit,
        # which would change the scores
        expanded = [scores[i] + (math.log(x) if x > 0.0 else -math.inf)
                    for (i, _), x in zip(candidates, p)]
        ranked = sorted(range(len(expanded)), key=expanded.__getitem__, reverse=True)
        keep = sorted(ranked[:beam_width])
        scores = [expanded[k] for k in keep]
        kept = [candidates[k] for k in keep]
        codes = [codes[i] + (c,) for i, c in kept]
        prefixes = [prefixes[i] + (id_of[c],) for i, c in kept]
        nodes = [nodes[i].children[c] for i, c in kept]

    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    entries = [(nodes[i].end_of_ad, SemanticId(codes[i]), math.exp(scores[i]))
               for i in ranked if nodes[i].end_of_ad is not None]
    return RetrievalList(entries=entries)


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
        probs = [float(dist[i]) for i in ids]
        bad = [k for k, p in enumerate(probs) if not 0.0 <= p < math.inf]
        if bad:
            raise DecodeError(f"scorer contract violated: p={probs[bad[0]]} for token "
                              f"{render_token(level, list(node.children)[bad[0]])}")
        for (code, child), i, p in zip(node.children.items(), ids, probs):
            log_p = math.log(p) if p > 0.0 else -math.inf
            rec(child, codes + (code,), prefix + (i,), log_score + log_p)

    rec(trie.root, (), (), 0.0)
    results.sort(key=lambda e: (-e[2], e[1].codes))
    return RetrievalList(entries=results)
