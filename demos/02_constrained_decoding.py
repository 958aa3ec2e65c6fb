"""Trie-constrained beam decoding on a hand-built three-ad inventory.

Reproduces the layered beam walkthrough: level-by-level expansion of only
valid trie children, cumulative-product scoring, and the effect of beam
width on which ads survive.
"""

import numpy as np

from genret.decoder import decode, decode_exhaustive
from genret.scorer import RowState, ScorerContext
from genret.sid import SemanticId, render_token
from genret.trie import build, valid_children
from genret.vocab import vocab_from_sids

SIDS = {
    "Ad_66": SemanticId((12, 7, 4)),
    "Ad_245": SemanticId((12, 7, 14)),
    "Ad_112": SemanticId((12, 6, 22)),
}

PROBS = {
    (): {"a_12": 0.6},
    ("a_12",): {"b_7": 0.5, "b_6": 0.4},
    ("a_12", "b_7"): {"c_4": 0.8, "c_14": 0.4},
    ("a_12", "b_6"): {"c_22": 0.8},
}


class TableScorer:
    """Fixed per-prefix probabilities; leftover mass goes to <unk>."""

    def __init__(self, vocab):
        self.vocab = vocab

    def begin(self, context):
        """decode's state: the rows of prob_dist, one prefix at a time."""
        return RowState(self.prob_dist, context)

    def prob_dist(self, context, prefix):
        """The table row of the prefix's tokens; the decoder passes ids."""
        dist = np.zeros(len(self.vocab))
        tokens = tuple(self.vocab.tokens[i] for i in prefix)
        for token, p in PROBS.get(tokens, {}).items():
            dist[self.vocab.lookup(token)] = p
        dist[self.vocab.lookup("<unk>")] += max(0.0, 1.0 - dist.sum())
        return dist


def main():
    trie = build(SIDS)
    print(f"trie: {trie.ad_count} ads, depth {trie.depth}")
    print("valid children at the root:",
          [render_token(0, c) for c in valid_children(trie, [])])
    print("valid children after a_12:",
          [render_token(1, c) for c in valid_children(trie, [12])])

    scorer = TableScorer(vocab_from_sids(SIDS))
    ctx = ScorerContext()

    for beam_width in (1, 2, 3):
        result = decode(scorer, ctx, trie, beam_width)
        rows = ", ".join(f"{ad}={score:.3f}" for ad, _, score in result.entries)
        print(f"beam {beam_width}: {rows}")

    full = decode_exhaustive(scorer, ctx, trie)
    print("exhaustive oracle:",
          ", ".join(f"{ad}={score:.3f}" for ad, _, score in full.entries))
    print("every decoded sequence is a real catalog ad by construction —")
    print("expansions outside the trie are masked before scoring.")


if __name__ == "__main__":
    main()
