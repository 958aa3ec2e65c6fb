"""Business alignment with direct preference optimization.

Builds ECPM-ordered preference triplets, runs DPO against a frozen
reference scorer, and shows the preference margin moving in favor of
higher-value ads while the loss falls from log 2.
"""

import math

from genret.alignment import (build_preference_triplets, dpo_loss, dpo_update,
                              preference_margin)
from genret.scorer import NeuralScorer, ScorerContext
from genret.sid import SemanticId
from genret.vocab import vocab_from_sids


def main():
    sids = {f"ad{i}": SemanticId((i % 3, i // 3, 0)) for i in range(6)}
    vocab = vocab_from_sids(sids, extra_tokens=["cat:travel"])
    ctx = ScorerContext(tokens=("cat:travel",))

    candidates = {ctx: [(sids["ad0"], 12.0), (sids["ad1"], 4.5),
                        (sids["ad2"], 4.5), (sids["ad3"], 1.2)]}
    triplets = build_preference_triplets(candidates.items())
    print(f"{len(triplets)} triplets from 4 candidates "
          "(the equal-ECPM pair is skipped):")
    for t in triplets:
        print(f"  prefer {t.high_ad.render()} over {t.low_ad.render()}")

    reference = NeuralScorer(vocab, embed_dim=12, hidden_dim=16, seed=0)
    policy = reference.copy()

    loss0, _ = dpo_loss(policy, reference, triplets[0])
    print(f"\nloss at policy == reference: {loss0:.6f} "
          f"(log 2 = {math.log(2):.6f})")

    margin0 = preference_margin(policy, triplets)
    policy, losses = dpo_update(policy, reference, triplets,
                                learning_rate=0.05, steps=30)
    margin1 = preference_margin(policy, triplets)
    print(f"mean loss: {losses[0]:.4f} -> {losses[-1]:.4f} over 30 steps")
    print(f"preference margin: {margin0:+.4f} -> {margin1:+.4f}")

    # the prob-ratio variant uses raw probability ratios in the sigmoid
    loss_ratio, _ = dpo_loss(policy, reference, triplets[0],
                             variant="prob-ratio")
    print(f"prob-ratio variant loss on the same triplet: {loss_ratio:.4f}")


if __name__ == "__main__":
    main()
