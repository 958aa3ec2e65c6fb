"""Index a small ad catalog into semantic IDs.

Walks the full indexing path: hashed description embeddings, residual
quantizer training, S-ID assignment with disambiguation, and the codebook
health metrics.
"""

import numpy as np

from genret.embed import embed_catalog, embed_hashed
from genret.rqvae import RqVaeConfig, assign_sids, codebook_metrics, train
from genret.synth import SyntheticSpec, make_catalog


def main():
    spec = SyntheticSpec(num_categories=3, ads_per_category=6, seed=0)
    catalog = make_catalog(spec)
    print(f"catalog: {len(catalog)} ads across "
          f"{len(catalog.category_index)} categories")

    table = embed_catalog(catalog, dimension=32, seed=0)
    print(f"embeddings: {len(table)} vectors of dimension {table.dimension}")

    # any text embeds as a description does; the ads nearest a category's
    # phrase by cosine, which is the dot product of unit vectors
    category = catalog.ads[0].first_category
    query = embed_hashed(f"The first-level category is {category};", 32, 0)
    ad_ids = [ad.ad_id for ad in catalog]
    nearest = np.argsort(-(table.matrix(ad_ids) @ query), kind="stable")[:3]
    print(f"nearest to {category!r}: "
          f"{[(ad_ids[i], catalog.get(ad_ids[i]).first_category) for i in nearest]}")

    config = RqVaeConfig(num_levels=3, codebook_size=8, latent_dim=8,
                         epochs=120, seed=0)
    model = train(config, table)
    sids = assign_sids(model, table)

    print("\nsample assignments:")
    for ad_id in sorted(sids)[:6]:
        ad = catalog.get(ad_id)
        print(f"  {ad_id} ({ad.first_category}): {sids[ad_id].render()}")

    collision_rate, max_collision, usage = codebook_metrics(sids, config)
    print(f"\ncollision rate: {collision_rate:.3f} "
          f"(largest shared-base group: {max_collision})")
    print(f"usage rate per level: {[round(u, 3) for u in usage]} "
          f"(mean {np.mean(usage):.3f})")

    # ads in the same category should land near each other in code space
    by_cat = {}
    for ad in catalog:
        by_cat.setdefault(ad.first_category, []).append(sids[ad.ad_id].codes[0])
    print("\nlevel-1 codes by category (clustering at the coarsest level):")
    for cat, codes in sorted(by_cat.items()):
        print(f"  {cat}: {sorted(codes)}")


if __name__ == "__main__":
    main()
