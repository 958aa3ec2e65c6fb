"""Deterministic synthetic data: catalog, profiles, events, splits, labels."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .catalog import Ad, Catalog
from .embed import EmbeddingTable

_GENDERS = ("male", "female")
_RESIDENCES = ("Haidian, Beijing", "Pudong, Shanghai", "Nanshan, Shenzhen", "Wuhou, Chengdu")
_EDUCATION = ("bachelor's", "master's", "high school", "doctorate")
_OCCUPATIONS = ("Internet industry", "education", "finance", "healthcare", "logistics")
_CONSUMPTION = ("low", "medium", "high")
_EVENT_TYPES_CONTENT = ("play short video", "search")
_EVENT_TYPES_AD = ("click on ad", "conversion ad")

# make_events puts each of a user's events on its own day of 1..89, and a
# spec asks for at most 88 of them
MAX_EVENTS_PER_USER = 88

_CATEGORY_WORDS = (
    "automobile", "travel", "emotion", "education", "finance", "fitness",
    "gaming", "beauty", "grocery", "fashion", "realty", "pets",
)


@dataclass
class SyntheticSpec:
    num_categories: int = 4
    ads_per_category: int = 8
    num_users: int = 20
    events_per_user: int = 12
    ad_event_ratio: float = 0.5
    ecpm_low: float = 1.0
    ecpm_high: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if min(self.num_categories, self.ads_per_category, self.num_users,
               self.events_per_user) < 1:
            raise ValueError("synthetic sizes must be positive")
        if self.events_per_user == 1:
            raise ValueError("events_per_user 1 leaves no training event: each "
                             "user's last event is held out, so it must be >= 2")
        if self.events_per_user > MAX_EVENTS_PER_USER:
            raise ValueError(f"events_per_user {self.events_per_user} exceeds "
                             f"{MAX_EVENTS_PER_USER}, one event per day of the window")


def make_catalog(spec: SyntheticSpec) -> Catalog:
    """Ads within a category share descriptive tokens so hashed embeddings
    cluster by category."""
    rng = random.Random(spec.seed)
    catalog = Catalog()
    for ci in range(spec.num_categories):
        word = _CATEGORY_WORDS[ci % len(_CATEGORY_WORDS)]
        category = f"{word.capitalize()} {ci}" if ci >= len(_CATEGORY_WORDS) else word.capitalize()
        for ai in range(spec.ads_per_category):
            ad_id = f"ad_{ci:02d}_{ai:03d}"
            brand = f"{word}-brand-{ai % 4}"
            catalog.add(Ad(
                ad_id=ad_id,
                name=f"{category} {word} deluxe {ai}",
                product_type=f"{category} Products",
                first_category=category,
                second_category=f"{category} series {ai % 3}",
                attributes=((f"{word} brand", brand), (f"{word} series", f"{brand}-{ai}")),
                ecpm=round(rng.uniform(spec.ecpm_low, spec.ecpm_high), 2),
            ))
    return catalog


def make_profiles(spec: SyntheticSpec) -> dict[str, dict]:
    rng = random.Random(spec.seed + 1)
    profiles = {}
    for ui in range(spec.num_users):
        uid = f"u{ui:03d}"
        profiles[uid] = {
            "user_id": uid,
            "age": rng.randint(18, 65),
            "gender": rng.choice(_GENDERS),
            "residence": rng.choice(_RESIDENCES),
            "education_level": rng.choice(_EDUCATION),
            "occupation": rng.choice(_OCCUPATIONS),
            "consumption_level": rng.choice(_CONSUMPTION),
        }
    return profiles


def make_events(spec: SyntheticSpec, catalog: Catalog):
    """Per-user event stream with category affinity, plus the leave-one-out
    split and a second-strategy LTR label set.

    Returns (train_events, truth, ltr_labels, full_events)."""
    rng = random.Random(spec.seed + 2)
    categories = sorted(catalog.category_index)
    train_events: dict[str, list[dict]] = {}
    truth: dict[str, str] = {}
    ltr_labels: dict[str, list[str]] = {}
    full_events: dict[str, list[dict]] = {}

    for ui in range(spec.num_users):
        uid = f"u{ui:03d}"
        favorites = rng.sample(categories, k=min(2, len(categories)))
        events = []
        days = sorted(rng.sample(range(1, 90), k=spec.events_per_user),
                      reverse=True)
        n_ads = 0
        for di, day in enumerate(days):
            cat = favorites[0] if rng.random() < 0.75 else rng.choice(categories)
            is_last = di == len(days) - 1
            if is_last or (rng.random() < spec.ad_event_ratio):
                ad_id = rng.choice(catalog.category_index[cat])
                events.append({
                    "user_id": uid, "days_ago": day,
                    "event_type": rng.choice(_EVENT_TYPES_AD),
                    "domain": "ad", "ad_id": ad_id, "positive": True,
                })
                n_ads += 1
            else:
                events.append({
                    "user_id": uid, "days_ago": day,
                    "event_type": rng.choice(_EVENT_TYPES_CONTENT),
                    "domain": "content",
                    "title": f"{cat.lower()} clip {rng.randint(0, 50)}",
                    "positive": True,
                })
        # last ad interaction is the held-out truth
        last_ad_idx = max(i for i, e in enumerate(events) if e["domain"] == "ad")
        truth[uid] = events[last_ad_idx]["ad_id"]
        full_events[uid] = events
        train_events[uid] = events[:last_ad_idx] + events[last_ad_idx + 1:]
        pool = list(catalog.category_index[favorites[0]])
        ltr_labels[uid] = sorted(rng.sample(pool, k=min(3, len(pool))))
    return train_events, truth, ltr_labels, full_events


def gen_data(spec: SyntheticSpec, out_dir) -> dict[str, str]:
    """Write catalog/profiles/events/truth/LTR files; byte-identical for a
    fixed spec."""
    import os

    from .catalog import save_catalog

    os.makedirs(out_dir, exist_ok=True)
    catalog = make_catalog(spec)
    profiles = make_profiles(spec)
    train_events, truth, ltr_labels, _ = make_events(spec, catalog)

    paths = {name: os.path.join(out_dir, f"{name}.jsonl")
             for name in ("catalog", "profiles", "events", "truth", "ltr_labels")}
    save_catalog(catalog, paths["catalog"])
    jsonl.write(paths["profiles"], (profiles[uid] for uid in sorted(profiles)),
                sort_keys=True)
    jsonl.write(paths["events"], (e for uid in sorted(train_events)
                                  for e in train_events[uid]), sort_keys=True)
    jsonl.write(paths["truth"], ({"user_id": uid, "ad_id": truth[uid]}
                                 for uid in sorted(truth)))
    jsonl.write(paths["ltr_labels"], ({"user_id": uid, "ad_ids": ltr_labels[uid]}
                                      for uid in sorted(ltr_labels)))
    return paths


def make_cluster_table(num_clusters: int = 4, per_cluster: int = 16,
                       dim: int = 16, spread: float = 0.05,
                       seed: int = 0) -> EmbeddingTable:
    """Gaussian cluster embedding corpus for quantizer training tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_clusters, dim))
    table = EmbeddingTable(dim)
    for c in range(num_clusters):
        for i in range(per_cluster):
            vec = centers[c] + rng.normal(0.0, spread, size=dim)
            table.add(f"ad_{c:02d}_{i:03d}", vec)
    return table


# a truth line: a user's held-out ad; an LTR labels line: a user's label set
TRUTH_RECORD = jsonl.spec(user_id=jsonl.key(jsonl.ID), ad_id=jsonl.ID)
LTR_RECORD = jsonl.spec(user_id=jsonl.key(jsonl.ID), ad_ids=jsonl.array(jsonl.ID))


def load_truth(path) -> dict[str, str]:
    return dict(jsonl.read(path, lambda obj: (obj["user_id"], obj["ad_id"]),
                           jsonl.JsonlError, TRUTH_RECORD))


def load_ltr_labels(path) -> dict[str, set[str]]:
    return dict(jsonl.read(path, lambda obj: (obj["user_id"], set(obj["ad_ids"])),
                           jsonl.JsonlError, LTR_RECORD))
