import json
from pathlib import Path

import pytest

from genret.catalog import load_catalog
from genret.synth import (SyntheticSpec, gen_data, load_ltr_labels,
                          load_truth, make_catalog, make_cluster_table,
                          make_events, make_profiles)


def _spec(**kw):
    defaults = dict(num_categories=3, ads_per_category=5, num_users=6,
                    events_per_user=10, seed=7)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def test_catalog_counts_and_categories():
    catalog = make_catalog(_spec())
    assert len(catalog) == 15
    cats = {ad.first_category for ad in catalog}
    assert len(cats) == 3
    for members in catalog.category_index.values():
        assert len(members) == 5


def test_profiles_count_and_fields():
    profiles = make_profiles(_spec())
    assert len(profiles) == 6
    for uid, p in profiles.items():
        assert p["user_id"] == uid
        assert 18 <= p["age"] <= 65


def test_events_leave_one_out_split():
    spec = _spec()
    catalog = make_catalog(spec)
    train, truth, ltr, full = make_events(spec, catalog)
    assert set(train) == set(truth) == set(ltr) == set(full)
    for uid in train:
        # the held-out truth is the last ad event of the full sequence and
        # is absent from the training view
        ads = [e for e in full[uid] if e["domain"] == "ad"]
        assert ads[-1]["ad_id"] == truth[uid]
        assert len(train[uid]) == len(full[uid]) - 1
        last_idx = max(i for i, e in enumerate(full[uid])
                       if e["domain"] == "ad")
        assert train[uid] == full[uid][:last_idx] + full[uid][last_idx + 1:]
        # sequences render oldest-first (days_ago descending)
        days = [e["days_ago"] for e in full[uid]]
        assert days == sorted(days, reverse=True)


def test_ltr_labels_from_catalog():
    spec = _spec()
    catalog = make_catalog(spec)
    _, _, ltr, _ = make_events(spec, catalog)
    valid = {ad.ad_id for ad in catalog}
    for labels in ltr.values():
        assert 1 <= len(labels) <= 3
        assert set(labels) <= valid


def test_gen_data_files_and_determinism(tmp_path):
    spec = _spec()
    paths_a = gen_data(spec, tmp_path / "a")
    paths_b = gen_data(spec, tmp_path / "b")
    assert set(paths_a) == {"catalog", "profiles", "events", "truth", "ltr_labels"}
    for key in paths_a:
        assert Path(paths_a[key]).read_bytes() == Path(paths_b[key]).read_bytes()
    # a different seed changes the bytes
    paths_c = gen_data(_spec(seed=8), tmp_path / "c")
    assert (Path(paths_a["events"]).read_bytes()
            != Path(paths_c["events"]).read_bytes())


def test_gen_data_loadable(tmp_path):
    paths = gen_data(_spec(), tmp_path)
    catalog = load_catalog(paths["catalog"])
    truth = load_truth(paths["truth"])
    ltr = load_ltr_labels(paths["ltr_labels"])
    assert len(catalog) == 15
    assert set(truth) == set(ltr)
    valid = {ad.ad_id for ad in catalog}
    assert all(v in valid for v in truth.values())
    with open(paths["events"], encoding="utf-8") as fh:
        events = [json.loads(l) for l in fh if l.strip()]
    assert all(e["positive"] for e in events)


def test_cluster_table_shape_and_tightness():
    table = make_cluster_table(4, 16, dim=16, spread=0.05, seed=0)
    assert len(table) == 64
    import numpy as np

    ids = sorted(table.entries)
    by_cluster = {}
    for ad_id in ids:
        by_cluster.setdefault(ad_id.split("_")[1], []).append(table[ad_id])
    centers = {c: np.mean(vs, axis=0) for c, vs in by_cluster.items()}
    # within-cluster spread is far below between-center distances
    for c, vs in by_cluster.items():
        within = max(np.linalg.norm(v - centers[c]) for v in vs)
        between = min(np.linalg.norm(centers[c] - centers[o])
                      for o in centers if o != c)
        assert within < 0.25 * between


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(num_users=0)
    with pytest.raises(ValueError, match="synthetic sizes must be positive"):
        SyntheticSpec(events_per_user=0)
    # the last event is held out, so 2 is the least that leaves one to train on
    with pytest.raises(ValueError, match="events_per_user 1 leaves no training event"):
        SyntheticSpec(events_per_user=1)
    assert SyntheticSpec(events_per_user=2).events_per_user == 2


def test_spec_rejects_more_events_than_days():
    """make_events puts each event on its own day, so a spec cannot ask for
    more events than it has days; the largest spec it can serve gives every
    user exactly that many events."""
    with pytest.raises(ValueError, match="events_per_user 89"):
        _spec(events_per_user=89)
    spec = _spec(events_per_user=88, num_users=2)
    _, _, _, full = make_events(spec, make_catalog(spec))
    assert [len(events) for events in full.values()] == [88, 88]
