import hashlib
import json
import math
import random
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from genret import serving
from genret.serving import (AdmissionPolicy, FeatureStore, Request,
                            ServingError, WorkerPool, handle_request,
                            load_trace, nearline_tick, run_simulation)


def _policy(users, budget=2, num_groups=25):
    return AdmissionPolicy(arpu_of={u: float(i) for i, u in enumerate(users)},
                           budget_per_tick=budget, num_groups=num_groups)


# --- feature store -----------------------------------------------------------

def test_publish_and_get_atomic_snapshot():
    store = FeatureStore()
    assert store.get("u1") is None
    store.publish("u1", [("a", 0.9), ("b", 0.5)], generated_at=3)
    entries, at = store.get("u1")
    assert entries == (("a", 0.9), ("b", 0.5))
    assert at == 3
    store.publish("u1", [("c", 0.4)], generated_at=7)
    assert store.get("u1") == ((("c", 0.4),), 7)


def test_atomic_publication_fuzz():
    # concurrent readers must only ever observe complete published tuples
    store = FeatureStore()
    versions = {v: tuple((f"ad{v}_{j}", float(v)) for j in range(4))
                for v in range(50)}
    store.publish("u", versions[0], 0)
    bad = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            entries, at = store.get("u")
            if entries != versions[at]:
                bad.append((at, entries))
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for v in range(1, 50):
        store.publish("u", versions[v], v)
    stop.set()
    for t in threads:
        t.join()
    assert not bad


# --- request path ------------------------------------------------------------

def test_handle_request_hit_miss_and_trigger():
    store = FeatureStore()
    store.publish("u1", [("a", 1.0)], generated_at=0)
    stats, triggers, seq = {}, [], [0]
    resp = handle_request(store, Request("u1", 4), triggers, stats, seq)
    assert resp == (("a", 1.0),)
    assert stats == {"hits": 1, "staleness": [4]}
    resp = handle_request(store, Request("u2", 4), triggers, stats, seq)
    assert resp == ()
    assert stats["misses"] == 1
    # both requests queued a trigger with increasing sequence numbers
    assert [(t[2], t[1]) for t in triggers] == [("u1", 1), ("u2", 2)]


def test_request_path_never_invokes_decoder():
    store = FeatureStore()
    calls = []

    def generate(user_id):
        calls.append(user_id)
        return [("x", 1.0)]

    trace = [Request(f"u{i}", i % 3) for i in range(9)]
    trace.sort(key=lambda r: r.arrival_tick)
    report = run_simulation(trace, generate, _policy([r.user_id for r in trace]),
                            WorkerPool(2), ticks=4)
    assert report["decoder_invocations_in_request_path"] == 0
    assert calls  # generation happened, but only on the nearline path


def test_leaky_handler_trips_request_path_gate(monkeypatch):
    # a handler that gets hold of the nearline generate function and decodes
    # while the user waits
    handed = []

    def spy_tick(store, triggers, policy, pool, generate_fn, tick, stats):
        handed.append(generate_fn)
        nearline_tick(store, triggers, policy, pool, generate_fn, tick, stats)

    def leaky(store, request, triggers, stats, seq):
        if handed:
            handed[-1](request.user_id)
        return handle_request(store, request, triggers, stats, seq)

    monkeypatch.setattr(serving, "nearline_tick", spy_tick)
    monkeypatch.setattr(serving, "handle_request", leaky)
    trace = [Request("u1", t) for t in range(3)]
    with pytest.raises(ServingError, match="request path"):
        run_simulation(trace, lambda u: [("x", 1.0)], _policy(["u1"], budget=1),
                       WorkerPool(1), ticks=3)
    # the tick-0 request ran before any generate function was handed out
    assert len(handed) == 1


def test_clean_run_after_a_raising_run_counts_no_request_path_decode(monkeypatch):
    # the request-path count belongs to the run: a run that raised leaves
    # nothing for the next run to report
    handed = []

    def spy_tick(store, triggers, policy, pool, generate_fn, tick, stats):
        handed.append(generate_fn)
        nearline_tick(store, triggers, policy, pool, generate_fn, tick, stats)

    def leaky(store, request, triggers, stats, seq):
        if handed:
            handed[-1](request.user_id)
        return handle_request(store, request, triggers, stats, seq)

    trace = [Request("u1", t) for t in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(serving, "nearline_tick", spy_tick)
        patch.setattr(serving, "handle_request", leaky)
        with pytest.raises(ServingError, match="request path"):
            run_simulation(trace, lambda u: [("x", 1.0)], _policy(["u1"], budget=1),
                           WorkerPool(1), ticks=3)
    report = run_simulation(trace, lambda u: [("x", 1.0)], _policy(["u1"], budget=1),
                            WorkerPool(1), ticks=3)
    assert report["decoder_invocations_in_request_path"] == 0


# --- admission ---------------------------------------------------------------

def test_arpu_groups_quantiles():
    users = [f"u{i:02d}" for i in range(50)]
    policy = _policy(users, num_groups=25)
    groups = [policy.group_of(u) for u in users]
    assert groups[0] == 1 and groups[-1] == 25
    assert all(a <= b for a, b in zip(groups, groups[1:]))
    # 50 users over 25 groups -> two per group
    assert all(groups.count(g) == 2 for g in range(1, 26))
    assert policy.group_of("unknown") == 1


def test_arpu_groups_come_from_arpu_alone():
    # the groups are not a constructor argument, so no stale entry answers
    with pytest.raises(TypeError):
        AdmissionPolicy({"zz": 1.0}, 1, 25, {"x": 99})
    assert AdmissionPolicy({"zz": 1.0}, 1, 25).group_of("x") == 1
    for bad in (0, -3):
        with pytest.raises(ServingError, match="num_groups"):
            _policy(["a", "b"], num_groups=bad)


@pytest.mark.parametrize("arpu", [math.nan, math.inf, -math.inf])
def test_arpu_must_be_finite(arpu):
    # a NaN compares false both ways, so the sort would place it by dict
    # order: listing b before a moved a from group 1 to group 2
    for order in ("abcd", "bacd"):
        arpu_of = {u: {"a": arpu, "b": 1.0, "c": 5.0, "d": 3.0}[u] for u in order}
        with pytest.raises(ServingError, match=f"ARPU of 'a' must be finite, got {arpu}"):
            AdmissionPolicy(arpu_of, 1, 2)


def test_admission_priority_and_fifo():
    store = FeatureStore()
    users = ["low", "mid", "high"]
    policy = _policy(users, budget=2, num_groups=3)
    order = []

    def generate(user_id):
        order.append(user_id)
        return [("x", 1.0)]

    # triggers arrive low, high, mid, low: the two admitted must be high
    # then mid (descending group), not arrival order
    triggers = [(0, 1, "low"), (0, 2, "high"), (0, 3, "mid"), (0, 4, "low")]
    nearline_tick(store, triggers, policy, WorkerPool(1), generate, 0, {})
    assert order == ["high", "mid"]
    assert [t[2] for t in triggers] == ["low", "low"]
    # FIFO within a group: the two remaining lows keep sequence order
    assert [t[1] for t in triggers] == [1, 4]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcde"), max_size=6), max_size=10),
       st.integers(0, 4))
def test_admission_order_equals_a_full_sort_each_tick(arrivals, budget):
    # one stats dict across ticks, as run_simulation keeps: the backlog is
    # kept in order from tick to tick and only the new triggers are placed
    policy = _policy(list("abcde"), budget=budget, num_groups=3)
    triggers, expected, stats, seq = [], [], {}, 0
    admitted = []

    def failing(user):  # a failed decode marks no list for reuse
        admitted.append(user)
        raise RuntimeError("no list")

    for tick, users in enumerate(arrivals):
        for user in users:
            seq += 1
            triggers.append((tick, seq, user))
            expected.append((tick, seq, user))
        expected.sort(key=lambda t: (-policy.group_of(t[2]), t[1]))
        want = expected[:budget]
        del expected[:budget]
        before = len(admitted)
        nearline_tick(FeatureStore(), triggers, policy, WorkerPool(1), failing,
                      tick, stats)
        assert admitted[before:] == [t[2] for t in want]
        assert triggers == expected


def test_admission_budget_zero_starves():
    store = FeatureStore()
    trace = [Request("u1", t) for t in range(5)]
    report = run_simulation(trace, lambda u: [("x", 1.0)],
                            _policy(["u1"], budget=0), WorkerPool(1), ticks=5)
    assert report["hit_rate"] == 0.0
    assert report["queue_lengths"] == [1, 2, 3, 4, 5]


def test_generation_errors_counted_and_skipped():
    store = FeatureStore()

    def generate(user_id):
        if user_id == "bad":
            raise RuntimeError("boom")
        return [("x", 1.0)]

    stats = {}
    triggers = [(0, 1, "bad"), (0, 2, "ok")]
    nearline_tick(store, triggers, _policy(["bad", "ok"], budget=2),
                  WorkerPool(1), generate, 0, stats)
    assert stats["generation_errors"] == 1
    assert stats["first_generation_error"] == "RuntimeError: boom"
    assert store.get("bad") is None
    assert store.get("ok") is not None
    # the report names the first failure only, and None when nothing failed
    trace = [Request("bad", 0), Request("ok", 0), Request("bad", 1)]
    report = run_simulation(trace, generate, _policy(["bad", "ok"]),
                            WorkerPool(1), ticks=2)
    assert report["generation_errors"] == 2
    assert report["first_generation_error"] == "RuntimeError: boom"
    clean = run_simulation(trace, lambda u: [("x", 1.0)], _policy(["bad", "ok"]),
                           WorkerPool(1), ticks=2)
    assert clean["generation_errors"] == 0
    assert clean["first_generation_error"] is None


def test_failed_generate_leaves_no_reuse_mark():
    # the first decode of u1 fails, so its second trigger decodes again
    calls = []

    def flaky(user_id):
        calls.append(user_id)
        if len(calls) == 1:
            raise ValueError("cold cache")
        return [("x", 1.0)]

    store, stats = FeatureStore(), {}
    policy = _policy(["u1"], budget=1)
    triggers = [(0, 1, "u1"), (0, 2, "u1")]
    nearline_tick(store, triggers, policy, WorkerPool(1), flaky, 0, stats)
    assert store.get("u1") is None and "u1" not in stats["reusable"]
    nearline_tick(store, triggers, policy, WorkerPool(1), flaky, 1, stats)
    assert calls == ["u1", "u1"]
    assert store.get("u1") == ((("x", 1.0),), 1)
    assert stats["first_generation_error"] == "ValueError: cold cache"
    assert "decodes_saved" not in stats


# --- dispatch ----------------------------------------------------------------

def test_dispatch_concurrent_8_threads():
    pool = WorkerPool(5)
    per_thread = 200

    def work():
        for _ in range(per_thread):
            pool.dispatch_one()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(pool.processed) == 8 * per_thread
    assert max(pool.processed) - min(pool.processed) <= 1


def test_worker_pool_validation():
    with pytest.raises(ServingError):
        WorkerPool(0)


def test_admission_budget_validation():
    # a negative budget would slice off all queued triggers but the last
    with pytest.raises(ServingError, match="budget_per_tick"):
        _policy(["u1"], budget=-1)
    assert _policy(["u1"], budget=0).budget_per_tick == 0


# --- end-to-end simulation ---------------------------------------------------

def test_simulation_staleness_and_hits():
    # u1 requests every tick; after the first miss its list is generated at
    # tick 0, so the tick-1 request sees staleness 1, etc., and each request
    # re-triggers regeneration
    trace = [Request("u1", t) for t in range(4)]
    report = run_simulation(trace, lambda u: [("x", 1.0)],
                            _policy(["u1"], budget=1), WorkerPool(1), ticks=4)
    assert report["requests"] == 4
    assert report["hit_rate"] == pytest.approx(3 / 4)
    assert report["mean_staleness"] == pytest.approx(1.0)
    assert report["max_staleness"] == 1


def test_simulation_deterministic():
    trace = [Request(f"u{i % 4}", i // 2) for i in range(16)]
    kw = dict(generate_fn=lambda u: [(u, 1.0)],
              policy=_policy([f"u{i}" for i in range(4)], budget=2),
              ticks=10)
    a = run_simulation(trace, kw["generate_fn"], kw["policy"], WorkerPool(3),
                       kw["ticks"])
    b = run_simulation(trace, kw["generate_fn"], kw["policy"], WorkerPool(3),
                       kw["ticks"])
    assert a == b


def test_simulation_rejects_unordered_trace():
    trace = [Request("u1", 5), Request("u1", 2)]
    with pytest.raises(ServingError, match="ordered"):
        run_simulation(trace, lambda u: [], _policy(["u1"]), WorkerPool(1), 6)


def test_simulation_rejects_negative_tick():
    # no tick of the loop reaches -1, so every request after it would be
    # dropped as well
    trace = [Request("u1", -1), Request("u2", 0), Request("u3", 1)]
    with pytest.raises(ServingError, match=r"request 0 for 'u1' arrives at negative tick -1"):
        run_simulation(trace, lambda u: [], _policy(["u1", "u2", "u3"]),
                       WorkerPool(1), 3)


def test_simulation_rejects_negative_ticks():
    # no tick runs, so every request would be reported past the ticks
    trace = [Request("u1", 0)]
    with pytest.raises(ServingError, match="ticks must be >= 0, got -3"):
        run_simulation(trace, lambda u: [], _policy(["u1"]), WorkerPool(1), -3)
    report = run_simulation(trace, lambda u: [], _policy(["u1"]), WorkerPool(1), 0)
    assert (report["requests"], report["requests_past_ticks"]) == (0, 1)


def test_simulation_counts_requests_past_ticks():
    trace = [Request("u1", 0), Request("u2", 1), Request("u2", 2), Request("u1", 2)]
    report = run_simulation(trace, lambda u: [], _policy(["u1", "u2"]),
                            WorkerPool(1), 2)
    assert report["requests"] == 2
    assert report["requests_past_ticks"] == 2
    whole = run_simulation(trace, lambda u: [], _policy(["u1", "u2"]),
                           WorkerPool(1), 3)
    assert (whole["requests"], whole["requests_past_ticks"]) == (4, 0)


def run_on(store, *args, **kwargs):
    """run_simulation, with store as the feature store the run builds, so a
    test can read what the run published."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serving, "FeatureStore", lambda: store)
        return run_simulation(*args, **kwargs)


def test_scorer_swap_changes_lists():
    trace = [Request("u1", t) for t in range(6)]
    report_store = FeatureStore()
    run_on(report_store, trace, lambda u: [("old", 1.0)], _policy(["u1"], budget=1),
           WorkerPool(1), ticks=6, scorer_swap=(3, lambda u: [("new", 1.0)]))
    entries, _ = report_store.get("u1")
    assert entries == (("new", 1.0),)
    # two triggers from tick 0, one admitted per tick: the one admitted after
    # the swap decodes with the new function, although u1 sent no request
    # since its tick-0 list
    calls = []

    def counted(tag):
        return lambda u: calls.append(tag) or [(tag, 1.0)]

    store = FeatureStore()
    report = run_on(store, [Request("u1", 0), Request("u1", 0)], counted("old"),
                    _policy(["u1"], budget=1), WorkerPool(1), ticks=2,
                    scorer_swap=(1, counted("new")))
    assert calls == ["old", "new"]
    assert store.get("u1") == ((("new", 1.0),), 1)
    assert report["decodes_saved"] == 0


# --- reuse of a list that cannot have changed --------------------------------

def _counting(calls):
    def generate(user_id):
        calls.append(user_id)
        return [(f"{user_id}:ad", 1.0)]
    return generate


def test_trigger_without_request_since_reuses_list():
    calls = []
    generate = _counting(calls)
    store, stats = FeatureStore(), {}
    policy = _policy(["u1", "u2"], budget=1)
    triggers = [(0, 1, "u1"), (0, 2, "u1")]
    nearline_tick(store, triggers, policy, WorkerPool(1), generate, 3, stats)
    assert calls == ["u1"]
    assert store.get("u1") == ((("u1:ad", 1.0),), 3)
    # no request from u1 since tick 3: its next admitted trigger republishes
    # the same entries at the new tick without calling generate_fn
    nearline_tick(store, triggers, policy, WorkerPool(1), generate, 5, stats)
    assert calls == ["u1"]
    assert store.get("u1") == ((("u1:ad", 1.0),), 5)
    assert stats["decodes_saved"] == 1
    assert stats["admitted_per_group"] == {policy.group_of("u1"): 2}


def test_request_in_between_forces_decode():
    calls = []
    generate = _counting(calls)
    store, stats = FeatureStore(), {}
    policy = _policy(["u1", "u2"], budget=1)
    triggers = [(0, 1, "u1"), (0, 2, "u1")]
    nearline_tick(store, triggers, policy, WorkerPool(1), generate, 0, stats)
    # a request from another user leaves u1's list reusable; u1's own does not
    handle_request(store, Request("u2", 1), [], stats, [2])
    assert "u1" in stats["reusable"]
    handle_request(store, Request("u1", 1), [], stats, [3])
    nearline_tick(store, triggers, policy, WorkerPool(1), generate, 1, stats)
    assert calls == ["u1", "u1"]
    assert "decodes_saved" not in stats


def reference_simulation(trace, generate_fn, policy, num_workers, ticks,
                         scorer_swap=None, on_request=lambda user: None):
    """Every admitted trigger calls the generate function: the simulation
    without reuse, written out as its own loop. Returns (report, lists)."""
    lists, triggers, staleness, queue_lengths = {}, [], [], []
    admitted_per_group, workers = {}, [0] * num_workers
    hits = misses = errors = dispatched = i = 0
    generate = generate_fn
    for tick in range(ticks):
        if scorer_swap is not None and tick == scorer_swap[0]:
            generate = scorer_swap[1]
        while i < len(trace) and trace[i].arrival_tick == tick:
            user = trace[i].user_id
            on_request(user)
            if user in lists:
                hits += 1
                staleness.append(tick - lists[user][1])
            else:
                misses += 1
            i += 1
            triggers.append((i, user))
        triggers.sort(key=lambda t: (-policy.group_of(t[1]), t[0]))
        admitted = triggers[: policy.budget_per_tick]
        triggers = triggers[policy.budget_per_tick:]
        for _, user in admitted:
            workers[dispatched % num_workers] += 1
            dispatched += 1
            group = policy.group_of(user)
            admitted_per_group[group] = admitted_per_group.get(group, 0) + 1
            try:
                entries = generate(user)
            except Exception:
                errors += 1
                continue
            lists[user] = (tuple(entries), tick)
        queue_lengths.append(len(triggers))
    total = hits + misses
    return {
        "requests": total,
        "requests_past_ticks": len(trace) - i,
        "hit_rate": hits / total if total else 0.0,
        "mean_staleness": sum(staleness) / len(staleness) if staleness else 0.0,
        "max_staleness": max(staleness) if staleness else 0,
        "queue_lengths": queue_lengths,
        "admitted_per_group": dict(sorted(admitted_per_group.items())),
        "generation_errors": errors,
        "decoder_invocations_in_request_path": 0,
        "worker_counts": workers,
    }, lists


USERS = ["u0", "u1", "u2", "u3", "u4"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(USERS), st.integers(1, 3)),
                max_size=12),
       st.integers(0, 4),
       st.integers(1, 9),
       st.one_of(st.none(), st.integers(0, 9)),
       st.sets(st.sampled_from(USERS), max_size=2),
       st.integers(1, 3))
# a burst whose second trigger is admitted after the swap; a burst, then a
# request before the user's last trigger is admitted
@example([(0, "u1", 2)], 1, 2, 1, set(), 1)
@example([(0, "u4", 3), (1, "u4", 1)], 1, 5, None, set(), 2)
def test_reuse_report_equals_decode_every_trigger(arrivals, budget, ticks, swap_tick,
                                                  failing, num_workers):
    # a burst of n requests queues n triggers that no request separates
    trace = [Request(u, t) for t, u, n in sorted(arrivals, key=lambda a: a[0])
             for _ in range(n)]
    policy = _policy(USERS, budget=budget, num_groups=3)
    asked, calls = {}, []

    def count(user_id):
        asked[user_id] = asked.get(user_id, 0) + 1

    def model(version):
        # deterministic, and within the contract: the list changes only with
        # the user's requests and with the version
        def generate(user_id):
            calls.append(user_id)
            if user_id in failing and version == "v1":
                raise RuntimeError(f"{user_id} has no profile")
            return [(f"{user_id}:{version}:{asked.get(user_id, 0)}:ad{j}", 1.0 - j / 4)
                    for j in range(3)]
        return generate

    def handle(store, request, *args):
        count(request.user_id)
        return handle_request(store, request, *args)

    def swap():
        return None if swap_tick is None else (swap_tick, model("v2"))

    store = FeatureStore()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serving, "handle_request", handle)
        mp.setattr(serving, "FeatureStore", lambda: store)
        report = run_simulation(trace, model("v1"), policy, WorkerPool(num_workers),
                                ticks, scorer_swap=swap())
    # generate calls plus reused lists cover every admitted trigger
    assert len(calls) + report["decodes_saved"] == sum(report["admitted_per_group"].values())
    assert (report.pop("first_generation_error") is None) == (report["generation_errors"] == 0)
    report.pop("decodes_saved")
    asked.clear()
    expected, lists = reference_simulation(trace, model("v1"), policy, num_workers, ticks,
                                           scorer_swap=swap(), on_request=count)
    assert report == expected
    assert store.user_lists == lists


def test_load_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"user_id": "u1", "tick": 0}\n{"user_id": "u2", "tick": 3}\n')
    trace = load_trace(path)
    assert [(r.user_id, r.arrival_tick) for r in trace] == [("u1", 0), ("u2", 3)]


# --- the real generate path, pinned ------------------------------------------

def _scale_s_replay(tmp_path):
    """A seeded replay at the default pipeline scale (4 x 8 ads, 20 users)
    through the real ``build_generate_fn`` at beam 8: the n-gram scorer
    serves the first half and the neural scorer, through ``scorer_swap``,
    the second. Returns the report and every generate call's (scorer kind,
    user, list)."""
    from genret import alignment, pipeline, rqvae, synth
    from genret import trie as trie_mod
    from genret.catalog import load_catalog
    from genret.prompting import load_events, load_profiles

    paths = synth.gen_data(synth.SyntheticSpec(seed=0), str(tmp_path / "data"))
    catalog = load_catalog(paths["catalog"])
    profiles = load_profiles(paths["profiles"])
    table = pipeline.run_embed(catalog, str(tmp_path / "embeddings.tsv"), 32, 0)
    sids, _, _ = pipeline.run_index(table, rqvae.RqVaeConfig(seed=0), str(tmp_path))
    events = load_events(paths["events"], sids)
    corpora = alignment.build_stage_corpora(catalog, sids, profiles, events)
    ad_trie = trie_mod.build(sids)
    calls = []

    def generate_fn(kind):
        scorer, _ = pipeline.run_train(sids, corpora, kind, alignment.STAGES, 0)
        generate = pipeline.build_generate_fn(scorer, ad_trie, catalog, profiles,
                                              events, 8)

        def recorded(user_id):
            entries = generate(user_id)
            calls.append((kind, user_id, entries))
            return entries
        return recorded

    users = sorted(profiles)
    rng = random.Random(11)
    ticks = 20
    # Zipf-like popularity, so lists are reused as well as decoded
    picks = rng.choices(users, weights=[1.0 / (i + 1) for i in range(len(users))],
                        k=4 * ticks)
    trace = [Request(u, k // 4) for k, u in enumerate(picks)]
    policy = AdmissionPolicy({u: rng.lognormvariate(0.0, 1.0) for u in users},
                             budget_per_tick=3)
    report = run_simulation(trace, generate_fn("ngram"), policy, WorkerPool(4), ticks,
                            scorer_swap=(ticks // 2, generate_fn("neural")))
    return report, calls


# sha256 of _scale_s_replay's report and calls as sorted-key JSON, which
# writes each score's float exactly: a change to the generate path (context,
# scorer state, decoder, admission) that moves one list or one score bit, or
# the replay's report, fails here.
SERVING_GOLDEN = "043ab046f453c958f7c52510368e77826dfeae304ab41e7e6ac3102483f2f301"


def test_scale_s_replay_matches_golden_digest(tmp_path):
    report, calls = _scale_s_replay(tmp_path)
    # the replay decodes with both scorers and reuses lists
    assert {kind for kind, _, _ in calls} == {"ngram", "neural"}
    assert report["decodes_saved"] > 0
    replay = json.dumps({"report": report, "calls": calls}, sort_keys=True)
    assert hashlib.sha256(replay.encode()).hexdigest() == SERVING_GOLDEN
