import threading

import pytest

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
    store = FeatureStore()
    trace = [Request("u1", t) for t in range(3)]
    with pytest.raises(ServingError, match="request path"):
        run_simulation(trace, lambda u: [("x", 1.0)], _policy(["u1"], budget=1),
                       WorkerPool(1), ticks=3, store=store)
    # the tick-0 request ran before any generate function was handed out
    assert len(handed) == 1
    assert store.decoder_invocations_in_request_path == 1


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
    assert store.get("bad") is None
    assert store.get("ok") is not None


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


def test_simulation_counts_requests_past_ticks():
    trace = [Request("u1", 0), Request("u2", 1), Request("u2", 2), Request("u1", 2)]
    report = run_simulation(trace, lambda u: [], _policy(["u1", "u2"]),
                            WorkerPool(1), 2)
    assert report["requests"] == 2
    assert report["requests_past_ticks"] == 2
    whole = run_simulation(trace, lambda u: [], _policy(["u1", "u2"]),
                           WorkerPool(1), 3)
    assert (whole["requests"], whole["requests_past_ticks"]) == (4, 0)


def test_scorer_swap_changes_lists():
    trace = [Request("u1", t) for t in range(6)]
    report_store = FeatureStore()
    run_simulation(trace, lambda u: [("old", 1.0)], _policy(["u1"], budget=1),
                   WorkerPool(1), ticks=6, store=report_store,
                   scorer_swap=(3, lambda u: [("new", 1.0)]))
    entries, _ = report_store.get("u1")
    assert entries == (("new", 1.0),)


def test_load_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"user_id": "u1", "tick": 0}\n{"user_id": "u2", "tick": 3}\n')
    trace = load_trace(path)
    assert [(r.user_id, r.arrival_tick) for r in trace] == [("u1", 0), ("u2", 3)]
