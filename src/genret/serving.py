"""Hybrid serving simulator: latency-sensitive lookups, nearline generation,
ARPU-prioritized admission, and balanced worker dispatch.

Time is discrete ticks. The latency-sensitive path never invokes the
decoder; it only reads precomputed lists and enqueues nearline triggers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from . import jsonl


class ServingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Request:
    user_id: str
    arrival_tick: int


class FeatureStore:
    """Per-user precomputed retrieval lists with atomic whole-list
    publication (readers see the old or the new complete list, never a mix)."""

    def __init__(self):
        self.user_lists: dict[str, tuple[tuple, int]] = {}
        self.decoder_invocations_in_request_path = 0

    def publish(self, user_id: str, entries, generated_at: int) -> None:
        # single atomic dict assignment of an immutable snapshot
        self.user_lists[user_id] = (tuple(entries), generated_at)

    def get(self, user_id: str):
        return self.user_lists.get(user_id)


@dataclass
class AdmissionPolicy:
    arpu_of: dict[str, float]
    budget_per_tick: int
    num_groups: int = 25
    _group_of: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ordered = sorted(self.arpu_of, key=lambda u: (self.arpu_of[u], u))
        n = len(ordered)
        for i, user in enumerate(ordered):
            # ARPU quantile group, 1 (lowest) .. num_groups (highest)
            self._group_of[user] = 1 + min(self.num_groups - 1,
                                           i * self.num_groups // max(1, n))

    def group_of(self, user_id: str) -> int:
        return self._group_of.get(user_id, 1)


class WorkerPool:
    """Round-robin dispatch driven by a shared atomic counter."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ServingError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._counter = 0
        self._lock = threading.Lock()
        self.processed = [0] * num_workers

    def dispatch_one(self) -> int:
        with self._lock:
            worker = self._counter % self.num_workers
            self._counter += 1
            self.processed[worker] += 1
        return worker


def handle_request(store: FeatureStore, request: Request, triggers: list,
                   stats: dict, seq: list) -> tuple:
    """Latency-sensitive path: pure store lookup plus a nearline trigger."""
    entry = store.get(request.user_id)
    if entry is None:
        stats["misses"] = stats.get("misses", 0) + 1
        response = ()
    else:
        stats["hits"] = stats.get("hits", 0) + 1
        entries, generated_at = entry
        staleness = request.arrival_tick - generated_at
        stats.setdefault("staleness", []).append(staleness)
        response = entries
    seq[0] += 1
    triggers.append((request.arrival_tick, seq[0], request.user_id))
    return response


def nearline_tick(store: FeatureStore, triggers: list, policy: AdmissionPolicy,
                  pool: WorkerPool, generate_fn, tick: int, stats: dict) -> None:
    """Admit up to budget_per_tick triggers by descending ARPU group
    (FIFO within a group), decode, and atomically publish the new lists."""
    triggers.sort(key=lambda t: (-policy.group_of(t[2]), t[1]))
    admitted = triggers[: policy.budget_per_tick]
    del triggers[: policy.budget_per_tick]
    for _, _, user_id in admitted:
        pool.dispatch_one()
        group = policy.group_of(user_id)
        stats.setdefault("admitted_per_group", {}).setdefault(group, 0)
        stats["admitted_per_group"][group] += 1
        try:
            entries = generate_fn(user_id)
        except Exception:
            stats["generation_errors"] = stats.get("generation_errors", 0) + 1
            continue
        store.publish(user_id, entries, tick)


def run_simulation(trace: list[Request], generate_fn, policy: AdmissionPolicy,
                   pool: WorkerPool, ticks: int, store: FeatureStore | None = None,
                   scorer_swap=None) -> dict:
    """Deterministic discrete-tick simulation over a tick-ordered trace.

    scorer_swap: optional (tick, new_generate_fn) modeling the daily model
    refresh. Returns a report of hit rate, staleness, queue lengths, and
    per-group admission shares. Raises ServingError when a generate function
    runs while a request is being handled.
    """
    for a, b in zip(trace, trace[1:]):
        if a.arrival_tick > b.arrival_tick:
            raise ServingError("trace must be tick-ordered")
    store = store or FeatureStore()
    calls = [0]

    def counted(fn):
        def generate(user_id):
            calls[0] += 1
            return fn(user_id)
        return generate

    generate = counted(generate_fn)
    triggers: list = []
    stats: dict = {"hits": 0, "misses": 0, "staleness": []}
    seq = [0]
    queue_lengths = []
    i = 0
    for tick in range(ticks):
        if scorer_swap is not None and tick == scorer_swap[0]:
            generate = counted(scorer_swap[1])
        while i < len(trace) and trace[i].arrival_tick == tick:
            # the generate function runs only on the nearline path: a call
            # made while a request is handled is a decode the user waits for
            before = calls[0]
            handle_request(store, trace[i], triggers, stats, seq)
            if calls[0] != before:
                store.decoder_invocations_in_request_path += calls[0] - before
                raise ServingError(
                    f"request for {trace[i].user_id!r} at tick {tick} ran the "
                    f"generate function in the request path")
            i += 1
        nearline_tick(store, triggers, policy, pool, generate, tick, stats)
        queue_lengths.append(len(triggers))

    total = stats["hits"] + stats["misses"]
    staleness = stats["staleness"]
    return {
        "requests": total,
        "hit_rate": stats["hits"] / total if total else 0.0,
        "mean_staleness": sum(staleness) / len(staleness) if staleness else 0.0,
        "max_staleness": max(staleness) if staleness else 0,
        "queue_lengths": queue_lengths,
        "admitted_per_group": dict(sorted(stats.get("admitted_per_group", {}).items())),
        "generation_errors": stats.get("generation_errors", 0),
        "decoder_invocations_in_request_path": store.decoder_invocations_in_request_path,
        "worker_counts": list(pool.processed),
    }


def load_trace(path) -> list[Request]:
    return list(jsonl.read(path, lambda obj: Request(
        user_id=str(obj["user_id"]), arrival_tick=int(obj["tick"]))))
