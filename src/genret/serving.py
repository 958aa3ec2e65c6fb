"""Hybrid serving simulator: latency-sensitive lookups, nearline generation,
ARPU-prioritized admission, and balanced worker dispatch.

Time is discrete ticks. The latency-sensitive path never invokes the
decoder; it only reads precomputed lists and enqueues nearline triggers.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field

from . import jsonl


class ServingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Request:
    user_id: str
    arrival_tick: int


# a trace line: the user who asks, and the tick the request arrives at
TRACE_RECORD = jsonl.spec(user_id=jsonl.ID, tick=jsonl.INT)


class FeatureStore:
    """Per-user precomputed retrieval lists with atomic whole-list
    publication (readers see the old or the new complete list, never a mix)."""

    def __init__(self):
        self.user_lists: dict[str, tuple[tuple, int]] = {}

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
    _group_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.budget_per_tick < 0:
            raise ServingError(f"budget_per_tick must be >= 0, got {self.budget_per_tick}")
        if self.num_groups < 1:
            raise ServingError(f"num_groups must be >= 1, got {self.num_groups}")
        # a NaN compares false both ways, so the sort would place it by dict order
        for user, arpu in self.arpu_of.items():
            if not math.isfinite(arpu):
                raise ServingError(f"ARPU of {user!r} must be finite, got {arpu}")
        ordered = sorted(self.arpu_of, key=lambda u: (self.arpu_of[u], u))
        n = len(ordered)
        # ARPU quantile group, 1 (lowest) .. num_groups (highest)
        self._group_of = {user: 1 + min(self.num_groups - 1, i * self.num_groups // max(1, n))
                          for i, user in enumerate(ordered)}

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
    """Latency-sensitive path: pure store lookup plus a nearline trigger.
    The request ends the reuse of the user's current list."""
    stats.get("reusable", set()).discard(request.user_id)
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
    (FIFO within a group), decode, and atomically publish the new lists.
    ``triggers`` is left in admission order; between ticks a caller only
    appends to it.

    A user in ``stats["reusable"]``, whose current list ``generate_fn``
    published with no request from them since, gets that list republished
    at this tick without a decode: by the contract of ``run_simulation`` the
    decode would return it again. Every publish marks its user reusable. A
    failed decode is counted, the first one is named in
    ``stats["first_generation_error"]``, and it publishes nothing."""
    reusable = stats.setdefault("reusable", set())
    per_group = stats.setdefault("admitted_per_group", {})
    # the triggers the last tick left, one per key in stats["admission_keys"],
    # are still in admission order beside their keys, (-group, seq); only
    # those appended since are placed, each one's key computed once
    keys = stats.setdefault("admission_keys", [])
    added = triggers[len(keys):]
    del triggers[len(keys):]
    for trigger in added:
        key = (-policy.group_of(trigger[2]), trigger[1])
        at = bisect.bisect_right(keys, key)
        keys.insert(at, key)
        triggers.insert(at, trigger)
    budget = policy.budget_per_tick
    admitted = zip(triggers[:budget], keys[:budget])
    del triggers[:budget], keys[:budget]
    for (_, _, user_id), (negated_group, _) in admitted:
        pool.dispatch_one()
        per_group[-negated_group] = per_group.get(-negated_group, 0) + 1
        if user_id in reusable:
            stats["decodes_saved"] = stats.get("decodes_saved", 0) + 1
            entries = store.get(user_id)[0]
        else:
            try:
                entries = generate_fn(user_id)
            except Exception as exc:
                stats["generation_errors"] = stats.get("generation_errors", 0) + 1
                stats.setdefault("first_generation_error", f"{type(exc).__name__}: {exc}")
                continue
        store.publish(user_id, entries, tick)
        reusable.add(user_id)


def run_simulation(trace: list[Request], generate_fn, policy: AdmissionPolicy,
                   pool: WorkerPool, ticks: int, scorer_swap=None) -> dict:
    """Deterministic discrete-tick simulation over a tick-ordered trace.

    scorer_swap: optional (tick, new_generate_fn) modeling the daily model
    refresh. A generate function must return the same list for a user until
    that user's next request or the swap: a trigger admitted for a user whose
    list this run's current function published, with no request since, is
    served by republishing that list, and ``decodes_saved`` counts these.
    The run publishes to a ``FeatureStore`` of its own, keeps these reuse
    marks in its own ``stats`` and drops them at the swap, so no list is
    reused across a swap.

    Returns a report of hit rate, staleness, queue lengths, and per-group
    admission shares; requests_past_ticks counts the requests at tick
    ``ticks`` or later, which the simulation ends before;
    first_generation_error is ``"<type>: <message>"`` of the first failed
    decode, or None. Raises ServingError when ticks is negative, when the
    trace is out of tick order or a request arrives at a negative tick, and
    when a generate function runs while a request is being handled.
    """
    if ticks < 0:
        raise ServingError(f"ticks must be >= 0, got {ticks}")
    for k, req in enumerate(trace):
        # no tick of the loop reaches a negative one, and so none after it
        if req.arrival_tick < 0:
            raise ServingError(
                f"request {k} for {req.user_id!r} arrives at negative tick "
                f"{req.arrival_tick}")
        if k and trace[k - 1].arrival_tick > req.arrival_tick:
            raise ServingError("trace must be tick-ordered")
    store = FeatureStore()
    calls = [0]

    def counted(fn):  # calls counted for the request-path check
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
            stats.pop("reusable", None)
        while i < len(trace) and trace[i].arrival_tick == tick:
            # the generate function runs only on the nearline path: a call
            # made while a request is handled is a decode the user waits for
            before = calls[0]
            handle_request(store, trace[i], triggers, stats, seq)
            if calls[0] != before:
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
        "requests_past_ticks": len(trace) - i,
        "hit_rate": stats["hits"] / total if total else 0.0,
        "mean_staleness": sum(staleness) / len(staleness) if staleness else 0.0,
        "max_staleness": max(staleness) if staleness else 0,
        "queue_lengths": queue_lengths,
        "admitted_per_group": dict(sorted(stats.get("admitted_per_group", {}).items())),
        "generation_errors": stats.get("generation_errors", 0),
        "first_generation_error": stats.get("first_generation_error"),
        "decodes_saved": stats.get("decodes_saved", 0),
        # a decode in the request path raised above, so a report counts none
        "decoder_invocations_in_request_path": 0,
        "worker_counts": list(pool.processed),
    }


def load_trace(path) -> list[Request]:
    return list(jsonl.read(path, lambda obj: Request(obj["user_id"], obj["tick"]),
                           jsonl.JsonlError, TRACE_RECORD))
