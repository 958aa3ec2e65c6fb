"""Discrete-tick serving simulation: lookup path versus nearline path.

Requests only read precomputed lists (never the decoder); each request
queues a nearline trigger; the per-tick generation budget is spent on the
highest-ARPU groups first; a trigger for a user whose list the current model
already produced, with no request since, republishes it without a decode;
and a mid-run scorer swap models the daily model refresh.
"""

from genret.serving import (AdmissionPolicy, Request, WorkerPool,
                            run_simulation)


def main():
    users = [f"u{i:02d}" for i in range(30)]
    # ARPU grows with the user index, so high-index users get priority
    policy = AdmissionPolicy(arpu_of={u: float(i) for i, u in enumerate(users)},
                             budget_per_tick=5)
    print(f"admission groups: u00 -> {policy.group_of('u00')}, "
          f"u15 -> {policy.group_of('u15')}, u29 -> {policy.group_of('u29')}")

    trace = [Request(users[(3 * i) % 30], i // 30) for i in range(600)]
    trace.sort(key=lambda r: r.arrival_tick)

    def model_v1(user_id):
        return [(f"{user_id}:ad{j}", 1.0 - j / 8) for j in range(8)]

    def model_v2(user_id):
        return [(f"{user_id}:fresh{j}", 1.0 - j / 8) for j in range(8)]

    report = run_simulation(trace, model_v1, policy, WorkerPool(4),
                            ticks=25, scorer_swap=(12, model_v2))

    print(f"\nrequests: {report['requests']}, "
          f"hit rate: {report['hit_rate']:.3f}")
    print(f"staleness: mean {report['mean_staleness']:.2f} ticks, "
          f"max {report['max_staleness']}")
    print(f"decoder invocations in the request path: "
          f"{report['decoder_invocations_in_request_path']} (always 0)")
    print(f"decodes saved (list unchanged since the last decode): "
          f"{report['decodes_saved']} of {sum(report['admitted_per_group'].values())} "
          f"admitted triggers")
    print(f"worker counts (round-robin): {report['worker_counts']}")
    print("admissions by ARPU group (higher groups first in line):")
    for group, count in sorted(report["admitted_per_group"].items(),
                               reverse=True):
        print(f"  group {group:2d}: {count}")
    print(f"queue length at the last tick: {report['queue_lengths'][-1]}")


if __name__ == "__main__":
    main()
