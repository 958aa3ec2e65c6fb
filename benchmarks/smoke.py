"""Smoke test of the benchmark at ROADMAP scale S (32 ads, 20 users).

    python3 benchmarks/smoke.py            # or: python3 -m pytest benchmarks/smoke.py

Runs every workload once timed and once traced, and checks that every metric
BENCHMARK.json names is emitted, that the lists and replay reports repeat
exactly for one seed, that a corrupted list raises error_rate, and that the
request-path gate counts a decode made inside handle_request. The file name
keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from genret import pipeline, serving  # noqa: E402
from tracing import Tracer, decodes_in_request_path, instrument  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORTED = {
    "offline-build": {"setup_s", "build_s", "peak_rss_mb", "error_rate"},
    "batch-generate": {"setup_s", "decode_p50_ms", "decode_p99_ms", "users_per_s",
                       "hr_at_8", "ndcg_at_8", "peak_rss_mb", "error_rate"},
    "serving-replay": {"setup_s", "hit_rate", "mean_staleness_ticks", "trigger_backlog",
                       "replay_decodes_per_s", "peak_rss_mb", "error_rate"},
}


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """One benchmark run at scale S: (summary line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "S"],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT)
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return summary, result


def test_every_named_metric_is_emitted():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            summary, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
            assert all(isinstance(m["value"], float) for m in result["metrics"].values())
            if trace:
                assert result["metrics"]["serving.decodes_in_request_path"]["value"] == 0
            else:
                assert all(result["metrics"][n]["value"] > 0 for n in expected)
                assert REPORTED[workload] <= set(summary["report"])
                assert all(m["samples"] >= 1 for m in summary["report"].values())


def test_same_seed_same_outputs():
    for workload, digest, quality in (("batch-generate", "results_sha256", "hr_at_8"),
                                      ("serving-replay", "report_sha256", "hit_rate")):
        first, second = (run(workload, 0, seed=5)[0] for _ in range(2))
        assert first["digests"][digest] == second["digests"][digest]
        assert first["report"][quality] == second["report"][quality]


def test_corrupted_list_raises_error_rate():
    scale = workloads.SCALES["S"]
    real = pipeline.build_generate_fn

    def corrupting(*args, **kwargs):
        generate = real(*args, **kwargs)

        def corrupted(user_id, events=None):
            entries = generate(user_id, events)
            # one user's lists come back in ascending score order
            return entries[::-1] if user_id == "u000" else entries
        return corrupted

    dirs = workloads.WorkDirs(str(ROOT / ".bench_work" / "smoke-corrupt"))
    pipeline.build_generate_fn = corrupting
    try:
        outcome = workloads.batch_generate(scale, 3, 0.2, dirs, traced=False)
    finally:
        pipeline.build_generate_fn = real
        dirs.close()
    assert outcome.failed > 0
    assert outcome.report["error_rate"][0] > 0
    assert any("scores increase" in p for p in outcome.problems)


def test_leaky_handler_trips_request_path_gate():
    scale = workloads.SCALES["S"]
    dirs = workloads.WorkDirs(str(ROOT / ".bench_work" / "smoke-leak"))
    try:
        build, _, trace, arpu, gens = workloads.serving_setup(scale, 3, dirs)
    finally:
        dirs.close()
    real = serving.handle_request

    def leaky(store, request, triggers, stats, seq):
        gens["ngram"](request.user_id)  # decodes while the user waits
        return real(store, request, triggers, stats, seq)

    counts = []
    for handler in (real, leaky):
        tracer = Tracer()
        serving.handle_request = handler
        try:
            with instrument(tracer):
                workloads.replay(scale, trace, arpu, gens, lambda kind, fn: fn)
        finally:
            serving.handle_request = real
        counts.append(decodes_in_request_path(tracer.spans))
    assert counts[0] == 0
    assert counts[1] == len(trace)


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
