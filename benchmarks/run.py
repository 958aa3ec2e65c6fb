"""genret benchmark.

    python3 benchmarks/run.py --workload batch-generate --seed 1 --seconds 3 --trace 0

Builds nothing: it imports genret from ``src/`` next to this directory and
drives it through its public functions in this one process. The last line of
standard output is the result object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``. The line before it is
the workload's full report (named metrics with sample counts, determinism
digests, check failures); a readable table goes to standard error.
``--workload all`` runs each workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("offline-build", "batch-generate", "serving-replay")


def import_genret():
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    package = ROOT / "src" / "genret"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: genret sources not found at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import genret

    if Path(genret.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported genret from {genret.__file__}, "
                         f"not from {package}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("S", "M"), default="M",
                        help="input size: M is the benchmark, S the smoke test")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def table(rows) -> str:
    return "\n".join(f"  {name:<36} {value:>16.6g} {unit:<6} {extra}"
                     for name, value, unit, extra in rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_genret()
    import layers
    import workloads

    scale = workloads.SCALES[args.scale]
    tag = f"{args.workload}-{args.scale}-{args.seed}"
    dirs = workloads.WorkDirs(str(ROOT / ".bench_work" / f"{tag}-{os.getpid()}"))
    try:
        outcome = workloads.WORKLOADS[args.workload](
            scale, args.seed, args.seconds, dirs, bool(args.trace))
    finally:
        dirs.close()

    summary = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
               "attempted": outcome.attempted, "failed": outcome.failed,
               "problems": outcome.problems}
    if args.trace:
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        measured = layers.complete(outcome.layers, units)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in measured.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{tag}.jsonl.gz"
        outcome.tracer.write(spans_path)
        summary.update(spans_file=str(spans_path.relative_to(ROOT)),
                       self_time_s=layers.self_time_table(outcome.tracer.spans))
        rows = [(n, v, units[n], "") for n, v in measured.items()]
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome.gated.items()}
        summary.update(report={name: {"value": value, "unit": unit, "samples": n}
                               for name, (value, unit, n) in outcome.report.items()},
                       digests=outcome.digests)
        rows = [(n, v, u, f"n={k}") for n, (v, u, k) in outcome.report.items()]
    print(f"{tag}: {outcome.attempted} operations, {outcome.failed} failed\n"
          + table(rows), file=sys.stderr)
    for problem in outcome.problems:
        print(f"  check failed: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
