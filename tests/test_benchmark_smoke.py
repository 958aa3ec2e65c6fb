"""The benchmark harness still runs against the package: a change in src/ that
breaks one of its calls fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
