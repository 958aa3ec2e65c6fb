"""The benchmark harness still runs against the package: a change in src/ that
breaks one of its calls fails here rather than only when the benchmark runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_traced_target_exists():
    """instrument reads each target from its owner's __dict__ and raises
    KeyError on a missing one, which would fail every traced benchmark run;
    this checks the targets in well under a second."""
    spec = importlib.util.spec_from_file_location("tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing._targets() if attr not in owner.__dict__]
    assert not missing
