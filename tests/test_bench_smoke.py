"""The benchmark's own self-test, run from the suite: every workload at tiny
sizes, untraced and traced, must pass its output checks. The traced runs
check that calls with equal argument shapes do equal matmul work, the exact
call counts, and the generator's counts against its output files, so a
change that breaks one of those checks fails here and not only in a
benchmark run."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes(tmp_path):
    # A run also compares its exact counts with the state an earlier run of
    # the same seed and code left in .bench_out/, and those counts are means
    # over the run's traced operations, which can differ in the last bit when
    # the two runs made different numbers of them. A fresh copy has no state.
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "smoke.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
