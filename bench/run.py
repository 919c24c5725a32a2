"""midilstm benchmark.

    python3 bench/run.py --workload {train,generate} --seed N \
        --seconds S --trace {0,1} [--scale {paper,tiny}]

Run from anywhere; the program under test is imported from ``src/`` next to
this directory. Inputs are built from ``--seed``, the workload is driven in
process for about ``--seconds`` seconds, outputs are checked, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (from traced operations, alternated with untraced ones).
A full record with the machine fingerprint goes to
``.bench_out/records/``; traced runs also write their spans to
``.bench_out/spans/``. Exit code 2 means the program could not be found or
imported, 1 that no operation succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# BLAS threads are fixed (and recorded): the thread count changes 2x256
# generation speed by tens of percent. Must be set before numpy loads.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a process imports the program once, and one import varies by tens of
# percent; setup_s counts the median of this many imports
IMPORT_REPEATS = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import midilstm.cli; print(time.perf_counter() - t0)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "generate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    return p.parse_args(argv)


def fingerprint() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy has no dict form; record why
        blas = {"error": repr(exc)}
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_times(first: float) -> list[float]:
    """``first`` plus the import time of the program in fresh interpreters."""
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def code_digest() -> str:
    """Digest of the program and of the benchmark itself."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_earlier(key: str, result: dict) -> list[str]:
    """Outputs and exact counts must repeat across runs of the same seed on
    the same code; keeps the state in .bench_out/state/."""
    path = OUT / "state" / f"{key}.json"
    now = {"code": code_digest(), "digest": result["digest"], "exact": result.get("exact")}
    errors = []
    try:
        before = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        before = None
    if before and before.get("code") == now["code"]:
        if before.get("digest") and now["digest"] and before["digest"] != now["digest"]:
            errors.append("outputs differ from an earlier run of this seed")
        if before.get("exact") and now["exact"]:
            changed = sorted(k for k in now["exact"] if before["exact"].get(k) != now["exact"][k])
            if changed:
                errors.append(f"exact counts differ from an earlier run of this seed: {changed}")
        now["exact"] = now["exact"] or before.get("exact")
        now["digest"] = now["digest"] or before.get("digest")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, sort_keys=True), encoding="utf-8")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "midilstm" / "__init__.py").is_file():
        print(f"error: program not found at {ROOT / 'src' / 'midilstm'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # keep src/ and bench/ free of caches
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import midilstm.cli  # noqa: F401  (loads every module and numpy)
    except ImportError as exc:
        print(f"error: cannot import midilstm: {exc}", file=sys.stderr)
        return 2
    imports = import_times(time.perf_counter() - t0)

    import workloads

    key = f"{args.workload}-{args.scale}-seed{args.seed}"
    work = OUT / "work" / f"{key}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.scale, work, statistics.median(imports))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cross = compare_with_earlier(key, result)
    attempted = result["attempted"] + 1  # the cross-run comparison counts as one check
    failed = result["failed"] + bool(cross)
    errors = result["errors"] + cross
    metrics = result.get("layers") if args.trace else result.get("e2e")
    if metrics is None:
        print("error: no operation succeeded: " + "; ".join(errors[:3]), file=sys.stderr)
        return 1
    if not args.trace:
        metrics["ok_rate"] = (1.0 - failed / attempted, "ratio")
    else:
        units = {name: unit for name, unit, _ in workloads.layer_metric_specs()}
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
        tracer = result["tracer"]
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{key}.npz")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": fingerprint(),
        "attempted": attempted, "failed": failed, "errors": errors,
        "named": result.get("named", {}), "op_wall_s": result["op_wall_s"],
        "import_times_s": imports, "setup_times_s": result["setup_times_s"],
        "op_parts": result["op_parts"],
        "trace_missing": result.get("trace_missing", []),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{key}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}  "
          f"operations {attempted - 1}  failed {failed}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for error in errors:
        print(f"FAILED {error}")
    for name in record["trace_missing"]:
        print(f"MISSING {name}: not found in the program, its metrics read 0")
    for name, (value, unit) in {**result.get("named", {}), **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
