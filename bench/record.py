"""Run every workload on several seeds and write one BENCH_<label>.json.

    python3 bench/record.py --label seed [--out PATH]

For each workload of BENCHMARK.json: ``SEEDS`` untraced runs (seeds
1..SEEDS) of ``run_seconds`` each, reporting each
end-to-end metric's median, quartiles and quartile spread (IQR / median),
plus one traced run (seed 1) for the per-layer breakdown. Each run is a
separate process, one at a time. The machine fingerprint of the first run is
kept with the results, so before/after records can be checked for being
taken on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = HERE.parent / ".bench_out" / "records" / f"{workload}-paper-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text(encoding="utf-8"))
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--out", help="output path (default BENCH_<label>.json)")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = {"label": args.label, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            m = runs[-1]["metrics"]
            print(workload, seed, runs[-1]["correct"],
                  " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)
        traced = run_once(workload, 1, seconds, 1)
        out.setdefault("machine", runs[0]["record"]["machine"])
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                           | {"unit": m["unit"], "bound": m["bound"]}
                           for m in bench["end_to_end"]},
            "named": {k: summarize([r["record"]["named"][k][0] for r in runs])
                      for k in runs[0]["record"]["named"]},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
        out["workloads"][workload] = entry
    path = Path(args.out or f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
