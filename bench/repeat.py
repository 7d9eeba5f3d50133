"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py [--workloads fastpath,sweep,oracle] [--seeds 10]
                            [--first-seed 0] [--record FILE]

Each run is ``bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` with ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric it prints the median over seeds, the distance between the first and
third quartiles as a share of the median, and the metric's bound.  A spread
above a third of the bound is flagged ``WIDE``; above the bound, ``OVER``.

``--record FILE`` also makes one traced run per workload and writes every
median with the git commit, the Python version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fastpath,sweep,oracle")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--record", help="write medians and machine facts to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in record["seeds"]:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} failed={result['failed']}/{result['attempted']}",
                  flush=True)
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            flag = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else "ok"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {workload:<9} {name:<12} median {median(values):<10.5g} {unit:<3}"
                  f" spread {spread:6.1%} bound {bound:.0%} {flag}", flush=True)
            entry["end_to_end"][name] = {"median": median(values), "unit": unit, "spread": spread}
        if args.record:
            traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer_seed"] = args.first_seed
            entry["per_layer"] = traced["metrics"]
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
