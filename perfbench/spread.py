#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ycsb-a,varmail --seeds 10 \
        [--first-seed 1] [--seconds 12] [--trace 0]

For every workload and end-to-end metric it prints the median over the
seeds and the interquartile distance as a share of the median, computed
with statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. Exits 1 if any run is not correct or any spread other than
setup_s exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=1000)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    bad = False
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run(w, seed, seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: not correct ({res['failed']} failed)")
                bad = True
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, bad = "  OVER BOUND", True
            elif bound is not None and spread > bound / 3:
                flag = "  above bound/3"
            print(f"{w:10s} {name:34s} median {med:14.6g}  spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'}{flag}"
                  f"  [{' '.join(f'{v:.4g}' for v in vs)}]")
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
