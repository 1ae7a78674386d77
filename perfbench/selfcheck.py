#!/usr/bin/env python3
"""The benchmark's own tests: does it measure, and only what it claims?

    python3 perfbench/selfcheck.py

(a) every sim_* metric is bit-identical across two runs of each workload,
    and again with SPLITFS_TIMELINE=1 (telemetry costs host time only);
(b) host-only costs move host metrics and nothing else: on varmail and
    serve, SPLITFS_TRACE=1 (span tracing inside the program) leaves every
    sim_* metric bit-identical (its host cost is printed), and a host-only
    slowdown of every Fs.t call (--host-slowdown 1: each call takes twice
    its host time) makes host_ops_per_s read worse than its bound while
    every sim_* metric stays bit-identical;
(c) stacks built with a perturbed Pmem.Timing (--perturb-timing: syscall
    trap, VFS path and U-Split bookkeeping 20% dearer) move sim_p50_ns and
    sim_sw_overhead_ns on varmail;
(d) the metric names each mode prints are exactly BENCHMARK.json's.

Exits 1 on the first failed check. Takes a few minutes.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEED = 0x5EED


def run(workload, seconds=1, trace=0, env=None, extra=()):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, **(env or {})))
    if out.returncode != 0:
        sys.exit(f"FAIL {workload}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"FAIL {workload}: result not correct\n{out.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def sim(metrics):
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    base = {}
    for w in workloads:
        base[w] = run(w)
        check(set(base[w]) == e2e, f"(d) {w}: --trace 0 prints the end_to_end metrics")
        check(sim(run(w)) == sim(base[w]), f"(a) {w}: sim_* bit-identical across runs")
        check(sim(run(w, env={"SPLITFS_TIMELINE": "1"})) == sim(base[w]),
              f"(a) {w}: sim_* bit-identical with SPLITFS_TIMELINE=1")
    check(set(run("varmail", trace=1)) == layer,
          "(d) varmail: --trace 1 prints the per_layer metrics")
    bound = BOUND["host_ops_per_s"]
    for w in ("varmail", "serve"):
        plain = run(w, seconds=6)
        traced = run(w, seconds=6, env={"SPLITFS_TRACE": "1"})
        ratio = traced["host_ops_per_s"] / plain["host_ops_per_s"]
        check(sim(traced) == sim(plain),
              f"(b) {w}: sim_* bit-identical under SPLITFS_TRACE=1 "
              f"(host_ops_per_s x{ratio:.3f})")
        slow = run(w, seconds=6, extra=("--host-slowdown", "1"))
        ratio = slow["host_ops_per_s"] / plain["host_ops_per_s"]
        check(ratio < 1 - bound,
              f"(b) {w}: host-only slowdown reads host_ops_per_s x{ratio:.3f}, "
              f"worse than the {bound:.0%} bound")
        check(sim(slow) == sim(plain),
              f"(b) {w}: sim_* bit-identical under the host-only slowdown")
    pert = run("varmail", extra=("--perturb-timing",))
    for m in ("sim_p50_ns", "sim_sw_overhead_ns"):
        check(pert[m] > base["varmail"][m],
              f"(c) varmail: perturbed timing moves {m} "
              f"{base['varmail'][m]:.1f} -> {pert[m]:.1f}")


if __name__ == "__main__":
    main()
