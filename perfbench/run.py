#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 12 --trace 0

Builds ./perfbench/bench.exe with dune (into the checkout's _build), then
runs it once with the given arguments plus the host facts it records (core
count and source revision). Everything the benchmark prints goes to stdout;
its last line is the JSON result. Exits non-zero, without a result, when
the checkout is not a buildable copy of the repository.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
EXE = ROOT / "_build" / "default" / "perfbench" / "bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, cwd=ROOT)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for d in ("lib", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and p.suffix in (".ml", ".mli", "") and p.name != "run.py":
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not EXE.exists():
        sys.stderr.write(build.stdout)
        fail("build failed")
    cmd = [str(EXE), *sys.argv[1:], "--nproc", str(os.cpu_count() or 0),
           "--rev", source_rev()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
