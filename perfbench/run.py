#!/usr/bin/env python3
"""Benchmark entry point: build the program and the harness, run one
workload, check its outputs, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is built from source with its own
top-level CMakeLists.txt into .bench_build/, then the harness in perfbench/ is
linked against it. With --trace 0 the run measures
the end-to-end metrics; with --trace 1 it runs the per-layer ledger instead.
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trial_sweep", "chaos")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sh(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    """Build the program's libraries, then the harness. Returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no program sources under {ROOT}")
    out = ROOT / ".bench_build"
    jobs = str(os.cpu_count() or 1)
    prog = out / "mm"
    if not (prog / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT), "-B", str(prog), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    sh(["cmake", "--build", str(prog), "-j", jobs, "--target", "mm_check", "mm_fault"])
    harness = out / "perfbench"
    if not (harness / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(HERE), "-B", str(harness), "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            f"-DMM_ROOT={ROOT}", f"-DMM_BUILD={prog}"])
    sh(["cmake", "--build", str(harness), "-j", jobs])
    return harness / "perfbench_raw"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A terminated run.py still stops and reaps the harness (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return 1
    raw = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        values, lines = metrics.per_layer(raw)
    else:
        values, lines = metrics.end_to_end(raw)
    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    correct = not failed_checks and raw["failed"] == 0

    print(f"workload {args.workload}, seed {args.seed}, {raw['nproc']} cores, "
          f"trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for c in raw["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
