#!/usr/bin/env python3
"""Nano-Sim benchmark: build, prepare references, run one workload.

    python3 perfbench/run.py --workload <tran_mesh|paper|mc_mesh|serve> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout.  The first call builds the
simulator library and the perfbench executable from source (Release) into
.bench_build/perfbench and computes the NR reference waveforms the
transient workloads grade against; later calls reuse both.  The last
line of standard output is the run's JSON result.  The exit code is 0
only when the build succeeded and every output check passed.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("tran_mesh", "paper", "mc_mesh", "serve")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    """Run a build step; on failure show its output tail and exit 1."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(f"perfbench: {what} failed (exit {proc.returncode})")
        sys.exit(1)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], "build")
    return BUILD / "perfbench"


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: 8x8 meshes, 4 MC trials, 8 jobs")
    args = ap.parse_args()

    exe = build()
    smoke = ["--smoke"] if args.smoke else []
    run_quiet([str(exe), "--prepare", "--out-dir", str(OUT)] + smoke,
              "reference preparation")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--commit", commit_id()] + smoke
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
