#!/usr/bin/env python3
"""Run one workload of the H-SYN benchmark.

    python3 perfbench/run.py --workload hier_1t --seed 1 --seconds 26 --trace 0

Run it from the root of the repository. The first call configures and
builds libhsyn and the benchmark programs from the repository's sources
into .bench_build/perfbench (later calls rebuild only what changed), then
runs pb_run (--trace 0: end-to-end metrics) or pb_run_traced (--trace 1:
per-layer metrics). The program's last line of standard output is the
result object; build output goes to standard error. The exit code is the
program's: 0 when every check passed.

    python3 perfbench/run.py --selftest

builds and runs pb_selftest, which shows that each check can fail.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")  # relative: short socket paths
TARGETS = ["pb_run", "pb_run_traced", "pb_daemon", "pb_daemon_traced",
           "pb_selftest"]
TIMEOUT_S = 170


def keep_temp_files_inside():
    """Compiler and program temporaries go under .bench_build too."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no H-SYN sources next to the benchmark "
                 "(src/CMakeLists.txt); run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                   + TARGETS, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    keep_temp_files_inside()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if a.selftest:
        return subprocess.run([os.path.join(BUILD, "pb_selftest")]).returncode

    os.chdir(ROOT)
    os.makedirs(RUN_DIR, exist_ok=True)
    prog = os.path.join(BUILD, "pb_run_traced" if a.trace else "pb_run")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--work-dir", RUN_DIR]
    # The program's set-up time counts from this instant (CLOCK_MONOTONIC,
    # the clock the program reads too).
    t0 = time.monotonic_ns()
    # Own process group, so a timeout also stops the daemon it spawned.
    p = subprocess.Popen([prog, "--t0-ns", str(t0)] + args,
                         start_new_session=True)
    try:
        return p.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("perfbench: %s did not finish in %d s" % (a.workload, TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
