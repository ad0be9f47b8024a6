#!/usr/bin/env python3
"""Steadiness of the H-SYN benchmark's metrics.

    python3 perfbench/steady.py --runs 10 [--workloads hier_1t,daemon_1t]
                                [--trace] [--first-seed 1] [--out FILE]

Runs every workload --runs times through run.py, interleaved across
workloads (run i of every workload before run i+1 of any), each run with
its own seed, and prints for every metric of every workload the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. For end-to-end
metrics it also prints the bound from BENCHMARK.json and whether the
spread is within a third of it. With --trace each run is followed by a
traced run, and the traced normalised wall time is compared with the
untraced one (tracing overhead). --out writes every run's raw result as
JSON lines.
Exits 1 if a run fails or reports a failed check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    t = time.monotonic()
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    return p.returncode, res, time.monotonic() - t


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    vals = {w: {} for w in workloads}
    units = {}
    fails = 0
    out = open(a.out, "a") if a.out else None
    for i in range(a.runs):
        seed = a.first_seed + i
        for w in workloads:
            for trace in ([0, 1] if a.trace else [0]):
                rc, res, took = run_once(w, seed, seconds, trace)
                ok = rc == 0 and res and res["correct"]
                fails += 0 if ok else 1
                print("%-10s seed %-3d trace %d  %5.1f s  %s  attempted %s "
                      "failed %s" % (w, seed, trace, took,
                                     "ok" if ok else "FAILED",
                                     res and res["attempted"],
                                     res and res["failed"]), flush=True)
                if out and res:
                    out.write(json.dumps({"workload": w, "seed": seed,
                                          "trace": trace, "rc": rc,
                                          "seconds": took, "result": res})
                              + "\n")
                    out.flush()
                if not res:
                    continue
                for name, m in res["metrics"].items():
                    vals[w].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                vals[w].setdefault("failed_share", []).append(
                    res["failed"] / res["attempted"])

    for w in workloads:
        print("\n%s (%d runs)" % (w, a.runs))
        print("  %-30s %14s %14s %14s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(vals[w], key=lambda n: (n not in bounds, n)):
            med, q1, q3, spread = summarize(vals[w][name])
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s":
                flag = "ok" if spread < b / 3 else (
                    "WIDE" if spread >= b else ">b/3")
            print("  %-30s %14.6g %14.6g %14.6g %8.4f %7s %s" %
                  (name, med, q1, q3, spread,
                   "" if b is None else "%.3f" % b, flag))
        if (a.trace and "perfbench.wall_norm_s" in vals[w]
                and "wall_norm_s" in vals[w]):
            traced = statistics.median(vals[w]["perfbench.wall_norm_s"])
            plain = statistics.median(vals[w]["wall_norm_s"])
            print("  tracing overhead: traced wall %.3f s vs untraced %.3f s "
                  "(+%.1f%%)" % (traced, plain, 100 * (traced / plain - 1)))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
