#!/usr/bin/env python3
"""Run the benchmark several times and report how much each metric moves.

    python3 benchmark/repeat.py --runs 5 --seed 7            # same seed
    python3 benchmark/repeat.py --runs 10 --seed 1 --vary-seed
    python3 benchmark/repeat.py --runs 5 --seed 7 --save a.json
    python3 benchmark/repeat.py --compare a.json b.json

Run it from the repository root. Each run is the BENCHMARK.json command
with --workload, --seed, --seconds and --trace 0. For every (metric,
workload) pair it prints the median, the quartiles, the spread (quartile
distance over the median) and the metric's bound; a spread at or above
the bound is marked FAIL, one above a third of it "wide". --compare
checks that two saved sets agree: their medians differ by less than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("repeat.py: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("repeat.py: %s seed %d reported incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(bench, samples):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("%-15s %-18s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    ok = True
    for workload, runs in samples.items():
        for metric in bounds:
            med, q1, q3, s = spread([r[metric] for r in runs])
            flag = ""
            if metric != "setup_s" and s >= bounds[metric]:
                flag, ok = "FAIL", False
            elif s >= bounds[metric] / 3:
                flag = "wide"
            print("%-15s %-18s %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
                  (workload, metric, med, q1, q3, s, bounds[metric], flag))
    return ok


def compare(bench, a, b):
    ok = True
    for m in bench["end_to_end"]:
        for workload in a:
            ma = statistics.median(r[m["name"]] for r in a[workload])
            mb = statistics.median(r[m["name"]] for r in b[workload])
            diff = abs(mb - ma) / ma
            good = diff < m["bound"]
            ok = ok and good
            print("%-15s %-18s %12.6g %12.6g %8.4f %6.2f %s" %
                  (workload, m["name"], ma, mb, diff, m["bound"], "" if good else "FAIL"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vary-seed", action="store_true",
                   help="use seed, seed+1, ... instead of one seed")
    p.add_argument("--save", help="write the raw metric values here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two files written by --save")
    args = p.parse_args()
    bench = load_bench()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            sys.exit(0 if compare(bench, json.load(fa), json.load(fb)) else 1)
    if args.runs < 2:
        sys.exit("repeat.py: --runs must be at least 2")
    workloads = [w["name"] for w in bench["workloads"]]
    samples = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        for w in workloads:
            samples[w].append(run_once(bench, w, seed, bench["run_seconds"]))
            print("run %d/%d %s seed %d done" % (i + 1, args.runs, w, seed),
                  file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(samples, f)
    sys.exit(0 if report(bench, samples) else 1)


if __name__ == "__main__":
    main()
