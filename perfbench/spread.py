#!/usr/bin/env python3
"""Run each workload k times, in alternating order, and report the spread.

    python3 perfbench/spread.py --runs 10 [--workloads train_va,fleet]
                                [--first-seed 1] [--seconds S] [--traced 2]

Round i runs every workload once with seed first_seed + i; even rounds
go in BENCHMARK.json order and odd rounds in reverse, so slow drift of the
machine does not land on one workload. For each workload and end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound. With
--traced N it also makes N traced runs per workload and reports the
tracing overhead: the traced runs' end-to-end medians against the plain
ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        path = os.path.join(REPO, ".bench_build", "runs",
                            "%s-seed%d-trace1" % (workload, seed), "trace.json")
        with open(path) as f:
            result["traced_end_to_end"] = json.load(f)["end_to_end"]
    return result


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run(w, args.first_seed + i, args.seconds, 0)
            results[w].append(r)
            print("round %d %-14s correct=%s attempted=%d failed=%d %s" % (
                i, w, r["correct"], r["attempted"], r["failed"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                file=sys.stderr)

    all_fit = True
    print("%-14s %-15s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "fits"))
    for w in workloads:
        runs = results[w]
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            fits = spread <= m["bound"]
            all_fit = all_fit and fits
            print("%-14s %-15s %12.6g %12.6g %12.6g %8.4f %6.2f %s" % (
                w, m["name"], med, q1, q3, spread, m["bound"],
                "yes" if fits else "NO"))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("%-14s correct in every run: %s; failed shares: %s" % (w, correct, shares))
        all_fit = all_fit and correct

    if args.traced:
        print("\ntracing overhead (traced end-to-end median / plain median - 1):")
        for w in workloads:
            traced = [run(w, args.first_seed + i, args.seconds, 1) for i in range(args.traced)]
            for m in metrics:
                if m["name"] in ("setup_s", "peak_rss_mb"):
                    continue
                plain = statistics.median(r["metrics"][m["name"]]["value"] for r in results[w])
                tr = statistics.median(t["traced_end_to_end"][m["name"]]["value"] for t in traced)
                print("%-14s %-15s plain %12.6g traced %12.6g overhead %+.1f%%" % (
                    w, m["name"], plain, tr, 100.0 * (tr / plain - 1.0)))
    sys.exit(0 if all_fit else 1)


if __name__ == "__main__":
    main()
