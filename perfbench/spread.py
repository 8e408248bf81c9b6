#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload poly-serial --seeds 1-10
    python3 perfbench/spread.py --workload serve-mix --seeds 1-10 --against ../parent

Run from a checkout's root. Each run uses the command and run length that
checkout's BENCHMARK.json declares. With --against, runs of this checkout
and the other one alternate seed by seed, and which side goes first
alternates too. The report gives each side's median, quartiles and
spread (IQR / median), and counts the pairs each side won. A gain holds
when this checkout wins at least nine tenths of the pairs and the medians
differ by more than the other side's IQR.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(root, workload, seed, trace):
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--against", help="root of another checkout to pair with")
    args = ap.parse_args()

    sides = {"this": "."}
    if args.against:
        sides["other"] = args.against
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed, args.trace))
        print(f"seed {seed}: done", file=sys.stderr)

    better = {}
    bench = json.load(open("BENCHMARK.json"))
    for m in bench["end_to_end"] + bench["per_layer"]:
        better[m["name"]] = m["better"]
    for name in runs["this"][0]:
        for side in sides:
            med, q1, q3, spread = summary([r[name] for r in runs[side]])
            print(f"{name:40s} {side:5s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}")
        if args.against:
            sign = 1 if better.get(name) == "higher" else -1
            pairs = list(zip(runs["this"], runs["other"]))
            wins = sum(1 for a, b in pairs if sign * (a[name] - b[name]) > 0)
            losses = sum(1 for a, b in pairs if sign * (a[name] - b[name]) < 0)
            med_a = statistics.median(r[name] for r in runs["this"])
            _, q1, q3, _ = summary([r[name] for r in runs["other"]])
            gain = wins >= 0.9 * len(pairs) and abs(med_a - statistics.median(
                r[name] for r in runs["other"])) > q3 - q1
            print(f"{'':40s} this won {wins}/{len(pairs)}, lost {losses}; "
                  f"gain: {'yes' if gain else 'no'}")


if __name__ == "__main__":
    main()
