#!/usr/bin/env python3
"""Runs every workload in two interleaved sets with one build and compares them.

usage: selfcheck.py <binary> <BENCHMARK.json> [--runs k] [--seed n] [--quick]

Run i of either set uses seed n + i, so both sets see the same inputs. For
each workload and end-to-end metric the script prints both sets' medians and
quartiles, the spread of set A (distance between its quartiles over its
median) and the distance between the medians, and exits 1 if two medians
differ by more than the bound BENCHMARK.json gives the metric.
"""

import json
import statistics
import subprocess
import sys


def run_once(binary, workload, seed, passthrough):
    command = [binary, "--workload", workload, "--seed", str(seed), "--trace", "0", *passthrough]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        sys.exit(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(command)}: {result['failed']} failed, correct={result['correct']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    binary, manifest, *rest = sys.argv[1:]
    runs, seed, passthrough = 5, 0xD1CE, []
    while rest:
        flag = rest.pop(0)
        if flag == "--runs":
            runs = int(rest.pop(0))
        elif flag == "--seed":
            seed = int(rest.pop(0), 0)
        else:
            passthrough.append(flag)
    with open(manifest) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    workloads = [workload["name"] for workload in benchmark["workloads"]]

    samples = {(w, side): [] for w in workloads for side in "AB"}
    for i in range(runs):
        for workload in workloads:
            for side in "AB":
                print(f"run {i + 1}/{runs} of set {side}: {workload}", file=sys.stderr)
                samples[workload, side].append(run_once(binary, workload, seed + i, passthrough))

    failed = False
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | A spread | A to B | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, bound in bounds.items():
            a = quartiles([s[name] for s in samples[workload, "A"]])
            b = quartiles([s[name] for s in samples[workload, "B"]])
            spread = (a[2] - a[0]) / a[1]
            apart = abs(b[1] - a[1]) / a[1]
            verdict = "" if apart <= bound else " FAIL"
            failed |= apart > bound
            print(
                f"| {workload} | {name} | {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}] "
                f"| {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] "
                f"| {spread:.1%} | {apart:.1%}{verdict} | {bound:.0%} |"
            )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
