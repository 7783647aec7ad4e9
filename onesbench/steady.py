#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, its median and the spread between its quartiles as a
share of the median. Run from the repository root:

    python3 onesbench/steady.py --runs 10 --seconds 30 ones-cold baseline-cold warm-mixed

Each run's JSON line is appended to --out (one file per invocation), so a
report can be rebuilt with --report <file> without running anything.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "onesbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def report(rows):
    by = {}
    for r in rows:
        by.setdefault(r["workload"], []).append(r)
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    print("| workload | metric | runs | median | IQR / median | bound |")
    print("|---|---|---|---|---|---|")
    for w, rs in by.items():
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            unit = rs[0]["metrics"][name]["unit"]
            print(f"| {w} | {name} | {len(vals)} | {med:.4g} {unit} | {(q[2] - q[0]) / med:.3f} | {bounds.get(name, '')} |")
        bad = sum(not r["correct"] or r["failed"] for r in rs)
        print(f"| {w} | runs with a failure | {len(rs)} | {bad} | | |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=".bench_build/steady.jsonl")
    ap.add_argument("--report", help="only summarise this file of earlier runs")
    a = ap.parse_args()
    if a.report:
        report([json.loads(line) for line in open(a.report)])
        return
    rows = []
    with open(a.out, "a") as f:
        for w in a.workloads:
            for seed in range(a.first_seed, a.first_seed + a.runs):
                r = run(w, seed, a.seconds)
                r["workload"], r["seed"] = w, seed
                print(w, seed, json.dumps(r["metrics"]), file=sys.stderr)
                f.write(json.dumps(r) + "\n")
                f.flush()
                rows.append(r)
    report(rows)


if __name__ == "__main__":
    main()
