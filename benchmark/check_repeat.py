#!/usr/bin/env python3
"""Does the benchmark repeat itself? Two sets of runs of the same code.

    python3 benchmark/check_repeat.py [--runs 5] [--workload NAME ...]

Runs every workload of BENCHMARK.json `--runs` times per set, each run with
another seed, through the benchmark's own command. Per workload and
end-to-end metric it prints both medians, the gap between them (positive =
the second set is worse), each set's spread (interquartile range over
median, as `statistics.quantiles(values, n=4)` gives it) and the metric's
bound. A metric holds if every spread and the gap stay within the bound.
Exit status 1 if one does not. The table in README.md is this script's
output.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    ap.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    print("| workload | metric | median 1 | median 2 | gap | spread 1 | spread 2 | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for s in range(2):
            first = args.seed + s * args.runs
            sets.append([run(spec, workload, seed) for seed in range(first, first + args.runs)])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r[name] for r in runs] for runs in sets)
            m1, m2 = statistics.median(a), statistics.median(b)
            gap = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            s1, s2 = spread(a), spread(b)
            # The driver does not hold setup_s to its spread, only to its gap.
            held = gap <= bound and (name == "setup_s" or max(s1, s2) <= bound)
            ok &= held
            print(f"| {workload} | {name} | {m1:.6g} | {m2:.6g} | {gap:+.2%} | {s1:.2%} | {s2:.2%} "
                  f"| {bound:.0%} | {'ok' if held else 'EXCEEDED'} |", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
