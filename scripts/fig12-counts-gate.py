#!/usr/bin/env python3
"""Counting-model gate: a fresh `figures --json` run against the committed baseline.

    scripts/fig12-counts-gate.py <fresh.json>

Compares the 1-thread row of `fig12_map_pwb`, `fig12_queue_pwb`,
`fig12_queue_psync`, `fig12_map_fences` and `fig12_queue_fences`
(pwb-equivalents / psyncs / fences of every kind — pbarrier + pfence +
psync — per op of every arm under `CountingNvm`) with the same row of the
newest `bench_results/BENCH_*` file that has all five tables (file names
sort by date, then experiment). Exits non-zero, naming every cell, when one
differs at all. The fences tables are what sees a `pfence`: the pwb and
psync tables do not count one.

The cells are exact per seed: `figures` runs each 1-thread counting point
for a fixed number of operations from a fixed seed on one thread
(`bench_harness::workload::count_set` / `count_queue`), and starts every
allocation on its own cache line(s) (`bench_harness::placement`), so
neither the clock nor what ran earlier in the process — the time-bounded
fig8 / fig10 / fig11 points of CI's command — moves a count. Any placement
change moves a cell: re-pin the goldens and commit a new BENCH_ file.
"""
import glob
import json
import os
import sys

TABLES = (
    "fig12_map_pwb",
    "fig12_queue_pwb",
    "fig12_queue_psync",
    "fig12_map_fences",
    "fig12_queue_fences",
)


def one_thread_rows(path):
    """{table id: (columns, values)} of the 1-thread rows, or None if a table is missing."""
    with open(path) as f:
        figures = {fig["id"]: fig for fig in json.load(f)["figures"]}
    rows = {}
    for table in TABLES:
        fig = figures.get(table)
        row = fig and next((r for r in fig["rows"] if r["x"] == "1"), None)
        if row is None:
            return None
        rows[table] = (fig["columns"], row["values"])
    return rows


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <fresh.json>")
    fresh = one_thread_rows(sys.argv[1])
    if fresh is None:
        sys.exit(f"{sys.argv[1]}: run figures with --fig fig12 and 1 among --threads")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    newest_first = sorted(glob.glob(os.path.join(repo, "bench_results", "BENCH_*.json")), reverse=True)
    baseline = next(((p, r) for p in newest_first if (r := one_thread_rows(p))), None)
    if baseline is None:
        sys.exit("no committed bench_results/BENCH_*.json has the fig12 counting tables")
    path, committed = baseline

    bad = []
    for table in TABLES:
        columns, want = committed[table]
        got_columns, got = fresh[table]
        if got_columns != columns:
            bad.append(f"{table}: columns {got_columns}, committed {columns}")
            continue
        for arm, w, g in zip(columns, want, got):
            mark = "" if g == w else "   <-- moved"
            print(f"{table:18} {arm:9} committed {w:9.6f}  fresh {g:9.6f}  {g - w:+.6f}{mark}")
            if mark:
                bad.append(f"{table} / {arm}: {w} -> {g}")
    print(f"baseline: {os.path.relpath(path, repo)}")
    if bad:
        sys.exit("counting-model cells moved against the committed baseline "
                 "(a placement change: re-pin the goldens and commit a new BENCH_ file):\n  "
                 + "\n  ".join(bad))


if __name__ == "__main__":
    main()
