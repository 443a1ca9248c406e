#!/usr/bin/env python3
"""Counting-model gate: a fresh `figures --json` run against the committed baseline.

    scripts/fig12-counts-gate.py <fresh.json>

Compares the 1-thread row of `fig12_map_pwb`, `fig12_queue_pwb` and
`fig12_queue_psync` (pwb-equivalents / psyncs per op of every arm under
`CountingNvm`; a single thread, so the scheduler decides nothing) with the
same row of the newest `bench_results/BENCH_*` file that has all three tables
(file names sort by date, then experiment). Exits non-zero, naming every
cell, when one differs by more than its tolerance.

A cell's tolerance is 3 x its same-code scatter: the largest deviation of
twenty `--dur-ms 40` runs from the committed 400 ms file on the reference
container (PR 23), rounded up, floored at 0.01. The psync cells are exact. The
pwb cells scatter because `figures` runs on the process allocator: where a
node sits relative to a 64-byte boundary decides, per process, whether it
spans one line or two and what it dedupes against — most of all in the LP
queue, whose enqueue drains tag, link and new node in one fence window
(5.25 ... 5.43 since the one-line queue descriptors; on the mapped heap's
aligned blocks it is exactly 6.0 with the glue, `benchmark/`'s `queue_2t`).
`persist_placement.rs` pins exact counts under a line-aligning
allocator; this gate watches the *mix* the figures run. What it catches, 3
mutated runs in 3: with LP's cleanup elision reverted `fig12_map_pwb` /
`Isb-LP` moves by +0.7 against a tolerance of 0.2.
"""
import glob
import json
import os
import sys

# Per table, per column (`Isb`, `Isb-Opt`, `Isb-LP`): measured scatter x 3.
TABLES = {
    "fig12_map_pwb": (0.05, 0.2, 0.2),  # 0.012, 0.062, 0.057
    "fig12_queue_pwb": (0.25, 0.35, 1.5),  # 0.083, 0.109, 0.491
    "fig12_queue_psync": (0.01, 0.01, 0.01),  # 0 in 20 runs
}


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
    for table, tols in TABLES.items():
        columns, want = committed[table]
        got_columns, got = fresh[table]
        if got_columns != columns or len(columns) != len(tols):
            bad.append(f"{table}: columns {got_columns}, committed {columns}, {len(tols)} tolerances")
            continue
        for arm, w, g, tol in zip(columns, want, got, tols):
            mark = "" if abs(g - w) <= tol else f"   <-- moved by more than {tol}"
            print(f"{table:18} {arm:9} committed {w:9.4f}  fresh {g:9.4f}  {g - w:+.4f}{mark}")
            if mark:
                bad.append(f"{table} / {arm}: {w:.4f} -> {g:.4f}")
    print(f"baseline: {os.path.relpath(path, repo)}")
    if bad:
        sys.exit("counting-model cells moved against the committed baseline "
                 "(a placement change: re-pin the goldens and commit a new BENCH_ file):\n  "
                 + "\n  ".join(bad))


if __name__ == "__main__":
    main()
