#!/usr/bin/env bash
# Quick local validation: every workload, end to end and traced, with a
# 2-second timed phase (about 20 slices). Under a minute in total.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in kv_update kv_lookup queue_2t map_restart; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 2 --trace "$trace" |
            grep -E '^(info|host|\{)' | cut -c1-200
    done
done
