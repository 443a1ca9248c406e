#!/usr/bin/env bash
# Non-test line counts of Rust sources: per file, every line except the
# items a column-0 `#[cfg(test)]` gates (the attribute line, any further
# attributes, and the item through its matching closing brace, or through
# its `;` when it has no body); then the total. An indented `#[cfg(test)]`
# counts like any other line.
#
#   scripts/nontest-lines.sh [--max N | --print] <file-or-directory>...
#
# Directories are searched for `*.rs`. With `--max N` the exit status is
# non-zero when any single file has more than N non-test lines (CI's
# file-size ceiling); the offenders are named on stderr. With `--print` it
# prints every counted line as `file:line:text` instead of the counts (CI
# greps the non-test code with it). The before/after tables in CHANGES.md
# come from this script.
set -euo pipefail

max=0
print=0
if [ "${1:-}" = "--max" ]; then
    max="${2:?--max needs a number}"
    shift 2
elif [ "${1:-}" = "--print" ]; then
    print=1
    shift
fi
[ "$#" -gt 0 ] || { echo "usage: $0 [--max N] <paths...>" >&2; exit 2; }

find "$@" -type f -name '*.rs' | sort | xargs awk -v max="$max" -v print_lines="$print" '
    FNR == 1 { gated = 0; order[++n] = FILENAME; lines[FILENAME] = 0 }
    !gated && /^#\[cfg\(test\)\]/ { gated = 1; depth = 0; opened = 0; next }
    gated {
        # Braces inside string and char literals and comments do not count.
        t = $0
        gsub(/"([^"\\]|\\.)*"/, "", t)
        gsub(/'\''([^'\''\\]|\\.)'\''/, "", t)
        sub(/\/\/.*$/, "", t)
        o = gsub(/\{/, "", t)
        c = gsub(/\}/, "", t)
        depth += o - c
        if (o) opened = 1
        if (opened ? depth <= 0 : t ~ /;[ \t]*$/) gated = 0
        next
    }
    { lines[FILENAME]++ }
    print_lines { print FILENAME ":" FNR ":" $0 }
    END {
        if (print_lines) exit 0
        for (i = 1; i <= n; i++) {
            f = order[i]
            printf "%6d %s\n", lines[f], f
            total += lines[f]
            if (max > 0 && lines[f] > max) {
                printf "%s: %d non-test lines (ceiling %d)\n", f, lines[f], max > "/dev/stderr"
                bad = 1
            }
        }
        printf "%6d total\n", total
        exit bad
    }'
