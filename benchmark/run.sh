#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): builds the binary the run
# needs from source, then runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 builds and runs only `isbbench` (narrow API, the gated end-to-end
# metrics); --trace 1 builds and runs `isbtrace` (wide API, per-layer
# metrics). Heaps and journals live in a scratch directory under the cargo
# target directory, i.e. inside the checkout, and are removed at exit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

bin=isbbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=isbtrace; fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
mkdir -p "$target/isbbench-scratch"
exec "$target/release/$bin" --dir "$target/isbbench-scratch" "$@"
