#!/usr/bin/env bash
# Build stackbench and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one run (the form BENCHMARK.json's `command` is called in): prints
#       every metric by name and, last, the one-line JSON result
#   benchmark/run.sh [--seed N] [--seconds T]
#       all four workloads, untraced then traced, merged into
#       benchmark/results/BENCH_<rev>.json
#
# Run from the root of a checkout. Everything is read and written inside it:
# the build goes to $CARGO_TARGET_DIR (default benchmark/target), results to
# benchmark/results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/stackbench"

export STACKBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export STACKBENCH_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
out="$here/results"

case " $* " in
*" --workload "*) exec "$bin" "$@" --out "$out" ;;
esac

for workload in point-cold point-hot mixed-rw serve-openloop; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" --out "$out"
    done
done
"$bin" merge --rev "$STACKBENCH_REV" --out "$out"
