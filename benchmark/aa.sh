#!/usr/bin/env bash
# A/A check: the full set of workloads three times on the same code -- a
# seed, the same seed again, and a second seed -- printing per workload x
# end-to-end metric the values, their ratios and PASS/FAIL against the
# metric's bound in BENCHMARK.json. Bounds are never widened to make this
# pass: a metric that still fails after its operation count is doubled once
# moves to the per-layer list (see README.md, "Steadiness").
#
#   benchmark/aa.sh [--seed N] [--workload W ...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/check.py" aa "$@"
