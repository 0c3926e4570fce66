#!/usr/bin/env bash
# Code lines per source file: lines before the first `#[cfg(test)]` that are
# neither blank nor `//` comments (doc comments included), plus a total. The
# one definition of "lines removed" for ROADMAP's refactor-slice house rule.
#   ci/code_lines.sh [FILE...]     default: every crates/*/src/**/*.rs
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- $(find crates/*/src -name '*.rs' | sort)
awk 'FNR == 1 { test = 0 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
     !test && !/^[[:space:]]*($|\/\/)/ { n[FILENAME]++; total++ }
     END { for (f in n) printf "%7d %s\n", n[f], f | "sort -k2"; close("sort -k2")
           printf "%7d total\n", total }' "$@"
