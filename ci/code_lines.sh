#!/usr/bin/env bash
# Code lines per source file: lines before the first `#[cfg(test)]` that are
# neither blank nor `//` comments (doc comments included), plus a total. The
# one definition of "lines removed" for ROADMAP's refactor-slice house rule.
#   ci/code_lines.sh [FILE|DIR...] default: every crates/*/src/**/*.rs
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- $(find crates/*/src -name '*.rs' | sort)
# A directory argument stands for its sorted *.rs files; a crate directory
# (one with a src/) for those under src/, the same scope as the default.
files=()
for arg in "$@"; do
    if [ -d "$arg" ]; then
        [ -d "$arg/src" ] && arg="$arg/src"
        mapfile -t -O "${#files[@]}" files < <(find "$arg" -name '*.rs' | sort)
    else
        files+=("$arg")
    fi
done
[ ${#files[@]} -gt 0 ] || { echo "no .rs files in: $*" >&2; exit 1; }
awk 'FNR == 1 { test = 0 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
     !test && !/^[[:space:]]*($|\/\/)/ { n[FILENAME]++; total++ }
     END { for (f in n) printf "%7d %s\n", n[f], f | "sort -k2"; close("sort -k2")
           printf "%7d total\n", total }' "${files[@]}"
