#!/usr/bin/env bash
# Public items per sosd-core source file: lines before the first
# `#[cfg(test)]` that open a `pub fn|struct|enum|trait|const|type` (so
# `pub const fn` counts once; `pub(crate)`, `pub mod`, `pub use` and fields
# do not), plus a total. The measure of API surface a knob- or
# variant-removing slice is judged by, beside ci/code_lines.sh.
#   ci/pub_items.sh [FILE|DIR...]  default: every crates/core/src/*.rs
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- $(find crates/core/src -name '*.rs' | sort)
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
     !test && /^[[:space:]]*pub (fn|struct|enum|trait|const|type) / { n[FILENAME]++; total++ }
     END { for (f in n) printf "%7d %s\n", n[f], f | "sort -k2"; close("sort -k2")
           printf "%7d total\n", total }' "${files[@]}"
