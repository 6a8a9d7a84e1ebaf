#!/usr/bin/env bash
# Counts non-test Rust lines: every .rs file under crates/ and src/, except
# the vendored shims (crates/shims/), the benchmark package
# (crates/bench/src/bin/benchmark/) and every tests/ directory. A file
# counts up to its first line that starts with `#[cfg(test)]`.
# Usage: scripts/loc.sh
# Prints the total.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 0 ]; then
    echo "usage: scripts/loc.sh" >&2
    exit 1
fi

find crates src -name '*.rs' \
    -not -path 'crates/shims/*' \
    -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path '*/tests/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n }' |
    awk '{ t += $1 } END { print t }' # xargs may split the file list
