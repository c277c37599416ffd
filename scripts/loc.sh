#!/usr/bin/env bash
# Non-test lines of Rust (ROADMAP item 5): every line of a `src/**/*.rs`
# file up to the file's first top-level `#[cfg(test)]`. Prints one row per
# crate and the workspace total, for this checkout or the one given as $1.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -path '*/src/*' -print0 \
        | xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

for dir in crates/*/; do
    printf '%-28s %6d\n' "${dir%/}" "$(count "$dir")"
done
# The facade's `src/lib.rs` (re-exports only) sits directly under `src/` and
# so outside `*/src/*`: the total is the sum of the rows above.
printf '%-28s %6d\n' workspace "$(count crates)"
