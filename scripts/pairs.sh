#!/usr/bin/env bash
# Alternating gridbench pairs: a parent commit against the working tree.
#
#   scripts/pairs.sh <parent-ref> <workload> [pairs=10] [seconds=10]
#
# Exports <parent-ref> and the working tree (tracked and untracked files,
# ignored ones left out) into two sibling directories of one temporary
# directory, `parent/` and `change/`. The two paths have the same length,
# so where the checkout lives does not change one binary's layout more
# than the other's. Builds gridbench in each, then runs pair i on seed i
# for i = 1..pairs, the parent first in odd pairs and the change first in
# even ones, appending each run's `--out` line to parent.jsonl or
# change.jsonl, and prints `gridbench compare parent.jsonl change.jsonl`.
# The line files and the two binaries stay in the temporary directory; the
# exported trees and their builds are deleted. Keep the machine otherwise
# idle meanwhile.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10] [seconds=10]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$parent_ref^{commit}" >/dev/null || {
    echo "$0: unknown ref $parent_ref" >&2
    exit 2
}
dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
cleanup() { rm -rf "$dir/parent" "$dir/change"; }
trap cleanup EXIT

mkdir "$dir/parent" "$dir/change"
git -C "$repo" archive "$parent_ref" | tar -x -C "$dir/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | (cd "$repo" && xargs -0 tar -c --no-recursion) | tar -x -C "$dir/change"

for side in parent change; do
    echo "building gridbench ($side)" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/benchmark/Cargo.toml"
    cp "$dir/$side/benchmark/target/release/gridbench" "$dir/gridbench-$side"
done

# A run with failed operations exits 1 and still writes its line, which
# `compare` counts; only the message is kept here.
run() {
    "$dir/gridbench-$1" --workload "$workload" --seed "$2" --seconds "$seconds" \
        --trace 0 --out "$dir/$1.jsonl" >/dev/null ||
        echo "$1 seed $2: gridbench exited $?" >&2
}
for seed in $(seq 1 "$pairs"); do
    echo "pair $seed/$pairs" >&2
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo "run lines: $dir/parent.jsonl $dir/change.jsonl" >&2
# Exits non-zero when a bounded metric regresses or is unresolved. Not
# `exec`: the shell must stay to run the EXIT trap that deletes the trees.
status=0
"$dir/gridbench-change" compare "$dir/parent.jsonl" "$dir/change.jsonl" || status=$?
exit "$status"
