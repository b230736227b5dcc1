#!/usr/bin/env bash
# The repo benchmark: builds the package beside this script offline, then
# runs it with whatever arguments it was given.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last stdout line is its JSON result
#   run.sh [--seed N] [--reps N] [--quick] [--check]
#       a full set: every workload, interleaved, plus the traced runs
#
# See README.md for what is measured and how to read it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build output goes where CARGO_TARGET_DIR says; otherwise into the root
# workspace's ignored target/ directory, so nothing is built twice.
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

# One malloc arena: with one per thread, peak_rss_mb would measure how
# many threads happened to allocate, not what the program holds.
export MALLOC_ARENA_MAX=1

# One CPU, the first this process may use. On a shared two-vCPU host a
# thread woken on the other vCPU costs an interrupt through the
# hypervisor: the same closed loop ran at a p50 of 30 us on one vCPU and
# 110 us across two, flipping between the two from run to run, and a
# two-thread retrain took twice as long as a one-thread one. Pinned, a run
# is of one mode, and the program sees (and reports) one core.
if command -v taskset >/dev/null; then
    cpu="$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')"
    exec taskset -c "$cpu" "$target/release/wisedb-benchmark" "$@"
fi
echo "run.sh: no taskset; running on every CPU, expect two modes" >&2
exec "$target/release/wisedb-benchmark" "$@"
