#!/usr/bin/env bash
# Writes WORK.tsv: the work counts the allocation meter of
# crates/serve/tests/alloc_budget.rs takes, which are the same on every
# run: allocations per router hit, per decoded `Lookup` and `CacheHit`
# frame, and per random-fleet trial running and reopened, the peak
# bytes `DurableRegistry::open` holds reopening tune_fleet's 64 x 32
# fleet and `verify_wal` holds checking it, the bytes that fleet holds
# drained, after `run_all` and after `open`, and what it asks of
# the WAL's device (appends, bytes appended and segments opened, which a
# `MemStorage` counts). tools/ci.sh diffs the file
# as it diffs repro_output.txt; a change that means to move a count
# commits the new file and says why.
#
#   tools/work.sh    # rewrites WORK.tsv (~20 s in release, build included)
set -euo pipefail
cd "$(dirname "$0")/.."

# The suite prints each count as "@work<TAB>what<TAB>count".
out="$(cargo test -q --release -p autotune-serve --test alloc_budget -- --nocapture 2>&1)" || {
  echo "$out" >&2
  exit 1
}
{
  printf 'what\tcount\n'
  sed -n 's/^.*@work\t//p' <<<"$out" | LC_ALL=C sort
} >WORK.tsv
cat WORK.tsv
