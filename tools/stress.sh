#!/usr/bin/env bash
# Determinism under load: reruns the suites whose byte-identical
# contracts once held only on an idle machine, with the CPUs
# oversubscribed — three busy-loop siblings next to the test harness and
# more test threads than cores. A wave measured in any order but wave
# order (drift-clock stamps), a race test that never raced, or a crash
# or worker-panic recovery that is not byte-identical shows up here as a
# failure count; the bar is 0 everywhere.
#
#   tools/stress.sh <runs>     # e.g. 200 (ROADMAP item 0), 50 in ci.sh
set -uo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ] || ! [ "$1" -gt 0 ] 2>/dev/null; then
  echo "usage: tools/stress.sh <runs>" >&2
  exit 2
fi
RUNS="$1"

CORES="$(nproc 2>/dev/null || echo 2)"
THREADS=$((2 * CORES + 2))

SIBLINGS=()
cleanup() {
  for pid in "${SIBLINGS[@]}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Build once, unloaded, so the loop below times tests and not rustc.
cargo test -q --no-run -p autotune-serve --lib || exit 1
cargo test -q --no-run -p autotune-tests --test campaign_snapshot --test cache_props || exit 1

for _ in 1 2 3; do
  (while :; do :; done) &
  SIBLINGS+=("$!")
done

# name|cargo test arguments, up to and including the `--` that starts
# the harness's own. The recovery suite includes the crash sweep: one
# clean run, one reopen per crash state and one finish per clean prefix.
SUITES=(
  "serve registry::tests|-p autotune-serve --lib registry::tests --"
  "tests/campaign_snapshot|-p autotune-tests --test campaign_snapshot --"
  "tests/cache_props|-p autotune-tests --test cache_props --"
  "serve durability::tests|-p autotune-serve --lib durability::tests --"
  "serve wal::tests|-p autotune-serve --lib wal::tests --"
  "serve router::tests|-p autotune-serve --lib router::tests --"
)

echo "stress: $RUNS runs per suite, $THREADS test threads on $CORES cores, 3 busy siblings"
TOTAL=0
for suite in "${SUITES[@]}"; do
  name="${suite%%|*}"
  read -r -a args <<<"${suite#*|}"
  failures=0
  for _ in $(seq "$RUNS"); do
    if ! cargo test -q "${args[@]}" --test-threads "$THREADS" >/dev/null 2>&1; then
      failures=$((failures + 1))
    fi
  done
  printf '  %-26s %d/%d failed\n' "$name" "$failures" "$RUNS"
  TOTAL=$((TOTAL + failures))
done

if [ "$TOTAL" -ne 0 ]; then
  echo "stress FAILED: $TOTAL failing runs."
  exit 1
fi
echo "stress passed."
