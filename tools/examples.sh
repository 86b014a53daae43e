#!/usr/bin/env bash
# Runs the seven example bins (the autotune-examples package under
# examples/) against the release build. Every bin must exit 0. The six
# deterministic ones write their stdout, each under a `== <bin> ==`
# header, to examples/output.txt, which must then be byte for byte the
# checked-in copy (the same pattern as repro_output.txt). `telemetry` prints wall-clock timings, so only
# its exit code counts (it also writes telemetry_trace.json, ignored by
# git).
#
#   tools/examples.sh          # run, rewrite examples/output.txt, diff it
#
# A change that means to move an example's output commits the new file.
set -uo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p autotune-examples || exit 1

FAILED=0
: >examples/output.txt
for bin in quickstart dbms_tuning online_adaptation workload_fleet pareto_tradeoffs \
  fault_tolerance; do
  echo "== $bin ==" >>examples/output.txt
  if ! "./target/release/$bin" >>examples/output.txt; then
    echo "example $bin exited nonzero" >&2
    FAILED=1
  fi
done
if ! ./target/release/telemetry >/dev/null; then
  echo "example telemetry exited nonzero" >&2
  FAILED=1
fi

git diff --exit-code examples/output.txt || FAILED=1
exit "$FAILED"
