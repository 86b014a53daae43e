#!/usr/bin/env bash
# The tier-1 gate, runnable locally; CI runs the same steps split across
# the build-test / lint / stress / determinism / benchmark-crate jobs in
# .github/workflows/ci.yml. Everything must pass before a change lands.
#
#   tools/ci.sh          # the full gate, release determinism included
#   tools/ci.sh --fast   # inner-loop subset: skips the release-build gates
#                        # (release tests, the experiment output, the
#                        # benchmark crate), the mutation table
#                        # and the determinism-under-load stress loop
#
# Every step runs even after a failure, so one invocation reports the
# whole picture; the trailing summary table shows pass/fail per step and
# the script exits nonzero when anything failed.
set -uo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *)
      echo "usage: tools/ci.sh [--fast]" >&2
      exit 2
      ;;
  esac
done

STEP_NAMES=()
STEP_RESULTS=()
FAILED=0

run_step() {
  local name="$1"
  shift
  echo
  echo "== $name =="
  if "$@"; then
    STEP_RESULTS+=("pass")
  else
    STEP_RESULTS+=("FAIL")
    FAILED=1
  fi
  STEP_NAMES+=("$name")
}

skip_step() {
  STEP_NAMES+=("$1")
  STEP_RESULTS+=("skip")
}

if [ "$FAST" -eq 1 ]; then
  run_step "build (debug)" cargo build
else
  run_step "build (release)" cargo build --release
fi

run_step "tests" cargo test -q

run_step "rustfmt" cargo fmt --check

# unwrap_used stays a warning in editors (per-crate [lints] tables); the
# enforcing gate for panic sites is autotune-lint's D5 below, so keep
# -D warnings from tripping on the documented allow-listed survivors.
run_step "clippy" cargo clippy --workspace --all-targets -- -D warnings -A clippy::unwrap_used

rustdoc_step() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}
run_step "rustdoc (warnings are errors)" rustdoc_step

# Machine-checks the determinism, panic-safety, and concurrency
# contracts across every crates/*/src file: no wall-clock reads, no
# hash-ordered containers, no unseeded randomness, no NaN-panicking
# comparisons, no panics or stdout in library paths (D1-D6), plus the
# crash-safety pack — acyclic cross-crate lock order, no guard held
# across catch_unwind/par_map*/WAL appends, justified Relaxed atomics,
# append-before-ack in crates/serve, ordered float reductions, and
# PoisonFree lock recovery (D7-D12; see DESIGN.md "Static invariants").
run_step "static invariants (autotune-lint)" \
  cargo run -q --release -p autotune-lint -- --deny-all

if [ "$FAST" -eq 1 ]; then
  # The "tests" step above already ran the interleaving harness at its
  # 8-seed debug default; only the 64-seed release sweep is skipped.
  skip_step "determinism under load (stress, 50 runs)"
  skip_step "race interleavings (release, 64 seeds)"
  skip_step "fault determinism (release)"
  skip_step "serve determinism (release)"
  skip_step "serve determinism, one CPU (release)"
  skip_step "stub codecs (release)"
  skip_step "chaos recovery determinism (release)"
  skip_step "experiment output (release)"
  skip_step "examples (release)"
  skip_step "wal_dump over a durable run (release)"
  skip_step "telemetry purity (release)"
  skip_step "kernel bitwise (release)"
  skip_step "cache hit path (release)"
  skip_step "benchmark crate (build, tests, smoke run)"
  skip_step "mutation table"
else
  # The byte-identical contracts must hold on a busy machine, not only
  # an idle one: rerun the registry, campaign-snapshot, cache-race,
  # WAL-recovery and router-reopen suites 50 times with the CPUs
  # oversubscribed. See tools/stress.sh.
  run_step "determinism under load (stress, 50 runs)" tools/stress.sh 50

  # Seeded two-thread interleavings over the sharded cache and the
  # tenant router: every schedule must produce byte-identical snapshots
  # and hit/miss sequences, match its serial replay, and keep
  # single-flight admission schedule-invariant. 64 seeds, optimized
  # build, where real races would actually bite.
  race_step() {
    RACE_SEEDS=64 cargo test -q --release -p autotune-tests --test race_harness
  }
  run_step "race interleavings (release, 64 seeds)" race_step

  # The resilience stack (retries, timeouts, quarantine) must keep the
  # byte-identical k=1 schedule-policy contract; run its regression test
  # against the optimized build, where any wall-clock/thread-timing leak
  # would surface.
  run_step "fault determinism (release)" \
    cargo test -q --release -p autotune-tests --test fault_resilience

  # ISSUE 6 acceptance: interleaving campaigns through the serving layer —
  # any worker count, any round schedule, snapshot/resume mid-flight,
  # through the wire protocol — must leave every campaign's history
  # byte-identical to running it alone.
  run_step "serve determinism (release)" \
    cargo test -q --release -p autotune-serve -- determinism

  # The other side of the thread-count branch: available_parallelism
  # honours the affinity mask, so pinned to one CPU every par_map* (the
  # registry's side-by-side phases, recovery's side-by-side rebuild, the
  # GP's scoring) runs sequentially and must give the same bytes, the BO
  # histories the parent's fixtures.
  one_cpu_step() {
    taskset -c 0 cargo test -q --release -p autotune-serve -- determinism &&
      taskset -c 0 cargo test -q --release -p autotune-tests --test bo_parent_fixture
  }
  run_step "serve determinism, one CPU (release)" one_cpu_step

  # A decoder is where a debug_assertions-only overflow check hides a
  # wrapped length: the debug "tests" step alone would pass such a bug,
  # so the hostile-input suites of the serde, CBOR and JSON stubs run
  # against the optimized build too.
  run_step "stub codecs (release)" \
    cargo test -q --release -p serde -p ciborium -p serde_json

  # ISSUE 7 acceptance: crash the durable fleet at chaos-chosen WAL
  # appends, inject worker panics, recover from the log, and demand
  # byte-identical campaign histories; fuzz the frame codec; shed
  # overload without perturbing accepted campaigns.
  chaos_step() {
    cargo test -q --release -p autotune-serve &&
      cargo test -q --release -p autotune-tests --test serve_robustness
  }
  run_step "chaos recovery determinism (release)" chaos_step

  # Every experiment, E34's 128-campaign chaos drive included: each
  # shape must hold, and since no experiment reads a clock the output is
  # a function of the code, so it must be byte for byte the checked-in
  # repro_output.txt. A change that moves a number commits the new file.
  repro_step() {
    cargo run -q --release -p autotune-bench --bin repro >repro_output.txt &&
      git diff --exit-code repro_output.txt
  }
  run_step "experiment output (release)" repro_step

  # All seven example bins must exit 0, and the six that read no clock
  # must print byte for byte the checked-in examples/output.txt (see
  # tools/examples.sh). A change that moves an example's output commits
  # the new file.
  run_step "examples (release)" tools/examples.sh

  # The log is binary; the `wal_dump` example is how a person reads
  # one. Build it by name (a `--test` selection alone would not), then
  # crates/serve/tests/wal_dump.rs runs it over a directory a short
  # durable run wrote: every line parses with serde_json, the lines
  # tile each segment, their count is RecoveryReport::records_read, and
  # a record that fails its CRC costs exit code 1.
  wal_dump_step() {
    cargo build -q --release -p autotune-serve --example wal_dump &&
      cargo test -q --release -p autotune-serve --test wal_dump
  }
  run_step "wal_dump over a durable run (release)" wal_dump_step

  # ISSUE 3 acceptance: enabling every telemetry subscriber leaves k=1
  # campaigns byte-identical.
  run_step "telemetry purity (release)" \
    cargo test -q --release -p autotune-tests --test telemetry

  # The GP's chained kernels (Cholesky factor, many-RHS solve, syrk,
  # batched kernel rows, many-point predict) are held bit for bit to the
  # loops they replaced, two dense-GP BO histories to files the parent's
  # binary wrote, and twenty sparse-GP/TuRBO histories to digests it
  # wrote. Vectorised loops exist only in optimised builds, so the
  # bitwise gates run against the release build too.
  kernel_bitwise_step() {
    cargo test -q --release -p autotune-tests --test linalg_props --test bo_parent_fixture \
      --test history_digests &&
      cargo test -q --release -p autotune-surrogate
  }
  run_step "kernel bitwise (release)" kernel_bitwise_step

  # The cache hit path: the chained centroid scan held bit for bit to the
  # one-at-a-time loop it replaced, the exact-feature index to the
  # entries it finds, and a warmed hit (cache and router) to zero
  # allocations. Release, where the scan's loops are optimised.
  cache_hit_step() {
    cargo test -q --release -p autotune-wid -p autotune-cache &&
      cargo test -q --release -p autotune-tests --test cache_props &&
      cargo test -q --release -p autotune-serve --test alloc_budget
  }
  run_step "cache hit path (release)" cache_hit_step

  # benchmark/ is its own workspace, so the build and test steps above
  # never see it: build it and run its tests against the crates as they
  # are now, or an API change under crates/ breaks BENCHMARK.json's
  # command unnoticed. Then one short traced run (exit code only): the
  # per-layer pass is the only outside caller of
  # `DurableRegistry::{checkpoint, append_aux}`, so a failed output check
  # or a panic there shows here before the benchmark pipeline does.
  benchmark_step() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
      cargo test -q --offline --manifest-path benchmark/Cargo.toml &&
      cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload tune_fleet --seed 1 --seconds 2 --trace 1 >/dev/null
  }
  run_step "benchmark crate (build, tests, smoke run)" benchmark_step

  # Contracts that prove they can fail: each row of tools/mutants.tsv is
  # a deliberate defect, applied in a worktree of HEAD; its test
  # selection must pass unmutated and fail on the mutant, which must
  # compile. Debug builds in their own target directory: 21 rows take
  # about 140 s on 2 vCPUs from cold.
  run_step "mutation table" tools/mutants.sh
fi

# The three size figures ROADMAP.md tracks (`.rs` lines per crate, public
# type count, public items named only in their defining file), counted
# one way for the PR to quote. Never a gate.
echo
echo "== surface (informational) =="
tools/surface.sh || true

echo
echo "== summary =="
for i in "${!STEP_NAMES[@]}"; do
  printf '  %-42s %s\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
done

if [ "$FAILED" -ne 0 ]; then
  echo "CI gate FAILED."
  exit 1
fi
if [ "$FAST" -eq 1 ]; then
  echo "CI gate passed (--fast: release gates skipped)."
else
  echo "CI gate passed."
fi
