#!/usr/bin/env bash
# Runs the benchmark of a parent revision and of the working tree in
# alternating pairs, and prints, for each end-to-end metric of
# BENCHMARK.json, what it takes to call a change no worse (or better):
#
#   tools/pairs.sh <parent-rev> <workload> <pairs> [seconds]
#
# The parent is checked out in a git worktree under target/pairs/ and its
# benchmark built there; the working tree's is built in benchmark/target/.
# Pair i runs seed i on both binaries, the parent first in odd pairs and
# the change first in even ones, so a drift of the machine over the run
# falls on both sides alike. `seconds` is each run's --seconds (default:
# BENCHMARK.json's run_seconds).
#
# For each metric it prints the parent's and the change's median and
# quartiles, the pairs the change wins (is better in), and the verdict
# against the metric's bound: "worse" when the change's median is worse
# than the parent's by more than the bound, "better" when it is better in
# at least nine of ten pairs and by more than the parent's quartile
# spread, "same" otherwise. Failed operations are counted per side.
#
# Every run's row (commit, workload, seed, nproc, seconds, attempted,
# failed, metrics) goes to target/pairs/<workload>.jsonl, the parent's
# tagged "parent" and the change's "change": BENCH_trajectory.json's rows
# are the parent rows of such runs.
#
# Two vCPUs, 18 s a run: 10 pairs of one workload take about 6 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
  echo "usage: tools/pairs.sh <parent-rev> <workload> <pairs> [seconds]" >&2
  exit 2
fi
parent_rev="$(git rev-parse --verify "$1^{commit}")"
workload="$2"
pairs="$3"
seconds="${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"

out="$root/target/pairs"
tree="$out/parent"
mkdir -p "$out"
git worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$tree"
git worktree prune
git worktree add --quiet --detach "$tree" "$parent_rev"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

build() {
  cargo build --release --quiet --offline --manifest-path "$1/benchmark/Cargo.toml" \
    --target-dir "$2"
}
build "$tree" "$out/parent-target"
build "$root" "$root/benchmark/target"
bins=("$out/parent-target/release/autotune-benchmark" "$root/benchmark/target/release/autotune-benchmark")
sides=(parent change)
commits=("$parent_rev" "$(git rev-parse HEAD)$(git diff --quiet HEAD -- . || echo +)")

rows="$out/$workload.jsonl"
: >"$rows"
for ((i = 1; i <= pairs; i++)); do
  order=(0 1)
  ((i % 2 == 0)) && order=(1 0)
  for side in "${order[@]}"; do
    result="$("${bins[$side]}" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -1)"
    python3 - "$result" "${sides[$side]}" "${commits[$side]}" "$workload" "$i" "$(nproc)" "$seconds" >>"$rows" <<'EOF'
import json, sys
result, side, commit, workload, seed, nproc, seconds = sys.argv[1:]
r = json.loads(result)
print(json.dumps({
    "side": side, "commit": commit, "workload": workload, "seed": int(seed),
    "nproc": int(nproc), "seconds": float(seconds),
    "attempted": r["attempted"], "failed": r["failed"],
    "metrics": {k: v["value"] for k, v in r["metrics"].items()},
}))
EOF
  done
  echo "pair $i/$pairs done" >&2
done

python3 - "$rows" BENCHMARK.json <<'EOF'
import json, statistics, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
by_side = {s: {r["seed"]: r for r in rows if r["side"] == s} for s in ("parent", "change")}
seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"{rows[0]['workload']}: {len(seeds)} pairs, {rows[0]['seconds']:g} s a run, nproc {rows[0]['nproc']}")
for side in ("parent", "change"):
    failed = sum(by_side[side][s]["failed"] for s in seeds)
    attempted = sum(by_side[side][s]["attempted"] for s in seeds)
    print(f"  {side}: {failed} of {attempted} operations failed")
print(f"  {'metric':<14} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6} {'bound':>6}  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [by_side["parent"][s]["metrics"].get(name) for s in seeds]
    c = [by_side["change"][s]["metrics"].get(name) for s in seeds]
    if any(v is None for v in p + c):
        continue
    pq, cq = quartiles(p), quartiles(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    worse_by = (cq[1] - pq[1]) / pq[1] if lower else (pq[1] - cq[1]) / pq[1]
    if worse_by > bound:
        verdict = f"worse ({worse_by:+.1%})"
    elif wins >= 0.9 * len(seeds) and -worse_by * pq[1] > pq[2] - pq[0]:
        verdict = f"better ({-worse_by:+.1%})"
    else:
        verdict = f"same ({-worse_by:+.1%})"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"  {name:<14} {fmt(pq):>32} {fmt(cq):>32} {wins:>3}/{len(seeds):<2} {bound:>6}  {verdict}")
EOF
