#!/usr/bin/env bash
# Runs the mutation table, tools/mutants.tsv: for each row, in a git
# worktree of HEAD under target/mutants/, checks that
#   1. the row's test selection passes on the unmutated tree,
#   2. the mutant compiles (a build error is not a kill), and
#   3. the selection then fails.
# A row that is not killed fails the run. The worktree and its build
# directory are reused between rows, so a row rebuilds only what its
# file touches.
#
#   tools/mutants.sh          # every row
#   tools/mutants.sh crc32    # the rows whose contract or filter matches
#
# 39 rows take about 225 s on 2 vCPUs from a cold build directory
# (debug builds): about 70 s is the history_digests row (a surrogate
# mutation rebuilds the test crate, then the digests run), most of the
# rest the serve crate and its dependents rebuilt after a codec or
# config mutation.
set -uo pipefail
cd "$(dirname "$0")/.."
root=$PWD
only="${1:-}"
tree="$root/target/mutants/tree"
log="$root/target/mutants/log"
export CARGO_TARGET_DIR="$root/target/mutants/target"

mkdir -p "$root/target/mutants"
git worktree remove --force "$tree" 2>/dev/null
rm -rf "$tree"
git worktree prune
git worktree add --quiet --detach "$tree" HEAD || exit 1
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# Replaces the one occurrence of $FIND in the file, or fails.
apply() {
  FIND="$2" REPLACE="$3" perl -0777 -i -pe '
    my ($find, $replace) = map { s/\\n/\n/gr } @ENV{qw(FIND REPLACE)};
    my $n = () = /\Q$find\E/g;
    die "found $n times, not once\n" unless $n == 1;
    s/\Q$find\E/$replace/;
  ' "$1"
}

selection() {
  # shellcheck disable=SC2086 # the cargo column is a list of arguments
  (cd "$tree" && cargo test -q $1 -- "$2") >"$log" 2>&1
}

start=$SECONDS
rows=0
failed=0
declare -A passed
while IFS=$'\t' read -r -u 3 file find replace contract cargo filter; do
  [[ -z "$file" || "$file" == \#* ]] && continue
  [[ -n "$only" && "$contract $filter" != *"$only"* ]] && continue
  rows=$((rows + 1))
  row_start=$SECONDS
  git -C "$tree" checkout --quiet -- .
  verdict=""
  if [[ -z "${passed["$cargo -- $filter"]:-}" ]]; then
    if selection "$cargo" "$filter"; then
      passed["$cargo -- $filter"]=1
    else
      verdict="FAIL: the unmutated selection fails (see $log)"
    fi
  fi
  if [[ -z "$verdict" ]] && ! apply "$tree/$file" "$find" "$replace" 2>"$log"; then
    verdict="FAIL: the text to mutate $(cat "$log")"
  fi
  if [[ -z "$verdict" ]]; then
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test -q --no-run $cargo) >"$log" 2>&1; then
      verdict="FAIL: the mutant does not compile (see $log)"
    elif selection "$cargo" "$filter"; then
      verdict="SURVIVED"
    else
      verdict="killed"
    fi
  fi
  [[ "$verdict" == killed ]] || failed=$((failed + 1))
  printf '%-9s %4ss  %s: %s\n' "${verdict%%:*}" $((SECONDS - row_start)) "$file" "$contract"
  [[ "$verdict" == killed || "$verdict" == SURVIVED ]] || echo "          $verdict"
done 3<tools/mutants.tsv
git -C "$tree" checkout --quiet -- .

echo "$((rows - failed))/$rows mutants killed in $((SECONDS - start))s"
[[ "$rows" -gt 0 && "$failed" -eq 0 ]]
