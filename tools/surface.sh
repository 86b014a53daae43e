#!/usr/bin/env bash
# The three size figures ROADMAP.md tracks, counted one way so a PR
# quotes them instead of recounting by hand:
#
#   * `.rs` lines per crate under crates/: every file, the files under
#     src/, and src/ with each file cut at its first `#[cfg(test)]` line
#     (the code that ships, without the unit-test modules);
#   * public types: `grep -rE "^\s*pub (struct|enum|trait) " crates`;
#   * public knob fields: the `pub` fields of every `pub struct` under
#     crates/ whose name ends in `Config` or `Policy`, except the `Config`
#     value type and `StoredConfig` — the settings a caller can set;
#   * public items named only in their defining file: every
#     `pub fn|struct|enum|trait|type|const|static` under crates/ whose
#     name, as a whole word, appears in no other `.rs` file under crates/,
#     benchmark/, examples/, tests/ or tools/ — nothing outside the file
#     can be calling it. A name that is also an ordinary word (`new`,
#     `len`) is never listed; a survivor is a return or field type its
#     callers never spell;
#   * public items named in no file outside their own crate: the same
#     items whose name occurs in no other crate's files (crates/<name>,
#     benchmark/, examples/, tests/, tools/), so a `lib.rs` re-export
#     does not hide one; the crate may use it, but nothing built on it
#     does.
#
#   tools/surface.sh           # the table and the count
#   tools/surface.sh <dir>     # the same for another checkout
#
# Informational: it reads, prints and exits 0.
set -uo pipefail
cd "${1:-$(dirname "$0")/..}" || exit 0

# Lines of the given files, whole (`cut=0`) or up to each file's first
# `#[cfg(test)]` line (`cut=1`).
count() {
  local cut="$1"
  shift
  [ "$#" -eq 0 ] && echo 0 && return
  awk -v cut="$cut" '
    FNR == 1 { skip = 0 }
    cut && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }
  ' "$@"
}

printf '%-12s %8s %8s %14s\n' crate all src "src-no-tests"
sum_all=0 sum_src=0 sum_code=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  mapfile -t all < <(find "$dir" -name '*.rs' | sort)
  mapfile -t src < <(find "$dir/src" -name '*.rs' 2>/dev/null | sort)
  n_all="$(count 0 "${all[@]}")"
  n_src="$(count 0 "${src[@]}")"
  n_code="$(count 1 "${src[@]}")"
  printf '%-12s %8d %8d %14d\n' "$crate" "$n_all" "$n_src" "$n_code"
  sum_all=$((sum_all + n_all)) sum_src=$((sum_src + n_src)) sum_code=$((sum_code + n_code))
done
printf '%-12s %8d %8d %14d\n' total "$sum_all" "$sum_src" "$sum_code"
echo
echo "public struct/enum/trait: $(grep -rE '^\s*pub (struct|enum|trait) ' crates | wc -l)"
knobs="$(find crates -name '*.rs' -print0 | sort -z | xargs -0 awk '
  match($0, /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Policy)[[:space:]<{]/) {
    name = substr($0, RSTART, RLENGTH - 1)
    sub(/.*struct /, "", name)
    inside = name != "Config" && name != "StoredConfig"
    next
  }
  inside && /^[[:space:]]*}/ { inside = 0 }
  inside && /^[[:space:]]*pub [A-Za-z_][A-Za-z0-9_]*:/ { n++ }
  END { print n + 0 }
')"
echo "public knob fields: $knobs"

# Pass 1 counts, per word, the files and the crates it occurs in (a
# crate is crates/<name>, else the top directory: benchmark, examples,
# tests, tools); pass 2 keeps the `pub` items of crates/ whose name
# occurs in one file (their own), tagged F, and those whose name occurs
# in no crate but their own, tagged C.
mapfile -t scanned < <(find crates benchmark examples tests tools -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort)
mapfile -t own < <(find crates -name '*.rs' | sort)
items="$(awk '
  function crate_of(path, parts) {
    split(path, parts, "/")
    return parts[1] == "crates" ? parts[1] "/" parts[2] : parts[1]
  }
  FNR == 1 { nfile++; crate = crate_of(FILENAME) }
  nfile <= n_scanned {
    n = split($0, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
      if (w[i] == "") continue
      if (!((FILENAME, w[i]) in seen)) { seen[FILENAME, w[i]] = 1; files[w[i]]++ }
      if (!((crate, w[i]) in met)) { met[crate, w[i]] = 1; crates[w[i]]++ }
    }
    next
  }
  match($0, /^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), w, " ")
    item = sprintf("  %s:%d %s %s", FILENAME, FNR, w[n - 1], w[n])
    if (files[w[n]] == 1) print "F" item
    if (crates[w[n]] == 1) print "C" item
  }
' n_scanned="${#scanned[@]}" "${scanned[@]}" "${own[@]}")"
only="$(sed -n 's/^F//p' <<<"$items")"
echo "public items named only in their defining file: $(printf '%s' "$only" | grep -c .)"
[ -n "$only" ] && echo "$only"
inside="$(sed -n 's/^C//p' <<<"$items")"
echo "public items named in no file outside their own crate: $(printf '%s' "$inside" | grep -c .)"
[ -n "$inside" ] && echo "$inside"
exit 0
