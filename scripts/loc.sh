#!/usr/bin/env bash
# Count non-test lines of Rust: every `*.rs` file under `crates/` and
# `src/`, outside `tests/`, `benches/` and `target/` directories, up to
# its first line that is exactly `#[cfg(test)]`. A module declared only
# under `#[cfg(test)]` (a `mod x;` on the line after it) is test code
# and is skipped whole. Prints one line per crate, then the total, then
# the vendored subsets under `vendor/` counted the same way: outside the
# total, so that it stays comparable with earlier counts, but on a line
# of their own, so that a shim that grows or shrinks shows.
#
# Usage: scripts/loc.sh [repo root]   (default: the script's parent)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$(find crates src vendor -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' | sort)

# The files of modules declared only under `#[cfg(test)]`.
test_mods=$(for f in $files; do
    awk -v f="$f" '
        prev == "#[cfg(test)]" && match($0, /^[[:space:]]*(pub[^ ]* )?mod [A-Za-z_0-9]+;/) {
            name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
            dir = f; sub(/[^\/]*$/, "", dir)
            base = f; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
            if (base != "mod" && base != "lib" && base != "main") dir = dir base "/"
            print dir name ".rs"; print dir name "/mod.rs"
        }
        { prev = $0 }' "$f"
done)

for f in $files; do
    grep -qxF "$f" <<<"$test_mods" && continue
    n=$(awk '$0 == "#[cfg(test)]" { exit } { n++ } END { print n + 0 }' "$f")
    case "$f" in
        crates/*) krate=$(cut -d/ -f2 <<<"$f") ;;
        vendor/*) krate="(vendor)" ;;
        *) krate="(root)" ;;
    esac
    echo "$krate $n"
done | awk '
    $1 == "(vendor)" { vendor += $2; next }
    { lines[$1] += $2; total += $2 }
    END {
        for (k in lines) printf "%-12s %6d\n", k, lines[k] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
        printf "%-12s %6d\n", "vendor", vendor
    }'
