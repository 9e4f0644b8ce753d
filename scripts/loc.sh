#!/bin/sh
# Lines of code per crate, re-derivable by anyone: for every `crates/*/src`
# tree (plus the umbrella `src/`), the lines that are not blank, not `//`
# comments (doc comments included) and not test code. Test code is a trailing
# `#[cfg(test)]` module — everything from a column-0 `#[cfg(test)]` whose next
# line opens a `mod` to the end of the file — or a whole file named `tests.rs`
# (the out-of-line form of the same module).
#
# Then prints `knobs N`: the settable fields of `EngineConfig`,
# `RebalanceConfig` and `PioConfig` — every `pub` field of the three structs,
# except the two composite ones that hold another of them (`base: PioConfig`,
# `rebalance: RebalanceConfig`). An `Option` field counts once.
#
# Exits non-zero only if a file under crates/core/src or crates/engine/src has
# more than 1,000 lines in total (tests and comments included).
#
# Usage: sh scripts/loc.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    # Prints "<code> <total>" for one file; `$2` = 1 marks a whole-file test module.
    awk -v test_file="$2" '
        function is_code(line) { return line !~ /^[[:space:]]*$/ && line !~ /^[[:space:]]*\/\// }
        in_tests || test_file { next }
        held { if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { in_tests = 1; held = 0; next } code++; held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        is_code($0) { code++ }
        END { printf "%d %d\n", code + held, NR }
    ' "$1"
}

status=0
printf '%-28s %8s %8s %6s\n' crate code total files
for dir in crates/*/src crates/vendor/*/src src; do
    [ -d "$dir" ] || continue
    code=0 total=0 files=0
    for file in $(find "$dir" -name '*.rs' | sort); do
        case "$file" in */tests.rs | */tests/*) is_test=1 ;; *) is_test=0 ;; esac
        set -- $(count "$file" "$is_test")
        code=$((code + $1)) total=$((total + $2)) files=$((files + 1))
        case "$dir" in
        crates/core/src | crates/engine/src)
            if [ "$2" -gt 1000 ]; then
                echo "FAIL: $file has $2 lines (limit 1000)" >&2
                status=1
            fi
            ;;
        esac
    done
    printf '%-28s %8d %8d %6d\n' "$dir" "$code" "$total" "$files"
done

awk '
    /^pub struct (EngineConfig|RebalanceConfig|PioConfig) \{/ { inside = 1; next }
    inside && /^\}/ { inside = 0 }
    inside && /^[[:space:]]+pub [a-z_0-9]+: / && !/: (PioConfig|RebalanceConfig),/ { knobs++ }
    END { printf "knobs %d\n", knobs }
' crates/engine/src/config.rs crates/core/src/config.rs
exit $status
