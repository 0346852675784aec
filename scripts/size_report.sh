#!/usr/bin/env bash
# Size trend of the workspace (ROADMAP item 6): non-test lines and `pub`
# items per crate, and the number of lint waivers outside the lint crate.
# Fails when the two numbers this repo has committed to (core lines,
# waivers) are exceeded, so growth is a decision made by editing this file,
# not an accident; the `pub` count is reported only.
set -euo pipefail
cd "$(dirname "$0")/.."

# Ceilings: the values at the commit that last edited them. Lower them when
# a PR shrinks the code; raise them only with a reason in the PR.
MAX_CORE_LINES=7743
MAX_WAIVERS=40

# Lines of each src file up to its first `#[cfg(test)]` (all of it if none).
non_test_lines() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }'
}

# `pub` items (fn, struct, enum, trait, mod, const, type) in the same lines.
pub_items() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
            !test && /^[[:space:]]*pub (fn|struct|enum|trait|mod|const|type)/ { n++ } END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }'
}

printf '%-10s %-14s %s\n' crate non-test-lines pub-items
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    printf '%-10s %-14s %s\n' "$crate" "$(non_test_lines "$src")" "$(pub_items "$src")"
done

core_lines=$(non_test_lines crates/core/src)
waivers=$(grep -rn 'lint:allow' --include='*.rs' --include='*.toml' \
    crates src tests examples benchmark | grep -vc '^crates/lint/' || true)
echo "lint:allow outside crates/lint: $waivers (ceiling $MAX_WAIVERS)"
echo "crates/core/src non-test lines: $core_lines (ceiling $MAX_CORE_LINES)"

status=0
if [ "$core_lines" -gt "$MAX_CORE_LINES" ]; then
    echo "error: crates/core/src grew past its ceiling" >&2
    status=1
fi
if [ "$waivers" -gt "$MAX_WAIVERS" ]; then
    echo "error: more lint waivers than the ceiling" >&2
    status=1
fi
exit $status
