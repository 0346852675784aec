#!/usr/bin/env bash
# Regenerate every table and figure of the paper (plus the supplementary
# timeline, walkthrough, ablations and the sample trace). Outputs land in
# results/.
#
# Full run takes tens of minutes; pass --quick for a fast smoke sweep, or
# figure names (see `figures --help`) to run only those.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p skipper-bench --bin figures -- "$@"
