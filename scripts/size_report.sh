#!/usr/bin/env bash
# Size trend of the workspace (ROADMAP item 6): non-test lines and `pub`
# items per crate, the number of lint waivers outside the lint crate, and
# the number of bench binaries. Fails when a number this repo has committed
# to (core, wire, bench, report, tensor, autograd, snn, serve, data, obs and
# lint lines, waivers) is exceeded, so growth is a decision made by editing this
# file, not an accident; the `pub` and binary counts are reported only. "wire" is
# the part of core that is not the paper — `transport.rs` + `cluster.rs` —
# counted on its own so that the split into its own crate (ROADMAP item 4)
# starts from a committed number. tensor, autograd and snn are the numeric
# core that *is* the paper, ceilinged like the wire. "serve" has a ceiling
# so that the env overlay deleted in PR 25 cannot creep back; it was raised
# from 1398 by 331 lines for the one-pass `/v1/predict` body decoder
# (`PredictRequest::from_json`, 318 lines in api.rs) and its `parse` phase
# in gateway.rs and docs (13 lines), and by nothing else. It was raised
# again, from 1669 by 22 lines, for two bounds: the decoder refuses the
# vendored parser's nesting limit (api.rs +11), and the gateway's `write`
# phase closes the phase sum on shared instants (gateway.rs +11). snn
# (2812 -> 2811) and data (846 -> 843) were lowered to what they measured
# after calibration stopped at the layer it sets and the event scenes
# began rendering whole frames. tensor was raised from 1356 by 112 lines
# for `SpikeBits` (spike_bits.rs, 108 lines, and its export and docs in
# lib.rs), the one bit packer, which checkpoint
# snapshots and the wire share; core did not grow, because the wire's own
# bitmask loops went. tensor was raised again, from 1389 by 174 lines, for
# the register-tiled GEMM (matmul.rs 112 -> 284: the tile, its column
# strips, the three builds for baseline, AVX2 and AVX-512, the run-time
# choice between them, and the docs that argue why their bits agree; lib.rs
# docs +2), which runs vgg5's convolution products 3x faster on an AVX-512
# CPU. tensor was raised a third time, from 1563 by 193 lines, for the kernels
# around the GEMM: conv.rs +82 (`Conv2dGrad`, which permutes a
# layer's output gradient once for both backward products, and
# `im2col`'s plane-span copy), lif.rs +74 (`lif_fire`, the one LIF step,
# which `Graph::lif` and `lif_step_infer` each wrote out before, so
# autograd fell 770 -> 767 and snn 2828 -> 2811), pool.rs +33 (the band
# kernels and the precondition both directions share) and lib.rs +4.
# "data" has a ceiling so that the deleted augmentation
# module cannot creep back, as core's planner, snn's schedules and metrics,
# and tensor's concat/slice cannot past theirs. "obs" has one so that
# per-histogram bucket bounds cannot creep back: every histogram shares one
# layout, and the wire, the merge and the SLO engine rely on it.
# obs's number moved from 2977 to 3207 without a line of obs changing when
# the count stopped ending at a file's first `#[cfg(test)]` and began to
# skip just the `#[cfg(test)]` items: `span.rs` had a test-only fn at line
# 76, so the 230 lines after it went uncounted. The same fix counts one
# more blank line in core, tensor and snn each. Every ceiling was then
# re-measured with this count at the change that replaced the span-stack
# sampler with the span fold (obs 3207 -> 3196, bench 2700 -> 2686).
# snn was raised from 2811 by 145 lines when the one decoder of every
# binary container moved into `serialize.rs` from core's `transport.rs`:
# 171 lines came in (the `put_*` helpers, 49, and `WireReader`, 122), and
# `serialize.rs` dropped its own reader, `Crc32` and `read_u32`/`write_u32`
# for less than it gained in `DecodeError`, `write_atomic` and the module
# docs. In the same change core (6897 -> 6654), the wire (2539 -> 2332)
# and data (843 -> 621, the uncalled `.skevt` container and `DataError`
# gone) were lowered to what they measured.
# core (6654 -> 6554), snn (2956 -> 2952) and the waivers (38 -> 25) were
# lowered to what they measured when the code that guarded impossible
# states went: the sentinels' rollback copy (a fault is caught before the
# optimizer step, so nothing it copied could have changed), the LBP heads'
# optimizer held apart from the heads, and the model builder's `Option`
# shapes, now a spatial and a flat phase that the compiler keeps apart.
# core (6554 -> 6408), the wire (2332 -> 2186), obs (3196 -> 3142), bench
# (2686 -> 2684) and report (439 -> 434) were lowered to what they measured
# when the cluster's second event log went: its per-connection flight
# recorder, the blackbox files it wrote and the knob that placed them are
# now `cluster.frame` and `cluster.worker_exit` instants in the one obs
# stream, `ChromeTraceSink` (a second buffer of events a ring already held)
# gave way to `write_chrome_trace` on that ring, and `results_dir` stopped
# compiling a path in. snn stayed at 2952 with calibration made linear in
# depth.
# The panic, `unsafe`, determinism and stale-waiver rules moved from
# skipper-lint to clippy, so each library crate's ceiling rose by the lint
# attributes that now carry them, and by nothing else: one
# `#![deny(clippy::unwrap_used, ...)]` line in the `lib.rs` of tensor,
# serve, data, obs and report (+1 each; memprof has no ceiling); that line
# plus `#![deny(clippy::disallowed_types, ...)]` in autograd's and snn's
# `lib.rs` (+2 each); and in core the `lib.rs` line plus the determinism
# line atop engine, shard, checkpoint, sam, windowed and lbp (+7), less the
# 2 lines saved where the worker pool's three telemetry clock reads share
# one `#[expect]` on `WorkerPool::new` (one of them is an assignment, which
# takes no attribute): 6408 -> 6413. "lint" has a ceiling from the same
# change, set at what it measured after the moved rules and the report
# formats, the lock-graph dump and the waiver GC that nothing read went.
# The waiver count now covers every way a check is switched off at a site:
# `lint:allow(` comments, `#[expect(`/`#![expect(` attributes and any
# `#[allow(`/`#![allow(` left. Its ceiling was 25 `lint:allow` comments;
# the 18 of them that clippy now checks became 16 `#[expect]` attributes,
# and the 4 `#[allow(clippy::too_many_arguments)]` that were never counted
# are counted as `#[expect]` now: 7 + 16 + 4 = 27.
# obs was raised from 3143 by 29 lines, the router's net growth when the
# HTTP server moved from an accept thread and a thread per connection to a
# fixed handler set started at bind (the set, its stop and join, a read
# deadline per request, the head scan that resumes where it stopped, and
# one sized body buffer). serve was lowered 1692 -> 1687 in the same
# change: the reload thread folded into the batcher paid for the spike
# loop of the request decoder and the flat jobs the batch is stacked from.
set -euo pipefail
cd "$(dirname "$0")/.."

# Ceilings: the values at the commit that last edited them. Lower them when
# a PR shrinks the code; raise them only with a reason in the PR.
CEILING_CORE=6413
CEILING_WIRE=2186
CEILING_BENCH=2684
CEILING_REPORT=435
CEILING_TENSOR=1758
CEILING_AUTOGRAD=769
CEILING_SNN=2954
CEILING_SERVE=1687
CEILING_DATA=622
CEILING_OBS=3172
CEILING_LINT=3463
CEILING_WAIVERS=27

# Lines outside `#[cfg(test)]` items: an item runs from its attribute to
# the brace that closes its body, or to its `;` when it has none (a test
# module, a test-only fn or `use`). Braces inside strings, char literals
# and `//` comments do not count. Only lines matching `pat` are counted.
NON_TEST_AWK='
    FNR == 1 { skip = 0 }
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; body = 0; next }
    skip {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "", line)
        gsub(sq "([^" sq "\\\\]|\\\\.)" sq, "", line)
        sub(/\/\/.*/, "", line)
        opens = gsub(/\{/, "", line)
        closes = gsub(/\}/, "", line)
        depth += opens - closes
        if (opens) body = 1
        if (body ? depth <= 0 : line ~ /;/) skip = 0
        next
    }
    $0 ~ pat { n++ }
    END { print n + 0 }
'

# Non-test lines of `.rs` files; arguments are directories and files, as
# for `find`.
non_test_lines() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 awk -v sq="'" -v pat='' "$NON_TEST_AWK" |
        awk '{ sum += $1 } END { print sum + 0 }'
}

# `pub` items (fn, struct, enum, trait, mod, const, type) in the same lines.
pub_items() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 awk -v sq="'" -v pat='^[[:space:]]*pub (fn|struct|enum|trait|mod|const|type)' \
            "$NON_TEST_AWK" |
        awk '{ sum += $1 } END { print sum + 0 }'
}

printf '%-10s %-14s %s\n' crate non-test-lines pub-items
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    printf '%-10s %-14s %s\n' "$crate" "$(non_test_lines "$src")" "$(pub_items "$src")"
done

core_lines=$(non_test_lines crates/core/src)
wire_lines=$(non_test_lines crates/core/src/transport.rs crates/core/src/cluster.rs)
printf '%-10s %-14s %s\n' wire "$wire_lines" '(transport.rs + cluster.rs, part of core)'
bench_lines=$(non_test_lines crates/bench/src)
report_lines=$(non_test_lines crates/report/src)
tensor_lines=$(non_test_lines crates/tensor/src)
autograd_lines=$(non_test_lines crates/autograd/src)
snn_lines=$(non_test_lines crates/snn/src)
serve_lines=$(non_test_lines crates/serve/src)
data_lines=$(non_test_lines crates/data/src)
obs_lines=$(non_test_lines crates/obs/src)
lint_lines=$(non_test_lines crates/lint/src)
waivers=$(grep -rnE 'lint:allow\(|#!?\[(expect|allow)\(' --include='*.rs' --include='*.toml' \
    crates src tests examples benchmark | grep -vc '^crates/lint/' || true)
echo "waivers (lint:allow, #[expect], #[allow]) outside crates/lint: $waivers (ceiling $CEILING_WAIVERS)"
echo "files in crates/bench/src/bin: $(find crates/bench/src/bin -type f | wc -l)"

status=0
check_ceiling() {
    echo "$1 non-test lines: $2 (ceiling $3)"
    if [ "$2" -gt "$3" ]; then
        echo "error: $1 grew past its ceiling" >&2
        status=1
    fi
}
check_ceiling crates/core/src "$core_lines" "$CEILING_CORE"
check_ceiling 'wire (core transport.rs + cluster.rs)' "$wire_lines" "$CEILING_WIRE"
check_ceiling crates/bench/src "$bench_lines" "$CEILING_BENCH"
check_ceiling crates/report/src "$report_lines" "$CEILING_REPORT"
check_ceiling crates/tensor/src "$tensor_lines" "$CEILING_TENSOR"
check_ceiling crates/autograd/src "$autograd_lines" "$CEILING_AUTOGRAD"
check_ceiling crates/snn/src "$snn_lines" "$CEILING_SNN"
check_ceiling crates/serve/src "$serve_lines" "$CEILING_SERVE"
check_ceiling crates/data/src "$data_lines" "$CEILING_DATA"
check_ceiling crates/obs/src "$obs_lines" "$CEILING_OBS"
check_ceiling crates/lint/src "$lint_lines" "$CEILING_LINT"
if [ "$waivers" -gt "$CEILING_WAIVERS" ]; then
    echo "error: more lint waivers than the ceiling" >&2
    status=1
fi
exit $status
