//! The live profile: the [`SpanFold`] of every span seen while a
//! [`MetricsServer`](crate::MetricsServer) is bound.
//!
//! Binding a server attaches the fold to the collector: [`submit`](crate::submit)
//! then folds each span event once, under the lock that orders events for
//! the sinks, however many servers are bound. Dropping the last server
//! detaches it and forgets the spans still open, whose ends it will not
//! see. What it folded stays, and the standard routes of every
//! [`Router`](crate::Router) serve it:
//!
//! * `GET /profile` — [`folded_text`]: collapsed stacks weighted by exact
//!   self microseconds, ready for `flamegraph.pl`;
//! * `GET /profile.json` — [`profile_json`]: per stack path, the span
//!   count, total and self microseconds and duration percentiles.

use crate::event::{Event, EventKind};
use crate::fold::SpanFold;
use crate::named_lock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Bound servers; the fold sees events while this is non-zero.
static ATTACHED: AtomicUsize = AtomicUsize::new(0);

fn fold() -> &'static Mutex<SpanFold> {
    static FOLD: OnceLock<Mutex<SpanFold>> = OnceLock::new();
    FOLD.get_or_init(|| Mutex::new(SpanFold::new()))
}

/// A server was bound.
pub(crate) fn attach() {
    ATTACHED.fetch_add(1, Ordering::Relaxed);
}

/// A server was dropped.
pub(crate) fn detach() {
    if ATTACHED.fetch_sub(1, Ordering::Relaxed) == 1 {
        named_lock("obs.profile", fold()).forget_open();
    }
}

/// Fold `event` while a server is bound. [`submit`](crate::submit) calls
/// this under the sinks lock.
pub(crate) fn record(event: &Event) {
    let span = matches!(
        event.kind,
        EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
    );
    if span && ATTACHED.load(Ordering::Relaxed) > 0 {
        named_lock("obs.profile", fold()).record(event);
    }
}

/// The live profile in collapsed-stack format, one `frame;frame;frame µs`
/// line per stack path, sorted; the weight is the path's self time. Empty
/// when no span has completed while a server was bound.
pub fn folded_text() -> String {
    named_lock("obs.profile", fold()).folded_text()
}

/// The live profile as JSON: `{"stacks":{path:{count, total_us, self_us,
/// p50_us, p95_us, p99_us}}}`, paths sorted.
pub fn profile_json() -> String {
    let stacks = named_lock("obs.profile", fold()).stacks();
    let mut out = String::from("{\"stacks\":{");
    for (i, stack) in stacks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::push_json_string(&mut out, &stack.name);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_us\":{},\"self_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            stack.count, stack.total_us, stack.self_us, stack.p50_us, stack.p95_us, stack.p99_us
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_output_is_deterministic_for_a_fixed_stack() {
        let (sink, handle) = crate::RingBufferSink::new(64);
        let sink_id = crate::add_sink(Box::new(sink));
        attach();
        {
            let _a = crate::span!("prof_fix_outer");
            let _b = crate::span!("prof_fix_inner");
        }
        detach();
        crate::remove_sink(sink_id);
        // The live fold holds exactly what folding this thread's capture
        // gives: the same line, µs for µs.
        let want = SpanFold::from_events(&handle.snapshot_current_thread()).folded_text();
        let line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("prof_fix_outer;prof_fix_inner "))
                .map(str::to_string)
        };
        assert!(line(&want).is_some(), "capture folds the stack: {want:?}");
        assert_eq!(line(&folded_text()), line(&want));
        let json = profile_json();
        assert!(
            json.contains("\"prof_fix_outer;prof_fix_inner\":{\"count\":1,"),
            "got: {json}"
        );
    }

    #[test]
    fn disabled_span_overhead_is_negligible() {
        // Min-of-several-runs, matching the EXPERIMENTS.md methodology.
        // The bound is deliberately loose (1 µs/op vs the ~1 ns measured)
        // so a noisy CI runner cannot flake it; the precise numbers live
        // in EXPERIMENTS.md.
        std::thread::spawn(|| {
            if crate::enabled() {
                return;
            }
            const ITERS: u32 = 100_000;
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let start = std::time::Instant::now();
                for _ in 0..ITERS {
                    let g = crate::span!("quiet_prof");
                    std::hint::black_box(&g);
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            let per_op_us = best / f64::from(ITERS) * 1e6;
            assert!(
                per_op_us < 1.0,
                "disabled span cost {per_op_us:.4} µs/op exceeds the obs budget"
            );
        })
        .join()
        .expect("overhead thread");
    }
}
