//! `skipper-obs`: structured tracing and metrics for the Skipper
//! workspace.
//!
//! The paper argues through measurement — per-timestep spike sums,
//! recompute-segment timing, peak memory by category. This crate makes the
//! training pipeline inspectable at that granularity:
//!
//! * **Spans** ([`span!`]) trace nested regions of work with monotonic
//!   microsecond timestamps and automatic parent/child nesting;
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]) aggregate
//!   counters, gauges and fixed-bucket histograms in a global [`Registry`];
//! * **Sinks** receive every event: [`RingBufferSink`] (tests, summary
//!   tables; [`write_chrome_trace`] turns its snapshot into a file for
//!   Perfetto / `chrome://tracing`), [`JsonlSink`] (offline analysis),
//!   [`StderrSink`] (terminal logging behind the `SKIPPER_OBS` verbosity
//!   knob);
//! * **Profiles**: [`SpanFold`] turns span events into exact per-stack
//!   total and self time — [`span_stats`] and the `/profile` endpoint of a
//!   [`MetricsServer`] both read it.
//!
//! Tracing is **off by default**: with no sinks installed, [`enabled`]
//! is false and every instrumentation site reduces to one relaxed atomic
//! load (the macros skip field construction entirely), keeping the
//! overhead on uninstrumented runs negligible. Metric-registry updates
//! are likewise gated on [`enabled`].
//!
//! The crate has **zero dependencies** so every other workspace crate —
//! including the low-level ones — can emit events without cycles.
//!
//! # Quickstart
//!
//! ```
//! // Install a ring sink (tracing turns on), trace some work, inspect it.
//! let (sink, handle) = skipper_obs::RingBufferSink::new(4096);
//! let sink_id = skipper_obs::add_sink(Box::new(sink));
//! {
//!     let _outer = skipper_obs::span!("iteration", iter = 1u64);
//!     let _inner = skipper_obs::span!("recompute_segment", c = 3usize);
//!     skipper_obs::counter_add("skipper.steps_skipped", 5.0);
//! }
//! skipper_obs::remove_sink(sink_id);
//! let events = handle.snapshot_current_thread();
//! assert!(events.len() >= 5); // 2 begins + 2 ends + 1 counter
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod event;
mod fold;
mod metrics;
pub mod profile;
pub mod router;
pub mod serve;
mod sink;
mod span;
mod summary;
mod trace;
pub mod witness;

pub use event::{
    push_json_f64, push_json_fields, push_json_string, Event, EventKind, FieldValue, Fields, Level,
};
pub use fold::SpanFold;
pub use metrics::{labeled, Histogram, MetricsSnapshot, Registry};
pub use router::{global_router, Handler, HttpServer, Request, Response, RouteGuard, Router};
pub use serve::{serve_from_env, MetricsServer};
pub use sink::{JsonlSink, NullSink, RingBufferSink, RingHandle, Sink, StderrSink};
pub use span::{current_span, namespace_span_ids, ContextGuard, SpanContext, SpanGuard};
pub use summary::{render_summary, span_stats, SpanStat};
pub use trace::{chrome_trace_json, write_chrome_trace};
pub use witness::{named_lock, publish_witness_metrics, witness_edges, NamedGuard};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock and thread ids
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide trace epoch (the first call into
/// this crate). Monotonic.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Small dense id of the calling thread (1, 2, 3, … in first-use order);
/// stable for the thread's lifetime. Used as the `tid` of every event.
pub fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// The collector: sinks + enabled flag + global registry
// ---------------------------------------------------------------------------

/// Handle for removing an installed sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

struct Collector {
    sinks: Mutex<Vec<(SinkId, Box<dyn Sink>)>>,
    next_id: AtomicU64,
}

static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Lock a mutex, recovering from poisoning.
///
/// Telemetry state (sinks, the metrics registry, ring buffers) stays
/// valid under panic — every mutation is a single in-place update — so a
/// worker thread that panicked while holding a lock must not permanently
/// disable observability for every other thread. The engine's panic
/// propagation path in particular still wants the final flush.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        sinks: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
    })
}

/// Whether any sink is installed. The fast path every instrumentation site
/// checks first — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    SINK_COUNT.load(Ordering::Relaxed) > 0
}

/// Install `sink`; tracing is enabled while at least one sink is
/// installed. Returns the id to pass to [`remove_sink`].
pub fn add_sink(sink: Box<dyn Sink>) -> SinkId {
    let c = collector();
    let id = SinkId(c.next_id.fetch_add(1, Ordering::Relaxed));
    let mut sinks = named_lock("obs.sinks", &c.sinks);
    sinks.push((id, sink));
    SINK_COUNT.store(sinks.len(), Ordering::Relaxed);
    id
}

/// Flush and uninstall the sink with `id`, returning it (None if already
/// removed).
pub fn remove_sink(id: SinkId) -> Option<Box<dyn Sink>> {
    let c = collector();
    let mut sinks = named_lock("obs.sinks", &c.sinks);
    let pos = sinks.iter().position(|(sid, _)| *sid == id)?;
    let (_, mut sink) = sinks.remove(pos);
    SINK_COUNT.store(sinks.len(), Ordering::Relaxed);
    drop(sinks);
    sink.flush();
    Some(sink)
}

/// Flush every installed sink.
pub fn flush() {
    let c = collector();
    for (_, sink) in named_lock("obs.sinks", &c.sinks).iter_mut() {
        // lint:allow(blocking): flush drains a bounded buffer to local disk; the guard must cover it so remove_sink cannot drop the sink mid-flush
        sink.flush();
    }
}

/// Flush and uninstall **every** sink, dropping each one.
///
/// A file-backed sink buffers ([`JsonlSink`] behind a `BufWriter`), so a
/// `main` that returns without draining it leaves a truncated or empty
/// trace on disk. Call this — or hold a [`ShutdownGuard`] — at the end of
/// every binary that installs sinks. Tracing is disabled afterwards; it
/// re-enables if a sink is installed again.
pub fn shutdown() {
    let c = collector();
    let drained = {
        let mut sinks = named_lock("obs.sinks", &c.sinks);
        SINK_COUNT.store(0, Ordering::Relaxed);
        std::mem::take(&mut *sinks)
    };
    // Flush (and drop) outside the lock: a sink's flush may log or submit.
    for (_, mut sink) in drained {
        sink.flush();
    }
}

/// RAII wrapper: calls [`shutdown`] on drop. Hold one at the top of a
/// binary's `main` so sinks are flushed even on early return:
///
/// ```no_run
/// let _obs = skipper_obs::ShutdownGuard::new();
/// skipper_obs::init_from_env();
/// // ... work ...
/// ```
#[derive(Debug, Default)]
pub struct ShutdownGuard;

impl ShutdownGuard {
    /// A guard that shuts the collector down when dropped.
    pub fn new() -> ShutdownGuard {
        ShutdownGuard
    }
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        shutdown();
    }
}

/// Deliver `event` to every installed sink. Instrumentation normally goes
/// through [`span!`] / [`instant!`] / the metric helpers; this is the
/// escape hatch for custom event shapes.
pub fn submit(event: Event) {
    if !enabled() {
        return;
    }
    let c = collector();
    let mut sinks = named_lock("obs.sinks", &c.sinks);
    for (_, sink) in sinks.iter_mut() {
        sink.record(&event);
    }
    profile::record(&event);
}

/// The global metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Convenience emitters
// ---------------------------------------------------------------------------

/// Emit a point-in-time event.
pub fn instant(name: &'static str, level: Level, fields: Fields) {
    submit(Event {
        name: name.into(),
        level,
        ts_us: now_us(),
        tid: current_tid(),
        kind: EventKind::Instant,
        fields,
    });
}

/// Add `delta` to counter `name` in the global registry and notify sinks.
/// No-op while tracing is disabled.
pub fn counter_add(name: &str, delta: f64) {
    if !enabled() {
        return;
    }
    registry().counter_add(name, delta);
    submit(Event {
        name: name.to_string().into(),
        level: Level::Debug,
        ts_us: now_us(),
        tid: current_tid(),
        kind: EventKind::Counter { delta },
        fields: Vec::new(),
    });
}

/// Set gauge `name` to `value` in the global registry and notify sinks.
/// No-op while tracing is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    registry().gauge_set(name, value);
    submit(Event {
        name: name.to_string().into(),
        level: Level::Debug,
        ts_us: now_us(),
        tid: current_tid(),
        kind: EventKind::Gauge { value },
        fields: Vec::new(),
    });
}

/// Record `value` into histogram `name` in the global registry and notify
/// sinks. No-op while tracing is disabled.
pub fn observe(name: &str, value: f64) {
    observe_with_exemplar(name, value, 0);
}

/// Record `value` into histogram `name`, remembering `span_id` as the
/// containing bucket's exemplar (0 = no exemplar), and notify sinks; a
/// non-zero exemplar rides on the event as its `exemplar` field. No-op
/// while tracing is disabled. The serving gateway uses this to link each
/// phase-latency bucket to the last request span that landed in it.
pub fn observe_with_exemplar(name: &str, value: f64, span_id: u64) {
    if !enabled() {
        return;
    }
    registry().observe_with_exemplar(name, value, span_id);
    let fields = if span_id == 0 {
        Vec::new()
    } else {
        vec![("exemplar", FieldValue::U64(span_id))]
    };
    submit(Event {
        name: name.to_string().into(),
        level: Level::Trace,
        ts_us: now_us(),
        tid: current_tid(),
        kind: EventKind::Observe { value },
        fields,
    });
}

/// Install a [`StderrSink`] according to the `SKIPPER_OBS` environment
/// variable — the one verbosity knob for `cargo run` output:
///
/// * unset / `off` / `0` / `none` / `false`: no sink, tracing stays
///   disabled;
/// * `warn` / `info` / `debug` / `trace` (any case): log that level and
///   above;
/// * `1` / `on` / `true`: shorthand for `info`;
/// * anything else: one warning on stderr, then `info`.
///
/// Returns the sink id when one was installed.
pub fn init_from_env() -> Option<SinkId> {
    let value = std::env::var("SKIPPER_OBS").ok()?;
    match value.to_ascii_lowercase().as_str() {
        "" | "off" | "0" | "none" | "false" => None,
        "1" | "on" | "true" => Some(add_sink(Box::new(StderrSink::new(Level::Info)))),
        other => {
            let level = Level::parse(other).unwrap_or_else(|| {
                eprintln!(
                    "skipper-obs: unknown SKIPPER_OBS level {value:?} \
                     (expected off|warn|info|debug|trace); defaulting to info"
                );
                Level::Info
            });
            Some(add_sink(Box::new(StderrSink::new(level))))
        }
    }
}

/// Install a [`JsonlSink`] writing to the file named by the
/// `SKIPPER_OBS_JSONL` environment variable (truncating it), so any
/// binary — most usefully a remote `skipper_worker` — can capture its
/// event stream for the cluster trace stitcher without code changes:
///
/// ```text
/// SKIPPER_OBS_JSONL=results/obs_worker1.jsonl skipper_worker --id 1
/// ```
///
/// Logs one warning and returns `None` when the file cannot be created
/// (a bad path must not take the worker down).
pub fn jsonl_from_env() -> Option<SinkId> {
    let path = std::env::var("SKIPPER_OBS_JSONL").ok()?;
    if path.trim().is_empty() {
        return None;
    }
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match JsonlSink::create(&path) {
        Ok(sink) => Some(add_sink(Box::new(sink))),
        Err(err) => {
            eprintln!("skipper-obs: cannot create SKIPPER_OBS_JSONL={path}: {err}");
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Open a traced span; the returned [`SpanGuard`] closes it on drop.
///
/// ```
/// let _span = skipper_obs::span!("recompute_segment", c = 3usize, start = 10usize);
/// ```
///
/// While tracing is disabled the field expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                <[_]>::into_vec(::std::boxed::Box::new([
                    $((stringify!($key), $crate::FieldValue::from($value))),+
                ])),
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Emit a point-in-time event with fields.
///
/// ```
/// skipper_obs::instant!(skipper_obs::Level::Info, "governor.action", iteration = 7u64);
/// ```
///
/// While tracing is disabled the field expressions are not evaluated.
#[macro_export]
macro_rules! instant {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::instant(
                $name,
                $level,
                <[_]>::into_vec(::std::boxed::Box::new([
                    $((stringify!($key), $crate::FieldValue::from($value))),*
                ])),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All global-state behaviour in one test: parallel test threads share
    /// the collector, so a single linear scenario (filtered by tid) keeps
    /// assertions race-free.
    #[test]
    fn collector_end_to_end() {
        let (ring, handle) = RingBufferSink::new(1024);
        let id = add_sink(Box::new(ring));
        assert!(enabled());

        {
            let outer = span!("outer", t = 1usize);
            assert!(outer.is_recording());
            assert_eq!(current_span(), Some(outer.id()));
            {
                let inner = span!("inner");
                assert_eq!(current_span(), Some(inner.id()));
            }
            instant!(Level::Info, "tick", value = 3.5f64);
        }
        counter_add("test.counter", 2.0);
        gauge_set("test.gauge", 9.0);
        observe("test.hist", 123.0);

        assert!(remove_sink(id).is_some());
        assert!(remove_sink(id).is_none());

        let events = handle.snapshot_current_thread();
        let begins: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanBegin { .. }))
            .collect();
        assert_eq!(begins.len(), 2);
        // Nesting: inner's parent is outer's id.
        let EventKind::SpanBegin {
            id: outer_id,
            parent: None,
        } = begins[0].kind
        else {
            panic!("outer span must be a root: {:?}", begins[0]);
        };
        let EventKind::SpanBegin {
            parent: Some(parent),
            ..
        } = begins[1].kind
        else {
            panic!("inner span must have a parent: {:?}", begins[1]);
        };
        assert_eq!(parent, outer_id);
        assert_eq!(begins[0].fields, vec![("t", FieldValue::U64(1))]);
        // Ends close innermost-first.
        let ends: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .collect();
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[0].name, "inner");
        assert_eq!(ends[1].name, "outer");
        // Instant + metrics arrived.
        assert!(events
            .iter()
            .any(|e| e.name == "tick" && e.kind == EventKind::Instant));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Counter { delta } if delta == 2.0)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Gauge { value } if value == 9.0)));
        // Registry aggregated.
        assert!(registry().counter("test.counter") >= 2.0);
        assert_eq!(registry().gauge("test.gauge"), Some(9.0));
        assert!(registry().histogram("test.hist").unwrap().count() >= 1);
        // Timestamps are monotone within the capture.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        // This test must not install sinks. Another test's sink may be
        // concurrently installed; tolerate that by only asserting when
        // tracing is genuinely off.
        if enabled() {
            return;
        }
        let mut evaluated = false;
        let guard = span!(
            "quiet",
            x = {
                evaluated = true;
                1usize
            }
        );
        assert!(!guard.is_recording());
        drop(guard);
        instant!(
            Level::Info,
            "quiet",
            x = {
                evaluated = true;
                2usize
            }
        );
        assert!(!evaluated, "disabled macros must skip field expressions");
    }

    #[test]
    fn out_of_order_span_drop_is_repaired_and_counted() {
        let (sink, _handle) = RingBufferSink::new(64);
        let id = add_sink(Box::new(sink));
        let before = registry().counter("obs.span_stack_repair");
        let outer = span!("repair_outer");
        let inner = span!("repair_inner");
        let inner_id = inner.id();
        // Dropping the *outer* guard first used to pop `inner`'s id and
        // leave the stack corrupted; now it removes its own id and counts
        // the repair.
        drop(outer);
        assert_eq!(current_span(), Some(inner_id));
        drop(inner); // LIFO again: no additional repair
        assert_ne!(current_span(), Some(inner_id));
        let after = registry().counter("obs.span_stack_repair");
        assert!(
            after >= before + 1.0,
            "non-LIFO drop must bump obs.span_stack_repair ({before} -> {after})"
        );
        remove_sink(id);
    }

    #[test]
    fn tids_are_distinct_across_threads() {
        let mine = current_tid();
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(mine, other);
        assert_eq!(mine, current_tid());
    }
}
