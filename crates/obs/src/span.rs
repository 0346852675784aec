//! Span guards: RAII tracing of nested regions of work.
//!
//! [`SpanGuard::enter`] emits a `SpanBegin` event and pushes the span onto
//! a thread-local stack (giving automatic parent/child nesting); dropping
//! the guard pops the stack and emits the matching `SpanEnd`. Guards must
//! be dropped on the thread that created them — the same single-thread
//! discipline the memory profiler's registrations follow.
//!
//! The stack is a plain thread-local `Vec` of span ids. Nothing else
//! reads it: the [`SpanFold`](crate::SpanFold) rebuilds every stack path
//! from the parent ids the events carry.

use crate::event::{Event, EventKind, Fields, Level};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's open span ids, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's span stack.
fn with_stack<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    SPAN_STACK.with(|s| f(&mut s.borrow_mut()))
}

/// An open span; dropping it closes the span.
///
/// Prefer the [`span!`](crate::span!) macro, which skips field construction
/// entirely while tracing is disabled.
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    live: bool,
}

impl SpanGuard {
    /// Open a span named `name` with `fields`, if tracing is enabled.
    pub fn enter(name: &'static str, fields: Fields) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard::disabled();
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = with_stack(|s| {
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        crate::submit(Event {
            name: name.into(),
            level: Level::Debug,
            ts_us: crate::now_us(),
            tid: crate::current_tid(),
            kind: EventKind::SpanBegin { id, parent },
            fields,
        });
        SpanGuard {
            id,
            name,
            live: true,
        }
    }

    /// Open a span with an explicit parent instead of the thread-local
    /// stack top.
    ///
    /// A worker thread has an empty span stack, so spans it opens would
    /// float free of the session's `iteration` span; passing the parent id
    /// captured on the dispatching thread stitches the trace together.
    /// The new span still joins this thread's stack, so spans nested under
    /// it parent normally.
    pub fn enter_with_parent(name: &'static str, fields: Fields, parent: Option<u64>) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard::disabled();
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = with_stack(|s| {
            let fallback = s.last().copied();
            s.push(id);
            parent.or(fallback)
        });
        crate::submit(Event {
            name: name.into(),
            level: Level::Debug,
            ts_us: crate::now_us(),
            tid: crate::current_tid(),
            kind: EventKind::SpanBegin { id, parent },
            fields,
        });
        SpanGuard {
            id,
            name,
            live: true,
        }
    }

    /// A no-op guard (what `enter` returns while tracing is disabled).
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            id: 0,
            name: "",
            live: false,
        }
    }

    /// The span's process-unique id (0 for a disabled guard).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether this guard actually opened a span.
    pub fn is_recording(&self) -> bool {
        self.live
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // A LIFO drop finds its own id on top. Anything else — a guard
        // stored in a struct and dropped late, a sibling closed out of
        // order — used to silently pop *someone else's* id and corrupt
        // the nesting for the rest of the thread's life. Detect it, repair
        // by removing exactly this guard's id, and count the repair.
        let repaired = with_stack(|s| {
            let lifo = s.last() == Some(&self.id);
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
            !lifo
        });
        if repaired {
            crate::counter_add("obs.span_stack_repair", 1.0);
        }
        crate::submit(Event {
            name: self.name.into(),
            level: Level::Debug,
            ts_us: crate::now_us(),
            tid: crate::current_tid(),
            kind: EventKind::SpanEnd { id: self.id },
            fields: Vec::new(),
        });
    }
}

/// Id of the innermost open span on this thread, if any.
pub fn current_span() -> Option<u64> {
    with_stack(|s| s.last().copied())
}

/// Move this process's span-id allocator to at least `base`.
///
/// Span ids are process-local `u64`s, so two processes tracing the same
/// distributed run would hand out colliding ids and the stitched trace
/// would cross-wire parent links. A cluster worker calls this right after
/// its Welcome handshake with a base derived from its worker id (e.g.
/// `id << 40`), carving the id space into non-overlapping per-process
/// ranges. Monotonic: a base below the current allocator is a no-op, so
/// ids never move backwards.
pub fn namespace_span_ids(base: u64) {
    NEXT_SPAN_ID.fetch_max(base.max(1), Ordering::Relaxed);
}

/// A portable capture of "where am I in the trace?" — the cross-thread
/// span-context carrier.
///
/// Thread-local span stacks give automatic nesting on one thread, but a
/// worker pool executes jobs on threads whose stacks are empty, so every
/// span a worker opens would float free of the dispatching `iteration`
/// span. Capture a context on the dispatching thread, move it into the
/// job (it is `Copy + Send`), and [`adopt`](SpanContext::adopt) it on the
/// worker: while the returned guard lives, every span the worker opens —
/// including ones deep inside library code that knows nothing about the
/// pool — nests under the captured parent.
///
/// ```
/// let (sink, _handle) = skipper_obs::RingBufferSink::new(64);
/// let id = skipper_obs::add_sink(Box::new(sink));
/// let outer = skipper_obs::span!("dispatch");
/// let ctx = skipper_obs::SpanContext::capture();
/// std::thread::spawn(move || {
///     let _adopted = ctx.adopt();
///     let _task = skipper_obs::span!("task"); // parented under "dispatch"
/// })
/// .join()
/// .unwrap();
/// drop(outer);
/// skipper_obs::remove_sink(id);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    parent: Option<u64>,
}

impl SpanContext {
    /// Capture the calling thread's innermost open span (if any).
    pub fn capture() -> SpanContext {
        SpanContext {
            parent: current_span(),
        }
    }

    /// An empty context; adopting it is a no-op.
    pub fn none() -> SpanContext {
        SpanContext { parent: None }
    }

    /// The captured span id, if one was open at capture time.
    pub fn parent(&self) -> Option<u64> {
        self.parent
    }

    /// Make the captured span the parent of spans opened on this thread
    /// for as long as the returned guard lives. Emits no events itself;
    /// it only seeds the thread-local stack.
    pub fn adopt(&self) -> ContextGuard {
        let Some(id) = self.parent else {
            return ContextGuard { id: None };
        };
        if !crate::enabled() {
            return ContextGuard { id: None };
        }
        with_stack(|s| s.push(id));
        ContextGuard { id: Some(id) }
    }
}

/// Keeps an adopted [`SpanContext`] active on the current thread; dropping
/// it restores the previous parent.
#[derive(Debug)]
#[must_use = "dropping the guard immediately un-adopts the context"]
pub struct ContextGuard {
    id: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        with_stack(|s| {
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
    }
}
