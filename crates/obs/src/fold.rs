//! The span fold: exact per-stack timing from span begin/end events.
//!
//! [`SpanFold`] takes span events in the order the collector delivered
//! them and keeps, for every stack path (`iteration;worker_task;shard_forward`),
//! the number of completed spans, their summed duration, their summed self
//! time and a duration [`Histogram`]. A span's path is its parent's path
//! plus its own name, the parent found by id, so a span a worker thread
//! opens under an adopted [`SpanContext`](crate::SpanContext) continues
//! the dispatching thread's path.
//!
//! A span's self time is its duration minus the children that ran on its
//! own thread and closed while it was open. On each thread the self times
//! therefore add up to the durations of the thread's outermost spans, and
//! [`folded_text`](SpanFold::folded_text) is a flame graph weighted in
//! exact microseconds — the [Brendan Gregg folded format] that
//! `flamegraph.pl`, inferno and speedscope read:
//!
//! ```text
//! iteration;forward_pass 412
//! iteration;worker_task;shard_forward 96
//! ```
//!
//! This is the one place that computes self time:
//! [`span_stats`](crate::span_stats) sums the fold by span name, and the
//! `/profile` routes serve the fold of every span seen while a
//! [`MetricsServer`](crate::MetricsServer) is bound (see
//! [`profile`](crate::profile)).
//!
//! Memory stays bounded by the number of distinct paths. An open span is
//! held only until its end arrives or its thread opens a root span (a
//! thread's stack is empty then, so an end still missing was lost while
//! tracing was off). A parent the fold never saw open — one from another
//! process, or opened before the capture began — starts a new path and
//! stores nothing.
//!
//! [Brendan Gregg folded format]: https://www.brendangregg.com/flamegraphs.html

use crate::event::{Event, EventKind};
use crate::metrics::Histogram;
use crate::summary::SpanStat;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Totals over completed spans: of one stack path, or summed, of one name.
#[derive(Debug, Clone, Default)]
struct Tally {
    count: u64,
    total_us: u64,
    self_us: u64,
    durations: Histogram,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
        self.durations.merge(&other.durations);
    }

    fn stat(&self, name: String) -> SpanStat {
        let quantile = |q: f64| self.durations.quantile(q).round() as u64;
        SpanStat {
            name,
            count: self.count,
            total_us: self.total_us,
            self_us: self.self_us,
            p50_us: quantile(0.50),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
        }
    }
}

/// One distinct stack path: its innermost frame and the path it extends.
#[derive(Debug)]
struct Node {
    name: Cow<'static, str>,
    parent: Option<usize>,
    tally: Tally,
}

/// A span whose end has not arrived yet.
#[derive(Debug)]
struct Open {
    node: usize,
    parent: Option<u64>,
    tid: u64,
    begin_us: u64,
    /// Summed durations of closed children that ran on this span's thread.
    child_us: u64,
}

/// Incremental per-stack-path span timing; see the module docs.
///
/// ```
/// use skipper_obs::{Event, EventKind, Level, SpanFold};
/// let event = |ts_us, kind| Event {
///     name: "work".into(),
///     level: Level::Debug,
///     ts_us,
///     tid: 1,
///     kind,
///     fields: Vec::new(),
/// };
/// let mut fold = SpanFold::new();
/// fold.record(&event(0, EventKind::SpanBegin { id: 1, parent: None }));
/// fold.record(&event(250, EventKind::SpanEnd { id: 1 }));
/// assert_eq!(fold.folded_text(), "work 250\n");
/// ```
#[derive(Debug, Default)]
pub struct SpanFold {
    nodes: Vec<Node>,
    /// `(parent path, frame name)` → path, so a begin allocates nothing
    /// once its path exists.
    index: HashMap<(Option<usize>, Cow<'static, str>), usize>,
    open: HashMap<u64, Open>,
}

impl SpanFold {
    /// An empty fold.
    pub fn new() -> SpanFold {
        SpanFold::default()
    }

    /// The fold of `events`, taken in order.
    pub fn from_events(events: &[Event]) -> SpanFold {
        let mut fold = SpanFold::new();
        for event in events {
            fold.record(event);
        }
        fold
    }

    /// Fold one event; everything but span begins and ends is ignored, and
    /// so is an end whose begin the fold never saw.
    pub fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::SpanBegin { id, parent } => self.begin(event, id, parent),
            EventKind::SpanEnd { id } => self.end(id, event.ts_us),
            _ => {}
        }
    }

    fn begin(&mut self, event: &Event, id: u64, parent: Option<u64>) {
        if parent.is_none() {
            self.open.retain(|_, span| span.tid != event.tid);
        }
        let parent_node = parent.and_then(|p| self.open.get(&p)).map(|p| p.node);
        let node = self.node(parent_node, event.name.clone());
        self.open.insert(
            id,
            Open {
                node,
                parent,
                tid: event.tid,
                begin_us: event.ts_us,
                child_us: 0,
            },
        );
    }

    fn end(&mut self, id: u64, ts_us: u64) {
        let Some(span) = self.open.remove(&id) else {
            return;
        };
        let duration = ts_us.saturating_sub(span.begin_us);
        if let Some(parent) = span.parent.and_then(|p| self.open.get_mut(&p)) {
            if parent.tid == span.tid {
                parent.child_us += duration;
            }
        }
        let tally = &mut self.nodes[span.node].tally;
        tally.count += 1;
        tally.total_us += duration;
        tally.self_us += duration.saturating_sub(span.child_us);
        tally.durations.observe(duration as f64);
    }

    /// The path `name` extends `parent` with, made on first use.
    fn node(&mut self, parent: Option<usize>, name: Cow<'static, str>) -> usize {
        let nodes = &mut self.nodes;
        *self.index.entry((parent, name.clone())).or_insert_with(|| {
            nodes.push(Node {
                name,
                parent,
                tally: Tally::default(),
            });
            nodes.len() - 1
        })
    }

    /// Forget every open span: their ends will not arrive (the fold stops
    /// seeing events).
    pub(crate) fn forget_open(&mut self) {
        self.open.clear();
    }

    /// `frame;frame;frame` of `node`.
    fn path(&self, node: usize) -> String {
        let mut frames = Vec::new();
        let mut at = Some(node);
        while let Some(i) = at {
            frames.push(&*self.nodes[i].name);
            at = self.nodes[i].parent;
        }
        frames.reverse();
        frames.join(";")
    }

    /// Every stack path with a completed span, as a [`SpanStat`] named by
    /// the path, sorted by path.
    pub fn stacks(&self) -> Vec<SpanStat> {
        let mut out: Vec<SpanStat> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.tally.count > 0)
            .map(|(i, node)| node.tally.stat(self.path(i)))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The fold summed by span name, sorted by total time descending; see
    /// [`span_stats`](crate::span_stats).
    pub fn by_name(&self) -> Vec<SpanStat> {
        let mut names: BTreeMap<&str, Tally> = BTreeMap::new();
        for node in self.nodes.iter().filter(|node| node.tally.count > 0) {
            names.entry(&node.name).or_default().add(&node.tally);
        }
        let mut out: Vec<SpanStat> = names
            .into_iter()
            .map(|(name, tally)| tally.stat(name.to_string()))
            .collect();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        out
    }

    /// Collapsed stacks weighted by self time: one `frame;frame;frame µs`
    /// line per path with a completed span, sorted by path.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for stack in self.stacks() {
            out.push_str(&stack.name);
            out.push(' ');
            out.push_str(&stack.self_us.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use proptest::prelude::*;

    fn ev(name: &'static str, tid: u64, ts_us: u64, kind: EventKind) -> Event {
        Event {
            name: name.into(),
            level: Level::Debug,
            ts_us,
            tid,
            kind,
            fields: Vec::new(),
        }
    }

    fn begin(name: &'static str, tid: u64, ts: u64, id: u64, parent: Option<u64>) -> Event {
        ev(name, tid, ts, EventKind::SpanBegin { id, parent })
    }

    fn end(name: &'static str, tid: u64, ts: u64, id: u64) -> Event {
        ev(name, tid, ts, EventKind::SpanEnd { id })
    }

    /// The sweep `span_stats` ran before the fold: self time is the
    /// duration minus every direct child that closed while the parent was
    /// open, whatever thread the child ran on.
    fn reference_span_stats(events: &[Event]) -> Vec<SpanStat> {
        struct Open {
            name: String,
            parent: Option<u64>,
            begin_us: u64,
        }
        let mut open: HashMap<u64, Open> = HashMap::new();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
        let mut durations: BTreeMap<String, Histogram> = BTreeMap::new();
        for event in events {
            match &event.kind {
                EventKind::SpanBegin { id, parent } => {
                    open.insert(
                        *id,
                        Open {
                            name: event.name.to_string(),
                            parent: *parent,
                            begin_us: event.ts_us,
                        },
                    );
                }
                EventKind::SpanEnd { id } => {
                    let Some(span) = open.remove(id) else {
                        continue;
                    };
                    let duration = event.ts_us.saturating_sub(span.begin_us);
                    if let Some(parent) = span.parent {
                        *child_us.entry(parent).or_insert(0) += duration;
                    }
                    let children = child_us.remove(id).unwrap_or(0);
                    durations
                        .entry(span.name.clone())
                        .or_default()
                        .observe(duration as f64);
                    let stat = stats.entry(span.name.clone()).or_insert_with(|| SpanStat {
                        name: span.name,
                        ..SpanStat::default()
                    });
                    stat.count += 1;
                    stat.total_us += duration;
                    stat.self_us += duration.saturating_sub(children);
                }
                _ => {}
            }
        }
        let mut out: Vec<SpanStat> = stats.into_values().collect();
        for stat in &mut out {
            if let Some(hist) = durations.get(&stat.name) {
                stat.p50_us = hist.quantile(0.50).round() as u64;
                stat.p95_us = hist.quantile(0.95).round() as u64;
                stat.p99_us = hist.quantile(0.99).round() as u64;
            }
        }
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        out
    }

    const NAMES: [&str; 4] = ["iteration", "forward_pass", "worker_task", "shard_forward"];

    /// A span stream as the collector delivers it, driven by `script`:
    /// `threads` threads whose stacks behave like `span.rs` (ids pushed on
    /// begin, an out-of-order close removes just its own id), spans
    /// adopted under another thread's open span (unless
    /// `same_thread_only`) or under a parent from another process, ends
    /// for spans never begun, spans left open at the end of the capture,
    /// and stretches with tracing off that lose events. One clock tick or
    /// more per event, so time is monotone.
    fn stream(script: &[u8], threads: u64, same_thread_only: bool) -> Vec<Event> {
        let mut events = Vec::new();
        let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); threads as usize];
        let mut next_id = 1u64;
        let mut ts = 0u64;
        let mut tracing = true;
        for (step, &op) in script.iter().enumerate() {
            ts += 1 + u64::from(op % 3);
            let tid = u64::from(op >> 4) % threads;
            let name = NAMES[step % NAMES.len()];
            let remote = 1 << 40 | step as u64;
            let adopted = if same_thread_only {
                remote
            } else {
                (0..threads)
                    .filter(|&t| t != tid)
                    .find_map(|t| stacks[t as usize].last().copied())
                    .unwrap_or(remote)
            };
            let stack = &mut stacks[tid as usize];
            let (event, id) = match op % 16 {
                // Open a span under this thread's stack top...
                0..=5 => (Some(stack.last().copied()), None),
                // ...or under an adopted parent.
                6 => (Some(Some(adopted)), None),
                // Close this thread's innermost span.
                7..=10 => (None, stack.pop()),
                // Close the span below it: the stack repairs itself.
                11 if stack.len() >= 2 => (None, Some(stack.remove(stack.len() - 2))),
                // An end for a span nobody began.
                12 => (None, Some(1 << 50 | step as u64)),
                // Tracing switches off or back on.
                13 => {
                    tracing = !tracing;
                    (None, None)
                }
                _ => (None, None),
            };
            if let Some(parent) = event {
                let id = next_id;
                next_id += 1;
                stack.push(id);
                if tracing {
                    events.push(begin(name, tid + 1, ts, id, parent));
                }
            } else if let Some(id) = id {
                if tracing {
                    events.push(end(name, tid + 1, ts, id));
                }
            }
        }
        events
    }

    /// Per thread, the summed durations of its outermost spans: closed
    /// spans without a closed parent on the same thread that was open
    /// when they closed (the parent is absent, on another thread, closed
    /// first or never closed).
    fn outermost_us_by_thread(events: &[Event]) -> BTreeMap<u64, u64> {
        let mut begins: HashMap<u64, (&Event, Option<u64>)> = HashMap::new();
        let mut closed: HashMap<u64, (u64, u64, Option<u64>, u64)> = HashMap::new();
        for event in events {
            match event.kind {
                EventKind::SpanBegin { id, parent } => {
                    begins.insert(id, (event, parent));
                }
                EventKind::SpanEnd { id } => {
                    if let Some((b, parent)) = begins.remove(&id) {
                        let duration = event.ts_us - b.ts_us;
                        closed.insert(id, (b.tid, duration, parent, event.ts_us));
                    }
                }
                _ => {}
            }
        }
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for (tid, duration, parent, end_us) in closed.values() {
            let absorbed =
                parent
                    .and_then(|p| closed.get(&p))
                    .is_some_and(|&(ptid, pdur, _, pend)| {
                        ptid == *tid && pend >= *end_us && pend - pdur <= *end_us
                    });
            if !absorbed {
                *out.entry(*tid).or_default() += duration;
            }
        }
        out
    }

    #[test]
    fn paths_follow_adopted_parents_across_threads() {
        // iteration [0,100] on thread 1 dispatches worker_task [10,60] to
        // thread 2, which runs shard_forward [20,50]; thread 1 runs
        // forward_pass [5,90] meanwhile.
        let events = [
            begin("iteration", 1, 0, 1, None),
            begin("forward_pass", 1, 5, 2, Some(1)),
            begin("worker_task", 2, 10, 3, Some(1)),
            begin("shard_forward", 2, 20, 4, Some(3)),
            end("shard_forward", 2, 50, 4),
            end("worker_task", 2, 60, 3),
            end("forward_pass", 1, 90, 2),
            end("iteration", 1, 100, 1),
        ];
        let fold = SpanFold::from_events(&events);
        assert_eq!(
            fold.folded_text(),
            "iteration 15\n\
             iteration;forward_pass 85\n\
             iteration;worker_task 20\n\
             iteration;worker_task;shard_forward 30\n"
        );
        let task = fold
            .stacks()
            .into_iter()
            .find(|s| s.name == "iteration;worker_task")
            .unwrap();
        assert_eq!((task.count, task.total_us, task.self_us), (1, 50, 20));
    }

    #[test]
    fn a_root_begin_drops_what_its_thread_left_open() {
        // Span 1's end was lost while tracing was off; thread 1's next
        // root span proves it closed, so the fold lets it go.
        let mut fold = SpanFold::new();
        fold.record(&begin("lost", 1, 0, 1, None));
        fold.record(&begin("elsewhere", 2, 1, 2, None));
        fold.record(&begin("next", 1, 5, 3, None));
        assert_eq!(fold.open.len(), 2);
        assert!(!fold.open.contains_key(&1));
        // A child of a parent from another process stores nothing for it.
        fold.record(&begin("remote_child", 1, 6, 4, Some(1 << 40)));
        fold.record(&end("remote_child", 1, 9, 4));
        assert_eq!(fold.open.len(), 2);
        assert_eq!(fold.folded_text(), "remote_child 3\n");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On each thread, self time sums to the outermost spans' durations.
        #[test]
        fn self_time_sums_to_each_threads_outermost_spans(
            script in prop::collection::vec((0u16..256).prop_map(|op| op as u8), 0..200),
            threads in 1u64..4,
        ) {
            let events = stream(&script, threads, false);
            let mut fold = SpanFold::new();
            let mut by_thread: BTreeMap<u64, u64> = BTreeMap::new();
            for event in &events {
                let EventKind::SpanEnd { id } = event.kind else {
                    fold.record(event);
                    continue;
                };
                let before: u64 = fold.nodes.iter().map(|n| n.tally.self_us).sum();
                let tid = fold.open.get(&id).map(|s| s.tid);
                fold.record(event);
                let after: u64 = fold.nodes.iter().map(|n| n.tally.self_us).sum();
                if let Some(tid) = tid {
                    *by_thread.entry(tid).or_default() += after - before;
                }
            }
            by_thread.retain(|_, us| *us > 0);
            let mut want = outermost_us_by_thread(&events);
            want.retain(|_, us| *us > 0);
            prop_assert_eq!(by_thread, want);
        }

        /// Where every child shares its parent's thread, the fold summed
        /// by name is the old sweep, field for field.
        #[test]
        fn span_stats_match_the_sweep_on_single_thread_parents(
            script in prop::collection::vec((0u16..256).prop_map(|op| op as u8), 0..200),
            threads in 1u64..4,
        ) {
            let events = stream(&script, threads, true);
            prop_assert_eq!(crate::span_stats(&events), reference_span_stats(&events));
        }
    }
}
