//! Where an iteration's wall time went, from the library's existing spans.
//!
//! A span's self time is its duration minus the part its children cover.
//! The library's spans nest (`segment_backward` inside
//! `recompute_segment`, `adam_step` inside `optimizer_step`) and, on a
//! sharded run, continue on worker threads while the session thread waits,
//! so durations cannot simply be added. This module walks the event list
//! once in time order and hands every microsecond of an `iteration` span
//! to exactly one phase: the phases sum to the iteration's wall by
//! construction, and what no phase span covers is `unattributed`.

use skipper_obs::{Event, EventKind};
use std::collections::BTreeMap;

/// The phases of `core.phase.*`, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Forward,
    Recompute,
    Backward,
    Loss,
    Optimizer,
    Unattributed,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Forward,
        Phase::Recompute,
        Phase::Backward,
        Phase::Loss,
        Phase::Optimizer,
        Phase::Unattributed,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Recompute => "recompute",
            Phase::Backward => "backward",
            Phase::Loss => "loss",
            Phase::Optimizer => "optimizer",
            Phase::Unattributed => "unattributed",
        }
    }

    /// The phase a span name stands for; `None` for spans that are only
    /// structure (`iteration`, `worker_task`, `shard*`, `tree_reduce`) or
    /// that a later change adds inside a phase span.
    fn of(span: &str) -> Option<Phase> {
        match span {
            "forward_pass" => Some(Phase::Forward),
            "recompute_segment" => Some(Phase::Recompute),
            "segment_backward" | "backward_pass" => Some(Phase::Backward),
            "loss" => Some(Phase::Loss),
            "optimizer_step" | "adam_step" | "sgd_step" => Some(Phase::Optimizer),
            _ => None,
        }
    }
}

/// One completed `iteration` span, split by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationProfile {
    /// End minus begin of the `iteration` span, microseconds.
    pub wall_us: u64,
    /// Microseconds per phase, indexed like [`Phase::ALL`]; sums to
    /// `wall_us`.
    pub phase_us: [f64; 6],
}

impl IterationProfile {
    pub fn phase(&self, phase: Phase) -> f64 {
        self.phase_us[phase as usize]
    }
}

struct OpenIteration {
    id: u64,
    tid: u64,
    begin_us: u64,
    phase_us: [f64; 6],
}

/// The phase the innermost phase-bearing span of `stack` stands for.
fn phase_of_stack(stack: &[(u64, Option<Phase>)]) -> Option<Phase> {
    stack.iter().rev().find_map(|(_, phase)| *phase)
}

/// Split every completed `iteration` span in `events` by phase.
///
/// An interval goes to the session thread's innermost phase span if it is
/// inside one: it is running then, whatever else is open. (On one CPU a
/// worker that has just handed back its result is descheduled before it
/// can close its `worker_task`, which then stays open across the session
/// thread's `optimizer_step`.) Outside any phase span the session thread
/// is dispatching or waiting, so the interval goes to the innermost phases
/// of the other threads that hold spans (engine workers), shared equally
/// when several do, which on one CPU is how the scheduler shares the core.
/// What is left is unattributed.
pub fn iteration_profiles(events: &[Event]) -> Vec<IterationProfile> {
    let mut ordered: Vec<&Event> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
            )
        })
        .collect();
    // Stable: ties keep the order the collector received them in.
    ordered.sort_by_key(|e| e.ts_us);

    let mut stacks: BTreeMap<u64, Vec<(u64, Option<Phase>)>> = BTreeMap::new();
    let mut open: Option<OpenIteration> = None;
    let mut last_ts = 0u64;
    let mut done = Vec::new();
    for event in ordered {
        if let Some(it) = open.as_mut() {
            let dt = event.ts_us.saturating_sub(last_ts) as f64;
            let own = stacks.get(&it.tid).and_then(|s| phase_of_stack(s));
            let helpers: Vec<Phase> = stacks
                .iter()
                .filter(|(tid, stack)| **tid != it.tid && !stack.is_empty())
                .map(|(_, stack)| phase_of_stack(stack).unwrap_or(Phase::Unattributed))
                .collect();
            match own {
                Some(phase) => it.phase_us[phase as usize] += dt,
                None if helpers.is_empty() => it.phase_us[Phase::Unattributed as usize] += dt,
                None => {
                    for phase in &helpers {
                        it.phase_us[*phase as usize] += dt / helpers.len() as f64;
                    }
                }
            }
        }
        last_ts = event.ts_us;
        match event.kind {
            EventKind::SpanBegin { id, .. } => {
                if event.name == "iteration" && open.is_none() {
                    open = Some(OpenIteration {
                        id,
                        tid: event.tid,
                        begin_us: event.ts_us,
                        phase_us: [0.0; 6],
                    });
                }
                stacks
                    .entry(event.tid)
                    .or_default()
                    .push((id, Phase::of(&event.name)));
            }
            EventKind::SpanEnd { id } => {
                if let Some(stack) = stacks.get_mut(&event.tid) {
                    if let Some(pos) = stack.iter().rposition(|(sid, _)| *sid == id) {
                        stack.remove(pos);
                    }
                }
                if open.as_ref().is_some_and(|it| it.id == id) {
                    if let Some(it) = open.take() {
                        done.push(IterationProfile {
                            wall_us: event.ts_us - it.begin_us,
                            phase_us: it.phase_us,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_obs::Level;

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

    fn span(
        name: &'static str,
        tid: u64,
        id: u64,
        parent: Option<u64>,
        begin: u64,
        end: u64,
    ) -> [Event; 2] {
        [
            ev(name, tid, begin, EventKind::SpanBegin { id, parent }),
            ev(name, tid, end, EventKind::SpanEnd { id }),
        ]
    }

    /// The spans are written begin/end pairwise, not in time order:
    /// `iteration_profiles` must order them itself.
    fn profile(events: Vec<Event>) -> IterationProfile {
        let mut profiles = iteration_profiles(&events);
        assert_eq!(profiles.len(), 1);
        profiles.remove(0)
    }

    #[test]
    fn unattributed_is_iteration_minus_children() {
        // A checkpointed iteration on one thread. segment_backward nests
        // inside recompute_segment and adam_step inside optimizer_step.
        let mut events = Vec::new();
        events.extend(span("iteration", 1, 1, None, 1000, 1100));
        events.extend(span("forward_pass", 1, 2, Some(1), 1010, 1040));
        events.extend(span("loss", 1, 3, Some(1), 1042, 1045));
        events.extend(span("recompute_segment", 1, 4, Some(1), 1050, 1090));
        events.extend(span("segment_backward", 1, 5, Some(4), 1070, 1088));
        events.extend(span("optimizer_step", 1, 6, Some(1), 1092, 1098));
        events.extend(span("adam_step", 1, 7, Some(6), 1093, 1097));
        // A counter in the middle must not disturb anything.
        events.push(ev(
            "skipper.steps_skipped",
            1,
            1060,
            EventKind::Counter { delta: 3.0 },
        ));
        let p = profile(events);
        assert_eq!(p.wall_us, 100);
        assert_eq!(p.phase(Phase::Forward), 30.0);
        assert_eq!(p.phase(Phase::Loss), 3.0);
        assert_eq!(p.phase(Phase::Recompute), 22.0); // 40 minus the nested 18
        assert_eq!(p.phase(Phase::Backward), 18.0);
        assert_eq!(p.phase(Phase::Optimizer), 6.0);
        // iteration − Σ children = 100 − (30 + 3 + 40 + 6)
        assert_eq!(p.phase(Phase::Unattributed), 21.0);
        assert_eq!(p.phase_us.iter().sum::<f64>(), p.wall_us as f64);
    }

    #[test]
    fn unknown_spans_inside_a_phase_stay_in_it() {
        let mut events = Vec::new();
        events.extend(span("iteration", 1, 1, None, 0, 50));
        events.extend(span("forward_pass", 1, 2, Some(1), 5, 45));
        events.extend(span("some_future_kernel", 1, 3, Some(2), 10, 30));
        let p = profile(events);
        assert_eq!(p.phase(Phase::Forward), 40.0);
        assert_eq!(p.phase(Phase::Unattributed), 10.0);
    }

    #[test]
    fn worker_threads_take_the_time_the_session_thread_waits() {
        // Two workers run shard spans while the session thread (tid 1)
        // sits in `iteration`; they overlap from 20 to 40. The second
        // worker is descheduled before it can close its `worker_task`,
        // which stays open across the session thread's optimizer step.
        let mut events = Vec::new();
        events.extend(span("iteration", 1, 1, None, 0, 100));
        events.extend(span("worker_task", 2, 2, Some(1), 10, 40));
        events.extend(span("forward_pass", 2, 3, Some(2), 10, 40));
        events.extend(span("worker_task", 3, 4, Some(1), 20, 95));
        events.extend(span("backward_pass", 3, 5, Some(4), 20, 50));
        events.extend(span("optimizer_step", 1, 6, Some(1), 80, 90));
        let p = profile(events);
        // 10..20 forward alone, 20..40 shared, 40..50 backward alone.
        assert_eq!(p.phase(Phase::Forward), 10.0 + 10.0);
        assert_eq!(p.phase(Phase::Backward), 10.0 + 10.0);
        // 80..90 is the session thread's own phase span.
        assert_eq!(p.phase(Phase::Optimizer), 10.0);
        // 0..10, 50..80 and 90..100: no phase span anywhere.
        assert_eq!(p.phase(Phase::Unattributed), 10.0 + 30.0 + 10.0);
        assert_eq!(p.phase_us.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn spans_still_open_at_the_end_are_ignored() {
        let events = vec![ev(
            "iteration",
            1,
            0,
            EventKind::SpanBegin {
                id: 1,
                parent: None,
            },
        )];
        assert!(iteration_profiles(&events).is_empty());
    }
}
