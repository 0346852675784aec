//! Chrome trace-event export: open the result in <https://ui.perfetto.dev>
//! or `chrome://tracing`.
//!
//! The emitted file is the JSON-object form of the [Trace Event Format]:
//! spans become `B`/`E` duration events, instants become `i`, and
//! counter/gauge updates become `C` counter tracks (counters are
//! accumulated so the track shows running totals).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{push_json_f64, push_json_fields, push_json_string, Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Serialise `events` into a Chrome-trace JSON string.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut counters: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    let mut first = true;
    for event in events {
        let mut entry = String::with_capacity(96);
        entry.push_str("{\"pid\":1,\"tid\":");
        let _ = write!(entry, "{}", event.tid);
        let _ = write!(entry, ",\"ts\":{}", event.ts_us);
        entry.push_str(",\"name\":");
        push_json_string(&mut entry, &event.name);
        entry.push_str(",\"cat\":");
        push_json_string(&mut entry, &event.level.to_string());
        match &event.kind {
            EventKind::SpanBegin { .. } => entry.push_str(",\"ph\":\"B\""),
            EventKind::SpanEnd { .. } => entry.push_str(",\"ph\":\"E\""),
            EventKind::Instant => entry.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            EventKind::Counter { delta } => {
                let slot = counters
                    .entry((event.name.as_ref(), event.tid))
                    .or_insert(0.0);
                // SAFETY of the running total: the collector delivers
                // events in submission order, so accumulation here matches
                // the registry's totals.
                *slot += *delta;
                entry.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
                push_json_f64(&mut entry, *slot);
                entry.push_str("}}");
                push_entry(&mut out, &mut first, &entry);
                continue;
            }
            EventKind::Gauge { value } | EventKind::Observe { value } => {
                entry.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
                push_json_f64(&mut entry, *value);
                entry.push_str("}}");
                push_entry(&mut out, &mut first, &entry);
                continue;
            }
        }
        if !event.fields.is_empty() {
            entry.push_str(",\"args\":");
            push_json_fields(&mut entry, &event.fields);
        }
        entry.push('}');
        push_entry(&mut out, &mut first, &entry);
    }
    out.push_str("]}");
    out
}

fn push_entry(out: &mut String, first: &mut bool, entry: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(entry);
}

/// Write `events` as a Chrome-trace file at `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(events: &[Event], path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    fn ev(name: &'static str, ts: u64, kind: EventKind) -> Event {
        Event {
            name: name.into(),
            level: Level::Debug,
            ts_us: ts,
            tid: 1,
            kind,
            fields: Vec::new(),
        }
    }

    #[test]
    fn spans_become_b_e_pairs() {
        let events = [
            ev(
                "seg",
                10,
                EventKind::SpanBegin {
                    id: 1,
                    parent: None,
                },
            ),
            ev("seg", 30, EventKind::SpanEnd { id: 1 }),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn counters_accumulate_into_running_totals() {
        let events = [
            ev("n", 1, EventKind::Counter { delta: 2.0 }),
            ev("n", 2, EventKind::Counter { delta: 3.0 }),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("{\"value\":2}"));
        assert!(json.contains("{\"value\":5}"));
    }

    #[test]
    fn gauges_pass_through_as_counter_tracks() {
        let events = [ev("g", 1, EventKind::Gauge { value: 7.5 })];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("{\"value\":7.5}"));
    }

    #[test]
    fn write_chrome_trace_writes_the_file() {
        let dir = std::env::temp_dir().join("skipper_obs_trace_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("t.trace.json");
        write_chrome_trace(&[ev("x", 1, EventKind::Instant)], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ph\":\"i\""));
        let _ = std::fs::remove_file(&path);
    }
}
