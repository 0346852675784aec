//! Post-hoc analysis of a captured event stream: per-span-name timing
//! aggregates (total vs self time) and a compact terminal table.

use crate::event::Event;
use crate::fold::SpanFold;
use crate::metrics::MetricsSnapshot;

/// Timing aggregate for one span name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Sum of wall durations, microseconds.
    pub total_us: u64,
    /// Total minus time spent in child spans, microseconds.
    pub self_us: u64,
    /// Median duration, microseconds (bucket-interpolated, see
    /// [`Histogram::quantile`](crate::Histogram::quantile)).
    pub p50_us: u64,
    /// 95th-percentile duration, microseconds.
    pub p95_us: u64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: u64,
}

impl SpanStat {
    /// Mean duration per span, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Aggregate the span begin/end events in `events` into per-name stats,
/// sorted by total time descending: the [`SpanFold`] of `events` summed by
/// span name.
///
/// Self time is total time minus the durations of the direct children
/// that ran on the span's own thread. Spans without a matching end (still
/// open when the capture stopped) are ignored.
pub fn span_stats(events: &[Event]) -> Vec<SpanStat> {
    SpanFold::from_events(events).by_name()
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Render the terminal summary: spans by total/self time, then the top
/// `max_counters` counters and every gauge of `metrics`.
pub fn render_summary(events: &[Event], metrics: &MetricsSnapshot, max_counters: usize) -> String {
    let mut out = String::new();
    let stats = span_stats(events);
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "count", "total", "self", "mean", "p50", "p95", "p99"
    ));
    for s in &stats {
        out.push_str(&format!(
            "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            s.name,
            s.count,
            fmt_us(s.total_us),
            fmt_us(s.self_us),
            fmt_us(s.mean_us() as u64),
            fmt_us(s.p50_us),
            fmt_us(s.p95_us),
            fmt_us(s.p99_us),
        ));
    }
    if stats.is_empty() {
        out.push_str("(no completed spans captured)\n");
    }
    if !metrics.counters.is_empty() {
        out.push_str(&format!("\n{:<40} {:>14}\n", "counter", "total"));
        let mut counters = metrics.counters.clone();
        counters.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (name, value) in counters.iter().take(max_counters) {
            out.push_str(&format!("{name:<40} {value:>14}\n"));
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str(&format!("\n{:<40} {:>14}\n", "gauge", "value"));
        for (name, value) in &metrics.gauges {
            out.push_str(&format!("{name:<40} {value:>14.3}\n"));
        }
    }
    for (name, hist) in &metrics.histograms {
        out.push_str(&format!(
            "\nhistogram {name}: n={} mean={:.1} min={:.1} max={:.1}\n",
            hist.count(),
            hist.mean(),
            hist.min(),
            hist.max()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Level};

    fn span_ev(name: &'static str, ts: u64, kind: EventKind) -> Event {
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
    fn self_time_subtracts_direct_children() {
        // parent [0,100] with children [10,30] and [40,80]:
        // parent total = 100, self = 100 - (20 + 40) = 40.
        let events = [
            span_ev(
                "parent",
                0,
                EventKind::SpanBegin {
                    id: 1,
                    parent: None,
                },
            ),
            span_ev(
                "child",
                10,
                EventKind::SpanBegin {
                    id: 2,
                    parent: Some(1),
                },
            ),
            span_ev("child", 30, EventKind::SpanEnd { id: 2 }),
            span_ev(
                "child",
                40,
                EventKind::SpanBegin {
                    id: 3,
                    parent: Some(1),
                },
            ),
            span_ev("child", 80, EventKind::SpanEnd { id: 3 }),
            span_ev("parent", 100, EventKind::SpanEnd { id: 1 }),
        ];
        let stats = span_stats(&events);
        assert_eq!(stats.len(), 2);
        let parent = stats.iter().find(|s| s.name == "parent").unwrap();
        assert_eq!(
            (parent.count, parent.total_us, parent.self_us),
            (1, 100, 40)
        );
        let child = stats.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((child.count, child.total_us, child.self_us), (2, 60, 60));
        // Sorted by total time descending.
        assert_eq!(stats[0].name, "parent");
    }

    #[test]
    fn grandchildren_only_reduce_their_direct_parent() {
        // a [0,100] > b [10,90] > c [20,40]:
        // c self 20; b self 80-20=60; a self 100-80=20.
        let events = [
            span_ev(
                "a",
                0,
                EventKind::SpanBegin {
                    id: 1,
                    parent: None,
                },
            ),
            span_ev(
                "b",
                10,
                EventKind::SpanBegin {
                    id: 2,
                    parent: Some(1),
                },
            ),
            span_ev(
                "c",
                20,
                EventKind::SpanBegin {
                    id: 3,
                    parent: Some(2),
                },
            ),
            span_ev("c", 40, EventKind::SpanEnd { id: 3 }),
            span_ev("b", 90, EventKind::SpanEnd { id: 2 }),
            span_ev("a", 100, EventKind::SpanEnd { id: 1 }),
        ];
        let stats = span_stats(&events);
        let get = |n: &str| stats.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("a").self_us, 20);
        assert_eq!(get("b").self_us, 60);
        assert_eq!(get("c").self_us, 20);
    }

    #[test]
    fn unclosed_spans_are_ignored() {
        let events = [span_ev(
            "open",
            0,
            EventKind::SpanBegin {
                id: 1,
                parent: None,
            },
        )];
        assert!(span_stats(&events).is_empty());
    }

    #[test]
    fn percentiles_pin_bucket_interpolation() {
        // Four "work" spans of 5, 50, 500 and 5000 µs, bucketed into the
        // default power-of-10 duration histogram (one sample per bucket).
        let mut events = Vec::new();
        let mut ts = 0u64;
        for (i, dur) in [5u64, 50, 500, 5000].into_iter().enumerate() {
            let id = i as u64 + 1;
            events.push(span_ev(
                "work",
                ts,
                EventKind::SpanBegin { id, parent: None },
            ));
            events.push(span_ev("work", ts + dur, EventKind::SpanEnd { id }));
            ts += dur + 1;
        }
        let stats = span_stats(&events);
        let work = stats.iter().find(|s| s.name == "work").unwrap();
        // rank(p50)=2 lands exactly on the cumulative edge of the (10,100]
        // bucket -> its upper bound, 100.
        assert_eq!(work.p50_us, 100);
        // rank(p95)=3.8: 0.8 into (1000, min(10000, max=5000)] -> 4200.
        assert_eq!(work.p95_us, 4200);
        // rank(p99)=3.96: 0.96 into the same bucket -> 4840.
        assert_eq!(work.p99_us, 4840);

        let text = render_summary(&events, &MetricsSnapshot::default(), 10);
        let header = text.lines().next().unwrap();
        for col in ["p50", "p95", "p99"] {
            assert!(header.contains(col), "missing column {col}: {header}");
        }
        assert!(text.contains("4.20ms"));
        assert!(text.contains("4.84ms"));
    }

    #[test]
    fn summary_renders_spans_and_metrics() {
        let events = [
            span_ev(
                "work",
                0,
                EventKind::SpanBegin {
                    id: 1,
                    parent: None,
                },
            ),
            span_ev("work", 2_500, EventKind::SpanEnd { id: 1 }),
        ];
        let registry = crate::Registry::new();
        registry.counter_add("skipper.steps_skipped", 12.0);
        registry.gauge_set("skipper.sst_threshold", 88.5);
        let text = render_summary(&events, &registry.snapshot(), 10);
        assert!(text.contains("work"));
        assert!(text.contains("2.50ms"));
        assert!(text.contains("skipper.steps_skipped"));
        assert!(text.contains("88.5"));
    }
}
