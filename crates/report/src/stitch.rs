//! Cross-process trace stitching: merge per-process obs JSONL streams
//! into one Chrome/Perfetto trace.
//!
//! A distributed run produces one JSONL event stream per process — the
//! coordinator's (carrying the `iteration` spans) plus one per
//! `skipper_worker` (captured via `SKIPPER_OBS_JSONL`). Each stream has
//! its own clock epoch (`skipper_obs::now_us` counts from process
//! start) and its own span-id space. Stitching:
//!
//! 1. picks the coordinator stream (the one containing `iteration`
//!    spans) as pid 1 and the time reference;
//! 2. shifts every worker stream by the clock offset its
//!    `cluster.clock_sync` event reported (estimated NTP-style during the
//!    Hello/Welcome handshake, so worker timestamps land on the
//!    coordinator's axis);
//! 3. emits one Chrome-trace JSON with per-process `process_name`
//!    metadata, `B`/`E` span events carrying `span`/`parent` ids in
//!    `args`, and flow arrows (`s`/`f`) wherever a span's parent lives in
//!    another process — the `worker_task → iteration` dispatch edges.
//!
//! Span ids are globally unique across processes because cluster workers
//! call `skipper_obs::namespace_span_ids` after their handshake, so a
//! worker span's remote `parent` id resolves unambiguously.

use serde_json::{json, Value};
use std::collections::HashMap;

/// One parsed obs JSONL record (the subset stitching needs).
#[derive(Debug, Clone)]
pub struct Rec {
    /// Microseconds since the emitting process's trace epoch.
    pub ts_us: i64,
    /// Emitting thread id (process-local).
    pub tid: u64,
    /// Event or span name.
    pub name: String,
    /// Record kind: `span_begin`, `span_end`, `instant`, `counter`,
    /// `gauge` or `observe`.
    pub ev: String,
    /// Span id for span records.
    pub span: Option<u64>,
    /// Parent span id for `span_begin` records.
    pub parent: Option<u64>,
    /// Free-form fields payload.
    pub fields: Option<Value>,
}

/// One process's parsed stream.
#[derive(Debug, Clone)]
pub struct ProcessStream {
    /// Display label (usually the source file name).
    pub label: String,
    /// Parsed records, input order.
    pub recs: Vec<Rec>,
    /// Lines that failed to parse (counted, not fatal).
    pub dropped_lines: usize,
}

/// Outcome counters of one stitch, for logs and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StitchStats {
    /// Input streams merged.
    pub processes: usize,
    /// Total spans across all streams.
    pub spans: usize,
    /// `worker_task` spans seen.
    pub worker_tasks: usize,
    /// `worker_task` spans whose parent chain reaches an `iteration` span.
    pub nested_under_iteration: usize,
    /// Cross-process parent edges rendered as flow arrows.
    pub cross_process_links: usize,
    /// Unparseable input lines skipped.
    pub dropped_lines: usize,
}

/// The stitched trace plus its statistics.
#[derive(Debug, Clone)]
pub struct Stitched {
    /// Chrome-trace JSON (`{"traceEvents":[...]}`), Perfetto-loadable.
    pub chrome_json: String,
    /// Merge statistics.
    pub stats: StitchStats,
}

/// Parse one obs JSONL stream. Unparseable lines are dropped and counted
/// — a crashed process may leave a torn final line, which must not sink
/// the whole stitch.
pub fn parse_stream(label: impl Into<String>, text: &str) -> ProcessStream {
    let mut recs = Vec::new();
    let mut dropped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            dropped += 1;
            continue;
        };
        let (Some(ts_us), Some(name), Some(ev)) =
            (v["ts_us"].as_i64(), v["name"].as_str(), v["ev"].as_str())
        else {
            dropped += 1;
            continue;
        };
        recs.push(Rec {
            ts_us,
            tid: v["tid"].as_u64().unwrap_or(0),
            name: name.to_string(),
            ev: ev.to_string(),
            span: v["span"].as_u64(),
            parent: v["parent"].as_u64(),
            fields: match &v["fields"] {
                Value::Null => None,
                f => Some(f.clone()),
            },
        });
    }
    ProcessStream {
        label: label.into(),
        recs,
        dropped_lines: dropped,
    }
}

/// The stream's last reported coordinator-clock offset in µs
/// (`cluster.clock_sync` → `fields.offset_us`), or 0 when the stream
/// never synced (the coordinator itself, threaded loopback workers).
fn clock_offset_us(stream: &ProcessStream) -> i64 {
    stream
        .recs
        .iter()
        .rev()
        .find(|r| r.ev == "instant" && r.name == "cluster.clock_sync")
        .and_then(|r| r.fields.as_ref())
        .and_then(|f| f["offset_us"].as_i64())
        .unwrap_or(0)
}

/// Whether the stream contains the coordinator's `iteration` spans.
fn is_coordinator(stream: &ProcessStream) -> bool {
    stream
        .recs
        .iter()
        .any(|r| r.ev == "span_begin" && r.name == "iteration")
}

/// Merge parsed per-process streams into one Chrome trace.
///
/// # Errors
///
/// Returns a description when no stream was given.
pub fn stitch(streams: &[ProcessStream]) -> Result<Stitched, String> {
    if streams.is_empty() {
        return Err("no input streams to stitch".into());
    }
    // Coordinator first (pid 1); everything else keeps input order.
    let coord = streams.iter().position(is_coordinator).unwrap_or(0);
    let order: Vec<usize> = std::iter::once(coord)
        .chain((0..streams.len()).filter(|&i| i != coord))
        .collect();

    // Global span table: id -> (pid, shifted begin ts, tid, name, parent).
    struct SpanInfo {
        pid: u64,
        ts: i64,
        tid: u64,
        name: String,
        parent: Option<u64>,
    }
    let mut spans: HashMap<u64, SpanInfo> = HashMap::new();
    let mut stats = StitchStats {
        processes: streams.len(),
        ..StitchStats::default()
    };
    let mut events: Vec<(i64, Value)> = Vec::new();

    for (slot, &idx) in order.iter().enumerate() {
        let stream = &streams[idx];
        let pid = slot as u64 + 1;
        // Shifting by +offset moves this process's timestamps onto the
        // coordinator's clock axis. The coordinator's own offset is 0.
        let offset = if slot == 0 {
            0
        } else {
            clock_offset_us(stream)
        };
        stats.dropped_lines += stream.dropped_lines;
        events.push((
            i64::MIN,
            json!({
                "ph": "M", "pid": pid, "name": "process_name",
                "args": {"name": stream.label},
            }),
        ));
        for r in &stream.recs {
            let ts = r.ts_us + offset;
            match r.ev.as_str() {
                "span_begin" => {
                    let Some(id) = r.span else { continue };
                    stats.spans += 1;
                    if r.name == "worker_task" {
                        stats.worker_tasks += 1;
                    }
                    spans.insert(
                        id,
                        SpanInfo {
                            pid,
                            ts,
                            tid: r.tid,
                            name: r.name.clone(),
                            parent: r.parent,
                        },
                    );
                    let args = match r.parent {
                        Some(p) => json!({"span": id, "parent": p}),
                        None => json!({"span": id}),
                    };
                    events.push((
                        ts,
                        json!({
                            "ph": "B", "pid": pid, "tid": r.tid, "ts": ts,
                            "name": r.name, "args": args,
                        }),
                    ));
                }
                "span_end" => {
                    events.push((
                        ts,
                        json!({
                            "ph": "E", "pid": pid, "tid": r.tid, "ts": ts,
                            "name": r.name,
                        }),
                    ));
                }
                "instant" => {
                    events.push((
                        ts,
                        json!({
                            "ph": "i", "pid": pid, "tid": r.tid, "ts": ts,
                            "name": r.name, "s": "t",
                            "args": r.fields.clone().unwrap_or(Value::Null),
                        }),
                    ));
                }
                // Metric updates are registry concerns; the trace view
                // skips them to stay readable.
                _ => {}
            }
        }
    }

    // Flow arrows for cross-process parent edges, and the nesting check:
    // walk each worker_task's parent chain to an `iteration` span.
    let mut flows: Vec<(i64, Value)> = Vec::new();
    for info in spans.values() {
        let Some(parent) = info.parent else { continue };
        if let Some(p) = spans.get(&parent) {
            if p.pid != info.pid {
                stats.cross_process_links += 1;
                let link = json!({
                    "ph": "s", "pid": p.pid, "tid": p.tid, "ts": info.ts,
                    "id": parent, "name": "dispatch", "cat": "cluster",
                });
                let fin = json!({
                    "ph": "f", "bp": "e", "pid": info.pid, "tid": info.tid,
                    "ts": info.ts, "id": parent, "name": "dispatch",
                    "cat": "cluster",
                });
                flows.push((info.ts, link));
                flows.push((info.ts, fin));
            }
        }
        if info.name == "worker_task" {
            let mut at = Some(parent);
            let mut hops = 0;
            while let Some(id) = at {
                let Some(p) = spans.get(&id) else { break };
                if p.name == "iteration" {
                    stats.nested_under_iteration += 1;
                    break;
                }
                at = p.parent;
                hops += 1;
                if hops > 64 {
                    break; // defensive: a cycle would otherwise spin
                }
            }
        }
    }
    events.extend(flows);
    events.sort_by_key(|(ts, _)| *ts);
    let trace_events: Vec<Value> = events.into_iter().map(|(_, v)| v).collect();
    let doc = json!({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    });
    Ok(Stitched {
        chrome_json: serde_json::to_string(&doc).map_err(|e| e.to_string())?,
        stats,
    })
}

/// Read, parse and stitch JSONL files from disk.
///
/// # Errors
///
/// Fails when a file cannot be read or no file was given.
pub fn stitch_files(paths: &[std::path::PathBuf]) -> Result<Stitched, String> {
    let mut streams = Vec::with_capacity(paths.len());
    for p in paths {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let label = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        streams.push(parse_stream(label, &text));
    }
    stitch(&streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord_stream() -> ProcessStream {
        // iteration span 5 open from ts 100 to 900.
        let text = r#"
{"ts_us":100,"tid":1,"level":"debug","name":"iteration","ev":"span_begin","span":5}
{"ts_us":900,"tid":1,"level":"debug","name":"iteration","ev":"span_end","span":5}
"#;
        parse_stream("coord", text)
    }

    fn worker_stream() -> ProcessStream {
        // Worker clock runs 1000 µs behind the coordinator: offset +1000.
        // worker_task (id from the namespaced range) parented under the
        // coordinator's span 5; a shard span nests under it locally.
        let text = r#"
{"ts_us":50,"tid":1,"level":"info","name":"cluster.clock_sync","ev":"instant","fields":{"worker":3,"offset_us":1000,"rtt_us":40}}
not json — torn final line simulation
{"ts_us":-800,"tid":1,"level":"debug","name":"worker_task","ev":"span_begin","span":3298534883328,"parent":5}
{"ts_us":-790,"tid":1,"level":"debug","name":"shard_forward","ev":"span_begin","span":3298534883329,"parent":3298534883328}
{"ts_us":-700,"tid":1,"level":"debug","name":"shard_forward","ev":"span_end","span":3298534883329}
{"ts_us":-600,"tid":1,"level":"debug","name":"worker_task","ev":"span_end","span":3298534883328}
"#;
        parse_stream("worker3", text)
    }

    #[test]
    fn stitches_worker_spans_under_coordinator_iterations() {
        // Worker listed first: coordinator detection must reorder.
        let out = stitch(&[worker_stream(), coord_stream()]).unwrap();
        assert_eq!(out.stats.processes, 2);
        assert_eq!(out.stats.spans, 3);
        assert_eq!(out.stats.worker_tasks, 1);
        assert_eq!(out.stats.nested_under_iteration, 1);
        assert_eq!(out.stats.cross_process_links, 1);
        assert_eq!(out.stats.dropped_lines, 1);
        // Clock shift applied: worker_task begin at -800 + 1000 = 200,
        // inside the coordinator's [100, 900] iteration window.
        let doc: Value = serde_json::from_str(&out.chrome_json).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        let task_begin = evs
            .iter()
            .find(|e| e["ph"] == "B" && e["name"] == "worker_task")
            .unwrap();
        assert_eq!(task_begin["ts"], 200);
        assert_eq!(task_begin["pid"], 2, "worker stream must not be pid 1");
        assert_eq!(task_begin["args"]["parent"], 5);
        // Flow arrow endpoints exist on both pids.
        assert!(evs.iter().any(|e| e["ph"] == "s" && e["pid"] == 1));
        assert!(evs.iter().any(|e| e["ph"] == "f" && e["pid"] == 2));
        // Process names rendered.
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "coord"));
    }

    #[test]
    fn lone_stream_and_empty_inputs() {
        assert!(stitch(&[]).is_err());
        let out = stitch(&[coord_stream()]).unwrap();
        assert_eq!(out.stats.processes, 1);
        assert_eq!(out.stats.spans, 1);
        assert_eq!(out.stats.cross_process_links, 0);
    }

    #[test]
    fn unsynced_worker_gets_zero_offset() {
        let text = r#"
{"ts_us":10,"tid":2,"level":"debug","name":"worker_task","ev":"span_begin","span":99,"parent":5}
{"ts_us":20,"tid":2,"level":"debug","name":"worker_task","ev":"span_end","span":99}
"#;
        let out = stitch(&[coord_stream(), parse_stream("w", text)]).unwrap();
        let doc: Value = serde_json::from_str(&out.chrome_json).unwrap();
        let begin = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["ph"] == "B" && e["name"] == "worker_task")
            .cloned()
            .unwrap();
        assert_eq!(begin["ts"], 10);
        assert_eq!(out.stats.nested_under_iteration, 1);
    }
}
