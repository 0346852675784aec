//! The structured-event stream must agree with the runner's own
//! accounting: `skip_decision` events are the trace-side view of the same
//! per-timestep decisions `BatchStats` tallies, so the two must match
//! exactly — per batch and in aggregate.
//!
//! Cargo runs tests in parallel threads that share the process-global
//! collector, so every assertion filters the ring buffer down to events
//! emitted by this thread (`snapshot_current_thread`).

use skipper_core::{Method, TrainSession};
use skipper_obs as obs;
use skipper_snn::{custom_net, Adam, ModelConfig};
use skipper_tensor::{Tensor, XorShiftRng};

fn inputs(t: usize, batch: usize) -> Vec<Tensor> {
    let mut rng = XorShiftRng::new(11);
    (0..t)
        .map(|_| Tensor::rand([batch, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect()
}

fn session(method: Method, t: usize) -> TrainSession {
    let net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });
    TrainSession::builder(net, method, t)
        .optimizer(Box::new(Adam::new(1e-3)))
        .workers(1)
        .build()
        .expect("valid method")
}

fn skip_field(e: &obs::Event) -> Option<bool> {
    e.fields.iter().find_map(|(k, v)| match (k, v) {
        (&"skip", obs::FieldValue::Bool(b)) => Some(*b),
        _ => None,
    })
}

#[test]
fn skip_decision_events_match_batch_stats() {
    let (ring, handle) = obs::RingBufferSink::new(1 << 14);
    let id = obs::add_sink(Box::new(ring));

    let t = 12usize;
    let mut s = session(
        Method::Skipper {
            checkpoints: 2, // 6-step segments: Eq. 7 admits p = 50
            percentile: 50.0,
        },
        t,
    );
    let inputs = inputs(t, 4);
    let labels = [0usize, 1, 2, 3];

    for _ in 0..3 {
        handle.clear();
        let stats = s.train_batch(&inputs, &labels);
        let events = handle.snapshot_current_thread();

        let decisions: Vec<_> = events
            .iter()
            .filter(|e| e.name == "skip_decision")
            .collect();
        assert_eq!(
            decisions.len(),
            t,
            "one skip_decision event per timestep per batch"
        );
        let skipped = decisions
            .iter()
            .filter(|e| skip_field(e) == Some(true))
            .count();
        let recomputed = decisions
            .iter()
            .filter(|e| skip_field(e) == Some(false))
            .count();
        assert_eq!(skipped, stats.skipped_steps, "skip=true vs BatchStats");
        assert_eq!(
            recomputed, stats.recomputed_steps,
            "skip=false vs BatchStats"
        );
        assert_eq!(skipped + recomputed, t, "recomputed + skipped = T");
    }

    obs::remove_sink(id);
}

#[test]
fn recompute_spans_cover_every_segment() {
    let (ring, handle) = obs::RingBufferSink::new(1 << 14);
    let id = obs::add_sink(Box::new(ring));

    let (t, c) = (10usize, 2usize);
    let mut s = session(
        Method::Skipper {
            checkpoints: c,
            // Just under the Eq. 7 cap for 5-step segments (the cap itself,
            // 100·(1 − 3/5), rounds below 40 in f32).
            percentile: 39.0,
        },
        t,
    );
    let stats = s.train_batch(&inputs(t, 2), &[1, 2]);
    let events = handle.snapshot_current_thread();
    obs::remove_sink(id);

    let seg_begins = events
        .iter()
        .filter(|e| {
            e.name == "recompute_segment" && matches!(e.kind, obs::EventKind::SpanBegin { .. })
        })
        .count();
    assert_eq!(seg_begins, c, "one recompute span per checkpoint segment");

    // The trace's counters must also agree with BatchStats.
    let counted: f64 = events
        .iter()
        .filter(|e| e.name == "skipper.steps_skipped")
        .map(|e| match e.kind {
            obs::EventKind::Counter { delta } => delta,
            _ => 0.0,
        })
        .sum();
    assert_eq!(counted as usize, stats.skipped_steps);
}

/// Begin events named `name`, as `(id, parent, tid)` triples.
fn span_begins(events: &[obs::Event], name: &str) -> Vec<(u64, Option<u64>, u64)> {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match e.kind {
            obs::EventKind::SpanBegin { id, parent } => Some((id, parent, e.tid)),
            _ => None,
        })
        .collect()
}

#[test]
fn worker_spans_nest_under_iteration_and_cover_all_pool_threads() {
    let (ring, handle) = obs::RingBufferSink::new(1 << 16);
    let id = obs::add_sink(Box::new(ring));

    let workers = 4usize;
    let t = 12usize;
    let net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });
    let mut s = TrainSession::builder(
        net,
        Method::Skipper {
            checkpoints: 2,
            percentile: 50.0,
        },
        t,
    )
    .optimizer(Box::new(Adam::new(1e-3)))
    .workers(workers)
    .build()
    .expect("valid method");

    // Batch 8 -> the canonical 8-shard plan, so all 4 workers get jobs in
    // both dispatch phases.
    handle.clear();
    let _ = s.train_batch(&inputs(t, 8), &[0, 1, 2, 3, 4, 5, 6, 7]);
    let events = handle.snapshot();
    obs::remove_sink(id);

    // Our iteration span: parallel tests share the collector, so identify
    // it by this thread's tid (handle.clear() ran just before the batch).
    let my_tid = obs::current_tid();
    let iterations: Vec<_> = span_begins(&events, "iteration")
        .into_iter()
        .filter(|&(_, _, tid)| tid == my_tid)
        .collect();
    assert_eq!(iterations.len(), 1, "exactly one iteration on this thread");
    let iteration_id = iterations[0].0;

    // Every worker task this iteration dispatched nests under it — the
    // cross-thread span-context carrier at work.
    let tasks: Vec<_> = span_begins(&events, "worker_task")
        .into_iter()
        .filter(|&(_, parent, _)| parent == Some(iteration_id))
        .collect();
    assert_eq!(
        tasks.len(),
        2 * workers,
        "phase A + phase B task per worker, all parented under iteration"
    );
    let mut task_tids: Vec<u64> = tasks.iter().map(|&(_, _, tid)| tid).collect();
    task_tids.sort_unstable();
    task_tids.dedup();
    assert_eq!(task_tids.len(), workers, "one distinct tid per pool thread");
    assert!(
        !task_tids.contains(&my_tid),
        "pool threads are not the session thread"
    );

    // Per-shard spans nest under their worker task, transitively under the
    // iteration.
    let task_ids: Vec<u64> = tasks.iter().map(|&(id, ..)| id).collect();
    for name in ["shard_forward", "shard_backward"] {
        let shards: Vec<_> = span_begins(&events, name)
            .into_iter()
            .filter(|(_, parent, _)| parent.is_some_and(|p| task_ids.contains(&p)))
            .collect();
        assert_eq!(shards.len(), 8, "{name}: one span per shard of the plan");
    }

    // Shard `i` runs on pool thread `i % n` in both rounds: round 2 consumes
    // the carry round 1 parked on that thread.
    let u64_field = |e: &obs::Event, key: &str| {
        e.fields.iter().find_map(|(k, v)| match v {
            obs::FieldValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    let begun = |e: &&obs::Event| matches!(e.kind, obs::EventKind::SpanBegin { .. });
    let worker_of_tid: std::collections::BTreeMap<u64, u64> = events
        .iter()
        .filter(begun)
        .filter(|e| e.name == "worker_task" && task_tids.contains(&e.tid))
        .map(|e| (e.tid, u64_field(e, "worker").expect("worker field")))
        .collect();
    for name in ["shard_forward", "shard_backward"] {
        for e in events.iter().filter(begun).filter(|e| e.name == name) {
            let Some(worker) = worker_of_tid.get(&e.tid) else {
                continue; // another test's pool
            };
            let shard = u64_field(e, "shard").expect("shard field");
            assert_eq!(shard % workers as u64, *worker, "{name} of shard {shard}");
        }
    }

    // The ring can enumerate every pool thread's stream, not just the
    // caller's.
    let all_tids = handle.tids();
    for tid in &task_tids {
        assert!(all_tids.contains(tid), "tids() lists pool thread {tid}");
        let thread_events = handle.snapshot_thread(*tid);
        assert!(
            thread_events
                .iter()
                .any(|e| e.name == "worker_task" && e.tid == *tid),
            "snapshot_thread({tid}) sees that worker's events"
        );
    }

    // The engine also published pool gauges while the sink was live.
    let metrics = obs::registry().snapshot();
    assert!(
        metrics
            .gauges
            .iter()
            .any(|(k, _)| k.starts_with("engine.queue_depth")),
        "queue-depth gauge present"
    );
    assert!(
        (0..workers).all(|w| {
            metrics
                .gauges
                .iter()
                .any(|(k, _)| k == &obs::labeled("engine.worker_utilization", "worker", w))
        }),
        "utilization gauge per worker"
    );
    assert!(
        metrics
            .histograms
            .iter()
            .any(|(k, _)| k.starts_with("engine.shard_wall_us")),
        "per-shard wall histogram present"
    );
}

#[test]
fn chrome_trace_of_pooled_run_parses_and_balances() {
    let dir = std::env::temp_dir().join(format!("skipper_obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pooled.trace.json");
    // Sinks are process-global, so the ring (and the trace file written
    // from it) also captures any concurrently running test's pool.
    let (ring, handle) = obs::RingBufferSink::new(1 << 16);
    let ring_id = obs::add_sink(Box::new(ring));

    let t = 10usize;
    let net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });
    let mut s = TrainSession::builder(net, Method::Checkpointed { checkpoints: 2 }, t)
        .optimizer(Box::new(Adam::new(1e-3)))
        .workers(3)
        .build()
        .expect("valid method");
    handle.clear();
    let _ = s.train_batch(&inputs(t, 6), &[0, 1, 2, 3, 4, 5]);

    // `train_batch` returns once the results arrive, which can be before
    // the workers close their `worker_task` spans — dropping the session
    // joins the pool, so every span end is recorded before the snapshot.
    drop(s);

    let my_tid = obs::current_tid();
    let events = handle.snapshot();
    let my_iteration = span_begins(&events, "iteration")
        .into_iter()
        .find(|&(_, _, tid)| tid == my_tid)
        .expect("this test's iteration span")
        .0;
    let my_worker_tids: std::collections::BTreeSet<u64> = span_begins(&events, "worker_task")
        .into_iter()
        .filter(|&(_, parent, _)| parent == Some(my_iteration))
        .map(|(_, _, tid)| tid)
        .collect();

    obs::remove_sink(ring_id);
    obs::write_chrome_trace(&events, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let trace_events = value
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");

    // This test's pool threads are joined and exclusively ours, so their
    // B/E streams must balance exactly.
    let field = |e: &serde_json::Value, k: &str| e.as_object().and_then(|o| o.get(k).cloned());
    let event_str =
        |e: &serde_json::Value, k: &str| field(e, k).and_then(|v| v.as_str().map(String::from));
    let worker_tids: std::collections::BTreeSet<u64> = trace_events
        .iter()
        .filter(|e| event_str(e, "name").as_deref() == Some("worker_task"))
        .filter_map(|e| field(e, "tid").and_then(|v| v.as_u64()))
        .filter(|tid| my_worker_tids.contains(tid))
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "worker spans carry distinct tids: {worker_tids:?}"
    );
    for tid in &worker_tids {
        let (mut begins, mut ends) = (0usize, 0usize);
        for e in trace_events {
            if field(e, "tid").and_then(|v| v.as_u64()) != Some(*tid) {
                continue;
            }
            match event_str(e, "ph").as_deref() {
                Some("B") => begins += 1,
                Some("E") => ends += 1,
                _ => {}
            }
        }
        assert!(begins > 0, "tid {tid} traced at least one span");
        assert_eq!(begins, ends, "B/E balance on worker tid {tid}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_method_skips_nothing() {
    let (ring, handle) = obs::RingBufferSink::new(1 << 14);
    let id = obs::add_sink(Box::new(ring));

    let t = 8usize;
    let mut s = session(Method::Checkpointed { checkpoints: 2 }, t);
    let stats = s.train_batch(&inputs(t, 2), &[0, 1]);
    let events = handle.snapshot_current_thread();
    obs::remove_sink(id);

    assert_eq!(stats.skipped_steps, 0);
    let skipped_events = events
        .iter()
        .filter(|e| e.name == "skip_decision" && skip_field(e) == Some(true))
        .count();
    assert_eq!(skipped_events, 0, "plain checkpointing never skips");
}
