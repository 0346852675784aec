//! `/profile` is the exact span fold of a live run: with a metrics server
//! bound, a sharded training iteration folds into stack paths whose self
//! µs, summed over one thread, are the durations of that thread's
//! outermost spans — the session thread's `iteration`, each pool thread's
//! `worker_task`s.
//!
//! The live fold takes every span of the process while a server is bound,
//! so this test has its binary to itself.

use skipper_core::{Method, TrainSession};
use skipper_obs as obs;
use skipper_snn::{custom_net, Adam, ModelConfig};
use skipper_tensor::{Tensor, XorShiftRng};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

/// Per thread, the summed durations of its outermost spans: those whose
/// parent is absent or ran on another thread.
fn outermost_us_by_thread(events: &[obs::Event]) -> BTreeMap<u64, u64> {
    let mut begins: HashMap<u64, (u64, u64, Option<u64>)> = HashMap::new();
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        match event.kind {
            obs::EventKind::SpanBegin { id, parent } => {
                begins.insert(id, (event.tid, event.ts_us, parent));
            }
            obs::EventKind::SpanEnd { id } => {
                let (tid, begin_us, parent) = begins[&id];
                let parent_tid = parent.and_then(|p| begins.get(&p)).map(|b| b.0);
                if parent_tid != Some(tid) {
                    *out.entry(tid).or_default() += event.ts_us - begin_us;
                }
            }
            _ => {}
        }
    }
    out
}

/// `(path, µs)` of every folded line.
fn folded_lines(folded: &str) -> Vec<(String, u64)> {
    folded
        .lines()
        .map(|line| {
            let (path, us) = line.rsplit_once(' ').expect("folded line has a weight");
            (path.to_string(), us.parse().expect("weight is µs"))
        })
        .collect()
}

#[test]
fn profile_of_a_sharded_iteration_is_exact_per_thread() {
    let t = 12usize; // 6-step segments: Eq. 7 admits p = 50
    let mut rng = XorShiftRng::new(5);
    let inputs: Vec<Tensor> = (0..t)
        .map(|_| Tensor::rand([8, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });

    let (ring, handle) = obs::RingBufferSink::new(1 << 20);
    let ring_id = obs::add_sink(Box::new(ring));
    let server = obs::MetricsServer::bind("127.0.0.1:0").unwrap();
    let mut session = TrainSession::builder(
        net,
        Method::Skipper {
            checkpoints: 2,
            percentile: 50.0,
        },
        t,
    )
    .optimizer(Box::new(Adam::new(1e-3)))
    .workers(2)
    .build()
    .expect("valid method");
    session.train_batch(&inputs, &[0, 1, 2, 3, 4, 5, 6, 7]);
    // Dropping the session joins its pool, so every `worker_task` has
    // closed: a worker hands its result back before its span ends.
    drop(session);
    let lines = folded_lines(&http_get(server.addr(), "/profile"));
    drop(server);
    obs::remove_sink(ring_id);
    let events = handle.snapshot();
    assert_eq!(handle.dropped(), 0);

    let session_tid = obs::current_tid();
    let outermost = outermost_us_by_thread(&events);
    let pool_tids: Vec<u64> = outermost
        .keys()
        .copied()
        .filter(|&tid| tid != session_tid)
        .collect();
    assert_eq!(pool_tids.len(), 2, "both pool threads ran shards");
    assert!(
        lines
            .iter()
            .any(|(path, _)| path.starts_with("iteration;worker_task;")),
        "worker spans fold under the adopted iteration: {lines:?}"
    );

    // The session thread's paths are the ones without a `worker_task`.
    let on_pool = |path: &str| path.split(';').any(|frame| frame == "worker_task");
    let session_us: u64 = lines
        .iter()
        .filter(|(path, _)| !on_pool(path))
        .map(|&(_, us)| us)
        .sum();
    assert_eq!(session_us, outermost[&session_tid]);

    // Each pool thread's paths, from the fold of its own events (and the
    // session thread's, which hold the parents it adopted); together they
    // are what `/profile` shows under `worker_task`.
    let mut pool_us = 0;
    for &tid in &pool_tids {
        let mine: Vec<obs::Event> = events
            .iter()
            .filter(|e| e.tid == tid || e.tid == session_tid)
            .cloned()
            .collect();
        let folded = obs::SpanFold::from_events(&mine).folded_text();
        let us: u64 = folded_lines(&folded)
            .iter()
            .filter(|(path, _)| on_pool(path))
            .map(|&(_, us)| us)
            .sum();
        assert_eq!(us, outermost[&tid], "pool thread {tid}");
        pool_us += us;
    }
    let profiled_pool_us: u64 = lines
        .iter()
        .filter(|(path, _)| on_pool(path))
        .map(|&(_, us)| us)
        .sum();
    assert_eq!(profiled_pool_us, pool_us);
}
