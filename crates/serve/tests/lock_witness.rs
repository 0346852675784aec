//! Runtime lock witness vs. the static lock-order graph.
//!
//! The `lock_witness` feature (forced on for this crate's tests via the
//! dev-dependency on `skipper-obs`) makes every `named_lock` acquisition
//! taken while other named locks are held record a runtime edge
//! `held -> acquired`. This test drives both of the workspace's busiest
//! concurrent subsystems — a 4-worker training engine and the serving
//! gateway under real loopback HTTP load — and then checks the
//! dynamic/static contract from both sides:
//!
//! * the witness is live: at least one runtime edge was observed, and
//! * the static approximation is sound: every runtime edge is reachable
//!   in the lock-order graph `skipper-lint` derives from source alone.
//!   Nothing happens at runtime that the analysis did not predict.

use skipper_core::{InferSession, Method, TrainSession};
use skipper_obs as obs;
use skipper_serve::{Gateway, GatewayConfig, ModelPool, PredictRequest, TenantConfig};
use skipper_snn::{custom_net, Adam, ModelConfig, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const T: usize = 4;
const SHAPE: [usize; 3] = [3, 8, 8];
const PER_STEP: usize = 3 * 8 * 8;

fn small_net() -> SpikingNetwork {
    custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    })
}

fn encode(seed: u64) -> Vec<f32> {
    let mut rng = XorShiftRng::new(seed);
    let mut out = Vec::with_capacity(T * PER_STEP);
    for _ in 0..T {
        let frame = Tensor::rand([1, 3, 8, 8], &mut rng).map(|x| (x > 0.55) as i32 as f32);
        out.extend_from_slice(frame.data());
    }
    out
}

/// Raw HTTP POST; returns the status code.
fn post(addr: SocketAddr, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Engine side: a short Skipper training run on a 4-worker pool, with a
/// ring sink installed so every span/instant flows through `submit`
/// (nesting `obs.ring` under `obs.sinks`).
fn drive_engine() {
    let mut session = TrainSession::builder(
        small_net(),
        // 6-step segments: Eq. 7 admits p = 50.
        Method::Skipper {
            checkpoints: 2,
            percentile: 50.0,
        },
        12,
    )
    .optimizer(Box::new(Adam::new(1e-3)))
    .workers(4)
    .build()
    .expect("valid method");

    let mut rng = XorShiftRng::new(7);
    let inputs: Vec<Tensor> = (0..12)
        .map(|_| Tensor::rand([4, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let labels = [0usize, 1, 2, 3];
    for _ in 0..2 {
        session.train_batch(&inputs, &labels);
    }
}

/// Gateway side: loopback HTTP predictions through the micro-batcher.
fn drive_gateway() {
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_delay: Duration::from_millis(2),
        ..GatewayConfig::default()
    };
    let router = Arc::new(obs::Router::new());
    let mut gateway = Gateway::start(
        cfg,
        ModelPool::fixed(InferSession::new(small_net())),
        router,
    )
    .expect("threads spawn");
    let addr = gateway.bind("127.0.0.1:0").expect("loopback binds");
    for seed in 0..6u64 {
        let body = serde_json::to_string(&PredictRequest {
            tenant: "acme".to_string(),
            timesteps: T,
            shape: SHAPE.to_vec(),
            inputs: encode(seed),
            deadline_ms: Some(5_000),
        })
        .unwrap();
        assert_eq!(post(addr, "/v1/predict", &body), 200);
    }
}

#[test]
fn runtime_lock_edges_are_a_subset_of_the_static_graph() {
    let (ring, _handle) = obs::RingBufferSink::new(1 << 12);
    let id = obs::add_sink(Box::new(ring));
    drive_engine();
    drive_gateway();
    obs::remove_sink(id);

    let edges = obs::witness_edges();
    assert!(
        !edges.is_empty(),
        "the witness observed no nested named-lock acquisition; \
         either instrumentation stopped submitting events or the \
         lock_witness feature is off for this test build"
    );

    // The static graph, derived from source alone by the same engine
    // that backs `skipper-lint`'s rule C1.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives at <root>/crates/serve");
    let analysis = skipper_lint::workspace_analysis(root).expect("workspace sources readable");
    for (from, to) in &edges {
        assert!(
            analysis.has_path(from, to),
            "runtime edge {from} -> {to} is not reachable in the static \
             lock-order graph: the analysis under-approximates reality \
             (a lock site it cannot see, or a summary that stopped \
             propagating)"
        );
    }

    // The deferred metric publish (kept out of named_lock so the witness
    // never takes the registry lock while witnessing it).
    obs::publish_witness_metrics();
    let snapshot = obs::registry().snapshot();
    let gauge = snapshot
        .gauges
        .iter()
        .find(|(k, _)| k == "obs.lock_witness_edges")
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    assert!(
        gauge >= edges.len() as f64,
        "obs.lock_witness_edges gauge ({gauge}) lags the witnessed edge set ({})",
        edges.len()
    );
}
