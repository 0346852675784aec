//! The gateway's threads, counted from `/proc/self/task` over its whole
//! life: bind, a flood of four times as many concurrent connections as
//! there are handler threads, slow clients that send one head byte per
//! 100 ms until the read deadline cuts them off, a hot reload, and
//! shutdown. The count never exceeds what the gateway starts (the batcher,
//! the SLO engine and the HTTP handler set) over what the process ran
//! before, and it is back where it started after the drop.
//!
//! The file holds one test, so its process runs no other test's threads,
//! and every client is a socket driven from the test's own thread.

use skipper_core::InferSession;
use skipper_obs::router::HANDLER_THREADS;
use skipper_serve::{
    Gateway, GatewayConfig, ModelPool, PredictRequest, PredictResponse, SloConfig, TenantConfig,
};
use skipper_snn::{custom_net, save_params, ModelConfig, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: usize = 2;
const SHAPE: [usize; 3] = [3, 8, 8];
/// The batcher and the SLO engine.
const GATEWAY_THREADS: usize = 2;

fn net(seed: u64) -> SpikingNetwork {
    custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed,
        ..ModelConfig::default()
    })
}

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A spike train and the request that carries it.
fn request(seed: u64) -> (Vec<Tensor>, Vec<u8>) {
    let mut rng = XorShiftRng::new(seed);
    let dims = [1, SHAPE[0], SHAPE[1], SHAPE[2]];
    let steps: Vec<Tensor> = (0..T)
        .map(|_| Tensor::rand(dims, &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let body = serde_json::to_string(&PredictRequest {
        tenant: "acme".to_string(),
        timesteps: T,
        shape: SHAPE.to_vec(),
        inputs: steps.iter().flat_map(|s| s.data().to_vec()).collect(),
        deadline_ms: None,
    })
    .unwrap();
    let raw = format!(
        "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    (steps, raw.into_bytes())
}

/// The logits of a 200 answer read from `stream` to its end.
fn logits(stream: &mut TcpStream) -> Vec<f32> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "got: {raw}");
    let (_, body) = raw.split_once("\r\n\r\n").unwrap();
    serde_json::from_str::<PredictResponse>(body)
        .unwrap()
        .logits
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

#[test]
fn the_gateway_runs_on_a_fixed_thread_set_from_bind_to_drop() {
    let dir = std::env::temp_dir().join(format!("skipper-thread-bound-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.skw");
    save_params(net(0).params(), &path).unwrap();

    let before = tasks();
    let bound = before + GATEWAY_THREADS + HANDLER_THREADS;
    let mut peak = before;
    let mut count = |when: &str| {
        let now = tasks();
        assert!(now <= bound, "{when}: {now} threads, bound {bound}");
        peak = peak.max(now);
    };
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1e6, 1e6)],
        max_delay: Duration::from_millis(2),
        deadline: Duration::from_secs(30),
        reload_poll: Duration::from_millis(20),
        slo: Some(SloConfig {
            eval_period: Duration::from_millis(20),
            ..SloConfig::default()
        }),
        ..GatewayConfig::default()
    };
    let pool = ModelPool::watching(Box::new(|| net(0)), &path).unwrap();
    let router = Arc::new(skipper_obs::Router::new());
    let mut gateway = Gateway::start(cfg, pool, router).unwrap();
    let addr = gateway.bind("127.0.0.1:0").unwrap();
    count("after bind");

    // The flood: every request is sent before any answer is read, so the
    // connections beyond the handler set wait in the listen backlog.
    let reference = InferSession::new(net(0));
    let mut flood: Vec<(Vec<Tensor>, TcpStream)> = (0..4 * HANDLER_THREADS as u64)
        .map(|seed| {
            let (steps, raw) = request(seed);
            let mut stream = connect(addr);
            stream.write_all(&raw).unwrap();
            (steps, stream)
        })
        .collect();
    count("flood sent");
    for (steps, stream) in &mut flood {
        let want = reference.predict(steps).unwrap().logits.data().to_vec();
        assert!(same_bits(&logits(stream), &want), "a flooded row changed");
        count("flood answered");
    }

    // Slow clients take every handler; a request behind them waits in the
    // backlog until the read deadline frees their handlers.
    let mut slow: Vec<TcpStream> = (0..HANDLER_THREADS).map(|_| connect(addr)).collect();
    let (steps, raw) = request(99);
    let mut waiting = connect(addr);
    waiting.write_all(&raw).unwrap();
    waiting
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let started = Instant::now();
    let head = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n";
    let mut answer = Vec::new();
    let mut sent = 0;
    let answered = loop {
        for stream in &mut slow {
            // The server closes a client it cut off; later bytes may fail.
            let _ = stream.write_all(&head[sent % head.len()..][..1]);
        }
        sent += 1;
        count("slow clients");
        match waiting.read_to_end(&mut answer) {
            Ok(_) => break started.elapsed(),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("the waiting request failed: {e}"),
        }
        assert!(started.elapsed() < Duration::from_secs(15), "never served");
    };
    assert!(
        answered >= Duration::from_millis(4500),
        "the waiting request was served after {answered:?}, while the slow clients held every handler"
    );
    for stream in &mut slow {
        // Each slow client was cut off without an answer.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        let cut = stream.read_to_end(&mut rest);
        assert!(cut.is_err() || rest.is_empty(), "{cut:?} {rest:?}");
    }
    let answer = String::from_utf8(answer).unwrap();
    let (_, body) = answer.split_once("\r\n\r\n").unwrap();
    let served = serde_json::from_str::<PredictResponse>(body)
        .unwrap()
        .logits;
    let want = reference.predict(&steps).unwrap().logits.data().to_vec();
    assert!(same_bits(&served, &want), "{answer}");

    // A hot reload runs on the batcher: no thread comes or goes.
    std::thread::sleep(Duration::from_millis(20));
    save_params(net(1).params(), &path).unwrap();
    let waited = Instant::now();
    while gateway.pool().reloads() == 0 {
        count("reload");
        assert!(waited.elapsed() < Duration::from_secs(10), "never reloaded");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (steps, raw) = request(7);
    let mut stream = connect(addr);
    stream.write_all(&raw).unwrap();
    let want = InferSession::new(net(1)).predict(&steps).unwrap();
    assert!(same_bits(&logits(&mut stream), want.logits.data()));
    count("after reload");
    assert_eq!(peak, bound, "the handler set did not all start");

    drop(gateway);
    let dropped = Instant::now();
    while tasks() != before {
        assert!(
            dropped.elapsed() < Duration::from_secs(2),
            "{} threads outlive the gateway",
            tasks() - before
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
