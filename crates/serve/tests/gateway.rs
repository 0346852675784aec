//! End-to-end gateway behavior over real loopback HTTP: micro-batch
//! coalescing, deadline budgets, per-tenant shedding, queue overflow,
//! and hot reload under live traffic.
//!
//! Every test runs its own gateway on a private router and a fresh
//! loopback port, so they parallelize freely; the obs registry is
//! process-global, so a metric assertion is a lower bound on a
//! before/after delta or a presence check, never an exact count.

use skipper_core::{InferSession, InferSkip};
use skipper_serve::{
    Gateway, GatewayConfig, ModelPool, PredictRequest, PredictResponse, SloConfig, SloStatus,
    TenantConfig, TenantsResponse,
};
use skipper_snn::{custom_net, save_params, ModelConfig, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Client-side encoding: a deterministic flat spike train, timestep-major.
fn encode(seed: u64) -> Vec<f32> {
    let mut rng = XorShiftRng::new(seed);
    let mut out = Vec::with_capacity(T * PER_STEP);
    for _ in 0..T {
        let frame = Tensor::rand([1, 3, 8, 8], &mut rng).map(|x| (x > 0.55) as i32 as f32);
        out.extend_from_slice(frame.data());
    }
    out
}

/// [`encode`] with every odd timestep silenced, so that half of the
/// train lies strictly below any spike-sum threshold taken from the
/// other half.
fn encode_quiet_odd(seed: u64) -> Vec<f32> {
    let mut out = encode(seed);
    for step in out.chunks_exact_mut(PER_STEP).skip(1).step_by(2) {
        step.fill(0.0);
    }
    out
}

fn to_steps(inputs: &[f32]) -> Vec<Tensor> {
    inputs
        .chunks_exact(PER_STEP)
        .map(|s| Tensor::from_vec(s.to_vec(), [1, 3, 8, 8]))
        .collect()
}

fn request_body(tenant: &str, inputs: &[f32], deadline_ms: Option<u64>) -> String {
    serde_json::to_string(&PredictRequest {
        tenant: tenant.to_string(),
        timesteps: T,
        shape: SHAPE.to_vec(),
        inputs: inputs.to_vec(),
        deadline_ms,
    })
    .unwrap()
}

/// Raw HTTP POST; returns (status, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    post_bytes(addr, path, body.as_bytes())
}

/// [`post`] with a body that need not be UTF-8.
fn post_bytes(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(&[head.as_bytes(), body].concat()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    parse_response(&response)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let raw = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    parse_response(&response)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Direct (no gateway) reference prediction for one encoded sample.
fn solo_predict(session: &InferSession, inputs: &[f32]) -> Vec<f32> {
    let steps = to_steps(inputs);
    session.predict(&steps).unwrap().logits.data().to_vec()
}

fn start_gateway(cfg: GatewayConfig, pool: ModelPool) -> (Gateway, SocketAddr) {
    let router = Arc::new(skipper_obs::Router::new());
    let mut gateway = Gateway::start(cfg, pool, router).unwrap();
    let addr = gateway.bind("127.0.0.1:0").unwrap();
    (gateway, addr)
}

/// `GET /slo` until the engine (evaluating every 20 ms) has reported
/// both of its windows.
fn wait_for_slo_windows(addr: SocketAddr) -> SloStatus {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = get(addr, "/slo");
        assert_eq!(status, 200, "body: {body}");
        let slo: SloStatus = serde_json::from_str(&body).expect("/slo body parses");
        if slo.windows.len() == 2 {
            return slo;
        }
        assert!(Instant::now() < deadline, "engine never evaluated: {slo:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(name: &str) -> f64 {
    skipper_obs::registry()
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

#[test]
fn single_request_matches_direct_inference_bit_for_bit() {
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_delay: Duration::from_millis(2),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let inputs = encode(11);
    let (status, body) = post(addr, "/v1/predict", &request_body("acme", &inputs, None));
    assert_eq!(status, 200, "body: {body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.evaluated_steps, T);
    assert_eq!(resp.skipped_steps, 0);
    assert_eq!(resp.batch_size, 1);

    let reference = solo_predict(&InferSession::new(small_net()), &inputs);
    assert_eq!(resp.logits.len(), reference.len());
    for (a, b) in resp.logits.iter().zip(&reference) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "gateway must match direct inference"
        );
    }
    // First maximum wins, matching `argmax_rows` in the core.
    let mut best = 0usize;
    for (i, &v) in reference.iter().enumerate() {
        if v > reference[best] {
            best = i;
        }
    }
    assert_eq!(resp.class, best);
}

#[test]
fn concurrent_requests_coalesce_and_rows_stay_bit_identical() {
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_batch: 4,
        // Generous window: dispatch should trigger on batch-full, not
        // the window, once all four requests are queued.
        max_delay: Duration::from_millis(300),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let samples: Vec<Vec<f32>> = (0..4).map(|i| encode(100 + i as u64)).collect();
    let handles: Vec<_> = samples
        .iter()
        .map(|inputs| {
            let body = request_body("acme", inputs, None);
            std::thread::spawn(move || post(addr, "/v1/predict", &body))
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let reference_session = InferSession::new(small_net());
    let mut max_occupancy = 0;
    for ((status, body), inputs) in responses.iter().zip(&samples) {
        assert_eq!(*status, 200, "body: {body}");
        let resp: PredictResponse = serde_json::from_str(body).unwrap();
        max_occupancy = max_occupancy.max(resp.batch_size);
        // Row independence: riding a shared micro-batch must not change
        // a single bit of this sample's logits.
        let reference = solo_predict(&reference_session, inputs);
        for (a, b) in resp.logits.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert!(
        max_occupancy >= 2,
        "4 concurrent requests inside a 300ms window must share a batch"
    );
}

#[test]
fn deadline_budget_cuts_the_coalescing_window_short() {
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_batch: 64,
        // A pathological window: without the deadline cutoff this lone
        // request would coalesce for 30 s.
        max_delay: Duration::from_secs(30),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let inputs = encode(7);
    let started = Instant::now();
    let (status, body) = post(
        addr,
        "/v1/predict",
        &request_body("acme", &inputs, Some(300)),
    );
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "body: {body}");
    assert!(
        elapsed < Duration::from_secs(5),
        "batching delayed a 300ms-deadline request by {elapsed:?}"
    );
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.batch_size, 1);
}

#[test]
fn tenant_overload_sheds_with_typed_429_and_spares_other_tenants() {
    let sink = skipper_obs::add_sink(Box::new(skipper_obs::NullSink));
    let shed_before = counter("serve.shed{reason=rate_limited}");
    // The sheds that do spend availability budget; other tests of this
    // process cause some, and the registry is shared.
    let involuntary = || -> f64 {
        ["queue_full", "deadline", "shutdown"]
            .iter()
            .map(|reason| counter(&format!("serve.shed{{reason={reason}}}")))
            .sum()
    };
    let involuntary_before = involuntary();
    let cfg = GatewayConfig {
        tenants: vec![
            // Effectively no refill within the test's lifetime.
            TenantConfig::new("tiny", 0.001, 2.0),
            TenantConfig::new("big", 1000.0, 1000.0),
        ],
        max_delay: Duration::from_millis(2),
        slo: Some(SloConfig {
            eval_period: Duration::from_millis(20),
            ..SloConfig::default()
        }),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let inputs = encode(21);
    let mut statuses = Vec::new();
    for _ in 0..6 {
        let (status, body) = post(addr, "/v1/predict", &request_body("tiny", &inputs, None));
        if status != 200 {
            assert_eq!(status, 429, "body: {body}");
            assert!(body.contains("rate_limited"), "body: {body}");
        }
        statuses.push(status);
    }
    assert_eq!(&statuses[..2], &[200, 200], "burst budget admits two");
    assert!(
        statuses[2..].iter().all(|&s| s == 429),
        "drained bucket must shed: {statuses:?}"
    );

    // The other tenant's bucket is untouched by tiny's overload.
    let (status, body) = post(addr, "/v1/predict", &request_body("big", &inputs, None));
    assert_eq!(status, 200, "body: {body}");

    // Unknown tenants are a client error, not a rate limit.
    let (status, body) = post(addr, "/v1/predict", &request_body("nobody", &inputs, None));
    assert_eq!(status, 400, "body: {body}");

    assert!(counter("serve.shed{reason=rate_limited}") >= shed_before + 4.0);

    // A typed 429 is policy, not failure: the SLO engine counts none of
    // the four as a shed, so on its own this traffic burns no budget.
    let slo = wait_for_slo_windows(addr);
    let elsewhere = involuntary() - involuntary_before;
    assert!(slo.windows.iter().all(|w| w.shed <= elsewhere), "{slo:?}");
    assert!(slo.healthy || elsewhere > 0.0, "{slo:?}");
    skipper_obs::remove_sink(sink);
}

#[test]
fn queue_overflow_sheds_with_typed_503() {
    let sink = skipper_obs::add_sink(Box::new(skipper_obs::NullSink));
    let shed_before = counter("serve.shed{reason=queue_full}");
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        // Huge batch + long window: requests pile up in the queue, and
        // the 2-deep queue sheds the rest.
        max_batch: 64,
        max_delay: Duration::from_millis(400),
        queue_cap: 2,
        deadline: Duration::from_secs(5),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let handles: Vec<_> = (0..6)
        .map(|i| {
            let body = request_body("acme", &encode(300 + i as u64), None);
            std::thread::spawn(move || post(addr, "/v1/predict", &body))
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let ok = responses.iter().filter(|(s, _)| *s == 200).count();
    let overloaded = responses
        .iter()
        .filter(|(s, b)| *s == 503 && b.contains("overloaded"))
        .count();
    assert_eq!(
        ok, 2,
        "queue capacity bounds the served requests: {responses:?}"
    );
    assert_eq!(overloaded, 4, "the rest shed as overloaded: {responses:?}");
    assert!(counter("serve.shed{reason=queue_full}") >= shed_before + 4.0);
    skipper_obs::remove_sink(sink);
}

#[test]
fn hot_reload_swaps_weights_mid_traffic_without_failing_requests() {
    let dir = std::env::temp_dir().join(format!(
        "skipper-serve-reload-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.skw");
    save_params(small_net().params(), &path).unwrap();

    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 10_000.0, 10_000.0)],
        max_delay: Duration::from_millis(2),
        reload_poll: Duration::from_millis(30),
        ..GatewayConfig::default()
    };
    let pool = ModelPool::watching(Box::new(small_net), &path).unwrap();
    let (gateway, addr) = start_gateway(cfg, pool);

    // Continuous traffic while the weights change underneath.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let inputs = encode(400 + c as u64);
                let mut served = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, body) =
                        post(addr, "/v1/predict", &request_body("acme", &inputs, None));
                    assert_eq!(status, 200, "in-flight request failed mid-reload: {body}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Train a clearly different model and overwrite the watched file.
    let mut trainer =
        skipper_core::TrainSession::builder(small_net(), skipper_core::Method::Bptt, T)
            .optimizer(Box::new(skipper_snn::Adam::new(0.05)))
            .workers(1)
            .build()
            .unwrap();
    let train_inputs = to_steps(&encode(5));
    for _ in 0..3 {
        trainer.train_batch(&train_inputs, &[3]);
    }
    std::thread::sleep(Duration::from_millis(25));
    save_params(trainer.net().params(), &path).unwrap();

    // Wait for the pool to pick it up while traffic keeps flowing.
    let waited = Instant::now();
    while gateway.pool().reloads() == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "reload never happened"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for c in clients {
        assert!(c.join().unwrap() > 0, "client never got a response");
    }

    // Post-reload predictions match a fresh session on the new weights.
    let inputs = encode(77);
    let (status, body) = post(addr, "/v1/predict", &request_body("acme", &inputs, None));
    assert_eq!(status, 200, "body: {body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    let mut reference_session = InferSession::new(small_net());
    reference_session.load_weights(&path).unwrap();
    let reference = solo_predict(&reference_session, &inputs);
    for (a, b) in resp.logits.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits(), "reloaded weights must serve");
    }
    // And they differ from the boot weights, proving the swap happened.
    let boot = solo_predict(&InferSession::new(small_net()), &inputs);
    assert_ne!(resp.logits, boot, "reload must change the readout");

    drop(gateway);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_endpoint_reports_budgets_and_levels() {
    let cfg = GatewayConfig {
        tenants: vec![
            TenantConfig::new("acme", 100.0, 50.0),
            TenantConfig::new("edge", 2.0, 4.0),
        ],
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let (status, body) = get(addr, "/v1/tenants");
    assert_eq!(status, 200, "body: {body}");
    let parsed: TenantsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(parsed.tenants.len(), 2);
    let acme = parsed.tenants.iter().find(|t| t.name == "acme").unwrap();
    assert_eq!(acme.rate_per_sec, 100.0);
    assert_eq!(acme.burst, 50.0);
    assert!(acme.tokens <= 50.0 && acme.tokens > 0.0);

    // Malformed JSON is a 400 up front, not a queue entry.
    let (status, body) = post(addr, "/v1/predict", "{not json");
    assert_eq!(status, 400, "body: {body}");
}

#[test]
fn hostile_bodies_get_typed_400s_and_the_gateway_keeps_serving() {
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_delay: Duration::from_millis(2),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));
    let inputs = encode(13);
    let good = request_body("acme", &inputs, None);

    // 1 MiB of `[` under an unknown key: decoding it recursively would
    // overflow the connection thread's stack and abort the process.
    let nested = [br#"{"tenant":"acme","pad":"#.as_slice(), &[b'['; 1 << 20]].concat();
    let truncated = good.as_bytes()[..good.len() / 2].to_vec();
    let overflow = format!(
        r#"{{"tenant":"acme","timesteps":{},"shape":[3,8,8],"inputs":[1.0]}}"#,
        usize::MAX
    )
    .into_bytes();
    let mut not_utf8 = good.clone().into_bytes();
    not_utf8[good.find("acme").unwrap() + 3] = 0xff;
    for (what, body) in [
        ("nested", nested),
        ("truncated", truncated),
        ("overflow", overflow),
        ("not UTF-8", not_utf8),
    ] {
        let (status, text) = post_bytes(addr, "/v1/predict", &body);
        assert_eq!(status, 400, "{what}: {text}");
        assert!(text.contains("bad_request"), "{what}: {text}");
    }

    let (status, body) = post(addr, "/v1/predict", &good);
    assert_eq!(status, 200, "body: {body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    let reference = solo_predict(&InferSession::new(small_net()), &inputs);
    assert_eq!(resp.logits.len(), reference.len());
    for (a, b) in resp.logits.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn slo_endpoint_evaluates_and_phases_attribute_request_time() {
    let sink = skipper_obs::add_sink(Box::new(skipper_obs::NullSink));
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("slo", 1000.0, 1000.0)],
        slo: Some(SloConfig {
            eval_period: Duration::from_millis(20),
            ..SloConfig::default()
        }),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));

    let (status, body) = post(addr, "/v1/predict", &request_body("slo", &encode(91), None));
    assert_eq!(status, 200, "body: {body}");

    let slo = wait_for_slo_windows(addr);
    assert_eq!(slo.windows[0].window, "short");
    assert_eq!(slo.windows[1].window, "long");
    assert!(slo.healthy, "one fast request must not breach: {slo:?}");
    assert!(slo.windows.iter().all(|w| w.burn_rate < 1.0), "{slo:?}");

    // Phase attribution: the served request landed one sample in each
    // phase histogram, and each carries a span-id exemplar.
    let snapshot = skipper_obs::registry().snapshot();
    for phase in ["queue_wait", "batch_wait", "execute"] {
        let name = format!("serve.phase_wall_us{{phase={phase}}}");
        let hist = snapshot
            .histograms
            .iter()
            .find(|(k, _)| k == &name)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(hist.count() > 0, "{name} saw no samples");
        assert!(
            hist.exemplars().iter().any(|&id| id != 0),
            "{name} recorded no exemplar"
        );
    }
    skipper_obs::remove_sink(sink);
}

#[test]
fn inference_time_skipping_early_exits_quiet_steps_like_a_direct_session() {
    // Percentile 55, not 50: the nearest-rank threshold over an even
    // quiet/dense split then lands on a dense step, and every quiet step
    // is strictly below it (p50 would land on a quiet step and the strict
    // `<` would skip nothing).
    let skip = InferSkip {
        percentile: 55.0,
        min_steps: 1,
    };
    let sink = skipper_obs::add_sink(Box::new(skipper_obs::NullSink));
    let skipped_before = counter("serve.steps_skipped");
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_delay: Duration::from_millis(2),
        ..GatewayConfig::default()
    };
    let pool = ModelPool::fixed(InferSession::new(small_net()).with_skip(skip));
    let (_gateway, addr) = start_gateway(cfg, pool);

    let inputs = encode_quiet_odd(1);
    let (status, body) = post(addr, "/v1/predict", &request_body("acme", &inputs, None));
    assert_eq!(status, 200, "body: {body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    assert!(resp.skipped_steps > 0, "nothing early-exited: {resp:?}");
    assert_eq!(resp.skipped_steps + resp.evaluated_steps, T);

    let direct = InferSession::new(small_net())
        .with_skip(skip)
        .predict(&to_steps(&inputs))
        .unwrap();
    assert_eq!(resp.skipped_steps, direct.skipped_steps);
    assert!(counter("serve.steps_skipped") >= skipped_before + resp.skipped_steps as f64);
    skipper_obs::remove_sink(sink);
}

#[test]
fn profile_nests_the_forward_pass_under_the_batcher() {
    // A bound metrics server folds every span into `/profile`, weighted
    // by exact self µs: one request is enough.
    let server = skipper_obs::MetricsServer::bind("127.0.0.1:0").unwrap();
    let cfg = GatewayConfig {
        tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
        max_delay: Duration::from_millis(1),
        ..GatewayConfig::default()
    };
    let (_gateway, addr) = start_gateway(cfg, ModelPool::fixed(InferSession::new(small_net())));
    let (status, text) = post(addr, "/v1/predict", &request_body("acme", &encode(1), None));
    assert_eq!(status, 200, "body: {text}");

    // `execute` closes before the batcher answers, so its span is folded.
    let (status, folded) = get(server.addr(), "/profile");
    assert_eq!(status, 200, "body: {folded}");
    let execute_us: u64 = folded
        .lines()
        .filter_map(|line| line.strip_prefix("gateway_batch;execute "))
        .map(|us| us.parse::<u64>().expect("folded weight is µs"))
        .sum();
    assert!(
        execute_us > 0,
        "no execute µs under gateway_batch:\n{folded}"
    );
}
