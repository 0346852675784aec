//! The serving segment: closed-loop clients against the workload's
//! gateway, one new connection per request, every answer checked against a
//! direct prediction of the same sample.

use crate::train::ms;
use crate::workload::{bernoulli, Bodies, Rig, Workload, HW, TENANT};
use skipper_serve::{PredictRequest, PredictResponse};
use skipper_tensor::{Tensor, XorShiftRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Closed-loop client threads. Twice the gateway's `max_batch`: while one
/// batch runs the next one is already queued, so every batch is full.
/// With as many clients as batch slots, whether the second request makes
/// the first one's coalescing window is a race, batches of one and two
/// alternate by chance, and throughput differs by 10 % from run to run.
pub const CLIENTS: usize = 4;
/// Pre-built request bodies per client.
const BODIES_PER_CLIENT: usize = 4;

/// One pre-built request and the logits a direct prediction gives for it.
/// The sample's tensors are not kept: they would sit in the memory
/// tracker's live bytes and so in every `*_peak_bytes`.
pub struct Body {
    pub json: String,
    pub reference: Vec<f32>,
}

/// Build every client's request bodies from `seed`.
pub fn build_bodies(w: &Workload, rig: &Rig, seed: u64) -> Vec<Body> {
    let mut rng = XorShiftRng::new(seed ^ 0xB0D1E5);
    let shape = vec![w.channels(), HW, HW];
    let samples = rig.data.spread(CLIENTS * BODIES_PER_CLIENT);
    samples
        .iter()
        .enumerate()
        .map(|(i, &sample)| {
            let steps: Vec<Tensor> = match w.bodies {
                Bodies::Dataset => rig.data.spikes(&[sample], w.timesteps, &mut rng).0,
                Bodies::Alternating(densities) => (0..w.timesteps)
                    .map(|_| bernoulli(&[1, w.channels(), HW, HW], densities[i % 2], &mut rng))
                    .collect(),
            };
            let request = PredictRequest {
                tenant: TENANT.to_string(),
                timesteps: w.timesteps,
                shape: shape.clone(),
                inputs: steps
                    .iter()
                    .flat_map(|t| t.data().iter().copied())
                    .collect(),
                deadline_ms: None,
            };
            let reference = rig
                .infer
                .predict(&steps)
                .expect("request sample is well-formed")
                .logits
                .data()
                .to_vec();
            Body {
                json: serde_json::to_string(&request).expect("request serialises"),
                reference,
            }
        })
        .collect()
}

fn exchange(addr: SocketAddr, request: &[u8]) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// `POST path` on a new connection; `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    exchange(addr, &[head.as_bytes(), body.as_bytes()].concat())
}

/// `GET path` on a new connection; `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
    )
}

#[derive(Debug, Default)]
pub struct ServeResult {
    /// Latency of every 200, ms.
    pub latency_ms: Vec<f64>,
    pub sent: u64,
    /// Non-200 or unparsable answers.
    pub failed: u64,
    /// 200s whose logits differ from the direct prediction.
    pub mismatched: u64,
    /// Wall time spent serving.
    pub wall_s: f64,
    /// 200s per second of each slice.
    pub slice_req_per_s: Vec<f64>,
}

impl ServeResult {
    /// Add another client's, or another slice's, results to these.
    pub fn absorb(&mut self, other: ServeResult) {
        self.latency_ms.extend(other.latency_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.wall_s += other.wall_s;
        self.slice_req_per_s.extend(other.slice_req_per_s);
    }
}

fn client(addr: SocketAddr, bodies: &[Body], deadline: Instant) -> ServeResult {
    let mut out = ServeResult::default();
    for body in bodies.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        out.sent += 1;
        let t = Instant::now();
        let answer = post(addr, "/v1/predict", &body.json);
        let latency = ms(t.elapsed());
        let parsed = match answer {
            Ok((200, text)) => serde_json::from_str::<PredictResponse>(&text).ok(),
            _ => None,
        };
        match parsed {
            Some(response) => {
                out.latency_ms.push(latency);
                let same = response.logits.len() == body.reference.len()
                    && response
                        .logits
                        .iter()
                        .zip(&body.reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    out.mismatched += 1;
                }
            }
            None => out.failed += 1,
        }
    }
    out
}

/// Run one slice: [`CLIENTS`] closed-loop clients for `budget`, each
/// sending its next request when the previous one is answered.
pub fn run_clients(addr: SocketAddr, bodies: &[Body], budget: Duration) -> ServeResult {
    let start = Instant::now();
    let deadline = start + budget;
    let per_client: Vec<ServeResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .chunks(BODIES_PER_CLIENT)
            .map(|mine| scope.spawn(move || client(addr, mine, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = ServeResult::default();
    for c in per_client {
        out.absorb(c);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.slice_req_per_s = vec![out.latency_ms.len() as f64 / out.wall_s];
    out
}
