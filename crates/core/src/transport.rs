//! Message transport between the cluster coordinator and its workers.
//!
//! The distributed engine (see [`crate::cluster`]) exchanges
//! length-prefixed, CRC32-framed binary messages over TCP: a `Channel`
//! owns one socket, its read buffer, its counters and — when armed — its
//! send-side chaos. There is one link, so every test of a codec path, fault
//! mode or recovery transition binds `127.0.0.1:0` and meets TCP's own
//! failure mode: a truncated frame desynchronises the stream.
//!
//! The arrow points wire → protocol only: a `Message::Work` carries a
//! `shard::Request` and a `ShardResult` a `shard::ResultPayload`;
//! `shard.rs` knows nothing of frames.
//!
//! # Frame format
//!
//! Following the `.skw`/`.sksn` container conventions (little-endian,
//! CRC32/IEEE over the payload):
//!
//! ```text
//! magic  u32   "SKF4"
//! len    u32   payload byte length (≤ 64 MiB)
//! crc    u32   CRC32(payload)
//! payload[len]
//! ```
//!
//! A frame that fails the magic, length-plausibility or CRC check
//! poisons the connection: framing can no longer be trusted, so the
//! receiver reports [`TransportError::Frame`] and the cluster layer
//! tears the link down (the worker reconnects with backoff; the
//! coordinator aborts and retries the in-flight iteration). The wire
//! speaks only to itself — both ends are built from one commit — so there
//! is no mixed-version machinery: a layout change bumps the magic and a
//! peer from before it fails closed on its first frame.
//!
//! # Payload conventions
//!
//! Payloads are written with the `put_*` helpers of
//! [`skipper_snn::serialize`] and read back through its [`WireReader`], the
//! one bounded decoder `.skw` and `.sksn` share: fixed fields are
//! little-endian scalars, sequences a `u32` count then the elements (every
//! count is checked against its cap and the bytes that remain before
//! anything is read), an optional field one presence byte then the value.
//! What already has an exact serde encoding — the per-iteration
//! `shard::WorkCtx` with its method, SAM metric and skip policy, and the
//! `Welcome`'s model spec — crosses as a length-capped JSON document,
//! exactly like `.sksn`'s `meta` section;
//! parameters ride as `.skw` v2 records. A heartbeat histogram is its
//! bucket counts in the one layout every histogram shares
//! ([`skipper_obs::Histogram::BOUNDS`]), then sum, count, min and max; the
//! decoder rebuilds it through `Histogram::from_parts`, so counts of the
//! wrong length or not summing to `count` are a frame error.
//!
//! # Spike-compact tensor encoding
//!
//! Spike tensors are binary almost everywhere (the paper's premise), so
//! a tensor whose every value is bit-exactly `0.0` or `1.0` ships as a
//! bitmask — 1 bit/element instead of 32, the bytes of [`SpikeBits`], the
//! packer checkpoint snapshots use — and falls back to raw little-endian
//! `f32` otherwise. Both encodings are bit-exact round trips.
//!
//! # Chaos injection
//!
//! [`ChaosConfig`] (parsed from the `SKIPPER_CHAOS` environment knob)
//! arms a deterministic, seeded fault step on a channel's *send* side:
//! frame drop, duplication, byte corruption, truncation and delay, plus
//! a worker kill schedule consumed by [`crate::cluster::run_worker`].
//! Every injected fault increments `engine.transport_chaos{kind}`.

use crate::cluster::WireSpec;
use crate::error::SkipperError;
use crate::shard::{Request, ResultPayload, ShardInput, WireGrads};
use serde::{Deserialize, Serialize};
use skipper_obs::Histogram;
use skipper_snn::serialize::{
    crc32, put_bytes, put_f32, put_f64, put_f64s, put_opt, put_seq, put_str, put_u32, put_u64,
    DecodeError, WireReader,
};
use skipper_tensor::{SpikeBits, Tensor, XorShiftRng};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Frame magic: `"SKF4"` little-endian. Bumped with every layout change,
/// so a peer built before it rejects the first frame instead of
/// mis-decoding a CRC-valid one.
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"SKF4");

/// Upper bound on a single frame payload; anything larger is treated as
/// stream desync, not a legitimate message.
const MAX_FRAME: usize = 64 << 20;

/// Frame header bytes: magic + len + crc.
const HEADER: usize = 12;

/// Upper bound on a serde document inside a payload. A real `WorkCtx` or
/// model spec is ~250 bytes; the cap is what bounds the JSON parser's
/// recursion on a hostile one, so it is checked before the parser sees a
/// byte. Measured on the vendored parser at this workspace's
/// `opt-level = 2`: a document of 1024 `[` needs between 256 and 512 KiB
/// of stack, at most a quarter of a spawned thread's 2 MiB; 4096 of them
/// do not fit in 1 MiB.
const MAX_DOC: usize = 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Wire-level failures, classified so the cluster layer can pick the
/// right recovery: retry after [`Timeout`](TransportError::Timeout),
/// reconnect after [`Closed`](TransportError::Closed) or
/// [`Frame`](TransportError::Frame).
#[derive(Debug)]
pub enum TransportError {
    /// No complete frame arrived before the deadline.
    Timeout,
    /// The peer closed the connection (or the channel hung up).
    Closed(String),
    /// Framing is broken: bad magic, implausible length, CRC mismatch or
    /// an undecodable message. The connection must be torn down.
    Frame(String),
    /// An OS-level socket error.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "timed out waiting for a frame"),
            TransportError::Closed(d) => write!(f, "connection closed: {d}"),
            TransportError::Frame(d) => write!(f, "framing error: {d}"),
            TransportError::Io(d) => write!(f, "socket error: {d}"),
        }
    }
}

impl TransportError {
    /// Wrap as a [`SkipperError::Transport`] naming the peer.
    pub fn at(self, peer: &str) -> SkipperError {
        SkipperError::Transport {
            peer: peer.to_string(),
            detail: self.to_string(),
        }
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> TransportError {
        TransportError::Frame(e.0)
    }
}

// ---------------------------------------------------------------------------
// Serde documents
// ---------------------------------------------------------------------------

/// A value with an exact serde encoding, as a length-capped JSON document.
///
/// # Errors
///
/// [`TransportError::Frame`] for a document past [`MAX_DOC`]: the peer
/// would refuse it, so it is refused before it is sent.
fn put_doc<T: Serialize>(buf: &mut Vec<u8>, v: &T) -> Result<(), TransportError> {
    let doc = serde_json::to_string(v)
        .map_err(|e| TransportError::Frame(format!("encoding document: {e}")))?;
    if doc.len() > MAX_DOC {
        return Err(TransportError::Frame(format!(
            "document of {} bytes exceeds the {MAX_DOC}-byte cap",
            doc.len()
        )));
    }
    put_str(buf, &doc);
    Ok(())
}

/// A [`put_doc`] document; one past [`MAX_DOC`] is refused before it
/// reaches the JSON parser.
fn read_doc<T: Deserialize>(r: &mut WireReader<'_>) -> Result<T, DecodeError> {
    let doc = r.bytes()?;
    if doc.len() > MAX_DOC {
        return Err(DecodeError(format!(
            "document of {} bytes exceeds the {MAX_DOC}-byte cap",
            doc.len()
        )));
    }
    let text =
        std::str::from_utf8(doc).map_err(|e| DecodeError(format!("document is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| DecodeError(format!("decoding document: {e}")))
}

// ---------------------------------------------------------------------------
// Spike-compact tensor encoding
// ---------------------------------------------------------------------------

/// Encode `t` for the wire: a 1-bit/element bitmask when every value is
/// bit-exactly `0.0` or `1.0` (spike tensors), raw `f32` otherwise.
pub(crate) fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    let dims = t.shape().dims();
    buf.push(dims.len() as u8);
    for &d in dims {
        put_u32(buf, d as u32);
    }
    if let Some(bits) = SpikeBits::pack(t) {
        buf.push(1); // bitmask encoding
        return bits.write_le_bytes(buf);
    }
    buf.push(0); // raw f32 encoding
    for &v in t.data() {
        put_f32(buf, v);
    }
}

/// Decode a [`put_tensor`] payload; bit-exact for both encodings.
pub(crate) fn read_tensor(r: &mut WireReader<'_>) -> Result<Tensor, DecodeError> {
    let rank = r.u8()? as usize;
    if rank > 8 {
        return Err(DecodeError(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u32()? as usize);
    }
    // The dims are the peer's: their product can overflow, so it is
    // checked, and capped before anything is sized by it.
    let numel = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|&n| n <= MAX_FRAME / 4)
        .ok_or_else(|| DecodeError(format!("implausible tensor shape {dims:?}")))?;
    match r.u8()? {
        1 => Ok(SpikeBits::from_le_bytes(r.take(numel.div_ceil(8))?, dims).unpack()),
        0 => Ok(Tensor::from_vec(r.f32s(numel)?, dims)),
        other => Err(DecodeError(format!("unknown tensor encoding {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

fn put_grads(buf: &mut Vec<u8>, grads: &WireGrads) {
    put_seq(buf, grads, |b, slot| {
        put_opt(b, slot, |b, g| put_seq(b, g, |b, v| put_f32(b, *v)))
    });
}

fn read_grads(r: &mut WireReader<'_>) -> Result<WireGrads, DecodeError> {
    r.seq(1 << 20, "gradient slot", |r| {
        r.opt(|r| {
            let n = r.u32()? as usize;
            r.f32s(n)
        })
    })
}

/// Compact metric-registry delta a worker piggybacks on `Heartbeat`:
/// counter increments, current gauge values, and histogram bucket deltas
/// since the previous heartbeat. The coordinator merges these into its own
/// registry under `worker="<id>"` labels, making `/metrics` cluster-wide.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MetricsDelta {
    pub counters: Vec<(String, f64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsDelta {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Plausibility cap on federated series per heartbeat; a delta this large
/// is a mis-encoded frame, not telemetry.
const MAX_DELTA_SERIES: usize = 1 << 16;

fn put_delta(buf: &mut Vec<u8>, d: &MetricsDelta) {
    let series = |buf: &mut Vec<u8>, (name, v): &(String, f64)| {
        put_str(buf, name);
        put_f64(buf, *v);
    };
    put_seq(buf, &d.counters, series);
    put_seq(buf, &d.gauges, series);
    put_seq(buf, &d.histograms, |buf, (name, h)| {
        put_str(buf, name);
        put_seq(buf, h.counts(), |b, c| put_u64(b, *c));
        put_f64(buf, h.sum());
        put_u64(buf, h.count());
        put_f64(buf, h.min());
        put_f64(buf, h.max());
    });
}

fn read_delta(r: &mut WireReader<'_>) -> Result<MetricsDelta, DecodeError> {
    let series = |r: &mut WireReader<'_>| Ok((r.string()?, r.f64()?));
    Ok(MetricsDelta {
        counters: r.seq(MAX_DELTA_SERIES, "metric-series", series)?,
        gauges: r.seq(MAX_DELTA_SERIES, "metric-series", series)?,
        histograms: r.seq(MAX_DELTA_SERIES, "histogram-series", |r| {
            let name = r.string()?;
            let counts = r.seq(1 << 16, "bucket", WireReader::u64)?;
            let hist = Histogram::from_parts(&counts, r.f64()?, r.u64()?, r.f64()?, r.f64()?)
                .map_err(DecodeError)?;
            Ok((name, hist))
        })?,
    })
}

/// One shard's work for one round. Round-1 requests hold exactly their
/// shard's rows (the coordinator slices before it wraps), so `rows` never
/// crosses; the context is the serde document `.sksn`'s `meta` would hold.
fn put_request(buf: &mut Vec<u8>, request: &Request) -> Result<(), TransportError> {
    match request {
        Request::Single(input) | Request::Forward(input) => {
            debug_assert!(input.rows.is_none(), "a wire request is already sliced");
            buf.push(u8::from(matches!(request, Request::Forward(_))));
            put_doc(buf, &input.ctx)?;
            put_seq(buf, &input.labels, |b, l| put_u32(b, *l as u32));
            put_seq(buf, &input.inputs, put_tensor);
        }
        Request::Backward {
            iteration,
            attempt,
            shard,
            sums,
        } => {
            buf.push(2);
            put_u64(buf, *iteration);
            put_u32(buf, *attempt);
            put_u32(buf, *shard);
            put_f64s(buf, sums);
        }
    }
    Ok(())
}

fn read_request(r: &mut WireReader<'_>) -> Result<Request, DecodeError> {
    let kind = r.u8()?;
    match kind {
        0 | 1 => {
            let input = ShardInput {
                ctx: read_doc(r)?,
                labels: r.seq(1 << 24, "label", |r| Ok(r.u32()? as usize))?,
                inputs: r.seq(1 << 16, "timestep", read_tensor)?,
                rows: None,
            };
            Ok(if kind == 0 {
                Request::Single(input)
            } else {
                Request::Forward(input)
            })
        }
        2 => Ok(Request::Backward {
            iteration: r.u64()?,
            attempt: r.u32()?,
            shard: r.u32()?,
            sums: r.f64s()?,
        }),
        other => Err(DecodeError(format!("unknown request kind {other}"))),
    }
}

/// Every message the coordinator/worker protocol exchanges.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Message {
    /// Worker → coordinator on (re)connect. `ping` is the worker's local
    /// send timestamp (µs on its own clock), echoed back in `Welcome` for
    /// the NTP-style clock-offset estimate.
    Hello {
        worker: u64,
        reconnect: bool,
        ping: u64,
    },
    /// Coordinator → worker: assigned id + model spec. `pong` is
    /// `(t1_echo, t2)`: the worker's `ping` echoed back plus the
    /// coordinator's local receive/send timestamp.
    Welcome {
        worker: u64,
        spec: WireSpec,
        pong: (u64, u64),
    },
    /// Worker → coordinator liveness beacon (sent while idle), carrying
    /// the worker's metric-registry delta for federation when it has one.
    Heartbeat {
        worker: u64,
        iteration: u64,
        metrics: Option<MetricsDelta>,
    },
    /// Coordinator → worker: one shard's request for one round. Round-1
    /// requests bring the iteration's weights (`.skw` v2 records), so a
    /// worker that was away never computes with stale ones; round 2 ships
    /// only the globally aggregated SAM sums. `trace` is the id of the
    /// coordinator's open `iteration` span, which the worker's
    /// `worker_task` span nests under; `None` while it is not tracing.
    Work {
        request: Request,
        params: Option<Vec<u8>>,
        trace: Option<u64>,
    },
    /// Worker → coordinator shard result.
    ShardResult {
        iteration: u64,
        attempt: u32,
        shard: u32,
        payload: ResultPayload,
    },
    /// Worker-side protocol fault the worker can name (e.g. a missing
    /// phase-A carry after a restart). The coordinator aborts the attempt.
    Fault { worker: u64, detail: String },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
}

impl Message {
    /// The message's kind, as `cluster.frame` instants name it.
    fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Welcome { .. } => "Welcome",
            Message::Heartbeat { .. } => "Heartbeat",
            Message::Work { .. } => "Work",
            Message::ShardResult { .. } => "ShardResult",
            Message::Fault { .. } => "Fault",
            Message::Shutdown => "Shutdown",
        }
    }

    /// Encode to a payload (no frame header).
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] when a work context or model spec does
    /// not fit its document cap (see [`put_doc`]).
    pub fn encode(&self) -> Result<Vec<u8>, TransportError> {
        let mut buf = Vec::new();
        match self {
            Message::Hello {
                worker,
                reconnect,
                ping,
            } => {
                buf.push(1);
                put_u64(&mut buf, *worker);
                buf.push(u8::from(*reconnect));
                put_u64(&mut buf, *ping);
            }
            Message::Welcome { worker, spec, pong } => {
                buf.push(2);
                put_u64(&mut buf, *worker);
                put_doc(&mut buf, spec)?;
                put_u64(&mut buf, pong.0);
                put_u64(&mut buf, pong.1);
            }
            Message::Heartbeat {
                worker,
                iteration,
                metrics,
            } => {
                buf.push(3);
                put_u64(&mut buf, *worker);
                put_u64(&mut buf, *iteration);
                put_opt(&mut buf, metrics, put_delta);
            }
            Message::Work {
                request,
                params,
                trace,
            } => {
                buf.push(4);
                put_request(&mut buf, request)?;
                put_opt(&mut buf, params, |b, p| put_bytes(b, p));
                put_opt(&mut buf, trace, |b, t| put_u64(b, *t));
            }
            Message::ShardResult {
                iteration,
                attempt,
                shard,
                payload,
            } => {
                buf.push(5);
                put_u64(&mut buf, *iteration);
                put_u32(&mut buf, *attempt);
                put_u32(&mut buf, *shard);
                match payload {
                    ResultPayload::Forward {
                        sam_sums,
                        per_sample,
                        correct,
                    } => {
                        buf.push(0);
                        put_f64s(&mut buf, sam_sums);
                        put_f64s(&mut buf, per_sample);
                        put_u32(&mut buf, *correct);
                    }
                    ResultPayload::Grads { grads } => {
                        buf.push(1);
                        put_grads(&mut buf, grads);
                    }
                    ResultPayload::Single {
                        loss_groups,
                        correct,
                        sam_sums,
                        recomputed,
                        skipped,
                        grads,
                    } => {
                        buf.push(2);
                        put_seq(&mut buf, loss_groups, |b, g| put_f64s(b, g));
                        put_u32(&mut buf, *correct);
                        put_f64s(&mut buf, sam_sums);
                        put_u32(&mut buf, *recomputed);
                        put_u32(&mut buf, *skipped);
                        put_grads(&mut buf, grads);
                    }
                }
            }
            Message::Fault { worker, detail } => {
                buf.push(6);
                put_u64(&mut buf, *worker);
                put_str(&mut buf, detail);
            }
            Message::Shutdown => buf.push(7),
        }
        Ok(buf)
    }

    /// Decode a payload produced by [`Message::encode`].
    pub fn decode(payload: &[u8]) -> Result<Message, TransportError> {
        Ok(read_message(&mut WireReader::new(payload))?)
    }
}

fn read_message(r: &mut WireReader<'_>) -> Result<Message, DecodeError> {
    let msg = match r.u8()? {
        1 => Message::Hello {
            worker: r.u64()?,
            reconnect: r.u8()? != 0,
            ping: r.u64()?,
        },
        2 => Message::Welcome {
            worker: r.u64()?,
            spec: read_doc(r)?,
            pong: (r.u64()?, r.u64()?),
        },
        3 => Message::Heartbeat {
            worker: r.u64()?,
            iteration: r.u64()?,
            metrics: r.opt(read_delta)?,
        },
        4 => Message::Work {
            request: read_request(r)?,
            params: r.opt(|r| Ok(r.bytes()?.to_vec()))?,
            trace: r.opt(WireReader::u64)?,
        },
        5 => {
            let iteration = r.u64()?;
            let attempt = r.u32()?;
            let shard = r.u32()?;
            let payload = match r.u8()? {
                0 => ResultPayload::Forward {
                    sam_sums: r.f64s()?,
                    per_sample: r.f64s()?,
                    correct: r.u32()?,
                },
                1 => ResultPayload::Grads {
                    grads: read_grads(r)?,
                },
                2 => ResultPayload::Single {
                    loss_groups: r.seq(1 << 16, "loss-group", WireReader::f64s)?,
                    correct: r.u32()?,
                    sam_sums: r.f64s()?,
                    recomputed: r.u32()?,
                    skipped: r.u32()?,
                    grads: read_grads(r)?,
                },
                other => return Err(DecodeError(format!("unknown result payload tag {other}"))),
            };
            Message::ShardResult {
                iteration,
                attempt,
                shard,
                payload,
            }
        }
        6 => Message::Fault {
            worker: r.u64()?,
            detail: r.string()?,
        },
        7 => Message::Shutdown,
        other => return Err(DecodeError(format!("unknown message tag {other}"))),
    };
    r.done()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Build the framed bytes for `payload`.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    put_u32(&mut out, FRAME_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// The one header/CRC check. If `rbuf` starts with a complete frame, pop
/// it and return its verified payload; `Ok(None)` means more bytes are
/// needed. A frame cut short is therefore not an error by itself — the
/// bytes that follow it are read as its tail, and the CRC (or the next
/// magic) reports the desync.
fn pop_frame(rbuf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
    if rbuf.len() < HEADER {
        return Ok(None);
    }
    let mut r = WireReader::new(rbuf);
    let magic = r.u32()?;
    if magic != FRAME_MAGIC {
        return Err(TransportError::Frame(format!(
            "bad magic {magic:#010x} (stream desync)"
        )));
    }
    let len = r.u32()? as usize;
    if len > MAX_FRAME {
        return Err(TransportError::Frame(format!(
            "implausible frame length {len} (stream desync)"
        )));
    }
    let stored = r.u32()?;
    if rbuf.len() < HEADER + len {
        return Ok(None);
    }
    let payload = rbuf[HEADER..HEADER + len].to_vec();
    rbuf.drain(..HEADER + len);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(TransportError::Frame(format!(
            "payload CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------------

/// Deterministic fault plan, usually parsed from the `SKIPPER_CHAOS`
/// environment knob. The grammar is comma-separated `key=value` with keys
/// `seed`, `drop`, `dup`, `corrupt`, `truncate`, `delay`, `delay_us` and
/// `kill` — here the README's worker example, parsed:
///
/// ```
/// use skipper_core::ChaosConfig;
///
/// // 2% corrupted frames, 5% of frames delayed 2 ms, worker 3 dies at iteration 2
/// let chaos = ChaosConfig::parse("seed=7,corrupt=0.02,delay=0.05,delay_us=2000,kill=3@2")?;
/// assert_eq!((chaos.seed, chaos.corrupt), (7, 0.02));
/// assert_eq!((chaos.delay, chaos.delay_us), (0.05, 2000));
/// assert_eq!(chaos.kill, Some((3, 2)));
/// assert_eq!((chaos.drop, chaos.dup, chaos.truncate), (0.0, 0.0, 0.0));
/// # Ok::<(), String>(())
/// ```
///
/// `drop`/`dup`/`corrupt`/`truncate`/`delay` are per-frame probabilities
/// drawn from a seeded xorshift stream (same seed → same fault
/// schedule); `delay_us` is the injected latency per delayed frame;
/// `kill=W@I` makes worker `W` die when it receives work for iteration
/// `≥ I` (consumed by [`crate::cluster::run_worker`], not by the link).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Base seed of the fault stream (mixed with a per-connection salt).
    pub seed: u64,
    /// Probability a sent frame is silently discarded.
    pub drop: f64,
    /// Probability a sent frame is sent twice.
    pub dup: f64,
    /// Probability one byte of a sent frame is bit-flipped.
    pub corrupt: f64,
    /// Probability a sent frame is cut short.
    pub truncate: f64,
    /// Probability a sent frame is delayed by `delay_us`.
    pub delay: f64,
    /// Injected latency per delayed frame, microseconds.
    pub delay_us: u64,
    /// Kill schedule: `(worker id, iteration)` — the worker exits when it
    /// receives work for that iteration or later.
    pub kill: Option<(u64, u64)>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            delay: 0.0,
            delay_us: 200,
            kill: None,
        }
    }
}

impl ChaosConfig {
    /// Parse a `SKIPPER_CHAOS` spec string.
    ///
    /// # Errors
    ///
    /// Returns a description for unknown keys or malformed values, so a
    /// typo'd chaos spec fails loudly instead of silently running a
    /// different experiment.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec '{part}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|e| format!("chaos {key}={v}: not a number ({e})"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos {key}={v}: probability outside [0,1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|e| format!("chaos seed={value}: {e}"))?
                }
                "drop" => cfg.drop = prob(value)?,
                "dup" => cfg.dup = prob(value)?,
                "corrupt" => cfg.corrupt = prob(value)?,
                "truncate" => cfg.truncate = prob(value)?,
                "delay" => cfg.delay = prob(value)?,
                "delay_us" => {
                    cfg.delay_us = value
                        .parse()
                        .map_err(|e| format!("chaos delay_us={value}: {e}"))?
                }
                "kill" => {
                    let (w, i) = value
                        .split_once('@')
                        .ok_or_else(|| format!("chaos kill={value}: want WORKER@ITER"))?;
                    cfg.kill = Some((
                        w.parse().map_err(|e| format!("chaos kill worker: {e}"))?,
                        i.parse().map_err(|e| format!("chaos kill iter: {e}"))?,
                    ));
                }
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(cfg)
    }

    /// The `SKIPPER_CHAOS` environment knob, if set and non-empty.
    ///
    /// # Errors
    ///
    /// See [`ChaosConfig::parse`].
    pub fn from_env() -> Result<Option<ChaosConfig>, String> {
        match std::env::var("SKIPPER_CHAOS") {
            Ok(spec) if !spec.trim().is_empty() => ChaosConfig::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether any frame-level fault can fire.
    pub fn frame_faults(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.corrupt > 0.0
            || self.truncate > 0.0
            || self.delay > 0.0
    }
}

/// The send-side fault step: one frame in, zero, one or two frames out.
/// All decisions come from a seeded xorshift stream, so a chaos run is
/// exactly reproducible from `(config, connection salt)` — and the step
/// needs no link to be tested.
struct Chaos {
    cfg: ChaosConfig,
    rng: XorShiftRng,
    /// Faults injected so far (the `/cluster` status table reports it per
    /// connection).
    injected: u64,
}

impl Chaos {
    fn new(cfg: ChaosConfig, salt: u64) -> Chaos {
        let rng = XorShiftRng::new(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        Chaos {
            cfg,
            rng,
            injected: 0,
        }
    }

    fn event(&mut self, kind: &str) {
        self.injected += 1;
        if skipper_obs::enabled() {
            skipper_obs::counter_add(
                &skipper_obs::labeled("engine.transport_chaos", "kind", kind),
                1.0,
            );
        }
    }

    /// What reaches the wire in place of `frame`.
    fn apply(&mut self, mut frame: Vec<u8>) -> Vec<Vec<u8>> {
        if self.cfg.delay > 0.0 && self.rng.next_f64() < self.cfg.delay {
            self.event("delay");
            std::thread::sleep(Duration::from_micros(self.cfg.delay_us));
        }
        if self.cfg.drop > 0.0 && self.rng.next_f64() < self.cfg.drop {
            self.event("drop");
            return Vec::new(); // silently lost on the wire
        }
        if self.cfg.corrupt > 0.0 && self.rng.next_f64() < self.cfg.corrupt {
            self.event("corrupt");
            let at = (self.rng.next_u64() as usize) % frame.len().max(1);
            let bit = 1u8 << (self.rng.next_u64() % 8);
            if let Some(byte) = frame.get_mut(at) {
                *byte ^= bit;
            }
        } else if self.cfg.truncate > 0.0 && self.rng.next_f64() < self.cfg.truncate {
            self.event("truncate");
            let keep = (self.rng.next_u64() as usize) % frame.len().max(1);
            frame.truncate(keep);
        }
        if self.cfg.dup > 0.0 && self.rng.next_f64() < self.cfg.dup {
            self.event("dup");
            return vec![frame.clone(), frame];
        }
        vec![frame]
    }
}

// ---------------------------------------------------------------------------
// Channel: one TCP connection carrying messages
// ---------------------------------------------------------------------------

/// Per-connection transport counters, kept as plain `u64`s on the
/// [`Channel`] (single-owner, no atomics needed). The coordinator's
/// `/cluster` status table snapshots them per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub(crate) struct ChannelStats {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub frame_errors: u64,
}

/// A duplex message channel over one TCP stream, with partial-read
/// buffering so a frame split across reads (or across `recv` timeouts)
/// reassembles correctly; this is what the cluster layer holds per
/// connection.
pub(crate) struct Channel {
    stream: TcpStream,
    rbuf: Vec<u8>,
    stats: ChannelStats,
    chaos: Option<Chaos>,
    /// The worker this connection serves: the id its Hello proposed, then
    /// the one its Welcome assigned (0 before the handshake). Both ends
    /// learn it from the frames themselves.
    worker: u64,
}

impl Channel {
    /// Take over a connected `stream`, with send-side chaos when `chaos`
    /// has frame faults.
    fn new(
        stream: TcpStream,
        chaos: Option<&ChaosConfig>,
        salt: u64,
    ) -> Result<Channel, TransportError> {
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Channel {
            stream,
            rbuf: Vec::new(),
            stats: ChannelStats::default(),
            chaos: chaos
                .filter(|cfg| cfg.frame_faults())
                .map(|cfg| Chaos::new(cfg.clone(), salt)),
            worker: 0,
        })
    }

    /// Emit the `cluster.frame` instant for one message sent or received
    /// (`dir`): its kind, this connection's worker and whichever of
    /// iteration, attempt, shard and round it carries. Identity and
    /// routing only, never a payload.
    fn note_frame(&mut self, dir: &'static str, msg: &Message) {
        if let Message::Hello { worker, .. } | Message::Welcome { worker, .. } = msg {
            self.worker = *worker;
        }
        if !skipper_obs::enabled() {
            return;
        }
        let mut fields: skipper_obs::Fields = vec![
            ("dir", dir.into()),
            ("msg", msg.kind().into()),
            ("worker", self.worker.into()),
        ];
        match msg {
            Message::Heartbeat { iteration, .. } => fields.push(("iteration", (*iteration).into())),
            Message::Work { request, .. } => {
                let (iteration, attempt, shard) = request.key();
                fields.extend([
                    ("iteration", iteration.into()),
                    ("attempt", attempt.into()),
                    ("shard", shard.into()),
                    ("round", request.phase().into()),
                ]);
            }
            Message::ShardResult {
                iteration,
                attempt,
                shard,
                ..
            } => fields.extend([
                ("iteration", (*iteration).into()),
                ("attempt", (*attempt).into()),
                ("shard", (*shard).into()),
            ]),
            _ => {}
        }
        skipper_obs::instant("cluster.frame", skipper_obs::Level::Debug, fields);
    }

    /// Encode and ship one message.
    pub(crate) fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let frame = frame_bytes(&msg.encode()?);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        if skipper_obs::enabled() {
            skipper_obs::counter_add(
                &skipper_obs::labeled("engine.transport_frames", "dir", "sent"),
                1.0,
            );
            skipper_obs::counter_add(
                &skipper_obs::labeled("engine.transport_bytes", "dir", "sent"),
                frame.len() as f64,
            );
        }
        self.note_frame("sent", msg);
        let frames = match &mut self.chaos {
            Some(chaos) => chaos.apply(frame),
            None => vec![frame],
        };
        frames
            .iter()
            .try_for_each(|f| self.stream.write_all(f))
            .and_then(|()| self.stream.flush())
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::UnexpectedEof => TransportError::Closed(e.to_string()),
                _ => TransportError::Io(e.to_string()),
            })
    }

    /// Read until one whole frame is buffered and verified, waiting at
    /// most `timeout`.
    fn recv_frame(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = pop_frame(&mut self.rbuf)? {
                return Ok(payload);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let remaining = (deadline - now).max(Duration::from_millis(1));
            self.stream
                .set_read_timeout(Some(remaining))
                .map_err(|e| TransportError::Io(e.to_string()))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed("peer hung up".into())),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(TransportError::Timeout);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }

    /// Receive one message, waiting at most `timeout`. Frame and decode
    /// failures increment `engine.transport_frame_errors` and poison the
    /// connection.
    pub(crate) fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        let received = self.recv_frame(timeout).and_then(|payload| {
            let bytes = (payload.len() + HEADER) as u64;
            self.stats.frames_received += 1;
            self.stats.bytes_received += bytes;
            if skipper_obs::enabled() {
                skipper_obs::counter_add(
                    &skipper_obs::labeled("engine.transport_frames", "dir", "received"),
                    1.0,
                );
                skipper_obs::counter_add(
                    &skipper_obs::labeled("engine.transport_bytes", "dir", "received"),
                    bytes as f64,
                );
            }
            Message::decode(&payload)
        });
        match &received {
            Ok(msg) => self.note_frame("received", msg),
            Err(TransportError::Frame(_)) => {
                self.stats.frame_errors += 1;
                if skipper_obs::enabled() {
                    skipper_obs::counter_add("engine.transport_frame_errors", 1.0);
                }
            }
            Err(_) => {}
        }
        received
    }

    /// Snapshot of this connection's frame/byte/error counters.
    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Faults injected on this connection's send side (0 when chaos is
    /// not armed).
    pub(crate) fn chaos_injected(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.injected)
    }
}

// ---------------------------------------------------------------------------
// Listener and connector
// ---------------------------------------------------------------------------

/// TCP accept side, used by the coordinator. Non-blocking accept polled
/// under a deadline so the coordinator thread can interleave accepts
/// with worker polling.
pub(crate) struct TcpListenerLink {
    listener: TcpListener,
    addr: String,
    chaos: Option<ChaosConfig>,
    accepted: u64,
}

impl TcpListenerLink {
    pub fn bind(addr: &str, chaos: Option<ChaosConfig>) -> Result<TcpListenerLink, SkipperError> {
        let listener = TcpListener::bind(addr).map_err(SkipperError::Io)?;
        listener.set_nonblocking(true).map_err(SkipperError::Io)?;
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        Ok(TcpListenerLink {
            listener,
            addr,
            chaos,
            accepted: 0,
        })
    }

    /// Accept a pending connection, waiting at most `timeout`.
    pub fn accept(&mut self, timeout: Duration) -> Result<Channel, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accepted += 1;
                    return Channel::new(stream, self.chaos.as_ref(), 0xC0_0D ^ self.accepted);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }

    /// The address workers connect to (resolved port for `:0` binds).
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// TCP dial side, used by workers (and re-used on every reconnect).
pub struct TcpConnector {
    addr: String,
    chaos: Option<ChaosConfig>,
    attempts: u64,
}

impl TcpConnector {
    /// Connector dialing `addr` (e.g. `127.0.0.1:7700`), with optional
    /// send-side chaos on each established connection.
    pub fn new(addr: impl Into<String>, chaos: Option<ChaosConfig>) -> TcpConnector {
        TcpConnector {
            addr: addr.into(),
            chaos,
            attempts: 0,
        }
    }

    /// Open a fresh connection to the coordinator.
    pub(crate) fn connect_channel(&mut self) -> Result<Channel, TransportError> {
        self.attempts += 1;
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| TransportError::Io(e.to_string()))?;
        Channel::new(stream, self.chaos.as_ref(), 0x0F0F ^ self.attempts)
    }

    /// Where this connector dials.
    pub(crate) fn peer(&self) -> &str {
        &self.addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::sam::{SamMetric, SkipPolicy};
    use crate::shard::WorkCtx;
    use proptest::prelude::*;
    use proptest::TestRng;
    use skipper_autograd::Surrogate;
    use skipper_snn::{LifConfig, ModelConfig};

    fn work_ctx(method: Method) -> WorkCtx {
        WorkCtx {
            iteration: 7,
            attempt: 1,
            shard: 3,
            batch_offset: 6,
            global_batch: 16,
            seed: 7,
            method,
            metric: SamMetric::SpikeSum,
            policy: SkipPolicy::SpikeActivity,
        }
    }

    fn work_msg() -> Message {
        Message::Work {
            request: Request::Forward(ShardInput {
                ctx: work_ctx(Method::Skipper {
                    checkpoints: 2,
                    percentile: 30.0,
                }),
                inputs: vec![
                    Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0, 1.0], [5]),
                    Tensor::from_vec(vec![0.25, -1.5, 3.0], [3]),
                ],
                labels: vec![0, 9, 4],
                rows: None,
            }),
            params: Some(vec![1, 2, 3, 4]),
            trace: None,
        }
    }

    /// A connected loopback pair: `(coordinator end, worker end)`, chaos on
    /// both send sides like a cluster configured with it.
    fn tcp_pair(chaos: Option<ChaosConfig>) -> (Channel, Channel) {
        let mut listener = TcpListenerLink::bind("127.0.0.1:0", chaos.clone()).unwrap();
        let mut connector = TcpConnector::new(listener.addr(), chaos);
        let worker_end = connector.connect_channel().unwrap();
        let coord_end = listener.accept(Duration::from_secs(2)).unwrap();
        (coord_end, worker_end)
    }

    // --- The message fuzzer -------------------------------------------------

    /// Every shape a [`Message`] can take: all variants, both tensor
    /// encodings, `Some`/`None` of every optional field, all five methods.
    struct AnyMessage;

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    fn coin(rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }

    /// Any non-NaN `f64`, drawn from the bit patterns (NaN is not equal to
    /// itself, and every field that carries floats carries them as raw
    /// little-endian bits anyway).
    fn any_f64(rng: &mut TestRng) -> f64 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_nan() {
            0.5
        } else {
            v
        }
    }

    fn vec_of<T>(rng: &mut TestRng, max: usize, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
        (0..below(rng, max + 1)).map(|_| f(rng)).collect()
    }

    fn any_tensor(rng: &mut TestRng) -> Tensor {
        // 1–3 dims of 1–5: element counts on both sides of a byte boundary.
        let dims: Vec<usize> = (0..1 + below(rng, 3)).map(|_| 1 + below(rng, 5)).collect();
        let spikes = coin(rng);
        let data = (0..dims.iter().product())
            .map(|_| match (spikes, below(rng, 4)) {
                (true, k) => (k == 0) as i32 as f32,
                (false, 0) => -0.0,
                (false, 1) => 1.0,
                (false, _) => any_f64(rng) as f32,
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    fn any_method(rng: &mut TestRng) -> Method {
        // Percentiles include values with no short binary expansion: the
        // document must carry them to the exact `f32`.
        let percentile = match below(rng, 3) {
            0 => 33.3,
            1 => 0.0,
            _ => (rng.unit_f64() * 100.0) as f32,
        };
        match below(rng, 5) {
            0 => Method::Bptt,
            1 => Method::Checkpointed {
                checkpoints: 1 + below(rng, 16),
            },
            2 => Method::Skipper {
                checkpoints: 1 + below(rng, 16),
                percentile,
            },
            3 => Method::Tbptt {
                window: 1 + below(rng, 64),
            },
            _ => Method::TbpttLbp {
                window: 1 + below(rng, 64),
                taps: vec_of(rng, 6, |rng| below(rng, 12)),
            },
        }
    }

    fn any_grads(rng: &mut TestRng) -> WireGrads {
        vec_of(rng, 4, |rng| {
            coin(rng).then(|| vec_of(rng, 6, |rng| any_f64(rng) as f32))
        })
    }

    fn any_metrics(rng: &mut TestRng) -> MetricsDelta {
        let series = |rng: &mut TestRng| {
            vec_of(rng, 3, |rng| {
                (format!("engine.x{{k={}}}", rng.below(9)), any_f64(rng))
            })
        };
        MetricsDelta {
            counters: series(rng),
            gauges: series(rng),
            histograms: vec_of(rng, 2, |rng| {
                // Bucket counts in the one layout, empty ones included;
                // the rest of the state is any bit pattern.
                let counts: Vec<u64> = (0..=Histogram::BOUNDS.len())
                    .map(|_| rng.below(3) * rng.below(1 << 20))
                    .collect();
                let count = counts.iter().sum();
                let hist =
                    Histogram::from_parts(&counts, any_f64(rng), count, any_f64(rng), any_f64(rng))
                        .unwrap();
                ("iteration.wall_us".to_string(), hist)
            }),
        }
    }

    fn any_spec(rng: &mut TestRng) -> WireSpec {
        // Finite values with no short binary expansion: the document must
        // carry them to the exact `f32`.
        let mut any_f32 = || (rng.unit_f64() * 4.0) as f32;
        let (width_mult, leak, threshold, x, p) =
            (any_f32(), any_f32(), any_f32(), any_f32(), any_f32());
        WireSpec {
            model: ModelConfig {
                input_hw: below(rng, 64),
                in_channels: below(rng, 4),
                num_classes: below(rng, 100),
                width_mult,
                lif: LifConfig {
                    leak,
                    threshold,
                    surrogate: match below(rng, 3) {
                        0 => Surrogate::Triangle { width: x },
                        1 => Surrogate::FastSigmoid { slope: x },
                        _ => Surrogate::ArcTan { alpha: x },
                    },
                },
                dropout: coin(rng).then_some(p),
                seed: rng.next_u64(),
            },
            timesteps: below(rng, 1 << 12),
        }
    }

    impl Strategy for AnyMessage {
        type Value = Message;

        fn generate(&self, rng: &mut TestRng) -> Message {
            let (iteration, attempt, shard) =
                (rng.next_u64(), rng.next_u64() as u32, below(rng, 8) as u32);
            match below(rng, 9) {
                0 => Message::Hello {
                    worker: rng.next_u64(),
                    reconnect: coin(rng),
                    ping: rng.next_u64(),
                },
                1 => Message::Welcome {
                    worker: rng.next_u64(),
                    spec: any_spec(rng),
                    pong: (rng.next_u64(), rng.next_u64()),
                },
                2 => Message::Heartbeat {
                    worker: rng.next_u64(),
                    iteration,
                    metrics: coin(rng).then(|| any_metrics(rng)),
                },
                kind @ (3 | 4) => {
                    let input = ShardInput {
                        ctx: WorkCtx {
                            iteration,
                            attempt,
                            shard,
                            batch_offset: rng.next_u64() as u32,
                            global_batch: rng.next_u64() as u32,
                            seed: rng.next_u64(),
                            method: any_method(rng),
                            metric: [
                                SamMetric::SpikeSum,
                                SamMetric::NeuronNormalized,
                                SamMetric::MembraneL2,
                            ][below(rng, 3)],
                            policy: [SkipPolicy::SpikeActivity, SkipPolicy::Random][below(rng, 2)],
                        },
                        inputs: vec_of(rng, 3, any_tensor),
                        labels: vec_of(rng, 5, |rng| below(rng, 10)),
                        rows: None,
                    };
                    Message::Work {
                        request: if kind == 3 {
                            Request::Single(input)
                        } else {
                            Request::Forward(input)
                        },
                        params: coin(rng).then(|| vec_of(rng, 40, |rng| rng.next_u64() as u8)),
                        trace: coin(rng).then(|| rng.next_u64()),
                    }
                }
                5 => Message::Work {
                    request: Request::Backward {
                        iteration,
                        attempt,
                        shard,
                        sums: vec_of(rng, 12, any_f64),
                    },
                    params: None,
                    trace: coin(rng).then(|| rng.next_u64()),
                },
                6 => Message::ShardResult {
                    iteration,
                    attempt,
                    shard,
                    payload: match below(rng, 3) {
                        0 => ResultPayload::Forward {
                            sam_sums: vec_of(rng, 12, any_f64),
                            per_sample: vec_of(rng, 5, any_f64),
                            correct: rng.next_u64() as u32,
                        },
                        1 => ResultPayload::Grads {
                            grads: any_grads(rng),
                        },
                        _ => ResultPayload::Single {
                            loss_groups: vec_of(rng, 3, |rng| vec_of(rng, 5, any_f64)),
                            correct: rng.next_u64() as u32,
                            sam_sums: vec_of(rng, 12, any_f64),
                            recomputed: rng.next_u64() as u32,
                            skipped: rng.next_u64() as u32,
                            grads: any_grads(rng),
                        },
                    },
                },
                7 => Message::Fault {
                    worker: rng.next_u64(),
                    detail: format!("missing carry \"{}\"\n", rng.below(100)),
                },
                _ => Message::Shutdown,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What is sent is what arrives, and re-encoding it gives the same
        /// bytes; every strict prefix of a payload is a typed frame error.
        #[test]
        fn every_message_roundtrips(msg in AnyMessage) {
            let bytes = msg.encode().unwrap();
            let back = Message::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &msg);
            prop_assert_eq!(back.encode().unwrap(), bytes.clone());
            for cut in 0..bytes.len() {
                prop_assert!(
                    matches!(Message::decode(&bytes[..cut]), Err(TransportError::Frame(_))),
                    "prefix of {cut}/{} bytes of {msg:?} did not fail as a frame error",
                    bytes.len()
                );
            }
        }

        /// A payload with one byte changed (what a CRC collision or a
        /// hostile peer delivers) decodes to a message or to a typed
        /// error — never a panic, never an allocation the payload does not
        /// back.
        #[test]
        fn mutated_payloads_decode_or_fail_typed(
            msg in AnyMessage,
            at in 0usize..1 << 16,
            flip in 0u8..255,
        ) {
            let mut bytes = msg.encode().unwrap();
            let at = at % bytes.len();
            bytes[at] ^= flip + 1;
            if let Err(e) = Message::decode(&bytes) {
                prop_assert!(matches!(e, TransportError::Frame(_)), "{e}");
            }
        }
    }

    #[test]
    fn a_heartbeat_histogram_off_the_layout_is_a_frame_error() {
        // A heartbeat carrying one histogram, hand-encoded so it can hold
        // what `Histogram` itself never would.
        let heartbeat = |counts: &[u64], count: u64| {
            let mut buf = vec![3]; // Heartbeat
            put_u64(&mut buf, 1); // worker
            put_u64(&mut buf, 9); // iteration
            buf.push(1); // metrics present
            put_u32(&mut buf, 0); // no counters
            put_u32(&mut buf, 0); // no gauges
            put_u32(&mut buf, 1); // one histogram
            put_str(&mut buf, "shard_us");
            put_seq(&mut buf, counts, |b, c| put_u64(b, *c));
            put_f64(&mut buf, 12.0); // sum
            put_u64(&mut buf, count);
            put_f64(&mut buf, 4.0); // min
            put_f64(&mut buf, 8.0); // max
            Message::decode(&buf)
        };
        let layout = Histogram::BOUNDS.len() + 1;
        let mut counts = vec![0; layout];
        counts[1] = 2;
        let Ok(Message::Heartbeat {
            metrics: Some(metrics),
            ..
        }) = heartbeat(&counts, 2)
        else {
            panic!("a well-formed heartbeat histogram decodes");
        };
        assert_eq!(metrics.histograms[0].1.counts(), &counts[..]);
        // Bucket counts that do not sum to `count`, either way.
        for count in [1, 3] {
            assert!(matches!(
                heartbeat(&counts, count),
                Err(TransportError::Frame(_))
            ));
        }
        // A count vector shorter or longer than the layout.
        for len in [0, layout - 1, layout + 1] {
            assert!(matches!(
                heartbeat(&vec![0; len], 0),
                Err(TransportError::Frame(_))
            ));
        }
    }

    #[test]
    fn a_work_context_past_the_document_cap_is_refused_unparsed() {
        // On the way out: a context that cannot be sent is an error at the
        // sender, not a poisoned connection at the receiver.
        let long = Message::Work {
            request: Request::Single(ShardInput {
                ctx: work_ctx(Method::TbpttLbp {
                    window: 4,
                    taps: vec![7; MAX_DOC],
                }),
                inputs: vec![],
                labels: vec![],
                rows: None,
            }),
            params: None,
            trace: None,
        };
        assert!(matches!(long.encode(), Err(TransportError::Frame(_))));

        // On the way in: swap the document of a valid frame for one byte
        // more than the cap of `[`. Parsed, that is MAX_DOC + 1 levels of
        // recursion; it must be refused by its length alone, and a document
        // of exactly the cap must come back as a (parse) error, not as a
        // stack overflow on this 2 MiB test thread.
        let valid = work_msg().encode().unwrap();
        let doc_len = u32::from_le_bytes([valid[2], valid[3], valid[4], valid[5]]) as usize;
        for (nesting, why) in [(MAX_DOC + 1, "exceeds"), (MAX_DOC, "decoding document")] {
            let mut hostile = valid[..2].to_vec();
            put_bytes(&mut hostile, &vec![b'['; nesting]);
            hostile.extend_from_slice(&valid[6 + doc_len..]);
            match Message::decode(&hostile) {
                Err(TransportError::Frame(detail)) => assert!(detail.contains(why), "{detail}"),
                other => panic!("{nesting} levels of nesting: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_tensor_dims_are_a_frame_error_not_an_overflow() {
        // Rank 4, 65536 per dim: the product is 2^64. Unchecked, that is an
        // overflow panic in a debug build and in release wraps to 0 — an
        // `Ok` tensor whose shape and data disagree.
        let mut hostile = vec![4u8];
        for _ in 0..4 {
            put_u32(&mut hostile, 65536);
        }
        hostile.push(1); // bitmask flag
        let err = TransportError::from(read_tensor(&mut WireReader::new(&hostile)).unwrap_err());
        assert!(matches!(err, TransportError::Frame(_)), "{err}");
        // A hostile length cannot wrap the cursor either.
        let mut r = WireReader::new(&hostile);
        r.u8().unwrap();
        assert!(matches!(r.take(usize::MAX), Err(DecodeError(_))));
    }

    #[test]
    fn channel_stats_track_frames_bytes_and_chaos() {
        let (mut coord_end, mut worker_end) = tcp_pair(None);
        assert_eq!(worker_end.stats(), ChannelStats::default());
        worker_end.send(&Message::Shutdown).unwrap();
        worker_end.send(&Message::Shutdown).unwrap();
        let _ = coord_end.recv_timeout(Duration::from_secs(2)).unwrap();
        let sent = worker_end.stats();
        assert_eq!(sent.frames_sent, 2);
        assert_eq!(sent.bytes_sent, 2 * (HEADER as u64 + 1));
        let got = coord_end.stats();
        assert_eq!(got.frames_received, 1);
        assert_eq!(got.bytes_received, HEADER as u64 + 1);
        assert_eq!(worker_end.chaos_injected(), 0);

        // With chaos armed, the per-channel injected counter moves.
        let chaos = ChaosConfig::parse("seed=9,drop=0.5").unwrap();
        let (_coord_end, mut noisy) = tcp_pair(Some(chaos));
        for _ in 0..32 {
            noisy.send(&Message::Shutdown).unwrap();
        }
        assert!(noisy.chaos_injected() > 0, "some frames must have dropped");
    }

    #[test]
    fn spike_tensors_use_the_bitmask_encoding() {
        let spikes = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0], [9]);
        let dense = Tensor::from_vec(vec![0.5, -1.0, 2.0], [3]);
        let mut b_spike = Vec::new();
        put_tensor(&mut b_spike, &spikes);
        let mut b_dense = Vec::new();
        put_tensor(&mut b_dense, &dense);
        // rank + dims + flag + ceil(9/8)=2 bytes vs 9*4=36 raw.
        assert!(b_spike.len() < 1 + 4 + 1 + 9 * 4);
        let back = read_tensor(&mut WireReader::new(&b_spike)).unwrap();
        assert_eq!(back.data(), spikes.data());
        let back = read_tensor(&mut WireReader::new(&b_dense)).unwrap();
        assert_eq!(back.data(), dense.data());

        // `-0.0 == 0.0`, but it is not a spike tensor's zero: the round
        // trip is exact to the bit, so it takes the raw encoding.
        let signed = Tensor::from_vec(vec![-0.0, 1.0, 0.0], [3]);
        let mut b_signed = Vec::new();
        put_tensor(&mut b_signed, &signed);
        let back = read_tensor(&mut WireReader::new(&b_signed)).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&signed));
    }

    #[test]
    fn corrupt_frames_are_rejected_with_a_frame_error() {
        let payload = work_msg().encode().unwrap();
        let frame = frame_bytes(&payload);
        // The damaged frame, then more traffic: a flipped length byte (5)
        // makes the receiver wait for a longer frame, and it is what
        // follows that fails the CRC.
        for at in [0usize, 5, HEADER, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            bad.extend_from_slice(&frame.repeat(64));
            assert!(
                matches!(pop_frame(&mut bad), Err(TransportError::Frame(_))),
                "flip at {at} must poison the frame"
            );
        }
        // A frame cut short is not a frame yet; what desynchronises the
        // stream is the next frame arriving where its tail should be.
        let mut stream = frame[..frame.len() - 3].to_vec();
        assert!(matches!(pop_frame(&mut stream), Ok(None)));
        stream.extend_from_slice(&frame);
        assert!(matches!(
            pop_frame(&mut stream),
            Err(TransportError::Frame(_))
        ));
        // Two whole frames back to back pop one at a time.
        let mut stream = [frame.clone(), frame].concat();
        assert_eq!(pop_frame(&mut stream).unwrap(), Some(payload.clone()));
        assert_eq!(pop_frame(&mut stream).unwrap(), Some(payload));
        assert!(stream.is_empty());
    }

    #[test]
    fn chaos_schedule_is_deterministic_per_seed() {
        let cfg = ChaosConfig::parse("seed=9,drop=0.3,corrupt=0.2,dup=0.1").unwrap();
        let run = |cfg: &ChaosConfig| {
            let mut chaos = Chaos::new(cfg.clone(), 42);
            let frame = frame_bytes(&Message::Shutdown.encode().unwrap());
            let out: Vec<Vec<u8>> = (0..64).flat_map(|_| chaos.apply(frame.clone())).collect();
            (out, chaos.injected)
        };
        let (a, injected) = run(&cfg);
        let (b, _) = run(&cfg);
        assert_eq!(a, b, "same seed must give the same fault schedule");
        assert!(a.len() < 64 + 16, "some frames must drop");
        assert!(injected > 0);
        assert!(
            a.iter().any(|f| pop_frame(&mut f.clone()).is_err()),
            "some frames must corrupt"
        );
    }

    #[test]
    fn chaos_spec_errors_are_descriptive() {
        assert!(ChaosConfig::parse("drop=1.5")
            .unwrap_err()
            .contains("[0,1]"));
        assert!(ChaosConfig::parse("zap=1").unwrap_err().contains("zap"));
        assert!(ChaosConfig::parse("kill=3")
            .unwrap_err()
            .contains("WORKER@ITER"));
        let cfg = ChaosConfig::parse("seed=4,kill=1@5,drop=0.25").unwrap();
        assert_eq!(cfg.kill, Some((1, 5)));
        assert_eq!(cfg.seed, 4);
        assert!(cfg.frame_faults());
        assert!(!ChaosConfig::parse("kill=1@5").unwrap().frame_faults());

        // The grammar the README shows is the grammar that parses: its
        // worker command once spelled the delay `delay=0.05:2000`, which
        // `skipper_worker` refuses.
        let readme = include_str!("../../../README.md");
        let shown: Vec<&str> = readme
            .split("SKIPPER_CHAOS=\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(!shown.is_empty(), "README shows no SKIPPER_CHAOS example");
        for spec in shown {
            assert!(ChaosConfig::parse(spec).is_ok(), "README: {spec}");
        }
    }

    #[test]
    fn tcp_loopback_carries_messages_and_reassembles_partial_reads() {
        let mut listener = TcpListenerLink::bind("127.0.0.1:0", None).unwrap();
        let addr = listener.addr().to_string();
        let handle = std::thread::spawn(move || {
            let mut connector = TcpConnector::new(addr, None);
            let mut ch = connector.connect_channel().unwrap();
            ch.send(&work_msg()).unwrap();
            ch.recv_timeout(Duration::from_secs(2)).unwrap()
        });
        let mut coord = listener.accept(Duration::from_secs(2)).unwrap();
        let got = coord.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, work_msg());
        let idle = coord.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(idle, TransportError::Timeout));
        coord.send(&Message::Shutdown).unwrap();
        let echoed = handle.join().unwrap();
        assert!(matches!(echoed, Message::Shutdown));

        // A frame that arrives in two pieces, a receive timing out in
        // between, is one message.
        let (mut coord, mut worker) = tcp_pair(None);
        let frame = frame_bytes(&work_msg().encode().unwrap());
        let (head, tail) = frame.split_at(frame.len() / 2);
        worker.stream.write_all(head).unwrap();
        let early = coord.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(early, TransportError::Timeout));
        worker.stream.write_all(tail).unwrap();
        let got = coord.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, work_msg());

        // A frame that loses its tail takes the stream with it: the next
        // frame is read as the missing bytes and the connection poisons.
        worker.stream.write_all(head).unwrap();
        worker.send(&Message::Shutdown).unwrap();
        worker.send(&work_msg()).unwrap();
        let err = coord.recv_timeout(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, TransportError::Frame(_)), "{err}");
        assert_eq!(coord.stats().frame_errors, 1);
    }
}
