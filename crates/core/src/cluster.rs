//! Distributed data-parallel training: the shard protocol (`shard.rs`)
//! over TCP workers — other processes, or threads dialing loopback.
//!
//! The protocol, the plan and every reduction are `shard.rs`'s, so results
//! are bit-identical to the in-process engine by construction; this module
//! adds what is particular to workers behind a transport. The
//! [`Coordinator`] serializes the parameters (`.skw` v2 records) once per
//! iteration, slices each round-1 request down to its shard's rows and
//! wraps it in a [`crate::transport`] `Work` message (gradients cross as
//! exact little-endian `f32`, SAM sums as exact `f64`). Workers
//! ([`run_worker`], usually the `skipper-worker` bin) rebuild the model
//! from the wire spec, take the request out of the message and hand it to
//! the same `ShardWorker` the engine runs.
//!
//! # Recovery model
//!
//! Nothing is applied to the parameter store until a full, consistent
//! set of shard results for one `(iteration, attempt)` has been
//! collected, so every failure is recovered by *retrying the attempt*:
//! the attempt counter is bumped, shards are reassigned over the
//! surviving workers, and stale results from older attempts are
//! discarded first-wins — a reconnecting worker can never cause a
//! duplicate gradient application. Since the parameters have not
//! changed, the retried attempt is bit-identical to an unfailed run.
//! Dead workers are detected by closed/poisoned connections, missed
//! heartbeat deadlines, and the per-attempt work deadline; reconnects
//! (with bounded exponential backoff + jitter on the worker side) are
//! re-admitted at the next handshake. If the cluster drops below
//! `min_workers` for longer than `connect_timeout`, the iteration fails
//! with a typed [`SkipperError::WorkerLost`] — the driver can then
//! replay the epoch from its last `.sksn` snapshot.

use crate::error::SkipperError;
use crate::shard::{self, Executor, Iteration, Request, ResultPayload, ShardWorker};
use crate::transport::{
    Channel, ChannelStats, ChaosConfig, HistDelta, Message, MetricsDelta, TcpConnector,
    TcpListenerLink, TraceCtx, TransportError, WireReader,
};
use crate::windowed::StepResult;
use skipper_autograd::Surrogate;
use skipper_snn::serialize::{apply_records, read_params, write_records};
use skipper_snn::{custom_net, ModelConfig, ParamStore, SpikingNetwork};
use skipper_tensor::XorShiftRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment knob naming the coordinator address (`host:port`) that
/// `skipper-worker` dials and the loopback demos bind.
pub const CLUSTER_ADDR_ENV: &str = "SKIPPER_CLUSTER_ADDR";

/// The `SKIPPER_CLUSTER_ADDR` knob, if set and non-empty.
pub fn cluster_addr_from_env() -> Option<String> {
    std::env::var(CLUSTER_ADDR_ENV)
        .ok()
        .filter(|s| !s.trim().is_empty())
}

/// Environment knob overriding where crash flight-recorder dumps land
/// (default: the workspace `results/` directory).
pub const BLACKBOX_DIR_ENV: &str = "SKIPPER_BLACKBOX_DIR";

/// Directory flight-recorder dumps are written to.
fn blackbox_dir() -> std::path::PathBuf {
    match std::env::var(BLACKBOX_DIR_ENV) {
        Ok(d) if !d.trim().is_empty() => std::path::PathBuf::from(d),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

// ---------------------------------------------------------------------------
// Cluster-wide observability plumbing
// ---------------------------------------------------------------------------

/// Process-stable trace id stamped into every dispatched [`TraceCtx`]: one
/// id groups all spans of one coordinator process's run, and the pid half
/// keeps concurrent runs on one host apart.
fn trace_id() -> u64 {
    static TRACE: OnceLock<u64> = OnceLock::new();
    // Observability-only identity; never feeds training math, so wall-clock
    // salt does not violate the determinism contract.
    *TRACE
        .get_or_init(|| ((std::process::id() as u64) << 32) | (skipper_obs::now_us() & 0xFFFF_FFFF))
}

/// The trace context a work dispatch should carry: the coordinator's trace
/// id plus the innermost open span on this thread (the `iteration` span
/// opened by the training runner). `None` while tracing is disabled.
fn current_trace_ctx() -> Option<TraceCtx> {
    skipper_obs::current_span().map(|parent| TraceCtx {
        trace: trace_id(),
        parent,
    })
}

/// Rewrite a metric key to carry a `worker=<id>` label: inserted into an
/// existing `{...}` label set, appended as a fresh one otherwise.
fn with_worker_label(name: &str, worker: u64) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},worker={worker}}}"),
        None => format!("{name}{{worker={worker}}}"),
    }
}

/// Fold a worker's heartbeat metric delta into the coordinator's registry
/// under `worker="<id>"` labels, making `/metrics` cluster-wide. Keys that
/// already carry a worker label are skipped: they are themselves federated
/// series (possible when coordinator and workers share one registry in
/// threaded loopback runs) and re-merging them would loop.
fn merge_worker_metrics(worker: u64, delta: &MetricsDelta) {
    if !skipper_obs::enabled() || delta.is_empty() {
        return;
    }
    for (name, v) in &delta.counters {
        if name.contains("worker=") {
            continue;
        }
        skipper_obs::counter_add(&with_worker_label(name, worker), *v);
    }
    for (name, v) in &delta.gauges {
        if name.contains("worker=") {
            continue;
        }
        skipper_obs::gauge_set(&with_worker_label(name, worker), *v);
    }
    for (name, h) in &delta.histograms {
        if name.contains("worker=") {
            continue;
        }
        let Ok(hist) = skipper_obs::Histogram::from_parts(
            h.bounds.clone(),
            h.counts.clone(),
            h.sum,
            h.count,
            h.min,
            h.max,
        ) else {
            continue; // mis-encoded delta; drop rather than poison
        };
        let _ = skipper_obs::registry().merge_histogram(&with_worker_label(name, worker), &hist);
    }
    skipper_obs::counter_add("cluster.metric_merges", 1.0);
}

/// Worker-side delta tracker for metric federation: remembers the last
/// registry values shipped so each heartbeat carries only the increments
/// since the previous one. A delta is committed when computed; a heartbeat
/// lost to a dead connection therefore loses its delta — acceptable for
/// telemetry, and it can never double-count.
#[derive(Default)]
struct MetricShadow {
    counters: HashMap<String, f64>,
    hist_counts: HashMap<String, Vec<u64>>,
    hist_sums: HashMap<String, f64>,
}

impl MetricShadow {
    /// The registry's movement since the last call, given its snapshot
    /// `snap`, or `None` when nothing changed. Series already carrying a
    /// worker label are never shipped (they are someone else's federated
    /// data).
    fn delta(&mut self, snap: skipper_obs::MetricsSnapshot) -> Option<MetricsDelta> {
        let mut out = MetricsDelta::default();
        for (name, total) in snap.counters {
            if name.contains("worker=") {
                continue;
            }
            let last = self.counters.insert(name.clone(), total).unwrap_or(0.0);
            if total != last {
                out.counters.push((name, total - last));
            }
        }
        for (name, value) in snap.gauges {
            if name.contains("worker=") {
                continue;
            }
            out.gauges.push((name, value));
        }
        for (name, hist) in snap.histograms {
            if name.contains("worker=") {
                continue;
            }
            let counts = hist.counts().to_vec();
            let last = self
                .hist_counts
                .insert(name.clone(), counts.clone())
                .unwrap_or_else(|| vec![0; counts.len()]);
            let delta_counts: Vec<u64> = counts
                .iter()
                .zip(last.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect();
            let delta_count: u64 = delta_counts.iter().sum();
            let last_sum = self.hist_sums.insert(name.clone(), hist.sum());
            if delta_count == 0 {
                continue;
            }
            out.histograms.push((
                name,
                HistDelta {
                    bounds: hist.bounds().to_vec(),
                    counts: delta_counts,
                    sum: hist.sum() - last_sum.unwrap_or(0.0),
                    count: delta_count,
                    min: hist.min(),
                    max: hist.max(),
                },
            ));
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

/// Bounded ring of recent per-connection happenings — the crash flight
/// recorder. Recording costs nothing while tracing is disabled; on a
/// worker loss the ring is dumped as JSONL next to the other run
/// artifacts (`results/blackbox_<id>.jsonl`).
pub(crate) struct FlightRecorder {
    ring: VecDeque<String>,
    cap: usize,
}

impl FlightRecorder {
    fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Append one pre-summarized record; `detail` must be the inner JSON
    /// fields (without braces) and is only rendered while tracing is
    /// enabled.
    fn note(&mut self, kind: &str, detail: impl FnOnce() -> String) {
        if !skipper_obs::enabled() {
            return;
        }
        let line = format!(
            "{{\"ts_us\":{},\"kind\":\"{kind}\",{}}}",
            skipper_obs::now_us(),
            detail()
        );
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(line);
    }

    /// Write the ring to `path` (JSONL, oldest first) and emit a
    /// `cluster.blackbox_dump` marker. Empty rings write nothing.
    fn dump(&self, path: &std::path::Path) {
        if self.ring.is_empty() {
            return;
        }
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let write = || -> std::io::Result<()> {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for line in &self.ring {
                writeln!(f, "{line}")?;
            }
            f.flush()
        };
        match write() {
            Ok(()) => {
                skipper_obs::instant!(
                    skipper_obs::Level::Warn,
                    "cluster.blackbox_dump",
                    path = path.display().to_string(),
                    records = self.ring.len() as u64,
                );
            }
            Err(e) => eprintln!("skipper: blackbox dump to {} failed: {e}", path.display()),
        }
    }
}

/// JSON-escape `s` into a quoted string (flight-recorder details carry
/// free-form error text).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    skipper_obs::push_json_string(&mut out, s);
    out
}

/// One-line JSON fields summarizing a protocol message for the flight
/// recorder (payloads elided; identity and routing only).
fn frame_summary(msg: &Message) -> String {
    match msg {
        Message::Hello {
            worker, reconnect, ..
        } => format!("\"msg\":\"Hello\",\"worker\":{worker},\"reconnect\":{reconnect}"),
        Message::Welcome { worker, .. } => format!("\"msg\":\"Welcome\",\"worker\":{worker}"),
        Message::Heartbeat {
            worker,
            iteration,
            metrics,
        } => format!(
            "\"msg\":\"Heartbeat\",\"worker\":{worker},\"iteration\":{iteration},\"metrics\":{}",
            metrics.is_some()
        ),
        Message::Work { request, .. } => {
            let (iteration, attempt, shard) = request.key();
            format!(
                "\"msg\":\"Work\",\"round\":\"{}\",\"iteration\":{iteration},\"attempt\":{attempt},\"shard\":{shard}",
                request.phase()
            )
        }
        Message::ShardResult {
            iteration,
            attempt,
            shard,
            ..
        } => format!(
            "\"msg\":\"ShardResult\",\"iteration\":{iteration},\"attempt\":{attempt},\"shard\":{shard}"
        ),
        Message::Fault { worker, detail } => format!(
            "\"msg\":\"Fault\",\"worker\":{worker},\"detail\":{}",
            json_str(detail)
        ),
        Message::Shutdown => "\"msg\":\"Shutdown\"".to_string(),
    }
}

/// Ring capacity of each connection's flight recorder.
const BLACKBOX_CAP: usize = 512;

/// Live status row of one worker, published through the `/cluster`
/// endpoint of the obs metrics server.
#[derive(Debug, Clone, Default)]
struct WorkerStatus {
    state: &'static str,
    last_seen_us: u64,
    iteration: u64,
    attempt: u32,
    shards: Vec<u32>,
    stats: ChannelStats,
    chaos_injected: u64,
    lost_reason: String,
}

/// Shared worker-status board backing the `/cluster` endpoint.
type Board = Arc<Mutex<BTreeMap<u64, WorkerStatus>>>;

/// Render the board as the `/cluster` JSON document.
fn render_cluster_json(board: &Board) -> String {
    let board = board.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = String::from("{\"workers\":[");
    for (i, (id, w)) in board.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let shards: Vec<String> = w.shards.iter().map(|s| s.to_string()).collect();
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{{\"id\":{id},\"state\":{},\"last_seen_us\":{},\"iteration\":{},\
                 \"attempt\":{},\"shards\":[{}],\"frames_sent\":{},\"frames_received\":{},\
                 \"bytes_sent\":{},\"bytes_received\":{},\"frame_errors\":{},\
                 \"chaos_injected\":{},\"lost_reason\":{}}}",
                json_str(w.state),
                w.last_seen_us,
                w.iteration,
                w.attempt,
                shards.join(","),
                w.stats.frames_sent,
                w.stats.frames_received,
                w.stats.bytes_sent,
                w.stats.bytes_received,
                w.stats.frame_errors,
                w.chaos_injected,
                json_str(&w.lost_reason),
            ),
        );
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Wire spec: what a joining worker needs to rebuild the model
// ---------------------------------------------------------------------------

/// Model topology + horizon shipped in the Welcome handshake. Parameters
/// themselves ride with every work message, so a worker that was away
/// never computes with stale weights.
#[derive(Debug, Clone)]
pub(crate) struct WireSpec {
    pub model: ModelConfig,
    pub timesteps: usize,
}

impl WireSpec {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        let m = &self.model;
        b.extend_from_slice(&(m.input_hw as u32).to_le_bytes());
        b.extend_from_slice(&(m.in_channels as u32).to_le_bytes());
        b.extend_from_slice(&(m.num_classes as u32).to_le_bytes());
        b.extend_from_slice(&m.width_mult.to_le_bytes());
        b.extend_from_slice(&m.lif.leak.to_le_bytes());
        b.extend_from_slice(&m.lif.threshold.to_le_bytes());
        let (tag, x) = match m.lif.surrogate {
            Surrogate::Triangle { width } => (0u8, width),
            Surrogate::FastSigmoid { slope } => (1, slope),
            Surrogate::ArcTan { alpha } => (2, alpha),
        };
        b.push(tag);
        b.extend_from_slice(&x.to_le_bytes());
        match m.dropout {
            Some(p) => {
                b.push(1);
                b.extend_from_slice(&p.to_le_bytes());
            }
            None => {
                b.push(0);
                b.extend_from_slice(&0.0f32.to_le_bytes());
            }
        }
        b.extend_from_slice(&m.seed.to_le_bytes());
        b.extend_from_slice(&(self.timesteps as u32).to_le_bytes());
        b
    }

    pub fn decode(bytes: &[u8]) -> Result<WireSpec, TransportError> {
        let mut r = WireReader::new(bytes);
        let input_hw = r.u32()? as usize;
        let in_channels = r.u32()? as usize;
        let num_classes = r.u32()? as usize;
        let width_mult = r.f32()?;
        let leak = r.f32()?;
        let threshold = r.f32()?;
        let surrogate = match (r.u8()?, r.f32()?) {
            (0, width) => Surrogate::Triangle { width },
            (1, slope) => Surrogate::FastSigmoid { slope },
            (2, alpha) => Surrogate::ArcTan { alpha },
            (tag, _) => {
                return Err(TransportError::Frame(format!(
                    "unknown surrogate tag {tag}"
                )))
            }
        };
        let dropout = match (r.u8()?, r.f32()?) {
            (0, _) => None,
            (_, p) => Some(p),
        };
        let seed = r.u64()?;
        let timesteps = r.u32()? as usize;
        r.done()?;
        let mut model = ModelConfig {
            input_hw,
            in_channels,
            num_classes,
            width_mult,
            dropout,
            seed,
            ..ModelConfig::default()
        };
        model.lif.leak = leak;
        model.lif.threshold = threshold;
        model.lif.surrogate = surrogate;
        Ok(WireSpec { model, timesteps })
    }
}

/// Serialize a parameter store as `.skw` v2 record bytes.
fn encode_params(store: &ParamStore) -> Result<Vec<u8>, SkipperError> {
    let mut buf = Vec::new();
    write_records(store.iter().map(|p| (p.name(), p.value())), &mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Cluster configuration
// ---------------------------------------------------------------------------

/// Knobs of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Model topology workers rebuild on join (weights ride with work).
    pub model: ModelConfig,
    /// Workers to wait for before the first iteration dispatches.
    pub expected_workers: usize,
    /// Degradation floor: iterations proceed on fewer workers than
    /// expected, but never fewer than this.
    pub min_workers: usize,
    /// An idle worker silent for longer than this is declared dead.
    pub heartbeat_timeout: Duration,
    /// Deadline for one attempt's outstanding shard results.
    pub work_timeout: Duration,
    /// How long to wait for (re)connecting workers before degrading or
    /// giving up.
    pub connect_timeout: Duration,
    /// Attempt retries per iteration before surfacing an error.
    pub max_attempts: u32,
    /// Send-side fault injection on every accepted connection.
    pub chaos: Option<ChaosConfig>,
}

impl ClusterConfig {
    /// Defaults for `model`: wait for 2 workers, degrade to 1, 3 s
    /// heartbeat deadline, 60 s work deadline, 5 attempts, no chaos.
    pub fn new(model: ModelConfig) -> ClusterConfig {
        ClusterConfig {
            model,
            expected_workers: 2,
            min_workers: 1,
            heartbeat_timeout: Duration::from_secs(3),
            work_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(10),
            max_attempts: 5,
            chaos: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Per-connection bookkeeping for one admitted worker.
struct WorkerConn {
    id: u64,
    channel: Channel,
    last_seen: Instant,
    recorder: FlightRecorder,
}

/// The distributed engine's session-side half: owns the listener and the
/// admitted workers, and runs each attempt of an iteration as a wire
/// executor of the shard protocol.
pub struct Coordinator {
    listener: TcpListenerLink,
    cfg: ClusterConfig,
    timesteps: usize,
    workers: Vec<WorkerConn>,
    next_auto_id: u64,
    ready: bool,
    /// Worker-status board published through the obs server's `/cluster`
    /// endpoint.
    board: Board,
    /// Scoped `GET /cluster` registration on the global router; dropping
    /// it restores whatever the route served before this coordinator.
    _cluster_route: skipper_obs::RouteGuard,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.listener.addr())
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Coordinator-side poll granularity per worker channel.
const POLL: Duration = Duration::from_millis(2);

impl Coordinator {
    /// Bind a TCP coordinator on `addr` (e.g. `127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn listen_tcp(addr: &str, cfg: ClusterConfig) -> Result<Coordinator, SkipperError> {
        let listener = TcpListenerLink::bind(addr, cfg.chaos.clone())?;
        let board: Board = Arc::new(Mutex::new(BTreeMap::new()));
        let route_board = Arc::clone(&board);
        let cluster_route = skipper_obs::global_router().register("GET", "/cluster", move |_req| {
            skipper_obs::Response::ok_json(render_cluster_json(&route_board))
        });
        Ok(Coordinator {
            listener,
            cfg,
            timesteps: 0,
            workers: Vec::new(),
            next_auto_id: 1000,
            ready: false,
            board,
            _cluster_route: cluster_route,
        })
    }

    /// Apply `f` to worker `id`'s status row (created default-initialized
    /// on first sight).
    fn update_status(&self, id: u64, f: impl FnOnce(&mut WorkerStatus)) {
        let mut board = self.board.lock().unwrap_or_else(|p| p.into_inner());
        f(board.entry(id).or_default());
    }

    /// Refresh every live worker's transport counters on the board.
    fn refresh_board_stats(&self) {
        let mut board = self.board.lock().unwrap_or_else(|p| p.into_inner());
        for w in &self.workers {
            let row = board.entry(w.id).or_default();
            row.stats = w.channel.stats();
            row.chaos_injected = w.channel.chaos_injected();
        }
    }

    /// The address workers dial (resolved port for `:0` binds).
    pub fn addr(&self) -> String {
        self.listener.addr().to_string()
    }

    /// The simulation horizon workers are told at handshake.
    pub(crate) fn set_horizon(&mut self, timesteps: usize) {
        self.timesteps = timesteps;
    }

    fn publish_worker_gauge(&self) {
        // gauge_set self-guards on enabled(); no outer check needed.
        skipper_obs::gauge_set("cluster.workers", self.workers.len() as f64);
    }

    /// Accept and handshake pending connections for up to `window`.
    fn accept_for(&mut self, window: Duration) {
        let deadline = Instant::now() + window;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            match self.listener.accept(deadline - now) {
                Ok(channel) => self.admit(channel),
                Err(_) => return,
            }
        }
    }

    /// Handshake one accepted channel: expect Hello, assign an id, send
    /// Welcome with the wire spec. Failures just drop the connection —
    /// the worker's backoff loop will come back.
    fn admit(&mut self, mut channel: Channel) {
        let hello = channel.recv_timeout(Duration::from_secs(2));
        let Ok(Message::Hello {
            worker,
            reconnect,
            ping,
        }) = hello
        else {
            return;
        };
        // Echo the worker's clock probe with our own receive timestamp so
        // it can estimate the coordinator-worker clock offset (NTP-style).
        let pong = (ping, skipper_obs::now_us());
        let id = if worker != 0 && !self.workers.iter().any(|w| w.id == worker) {
            worker
        } else {
            self.next_auto_id += 1;
            self.next_auto_id
        };
        let spec = WireSpec {
            model: self.cfg.model.clone(),
            timesteps: self.timesteps,
        };
        if channel
            .send(&Message::Welcome {
                worker: id,
                spec: spec.encode(),
                pong,
            })
            .is_err()
        {
            return;
        }
        // counter_add and instant! self-guard on enabled().
        if reconnect {
            skipper_obs::counter_add("cluster.reconnects", 1.0);
        }
        skipper_obs::instant!(
            skipper_obs::Level::Info,
            "cluster.worker_joined",
            worker = id,
            reconnect = reconnect,
        );
        let mut recorder = FlightRecorder::new(BLACKBOX_CAP);
        recorder.note("admitted", || {
            format!(
                "\"worker\":{id},\"reconnect\":{reconnect},\"peer\":{}",
                json_str(channel.peer())
            )
        });
        self.update_status(id, |row| {
            row.state = "live";
            row.last_seen_us = skipper_obs::now_us();
            row.lost_reason.clear();
        });
        self.workers.push(WorkerConn {
            id,
            channel,
            last_seen: Instant::now(),
            recorder,
        });
        self.workers.sort_by_key(|w| w.id);
        self.publish_worker_gauge();
    }

    /// Remove worker `id`, counting the death and dumping its flight
    /// recorder to `results/blackbox_<id>.jsonl`.
    fn kill_worker(&mut self, id: u64, why: &str) {
        let Some(pos) = self.workers.iter().position(|w| w.id == id) else {
            self.publish_worker_gauge();
            return;
        };
        let mut w = self.workers.remove(pos);
        // The emitters self-guard on enabled(); only the length check above
        // (did we actually remove someone?) is load-bearing.
        skipper_obs::counter_add("cluster.worker_deaths", 1.0);
        skipper_obs::instant!(
            skipper_obs::Level::Warn,
            "cluster.worker_lost",
            worker = id,
            reason = why,
        );
        let stats = w.channel.stats();
        self.update_status(id, |row| {
            row.state = "lost";
            row.lost_reason = why.to_string();
            row.stats = stats;
            row.chaos_injected = w.channel.chaos_injected();
        });
        w.recorder.note("lost", || {
            format!(
                "\"worker\":{id},\"reason\":{},\"frames_sent\":{},\"frames_received\":{},\
                 \"frame_errors\":{}",
                json_str(why),
                stats.frames_sent,
                stats.frames_received,
                stats.frame_errors
            )
        });
        w.recorder
            .dump(&blackbox_dir().join(format!("blackbox_{id}.jsonl")));
        self.publish_worker_gauge();
    }

    /// Evict idle workers past the heartbeat deadline, admit newcomers,
    /// and wait (up to `connect_timeout`) until enough workers are live:
    /// `expected_workers` before the first dispatch, `min_workers` after.
    /// Proceeds degraded when at least `min_workers` showed up.
    fn ensure_capacity(&mut self) -> Result<(), SkipperError> {
        let stale: Vec<u64> = self
            .workers
            .iter()
            .filter(|w| w.last_seen.elapsed() > self.cfg.heartbeat_timeout)
            .map(|w| w.id)
            .collect();
        for id in stale {
            self.kill_worker(id, "heartbeat deadline missed");
        }
        let floor = self.cfg.min_workers.max(1);
        let want = if self.ready {
            floor
        } else {
            self.cfg.expected_workers.max(floor)
        };
        let deadline = Instant::now() + self.cfg.connect_timeout;
        loop {
            self.accept_for(Duration::from_millis(1));
            if self.workers.len() >= want {
                break;
            }
            if Instant::now() >= deadline {
                if self.workers.len() >= floor {
                    skipper_obs::instant!(
                        skipper_obs::Level::Warn,
                        "cluster.degraded",
                        live = self.workers.len() as u64,
                        wanted = want as u64,
                    );
                    break;
                }
                return Err(SkipperError::WorkerLost {
                    worker: "cluster".into(),
                    detail: format!(
                        "{} live worker(s), need {floor}; none (re)connected within {:?}",
                        self.workers.len(),
                        self.cfg.connect_timeout
                    ),
                });
            }
            self.accept_for(Duration::from_millis(20));
        }
        self.ready = true;
        Ok(())
    }

    /// Send `msg` to worker `id`; a failed send kills the worker.
    fn send_to(&mut self, id: u64, msg: &Message) -> Result<(), String> {
        let Some(w) = self.workers.iter_mut().find(|w| w.id == id) else {
            return Err(format!("worker {id} vanished"));
        };
        w.recorder.note("send", || frame_summary(msg));
        if let Err(e) = w.channel.send(msg) {
            self.kill_worker(id, "send failed");
            return Err(format!("send to worker {id}: {e}"));
        }
        Ok(())
    }

    /// Collect one `(iteration, attempt)`'s shard results, in shard order
    /// — first-wins per shard, stale attempts and unknown shards discarded
    /// — until every shard of `assignment` (worker id per shard) has
    /// answered or the work deadline passes. Dead connections and worker
    /// faults fail the attempt.
    fn collect(
        &mut self,
        iteration: u64,
        attempt: u32,
        assignment: &[u64],
    ) -> Result<Vec<ResultPayload>, String> {
        let deadline = Instant::now() + self.cfg.work_timeout;
        let mut got: Vec<Option<ResultPayload>> = assignment.iter().map(|_| None).collect();
        let mut outstanding = got.len();
        while outstanding > 0 {
            if Instant::now() >= deadline {
                for (id, slot) in assignment.iter().zip(&got) {
                    if slot.is_none() {
                        self.kill_worker(*id, "work deadline missed");
                    }
                }
                return Err(format!(
                    "work deadline passed with {outstanding} shard(s) outstanding"
                ));
            }
            let mut dead: Vec<(u64, String)> = Vec::new();
            let mut fault: Option<String> = None;
            let mut merges: Vec<(u64, MetricsDelta)> = Vec::new();
            for w in self.workers.iter_mut() {
                match w.channel.recv_timeout(POLL) {
                    Ok(msg) => {
                        w.last_seen = Instant::now();
                        w.recorder.note("recv", || frame_summary(&msg));
                        match msg {
                            Message::ShardResult {
                                iteration: i,
                                attempt: a,
                                shard,
                                payload,
                            } if i == iteration && a == attempt => {
                                if let Some(slot @ None) = got.get_mut(shard as usize) {
                                    *slot = Some(payload);
                                    outstanding -= 1;
                                }
                            }
                            // counter_add self-guards on enabled(), so the
                            // arms below match unconditionally.
                            Message::ShardResult { .. } => {
                                skipper_obs::counter_add("cluster.stale_results", 1.0);
                            }
                            Message::Heartbeat {
                                iteration: hb_iter,
                                metrics,
                                ..
                            } => {
                                skipper_obs::counter_add("cluster.heartbeats", 1.0);
                                if let Some(delta) = metrics {
                                    merges.push((w.id, delta));
                                }
                                let mut board =
                                    self.board.lock().unwrap_or_else(|p| p.into_inner());
                                let row = board.entry(w.id).or_default();
                                row.last_seen_us = skipper_obs::now_us();
                                row.iteration = hb_iter;
                            }
                            Message::Fault { worker, detail } => {
                                fault = Some(format!("worker {worker} fault: {detail}"));
                            }
                            _ => {}
                        }
                    }
                    Err(TransportError::Timeout) => {}
                    Err(e) => dead.push((w.id, e.to_string())),
                }
            }
            for (id, delta) in &merges {
                merge_worker_metrics(*id, delta);
            }
            self.refresh_board_stats();
            for (id, why) in &dead {
                self.kill_worker(*id, why);
            }
            if let Some(reason) = fault {
                return Err(reason);
            }
            if dead.iter().any(|(id, _)| assignment.contains(id)) {
                return Err("a worker with assigned shards died".into());
            }
        }
        Ok(got.into_iter().flatten().collect())
    }

    /// Publish an attempt's shard assignment on the `/cluster` board.
    fn note_assignment(&self, assignment: &[u64], iteration: u64, attempt: u32) {
        let mut board = self.board.lock().unwrap_or_else(|p| p.into_inner());
        for w in &self.workers {
            let row = board.entry(w.id).or_default();
            row.iteration = iteration;
            row.attempt = attempt;
            row.shards = (0..assignment.len() as u32)
                .filter(|s| assignment[*s as usize] == w.id)
                .collect();
        }
    }

    /// Run one training iteration across the cluster. Gradients are left
    /// accumulated in `net`'s store, exactly like [`crate::engine`].
    pub(crate) fn run_iteration(
        &mut self,
        net: &mut SpikingNetwork,
        it: &Iteration<'_>,
    ) -> Result<StepResult, SkipperError> {
        shard::reject_lbp_over_wire(it.method)?;
        self.timesteps = it.inputs.len();
        let params = encode_params(net.params())?;
        let mut attempt: u32 = 0;
        loop {
            self.ensure_capacity()?;
            if attempt >= self.cfg.max_attempts {
                return Err(SkipperError::Transport {
                    peer: self.addr(),
                    detail: format!(
                        "iteration {}: retry budget exhausted after {attempt} attempts",
                        it.seed
                    ),
                });
            }
            let mut wire = WireAttempt {
                coordinator: self,
                params: &params,
                assignment: Vec::new(),
            };
            match shard::run_iteration(&mut wire, attempt, net, None, it) {
                Ok(step) => return Ok(step),
                Err(fail) => {
                    attempt += 1;
                    // Both emitters self-guard on enabled().
                    skipper_obs::counter_add("cluster.attempt_retries", 1.0);
                    skipper_obs::instant!(
                        skipper_obs::Level::Warn,
                        "cluster.attempt_retry",
                        iteration = it.seed,
                        attempt = attempt,
                        reason = fail.as_str(),
                    );
                }
            }
        }
    }
}

/// One attempt of an iteration as an executor of the shard protocol: each
/// round's requests become `Work` messages for the assigned workers, and
/// the first result per shard for this `(iteration, attempt)` wins. Both
/// rounds run on one assignment — a round-1 carry lives on the worker
/// that made it — so any loss in between fails the attempt.
struct WireAttempt<'a> {
    coordinator: &'a mut Coordinator,
    /// The iteration's weights, shipped with every round-1 request.
    params: &'a [u8],
    /// The worker id per shard, fixed by the first round.
    assignment: Vec<u64>,
}

impl Executor for WireAttempt<'_> {
    fn round(&mut self, requests: Vec<Request>) -> Result<Vec<ResultPayload>, String> {
        let (iteration, attempt, _) = requests[0].key();
        if self.assignment.is_empty() {
            let live = &self.coordinator.workers; // id-sorted
            self.assignment = (0..requests.len())
                .map(|s| live[s % live.len()].id)
                .collect();
            self.coordinator
                .note_assignment(&self.assignment, iteration, attempt);
        }
        let trace = current_trace_ctx();
        for (request, worker) in requests.into_iter().zip(&self.assignment) {
            // A round-1 message holds only the shard's own rows (sliced
            // here, on the coordinator's thread) plus the weights.
            let params = matches!(request, Request::Single(_) | Request::Forward(_))
                .then(|| self.params.to_vec());
            let msg = Message::Work {
                request: request.into_rows(),
                params,
                trace,
            };
            self.coordinator.send_to(*worker, &msg)?;
        }
        self.coordinator
            .collect(iteration, attempt, &self.assignment)
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        for w in self.workers.iter_mut() {
            let _ = w.channel.send(&Message::Shutdown);
        }
        // `cluster_route` drops with the struct, unregistering `/cluster`.
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Reconnect backoff: bounded exponential with deterministic jitter.
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// First retry delay; doubles each consecutive failure.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Consecutive failed connects before giving up.
    pub max_retries: u32,
    /// Seed of the jitter stream (mixed with the worker id).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            max_retries: 10,
            seed: 7,
        }
    }
}

/// The delay before reconnect attempt `attempt` (0-based):
/// `min(base·2^attempt, max)` plus a jitter draw in `[0, base/2)`.
pub(crate) fn backoff_delay(cfg: &BackoffConfig, attempt: u32, rng: &mut XorShiftRng) -> Duration {
    let exp = cfg
        .base
        .saturating_mul(2u32.saturating_pow(attempt.min(16)))
        .min(cfg.max);
    let jitter_us = (cfg.base.as_micros() as u64 / 2).max(1);
    exp + Duration::from_micros(rng.next_u64() % jitter_us)
}

/// Knobs of [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Proposed worker id (the coordinator may assign another on
    /// collision; the Welcome reply is authoritative).
    pub id: u64,
    /// Chaos plan: only the `kill=W@I` schedule is consumed here — frame
    /// faults live in the connector.
    pub chaos: Option<ChaosConfig>,
    /// Reconnect backoff.
    pub backoff: BackoffConfig,
    /// Idle heartbeat period; must be well under the coordinator's
    /// heartbeat deadline.
    pub heartbeat_interval: Duration,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            id: 0,
            chaos: None,
            backoff: BackoffConfig::default(),
            heartbeat_interval: Duration::from_millis(150),
        }
    }
}

/// What a worker did over its lifetime (for logs and tests).
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Distinct iterations this worker computed shards for.
    pub iterations: u64,
    /// Shard dispatches completed (phase A and B count separately).
    pub shards: u64,
    /// Successful reconnects after a lost connection.
    pub reconnects: u64,
    /// True when the chaos kill schedule terminated this worker.
    pub killed: bool,
}

/// Serve shard work from a coordinator until Shutdown (or a chaos kill):
/// connect (with backoff), handshake, rebuild the model from the wire
/// spec, then loop — heartbeating while idle, computing shards on work,
/// reconnecting on any torn or poisoned connection.
///
/// # Errors
///
/// [`SkipperError::Transport`] when the reconnect budget is exhausted.
pub fn run_worker(
    connector: &mut TcpConnector,
    opts: &WorkerOptions,
) -> Result<WorkerReport, SkipperError> {
    let mut report = WorkerReport::default();
    // Join the profiler's thread census: a cluster worker spends most of
    // its life blocked on the coordinator, and samples should say so.
    skipper_obs::profile::touch_thread();
    let mut rng = XorShiftRng::new(opts.backoff.seed ^ opts.id.wrapping_mul(0x9E37)); // jitter only
    let mut connect_attempt: u32 = 0;
    let mut was_connected = false;
    // Persists across reconnects so a rejoining worker never re-ships
    // already-federated totals as fresh deltas.
    let mut shadow = MetricShadow::default();
    // The worker's own flight recorder; dumped on a chaos kill, on an
    // exhausted reconnect budget, and (via the guard) on a panicking
    // unwind, as `blackbox_<id>_self.jsonl` (the `_self` suffix keeps it
    // apart from the coordinator's dump for the same worker).
    let mut recorder = WorkerRecorder {
        id: opts.id,
        rec: FlightRecorder::new(BLACKBOX_CAP),
    };
    loop {
        if connect_attempt > opts.backoff.max_retries {
            recorder.rec.note("exhausted", || {
                format!("\"worker\":{},\"attempts\":{connect_attempt}", recorder.id)
            });
            recorder.dump_self();
            skipper_obs::flush();
            return Err(SkipperError::Transport {
                peer: connector.peer().to_string(),
                detail: format!(
                    "reconnect budget exhausted after {} attempts",
                    connect_attempt
                ),
            });
        }
        if connect_attempt > 0 {
            let delay = backoff_delay(&opts.backoff, connect_attempt - 1, &mut rng);
            // counter_add self-guards on enabled().
            skipper_obs::counter_add("cluster.backoff_retries", 1.0);
            std::thread::sleep(delay);
        }
        let Ok(mut channel) = connector.connect_channel() else {
            connect_attempt += 1;
            continue;
        };
        // Clock probe: our send timestamp rides in Hello; the coordinator
        // echoes it with its own receive timestamp in Welcome.
        if channel
            .send(&Message::Hello {
                worker: opts.id,
                reconnect: was_connected,
                ping: skipper_obs::now_us(),
            })
            .is_err()
        {
            connect_attempt += 1;
            continue;
        }
        let Ok(Message::Welcome {
            worker: id,
            spec,
            pong: (t1, t2),
        }) = channel.recv_timeout(Duration::from_secs(10))
        else {
            connect_attempt += 1;
            continue;
        };
        let t3 = skipper_obs::now_us();
        // NTP-style: assume symmetric paths; the coordinator stamped t2
        // between our t1 and t3, so offset = t2 - midpoint(t1, t3)
        // estimates (coordinator clock - worker clock). The stitcher
        // shifts this worker's timestamps by +offset. Both emitters
        // self-guard on enabled().
        let offset = (t2 as i64).wrapping_sub((t1.saturating_add(t3) / 2) as i64);
        skipper_obs::gauge_set("cluster.clock_offset_us", offset as f64);
        skipper_obs::instant!(
            skipper_obs::Level::Info,
            "cluster.clock_sync",
            worker = id,
            offset_us = offset,
            rtt_us = t3.saturating_sub(t1),
        );
        // Carve a private span-id range so ids from this process never
        // collide with the coordinator's (or other workers') in a stitched
        // multi-process trace.
        skipper_obs::namespace_span_ids(id << 40);
        let Ok(spec) = WireSpec::decode(&spec) else {
            connect_attempt += 1;
            continue;
        };
        if was_connected {
            report.reconnects += 1;
        }
        was_connected = true;
        recorder.id = id;
        recorder.rec.note("connected", || {
            format!("\"worker\":{id},\"reconnect\":{was_connected}")
        });
        match serve(
            &mut channel,
            id,
            &spec,
            opts,
            &mut report,
            &mut shadow,
            &mut recorder.rec,
        ) {
            ServeEnd::Shutdown => {
                skipper_obs::flush();
                return Ok(report);
            }
            ServeEnd::Killed => {
                report.killed = true;
                recorder.rec.note("killed", || {
                    format!("\"worker\":{id},\"iteration\":{}", report.iterations)
                });
                recorder.dump_self();
                skipper_obs::flush();
                return Ok(report);
            }
            ServeEnd::Reconnect => connect_attempt = 1,
        }
    }
}

/// Owns a worker's [`FlightRecorder`] and dumps it if the thread unwinds
/// with the recorder still alive — the crash path that can't reach an
/// explicit dump call.
struct WorkerRecorder {
    id: u64,
    rec: FlightRecorder,
}

impl WorkerRecorder {
    fn dump_self(&self) {
        self.rec
            .dump(&blackbox_dir().join(format!("blackbox_{}_self.jsonl", self.id)));
    }
}

impl Drop for WorkerRecorder {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.rec.note("panic", || format!("\"worker\":{}", self.id));
            self.dump_self();
            skipper_obs::flush();
        }
    }
}

/// Why one connection's serve loop ended.
enum ServeEnd {
    Shutdown,
    Killed,
    Reconnect,
}

/// Open the `worker_task` span for one dispatch, parented under the
/// coordinator's `iteration` span when the frame carried a trace context
/// (remote parent ids resolve after [`skipper_obs::namespace_span_ids`]
/// keeps the id spaces disjoint). Spans the shard cores open underneath
/// nest here via the thread-local stack, exactly like the in-process
/// engine's pool.
fn worker_task_span(
    worker: u64,
    iteration: u64,
    attempt: u32,
    shard: u32,
    trace: Option<TraceCtx>,
) -> skipper_obs::SpanGuard {
    if !skipper_obs::enabled() {
        return skipper_obs::SpanGuard::disabled();
    }
    skipper_obs::SpanGuard::enter_with_parent(
        "worker_task",
        vec![
            ("worker", worker.into()),
            ("iteration", iteration.into()),
            ("attempt", attempt.into()),
            ("shard", shard.into()),
        ],
        trace.map(|t| t.parent),
    )
}

/// Serve one established connection until it drops or the coordinator
/// says Shutdown.
fn serve(
    channel: &mut Channel,
    id: u64,
    spec: &WireSpec,
    opts: &WorkerOptions,
    report: &mut WorkerReport,
    shadow: &mut MetricShadow,
    recorder: &mut FlightRecorder,
) -> ServeEnd {
    let mut worker = ShardWorker::new(custom_net(&spec.model), None);
    let mut last_iter: u64 = 0;
    let kill = opts.chaos.as_ref().and_then(|c| c.kill);
    loop {
        let msg = match channel.recv_timeout(opts.heartbeat_interval) {
            Ok(msg) => msg,
            Err(TransportError::Timeout) => {
                // Idle beacon doubles as the metric-federation carrier.
                let metrics = skipper_obs::enabled()
                    .then(|| shadow.delta(skipper_obs::registry().snapshot()))
                    .flatten();
                if channel
                    .send(&Message::Heartbeat {
                        worker: id,
                        iteration: last_iter,
                        metrics,
                    })
                    .is_err()
                {
                    return ServeEnd::Reconnect;
                }
                continue;
            }
            Err(_) => return ServeEnd::Reconnect,
        };
        recorder.note("recv", || frame_summary(&msg));
        let (request, params, trace) = match msg {
            Message::Shutdown => return ServeEnd::Shutdown,
            Message::Work {
                request,
                params,
                trace,
            } => (request, params, trace),
            _ => continue,
        };
        let (iteration, attempt, shard) = request.key();
        if matches!(kill, Some((kw, ki)) if kw == id && iteration >= ki) {
            return ServeEnd::Killed;
        }
        if iteration != last_iter {
            last_iter = iteration;
            report.iterations += 1;
        }
        let task = worker_task_span(id, iteration, attempt, shard, trace);
        let outcome = match params {
            Some(params) => apply_wire_params(&mut worker.net, &params),
            None => Ok(()),
        }
        .and_then(|()| worker.handle(request));
        drop(task);
        let reply = match outcome {
            Ok(payload) => {
                report.shards += 1;
                Message::ShardResult {
                    iteration,
                    attempt,
                    shard,
                    payload,
                }
            }
            Err(detail) => Message::Fault { worker: id, detail },
        };
        if channel.send(&reply).is_err() {
            return ServeEnd::Reconnect;
        }
    }
}

/// Overwrite the worker net's weights from `.skw` record bytes.
fn apply_wire_params(net: &mut SpikingNetwork, params: &[u8]) -> Result<(), String> {
    let records =
        read_params(&mut &params[..]).map_err(|e| format!("params decode failed: {e}"))?;
    apply_records(net.params_mut(), records).map_err(|e| format!("params apply failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::LifConfig;

    #[test]
    fn wire_spec_roundtrips_every_field() {
        let spec = WireSpec {
            model: ModelConfig {
                input_hw: 8,
                in_channels: 2,
                num_classes: 11,
                width_mult: 0.25,
                lif: LifConfig {
                    leak: 0.8,
                    threshold: 1.25,
                    surrogate: Surrogate::ArcTan { alpha: 2.0 },
                },
                dropout: Some(0.1),
                seed: 0xBEEF,
            },
            timesteps: 12,
        };
        let back = WireSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back.encode(), spec.encode(), "roundtrip is stable");
        assert_eq!(back.model.num_classes, 11);
        assert_eq!(back.model.seed, 0xBEEF);
        assert_eq!(back.model.dropout, Some(0.1));
        assert!(matches!(
            back.model.lif.surrogate,
            Surrogate::ArcTan { alpha } if alpha == 2.0
        ));
        assert_eq!(back.timesteps, 12);
        let no_dropout = WireSpec {
            model: ModelConfig {
                dropout: None,
                ..spec.model.clone()
            },
            timesteps: 4,
        };
        let back = WireSpec::decode(&no_dropout.encode()).unwrap();
        assert_eq!(back.model.dropout, None);
        assert_eq!(back.timesteps, 4);
        assert!(WireSpec::decode(&spec.encode()[..9]).is_err());
    }

    #[test]
    fn backoff_grows_is_capped_and_jitters_deterministically() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            max_retries: 8,
            seed: 3,
        };
        let mut rng = XorShiftRng::new(1);
        let delays: Vec<Duration> = (0..8).map(|a| backoff_delay(&cfg, a, &mut rng)).collect();
        // Exponential envelope up to the cap (jitter < base/2 can't mask a doubling).
        assert!(delays[1] > delays[0]);
        assert!(delays[3] > delays[2]);
        for d in &delays[5..] {
            assert!(*d >= Duration::from_millis(200));
            assert!(*d < Duration::from_millis(206));
        }
        // Same rng seed → same jitter sequence.
        let mut r1 = XorShiftRng::new(9);
        let mut r2 = XorShiftRng::new(9);
        for a in 0..6 {
            assert_eq!(
                backoff_delay(&cfg, a, &mut r1),
                backoff_delay(&cfg, a, &mut r2)
            );
        }
    }

    #[test]
    fn histogram_deltas_ship_the_exact_sum() {
        let registry = skipper_obs::Registry::new();
        let mut shadow = MetricShadow::default();
        let mut heartbeat = |value: f64| {
            registry.observe("shard_us", value);
            let delta = shadow.delta(registry.snapshot()).unwrap();
            let (_, h) = delta.histograms.into_iter().next().unwrap();
            (h.sum, h.count)
        };
        assert_eq!(heartbeat(1.0), (1.0, 1));
        assert_eq!(heartbeat(100.0), (100.0, 1));
    }

    #[test]
    fn cluster_addr_env_is_read_when_set() {
        // Avoid mutating the process env (tests run in parallel): just
        // check the parse contract via the public constant.
        assert_eq!(CLUSTER_ADDR_ENV, "SKIPPER_CLUSTER_ADDR");
    }
}
