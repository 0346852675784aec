//! The gateway itself: HTTP handlers, the request queue, and the
//! micro-batcher thread.
//!
//! # Request life cycle
//!
//! ```text
//! POST /v1/predict
//!   └─ decode (PredictRequest::from_json)
//!      + validate geometry                → 400 bad_request
//!   └─ admission (token bucket)           → 400 unknown tenant
//!                                         → 429 rate_limited
//!   └─ queue admission (capacity)         → 503 overloaded
//!   └─ enqueue, block on a response channel
//!        batcher: coalesce up to max_batch compatible requests, but
//!        dispatch no later than min(oldest.enqueued + max_delay,
//!        earliest deadline) — batching never delays a request past its
//!        deadline
//!   └─ predict on the pool's current session, split per-row
//!   └─ serialize, 200 with logits/class   → 503 deadline when unmet
//! ```
//!
//! Requests are **compatible** (may share a micro-batch) when they agree
//! on timestep count and per-step shape; the batch is their row-wise
//! concatenation, so with skipping disabled each row's logits are
//! bit-identical to a solo `InferSession::predict` on that sample. With
//! skipping enabled the SST is computed over the whole micro-batch —
//! replicas seeing the same batch still answer identically.

use crate::api::{PredictRequest, PredictResponse, TenantStatus, TenantsResponse};
use crate::config::GatewayConfig;
use crate::lock_unpoisoned;
use crate::model::ModelPool;
use crate::slo::SloEngine;
use crate::tenancy::{Admission, AdmitError};
use skipper_obs::{
    counter_add, gauge_set, labeled, observe, observe_with_exemplar, span, HttpServer, Request,
    Response, RouteGuard, Router,
};
use skipper_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra time a blocked handler allows past the deadline for a batch
/// that was *dispatched* in time to finish executing.
const EXECUTION_GRACE: Duration = Duration::from_secs(30);

/// How far before the earliest queued deadline the batcher stops
/// coalescing and dispatches what it has. Without this lead the window
/// wait would wake exactly *at* the deadline and the request would be
/// shed instead of served.
const DISPATCH_LEAD: Duration = Duration::from_millis(5);

/// Why a queued request was answered without a prediction.
enum Shed {
    /// Still queued at its deadline (or no response in time).
    Deadline,
    /// The gateway is stopping.
    Shutdown,
    /// The model rejected the batch (shape drift after a reload, …).
    Model(String),
}

/// A job's answer, with the instant its batch finished executing: the
/// handler's `write` phase starts there.
type JobResult = Result<(PredictResponse, Instant), Shed>;

/// One admitted request waiting for a micro-batch slot.
struct Job {
    /// Per-timestep `[1, …]` tensors.
    inputs: Vec<Tensor>,
    /// When the job was pushed onto the queue; `queue_wait` starts here.
    enqueued: Instant,
    /// Arrival plus the request's budget.
    deadline: Instant,
    respond: mpsc::Sender<JobResult>,
    /// The handler's `gateway_request` span id (0 when tracing is off) —
    /// becomes the exemplar on the phase histograms this job feeds.
    span: u64,
}

/// Record one request's time inside `phase`, remembering `span` as the
/// bucket's exemplar so a flame-graph/trace lookup can start from the
/// histogram.
fn phase_wall(phase: &str, wall: Duration, span: u64) {
    observe_with_exemplar(
        &labeled("serve.phase_wall_us", "phase", phase),
        wall.as_secs_f64() * 1e6,
        span,
    );
}

struct Inner {
    cfg: GatewayConfig,
    pool: ModelPool,
    admission: Admission,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

/// The running gateway: routes registered, batcher (and reloader, for a
/// watching pool) threads live. Dropping it sheds queued requests with a
/// typed `shutdown` reason, joins the threads and unregisters the routes.
pub struct Gateway {
    inner: Arc<Inner>,
    router: Arc<Router>,
    routes: Vec<RouteGuard>,
    servers: Vec<HttpServer>,
    batcher: Option<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
    slo: Option<Arc<SloEngine>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("tenants", &self.inner.cfg.tenants.len())
            .field("max_batch", &self.inner.cfg.max_batch)
            .field("servers", &self.servers.len())
            .finish()
    }
}

impl Gateway {
    /// Register `POST /v1/predict` + `GET /v1/tenants` (and, with an SLO
    /// configured, `GET /slo`) on `router`, then start the batcher, the
    /// SLO engine, and — for a watching pool — the reload poller.
    ///
    /// Pass [`skipper_obs::global_router()`] to share the process-wide
    /// server with `/metrics` and `/cluster`, or a private router for an
    /// isolated instance (tests run many gateways side by side this way).
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures.
    pub fn start(
        cfg: GatewayConfig,
        pool: ModelPool,
        router: Arc<Router>,
    ) -> std::io::Result<Gateway> {
        let inner = Arc::new(Inner {
            admission: Admission::new(&cfg.tenants),
            cfg,
            pool,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let predict_inner = Arc::clone(&inner);
        let predict = router.register("POST", "/v1/predict", move |req| {
            handle_predict(&predict_inner, req)
        });
        let tenants_inner = Arc::clone(&inner);
        let tenants = router.register("GET", "/v1/tenants", move |_req| {
            handle_tenants(&tenants_inner)
        });
        let mut routes = vec![predict, tenants];
        let slo = inner.cfg.slo.clone().map(|slo_cfg| {
            let engine = Arc::new(SloEngine::start(slo_cfg));
            let slo_engine = Arc::clone(&engine);
            routes.push(router.register("GET", "/slo", move |_req| {
                match serde_json::to_string(&slo_engine.status()) {
                    Ok(json) => Response::ok_json(json),
                    Err(e) => Response::service_unavailable("model_error", &format!("{e:?}")),
                }
            }));
            engine
        });
        let batch_inner = Arc::clone(&inner);
        let batcher = std::thread::Builder::new()
            .name("skipper-serve-batch".into())
            .spawn(move || batcher_loop(&batch_inner))?;
        let reloader = if inner.pool.watches() {
            let reload_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("skipper-serve-reload".into())
                    .spawn(move || reload_loop(&reload_inner))?,
            )
        } else {
            None
        };
        Ok(Gateway {
            inner,
            router,
            routes,
            servers: Vec::new(),
            batcher: Some(batcher),
            reloader,
            slo,
        })
    }

    /// Bind an HTTP listener on `addr` (port 0 picks a free port)
    /// serving this gateway's router — which also exposes whatever else
    /// is registered there (`/metrics`, `/healthz`, …).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let server = HttpServer::bind(addr, Arc::clone(&self.router))?;
        let addr = server.addr();
        self.servers.push(server);
        Ok(addr)
    }

    /// The model pool behind this gateway.
    pub fn pool(&self) -> &ModelPool {
        &self.inner.pool
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Close the front door before stopping the batcher: no listener,
        // no route, no new work.
        self.servers.clear();
        self.routes.clear();
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.cv.notify_all();
        if let Some(t) = self.batcher.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reloader.take() {
            let _ = t.join();
        }
        // Routes are gone, so nothing can read `/slo` while the engine's
        // evaluation thread stops and joins.
        drop(self.slo.take());
    }
}

fn shed(reason: &str) {
    counter_add(&labeled("serve.shed", "reason", reason), 1.0);
}

fn handle_predict(inner: &Arc<Inner>, req: &Request) -> Response {
    // The request span lives until the response is ready, so a profiler
    // sample taken while the handler blocks on the batcher attributes the
    // wait to `gateway_request`; its id rides on the queued job as the
    // phase-histogram exemplar.
    let request_span = span!("gateway_request");
    let start = Instant::now();
    if inner.stop.load(Ordering::Relaxed) {
        return Response::service_unavailable("shutting_down", "gateway is stopping");
    }
    let parsed = match PredictRequest::from_json(&req.body) {
        Ok(p) => p,
        Err(e) => return Response::bad_request(&format!("invalid JSON body: {e}")),
    };
    let inputs = match parsed.to_timestep_tensors() {
        Ok(v) => v,
        Err(reason) => return Response::bad_request(&reason),
    };
    match inner.admission.admit(&parsed.tenant, start) {
        Err(AdmitError::UnknownTenant) => {
            shed("unknown_tenant");
            return Response::bad_request(&format!(
                "tenant {:?} is not configured on this gateway",
                parsed.tenant
            ));
        }
        Err(AdmitError::RateLimited) => {
            shed("rate_limited");
            return Response::too_many_requests(&format!(
                "tenant {:?} is over its rate budget",
                parsed.tenant
            ));
        }
        Ok(()) => {}
    }
    let budget = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(inner.cfg.deadline);
    let deadline = start + budget;
    let (tx, rx) = mpsc::channel();
    let enqueued = {
        let mut q = lock_unpoisoned(&inner.queue);
        if q.len() >= inner.cfg.queue_cap {
            drop(q);
            shed("queue_full");
            return Response::service_unavailable("overloaded", "request queue is full");
        }
        let enqueued = Instant::now();
        q.push_back(Job {
            inputs,
            enqueued,
            deadline,
            respond: tx,
            span: request_span.id(),
        });
        gauge_set("serve.queue_depth", q.len() as f64);
        enqueued
    };
    inner.cv.notify_all();
    phase_wall(
        "parse",
        enqueued.saturating_duration_since(start),
        request_span.id(),
    );
    counter_add(&labeled("serve.requests", "tenant", &parsed.tenant), 1.0);

    let wait = deadline.saturating_duration_since(Instant::now()) + EXECUTION_GRACE;
    match rx.recv_timeout(wait) {
        Ok(Ok((body, executed))) => match serde_json::to_string(&body) {
            Ok(json) => {
                let written = Instant::now();
                let id = request_span.id();
                phase_wall("write", written.saturating_duration_since(executed), id);
                let wall = written.saturating_duration_since(start).as_secs_f64() * 1e6;
                observe_with_exemplar("serve.request_wall_us", wall, id);
                Response::ok_json(json)
            }
            Err(e) => Response::service_unavailable("model_error", &format!("{e:?}")),
        },
        // The batcher already counted this shed.
        Ok(Err(Shed::Deadline)) => {
            Response::service_unavailable("deadline", "not dispatched before the deadline")
        }
        Ok(Err(Shed::Shutdown)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            Response::service_unavailable("shutting_down", "gateway is stopping")
        }
        Ok(Err(Shed::Model(reason))) => Response::service_unavailable("model_error", &reason),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            shed("deadline");
            Response::service_unavailable("deadline", "no response before the deadline")
        }
    }
}

fn handle_tenants(inner: &Arc<Inner>) -> Response {
    let tenants = inner
        .admission
        .levels(Instant::now())
        .into_iter()
        .map(|(t, tokens)| TenantStatus {
            name: t.name,
            rate_per_sec: t.rate_per_sec,
            burst: t.burst,
            tokens,
        })
        .collect();
    match serde_json::to_string(&TenantsResponse { tenants }) {
        Ok(json) => Response::ok_json(json),
        Err(e) => Response::service_unavailable("model_error", &format!("{e:?}")),
    }
}

/// Whether two jobs may share a micro-batch: same timestep count and
/// per-step shape.
fn compatible(a: &Job, b: &Job) -> bool {
    a.inputs.len() == b.inputs.len()
        && a.inputs.first().map(|t| t.shape().dims()) == b.inputs.first().map(|t| t.shape().dims())
}

fn wait_on<'a>(
    cv: &Condvar,
    guard: MutexGuard<'a, VecDeque<Job>>,
    dur: Duration,
) -> MutexGuard<'a, VecDeque<Job>> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// Pop the front job plus every compatible one, up to `max_batch`.
fn extract_batch(q: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let Some(front) = q.pop_front() else {
        return Vec::new();
    };
    let mut batch = vec![front];
    let mut i = 0;
    while i < q.len() && batch.len() < max_batch {
        let matches = q
            .get(i)
            .zip(batch.first())
            .is_some_and(|(job, front)| compatible(job, front));
        if matches {
            if let Some(job) = q.remove(i) {
                batch.push(job);
            }
        } else {
            i += 1;
        }
    }
    batch
}

fn batcher_loop(inner: &Arc<Inner>) {
    loop {
        let batch = {
            let mut q = lock_unpoisoned(&inner.queue);
            loop {
                if inner.stop.load(Ordering::Relaxed) {
                    for job in q.drain(..) {
                        shed("shutdown");
                        // lint:allow(blocking): mpsc::Sender::send on an unbounded channel never parks the sender
                        let _ = job.respond.send(Err(Shed::Shutdown));
                    }
                    return;
                }
                let now = Instant::now();
                // Shed everything already past its deadline: predicting
                // for a client that stopped waiting wastes batch slots.
                let mut i = 0;
                while i < q.len() {
                    if q.get(i).is_some_and(|j| j.deadline <= now) {
                        if let Some(job) = q.remove(i) {
                            shed("deadline");
                            // lint:allow(blocking): mpsc::Sender::send on an unbounded channel never parks the sender
                            let _ = job.respond.send(Err(Shed::Deadline));
                        }
                    } else {
                        i += 1;
                    }
                }
                let Some(front) = q.front() else {
                    // lint:allow(blocking): condvar protocol — wait_timeout atomically releases serve.queue while parked
                    q = wait_on(&inner.cv, q, Duration::from_millis(50));
                    continue;
                };
                // Dispatch when the batch is full, the coalescing window
                // closed, or someone's deadline approaches — whichever
                // comes first. Batching must never push a response past
                // its request's deadline.
                let window_end = front.enqueued + inner.cfg.max_delay;
                let earliest_deadline = q.iter().map(|j| j.deadline).min().unwrap_or(window_end);
                let deadline_cutoff = earliest_deadline
                    .checked_sub(DISPATCH_LEAD)
                    .unwrap_or(earliest_deadline);
                let cutoff = window_end.min(deadline_cutoff);
                let ready = q.iter().filter(|j| compatible(j, front)).count();
                if ready >= inner.cfg.max_batch || now >= cutoff {
                    let batch = extract_batch(&mut q, inner.cfg.max_batch);
                    gauge_set("serve.queue_depth", q.len() as f64);
                    break batch;
                }
                // lint:allow(blocking): condvar protocol — wait_timeout atomically releases serve.queue while parked
                q = wait_on(&inner.cv, q, cutoff.saturating_duration_since(now));
            }
        };
        dispatch(inner, &batch);
    }
}

/// Stack the batch row-wise, predict once, split the logits back out.
///
/// Phase attribution happens here, after the handler's `parse` (arrival
/// to queue push): each job's `queue_wait` runs from its push until its
/// batch is picked up, `batch_wait` covers the row-stacking (time spent
/// because of company), and `execute` runs from there to the end of the
/// forward pass, the instant the handler's `write` phase starts from.
/// Adjacent phases share their boundary instant, so a request's five
/// phases sum to its `serve.request_wall_us`. Each phase histogram carries
/// span-id exemplars — the jobs' request spans for the parse, the waits
/// and the write, the `execute` span for the model time.
fn dispatch(inner: &Arc<Inner>, batch: &[Job]) {
    let Some(front) = batch.first() else {
        return;
    };
    let _batch_span = span!("gateway_batch");
    let picked_up = Instant::now();
    for job in batch {
        phase_wall(
            "queue_wait",
            picked_up.saturating_duration_since(job.enqueued),
            job.span,
        );
    }
    let rows = batch.len();
    let timesteps = front.inputs.len();
    let mut steps: Vec<Tensor> = Vec::with_capacity(timesteps);
    for t in 0..timesteps {
        let mut dims = Vec::new();
        let mut data = Vec::new();
        for job in batch {
            if let Some(x) = job.inputs.get(t) {
                if dims.is_empty() {
                    dims = x.shape().dims().to_vec();
                }
                data.extend_from_slice(x.data());
            }
        }
        if let Some(d0) = dims.first_mut() {
            *d0 = rows;
        }
        steps.push(Tensor::from_vec(data, dims));
    }
    let stacked = Instant::now();
    for job in batch {
        phase_wall("batch_wait", stacked - picked_up, job.span);
    }
    // Hold one Arc across the whole batch: a concurrent hot reload swaps
    // the pool pointer without tearing this prediction.
    let session = inner.pool.current();
    counter_add("serve.batches", 1.0);
    observe("serve.batch_size", rows as f64);
    let execute_span = span!("execute");
    let result = session.predict(&steps);
    let executed = Instant::now();
    phase_wall("execute", executed - stacked, execute_span.id());
    drop(execute_span);
    match result {
        Ok(pred) => {
            counter_add("serve.steps_evaluated", pred.evaluated_steps as f64);
            counter_add("serve.steps_skipped", pred.skipped_steps as f64);
            let classes = pred.logits.shape().dims().last().copied().unwrap_or(0);
            for (i, job) in batch.iter().enumerate() {
                let logits = pred
                    .logits
                    .data()
                    .get(i * classes..(i + 1) * classes)
                    .map(<[f32]>::to_vec)
                    .unwrap_or_default();
                let response = PredictResponse {
                    class: pred.classes.get(i).copied().unwrap_or(0),
                    logits,
                    evaluated_steps: pred.evaluated_steps,
                    skipped_steps: pred.skipped_steps,
                    batch_size: rows,
                };
                let _ = job.respond.send(Ok((response, executed)));
            }
        }
        Err(e) => {
            let reason = format!("{e}");
            for job in batch {
                let _ = job.respond.send(Err(Shed::Model(reason.clone())));
            }
        }
    }
}

/// Poll the watched `.skw` at the configured interval, in short slices
/// so shutdown stays prompt.
fn reload_loop(inner: &Arc<Inner>) {
    let slice = Duration::from_millis(25);
    loop {
        let mut waited = Duration::ZERO;
        while waited < inner.cfg.reload_poll {
            if inner.stop.load(Ordering::Relaxed) {
                return;
            }
            let step = slice.min(inner.cfg.reload_poll - waited);
            std::thread::sleep(step);
            waited += step;
        }
        // `serve.model_reloads` is counted inside the pool on success.
        if inner.pool.poll_reload().is_err() {
            counter_add("serve.model_reload_errors", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantConfig;
    use skipper_core::InferSession;
    use skipper_obs::Router;
    use skipper_snn::{custom_net, ModelConfig};

    /// Observations of `name` in `events` with `exemplar`, as
    /// `(thread, value)`. The registry's histograms are process-wide, so
    /// a test that read their counts would also count other tests'
    /// batches.
    fn observed(events: &[skipper_obs::Event], name: &str, exemplar: u64) -> Vec<(u64, f64)> {
        events
            .iter()
            .filter(|e| e.name == name)
            .filter(|e| {
                e.fields.iter().any(|(key, value)| {
                    *key == "exemplar"
                        && matches!(value, skipper_obs::FieldValue::U64(id) if *id == exemplar)
                })
            })
            .filter_map(|e| match e.kind {
                skipper_obs::EventKind::Observe { value } => Some((e.tid, value)),
                _ => None,
            })
            .collect()
    }

    /// Observations of `phase` in `events` whose exemplar is one of
    /// `spans`.
    fn phase_count(events: &[skipper_obs::Event], phase: &str, spans: &[u64]) -> usize {
        let name = labeled("serve.phase_wall_us", "phase", phase);
        spans
            .iter()
            .map(|&span| observed(events, &name, span).len())
            .sum()
    }

    #[test]
    fn every_answered_request_records_one_parse_phase() {
        let (ring, events) = skipper_obs::RingBufferSink::new(1 << 20);
        let sink = skipper_obs::add_sink(Box::new(ring));
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let cfg = GatewayConfig {
            tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
            max_batch: 2,
            max_delay: Duration::from_millis(2),
            ..GatewayConfig::default()
        };
        let router = Arc::new(Router::new());
        let gateway = Gateway::start(
            cfg,
            ModelPool::fixed(InferSession::new(net)),
            Arc::clone(&router),
        )
        .unwrap();
        let body = |tenant: &str| {
            serde_json::to_string(&PredictRequest {
                tenant: tenant.to_string(),
                timesteps: 2,
                shape: vec![3, 8, 8],
                inputs: vec![1.0; 2 * 3 * 8 * 8],
                deadline_ms: None,
            })
            .unwrap()
            .into_bytes()
        };
        // Four answered, and three refused before the queue push.
        let mut bodies = vec![body("acme"); 4];
        bodies.push(body("nobody"));
        bodies.push(b"{not json".to_vec());
        bodies.push(body("acme")[..40].to_vec());
        // Each request runs on a thread of its own; its tid finds its
        // `gateway_request` span in the capture.
        let answers: Vec<(u16, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = bodies
                .into_iter()
                .map(|body| {
                    let router = &router;
                    s.spawn(move || {
                        let status = router
                            .dispatch(&skipper_obs::Request {
                                method: "POST".into(),
                                path: "/v1/predict".into(),
                                query: String::new(),
                                body,
                            })
                            .status;
                        (status, skipper_obs::current_tid())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(gateway);
        skipper_obs::remove_sink(sink);
        let statuses: Vec<u16> = answers.iter().map(|&(status, _)| status).collect();
        assert_eq!(statuses, [200, 200, 200, 200, 400, 400, 400]);
        let events = events.snapshot();
        let answered: Vec<u64> = answers
            .iter()
            .filter(|&&(status, _)| status == 200)
            .flat_map(|&(_, tid)| events.iter().filter(move |e| e.tid == tid))
            .filter(|e| e.name == "gateway_request")
            .filter_map(|e| match e.kind {
                skipper_obs::EventKind::SpanBegin { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(answered.len(), 4);
        for phase in ["parse", "queue_wait", "batch_wait", "write"] {
            assert_eq!(phase_count(&events, phase, &answered), 4, "{phase}");
        }
    }

    /// Adjacent phases share their boundary instants, so one request's
    /// parse, queue_wait, batch_wait, execute and write sum to its
    /// `serve.request_wall_us`.
    #[test]
    fn one_requests_phases_sum_to_its_wall_time() {
        let (ring, events) = skipper_obs::RingBufferSink::new(1 << 20);
        let sink = skipper_obs::add_sink(Box::new(ring));
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let cfg = GatewayConfig {
            tenants: vec![TenantConfig::new("acme", 1000.0, 1000.0)],
            max_batch: 1,
            ..GatewayConfig::default()
        };
        let router = Arc::new(Router::new());
        let gateway = Gateway::start(
            cfg,
            ModelPool::fixed(InferSession::new(net)),
            Arc::clone(&router),
        )
        .unwrap();
        let body = serde_json::to_string(&PredictRequest {
            tenant: "acme".to_string(),
            timesteps: 2,
            shape: vec![3, 8, 8],
            inputs: vec![1.0; 2 * 3 * 8 * 8],
            deadline_ms: None,
        })
        .unwrap()
        .into_bytes();
        // The request runs on a thread of its own; its tid finds its
        // `gateway_request` span in the capture.
        let (status, tid) = std::thread::scope(|s| {
            s.spawn(|| {
                let request = skipper_obs::Request {
                    method: "POST".into(),
                    path: "/v1/predict".into(),
                    query: String::new(),
                    body,
                };
                (router.dispatch(&request).status, skipper_obs::current_tid())
            })
            .join()
            .unwrap()
        });
        drop(gateway);
        skipper_obs::remove_sink(sink);
        assert_eq!(status, 200);
        let events = events.snapshot();
        let span = events
            .iter()
            .filter(|e| e.tid == tid && e.name == "gateway_request")
            .find_map(|e| match e.kind {
                skipper_obs::EventKind::SpanBegin { id, .. } => Some(id),
                _ => None,
            })
            .expect("the request's span");
        let phase = |name: &str| {
            let found = observed(
                &events,
                &labeled("serve.phase_wall_us", "phase", name),
                span,
            );
            assert_eq!(found.len(), 1, "{name}: {found:?}");
            found[0]
        };
        let (batcher, queue_wait) = phase("queue_wait");
        // `execute` carries the batch's span; this gateway's batcher ran
        // one batch, the request's own.
        let execute_name = labeled("serve.phase_wall_us", "phase", "execute");
        let execute: Vec<f64> = events
            .iter()
            .filter(|e| e.tid == batcher && e.name == execute_name)
            .filter_map(|e| match e.kind {
                skipper_obs::EventKind::Observe { value } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(execute.len(), 1, "{execute:?}");
        let phases = [
            phase("parse").1,
            queue_wait,
            phase("batch_wait").1,
            execute[0],
            phase("write").1,
        ];
        let wall = observed(&events, "serve.request_wall_us", span);
        assert_eq!(wall.len(), 1, "{wall:?}");
        let sum: f64 = phases.iter().sum();
        assert!(
            (sum - wall[0].1).abs() <= 1.0,
            "phases {phases:?} sum to {sum} µs, the request took {} µs",
            wall[0].1
        );
    }

    /// The batcher thread runs `dispatch` for as long as the gateway lives
    /// and never drains an op log, so the prediction must book none.
    #[test]
    fn dispatch_leaves_no_op_records_on_its_thread() {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let cfg = GatewayConfig::default();
        let inner = Arc::new(Inner {
            admission: Admission::new(&cfg.tenants),
            cfg,
            pool: ModelPool::fixed(InferSession::new(net)),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let (respond, answers) = mpsc::channel();
        let job = Job {
            inputs: vec![Tensor::ones([1, 3, 8, 8]); 2],
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(60),
            respond,
            span: 0,
        };
        skipper_memprof::take_op_log();
        dispatch(&inner, &[job]);
        assert!(matches!(answers.recv(), Ok(Ok(_))));
        assert_eq!(skipper_memprof::take_op_log().len(), 0);
    }
}
