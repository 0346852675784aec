//! The in-process executor of the shard protocol: a persistent
//! [`WorkerPool`] of named threads running [`ShardWorker::handle`].
//!
//! The paper's testbed parallelizes across the batch dimension (Fig. 3's
//! throughput numbers assume it). `shard.rs` owns the protocol and
//! everything that decides a bit of the result; this module adds what is
//! particular to running it on threads of this process:
//!
//! * **Thread affinity.** Shard `i` runs on pool thread `i % n` in both
//!   rounds, and the worker state travels with the work — into the job,
//!   back with the report while a carry is parked — so every tensor a
//!   worker makes is created *and dropped* on its thread, including when a
//!   job fails or panics. Panics are re-raised on the session thread.
//! * **No copies, no encoding.** Requests cross as storage-sharing handles
//!   (networks via [`SpikingNetwork::share`], the batch as `Tensor` clones)
//!   and are released before a job reports back, so the session thread is
//!   always the one that frees the storage it allocated; gradients leave as
//!   untracked raw vectors.
//! * **Memory booking.** The memory tracker and the op log are
//!   thread-local; each worker's peak snapshot and op log are returned for
//!   per-worker attribution ([`EngineOutcome::worker_mem`]).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::error::SkipperError;
use crate::lbp::LocalClassifiers;
use crate::shard::{self, Executor, Iteration, Request, ResultPayload, ShardWorker};
use crate::windowed::StepResult;
use skipper_memprof::{self as mp, MemorySnapshot, OpLog};
use skipper_snn::SpikingNetwork;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One queued unit of work: the closure plus the span context captured on
/// the submitting thread, so the worker's spans nest under the dispatching
/// `iteration` span in the trace.
struct Task {
    ctx: skipper_obs::SpanContext,
    run: Job,
}

/// A persistent pool of named worker threads fed over per-worker channels.
///
/// Telemetry (all gated on [`skipper_obs::enabled`]): every task runs
/// inside a `worker_task` span adopted into the submitter's span context;
/// `engine.queue_depth` gauges (total and per worker) track pending tasks,
/// and `engine.worker_utilization` / `engine.worker_idle_us` /
/// `engine.worker_busy_us` expose each thread's lifetime busy fraction.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Task>>,
    depths: Vec<Arc<AtomicUsize>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads named `skipper-worker-{i}`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error when a worker thread cannot be spawned
    /// (thread exhaustion / memory pressure at construction time).
    #[expect(clippy::disallowed_methods, reason = "busy/idle telemetry only")]
    pub fn new(workers: usize) -> Result<WorkerPool, SkipperError> {
        assert!(workers > 0, "a worker pool needs at least one thread");
        let mut senders = Vec::with_capacity(workers);
        let mut depths = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel::<Task>();
            let depth = Arc::new(AtomicUsize::new(0));
            let worker_depth = Arc::clone(&depth);
            let handle = thread::Builder::new()
                .name(format!("skipper-worker-{i}"))
                .spawn(move || {
                    let mut idle_us = 0u64;
                    let mut busy_us = 0u64;
                    let mut last_done = std::time::Instant::now();
                    while let Ok(task) = rx.recv() {
                        let started = std::time::Instant::now();
                        idle_us += started.duration_since(last_done).as_micros() as u64;
                        let pending = worker_depth.fetch_sub(1, Ordering::Relaxed) - 1;
                        {
                            let _ctx = task.ctx.adopt();
                            let _span = skipper_obs::span!(
                                "worker_task",
                                worker = i as u64,
                                pending = pending as u64
                            );
                            (task.run)();
                        }
                        last_done = std::time::Instant::now();
                        busy_us += last_done.duration_since(started).as_micros() as u64;
                        if skipper_obs::enabled() {
                            let lifetime = (busy_us + idle_us).max(1);
                            skipper_obs::gauge_set(
                                &skipper_obs::labeled("engine.worker_utilization", "worker", i),
                                busy_us as f64 / lifetime as f64,
                            );
                            skipper_obs::gauge_set(
                                &skipper_obs::labeled("engine.worker_idle_us", "worker", i),
                                idle_us as f64,
                            );
                            skipper_obs::gauge_set(
                                &skipper_obs::labeled("engine.worker_busy_us", "worker", i),
                                busy_us as f64,
                            );
                        }
                    }
                })
                .map_err(SkipperError::Io)?;
            senders.push(tx);
            depths.push(depth);
            handles.push(handle);
        }
        Ok(WorkerPool {
            senders,
            depths,
            handles,
        })
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Queue `job` on worker `worker`. Jobs on one worker run in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Fails when the worker's channel is disconnected — its thread
    /// panicked or was torn down — so the job could not be queued.
    pub fn submit(&self, worker: usize, job: Job) -> Result<(), String> {
        let depth = self.depths[worker].fetch_add(1, Ordering::Relaxed) + 1;
        if skipper_obs::enabled() {
            skipper_obs::gauge_set(
                &skipper_obs::labeled("engine.queue_depth", "worker", worker),
                depth as f64,
            );
            let total: usize = self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum();
            skipper_obs::gauge_set("engine.queue_depth", total as f64);
        }
        self.senders[worker]
            .send(Task {
                ctx: skipper_obs::SpanContext::capture(),
                run: job,
            })
            .map_err(|_| {
                format!(
                    "pool-{worker}: job channel disconnected (worker thread panicked or exited)"
                )
            })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Everything the session needs from one engine iteration.
pub(crate) struct EngineOutcome {
    /// The combined step result (gradients already applied to the store).
    pub step: StepResult,
    /// Per-worker peak-memory snapshots, in worker order.
    pub worker_mem: Vec<MemorySnapshot>,
    /// Merged kernel log of all workers.
    pub ops: OpLog,
}

/// The data-parallel engine: the worker pool the shard protocol runs on.
pub(crate) struct Engine {
    pool: WorkerPool,
}

impl Engine {
    /// An engine with `workers` persistent threads.
    ///
    /// # Errors
    ///
    /// Propagates a worker-thread spawn failure.
    pub fn new(workers: usize) -> Result<Engine, SkipperError> {
        Ok(Engine {
            pool: WorkerPool::new(workers)?,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// Run one training iteration across the pool. Gradients are left
    /// accumulated in `net` (and `aux`), exactly like the unsharded step
    /// functions.
    ///
    /// # Errors
    ///
    /// [`SkipperError::WorkerLost`] when a pool worker's job channel is
    /// disconnected, so the iteration could not be dispatched.
    pub fn run_iteration(
        &self,
        net: &mut SpikingNetwork,
        aux: Option<&mut LocalClassifiers>,
        it: &Iteration<'_>,
    ) -> Result<EngineOutcome, SkipperError> {
        // Only threads that will get a shard hold a network share: an idle
        // share would still be alive when the gradients are applied and
        // force a copy-on-write of every accumulator.
        let batch = it.inputs[0].shape()[0];
        let active = shard::shard_plan(batch).len().min(self.pool.len());
        let mut run = PoolRun {
            pool: &self.pool,
            workers: (0..active)
                .map(|_| {
                    let aux = aux.as_deref().map(LocalClassifiers::share);
                    Some(ShardWorker::new(net.share(), aux))
                })
                .collect(),
            worker_mem: Vec::new(),
            ops: OpLog::new(),
        };
        let step = shard::run_iteration(&mut run, 0, net, aux, it).map_err(|detail| {
            SkipperError::WorkerLost {
                worker: "pool".into(),
                detail,
            }
        })?;
        Ok(EngineOutcome {
            step,
            worker_mem: run.worker_mem,
            ops: run.ops,
        })
    }
}

/// One iteration's run on the pool: the per-thread worker states between
/// rounds and the memory reports of the threads that finished.
struct PoolRun<'a> {
    pool: &'a WorkerPool,
    /// `workers[w]` is pool thread `w`'s state while it is *not* inside a
    /// job: before round 1, and between the rounds with a carry parked.
    workers: Vec<Option<ShardWorker>>,
    worker_mem: Vec<MemorySnapshot>,
    ops: OpLog,
}

/// What one pool thread reports back from one round.
struct ThreadReport {
    /// `(shard, reply, wall µs)` for each request it ran.
    replies: Vec<(usize, ResultPayload, u64)>,
    /// The worker state, handed back while carries wait for round 2.
    parked: Option<ShardWorker>,
    /// Peak snapshot and op log, once the thread's part of the iteration
    /// is over.
    finished: Option<(MemorySnapshot, OpLog)>,
}

/// The body of one pool job: run `requests` on `worker`, on this thread.
/// Everything the job was given is consumed or dropped here, before the
/// report is sent.
fn run_requests(
    mut worker: ShardWorker,
    requests: Vec<(usize, Request)>,
) -> Result<ThreadReport, String> {
    // Idle on entry means a new iteration starts on this thread; idle on
    // exit means its part of the iteration is over.
    if worker.is_idle() {
        mp::reset_peaks();
        let _ = mp::take_op_log();
    }
    let mut replies = Vec::with_capacity(requests.len());
    for (shard, request) in requests {
        #[expect(clippy::disallowed_methods, reason = "shard_wall_us telemetry only")]
        let started = std::time::Instant::now();
        let reply = worker.handle(request)?;
        replies.push((shard, reply, started.elapsed().as_micros() as u64));
    }
    let (parked, finished) = if worker.is_idle() {
        drop(worker);
        (None, Some((mp::snapshot(), mp::take_op_log())))
    } else {
        (Some(worker), None)
    };
    Ok(ThreadReport {
        replies,
        parked,
        finished,
    })
}

impl Executor for PoolRun<'_> {
    fn round(&mut self, requests: Vec<Request>) -> Result<Vec<ResultPayload>, String> {
        let threads = self.pool.len();
        let phase = requests.first().map_or("train", Request::phase);
        let mut queues: Vec<Vec<(usize, Request)>> = (0..threads).map(|_| Vec::new()).collect();
        for (shard, request) in requests.into_iter().enumerate() {
            queues[shard % threads].push((shard, request));
        }
        let (tx, rx) = channel::<(usize, thread::Result<Result<ThreadReport, String>>)>();
        let mut active = 0usize;
        for (w, mine) in queues.into_iter().enumerate() {
            if mine.is_empty() {
                continue;
            }
            let Some(worker) = self.workers.get_mut(w).and_then(Option::take) else {
                return Err(format!("pool-{w}: no worker state for this round"));
            };
            active += 1;
            let tx = tx.clone();
            self.pool.submit(
                w,
                Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(move || run_requests(worker, mine)));
                    let _ = tx.send((w, out));
                }),
            )?;
        }
        drop(tx);
        let mut reports = Vec::with_capacity(active);
        for _ in 0..active {
            let (w, out) = rx
                .recv()
                .map_err(|_| "a pool thread died without reporting".to_string())?;
            match out {
                Ok(Ok(report)) => reports.push((w, report)),
                Ok(Err(detail)) => return Err(format!("pool-{w}: {detail}")),
                Err(panic) => resume_unwind(panic),
            }
        }
        reports.sort_by_key(|(w, _)| *w);
        let mut replies = Vec::new();
        for (w, report) in reports {
            replies.extend(report.replies);
            self.workers[w] = report.parked;
            if let Some((mem, ops)) = report.finished {
                self.worker_mem.push(mem);
                self.ops.extend(ops);
            }
        }
        replies.sort_by_key(|(shard, ..)| *shard);
        let walls: Vec<u64> = replies.iter().map(|(.., wall)| *wall).collect();
        record_shard_walls(phase, &walls);
        Ok(replies.into_iter().map(|(_, reply, _)| reply).collect())
    }
}

/// Publish per-shard wall times for one dispatch phase: every shard's wall
/// into the `engine.shard_wall_us{phase=…}` histogram, plus an
/// `engine.shard_imbalance{phase=…}` gauge of `(max-min)/max` — 0 means a
/// perfectly balanced plan, values near 1 mean one straggler shard
/// dominated the iteration's critical path.
fn record_shard_walls(phase: &str, walls: &[u64]) {
    if walls.is_empty() || !skipper_obs::enabled() {
        return;
    }
    let hist_key = skipper_obs::labeled("engine.shard_wall_us", "phase", phase);
    for &w in walls {
        skipper_obs::observe(&hist_key, w as f64);
    }
    let max = walls.iter().copied().max().unwrap_or(0);
    let min = walls.iter().copied().min().unwrap_or(0);
    let imbalance = if max == 0 {
        0.0
    } else {
        (max - min) as f64 / max as f64
    };
    skipper_obs::gauge_set(
        &skipper_obs::labeled("engine.shard_imbalance", "phase", phase),
        imbalance,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::sam::{SamMetric, SkipPolicy};
    use crate::shard::reference_step;
    use skipper_snn::{custom_net, ModelConfig};
    use skipper_tensor::{Tensor, XorShiftRng};

    fn setup(seed: u64, batch: usize) -> (SpikingNetwork, Vec<Tensor>, Vec<usize>) {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut rng = XorShiftRng::new(seed);
        let inputs: Vec<Tensor> = (0..8)
            .map(|_| Tensor::rand([batch, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        let labels = (0..batch).map(|i| i % 10).collect();
        (net, inputs, labels)
    }

    fn run(
        engine: &Engine,
        net: &mut SpikingNetwork,
        method: &Method,
        inputs: &[Tensor],
        labels: &[usize],
        seed: u64,
    ) -> EngineOutcome {
        let it = Iteration {
            method,
            inputs,
            labels,
            seed,
            metric: SamMetric::SpikeSum,
            policy: SkipPolicy::SpikeActivity,
        };
        engine.run_iteration(net, None, &it).unwrap()
    }

    #[test]
    fn worker_pool_runs_jobs_in_submission_order() {
        let pool = WorkerPool::new(2).unwrap();
        let (tx, rx) = channel();
        for i in 0..6u32 {
            let tx = tx.clone();
            pool.submit(
                (i % 2) as usize,
                Box::new(move || {
                    let _ = tx.send(i);
                }),
            )
            .unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn engine_bptt_matches_unsharded_loss_sam_and_gradients() {
        let (mut reference, inputs, labels) = setup(11, 6);
        let r = reference_step(&mut reference, &Method::Bptt, &inputs, &labels, 3);
        let engine = Engine::new(2).unwrap();
        let (mut sharded, _, _) = setup(11, 6);
        let e = run(&engine, &mut sharded, &Method::Bptt, &inputs, &labels, 3);
        assert_eq!(r.loss.to_bits(), e.step.loss.to_bits(), "loss is bitwise");
        assert_eq!(r.sam.sums(), e.step.sam.sums(), "SAM sums are bitwise");
        assert_eq!(r.correct, e.step.correct);
        for (pr, ps) in reference.params().iter().zip(sharded.params().iter()) {
            let diff = pr.grad().max_abs_diff(ps.grad());
            assert!(diff < 1e-4, "grad {} off by {diff}", pr.name());
        }
        assert!(!e.worker_mem.is_empty());
        assert!(!e.ops.is_empty());
    }

    #[test]
    fn engine_gradients_are_bit_identical_across_worker_counts() {
        let (_, inputs, labels) = setup(12, 6);
        let mut grads: Vec<Vec<Vec<f32>>> = Vec::new();
        let mut losses = Vec::new();
        for workers in [2usize, 3, 4] {
            let engine = Engine::new(workers).unwrap();
            let (mut net, _, _) = setup(12, 6);
            let method = Method::Skipper {
                checkpoints: 2,
                percentile: 30.0,
            };
            let e = run(&engine, &mut net, &method, &inputs, &labels, 5);
            losses.push(e.step.loss.to_bits());
            grads.push(
                net.params()
                    .iter()
                    .map(|p| p.grad().data().to_vec())
                    .collect(),
            );
        }
        assert!(losses.windows(2).all(|w| w[0] == w[1]));
        assert!(grads.windows(2).all(|w| w[0] == w[1]), "grad bits differ");
    }

    #[test]
    fn engine_skipper_matches_unsharded_skip_schedule() {
        let (mut reference, inputs, labels) = setup(13, 5);
        let method = Method::Skipper {
            checkpoints: 2,
            percentile: 40.0,
        };
        let r = reference_step(&mut reference, &method, &inputs, &labels, 9);
        let engine = Engine::new(3).unwrap();
        let (mut sharded, _, _) = setup(13, 5);
        let e = run(&engine, &mut sharded, &method, &inputs, &labels, 9);
        assert_eq!(r.skipped_steps, e.step.skipped_steps);
        assert_eq!(r.recomputed_steps, e.step.recomputed_steps);
        assert_eq!(r.loss.to_bits(), e.step.loss.to_bits());
        assert_eq!(r.sam.sums(), e.step.sam.sums());
    }
}
