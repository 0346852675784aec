//! [`TrainSession`]: one façade over all training methods, with the
//! measurement harness wrapped around every iteration.

use crate::analytic::AnalyticModel;
use crate::builder::SessionBuilder;
use crate::cluster::Coordinator;
use crate::engine::Engine;
use crate::error::SkipperError;
use crate::governor::{relieve_pressure, GovernorAction};
use crate::lbp::LocalClassifiers;
use crate::method::Method;
use crate::resume::SessionState;
use crate::sam::{SamMetric, SkipPolicy};
use crate::shard::{run_unsharded, Iteration};
use crate::stats::{BatchStats, EvalStats};
use skipper_memprof::{reset_peaks, snapshot, take_op_log, MemorySnapshot, OpLog};
use skipper_snn::serialize::{apply_records, ParamRecord};
use skipper_snn::{Optimizer, SpikingNetwork};
use skipper_tensor::Tensor;
use std::path::Path;
use std::time::Instant;

/// Divergence-sentinel policy: what counts as a fault and how hard to try
/// to recover before giving up.
///
/// With sentinels enabled (see [`TrainSession::enable_sentinels`]) every
/// iteration's loss and gradient norm are checked *before* the optimizer
/// applies the update, so a faulty iteration leaves the weights and the
/// optimizer state as they were: its gradients are dropped, the learning
/// rate is multiplied by `lr_backoff`, and the batch is retried under a
/// fresh iteration seed — at most `max_retries` times, after which the
/// rate is put back and [`SkipperError::Divergence`] is returned.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Gradient L2-norm above which an iteration is declared divergent.
    pub max_grad_norm: f64,
    /// Retries per batch before surfacing [`SkipperError::Divergence`].
    pub max_retries: u32,
    /// Learning-rate multiplier applied on every recovery (compounds).
    pub lr_backoff: f32,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            max_grad_norm: 1e6,
            max_retries: 2,
            lr_backoff: 0.5,
        }
    }
}

/// TBPTT-LBP's auxiliary classifier heads with the Adam that trains them:
/// one exists exactly when the other does.
struct AuxHeads {
    heads: LocalClassifiers,
    optimizer: Box<dyn Optimizer>,
}

/// A network + optimizer + training method, instrumented like the paper's
/// testbed: every [`train_batch`] resets the peak counters, drains the
/// kernel log, runs the method-specific step and the optimizer update, and
/// returns a [`BatchStats`] carrying loss/accuracy, wall time, peak
/// per-category memory and the kernel log for the GPU latency model.
///
/// [`train_batch`]: TrainSession::train_batch
pub struct TrainSession {
    net: SpikingNetwork,
    optimizer: Box<dyn Optimizer>,
    aux: Option<AuxHeads>,
    method: Method,
    timesteps: usize,
    iteration: u64,
    sam_metric: SamMetric,
    skip_policy: SkipPolicy,
    /// Per-timestep SAM sums of the last completed iteration (snapshotted
    /// so a resumed session knows the activity history).
    last_sam_sums: Vec<f64>,
    sentinel: Option<SentinelConfig>,
    /// Fault injection: force the loss to NaN at this iteration.
    poison_loss_at: Option<u64>,
    mem_budget: Option<u64>,
    governor_log: Vec<GovernorAction>,
    /// The data-parallel engine, present when the session was built with
    /// two or more workers.
    engine: Option<Engine>,
    /// The distributed coordinator, present when the session was built
    /// with [`SessionBuilder::cluster`]. Takes precedence over `engine`.
    cluster: Option<Coordinator>,
}

impl std::fmt::Debug for TrainSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainSession")
            .field("net", &self.net.name())
            .field("method", &self.method)
            .field("timesteps", &self.timesteps)
            .field("iteration", &self.iteration)
            .field("lr", &self.optimizer.learning_rate())
            .finish()
    }
}

impl TrainSession {
    /// Start a [`SessionBuilder`] — the construction path that validates
    /// the method up front and fixes the session's structure (optimizer,
    /// workers, cluster).
    pub fn builder(net: SpikingNetwork, method: Method, timesteps: usize) -> SessionBuilder {
        SessionBuilder::new(net, method, timesteps)
    }

    /// The real constructor behind [`SessionBuilder::build`].
    pub(crate) fn assemble(
        net: SpikingNetwork,
        optimizer: Box<dyn Optimizer>,
        method: Method,
        timesteps: usize,
        workers: usize,
        cluster: Option<Coordinator>,
    ) -> Result<TrainSession, SkipperError> {
        let engine = if workers >= 2 && cluster.is_none() {
            Some(Engine::new(workers)?)
        } else {
            None
        };
        let mut session = TrainSession {
            net,
            optimizer,
            aux: None,
            method: method.clone(),
            timesteps,
            iteration: 0,
            sam_metric: SamMetric::default(),
            skip_policy: SkipPolicy::default(),
            last_sam_sums: Vec::new(),
            sentinel: None,
            poison_loss_at: None,
            mem_budget: None,
            governor_log: Vec::new(),
            engine,
            cluster,
        };
        session.set_method(method);
        Ok(session)
    }

    /// The distributed coordinator, when this session runs over one.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.cluster.as_ref()
    }

    /// Data-parallel worker threads this session runs on (`1` means the
    /// unsharded reference path).
    pub fn workers(&self) -> usize {
        self.engine.as_ref().map_or(1, Engine::workers)
    }

    /// Choose the activity statistic Skipper thresholds on (default: the
    /// paper's spike sum; see [`SamMetric`]).
    pub fn set_sam_metric(&mut self, metric: SamMetric) {
        self.sam_metric = metric;
    }

    /// Choose how Skipper selects the skipped timesteps (default: the
    /// paper's SAM/SST policy; [`SkipPolicy::Random`] is the temporal-
    /// dropout ablation).
    pub fn set_skip_policy(&mut self, policy: SkipPolicy) {
        self.skip_policy = policy;
    }

    /// The wrapped network.
    pub fn net(&self) -> &SpikingNetwork {
        &self.net
    }

    /// Dismantle the session, returning the trained network.
    pub fn into_net(self) -> SpikingNetwork {
        self.net
    }

    /// The training method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// Switch the method between iterations (used by sweep harnesses). A
    /// [`Method::TbpttLbp`] with new taps (re)builds the auxiliary
    /// classifiers, trained with Adam at the main learning rate.
    pub fn set_method(&mut self, method: Method) {
        if let Method::TbpttLbp { taps, .. } = &method {
            let rebuild = self
                .aux
                .as_ref()
                .is_none_or(|aux| aux.heads.taps() != taps.as_slice());
            if rebuild {
                self.aux = Some(AuxHeads {
                    heads: LocalClassifiers::new(&self.net, taps, self.net.num_classes(), 0xA0A0),
                    optimizer: Box::new(skipper_snn::Adam::new(self.optimizer.learning_rate())),
                });
            }
        }
        self.method = method;
    }

    /// The simulation horizon `T`.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Iterations run so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Train on one batch: `inputs` is the spike sequence (length `T`,
    /// elements `[B,C,H,W]`), `labels` one class per sample.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the session's `timesteps`, or
    /// on any [`SkipperError`] from [`try_train_batch`] — a structurally
    /// impossible method configuration (e.g. `C > T`) or divergence beyond
    /// the sentinels' retry budget. Sessions from
    /// [`builder`](TrainSession::builder) have already rejected invalid
    /// methods at [`build`](crate::builder::SessionBuilder::build).
    ///
    /// [`try_train_batch`]: TrainSession::try_train_batch
    #[expect(clippy::panic, reason = "panics where try_train_batch returns Err")]
    pub fn train_batch(&mut self, inputs: &[Tensor], labels: &[usize]) -> BatchStats {
        self.try_train_batch(inputs, labels)
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    /// Like [`train_batch`], but surfaces unrecoverable faults as
    /// [`SkipperError`] instead of panicking.
    ///
    /// A structurally impossible method configuration (zero or
    /// over-horizon checkpoints, a percentile outside `[0, 100)`, a bad
    /// window or tap list) is reported as a typed
    /// [`SkipperError::Method`] before any compute runs.
    ///
    /// With sentinels enabled (see [`enable_sentinels`]) a divergent
    /// iteration — non-finite loss or a gradient L2-norm above the
    /// configured limit — is detected **before** the optimizer applies the
    /// update, so the weights, optimizer state and auxiliary heads are
    /// still those of the last good iteration. The session drops the
    /// gradients, backs the learning rate off, and retries the batch under
    /// a fresh iteration seed. Recoveries that happened on the way to a
    /// successful iteration are reported in [`BatchStats::recoveries`];
    /// once the retry budget is exhausted [`SkipperError::Divergence`] is
    /// returned with the session left at the last good state (the learning
    /// rates read at entry restored, gradients zeroed).
    ///
    /// [`train_batch`]: TrainSession::train_batch
    /// [`enable_sentinels`]: TrainSession::enable_sentinels
    pub fn try_train_batch(
        &mut self,
        inputs: &[Tensor],
        labels: &[usize],
    ) -> Result<BatchStats, SkipperError> {
        assert_eq!(inputs.len(), self.timesteps, "input horizon vs session T");
        self.method.validate_structure(&self.net, self.timesteps)?;
        let batch_size = inputs[0].shape()[0];
        let mut recoveries: u32 = 0;
        let entry_lr = self.learning_rates();
        loop {
            self.iteration += 1;
            let iter_seed = self.iteration;
            let _iter = skipper_obs::span!(
                "iteration",
                iter = self.iteration,
                method = self.method.to_string()
            );
            reset_peaks();
            take_op_log(); // drop kernels logged outside the iteration
            let start = Instant::now();
            let mut worker_mem: Vec<MemorySnapshot> = Vec::new();
            let mut engine_ops = OpLog::new();
            let sharded = Iteration {
                method: &self.method,
                inputs,
                labels,
                seed: iter_seed,
                metric: self.sam_metric,
                policy: self.skip_policy,
            };
            let mut result = if let Some(cluster) = self.cluster.as_mut() {
                cluster.run_iteration(&mut self.net, &sharded)?
            } else if let Some(engine) = &self.engine {
                let heads = self.aux.as_mut().map(|aux| &mut aux.heads);
                let outcome = engine.run_iteration(&mut self.net, heads, &sharded)?;
                worker_mem = outcome.worker_mem;
                engine_ops = outcome.ops;
                outcome.step
            } else {
                let heads = self.aux.as_mut().map(|aux| &mut aux.heads);
                run_unsharded(&mut self.net, heads, &sharded).map_err(SkipperError::Config)?
            };
            if self.poison_loss_at == Some(self.iteration) {
                result.loss = f64::NAN;
            }
            if let Some(cfg) = self.sentinel.clone() {
                if let Some(detail) = self.detect_fault(result.loss, cfg.max_grad_norm) {
                    // Discard the faulty attempt's gradients; the update
                    // was never applied, so the weights are untouched.
                    self.net.params_mut().zero_grads();
                    if let Some(aux) = self.aux.as_mut() {
                        aux.heads.store_mut().zero_grads();
                    }
                    if recoveries >= cfg.max_retries {
                        self.set_learning_rates(entry_lr);
                        skipper_obs::instant!(
                            skipper_obs::Level::Warn,
                            "sentinel.divergence",
                            iteration = self.iteration,
                            detail = detail.as_str(),
                            retries = recoveries,
                        );
                        return Err(SkipperError::Divergence {
                            iteration: self.iteration,
                            detail,
                        });
                    }
                    recoveries += 1;
                    // The backoff compounds across retries.
                    let (lr, aux_lr) = self.learning_rates();
                    let lr = lr * cfg.lr_backoff;
                    self.set_learning_rates((lr, aux_lr.map(|r| r * cfg.lr_backoff)));
                    skipper_obs::counter_add("sentinel.recoveries", 1.0);
                    skipper_obs::instant!(
                        skipper_obs::Level::Warn,
                        "sentinel.recovery",
                        iteration = self.iteration,
                        detail = detail.as_str(),
                        lr = lr,
                    );
                    continue;
                }
            }
            self.last_sam_sums = result.sam.sums().to_vec();
            {
                let _opt = skipper_obs::span!("optimizer_step");
                self.optimizer.step(self.net.params_mut());
                self.net.params_mut().zero_grads();
                if let Some(aux) = self.aux.as_mut() {
                    aux.optimizer.step(aux.heads.store_mut());
                    aux.heads.store_mut().zero_grads();
                }
            }
            let wall = start.elapsed();
            let mut mem = snapshot();
            for wm in &worker_mem {
                mem = mem.merge_max(wm);
            }
            let mut ops = take_op_log();
            ops.extend(engine_ops);
            let stats = BatchStats {
                loss: result.loss,
                correct: result.correct,
                batch_size,
                timesteps: self.timesteps,
                recomputed_steps: result.recomputed_steps,
                skipped_steps: result.skipped_steps,
                recoveries,
                wall,
                mem,
                worker_mem,
                ops,
            };
            skipper_memprof::publish_peaks(&stats.mem);
            skipper_obs::observe("iteration.wall_us", wall.as_micros() as f64);
            if let Some(budget) = self.mem_budget {
                if stats.peak_bytes() > budget {
                    let layers = self.net.spiking_layer_count();
                    let target = AnalyticModel::new(&self.net)
                        .best_checkpoint_count(self.timesteps, batch_size);
                    if let Some(to) = relieve_pressure(&self.method, self.timesteps, layers, target)
                    {
                        let action = GovernorAction {
                            iteration: self.iteration,
                            peak_bytes: stats.peak_bytes(),
                            budget_bytes: budget,
                            from: self.method.clone(),
                            to: to.clone(),
                        };
                        action.emit();
                        self.governor_log.push(action);
                        self.set_method(to);
                    }
                }
            }
            return Ok(stats);
        }
    }

    /// Returns a fault description if the just-computed iteration is
    /// divergent: non-finite loss, or gradient L2-norm above `max_norm`.
    fn detect_fault(&self, loss: f64, max_norm: f64) -> Option<String> {
        if !loss.is_finite() {
            return Some(format!("non-finite loss ({loss})"));
        }
        let norm = self.grad_norm();
        if !norm.is_finite() || norm > max_norm {
            return Some(format!(
                "gradient norm {norm:.3e} exceeds limit {max_norm:.3e}"
            ));
        }
        None
    }

    /// L2-norm over all model-parameter gradients.
    fn grad_norm(&self) -> f64 {
        let mut sum = 0.0f64;
        for p in self.net.params().iter() {
            for &g in p.grad().data() {
                sum += f64::from(g) * f64::from(g);
            }
        }
        sum.sqrt()
    }

    /// The main optimizer's learning rate and, with LBP heads, theirs.
    fn learning_rates(&self) -> (f32, Option<f32>) {
        let aux = self.aux.as_ref().map(|aux| aux.optimizer.learning_rate());
        (self.optimizer.learning_rate(), aux)
    }

    /// Set the rates that [`TrainSession::learning_rates`] reads.
    fn set_learning_rates(&mut self, (lr, aux_lr): (f32, Option<f32>)) {
        self.optimizer.set_learning_rate(lr);
        if let (Some(aux), Some(lr)) = (self.aux.as_mut(), aux_lr) {
            aux.optimizer.set_learning_rate(lr);
        }
    }

    /// Turn the divergence sentinels on (see [`SentinelConfig`]).
    pub fn enable_sentinels(&mut self, cfg: SentinelConfig) {
        self.sentinel = Some(cfg);
    }

    /// Fault injection for tests and resilience drills: the loss of the
    /// given (1-based) iteration is forced to NaN after the step runs.
    pub fn inject_loss_poison(&mut self, iteration: u64) {
        self.poison_loss_at = Some(iteration);
    }

    /// Set (or clear) the tensor-memory budget the governor enforces.
    /// When an iteration's peak tensor bytes exceed the budget, the method
    /// is stepped toward the cheaper end of the paper's knobs (see
    /// [`crate::governor`]) starting with the next iteration.
    pub fn set_memory_budget(&mut self, bytes: Option<u64>) {
        self.mem_budget = bytes;
    }

    /// Every adjustment the memory governor has made, oldest first.
    pub fn governor_log(&self) -> &[GovernorAction] {
        &self.governor_log
    }

    /// The main optimizer's current learning rate (reflects sentinel
    /// backoffs).
    pub fn learning_rate(&self) -> f32 {
        self.optimizer.learning_rate()
    }

    /// Per-timestep SAM sums of the last completed iteration.
    pub fn last_sam_sums(&self) -> &[f64] {
        &self.last_sam_sums
    }

    /// Capture everything needed to continue this session bit-exactly:
    /// weights, complete optimizer state, iteration counter (the seed of
    /// every iteration's randomness), method knobs and SAM history.
    pub fn capture_state(&self) -> SessionState {
        let records = |store: &skipper_snn::ParamStore| -> Vec<ParamRecord> {
            store
                .iter()
                .map(|p| ParamRecord {
                    name: p.name().to_string(),
                    value: p.value().clone(),
                })
                .collect()
        };
        SessionState {
            iteration: self.iteration,
            timesteps: self.timesteps,
            method: self.method.clone(),
            sam_metric: self.sam_metric,
            skip_policy: self.skip_policy,
            sam_sums: self.last_sam_sums.clone(),
            params: records(self.net.params()),
            optim: self.optimizer.export_state(),
            aux: self
                .aux
                .as_ref()
                .map(|aux| (records(aux.heads.store()), aux.optimizer.export_state())),
        }
    }

    /// Atomically write a durable snapshot of this session to `path`
    /// (see [`crate::resume`] for the container format).
    ///
    /// # Errors
    ///
    /// Propagates I/O and encoding errors.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SkipperError> {
        crate::resume::write_snapshot(&self.capture_state(), path)
    }

    /// Restore `state` into this session. The session must have been built
    /// with the same network topology, horizon `T` and optimizer kind;
    /// continuing afterwards reproduces the uninterrupted run bit-exactly.
    ///
    /// # Errors
    ///
    /// Fails on a horizon mismatch, unknown parameters or shape
    /// mismatches, or an optimizer-kind mismatch — without a partial
    /// restore having been applied to the optimizer (parameter writes may
    /// have happened; do not keep training a session whose restore
    /// failed).
    pub fn restore_state(&mut self, state: &SessionState) -> Result<(), SkipperError> {
        if state.timesteps != self.timesteps {
            return Err(SkipperError::Config(format!(
                "snapshot horizon T={} but session was built with T={}",
                state.timesteps, self.timesteps
            )));
        }
        self.set_method(state.method.clone());
        self.sam_metric = state.sam_metric;
        self.skip_policy = state.skip_policy;
        apply_records(self.net.params_mut(), state.params.clone())?;
        self.optimizer.import_state(&state.optim)?;
        match (&state.aux, self.aux.as_mut()) {
            (Some((aux_params, aux_optim)), Some(aux)) => {
                apply_records(aux.heads.store_mut(), aux_params.clone())?;
                aux.optimizer.import_state(aux_optim)?;
            }
            (Some(_), None) => {
                return Err(SkipperError::Config(
                    "snapshot carries auxiliary classifier state but the session method has none"
                        .into(),
                ))
            }
            _ => {}
        }
        self.iteration = state.iteration;
        self.last_sam_sums = state.sam_sums.clone();
        Ok(())
    }

    /// Resume from a snapshot file written by [`save_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails descriptively on missing/corrupt/truncated files and on any
    /// mismatch with this session (see [`restore_state`]).
    ///
    /// [`save_snapshot`]: TrainSession::save_snapshot
    /// [`restore_state`]: TrainSession::restore_state
    pub fn resume_from(&mut self, path: impl AsRef<Path>) -> Result<(), SkipperError> {
        let state = crate::resume::read_snapshot(path)?;
        self.restore_state(&state)
    }

    /// Evaluate one batch (plain forward, no dropout, no gradients).
    ///
    /// Implemented on the public forward-only path: a skipping-free
    /// [`InferSession`](crate::InferSession) over a storage-sharing view
    /// of the network. The logits are bit-identical to running the
    /// `InferSession` directly (a regression test holds this).
    #[expect(clippy::expect_used, reason = "T >= 1 and input shapes are validated")]
    pub fn eval_batch(&self, inputs: &[Tensor], labels: &[usize]) -> EvalStats {
        crate::InferSession::new(self.net.share())
            .eval(inputs, labels)
            .expect("eval batch is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, Adam, Encoder, ModelConfig, PoissonEncoder};
    use skipper_tensor::XorShiftRng;

    fn session(method: Method) -> TrainSession {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        TrainSession::builder(net, method, 8)
            .optimizer(Box::new(Adam::new(1e-3)))
            .workers(1)
            .build()
            .expect("valid method")
    }

    fn batch(seed: u64) -> (Vec<Tensor>, Vec<usize>) {
        let mut rng = XorShiftRng::new(seed);
        let frames = Tensor::rand([4, 3, 8, 8], &mut rng);
        let spikes = PoissonEncoder::default().encode(&frames, 8, &mut rng);
        (spikes, vec![0, 1, 2, 3])
    }

    #[test]
    fn every_method_trains_a_batch() {
        let methods = [
            Method::Bptt,
            Method::Checkpointed { checkpoints: 2 },
            Method::Skipper {
                checkpoints: 2,
                percentile: 25.0,
            },
            Method::Tbptt { window: 4 },
            Method::TbpttLbp {
                window: 4,
                taps: vec![1, 2],
            },
        ];
        for method in methods {
            let mut s = session(method.clone());
            let (inputs, labels) = batch(1);
            let stats = s.train_batch(&inputs, &labels);
            assert!(stats.loss.is_finite(), "{method} loss");
            assert!(!stats.ops.is_empty(), "{method} must log kernels");
            assert!(stats.peak_bytes() > 0);
            assert_eq!(stats.batch_size, 4);
        }
    }

    #[test]
    fn optimizer_changes_weights() {
        let mut s = session(Method::Bptt);
        let before: Vec<f32> = s
            .net()
            .params()
            .iter()
            .next()
            .unwrap()
            .value()
            .data()
            .to_vec();
        let (inputs, labels) = batch(2);
        s.train_batch(&inputs, &labels);
        let after = s.net().params().iter().next().unwrap().value();
        assert_ne!(before.as_slice(), after.data());
    }

    #[test]
    fn training_reduces_loss_on_a_fixed_batch() {
        let mut s = session(Method::Skipper {
            checkpoints: 2,
            percentile: 25.0,
        });
        let (inputs, labels) = batch(3);
        let first = s.train_batch(&inputs, &labels).loss;
        for _ in 0..14 {
            s.train_batch(&inputs, &labels);
        }
        let last = s.train_batch(&inputs, &labels).loss;
        assert!(
            last < first,
            "loss should fall on a memorisable batch: {first} → {last}"
        );
    }

    #[test]
    fn eval_batch_runs_without_gradients() {
        let s = session(Method::Bptt);
        let (inputs, labels) = batch(4);
        let eval = s.eval_batch(&inputs, &labels);
        assert!(eval.loss.is_finite());
        assert!(eval.correct <= eval.total);
        assert_eq!(eval.total, labels.len());
        assert!((0.0..=1.0).contains(&eval.accuracy()));
    }

    #[test]
    fn unvalidated_build_defers_method_checks_to_the_first_batch() {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut s = TrainSession::builder(net, Method::Bptt, 8)
            .optimizer(Box::new(Adam::new(1e-3)))
            .workers(1) // not the SKIPPER_WORKERS default CI also runs under
            .build_unvalidated()
            .expect("structurally sound config");
        assert_eq!(s.workers(), 1);
        let (inputs, labels) = batch(6);
        assert!(s.train_batch(&inputs, &labels).loss.is_finite());
    }

    #[test]
    fn eval_batch_is_bit_identical_to_infer_session() {
        // `eval_batch` is reimplemented on the forward-only path; the
        // two APIs must agree on every logit bit.
        let s = session(Method::Bptt);
        let (inputs, labels) = batch(9);
        let eval = s.eval_batch(&inputs, &labels);
        let infer = crate::InferSession::new(s.net().share());
        let direct = infer.eval(&inputs, &labels).unwrap();
        assert_eq!(eval.loss.to_bits(), direct.loss.to_bits());
        assert_eq!(eval.correct, direct.correct);
        let p = infer.predict(&inputs).unwrap();
        // And the prediction path reproduces the same logits as another
        // independent forward pass (stateless API, no hidden carryover).
        let q = infer.predict(&inputs).unwrap();
        for (a, b) in p.logits.data().iter().zip(q.logits.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sharded_session_reproduces_the_unsharded_loss_and_skips() {
        let mk = |workers: usize| {
            let net = custom_net(&ModelConfig {
                input_hw: 8,
                width_mult: 0.25,
                ..ModelConfig::default()
            });
            TrainSession::builder(
                net,
                Method::Skipper {
                    checkpoints: 2,
                    percentile: 25.0,
                },
                8,
            )
            .optimizer(Box::new(Adam::new(1e-3)))
            .workers(workers)
            .build()
            .expect("valid method")
        };
        let (inputs, labels) = batch(7);
        let mut reference = mk(1);
        let mut sharded = mk(4);
        assert_eq!(sharded.workers(), 4);
        // Iteration 1 starts from identical weights: the forward pass (and
        // with it loss, SAM and the skip schedule) is bitwise identical.
        let r = reference.train_batch(&inputs, &labels);
        let s = sharded.train_batch(&inputs, &labels);
        assert_eq!(r.loss.to_bits(), s.loss.to_bits(), "loss is bitwise");
        assert_eq!(r.skipped_steps, s.skipped_steps);
        assert_eq!(r.correct, s.correct);
        assert!(!s.worker_mem.is_empty());
        assert!(r.worker_mem.is_empty());
        // After one optimizer step the weights differ only by the f32
        // grouping of the gradient reduction; training stays on track.
        let r = reference.train_batch(&inputs, &labels);
        let s = sharded.train_batch(&inputs, &labels);
        assert!((r.loss - s.loss).abs() < 1e-3, "{} vs {}", r.loss, s.loss);
    }

    #[test]
    fn structurally_invalid_method_is_a_typed_error() {
        let mut s = session(Method::Bptt);
        s.set_method(Method::Checkpointed { checkpoints: 99 });
        let (inputs, labels) = batch(8);
        let err = s.try_train_batch(&inputs, &labels).unwrap_err();
        assert!(matches!(err, SkipperError::Method(_)), "{err}");
    }

    #[test]
    fn skipper_stats_report_skips() {
        // T = 16 leaves headroom under Eq. 7 (max p = 62.5 here), so the
        // 50th-percentile SST genuinely drops steps.
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
            16,
        )
        .optimizer(Box::new(Adam::new(1e-3)))
        .workers(1)
        .build()
        .expect("valid method");
        let mut rng = XorShiftRng::new(5);
        let frames = Tensor::rand([4, 3, 8, 8], &mut rng);
        let inputs = PoissonEncoder::default().encode(&frames, 16, &mut rng);
        let stats = s.train_batch(&inputs, &[0, 1, 2, 3]);
        assert!(stats.skipped_steps > 0);
        assert_eq!(stats.skipped_steps + stats.recomputed_steps, 16);
    }
}
