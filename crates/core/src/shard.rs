//! The shard protocol: the one state machine behind data-parallel
//! training, whether the shards run on the in-process worker pool
//! ([`crate::engine`]) or behind a transport ([`crate::cluster`]). The
//! protocol's vocabulary — [`Request`], [`WorkCtx`], [`ResultPayload`] —
//! lives here and knows nothing of either; the wire imports it, never the
//! other way round.
//!
//! An iteration is at most two rounds of one [`Request`] per shard:
//!
//! 1. `Single` (BPTT, TBPTT, TBPTT-LBP — the whole step) or `Forward`
//!    (Checkpointed, Skipper — the gradient-free first pass, which parks a
//!    carry on the worker);
//! 2. `Backward`, two-round methods only: the segment-wise backward under
//!    the skip schedule every worker re-derives from the *global* SAM sums.
//!
//! [`run_iteration`] is the coordinator side. It is generic over an
//! [`Executor`] — `round(one request per shard) -> replies in shard order`
//! — and owns everything that decides a bit of the result: the canonical
//! plan, the cross-shard SAM sum formed *before* the SST percentile (paper
//! Section VI, Eq. 5: skip decisions are network-wide), the fixed-order
//! [`tree_reduce`] and the loss fold. [`ShardWorker::handle`] is the worker
//! side. It and [`run_unsharded`] — the `workers(1)` reference, the whole
//! batch as one shard harvested straight into the stores — are the only
//! callers of the two shard-aware cores ([`crate::windowed`],
//! [`crate::checkpoint`]), and [`two_round`] is what picks between them.
//!
//! # Determinism
//!
//! Results depend only on the seed and the batch — not on the executor, the
//! worker count or which worker ran which shard:
//!
//! * the plan is canonical: `S = min(B, 8)` contiguous row ranges
//!   ([`shard_plan`]);
//! * dropout streams are per *global* row (`StepCtx::train_shard` carries
//!   the shard's row offset), so a row draws the same mask in any shard;
//! * per-shard gradients are combined by a fixed-order pairwise tree over
//!   the shard index, never by arrival order;
//! * per-sample losses are concatenated in global row order and folded
//!   exactly like the unsharded accumulation
//!   ([`combine_loss_groups`]);
//! * SAM spike sums are exact integers in `f64`, so their cross-shard sum
//!   is grouping-invariant and the schedule is bit-identical to the
//!   unsharded monitor's.
//!
//! Versus the unsharded single-graph reference, the loss, SAM sums, SST
//! thresholds and skip decisions are bit-identical; weight gradients agree
//! to float tolerance only, because kernel backward passes fold over batch
//! rows in one group where a sharded run folds per shard first.
//!
//! # Invariants every executor keeps
//!
//! * Shard `i` is handled by the same worker in both rounds (pool thread
//!   `i % n`; one assignment per cluster attempt), because round 2 consumes
//!   the carry round 1 parked there.
//! * Every tensor a worker makes is created *and dropped* on its own thread
//!   (the memory tracker is thread-local): requests bring storage-sharing
//!   handles or the rows a wire decoded, replies are plain vectors.
//! * The parameter store is not touched until the last round has fully
//!   succeeded, so a failed attempt leaves the gradients at zero and can be
//!   retried bit-identically.
//! * TBPTT-LBP needs the session's auxiliary classifiers on the worker,
//!   and a wire worker has none: [`reject_lbp_over_wire`].
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::checkpoint::{
    checkpoint_backward, checkpoint_forward, checkpointed_step_with, PhaseAOut,
};
use crate::error::SkipperError;
use crate::lbp::LocalClassifiers;
use crate::method::{segment_bounds, Method};
use crate::sam::{decide_skips, emit_skip_trace, SamMetric, SkipPolicy, SpikeActivityMonitor};
use crate::windowed::{combine_loss_groups, windowed_core, StepResult};
use serde::{Deserialize, Serialize};
use skipper_autograd::Graph;
use skipper_memprof::{Category, CategoryGuard};
use skipper_snn::{ParamBinder, ParamStore, ShardGrads, SpikingNetwork};
use skipper_tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::Range;

/// Upper bound on shards per iteration. Fixed (not worker-derived) so the
/// computation — and therefore every gradient bit — is identical whether 2
/// or 8 workers execute the plan.
const MAX_SHARDS: usize = 8;

/// Where one batch shard sits inside the global batch. The cores use it to
/// scale the loss by the *global* batch size and to offset the per-row
/// dropout streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCtx {
    /// Rows in the whole iteration's batch (loss denominator).
    pub global_batch: usize,
    /// Index of this shard's first row in the global batch.
    pub batch_offset: usize,
}

impl ShardCtx {
    /// The whole batch as one shard (the unsharded reference path).
    pub fn full(batch: usize) -> ShardCtx {
        ShardCtx {
            global_batch: batch,
            batch_offset: 0,
        }
    }
}

/// Where a core's harvested gradients go: straight into the shared
/// parameter store (unsharded path) or into a per-shard buffer that
/// [`run_iteration`] reduces later.
pub(crate) enum GradSink<'a> {
    /// Accumulate into the store's gradient tensors.
    Direct,
    /// Accumulate into a per-shard buffer.
    Shard(&'a mut ShardGrads),
}

impl GradSink<'_> {
    /// Move every bound leaf's gradient out of `g`. `store` is only
    /// touched by the direct sink.
    pub fn harvest(&mut self, binder: &ParamBinder, g: &mut Graph, store: &mut ParamStore) {
        match self {
            GradSink::Direct => binder.harvest(g, store),
            GradSink::Shard(buf) => binder.harvest_into(g, buf),
        }
    }
}

/// The canonical shard plan: `min(batch, 8)` contiguous row ranges with
/// boundaries at `k·B/S` (every shard within one row of `B/S`). Depends
/// only on the batch size, never on the worker count.
pub(crate) fn shard_plan(batch: usize) -> Vec<Range<usize>> {
    assert!(batch > 0, "cannot shard an empty batch");
    let shards = batch.min(MAX_SHARDS);
    (0..shards)
        .map(|k| (k * batch / shards)..((k + 1) * batch / shards))
        .collect()
}

/// Fixed-order pairwise tree reduction of per-shard raw gradients, indexed
/// by shard: `((s0+s1)+(s2+s3))+…`. The tree shape depends only on the
/// shard count, so the summed bits are identical for any worker count.
fn tree_reduce(mut layers: Vec<WireGrads>) -> WireGrads {
    assert!(!layers.is_empty(), "reduce of zero shards");
    let _span = skipper_obs::span!("tree_reduce", shards = layers.len() as u64);
    while layers.len() > 1 {
        let mut next = Vec::with_capacity(layers.len().div_ceil(2));
        let mut it = layers.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                for (slot, add) in a.iter_mut().zip(b) {
                    match (slot.as_mut(), add) {
                        (Some(acc), Some(v)) => {
                            for (x, y) in acc.iter_mut().zip(&v) {
                                *x += *y;
                            }
                        }
                        (None, Some(v)) => *slot = Some(v),
                        _ => {}
                    }
                }
            }
            next.push(a);
        }
        layers = next;
    }
    layers.pop().unwrap_or_default()
}

/// Add the next `store.len()` reduced raw gradients into the store's
/// accumulators in place. The grad tensors are uniquely owned again by now
/// (workers release their network shares before their last reply), so no
/// copy-on-write happens.
fn apply_grads(store: &mut ParamStore, reduced: &mut impl Iterator<Item = Option<Vec<f32>>>) {
    for (p, g) in store.iter_mut().zip(reduced) {
        if let Some(v) = g {
            for (x, y) in p.grad_mut().data_mut().iter_mut().zip(&v) {
                *x += *y;
            }
        }
    }
}

/// Slice rows `range` out of every timestep tensor, booking the copies
/// under [`Category::Input`] on the calling thread.
fn slice_rows(inputs: &[Tensor], range: &Range<usize>) -> Vec<Tensor> {
    let _cat = CategoryGuard::new(Category::Input);
    inputs
        .iter()
        .map(|t| {
            let batch = t.shape()[0];
            let stride = t.numel() / batch;
            let mut dims = t.shape().dims().to_vec();
            dims[0] = range.len();
            Tensor::from_vec(
                t.data()[range.start * stride..range.end * stride].to_vec(),
                dims,
            )
        })
        .collect()
}

/// Picks the core: `(checkpoints, percentile)` of the two-round methods
/// (untaped first pass + recompute); `None` for the methods whose whole
/// step is one `Single` round of the taped core (see [`window_and_heads`]).
fn two_round(method: &Method) -> Option<(usize, f32)> {
    match method {
        Method::Checkpointed { checkpoints } => Some((*checkpoints, 0.0)),
        Method::Skipper {
            checkpoints,
            percentile,
        } => Some((*checkpoints, *percentile)),
        Method::Bptt | Method::Tbptt { .. } | Method::TbpttLbp { .. } => None,
    }
}

/// A one-round method as the taped core runs it: its window and its heads.
/// BPTT is one window of `T` with no taps, TBPTT shortens the window, and
/// TBPTT-LBP brings the session's auxiliary classifiers.
fn window_and_heads<'a>(
    method: &Method,
    timesteps: usize,
    aux: Option<&'a mut LocalClassifiers>,
    no_taps: &'a mut LocalClassifiers,
) -> Result<(usize, &'a mut LocalClassifiers), String> {
    match method {
        Method::Bptt => Ok((timesteps, no_taps)),
        Method::Tbptt { window } => Ok((*window, no_taps)),
        Method::TbpttLbp { window, .. } => aux
            .map(|aux| (*window, aux))
            .ok_or_else(|| "TBPTT-LBP needs auxiliary classifiers on the worker".into()),
        other => Err(format!("{other} is not a single-dispatch method")),
    }
}

/// The unsharded reference (`workers(1)`): the whole batch as one shard of
/// the core [`two_round`] picks, harvested straight into the parameter
/// stores.
///
/// # Errors
///
/// TBPTT-LBP without auxiliary classifiers.
pub(crate) fn run_unsharded(
    net: &mut SpikingNetwork,
    aux: Option<&mut LocalClassifiers>,
    it: &Iteration<'_>,
) -> Result<StepResult, String> {
    if let Some((checkpoints, percentile)) = two_round(it.method) {
        return Ok(checkpointed_step_with(
            net,
            it.inputs,
            it.labels,
            it.seed,
            checkpoints,
            percentile,
            it.metric,
            it.policy,
        ));
    }
    let mut no_taps = LocalClassifiers::none();
    let (window, aux) = window_and_heads(it.method, it.inputs.len(), aux, &mut no_taps)?;
    Ok(windowed_core(
        net,
        aux,
        it.inputs,
        it.labels,
        it.seed,
        window,
        ShardCtx::full(it.inputs[0].shape()[0]),
        &mut GradSink::Direct,
        &mut GradSink::Direct,
    ))
}

/// A wire worker rebuilds the network from the model spec alone and has no
/// auxiliary classifiers, so TBPTT-LBP is refused on a cluster session — at
/// build, and again per iteration because the method can be switched
/// mid-session.
pub(crate) fn reject_lbp_over_wire(method: &Method) -> Result<(), SkipperError> {
    if matches!(method, Method::TbpttLbp { .. }) {
        return Err(SkipperError::Config(
            "TBPTT-LBP auxiliary classifiers are not supported over a cluster transport".into(),
        ));
    }
    Ok(())
}

/// One training iteration as the session hands it to a sharded driver.
pub(crate) struct Iteration<'a> {
    pub method: &'a Method,
    /// The spike sequence: `T` tensors of `[B, C, H, W]`.
    pub inputs: &'a [Tensor],
    pub labels: &'a [usize],
    /// The iteration number; seeds every random stream and names the
    /// iteration on the wire.
    pub seed: u64,
    pub metric: SamMetric,
    pub policy: SkipPolicy,
}

/// Per-iteration execution context carried by every round-1 request, so a
/// worker never computes with stale knobs: the method (as possibly
/// stepped by the memory governor), SAM metric, skip policy and the
/// iteration seed all ride along. Serde gives it its one encoding — the
/// one `.sksn`'s `meta` section already round-trips exactly — so a new
/// `Method` needs teaching to nothing between the session and the worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WorkCtx {
    pub iteration: u64,
    pub attempt: u32,
    pub shard: u32,
    pub batch_offset: u32,
    pub global_batch: u32,
    pub seed: u64,
    pub method: Method,
    pub metric: SamMetric,
    pub policy: SkipPolicy,
}

/// Round-1 work for one shard.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardInput {
    pub ctx: WorkCtx,
    pub inputs: Vec<Tensor>,
    pub labels: Vec<usize>,
    /// The rows of `inputs` and `labels` that are this shard's; `None` when
    /// they hold exactly those rows already (a request about to cross, or
    /// decoded off, the wire).
    pub rows: Option<Range<usize>>,
}

impl ShardInput {
    /// The same work holding only this shard's rows. The copies are made on
    /// the calling thread — a worker's own, or the coordinator's before it
    /// wraps the request in a frame — and the full-batch handles are dropped
    /// before returning.
    pub fn into_rows(self) -> ShardInput {
        match self.rows {
            Some(rows) => ShardInput {
                inputs: slice_rows(&self.inputs, &rows),
                labels: self.labels[rows].to_vec(),
                rows: None,
                ..self
            },
            None => self,
        }
    }
}

/// What a worker is asked to do for one shard in one round.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Request {
    /// The whole step of a one-round method.
    Single(ShardInput),
    /// Round 1 of a two-round method.
    Forward(ShardInput),
    /// Round 2: the SAM sums aggregated over all shards of round 1.
    Backward {
        iteration: u64,
        attempt: u32,
        shard: u32,
        sums: Vec<f64>,
    },
}

impl Request {
    /// `(iteration, attempt, shard)` — what a reply is matched to, and the
    /// key a round-1 carry is parked under.
    pub fn key(&self) -> (u64, u32, u32) {
        match self {
            Request::Single(input) | Request::Forward(input) => {
                (input.ctx.iteration, input.ctx.attempt, input.ctx.shard)
            }
            Request::Backward {
                iteration,
                attempt,
                shard,
                ..
            } => (*iteration, *attempt, *shard),
        }
    }

    /// The round's label in the `engine.shard_*{phase}` metrics.
    pub fn phase(&self) -> &'static str {
        match self {
            Request::Single(_) => "train",
            Request::Forward(_) => "forward",
            Request::Backward { .. } => "backward",
        }
    }

    /// The request as it crosses a wire: round-1 work holds only its
    /// shard's rows ([`ShardInput::into_rows`]).
    pub fn into_rows(self) -> Request {
        match self {
            Request::Single(input) => Request::Single(input.into_rows()),
            Request::Forward(input) => Request::Forward(input.into_rows()),
            backward @ Request::Backward { .. } => backward,
        }
    }
}

/// Per-parameter raw gradients in store order (`None` = untouched).
pub(crate) type WireGrads = Vec<Option<Vec<f32>>>;

/// What one shard hands back for one request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ResultPayload {
    /// Phase A of a checkpointed/Skipper iteration.
    Forward {
        sam_sums: Vec<f64>,
        per_sample: Vec<f64>,
        correct: u32,
    },
    /// Phase B gradients.
    Grads { grads: WireGrads },
    /// A whole single-phase (BPTT/TBPTT) shard.
    Single {
        loss_groups: Vec<Vec<f64>>,
        correct: u32,
        sam_sums: Vec<f64>,
        recomputed: u32,
        skipped: u32,
        grads: WireGrads,
    },
}

/// Runs one round of the protocol: hands every request to the worker that
/// owns its shard and returns the replies — plain vectors only, no tensors
/// — in shard order. Must keep the module-level invariants.
pub(crate) trait Executor {
    /// `requests[i]` is shard `i`'s (there is at least one); so is the
    /// `i`-th reply. An error is the reason the round did not complete:
    /// the iteration's state is untouched, a wire coordinator retries with
    /// a new attempt and the pool gives up.
    fn round(&mut self, requests: Vec<Request>) -> Result<Vec<ResultPayload>, String>;
}

/// Run one sharded iteration of `it.method` through `exec`. On success the
/// reduced gradients are left accumulated in `net` (and `aux`), exactly
/// like the unsharded step functions; on error nothing was touched.
pub(crate) fn run_iteration(
    exec: &mut impl Executor,
    attempt: u32,
    net: &mut SpikingNetwork,
    aux: Option<&mut LocalClassifiers>,
    it: &Iteration<'_>,
) -> Result<StepResult, String> {
    let batch = it.inputs[0].shape()[0];
    let timesteps = it.inputs.len();
    let plan = shard_plan(batch);
    let rounds = two_round(it.method);

    let first = plan
        .iter()
        .enumerate()
        .map(|(shard, rows)| {
            let input = ShardInput {
                ctx: WorkCtx {
                    iteration: it.seed,
                    attempt,
                    shard: shard as u32,
                    batch_offset: rows.start as u32,
                    global_batch: batch as u32,
                    seed: it.seed,
                    method: it.method.clone(),
                    metric: it.metric,
                    policy: it.policy,
                },
                inputs: it.inputs.to_vec(),
                labels: it.labels.to_vec(),
                rows: Some(rows.clone()),
            };
            match rounds {
                Some(_) => Request::Forward(input),
                None => Request::Single(input),
            }
        })
        .collect();

    // Fold round 1 in shard order: loss groups concatenate in global row
    // order, SAM records sum into the network-wide statistic.
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut sums = vec![0.0f64; timesteps];
    let mut correct = 0usize;
    let mut steps = (timesteps, 0usize);
    let mut grad_sets: Vec<WireGrads> = Vec::with_capacity(plan.len());
    let wrong_kind = |shard: usize| format!("shard {shard} returned the wrong payload kind");
    for (shard, reply) in exec.round(first)?.into_iter().enumerate() {
        let (loss_groups, shard_correct, sam_sums) = match (reply, rounds) {
            (
                ResultPayload::Single {
                    loss_groups,
                    correct,
                    sam_sums,
                    recomputed,
                    skipped,
                    grads,
                },
                None,
            ) => {
                if shard == 0 {
                    steps = (recomputed as usize, skipped as usize);
                }
                grad_sets.push(grads);
                (loss_groups, correct, sam_sums)
            }
            (
                ResultPayload::Forward {
                    sam_sums,
                    per_sample,
                    correct,
                },
                Some(_),
            ) => (vec![per_sample], correct, sam_sums),
            _ => return Err(wrong_kind(shard)),
        };
        if groups.is_empty() {
            groups = vec![Vec::with_capacity(batch); loss_groups.len()];
        }
        for (all, mine) in groups.iter_mut().zip(&loss_groups) {
            all.extend_from_slice(mine);
        }
        for (acc, v) in sums.iter_mut().zip(&sam_sums) {
            *acc += *v;
        }
        correct += shard_correct as usize;
    }
    let sam = SpikeActivityMonitor::from_sums(sums);

    // Round 2 ships only the global sums; the schedule formed here is the
    // one every worker re-derives with the same pure `decide_skips`.
    if let Some((checkpoints, percentile)) = rounds {
        let second = (0..plan.len())
            .map(|shard| Request::Backward {
                iteration: it.seed,
                attempt,
                shard: shard as u32,
                sums: sam.sums().to_vec(),
            })
            .collect();
        for (shard, reply) in exec.round(second)?.into_iter().enumerate() {
            match reply {
                ResultPayload::Grads { grads } => grad_sets.push(grads),
                _ => return Err(wrong_kind(shard)),
            }
        }
        let bounds = segment_bounds(timesteps, checkpoints);
        let decisions = decide_skips(&sam, &bounds, percentile, it.policy, it.seed);
        emit_skip_trace(&bounds, &sam, &decisions);
        steps = (decisions.recomputed(), decisions.skipped());
        skipper_obs::counter_add("skipper.steps_skipped", steps.1 as f64);
        skipper_obs::counter_add("skipper.steps_recomputed", steps.0 as f64);
    }

    // Every round succeeded: only now touch state. A TBPTT-LBP shard's
    // gradients list the auxiliary classifiers' after the network's.
    let mut reduced = tree_reduce(grad_sets).into_iter();
    apply_grads(net.params_mut(), &mut reduced);
    if let Some(aux) = aux {
        apply_grads(aux.store_mut(), &mut reduced);
    }
    Ok(StepResult {
        loss: combine_loss_groups(&groups, batch),
        correct,
        recomputed_steps: steps.0,
        skipped_steps: steps.1,
        sam,
        loss_groups: groups,
    })
}

/// Round-1 state parked until the matching `Backward` arrives.
struct Parked {
    ctx: WorkCtx,
    inputs: Vec<Tensor>,
    bounds: Vec<usize>,
    percentile: f32,
    a: PhaseAOut,
}

/// The worker side of the protocol: a network handle (a storage-sharing
/// view in process, a replica whose weights ride with each frame on the
/// wire), the auxiliary classifiers when the session has them, and the
/// carries of the attempt in flight.
pub(crate) struct ShardWorker {
    /// Public for the executor whose requests bring their own weights.
    pub net: SpikingNetwork,
    aux: Option<LocalClassifiers>,
    parked: BTreeMap<(u64, u32, u32), Parked>,
}

impl ShardWorker {
    pub fn new(net: SpikingNetwork, aux: Option<LocalClassifiers>) -> ShardWorker {
        ShardWorker {
            net,
            aux,
            parked: BTreeMap::new(),
        }
    }

    /// Nothing is parked: every shard handled here either finished its
    /// iteration or has not started one.
    pub fn is_idle(&self) -> bool {
        self.parked.is_empty()
    }

    /// Run one request on the calling thread.
    ///
    /// # Errors
    ///
    /// A description of the protocol violation: a method that does not
    /// belong to the request's round, a `Backward` without a parked carry
    /// (the worker restarted between rounds), TBPTT-LBP without auxiliary
    /// classifiers.
    pub fn handle(&mut self, request: Request) -> Result<ResultPayload, String> {
        match request {
            Request::Single(input) => {
                let ShardInput {
                    ctx,
                    inputs,
                    labels,
                    ..
                } = input.into_rows();
                let _span = skipper_obs::span!(
                    "shard",
                    shard = ctx.shard,
                    start = ctx.batch_offset,
                    rows = labels.len()
                );
                let mut no_taps = LocalClassifiers::none();
                let (window, aux) =
                    window_and_heads(&ctx.method, inputs.len(), self.aux.as_mut(), &mut no_taps)?;
                let mut grads = ShardGrads::for_store(self.net.params());
                let mut aux_grads = ShardGrads::for_store(aux.store());
                let step = windowed_core(
                    &mut self.net,
                    aux,
                    &inputs,
                    &labels,
                    ctx.seed,
                    window,
                    shard_ctx(&ctx),
                    &mut GradSink::Shard(&mut grads),
                    &mut GradSink::Shard(&mut aux_grads),
                );
                let mut grads = grads.into_raw();
                grads.extend(aux_grads.into_raw());
                Ok(ResultPayload::Single {
                    loss_groups: step.loss_groups,
                    correct: step.correct as u32,
                    sam_sums: step.sam.sums().to_vec(),
                    recomputed: step.recomputed_steps as u32,
                    skipped: step.skipped_steps as u32,
                    grads,
                })
            }
            Request::Forward(input) => {
                let (checkpoints, percentile) = two_round(&input.ctx.method)
                    .ok_or_else(|| format!("{} is not a two-phase method", input.ctx.method))?;
                let ShardInput {
                    ctx,
                    inputs,
                    labels,
                    ..
                } = input.into_rows();
                // A new attempt supersedes whatever an older one parked.
                self.parked
                    .retain(|(i, a, _), _| *i == ctx.iteration && *a == ctx.attempt);
                let _span = skipper_obs::span!(
                    "shard_forward",
                    shard = ctx.shard,
                    start = ctx.batch_offset,
                    rows = labels.len()
                );
                let bounds = segment_bounds(inputs.len(), checkpoints);
                let mut a = checkpoint_forward(
                    &self.net,
                    &inputs,
                    &labels,
                    ctx.seed,
                    &bounds,
                    ctx.metric,
                    shard_ctx(&ctx),
                );
                let reply = ResultPayload::Forward {
                    sam_sums: a.sam.sums().to_vec(),
                    per_sample: std::mem::take(&mut a.per_sample_loss),
                    correct: a.correct as u32,
                };
                self.parked.insert(
                    (ctx.iteration, ctx.attempt, ctx.shard),
                    Parked {
                        ctx,
                        inputs,
                        bounds,
                        percentile,
                        a,
                    },
                );
                Ok(reply)
            }
            Request::Backward {
                iteration,
                attempt,
                shard,
                sums,
            } => {
                let carry = self
                    .parked
                    .remove(&(iteration, attempt, shard))
                    .ok_or_else(|| {
                        format!(
                            "no phase-A carry for iteration {iteration} attempt {attempt} \
                             shard {shard} (worker restarted between phases)"
                        )
                    })?;
                let ctx = &carry.ctx;
                let _span =
                    skipper_obs::span!("shard_backward", shard = shard, start = ctx.batch_offset);
                let decisions = decide_skips(
                    &SpikeActivityMonitor::from_sums(sums),
                    &carry.bounds,
                    carry.percentile,
                    ctx.policy,
                    ctx.seed,
                );
                let mut grads = ShardGrads::for_store(self.net.params());
                checkpoint_backward(
                    &mut self.net,
                    &carry.inputs,
                    ctx.seed,
                    &carry.bounds,
                    &carry.a.ckpts,
                    &carry.a.per_step_grad,
                    &decisions,
                    shard_ctx(ctx),
                    &mut GradSink::Shard(&mut grads),
                );
                Ok(ResultPayload::Grads {
                    grads: grads.into_raw(),
                })
            }
        }
    }
}

fn shard_ctx(ctx: &WorkCtx) -> ShardCtx {
    ShardCtx {
        global_batch: ctx.global_batch as usize,
        batch_offset: ctx.batch_offset as usize,
    }
}

/// [`run_unsharded`] under the paper's spike-sum metric and spike-activity
/// policy, for methods that need no auxiliary classifiers.
#[cfg(test)]
pub(crate) fn reference_step(
    net: &mut SpikingNetwork,
    method: &Method,
    inputs: &[Tensor],
    labels: &[usize],
    seed: u64,
) -> StepResult {
    let it = Iteration {
        method,
        inputs,
        labels,
        seed,
        metric: SamMetric::SpikeSum,
        policy: SkipPolicy::SpikeActivity,
    };
    run_unsharded(net, None, &it).expect("no auxiliary classifiers needed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, ModelConfig};
    use skipper_tensor::XorShiftRng;

    #[test]
    fn shard_plan_is_canonical_and_covers_the_batch() {
        for batch in [1usize, 2, 5, 8, 9, 64, 127] {
            let plan = shard_plan(batch);
            assert_eq!(plan.len(), batch.min(MAX_SHARDS));
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, batch);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous at B={batch}");
                assert!(!pair[1].is_empty());
            }
            let sizes: Vec<usize> = plan.iter().map(Range::len).collect();
            let (lo, hi) = (
                *sizes.iter().min().unwrap() as i64,
                *sizes.iter().max().unwrap() as i64,
            );
            assert!(hi - lo <= 1, "balanced within one row at B={batch}");
        }
    }

    #[test]
    fn tree_reduce_shape_depends_only_on_shard_order() {
        let shards: Vec<WireGrads> = (0..5)
            .map(|i| vec![Some(vec![i as f32 * 0.1 + 1.0; 3]), None])
            .collect();
        let a = tree_reduce(shards.clone());
        let b = tree_reduce(shards);
        assert_eq!(a, b);
        assert!(a[1].is_none());
        let expected = ((1.0f32 + 1.1) + (1.2 + 1.3)) + 1.4;
        assert_eq!(a[0].as_ref().unwrap()[0], expected);
    }

    /// The simplest executor: one worker, the calling thread, optionally
    /// failing the second round like a cluster attempt that lost a worker.
    struct Inline {
        worker: ShardWorker,
        rounds: usize,
        fail_round_two: bool,
    }

    impl Executor for Inline {
        fn round(&mut self, requests: Vec<Request>) -> Result<Vec<ResultPayload>, String> {
            self.rounds += 1;
            if self.fail_round_two && self.rounds == 2 {
                return Err("worker lost".into());
            }
            requests
                .into_iter()
                .map(|r| self.worker.handle(r))
                .collect()
        }
    }

    fn setup() -> (SpikingNetwork, Vec<Tensor>, Vec<usize>) {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut rng = XorShiftRng::new(21);
        let inputs = (0..8)
            .map(|_| Tensor::rand([5, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        (net, inputs, vec![0, 1, 2, 3, 4])
    }

    #[test]
    fn a_failed_round_leaves_the_gradients_at_zero() {
        let (mut net, inputs, labels) = setup();
        let method = Method::Skipper {
            checkpoints: 2,
            percentile: 30.0,
        };
        let it = Iteration {
            method: &method,
            inputs: &inputs,
            labels: &labels,
            seed: 4,
            metric: SamMetric::SpikeSum,
            policy: SkipPolicy::SpikeActivity,
        };
        let mut exec = Inline {
            worker: ShardWorker::new(net.share(), None),
            rounds: 0,
            fail_round_two: true,
        };
        let err = run_iteration(&mut exec, 0, &mut net, None, &it).unwrap_err();
        assert_eq!(err, "worker lost");
        assert_eq!(exec.rounds, 2, "the forward round ran, the backward failed");
        assert!(
            net.params()
                .iter()
                .all(|p| p.grad().data().iter().all(|&g| g == 0.0)),
            "a failed attempt must not touch the parameter store"
        );

        // The retry — a new attempt on the same worker, which drops the
        // stale carries — gives what an unfailed run gives.
        exec.fail_round_two = false;
        let retried = run_iteration(&mut exec, 1, &mut net, None, &it).unwrap();
        assert!(exec.worker.is_idle());
        let (mut clean_net, _, _) = setup();
        let mut clean = Inline {
            worker: ShardWorker::new(clean_net.share(), None),
            rounds: 0,
            fail_round_two: false,
        };
        let reference = run_iteration(&mut clean, 0, &mut clean_net, None, &it).unwrap();
        assert_eq!(retried.loss.to_bits(), reference.loss.to_bits());
        for (a, b) in net.params().iter().zip(clean_net.params().iter()) {
            assert_eq!(a.grad().data(), b.grad().data(), "grad {}", a.name());
        }
    }

    #[test]
    fn a_request_of_the_wrong_round_is_refused() {
        let (net, inputs, labels) = setup();
        let mut worker = ShardWorker::new(net, None);
        let input = |method: Method| ShardInput {
            ctx: WorkCtx {
                iteration: 1,
                attempt: 0,
                shard: 0,
                batch_offset: 0,
                global_batch: 5,
                seed: 1,
                method,
                metric: SamMetric::SpikeSum,
                policy: SkipPolicy::SpikeActivity,
            },
            inputs: inputs.clone(),
            labels: labels.clone(),
            rows: None,
        };
        let two_round = Method::Checkpointed { checkpoints: 2 };
        assert!(worker.handle(Request::Single(input(two_round))).is_err());
        assert!(worker
            .handle(Request::Forward(input(Method::Bptt)))
            .is_err());
        let lbp = Method::TbpttLbp {
            window: 4,
            taps: vec![1],
        };
        assert!(worker.handle(Request::Single(input(lbp))).is_err());
        let orphan = Request::Backward {
            iteration: 1,
            attempt: 0,
            shard: 0,
            sums: vec![0.0; 8],
        };
        assert!(worker.handle(orphan).is_err());
        assert!(worker.is_idle());
    }
}
