//! Temporal activation checkpointing (paper Section V) and Skipper's
//! time-skipping on top of it (Section VI).
//!
//! One iteration runs in two phases, mirroring the paper's Figs. 5 and 6:
//!
//! * **Phase A — first forward pass, no grad.** The network is stepped with
//!   [`SpikingNetwork::step_infer`]; intermediate activations die
//!   immediately. At each of the `C` segment boundaries the neuron state
//!   `(U, o)` is checkpointed as a [`Snapshot`] (`U` shared, `o` packed
//!   one bit per neuron); the SAM records `s_t` per timestep; the readout
//!   logits accumulate into a plain tensor; the loss and its analytic
//!   gradient are computed once at the end.
//!
//! * **Phase B — segment-wise backward, most recent segment first.** For
//!   each segment `c = C−1 … 0` a fresh tape is built from checkpoint `c`
//!   (membrane leaves marked as gradient sinks). With Skipper, the
//!   segment's Spike-Sum-Threshold `SST_c` (Eq. 5) is computed first and
//!   timesteps with `s_t < SST_c` are **not re-executed at all** — the
//!   membrane state flows directly from the last computed step, yielding a
//!   shallower tape (less memory *and* less compute, Eq. 6). The segment's
//!   logit contributions are seeded with `∂L/∂logits`, the boundary
//!   membrane gradients handed back by segment `c+1` are seeded into the
//!   segment's final membrane variables, `backward()` runs, weight
//!   gradients are harvested (accumulating across segments, Eq. 2), the
//!   new boundary gradients are read off the leaf membranes, and the tape
//!   is dropped — releasing the segment's activation memory.
//!
//! Because the membrane reset is detached (Section III-B), `∂L/∂U` is the
//! *only* gradient crossing a boundary; spikes cross as values, exactly
//! `+0.0`/`1.0`, so packing them changes no bit.
//!
//! The two phases are exposed separately ([`checkpoint_forward`],
//! [`checkpoint_backward`]) so the shard protocol (`shard.rs`) can
//! interleave a cross-shard SAM aggregation between them: every shard's
//! `s_t` record is summed into the network-wide statistic *before* the SST
//! percentile is formed, keeping skip decisions global (paper semantics)
//! rather than per-shard. [`checkpointed_step_with`] chains the phases for
//! the unsharded reference path.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::method::segment_bounds;
use crate::sam::{
    decide_skips, emit_skip_trace, SamMetric, SkipDecisions, SkipPolicy, SpikeActivityMonitor,
};
use crate::shard::{GradSink, ShardCtx};
use crate::windowed::{combine_loss_groups, StepResult};
use skipper_autograd::Graph;
use skipper_memprof::{Category, CategoryGuard};
use skipper_snn::{
    softmax_cross_entropy_scaled, NetworkState, ParamBinder, SpikingNetwork, StepCtx, TapedState,
};
use skipper_tensor::{SpikeBits, Tensor};

/// The neuron state `(U, o)` at one segment boundary: `U` shares the live
/// state's storage; each layer's `o` is packed, or kept dense (`Err`)
/// should a value not be a spike — the fallback the wire shares.
#[derive(Debug)]
pub(crate) struct Snapshot(Vec<Tensor>, Vec<Result<SpikeBits, Tensor>>);

impl Snapshot {
    fn take(state: &NetworkState) -> Snapshot {
        let pack = |o: &Tensor| SpikeBits::pack(o).ok_or_else(|| o.clone());
        Snapshot(state.mems.clone(), state.spikes.iter().map(pack).collect())
    }

    /// The state again, bit for bit, its spikes booked as activations.
    fn restore(&self) -> NetworkState {
        let _cat = CategoryGuard::new(Category::Activations);
        let unpack = |o: &Result<_, _>| o.as_ref().map_or_else(Tensor::clone, SpikeBits::unpack);
        let (mems, spikes) = (self.0.clone(), self.1.iter().map(unpack).collect());
        NetworkState { mems, spikes }
    }
}

/// Everything phase A hands to phase B (and, in the sharded path, to the
/// cross-shard SAM aggregation in between).
#[derive(Debug)]
pub(crate) struct PhaseAOut {
    /// Checkpointed neuron states, one per segment boundary.
    pub ckpts: Vec<Snapshot>,
    /// This shard's activity record (to be aggregated across shards).
    pub sam: SpikeActivityMonitor,
    /// Per-sample negative log-likelihoods, in row order.
    pub per_sample_loss: Vec<f64>,
    /// Correct predictions on the full-forward logits.
    pub correct: usize,
    /// `∂L/∂logits_t` (already divided by global batch and `T`).
    pub per_step_grad: Tensor,
}

/// One checkpointed (or, with `percentile > 0`, Skipper) iteration over the
/// whole batch under the given activity metric and skip policy (see
/// [`crate::sam`]).
///
/// # Panics
///
/// Panics if `checkpoints` is zero or exceeds `inputs.len()`.
#[expect(clippy::too_many_arguments, reason = "the batch plus method settings")]
pub(crate) fn checkpointed_step_with(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    checkpoints: usize,
    percentile: f32,
    metric: SamMetric,
    policy: SkipPolicy,
) -> StepResult {
    let timesteps = inputs.len();
    let batch = inputs[0].shape()[0];
    let bounds = segment_bounds(timesteps, checkpoints);
    let shard = ShardCtx::full(batch);
    let a = checkpoint_forward(net, inputs, labels, iter_seed, &bounds, metric, shard);
    let decisions = decide_skips(&a.sam, &bounds, percentile, policy, iter_seed);
    let (recomputed, skipped) = checkpoint_backward(
        net,
        inputs,
        iter_seed,
        &bounds,
        &a.ckpts,
        &a.per_step_grad,
        &decisions,
        shard,
        &mut GradSink::Direct,
    );
    emit_skip_trace(&bounds, &a.sam, &decisions);
    skipper_obs::counter_add("skipper.steps_skipped", skipped as f64);
    skipper_obs::counter_add("skipper.steps_recomputed", recomputed as f64);
    let groups = vec![a.per_sample_loss];
    StepResult {
        loss: combine_loss_groups(&groups, shard.global_batch),
        correct: a.correct,
        recomputed_steps: recomputed,
        skipped_steps: skipped,
        sam: a.sam,
        loss_groups: groups,
    }
}

/// Phase A over one batch shard: gradient-free forward with boundary
/// checkpoints, SAM recording and the loss on time-averaged logits.
///
/// # Panics
///
/// Panics if `bounds` does not describe at least one segment over
/// `inputs.len()` timesteps.
pub(crate) fn checkpoint_forward(
    net: &SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    bounds: &[usize],
    metric: SamMetric,
    shard: ShardCtx,
) -> PhaseAOut {
    let timesteps = inputs.len();
    let batch = inputs[0].shape()[0];
    let checkpoints = bounds.len() - 1;
    let mut state = net.init_state(batch);
    let mut ckpts: Vec<Snapshot> = Vec::with_capacity(checkpoints);
    let mut sam = SpikeActivityMonitor::new(timesteps);
    let mut logits: Option<Tensor> = None;
    {
        let _fwd = skipper_obs::span!(
            "forward_pass",
            timesteps = timesteps,
            checkpoints = checkpoints
        );
        let _cat = CategoryGuard::new(Category::Activations);
        let mut next_boundary = 0usize;
        for (t, input) in inputs.iter().enumerate() {
            if next_boundary < checkpoints && t == bounds[next_boundary] {
                ckpts.push(Snapshot::take(&state));
                skipper_obs::instant!(
                    skipper_obs::Level::Debug,
                    "checkpoint_save",
                    c = next_boundary,
                    t = t
                );
                next_boundary += 1;
            }
            let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
            let out = net.step_infer(input, &mut state, &ctx);
            // Record the configured activity statistic (the plain spike sum
            // is already computed by the step; others read the state).
            sam.record(match metric {
                SamMetric::SpikeSum => out.spike_sum,
                other => other.measure(&state),
            });
            match logits.as_mut() {
                Some(l) => l.add_assign(&out.logits),
                None => logits = Some(out.logits),
            }
        }
    }
    #[expect(clippy::expect_used, reason = "T >= 1 is validated at session build")]
    let mut logits = logits.expect("at least one timestep");
    logits.scale_assign(1.0 / timesteps as f32); // time-averaged readout
    let loss = softmax_cross_entropy_scaled(&logits, labels, shard.global_batch);
    let per_step_grad = loss.dlogits.scale(1.0 / timesteps as f32);
    PhaseAOut {
        ckpts,
        sam,
        per_sample_loss: loss.per_sample,
        correct: loss.correct,
        per_step_grad,
    }
}

/// Phase B over one batch shard: segment-wise backward under an
/// already-formed global skip schedule. Returns `(recomputed, skipped)`
/// timestep counts. The caller emits the skip trace
/// ([`emit_skip_trace`]), once per iteration rather than once per shard.
#[expect(clippy::too_many_arguments, reason = "phase B takes phase A's outputs")]
pub(crate) fn checkpoint_backward(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    iter_seed: u64,
    bounds: &[usize],
    ckpts: &[Snapshot],
    per_step_grad: &Tensor,
    decisions: &SkipDecisions,
    shard: ShardCtx,
    sink: &mut GradSink<'_>,
) -> (usize, usize) {
    let checkpoints = bounds.len() - 1;
    let mut boundary_grads: Option<Vec<Tensor>> = None;
    let mut recomputed = 0usize;
    let mut skipped = 0usize;
    for c in (0..checkpoints).rev() {
        let (start, end) = (bounds[c], bounds[c + 1]);
        let _seg = skipper_obs::span!("recompute_segment", c = c, start = start, end = end);
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(net.params());
        let mut tstate = TapedState::from_state(&mut g, &ckpts[c].restore(), true);
        let mut logit_vars = Vec::new();
        for (t, input) in inputs.iter().enumerate().take(end).skip(start) {
            if decisions.skip(t) {
                skipped += 1;
                continue;
            }
            recomputed += 1;
            let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
            let out = net.step_taped(&mut g, &mut binder, input, &mut tstate, &ctx);
            logit_vars.push(out.logits);
        }
        // Seed the loss gradient into every recomputed timestep's readout
        // contribution (∂L/∂logits_t = ∂L/∂logits · 1/T, since the readout
        // averages over time).
        let _bwd = skipper_obs::span!("segment_backward", c = c);
        for &v in &logit_vars {
            g.seed_grad(v, per_step_grad.clone());
        }
        // Seed the boundary gradients from the later segment into this
        // segment's final membrane variables.
        if let Some(grads) = boundary_grads.take() {
            for (&var, grad) in tstate.mems.iter().zip(grads) {
                g.seed_grad(var, grad);
            }
        }
        g.backward();
        // New boundary gradients: ∂L/∂U at this segment's start.
        let grads: Vec<Tensor> = tstate
            .initial_mems
            .iter()
            .map(|&v| {
                g.take_grad(v)
                    .unwrap_or_else(|| Tensor::zeros(g.shape(v).clone()))
            })
            .collect();
        boundary_grads = Some(grads);
        sink.harvest(&binder, &mut g, net.params_mut());
        // Dropping `g` releases this segment's activations.
    }
    (recomputed, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::shard::reference_step;

    /// One unsharded iteration with `C` checkpoints and skip percentile `p`
    /// under the paper's metric and policy, through the one entry point.
    fn checkpointed_step(
        net: &mut SpikingNetwork,
        inputs: &[Tensor],
        labels: &[usize],
        seed: u64,
        checkpoints: usize,
        percentile: f32,
    ) -> StepResult {
        let method = Method::Skipper {
            checkpoints,
            percentile,
        };
        reference_step(net, &method, inputs, labels, seed)
    }
    use skipper_snn::{custom_net, lenet5, ModelConfig};
    use skipper_tensor::XorShiftRng;

    fn setup(seed: u64) -> (SpikingNetwork, Vec<Tensor>, Vec<usize>) {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut rng = XorShiftRng::new(seed);
        let inputs: Vec<Tensor> = (0..12)
            .map(|_| Tensor::rand([2, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        (net, inputs, vec![2, 7])
    }

    /// The key correctness theorem: with p = 0, checkpointed gradients are
    /// identical to baseline BPTT up to float roundoff.
    #[test]
    fn checkpointed_gradients_match_bptt() {
        let (mut a, inputs, labels) = setup(80);
        let (mut b, _, _) = setup(80);
        let ra = reference_step(&mut a, &Method::Bptt, &inputs, &labels, 3);
        for c in [1usize, 2, 3, 4] {
            let (mut bc, _, _) = setup(80);
            let rc = checkpointed_step(&mut bc, &inputs, &labels, 3, c, 0.0);
            assert!((ra.loss - rc.loss).abs() < 1e-9, "loss differs at C={c}");
            for (pa, pc) in a.params().iter().zip(bc.params().iter()) {
                let diff = pa.grad().max_abs_diff(pc.grad());
                assert!(diff < 2e-4, "grad {} differs by {diff} at C={c}", pa.name());
            }
        }
        // Also sanity: C=1 equals a full no-skip recompute of BPTT.
        let r1 = checkpointed_step(&mut b, &inputs, &labels, 3, 1, 0.0);
        assert_eq!(r1.recomputed_steps, 12);
        assert_eq!(ra.recomputed_steps, 12);
    }

    #[test]
    fn skipper_skips_and_still_learns_direction() {
        let (mut net, inputs, labels) = setup(81);
        let r = checkpointed_step(&mut net, &inputs, &labels, 9, 2, 50.0);
        assert!(r.skipped_steps > 0, "p=50 must skip timesteps");
        assert_eq!(r.skipped_steps + r.recomputed_steps, 12);
        let grad_norm: f64 = net
            .params()
            .iter()
            .map(|p| p.grad().map(|x| x * x).sum())
            .sum();
        assert!(grad_norm > 0.0);
    }

    #[test]
    fn loss_is_exact_regardless_of_skipping() {
        // Skipping only approximates the backward pass; the reported loss
        // comes from the full first forward pass and must match baseline.
        let (mut a, inputs, labels) = setup(83);
        let (mut b, _, _) = setup(83);
        let ra = reference_step(&mut a, &Method::Bptt, &inputs, &labels, 9);
        let rb = checkpointed_step(&mut b, &inputs, &labels, 9, 2, 60.0);
        assert!((ra.loss - rb.loss).abs() < 1e-9);
        assert_eq!(ra.correct, rb.correct);
    }

    #[test]
    fn peak_memory_shrinks_with_checkpointing() {
        use skipper_memprof as mp;
        let (mut net, inputs, labels) = setup(84);
        mp::reset_peaks();
        let _ = reference_step(&mut net, &Method::Bptt, &inputs, &labels, 1);
        let base = mp::snapshot().peak(mp::Category::Activations);
        mp::reset_peaks();
        let _ = checkpointed_step(&mut net, &inputs, &labels, 1, 4, 0.0);
        let ckpt = mp::snapshot().peak(mp::Category::Activations);
        // At least the saving Eq. 3 predicts: 12·A − (3·A + 4·S).
        let model = crate::analytic::AnalyticModel::new(&net);
        let predicted_saving = model.activation_bytes(&Method::Bptt, 12, 2)
            - model.activation_bytes(&Method::Checkpointed { checkpoints: 4 }, 12, 2);
        assert!(
            base - ckpt >= predicted_saving,
            "checkpointed peak {ckpt} does not save the {predicted_saving} bytes of Eq. 3 \
             below baseline {base}"
        );
    }

    /// Phase A's snapshots hold exactly `C ×` the analytic model's snapshot
    /// bytes (the `C·S_c` of Eqs. 3/6) for every model constructor. B = 3
    /// leaves every layer's spikes a partial last `u64` word.
    #[test]
    fn snapshot_bytes_match_the_analytic_model_exactly() {
        use crate::analytic::AnalyticModel;
        use skipper_memprof as mp;
        use skipper_snn::{alexnet, resnet20, vgg5};
        let cfg = ModelConfig {
            input_hw: 8,
            in_channels: 2,
            num_classes: 4,
            width_mult: 0.25,
            dropout: Some(0.5),
            ..ModelConfig::default()
        };
        let (batch, checkpoints) = (3usize, 3usize);
        let mut rng = XorShiftRng::new(46);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::rand([batch, 2, 8, 8], &mut rng).map(|x| (x > 0.5) as i32 as f32))
            .collect();
        let bounds = segment_bounds(inputs.len(), checkpoints);
        let nets = [
            custom_net(&ModelConfig {
                dropout: None,
                ..cfg.clone()
            }),
            vgg5(&cfg),
            resnet20(&cfg),
            alexnet(&cfg),
            lenet5(&cfg),
            custom_net(&cfg),
        ];
        for net in nets {
            let shard = ShardCtx::full(batch);
            let a = checkpoint_forward(
                &net,
                &inputs,
                &[0, 1, 3],
                9,
                &bounds,
                SamMetric::SpikeSum,
                shard,
            );
            let held = mp::snapshot().live(mp::Category::Activations);
            drop(a.ckpts);
            let released = held - mp::snapshot().live(mp::Category::Activations);
            let expect = checkpoints as u64 * AnalyticModel::new(&net).snapshot_bytes(batch);
            assert_eq!(released, expect, "{}: snapshot bytes", net.name());
        }
    }

    #[test]
    fn random_policy_skips_the_exact_fraction() {
        use crate::sam::{SamMetric, SkipPolicy};
        let (mut net, inputs, labels) = setup(86);
        let r = checkpointed_step_with(
            &mut net,
            &inputs,
            &labels,
            3,
            2,
            50.0,
            SamMetric::SpikeSum,
            SkipPolicy::Random,
        );
        // Two segments of 6, floor(0.5·6) = 3 dropped each.
        assert_eq!(r.skipped_steps, 6);
        assert_eq!(r.recomputed_steps, 6);
    }

    #[test]
    fn random_policy_is_deterministic_per_iteration() {
        use crate::sam::{SamMetric, SkipPolicy};
        let (mut a, inputs, labels) = setup(87);
        let (mut b, _, _) = setup(87);
        let run = |net: &mut SpikingNetwork| {
            checkpointed_step_with(
                net,
                &inputs,
                &labels,
                9,
                3,
                40.0,
                SamMetric::SpikeSum,
                SkipPolicy::Random,
            )
        };
        let ra = run(&mut a);
        let rb = run(&mut b);
        assert_eq!(ra.loss, rb.loss);
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.grad().data(), pb.grad().data());
        }
    }

    #[test]
    fn alternative_sam_metrics_still_train() {
        use crate::sam::{SamMetric, SkipPolicy};
        for metric in [SamMetric::NeuronNormalized, SamMetric::MembraneL2] {
            let (mut net, inputs, labels) = setup(88);
            let r = checkpointed_step_with(
                &mut net,
                &inputs,
                &labels,
                5,
                2,
                50.0,
                metric,
                SkipPolicy::SpikeActivity,
            );
            assert!(r.loss.is_finite());
            assert!(r.skipped_steps > 0, "{metric} must skip something");
            let grad_norm: f64 = net
                .params()
                .iter()
                .map(|p| p.grad().map(|x| x * x).sum())
                .sum();
            assert!(grad_norm > 0.0);
        }
    }

    #[test]
    fn different_metrics_can_choose_different_steps() {
        use crate::sam::{SamMetric, SkipPolicy};
        // Gradients under different monitors usually differ (they threshold
        // different statistics). The metrics are correlated, so any single
        // batch may coincide — require a difference on at least one of
        // several batches.
        let mut any_diff = false;
        for seed in 89..95u64 {
            let (mut a, inputs, labels) = setup(seed);
            let (mut b, _, _) = setup(seed);
            let _ = checkpointed_step_with(
                &mut a,
                &inputs,
                &labels,
                seed,
                2,
                50.0,
                SamMetric::SpikeSum,
                SkipPolicy::SpikeActivity,
            );
            let _ = checkpointed_step_with(
                &mut b,
                &inputs,
                &labels,
                seed,
                2,
                50.0,
                SamMetric::MembraneL2,
                SkipPolicy::SpikeActivity,
            );
            let diff: f32 = a
                .params()
                .iter()
                .zip(b.params().iter())
                .map(|(pa, pb)| pa.grad().max_abs_diff(pb.grad()))
                .fold(0.0, f32::max);
            if diff > 0.0 {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "metrics never selected different steps");
    }

    #[test]
    fn skipper_peak_memory_below_plain_checkpointing() {
        use skipper_memprof as mp;
        // LeNet-style deeper net, longer horizon for clearer separation.
        let net_cfg = ModelConfig {
            input_hw: 16,
            in_channels: 2,
            width_mult: 0.25,
            ..ModelConfig::default()
        };
        let mut rng = XorShiftRng::new(85);
        let inputs: Vec<Tensor> = (0..24)
            .map(|_| Tensor::rand([2, 2, 16, 16], &mut rng).map(|x| (x > 0.7) as i32 as f32))
            .collect();
        let labels = vec![0, 1];
        let mut a = lenet5(&net_cfg);
        mp::reset_peaks();
        let _ = checkpointed_step(&mut a, &inputs, &labels, 1, 2, 0.0);
        let plain = mp::snapshot().peak(mp::Category::Activations);
        let mut b = lenet5(&net_cfg);
        mp::reset_peaks();
        let _ = checkpointed_step(&mut b, &inputs, &labels, 1, 2, 50.0);
        let skipped = mp::snapshot().peak(mp::Category::Activations);
        assert!(
            (skipped as f64) < 0.85 * plain as f64,
            "skipper peak {skipped} not below checkpointing peak {plain}"
        );
    }
}
