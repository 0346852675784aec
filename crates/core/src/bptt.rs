//! Baseline SNN-BPTT: one tape across all `T` timesteps (paper
//! Section III-B, Fig. 2).
//!
//! Every timestep of every layer appends its activations to a single
//! [`Graph`], which therefore holds `O(T)` state until the backward sweep —
//! the memory behaviour the paper sets out to fix. The loss is computed on
//! the time-accumulated readout logits and its analytic gradient is seeded
//! into every timestep's logit contribution.
//!
//! [`bptt_core`] is shard-aware: the data-parallel engine calls it once per
//! batch shard with a [`ShardCtx`] carrying the global batch size (loss
//! scaling) and the shard's sample offset (dropout streams), harvesting
//! into a per-shard [`GradSink`]. The unsharded [`bptt_step`] is the same
//! code with a full-batch context and the direct sink.

use crate::sam::SpikeActivityMonitor;
use crate::shard::{GradSink, ShardCtx};
use skipper_autograd::Graph;
use skipper_snn::{softmax_cross_entropy_scaled, ParamBinder, SpikingNetwork, StepCtx, TapedState};
use skipper_tensor::Tensor;

/// Outcome of one method-specific training step (gradients are left
/// accumulated in the network's parameter store — or the shard sink).
#[derive(Debug)]
pub(crate) struct StepResult {
    /// Mean cross-entropy loss of the iteration (over the global batch;
    /// a shard's value is its partial contribution).
    pub loss: f64,
    /// Correct predictions on the full-forward logits.
    pub correct: usize,
    /// Timesteps whose backward graph was built.
    pub recomputed_steps: usize,
    /// Timesteps skipped by SAM/SST.
    pub skipped_steps: usize,
    /// The iteration's spike-activity record.
    #[allow(dead_code)] // exposed for diagnostics and tests
    pub sam: SpikeActivityMonitor,
    /// Per-sample negative log-likelihoods of each loss evaluation, in
    /// batch order — one group for the single-loss methods, one per
    /// window for the truncated ones. The engine folds each group across
    /// shards in global sample order, reproducing the unsharded loss
    /// bit-for-bit (see [`combine_loss_groups`]).
    #[allow(dead_code)] // consumed by the engine
    pub loss_groups: Vec<Vec<f64>>,
}

/// The scalar loss of an iteration from its per-sample loss groups: each
/// group is left-folded in sample order and divided by the global batch,
/// the group values are left-folded in order and divided by the group
/// count. This is exactly the accumulation order of the unsharded
/// methods, so sharded runs that concatenate their groups in global
/// sample order reproduce the reference loss bit-for-bit.
pub(crate) fn combine_loss_groups(groups: &[Vec<f64>], global_batch: usize) -> f64 {
    let sum: f64 = groups
        .iter()
        // lint:allow(float-order): this sequential per-group fold IS the canonical reference order the tree reduction reproduces
        .map(|g| g.iter().sum::<f64>() / global_batch as f64)
        .sum();
    sum / groups.len() as f64
}

/// One baseline-BPTT iteration over `inputs` (length `T`, each `[B,C,H,W]`).
pub(crate) fn bptt_step(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
) -> StepResult {
    let batch = inputs[0].shape()[0];
    bptt_core(
        net,
        inputs,
        labels,
        iter_seed,
        ShardCtx::full(batch),
        &mut GradSink::Direct,
    )
}

/// Shard-aware BPTT over one slice of the batch.
pub(crate) fn bptt_core(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    shard: ShardCtx,
    sink: &mut GradSink<'_>,
) -> StepResult {
    let timesteps = inputs.len();
    let batch = inputs[0].shape()[0];
    let mut g = Graph::new();
    let mut binder = ParamBinder::new(net.params());
    let init = net.init_state(batch);
    let mut state = TapedState::from_state(&mut g, &init, false);
    let mut sam = SpikeActivityMonitor::new(timesteps);
    let mut logit_vars = Vec::with_capacity(timesteps);
    {
        let _fwd = skipper_obs::span!("forward_pass", timesteps = timesteps);
        for (t, input) in inputs.iter().enumerate() {
            let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
            let out = net.step_taped(&mut g, &mut binder, input, &mut state, &ctx);
            sam.record(out.spike_sum);
            logit_vars.push(out.logits);
        }
    }
    // Time-averaged readout: logits = (1/T)·Σ_t logits_t. The average
    // keeps the softmax scale independent of the horizon, so accuracy and
    // learning-rate behaviour are comparable across T (cf. Fig. 9).
    let mut logits = g.value(logit_vars[0]).clone();
    for &v in &logit_vars[1..] {
        logits.add_assign(g.value(v));
    }
    logits.scale_assign(1.0 / timesteps as f32);
    let loss = softmax_cross_entropy_scaled(&logits, labels, shard.global_batch);
    let per_step_grad = loss.dlogits.scale(1.0 / timesteps as f32);
    let bwd = skipper_obs::span!("backward_pass", timesteps = timesteps);
    for &v in &logit_vars {
        g.seed_grad(v, per_step_grad.clone());
    }
    g.backward();
    sink.harvest(&binder, &mut g, net.params_mut());
    drop(bwd);
    let groups = vec![loss.per_sample];
    StepResult {
        loss: combine_loss_groups(&groups, shard.global_batch),
        correct: loss.correct,
        recomputed_steps: timesteps,
        skipped_steps: 0,
        sam,
        loss_groups: groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, ModelConfig};
    use skipper_tensor::XorShiftRng;

    fn setup() -> (SpikingNetwork, Vec<Tensor>, Vec<usize>) {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut rng = XorShiftRng::new(70);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::rand([2, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        (net, inputs, vec![1, 3])
    }

    #[test]
    fn produces_finite_loss_and_gradients() {
        let (mut net, inputs, labels) = setup();
        let r = bptt_step(&mut net, &inputs, &labels, 1);
        assert!(r.loss.is_finite() && r.loss > 0.0);
        assert_eq!(r.recomputed_steps, 6);
        assert_eq!(r.skipped_steps, 0);
        assert_eq!(r.loss_groups.len(), 1);
        assert_eq!(r.loss_groups[0].len(), 2);
        let grad_norm: f64 = net
            .params()
            .iter()
            .map(|p| p.grad().map(|x| x * x).sum())
            .sum();
        assert!(grad_norm > 0.0, "some gradient must flow");
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, inputs, labels) = setup();
        let (mut b, _, _) = setup();
        let ra = bptt_step(&mut a, &inputs, &labels, 5);
        let rb = bptt_step(&mut b, &inputs, &labels, 5);
        assert_eq!(ra.loss, rb.loss);
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.grad().data(), pb.grad().data());
        }
    }

    #[test]
    fn records_sam_for_every_timestep() {
        let (mut net, inputs, labels) = setup();
        let r = bptt_step(&mut net, &inputs, &labels, 2);
        assert_eq!(r.sam.sums().len(), 6);
    }
}
