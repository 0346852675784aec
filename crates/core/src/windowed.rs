//! The taped-first-pass core: BPTT, TBPTT and TBPTT-LBP as one loop (Guo
//! et al. \[28\] state them as one algorithm and its limits).
//!
//! The horizon is cut into windows of `trW` timesteps and the network, at
//! the auxiliary classifiers' taps, into gradient-isolated blocks. Every
//! (window, block) pair runs on its own [`Graph`]: the carried neuron state
//! enters as **detached** leaves (the truncation), spikes cross a block
//! boundary as detached values (the "local" part), a non-final block is
//! supervised through its auxiliary head and the final one through the
//! network's own readout; the tape is dropped after its backward sweep and
//! the optimizer applies the gradients summed over windows (paper Section
//! III-C). With no taps the network is a single final block: that is plain
//! TBPTT, and with `trW = T` baseline BPTT (Section III-B), whose one tape
//! holds `O(T)` activations — the memory behaviour the paper sets out to
//! fix. With taps the block tapes are smaller, but every window's boundary
//! spikes are materialised and the heads carry their own weights.
//!
//! The core is shard-aware: a [`ShardCtx`] carries the global batch size
//! (loss scaling) and the shard's row offset (dropout streams), and the
//! gradients go to per-store [`GradSink`]s.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::lbp::LocalClassifiers;
use crate::sam::SpikeActivityMonitor;
use crate::shard::{GradSink, ShardCtx};
use skipper_autograd::Graph;
use skipper_memprof::{Category, CategoryGuard};
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
    pub sam: SpikeActivityMonitor,
    /// Per-sample negative log-likelihoods of each loss evaluation, in
    /// batch order — one group per window, so one for BPTT and the
    /// two-phase methods. The shard protocol folds each group across shards
    /// in global sample order, reproducing the unsharded loss bit-for-bit
    /// (see [`combine_loss_groups`]).
    pub loss_groups: Vec<Vec<f64>>,
}

/// The scalar loss of an iteration from its per-sample loss groups: each
/// group is left-folded in sample order and divided by the global batch,
/// the group values are left-folded in order and divided by the group
/// count. Sharded runs that concatenate their groups in global sample
/// order therefore reproduce the unsharded loss bit-for-bit.
pub(crate) fn combine_loss_groups(groups: &[Vec<f64>], global_batch: usize) -> f64 {
    let sum: f64 = groups
        .iter()
        // lint:allow(float-order): this sequential per-group fold IS the canonical reference order the tree reduction reproduces
        .map(|g| g.iter().sum::<f64>() / global_batch as f64)
        .sum();
    sum / groups.len() as f64
}

/// One iteration over one slice of the batch: windows of `window` steps
/// over the blocks of `aux` ([`LocalClassifiers::none`] for plain BPTT and
/// TBPTT). Main-network and auxiliary gradients flow to separate sinks,
/// mirroring their separate optimizers.
///
/// # Panics
///
/// Panics if `window` is zero.
#[expect(clippy::too_many_arguments, reason = "two nets, each with a grad sink")]
pub(crate) fn windowed_core(
    net: &mut SpikingNetwork,
    aux: &mut LocalClassifiers,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    window: usize,
    shard: ShardCtx,
    sink: &mut GradSink<'_>,
    aux_sink: &mut GradSink<'_>,
) -> StepResult {
    let timesteps = inputs.len();
    let blocks = aux.blocks(net.modules().len());
    let mut carried = net.init_state(inputs[0].shape()[0]);
    let mut sam_sums = vec![0.0f64; timesteps];
    let mut loss_groups: Vec<Vec<f64>> = Vec::new();
    let mut total_logits: Option<Tensor> = None;
    for start in (0..timesteps).step_by(window) {
        let end = (start + window).min(timesteps);
        let _win = skipper_obs::span!("window", start = start, end = end);
        // Per-timestep inputs of the current block (detached values).
        let mut block_inputs: Vec<Tensor> = inputs[start..end].to_vec();
        for (bi, range) in blocks.iter().enumerate() {
            let is_final = bi + 1 == blocks.len();
            let mut g = Graph::new();
            let mut binder = ParamBinder::new(net.params());
            let mut aux_binder = ParamBinder::new(aux.store());
            // Detached boundary: requires_grad = false is the truncation.
            let mut tstate = TapedState::from_state(&mut g, &carried, false);
            let mut logit_vars = Vec::with_capacity(end - start);
            let mut outputs: Vec<Tensor> = Vec::with_capacity(end - start);
            let fwd = skipper_obs::span!("forward_pass", timesteps = end - start);
            for (t, input) in (start..end).zip(&block_inputs) {
                let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
                let xv = g.leaf(input.clone(), false);
                let (out, logits, ssum) = net.step_taped_modules(
                    &mut g,
                    &mut binder,
                    xv,
                    &mut tstate,
                    &ctx,
                    range.clone(),
                );
                sam_sums[t] += ssum;
                if is_final {
                    #[expect(clippy::expect_used, reason = "the final block emits the readout")]
                    logit_vars.push(logits.expect("final block holds the readout"));
                } else {
                    logit_vars.push(aux.head_logits(bi, &mut g, &mut aux_binder, out));
                    // Detach: the next block consumes values, not vars.
                    let _cat = CategoryGuard::new(Category::Activations);
                    outputs.push(g.value(out).deep_clone());
                }
            }
            drop(fwd);
            // Time-averaged readout: logits = (1/trW)·Σ_t logits_t. The
            // average keeps the softmax scale independent of the horizon,
            // so accuracy and learning-rate behaviour are comparable
            // across T and trW (cf. Fig. 9).
            let window_len = logit_vars.len() as f32;
            let mut logits = g.value(logit_vars[0]).clone();
            for &v in &logit_vars[1..] {
                logits.add_assign(g.value(v));
            }
            logits.scale_assign(1.0 / window_len);
            let loss = softmax_cross_entropy_scaled(&logits, labels, shard.global_batch);
            let per_step_grad = loss.dlogits.scale(1.0 / window_len);
            let bwd = skipper_obs::span!("backward_pass", timesteps = end - start);
            for &v in &logit_vars {
                g.seed_grad(v, per_step_grad.clone());
            }
            g.backward();
            sink.harvest(&binder, &mut g, net.params_mut());
            aux_sink.harvest(&aux_binder, &mut g, aux.store_mut());
            drop(bwd);
            carried = tstate.to_state(&g);
            if is_final {
                loss_groups.push(loss.per_sample);
                match total_logits.as_mut() {
                    Some(l) => l.add_assign(&logits),
                    None => total_logits = Some(logits),
                }
            } else {
                block_inputs = outputs;
            }
            // Tape dropped here: "the computation graph is discarded and
            // the corresponding memory is released".
        }
    }
    // Accuracy on the readout accumulated over all windows, comparable
    // across methods.
    #[expect(clippy::expect_used, reason = "T >= 1 is validated, so one window ran")]
    let total = total_logits.expect("at least one window");
    let preds = total.argmax_rows();
    StepResult {
        loss: combine_loss_groups(&loss_groups, shard.global_batch),
        correct: preds.iter().zip(labels).filter(|(p, l)| p == l).count(),
        recomputed_steps: timesteps,
        skipped_steps: 0,
        sam: SpikeActivityMonitor::from_sums(sam_sums),
        loss_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::shard::reference_step;
    use skipper_snn::{custom_net, ModelConfig};
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
        (net, inputs, vec![4, 9])
    }

    #[test]
    fn produces_finite_loss_and_gradients() {
        let (mut net, inputs, labels) = setup(70);
        let r = reference_step(&mut net, &Method::Bptt, &inputs, &labels, 1);
        assert!(r.loss.is_finite() && r.loss > 0.0);
        assert_eq!(r.recomputed_steps, 12);
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
        for method in [Method::Bptt, Method::Tbptt { window: 5 }] {
            let (mut a, inputs, labels) = setup(70);
            let (mut b, _, _) = setup(70);
            let ra = reference_step(&mut a, &method, &inputs, &labels, 5);
            let rb = reference_step(&mut b, &method, &inputs, &labels, 5);
            assert_eq!(ra.loss, rb.loss);
            for (pa, pb) in a.params().iter().zip(b.params().iter()) {
                assert_eq!(pa.grad().data(), pb.grad().data());
            }
        }
    }

    #[test]
    fn records_sam_for_every_timestep() {
        let (mut net, inputs, labels) = setup(70);
        let r = reference_step(&mut net, &Method::Bptt, &inputs, &labels, 2);
        assert_eq!(r.sam.sums().len(), 12);
    }

    #[test]
    fn truncated_gradients_differ_from_bptt() {
        let (mut a, inputs, labels) = setup(91);
        let (mut b, _, _) = setup(91);
        let _ = reference_step(&mut a, &Method::Bptt, &inputs, &labels, 7);
        let _ = reference_step(&mut b, &Method::Tbptt { window: 3 }, &inputs, &labels, 7);
        let diff: f64 = a
            .params()
            .iter()
            .zip(b.params().iter())
            .map(|(pa, pb)| pa.grad().max_abs_diff(pb.grad()) as f64)
            .sum();
        assert!(diff > 1e-7, "truncation must change gradients");
    }

    #[test]
    fn window_peak_memory_below_bptt() {
        use skipper_memprof as mp;
        let (mut net, inputs, labels) = setup(92);
        mp::reset_peaks();
        let _ = reference_step(&mut net, &Method::Bptt, &inputs, &labels, 1);
        let base = mp::snapshot().peak(mp::Category::Activations);
        mp::reset_peaks();
        let _ = reference_step(&mut net, &Method::Tbptt { window: 3 }, &inputs, &labels, 1);
        let trunc = mp::snapshot().peak(mp::Category::Activations);
        assert!((trunc as f64) < 0.6 * base as f64);
    }

    #[test]
    fn ragged_final_window_is_handled() {
        let (mut net, inputs, labels) = setup(93);
        // 5 + 5 + 2
        let r = reference_step(&mut net, &Method::Tbptt { window: 5 }, &inputs, &labels, 1);
        assert!(r.loss.is_finite());
        assert_eq!(r.loss_groups.len(), 3);
        assert_eq!(r.sam.sums().len(), 12);
    }
}
