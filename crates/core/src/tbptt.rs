//! Truncated BPTT (paper Section III-C), the classic memory-reduction
//! baseline the paper compares against (Fig. 10/12, Table I).
//!
//! The horizon is cut into windows of `trW` timesteps. Each window builds
//! its own tape from the carried neuron state inserted as **detached**
//! leaves (no gradient crosses a window boundary — that is the truncation),
//! computes a loss on the window-accumulated readout, backpropagates, and
//! accumulates weight gradients; the optimizer then applies the summed
//! gradient, as in the paper's description ("the weight gradients
//! calculated at time (t′, 2t′, …, T) are summed").

use crate::bptt::{combine_loss_groups, StepResult};
use crate::sam::SpikeActivityMonitor;
use crate::shard::{GradSink, ShardCtx};
use skipper_autograd::Graph;
use skipper_snn::{softmax_cross_entropy_scaled, ParamBinder, SpikingNetwork, StepCtx, TapedState};
use skipper_tensor::Tensor;

/// One TBPTT iteration with truncation window `window`.
///
/// # Panics
///
/// Panics if `window` is zero.
pub(crate) fn tbptt_step(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    window: usize,
) -> StepResult {
    let batch = inputs[0].shape()[0];
    tbptt_core(
        net,
        inputs,
        labels,
        iter_seed,
        window,
        ShardCtx::full(batch),
        &mut GradSink::Direct,
    )
}

/// Shard-aware TBPTT over one slice of the batch.
pub(crate) fn tbptt_core(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    window: usize,
    shard: ShardCtx,
    sink: &mut GradSink<'_>,
) -> StepResult {
    assert!(window > 0, "truncation window must be positive");
    let timesteps = inputs.len();
    let batch = inputs[0].shape()[0];
    let mut carried = net.init_state(batch);
    let mut sam = SpikeActivityMonitor::new(timesteps);
    let mut total_logits: Option<Tensor> = None;
    let mut loss_groups: Vec<Vec<f64>> = Vec::new();
    let mut start = 0usize;
    while start < timesteps {
        let end = (start + window).min(timesteps);
        let _win = skipper_obs::span!("tbptt_window", start = start, end = end);
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(net.params());
        // Detached boundary: requires_grad = false is the truncation.
        let mut tstate = TapedState::from_state(&mut g, &carried, false);
        let mut logit_vars = Vec::with_capacity(end - start);
        for (t, input) in inputs.iter().enumerate().take(end).skip(start) {
            let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
            let out = net.step_taped(&mut g, &mut binder, input, &mut tstate, &ctx);
            sam.record(out.spike_sum);
            logit_vars.push(out.logits);
        }
        // Time-averaged readout within the window (matching the other
        // methods' scale-invariance in the horizon).
        let window_len = (end - start) as f32;
        let mut window_logits = g.value(logit_vars[0]).clone();
        for &v in &logit_vars[1..] {
            window_logits.add_assign(g.value(v));
        }
        window_logits.scale_assign(1.0 / window_len);
        let loss = softmax_cross_entropy_scaled(&window_logits, labels, shard.global_batch);
        loss_groups.push(loss.per_sample);
        let per_step_grad = loss.dlogits.scale(1.0 / window_len);
        for &v in &logit_vars {
            g.seed_grad(v, per_step_grad.clone());
        }
        g.backward();
        sink.harvest(&binder, &mut g, net.params_mut());
        carried = tstate.to_state(&g);
        match total_logits.as_mut() {
            Some(l) => l.add_assign(&window_logits),
            None => total_logits = Some(window_logits),
        }
        start = end;
        // Tape dropped here: "the computation graph is discarded and the
        // corresponding memory is released".
    }
    // Accuracy on the full accumulated readout, comparable to the other
    // methods.
    // lint:allow(panic): T >= 1 is validated at session build, so at least one window ran
    let total = total_logits.expect("at least one window");
    let preds = total.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| *p == *l).count();
    StepResult {
        loss: combine_loss_groups(&loss_groups, shard.global_batch),
        correct,
        recomputed_steps: timesteps,
        skipped_steps: 0,
        sam,
        loss_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bptt::bptt_step;
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
    fn full_window_tbptt_equals_bptt() {
        let (mut a, inputs, labels) = setup(90);
        let (mut b, _, _) = setup(90);
        let ra = bptt_step(&mut a, &inputs, &labels, 7);
        let rb = tbptt_step(&mut b, &inputs, &labels, 7, 12);
        assert!((ra.loss - rb.loss).abs() < 1e-9);
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert!(pa.grad().max_abs_diff(pb.grad()) < 1e-5);
        }
    }

    #[test]
    fn truncated_gradients_differ_from_bptt() {
        let (mut a, inputs, labels) = setup(91);
        let (mut b, _, _) = setup(91);
        let _ = bptt_step(&mut a, &inputs, &labels, 7);
        let _ = tbptt_step(&mut b, &inputs, &labels, 7, 3);
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
        let _ = bptt_step(&mut net, &inputs, &labels, 1);
        let base = mp::snapshot().peak(mp::Category::Activations);
        mp::reset_peaks();
        let _ = tbptt_step(&mut net, &inputs, &labels, 1, 3);
        let trunc = mp::snapshot().peak(mp::Category::Activations);
        assert!((trunc as f64) < 0.6 * base as f64);
    }

    #[test]
    fn ragged_final_window_is_handled() {
        let (mut net, inputs, labels) = setup(93);
        let r = tbptt_step(&mut net, &inputs, &labels, 1, 5); // 5+5+2
        assert!(r.loss.is_finite());
        assert_eq!(r.sam.sums().len(), 12);
    }
}
