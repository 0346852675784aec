//! TBPTT with locally supervised blocks — the TBPTT-LBP baseline of Guo et
//! al. \[28\], compared against in the paper's Table II and Fig. 16.
//!
//! The network is cut at `taps` into gradient-isolated blocks. Within each
//! truncation window, every block runs on its **own** tape: spikes cross
//! block boundaries as detached values (that is the "local" part — no
//! global backpropagation across layers), and each non-final block is
//! supervised by an auxiliary classifier (global-average-pool + linear)
//! attached to its output, while the final block uses the network's own
//! readout. Temporal truncation works exactly as in [`crate::tbptt`].
//!
//! Note the memory character the paper points out: the block tapes are
//! smaller than a full-network tape, but the per-timestep boundary spikes
//! of every window must be materialised, and the local classifiers carry
//! their own (small) weights.

use crate::bptt::{combine_loss_groups, StepResult};
use crate::sam::SpikeActivityMonitor;
use crate::shard::{GradSink, ShardCtx};
use skipper_autograd::Graph;
use skipper_memprof::{Category, CategoryGuard};
use skipper_snn::{
    softmax_cross_entropy_scaled, LinearLayer, ParamBinder, ParamStore, SpikingNetwork, StepCtx,
    TapedState,
};
use skipper_tensor::{Tensor, XorShiftRng};

/// An auxiliary classifier head on one block boundary.
#[derive(Debug, Clone)]
struct AuxHead {
    /// Global-average-pool window (spatial extent), if the block output is
    /// spatial.
    pool: Option<usize>,
    /// The local linear classifier.
    linear: LinearLayer,
}

/// The auxiliary classifiers of a TBPTT-LBP configuration. Persist this
/// across iterations (their weights are trained too) and step its
/// parameter store with the same optimizer type as the main network.
#[derive(Debug)]
pub struct LocalClassifiers {
    taps: Vec<usize>,
    store: ParamStore,
    heads: Vec<AuxHead>,
}

impl LocalClassifiers {
    /// Build one head per tap by probing the block output shapes with a
    /// single dummy sample.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or not strictly ascending inside the
    /// module list.
    pub fn new(net: &SpikingNetwork, taps: &[usize], num_classes: usize, seed: u64) -> Self {
        assert!(!taps.is_empty(), "need at least one tap");
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(seed);
        let mut heads = Vec::new();
        // Probe block output shapes.
        let mut state = net.init_state(1);
        let mut dims = vec![1usize];
        dims.extend_from_slice(net.input_shape());
        let mut x = Tensor::zeros(dims);
        let ctx = StepCtx::eval(0);
        let mut start = 0usize;
        for (i, &tap) in taps.iter().enumerate() {
            let (out, _, _) = net.step_infer_modules(x, &mut state, &ctx, start..tap);
            let shape = out.shape().dims().to_vec();
            let (pool, features) = match shape.len() {
                4 => {
                    assert_eq!(shape[2], shape[3], "square feature maps expected");
                    (Some(shape[2]), shape[1])
                }
                2 => (None, shape[1]),
                // lint:allow(panic): block outputs are rank-2/rank-3 by construction of the method graph
                other => panic!("unexpected block output rank {other}"),
            };
            let linear = LinearLayer::new(
                &mut store,
                &format!("aux{i}"),
                features,
                num_classes,
                true,
                &mut rng,
            );
            heads.push(AuxHead { pool, linear });
            x = out;
            start = tap;
        }
        LocalClassifiers {
            taps: taps.to_vec(),
            store,
            heads,
        }
    }

    /// The taps this configuration was built for.
    pub fn taps(&self) -> &[usize] {
        &self.taps
    }

    /// The auxiliary parameters (hand to an optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The auxiliary parameters, read-only.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Extra bytes the local classifiers cost (weights + grads).
    pub fn byte_cost(&self) -> u64 {
        self.store.scalar_count() * 4 * 2
    }

    /// Storage-sharing view for a worker thread (weights are Arc clones;
    /// see [`SpikingNetwork::share`]).
    pub fn share(&self) -> LocalClassifiers {
        LocalClassifiers {
            taps: self.taps.clone(),
            store: self.store.share(),
            heads: self.heads.clone(),
        }
    }
}

/// One TBPTT-LBP iteration.
///
/// # Panics
///
/// Panics if `aux` was built for different taps.
pub(crate) fn lbp_step(
    net: &mut SpikingNetwork,
    aux: &mut LocalClassifiers,
    inputs: &[Tensor],
    labels: &[usize],
    iter_seed: u64,
    window: usize,
) -> StepResult {
    let batch = inputs[0].shape()[0];
    lbp_core(
        net,
        aux,
        inputs,
        labels,
        iter_seed,
        window,
        ShardCtx::full(batch),
        &mut GradSink::Direct,
        &mut GradSink::Direct,
    )
}

/// Shard-aware TBPTT-LBP over one slice of the batch. Main-network and
/// auxiliary-classifier gradients flow to separate sinks, mirroring their
/// separate optimizers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lbp_core(
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
    let batch = inputs[0].shape()[0];
    let taps = aux.taps.clone();
    let n_modules = net.modules().len();
    // Block ranges: [0, taps[0]), [taps[0], taps[1]), …, [last, n).
    let mut blocks = Vec::with_capacity(taps.len() + 1);
    let mut prev = 0usize;
    for &t in &taps {
        blocks.push(prev..t);
        prev = t;
    }
    blocks.push(prev..n_modules);

    let mut carried = net.init_state(batch);
    let mut sam_sums = vec![0.0f64; timesteps];
    let mut loss_groups: Vec<Vec<f64>> = Vec::new();
    let mut total_logits: Option<Tensor> = None;
    let mut start = 0usize;
    while start < timesteps {
        let end = (start + window).min(timesteps);
        let _win = skipper_obs::span!("lbp_window", start = start, end = end);
        // Per-timestep inputs of the current block (detached values).
        let mut block_inputs: Vec<Tensor> = inputs[start..end].to_vec();
        for (bi, range) in blocks.iter().enumerate() {
            let is_final = bi == blocks.len() - 1;
            let mut g = Graph::new();
            let mut binder = ParamBinder::new(net.params());
            let mut aux_binder = ParamBinder::new(&aux.store);
            let mut tstate = TapedState::from_state(&mut g, &carried, false);
            let mut logit_vars = Vec::with_capacity(end - start);
            let mut outputs: Vec<Tensor> = Vec::with_capacity(end - start);
            for (wi, t) in (start..end).enumerate() {
                let ctx = StepCtx::train_shard(iter_seed, t, shard.batch_offset);
                let xv = g.leaf(block_inputs[wi].clone(), false);
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
                    // lint:allow(panic): method validation guarantees the final block emits the readout logits
                    logit_vars.push(logits.expect("final block holds the readout"));
                } else {
                    let head = &aux.heads[bi];
                    let flat = match head.pool {
                        Some(k) => {
                            let pooled = g.avg_pool2d(out, k);
                            let features = g.value(pooled).numel() / batch;
                            g.reshape(pooled, [batch, features])
                        }
                        None => out,
                    };
                    logit_vars.push(head.linear.forward_taped(
                        &mut g,
                        &mut aux_binder,
                        &aux.store,
                        flat,
                    ));
                    // Detach: the next block consumes values, not vars.
                    let _cat = CategoryGuard::new(Category::Activations);
                    outputs.push(g.value(out).deep_clone());
                }
            }
            let window_len = logit_vars.len() as f32;
            let mut logits = g.value(logit_vars[0]).clone();
            for &v in &logit_vars[1..] {
                logits.add_assign(g.value(v));
            }
            logits.scale_assign(1.0 / window_len); // time-averaged readout
            let loss = softmax_cross_entropy_scaled(&logits, labels, shard.global_batch);
            let per_step_grad = loss.dlogits.scale(1.0 / window_len);
            for &v in &logit_vars {
                g.seed_grad(v, per_step_grad.clone());
            }
            g.backward();
            sink.harvest(&binder, &mut g, net.params_mut());
            aux_sink.harvest(&aux_binder, &mut g, &mut aux.store);
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
        }
        start = end;
    }
    // lint:allow(panic): T >= 1 is validated at session build, so at least one window ran
    let total = total_logits.expect("at least one window");
    let correct = total
        .argmax_rows()
        .iter()
        .zip(labels)
        .filter(|(p, l)| *p == *l)
        .count();
    let mut sam = SpikeActivityMonitor::new(timesteps);
    for s in sam_sums {
        sam.record(s);
    }
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
    use skipper_snn::{alexnet, custom_net, ModelConfig};

    fn setup(seed: u64) -> (SpikingNetwork, Vec<Tensor>, Vec<usize>) {
        let net = custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let mut rng = XorShiftRng::new(seed);
        let inputs: Vec<Tensor> = (0..8)
            .map(|_| Tensor::rand([2, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        (net, inputs, vec![3, 8])
    }

    #[test]
    fn builds_heads_with_probed_shapes() {
        let (net, _, _) = setup(100);
        // custom-net modules: 3 ConvLif + Flatten + Output → tap after 1, 2.
        let aux = LocalClassifiers::new(&net, &[1, 2], net.num_classes(), 1);
        assert_eq!(aux.heads.len(), 2);
        assert!(aux.byte_cost() > 0);
        assert!(aux.heads[0].pool.is_some(), "conv block output is spatial");
    }

    #[test]
    fn trains_with_local_losses() {
        let (mut net, inputs, labels) = setup(101);
        let mut aux = LocalClassifiers::new(&net, &[1, 2], net.num_classes(), 2);
        let r = lbp_step(&mut net, &mut aux, &inputs, &labels, 3, 4);
        assert!(r.loss.is_finite());
        let main_grads: f64 = net
            .params()
            .iter()
            .map(|p| p.grad().map(|x| x * x).sum())
            .sum();
        let aux_grads: f64 = aux
            .store()
            .iter()
            .map(|p| p.grad().map(|x| x * x).sum())
            .sum();
        assert!(main_grads > 0.0, "main network receives local gradients");
        assert!(aux_grads > 0.0, "aux classifiers receive gradients");
    }

    #[test]
    fn gradients_do_not_cross_blocks() {
        // The first block's conv gradient must be produced by the first
        // aux loss only. Verify by zeroing that aux head's contribution:
        // run with a single tap; gradients of block-0 params must differ
        // from a BPTT run (global) — structural smoke check.
        let (mut a, inputs, labels) = setup(102);
        let (mut b, _, _) = setup(102);
        let mut aux = LocalClassifiers::new(&a, &[2], a.num_classes(), 3);
        let _ = lbp_step(&mut a, &mut aux, &inputs, &labels, 4, 8);
        let _ = crate::bptt::bptt_step(&mut b, &inputs, &labels, 4);
        let first_param_diff = a
            .params()
            .iter()
            .zip(b.params().iter())
            .next()
            .map(|(pa, pb)| pa.grad().max_abs_diff(pb.grad()))
            .unwrap();
        assert!(
            first_param_diff > 1e-9,
            "local gradients must differ from global BPTT"
        );
    }

    #[test]
    fn works_on_alexnet_the_paper_configuration() {
        // Paper: local classifiers at layers 4 and 8 of AlexNet.
        let cfg = ModelConfig {
            input_hw: 16,
            width_mult: 0.0625,
            ..ModelConfig::default()
        };
        let mut net = alexnet(&cfg);
        // Module list: 5 ConvLif, Flatten, 2 LinearLif, Output → taps 2, 5.
        let mut aux = LocalClassifiers::new(&net, &[2, 5], net.num_classes(), 4);
        let mut rng = XorShiftRng::new(103);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::rand([2, 3, 16, 16], &mut rng).map(|x| (x > 0.6) as i32 as f32))
            .collect();
        let r = lbp_step(&mut net, &mut aux, &inputs, &[0, 5], 9, 3);
        assert!(r.loss.is_finite());
    }
}
