//! The auxiliary classifiers of TBPTT with locally supervised blocks — the
//! TBPTT-LBP baseline of Guo et al. \[28\], compared against in the paper's
//! Table II and Fig. 16.
//!
//! The network is cut at `taps` into gradient-isolated blocks; each
//! non-final block is supervised by an auxiliary classifier
//! (global-average-pool + linear) attached to its output, while the final
//! block uses the network's own readout. The training loop over those
//! blocks is the crate's windowed core (`windowed.rs`).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use skipper_autograd::{Graph, Var};
use skipper_snn::{LinearLayer, ParamBinder, ParamStore, SpikingNetwork, StepCtx};
use skipper_tensor::{Tensor, XorShiftRng};
use std::ops::Range;

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
                #[expect(clippy::panic, reason = "block outputs are rank 2 or 4 by design")]
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

    /// Storage-sharing view for a worker thread (weights are Arc clones;
    /// see [`SpikingNetwork::share`]).
    pub fn share(&self) -> LocalClassifiers {
        LocalClassifiers {
            taps: self.taps.clone(),
            store: self.store.share(),
            heads: self.heads.clone(),
        }
    }

    /// No taps and no heads: the whole network is one block supervised by
    /// its own readout, which is plain BPTT/TBPTT. Crate-private —
    /// [`LocalClassifiers::new`] keeps rejecting an empty tap list.
    pub(crate) fn none() -> LocalClassifiers {
        LocalClassifiers {
            taps: Vec::new(),
            store: ParamStore::new(),
            heads: Vec::new(),
        }
    }

    /// The gradient-isolated module ranges of a network of `n_modules`:
    /// `[0, taps[0]), [taps[0], taps[1]), …, [last, n)`.
    pub(crate) fn blocks(&self, n_modules: usize) -> Vec<Range<usize>> {
        let starts = std::iter::once(0).chain(self.taps.iter().copied());
        let ends = self.taps.iter().copied().chain([n_modules]);
        starts.zip(ends).map(|(a, b)| a..b).collect()
    }

    /// The local logits of non-final block `block` from its output `out`.
    pub(crate) fn head_logits(
        &self,
        block: usize,
        g: &mut Graph,
        binder: &mut ParamBinder,
        out: Var,
    ) -> Var {
        let head = &self.heads[block];
        let flat = match head.pool {
            Some(k) => {
                let pooled = g.avg_pool2d(out, k);
                let batch = g.value(pooled).shape()[0];
                let features = g.value(pooled).numel() / batch;
                g.reshape(pooled, [batch, features])
            }
            None => out,
        };
        head.linear.forward_taped(g, binder, &self.store, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::sam::{SamMetric, SkipPolicy};
    use crate::shard::{reference_step, run_unsharded, Iteration};
    use crate::windowed::StepResult;
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

    /// One unsharded TBPTT-LBP iteration; `aux` is `None` for a session
    /// that lost its classifiers.
    fn lbp_step(
        net: &mut SpikingNetwork,
        aux: Option<&mut LocalClassifiers>,
        inputs: &[Tensor],
        labels: &[usize],
        seed: u64,
        window: usize,
    ) -> Result<StepResult, String> {
        let taps = aux.as_ref().map_or(vec![1], |aux| aux.taps().to_vec());
        let method = Method::TbpttLbp { window, taps };
        let it = Iteration {
            method: &method,
            inputs,
            labels,
            seed,
            metric: SamMetric::SpikeSum,
            policy: SkipPolicy::SpikeActivity,
        };
        run_unsharded(net, aux, &it)
    }

    #[test]
    fn builds_heads_with_probed_shapes() {
        let (net, _, _) = setup(100);
        // custom-net modules: 3 ConvLif + Flatten + Output → tap after 1, 2.
        let aux = LocalClassifiers::new(&net, &[1, 2], net.num_classes(), 1);
        assert_eq!(aux.heads.len(), 2);
        assert!(aux.store().scalar_count() > 0);
        assert!(aux.heads[0].pool.is_some(), "conv block output is spatial");
        assert_eq!(aux.blocks(5), vec![0..1, 1..2, 2..5]);
        assert_eq!(LocalClassifiers::none().blocks(5), vec![0..5]);
    }

    #[test]
    fn trains_with_local_losses() {
        let (mut net, inputs, labels) = setup(101);
        let mut aux = LocalClassifiers::new(&net, &[1, 2], net.num_classes(), 2);
        let r = lbp_step(&mut net, Some(&mut aux), &inputs, &labels, 3, 4).unwrap();
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
        // Without its classifiers the method is refused, not run.
        assert!(lbp_step(&mut net, None, &inputs, &labels, 3, 4).is_err());
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
        let _ = lbp_step(&mut a, Some(&mut aux), &inputs, &labels, 4, 8).unwrap();
        let _ = reference_step(&mut b, &Method::Bptt, &inputs, &labels, 4);
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
        let r = lbp_step(&mut net, Some(&mut aux), &inputs, &[0, 5], 9, 3).unwrap();
        assert!(r.loss.is_finite());
    }
}
