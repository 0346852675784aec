//! The analytic memory model (paper Eqs. 3 and 6).
//!
//! The paper extrapolates baseline memory beyond the 80 GiB of an A100
//! (the patterned bars of Fig. 14) and reports ResNet34/ImageNet
//! breakdowns that no single GPU can hold (Fig. 4). This module computes
//! the same quantities from shapes alone:
//!
//! ```text
//! A            = per-step bytes the tape keeps: U + the next synapse's input
//!                per LIF layer (1.25·N pooled, 2·N, 3·N with dropout) + the
//!                logits (exact; validated against the real tape)
//! S            = neuron state bytes, dense (U and o of every layer as f32)
//! S_c          = one snapshot: U as f32, o one bit/neuron in whole u64 words
//! BPTT         ≈ T·A
//! Checkpointed ≈ (T/C)·A + C·S_c         (Eq. 3)
//! Skipper      ≈ (1 − p/100)·(T/C)·A + C·S_c    (Eq. 6)
//! TBPTT        ≈ trW·A + S                (the carry is the live state)
//! ```
//!
//! plus the method-independent weights / gradients / optimizer-moment /
//! input terms of the Fig. 3(c,d) breakdown.

use crate::method::Method;
use serde::{Deserialize, Serialize};
use skipper_snn::SpikingNetwork;

/// Per-category byte estimate for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalyticBreakdown {
    /// Peak activation bytes (tape + checkpoint/boundary state).
    pub activations: u64,
    /// Encoded input sequence bytes (`T·B·C·H·W·4`).
    pub input: u64,
    /// Trainable parameter bytes.
    pub weights: u64,
    /// Weight-gradient accumulator bytes.
    pub weight_grads: u64,
    /// Optimizer moment bytes (Adam: `2x` weights).
    pub optimizer: u64,
}

impl AnalyticBreakdown {
    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.activations + self.input + self.weights + self.weight_grads + self.optimizer
    }

    /// Activation share of the total (the paper's 60–95 % headline).
    pub fn activation_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.activations as f64 / self.total() as f64
    }
}

/// Shape-only memory model of training `net`.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticModel<'a> {
    net: &'a SpikingNetwork,
}

impl<'a> AnalyticModel<'a> {
    /// Model for `net`.
    pub fn new(net: &'a SpikingNetwork) -> AnalyticModel<'a> {
        AnalyticModel { net }
    }

    /// Exact bytes appended to a tape by one timestep at batch size `b`.
    pub fn per_step_bytes(&self, batch: usize) -> u64 {
        self.net.per_step_graph_elems_per_sample() * batch as u64 * 4
    }

    /// Bytes of the dense neuron state `(U, o)` at batch size `b`.
    pub fn state_bytes(&self, batch: usize) -> u64 {
        self.net.state_elems_per_sample() * batch as u64 * 4
    }

    /// Bytes of one checkpoint snapshot at batch size `b`: each layer's `U`
    /// as `f32`, its `o` packed one bit per neuron.
    pub fn snapshot_bytes(&self, batch: usize) -> u64 {
        let layer = |s: &Vec<usize>| batch * s.iter().product::<usize>();
        let bytes = |n| 4 * n as u64 + skipper_tensor::SpikeBits::packed_bytes(n);
        self.net.state_shapes().iter().map(layer).map(bytes).sum()
    }

    /// Peak activation bytes for `method` over `timesteps` at batch `b`.
    pub fn activation_bytes(&self, method: &Method, timesteps: usize, batch: usize) -> u64 {
        let a = self.per_step_bytes(batch);
        let (s, s_c) = (self.state_bytes(batch), self.snapshot_bytes(batch));
        match method {
            Method::Bptt => timesteps as u64 * a,
            Method::Checkpointed { checkpoints } => {
                let seg = timesteps.div_ceil(*checkpoints) as u64;
                seg * a + *checkpoints as u64 * s_c
            }
            Method::Skipper {
                checkpoints,
                percentile,
            } => {
                let seg = timesteps.div_ceil(*checkpoints) as f64;
                let kept = (seg * (1.0 - *percentile as f64 / 100.0)).ceil() as u64;
                kept * a + *checkpoints as u64 * s_c
            }
            Method::Tbptt { window } | Method::TbpttLbp { window, .. } => (*window as u64) * a + s,
        }
    }

    /// Encoded input bytes for the whole horizon.
    pub fn input_bytes(&self, timesteps: usize, batch: usize) -> u64 {
        let per: usize = self.net.input_shape().iter().product();
        (timesteps * batch * per * 4) as u64
    }

    /// Trainable parameter bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.net.param_scalars() * 4
    }

    /// Full per-category breakdown (Adam optimizer assumed, as in the
    /// paper: moments are `2x` the weights).
    pub fn breakdown(&self, method: &Method, timesteps: usize, batch: usize) -> AnalyticBreakdown {
        let weights = self.weight_bytes();
        AnalyticBreakdown {
            activations: self.activation_bytes(method, timesteps, batch),
            input: self.input_bytes(timesteps, batch),
            weights,
            weight_grads: weights,
            optimizer: 2 * weights,
        }
    }

    /// The `C` that minimises checkpointed activation memory; the paper's
    /// `C = √T` rule falls out when state ≈ per-step cost.
    pub fn best_checkpoint_count(&self, timesteps: usize, batch: usize) -> usize {
        let mut best = (u64::MAX, 1usize);
        for c in 1..=timesteps {
            let bytes =
                self.activation_bytes(&Method::Checkpointed { checkpoints: c }, timesteps, batch);
            if bytes < best.0 {
                best = (bytes, c);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, vgg5, ModelConfig};

    fn net() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn bptt_memory_linear_in_t() {
        let n = net();
        let m = AnalyticModel::new(&n);
        let a10 = m.activation_bytes(&Method::Bptt, 10, 4);
        let a20 = m.activation_bytes(&Method::Bptt, 20, 4);
        assert_eq!(a20, 2 * a10);
    }

    #[test]
    fn checkpointing_is_sublinear_and_u_shaped() {
        let n = net();
        let m = AnalyticModel::new(&n);
        // With C = √T, quadrupling T doubles checkpointed memory (Eq. 3);
        // BPTT's quadruples.
        let bptt = |t: usize| m.activation_bytes(&Method::Bptt, t, 4);
        let sqrt_t =
            |t: usize, c: usize| m.activation_bytes(&Method::Checkpointed { checkpoints: c }, t, 4);
        assert_eq!(bptt(400), 4 * bptt(100));
        assert_eq!(sqrt_t(400, 20), 2 * sqrt_t(100, 10));
        assert!(sqrt_t(100, 10) < bptt(100));
        let t = 100;
        // U-shape: too few and too many checkpoints both cost more than
        // the optimum.
        let best = m.best_checkpoint_count(t, 4);
        let at = |c: usize| m.activation_bytes(&Method::Checkpointed { checkpoints: c }, t, 4);
        assert!(at(best) <= at(1));
        assert!(at(best) <= at(t));
        assert!(best > 1 && best < t, "optimum strictly interior: {best}");
    }

    #[test]
    fn skipper_saves_beyond_checkpointing() {
        let n = net();
        let m = AnalyticModel::new(&n);
        let plain = m.activation_bytes(&Method::Checkpointed { checkpoints: 5 }, 100, 4);
        let skip = m.activation_bytes(
            &Method::Skipper {
                checkpoints: 5,
                percentile: 50.0,
            },
            100,
            4,
        );
        assert!(skip < plain);
        assert!(skip * 2 > plain, "p=50 roughly halves the tape share");
    }

    #[test]
    fn breakdown_totals_and_activation_dominance() {
        let cfg = ModelConfig {
            input_hw: 16,
            width_mult: 0.5,
            ..ModelConfig::default()
        };
        let n = vgg5(&cfg);
        let m = AnalyticModel::new(&n);
        let b = m.breakdown(&Method::Bptt, 100, 32);
        assert_eq!(
            b.total(),
            b.activations + b.input + b.weights + b.weight_grads + b.optimizer
        );
        assert!(
            b.activation_fraction() > 0.6,
            "activations dominate at T=100, B=32: {}",
            b.activation_fraction()
        );
        assert_eq!(b.optimizer, 2 * b.weights);
    }

    #[test]
    fn tbptt_memory_tracks_window() {
        let n = net();
        let m = AnalyticModel::new(&n);
        let w5 = m.activation_bytes(&Method::Tbptt { window: 5 }, 100, 4);
        let w10 = m.activation_bytes(&Method::Tbptt { window: 10 }, 100, 4);
        assert!(w10 > w5);
        assert!(w10 < 2 * w5 + m.state_bytes(4) * 2);
    }
}
