//! Data-driven threshold balancing.
//!
//! With sparse inputs (event-camera data especially), Kaiming-initialised
//! synaptic currents can sit far below a fixed firing threshold, so spike
//! activity dies out after a couple of layers and no gradient signal
//! reaches the readout. The classic remedy is *weight/threshold balancing*
//! (Diehl et al. 2015, the paper's ref. \[18\]): choose each layer's
//! threshold from the actual distribution of its membrane potentials.
//!
//! [`calibrate_thresholds`] does this layer by layer: run the calibration
//! batch through the (partially calibrated) network, take a high quantile
//! of the layer's membrane potential across neurons and timesteps, and set
//! the threshold so that roughly `target_rate` of (neuron, timestep) pairs
//! fire. Earlier layers are calibrated first so that later layers see
//! realistic input activity.

use crate::error::SnnError;
use crate::network::{Module, SpikingNetwork, StepCtx};
use skipper_memprof::pause_op_log;
use skipper_tensor::Tensor;

/// Set the firing threshold of the `lif_index`-th LIF population.
///
/// # Errors
///
/// Returns [`SnnError::Mismatch`] when `lif_index` is out of range for
/// this network.
///
/// # Panics
///
/// Panics if `theta` is not positive (a programmer error, not a
/// recoverable condition).
pub fn set_threshold(
    net: &mut SpikingNetwork,
    lif_index: usize,
    theta: f32,
) -> Result<(), SnnError> {
    assert!(theta > 0.0, "threshold must be positive");
    let mut idx = 0usize;
    for m in net.modules_mut() {
        let units: Vec<&mut crate::network::LifUnit> = match m {
            Module::ConvLif { lif, .. } | Module::LinearLif { lif, .. } => vec![lif],
            Module::Residual { lif1, lif2, .. } => vec![lif1, lif2],
            _ => vec![],
        };
        for u in units {
            if idx == lif_index {
                u.cfg.threshold = theta;
                return Ok(());
            }
            idx += 1;
        }
    }
    Err(SnnError::Mismatch(format!(
        "lif index {lif_index} out of range ({idx} populations)"
    )))
}

/// Balance every layer's threshold on `inputs` (a spike sequence of one
/// calibration batch) so that roughly `target_rate` of (neuron, timestep)
/// pairs fire. Returns the chosen thresholds.
///
/// # Panics
///
/// Panics if `inputs` is empty or `target_rate` is outside `(0, 1)`.
pub fn calibrate_thresholds(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    target_rate: f32,
) -> Vec<f32> {
    assert!(!inputs.is_empty(), "need at least one calibration timestep");
    assert!(
        (0.0..1.0).contains(&target_rate) && target_rate > 0.0,
        "target rate in (0,1)"
    );
    let layers = net.spiking_layer_count();
    let batch = inputs[0].shape()[0];
    let _no_op_log = pause_op_log(); // calibration is not a kernel cost
    let mut thresholds = Vec::with_capacity(layers);
    for l in 0..layers {
        // Forward pass with layers < l already calibrated.
        let mut state = net.init_state(batch);
        let mut potentials: Vec<f32> = Vec::new();
        for (t, input) in inputs.iter().enumerate() {
            let _ = net.step_infer(input, &mut state, &StepCtx::eval(t));
            potentials.extend_from_slice(state.mems[l].data());
        }
        potentials.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((1.0 - target_rate) as f64 * potentials.len() as f64) as usize;
        let theta = potentials[rank.min(potentials.len() - 1)].max(1e-3);
        // lint:allow(panic): `l` enumerates this net's own LIF populations, so it is in range
        set_threshold(net, l, theta).expect("lif index enumerated from this net");
        thresholds.push(theta);
    }
    thresholds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{lenet5, ModelConfig};
    use crate::network::NetworkState;
    use skipper_tensor::XorShiftRng;

    fn sparse_inputs(timesteps: usize, batch: usize) -> Vec<Tensor> {
        let mut rng = XorShiftRng::new(7);
        (0..timesteps)
            .map(|_| Tensor::rand([batch, 2, 16, 16], &mut rng).map(|x| (x > 0.97) as i32 as f32))
            .collect()
    }

    fn total_rate(net: &SpikingNetwork, inputs: &[Tensor], layer: usize) -> f64 {
        let batch = inputs[0].shape()[0];
        let mut state: NetworkState = net.init_state(batch);
        let mut sum = 0.0f64;
        let mut n = 0.0f64;
        for (t, input) in inputs.iter().enumerate() {
            let _ = net.step_infer(input, &mut state, &StepCtx::eval(t));
            sum += state.spikes[layer].sum();
            n += state.spikes[layer].numel() as f64;
        }
        sum / n
    }

    #[test]
    fn calibration_revives_dead_deep_layers() {
        let mut net = lenet5(&ModelConfig {
            input_hw: 16,
            in_channels: 2,
            num_classes: 11,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let inputs = sparse_inputs(12, 2);
        let deep = net.spiking_layer_count() - 1;
        let before = total_rate(&net, &inputs, deep);
        let thresholds = calibrate_thresholds(&mut net, &inputs, 0.08);
        let after = total_rate(&net, &inputs, deep);
        assert_eq!(thresholds.len(), 5);
        assert!(
            after > before && after > 0.01,
            "deep layer rate {before} -> {after}"
        );
        // The achieved rate should be within a factor of a few of target.
        assert!(after < 0.5, "rate {after} not runaway");
    }

    #[test]
    fn set_threshold_targets_the_right_population() {
        let mut net = lenet5(&ModelConfig {
            input_hw: 16,
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        set_threshold(&mut net, 2, 0.123).unwrap();
        let mut seen = Vec::new();
        for m in net.modules() {
            if let Module::ConvLif { lif, .. } = m {
                seen.push(lif.cfg.threshold);
            }
        }
        assert_eq!(seen[2], 0.123);
        assert_ne!(seen[1], 0.123);
    }

    #[test]
    fn set_threshold_rejects_bad_index() {
        let mut net = lenet5(&ModelConfig {
            width_mult: 0.25,
            ..ModelConfig::default()
        });
        let err = set_threshold(&mut net, 99, 1.0).unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
    }
}
