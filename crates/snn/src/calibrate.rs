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
//! batch through the (partially calibrated) network as far as the layer,
//! select a high order statistic of its membrane potential across neurons
//! and timesteps, and set the threshold so that roughly `target_rate` of
//! (neuron, timestep) pairs fire. Earlier layers are calibrated first so
//! that later layers see realistic input activity.

use crate::error::SnnError;
use crate::network::{LifUnit, Module, SpikingNetwork, StepCtx};
use skipper_memprof::pause_op_log;
use skipper_tensor::Tensor;

/// The LIF units of `modules` in state order, each with the index of the
/// module that holds it.
fn lif_units(modules: &mut [Module]) -> impl Iterator<Item = (usize, &mut LifUnit)> {
    modules.iter_mut().enumerate().flat_map(|(i, m)| {
        let units: Vec<&mut LifUnit> = match m {
            Module::ConvLif { lif, .. } | Module::LinearLif { lif, .. } => vec![lif],
            Module::Residual { lif1, lif2, .. } => vec![lif1, lif2],
            _ => vec![],
        };
        units.into_iter().map(move |u| (i, u))
    })
}

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
    let populations = net.spiking_layer_count();
    let out_of_range = || format!("lif index {lif_index} out of range ({populations} populations)");
    let (_, unit) = lif_units(net.modules_mut())
        .nth(lif_index)
        .ok_or_else(|| SnnError::Mismatch(out_of_range()))?;
    unit.cfg.threshold = theta;
    Ok(())
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
    assert!(target_rate > 0.0 && target_rate < 1.0);
    let holders: Vec<usize> = lif_units(net.modules_mut()).map(|(m, _)| m).collect();
    let mut potentials = Vec::new();
    let _no_op_log = pause_op_log(); // calibration is not a kernel cost
    let mut thresholds = Vec::with_capacity(holders.len());
    // Inputs of module `from`; no threshold before it moved since they were taken.
    let (mut from, mut at_from) = (0, inputs.to_vec());
    for (l, &holder) in holders.iter().enumerate() {
        // Layers < l are calibrated; later modules cannot move l's potentials.
        let mut state = net.init_state(inputs[0].shape()[0]);
        potentials.clear();
        potentials.reserve(inputs.len() * state.mems[l].numel());
        for (ctx, x) in (0..).map(StepCtx::eval).zip(&mut at_from) {
            (*x, ..) = net.step_infer_modules(x.clone(), &mut state, &ctx, from..holder);
            net.step_infer_modules(x.clone(), &mut state, &ctx, holder..holder + 1);
            potentials.extend_from_slice(state.mems[l].data());
        }
        from = holder;
        let rank = ((1.0 - target_rate) as f64 * potentials.len() as f64) as usize;
        let rank = rank.min(potentials.len() - 1);
        // What a sort puts at `rank`; ±0.0 order apart, and the floor joins them.
        let (_, nth, _) = potentials.select_nth_unstable_by(rank, f32::total_cmp);
        let theta = nth.max(1e-3);
        #[expect(clippy::expect_used, reason = "`l` enumerates this net's LIF layers")]
        set_threshold(net, l, theta).expect("lif index enumerated from this net");
        thresholds.push(theta);
    }
    thresholds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{alexnet, custom_net, lenet5, resnet20, vgg5, ModelConfig};
    use crate::network::NetworkState;
    use proptest::prelude::*;
    use skipper_tensor::XorShiftRng;

    /// The calibration [`calibrate_thresholds`] replaced: every pass runs
    /// the whole network and sorts all of the layer's potentials.
    fn reference_thresholds(
        net: &mut SpikingNetwork,
        inputs: &[Tensor],
        target_rate: f32,
    ) -> Vec<f32> {
        let batch = inputs[0].shape()[0];
        let mut thresholds = Vec::new();
        for l in 0..net.spiking_layer_count() {
            let mut state = net.init_state(batch);
            let mut potentials: Vec<f32> = Vec::new();
            for (t, input) in inputs.iter().enumerate() {
                let _ = net.step_infer(input, &mut state, &StepCtx::eval(t));
                potentials.extend_from_slice(state.mems[l].data());
            }
            potentials.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rank = ((1.0 - target_rate) as f64 * potentials.len() as f64) as usize;
            let theta = potentials[rank.min(potentials.len() - 1)].max(1e-3);
            set_threshold(net, l, theta).unwrap();
            thresholds.push(theta);
        }
        thresholds
    }

    /// Every population's threshold, in state order.
    fn thresholds_of(net: &mut SpikingNetwork) -> Vec<u32> {
        lif_units(net.modules_mut())
            .map(|(_, u)| u.cfg.threshold.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Running each pass from the previous layer's cached inputs to
        /// the layer it sets, and selecting instead of sorting, picks the
        /// reference's thresholds bit for bit and leaves them set: dense
        /// LIF layers (vgg5), two populations in one `Residual` module
        /// (resnet20), dropout configured (alexnet).
        #[test]
        fn calibration_matches_the_full_pass_sort(
            model in 0usize..5,
            timesteps in 1usize..5,
            batch in 1usize..3,
            density in 0.02f32..0.6,
            target_rate in 0.01f32..0.5,
            seed in 0u64..1000,
        ) {
            let (build, hw, channels): (fn(&ModelConfig) -> SpikingNetwork, usize, usize) =
                match model {
                    0 => (custom_net, 8, 2),
                    1 => (lenet5, 16, 2),
                    2 => (vgg5, 8, 3),
                    3 => (resnet20, 8, 3),
                    _ => (alexnet, 8, 3),
                };
            let cfg = ModelConfig {
                input_hw: hw,
                in_channels: channels,
                width_mult: 0.125,
                dropout: Some(0.3),
                seed,
                ..ModelConfig::default()
            };
            let mut rng = XorShiftRng::new(seed ^ 0x5EED);
            let inputs: Vec<Tensor> = (0..timesteps)
                .map(|_| {
                    Tensor::rand([batch, channels, hw, hw], &mut rng)
                        .map(|x| (x < density) as i32 as f32)
                })
                .collect();
            let mut reference = build(&cfg);
            let want: Vec<u32> = reference_thresholds(&mut reference, &inputs, target_rate)
                .iter()
                .map(|t| t.to_bits())
                .collect();
            let mut net = build(&cfg);
            let got: Vec<u32> = calibrate_thresholds(&mut net, &inputs, target_rate)
                .iter()
                .map(|t| t.to_bits())
                .collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(thresholds_of(&mut net), want);
        }
    }

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
