//! ANN execution mode and hybrid pre-training (the paper's training
//! recipe, following Rathi et al., ref. \[37\]).
//!
//! The paper pre-initialises every frame-based SNN "with the corresponding
//! pre-trained ANN weights and then train\[s\] it further to fit the
//! network on spiking inputs" (Section VII). This module runs the *same*
//! [`SpikingNetwork`] — same modules, same [`ParamStore`] — as a
//! conventional ANN: every LIF becomes a ReLU, time disappears, and
//! training is ordinary backprop on the analog frames. Because the weights
//! are shared, finishing ANN pre-training leaves the SNN pre-initialised;
//! a threshold calibration pass (see [`crate::calibrate`]) then completes
//! the standard ANN-to-SNN conversion step.

use crate::loss::softmax_cross_entropy;
use crate::network::{Module, SpikingNetwork};
use crate::optim::Optimizer;
use crate::params::ParamBinder;
use skipper_autograd::{Graph, Var};
use skipper_tensor::Tensor;

/// Run the network's modules as an ANN (LIF → ReLU) and return the logits
/// variable.
#[expect(clippy::expect_used, reason = "every network ends with Output")]
pub fn ann_logits_taped(
    net: &SpikingNetwork,
    g: &mut Graph,
    binder: &mut ParamBinder,
    input: &Tensor,
) -> Var {
    let mut x = g.leaf(input.clone(), false);
    let mut logits = None;
    for m in net.modules() {
        match m {
            Module::ConvLif { conv, pool, .. } => {
                let c = conv.forward_taped(g, binder, net.params(), x);
                let r = g.relu(c);
                x = match pool {
                    Some(k) => g.avg_pool2d(r, *k),
                    None => r,
                };
            }
            Module::LinearLif { lin, .. } => {
                let c = lin.forward_taped(g, binder, net.params(), x);
                x = g.relu(c);
            }
            Module::Residual {
                conv1,
                conv2,
                shortcut,
                ..
            } => {
                let c1 = conv1.forward_taped(g, binder, net.params(), x);
                let r1 = g.relu(c1);
                let c2 = conv2.forward_taped(g, binder, net.params(), r1);
                let sc = match shortcut {
                    Some(p) => p.forward_taped(g, binder, net.params(), x),
                    None => x,
                };
                let sum = g.add(c2, sc);
                x = g.relu(sum);
            }
            Module::Pool(k) => x = g.avg_pool2d(x, *k),
            Module::Flatten => {
                let b = g.value(x).shape()[0];
                let n = g.value(x).numel() / b;
                x = g.reshape(x, [b, n]);
            }
            Module::Output(lin) => {
                logits = Some(lin.forward_taped(g, binder, net.params(), x));
            }
        }
    }
    logits.expect("network ends with Output")
}

/// One ANN training step on analog frames `[B,C,H,W]`. Returns
/// `(loss, correct)`. Gradients are applied by `optimizer` and cleared.
pub fn ann_train_batch(
    net: &mut SpikingNetwork,
    optimizer: &mut dyn Optimizer,
    frames: &Tensor,
    labels: &[usize],
) -> (f64, usize) {
    let mut g = Graph::new();
    let mut binder = ParamBinder::new(net.params());
    let logits = ann_logits_taped(net, &mut g, &mut binder, frames);
    let loss = softmax_cross_entropy(g.value(logits), labels);
    g.seed_grad(logits, loss.dlogits.clone());
    g.backward();
    binder.harvest(&mut g, net.params_mut());
    optimizer.step(net.params_mut());
    net.params_mut().zero_grads();
    (loss.loss, loss.correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{custom_net, resnet20, vgg5, ModelConfig};
    use crate::optim::Adam;
    use skipper_tensor::XorShiftRng;

    fn cfg() -> ModelConfig {
        ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn ann_forward_produces_logits_for_all_topologies() {
        let mut rng = XorShiftRng::new(1);
        let frames = Tensor::rand([2, 3, 8, 8], &mut rng);
        for net in [custom_net(&cfg()), vgg5(&cfg()), resnet20(&cfg())] {
            let mut g = Graph::new();
            let mut binder = ParamBinder::new(net.params());
            let logits = ann_logits_taped(&net, &mut g, &mut binder, &frames);
            assert_eq!(g.value(logits).shape().dims(), &[2, 10], "{}", net.name());
        }
    }

    #[test]
    fn ann_memorises_a_small_batch() {
        let mut net = custom_net(&cfg());
        let mut opt = Adam::new(5e-3);
        let mut rng = XorShiftRng::new(2);
        let frames = Tensor::rand([8, 3, 8, 8], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let first = ann_train_batch(&mut net, &mut opt, &frames, &labels).0;
        for _ in 0..80 {
            ann_train_batch(&mut net, &mut opt, &frames, &labels);
        }
        let (last, correct) = ann_train_batch(&mut net, &mut opt, &frames, &labels);
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(correct >= 6, "memorisation: {correct}/8");
    }

    #[test]
    fn ann_training_changes_shared_snn_weights() {
        use crate::network::StepCtx;
        let mut net = custom_net(&cfg());
        let mut rng = XorShiftRng::new(3);
        let frames = Tensor::rand([2, 3, 8, 8], &mut rng);
        let spike_in = frames.map(|x| (x > 0.5) as i32 as f32);
        let mut state = net.init_state(2);
        let before = net
            .step_infer(&spike_in, &mut state, &StepCtx::eval(0))
            .logits;
        let mut opt = Adam::new(1e-2);
        ann_train_batch(&mut net, &mut opt, &frames, &[0, 1]);
        let mut state = net.init_state(2);
        let after = net
            .step_infer(&spike_in, &mut state, &StepCtx::eval(0))
            .logits;
        assert!(
            !before.allclose(&after, 1e-9),
            "SNN must see the ANN's weight updates"
        );
    }

    #[test]
    fn relu_gradcheck_through_ann_graph() {
        use skipper_autograd::gradcheck::gradcheck;
        let mut rng = XorShiftRng::new(4);
        // Shift inputs away from the ReLU kink for finite differences.
        let x = Tensor::randn([3], &mut rng).map(|v| v + if v >= 0.0 { 0.5 } else { -0.5 });
        gradcheck(
            &[x],
            |g, v| {
                let r = g.relu(v[0]);
                g.mul(r, r)
            },
            1e-3,
            1e-2,
        )
        .unwrap();
    }
}
