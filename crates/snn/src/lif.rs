//! The discrete-time leaky-integrate-and-fire neuron (paper Eq. 1).
//!
//! ```text
//! U_t^l = λ·U_{t-1}^l + I_t^l − θ·o_{t-1}^l        (membrane update)
//! o_t^l = H(U_t^l − θ)                             (firing)
//! ```
//!
//! where `I_t^l = W^l · o_t^{l-1}` is the synaptic current computed by a
//! [`Conv2dLayer`](crate::layers::Conv2dLayer) or
//! [`LinearLayer`](crate::layers::LinearLayer). Two properties follow the
//! paper exactly:
//!
//! * the **reset term is detached**: `−θ·o_{t-1}` uses the previous spikes
//!   as a constant, so no gradient flows through it ("the reset term is not
//!   taken into account for the gradient computation", Section III-B);
//! * consequently the *only* gradient path across timesteps is the leaky
//!   membrane `λ·U_{t-1}`, which is why checkpoint boundaries only need to
//!   exchange `∂L/∂U`.

use skipper_autograd::{Graph, Surrogate, Var};
use skipper_tensor::{lif_fire, Tensor};

/// Parameters of a LIF neuron population.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LifConfig {
    /// Membrane leak `λ` (< 1).
    pub leak: f32,
    /// Firing threshold `θ`.
    pub threshold: f32,
    /// Surrogate derivative used on the backward pass.
    pub surrogate: Surrogate,
}

impl Default for LifConfig {
    fn default() -> Self {
        LifConfig {
            leak: 0.9,
            threshold: 1.0,
            surrogate: Surrogate::default_triangle(),
        }
    }
}

impl LifConfig {
    /// Config with a given leak, default threshold/surrogate.
    pub fn with_leak(leak: f32) -> LifConfig {
        LifConfig {
            leak,
            ..LifConfig::default()
        }
    }
}

/// One plain (gradient-free) LIF step.
///
/// Returns `(U_t, o_t)` given the synaptic current `I_t`, previous membrane
/// `U_{t-1}` and previous spikes `o_{t-1}` (all of the same shape): the
/// [`lif_fire`] pass every LIF step runs, without its spike count.
pub fn lif_step_infer(
    cfg: &LifConfig,
    current: &Tensor,
    mem: &Tensor,
    prev_spike: &Tensor,
) -> (Tensor, Tensor) {
    let (u, o, _) = lif_fire(current, mem, prev_spike, cfg.leak, cfg.threshold);
    (u, o)
}

/// One taped LIF step on graph `g`.
///
/// `current` and `mem` are graph variables; `prev_spike` is the previous
/// spike **value** (detached, per the paper). Returns `(U_t, o_t)` as
/// variables and the number of spikes in `o_t`. Two nodes are appended by
/// the fused [`Graph::lif`]: the membrane `U_t`, which the spike's surrogate
/// backward reads and the tape therefore keeps, and the spikes `o_t`.
pub fn lif_step_taped(
    g: &mut Graph,
    cfg: &LifConfig,
    current: Var,
    mem: Var,
    prev_spike: &Tensor,
) -> (Var, Var, f64) {
    g.lif(
        current,
        mem,
        prev_spike,
        cfg.leak,
        cfg.threshold,
        cfg.surrogate,
    )
}

/// Graph nodes appended by [`lif_step_taped`].
pub const TAPED_NODES_PER_LIF: u64 = 2;

/// The unfused reference chain: leak-accumulate, detached reset, spike,
/// spike count — four recorded ops, with the reset's previous spikes
/// entering as a leaf that takes no gradient. [`Graph::lif`] must equal it
/// bit for bit.
#[cfg(test)]
fn lif_step_reference(
    g: &mut Graph,
    cfg: &LifConfig,
    current: Var,
    mem: Var,
    prev_spike: &Tensor,
) -> (Var, Var, f64) {
    let pre = g.add_scaled(current, mem, cfg.leak);
    let reset = g.leaf(prev_spike.clone(), false);
    let u = g.add_scaled(pre, reset, -cfg.threshold);
    let o = g.spike(u, cfg.threshold, cfg.surrogate);
    let fired = g.value(o).sum();
    (u, o, fired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skipper_memprof::{take_op_log, OpLog};

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), v.len())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// One neuron of a property case: the element kind picks a special
    /// value set, the floats fill the generic one.
    type Neuron = ((u8, f32, f32), (u8, f32, f32));

    /// `(current, mem, prev_spike, ∂L/∂U, ∂L/∂o)` of one case. Kind 1 puts
    /// `U` exactly on `θ`, kind 2 feeds `-0.0`, kind 3 lands exactly on `θ`
    /// after a reset.
    fn case(neurons: &[Neuron], theta: f32) -> [Tensor; 5] {
        let mut cols: [Vec<f32>; 5] = Default::default();
        for &((kind, c, m), (spike, gu, go)) in neurons {
            let prev = f32::from(spike % 2);
            let (c, m, prev) = match kind % 4 {
                1 => (theta, 0.0, 0.0),
                2 => (-0.0, -0.0, prev),
                3 => (2.0 * theta, 0.0, 1.0),
                _ => (c, m, prev),
            };
            for (col, v) in cols.iter_mut().zip([c, m, prev, gu, go]) {
                col.push(v);
            }
        }
        cols.map(|v| t(&v))
    }

    /// A taped LIF step: [`lif_step_taped`] or the reference chain.
    type Step = fn(&mut Graph, &LifConfig, Var, Var, &Tensor) -> (Var, Var, f64);

    /// Bits of `(U, o, spike count, ∂L/∂current, ∂L/∂mem)` and the op log
    /// of one taped LIF step built by `step`, with both outputs seeded.
    fn run(step: Step, cfg: &LifConfig, io: &[Tensor; 5]) -> ([Vec<u32>; 4], u64, OpLog) {
        let _ = take_op_log();
        let mut g = Graph::new();
        let current = g.leaf(io[0].clone(), true);
        let mem = g.leaf(io[1].clone(), true);
        let (u, o, fired) = step(&mut g, cfg, current, mem, &io[2]);
        let (ubits, obits) = (bits(g.value(u)), bits(g.value(o)));
        g.seed_grad(o, io[4].clone());
        g.seed_grad(u, io[3].clone());
        g.backward();
        let grads = [current, mem].map(|v| g.grad(v).map(bits).unwrap_or_default());
        let [gc, gm] = grads;
        ([ubits, obits, gc, gm], fired.to_bits(), take_op_log())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused LIF op equals the unfused reference chain bit for
        /// bit: values, spike count, gradients into current and membrane,
        /// op records, for every surrogate; and the gradient-free step
        /// gives the same `U` and `o`.
        #[test]
        fn taped_step_is_bitwise_the_reference_chain(
            neurons in prop::collection::vec(
                ((0u8..6, -3.0f32..3.0, -3.0f32..3.0), (0u8..2, -2.0f32..2.0, -2.0f32..2.0)),
                1..12,
            ),
            leak in 0.0f32..1.0,
            theta in 0.05f32..2.0,
            variant in 0u8..3,
        ) {
            let surrogate = match variant {
                0 => Surrogate::default_triangle(),
                1 => Surrogate::FastSigmoid { slope: 5.0 },
                _ => Surrogate::ArcTan { alpha: 2.0 },
            };
            let cfg = LifConfig { leak, threshold: theta, surrogate };
            let io = case(&neurons, theta);
            let (fused, fused_count, fused_ops) = run(lif_step_taped, &cfg, &io);
            let (reference, reference_count, reference_ops) = run(lif_step_reference, &cfg, &io);
            let (u, o) = lif_step_infer(&cfg, &io[0], &io[1], &io[2]);
            prop_assert_eq!(&fused[0], &bits(&u));
            prop_assert_eq!(&fused[1], &bits(&o));
            prop_assert_eq!(fused, reference);
            prop_assert_eq!(fused_count, reference_count);
            prop_assert_eq!(fused_ops, reference_ops);
        }
    }

    #[test]
    fn integrates_leaks_and_fires() {
        let cfg = LifConfig {
            leak: 0.5,
            threshold: 1.0,
            surrogate: Surrogate::default_triangle(),
        };
        let zero = t(&[0.0]);
        // Step 1: I=0.8 → U=0.8, no spike.
        let (u1, o1) = lif_step_infer(&cfg, &t(&[0.8]), &zero, &zero);
        assert_eq!(u1.data(), &[0.8]);
        assert_eq!(o1.data(), &[0.0]);
        // Step 2: U = 0.5·0.8 + 0.8 = 1.2 ≥ θ → spike.
        let (u2, o2) = lif_step_infer(&cfg, &t(&[0.8]), &u1, &o1);
        assert!((u2.data()[0] - 1.2).abs() < 1e-6);
        assert_eq!(o2.data(), &[1.0]);
        // Step 3: reset subtracts θ: U = 0.5·1.2 + 0.8 − 1.0 = 0.4.
        let (u3, o3) = lif_step_infer(&cfg, &t(&[0.8]), &u2, &o2);
        assert!((u3.data()[0] - 0.4).abs() < 1e-6);
        assert_eq!(o3.data(), &[0.0]);
    }

    #[test]
    fn silent_neuron_decays_to_zero() {
        let cfg = LifConfig::with_leak(0.5);
        let mut mem = t(&[0.8]);
        let mut spike = t(&[0.0]);
        for _ in 0..20 {
            let (u, o) = lif_step_infer(&cfg, &t(&[0.0]), &mem, &spike);
            mem = u;
            spike = o;
        }
        assert!(mem.data()[0].abs() < 1e-5);
    }

    #[test]
    fn taped_matches_infer() {
        let cfg = LifConfig::default();
        let current = t(&[0.3, 1.5, 0.9]);
        let mem = t(&[0.5, 0.2, 0.8]);
        let prev = t(&[0.0, 1.0, 0.0]);
        let (ui, oi) = lif_step_infer(&cfg, &current, &mem, &prev);
        let mut g = Graph::new();
        let cv = g.leaf(current.clone(), false);
        let mv = g.leaf(mem.clone(), true);
        let (ut, ot, _) = lif_step_taped(&mut g, &cfg, cv, mv, &prev);
        assert!(g.value(ut).allclose(&ui, 1e-6));
        assert!(g.value(ot).allclose(&oi, 1e-6));
    }

    #[test]
    fn gradient_flows_through_membrane_not_reset() {
        let cfg = LifConfig {
            leak: 0.7,
            threshold: 1.0,
            surrogate: Surrogate::default_triangle(),
        };
        let mut g = Graph::new();
        let current = g.leaf(t(&[0.5]), true);
        let mem = g.leaf(t(&[0.6]), true);
        let prev = t(&[1.0]); // previous spike, reset active
        let (u, _o, _) = lif_step_taped(&mut g, &cfg, current, mem, &prev);
        g.seed_grad(u, t(&[1.0]));
        g.backward();
        // dU/dI = 1, dU/dU_prev = λ; reset contributes nothing.
        assert_eq!(g.grad(current).unwrap().data(), &[1.0]);
        assert!((g.grad(mem).unwrap().data()[0] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn taped_node_count_constant_is_accurate() {
        let mut g = Graph::new();
        let c = g.leaf(t(&[0.0]), false);
        let m = g.leaf(t(&[0.0]), false);
        let before = g.len();
        lif_step_taped(&mut g, &LifConfig::default(), c, m, &t(&[0.0]));
        assert_eq!(g.len() - before, TAPED_NODES_PER_LIF as usize);
    }
}
