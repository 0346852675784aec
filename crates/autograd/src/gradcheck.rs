//! Finite-difference gradient checking.
//!
//! [`gradcheck`] is the correctness oracle used throughout the test suite:
//! it treats the sum of a graph output as a scalar loss, computes analytic
//! gradients with [`Graph::backward`], and compares them against central
//! differences. Note that it can only be applied to *smooth* graphs —
//! spiking nodes are piecewise constant, which is the entire reason
//! surrogate gradients exist (their correctness is checked structurally
//! instead, in the graph tests).

use crate::graph::{Graph, Var};
use skipper_tensor::Tensor;

/// Result details of a failed gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradMismatch {
    /// Which input tensor disagreed.
    pub input: usize,
    /// Flat element index within that input.
    pub element: usize,
    /// Central-difference estimate.
    pub numeric: f64,
    /// Tape gradient.
    pub analytic: f64,
}

impl std::fmt::Display for GradMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gradient mismatch at input {} element {}: numeric {} vs analytic {}",
            self.input, self.element, self.numeric, self.analytic
        )
    }
}

impl std::error::Error for GradMismatch {}

/// Check the tape gradients of `f` at `inputs` against central differences.
///
/// `f` receives a graph plus one leaf `Var` per input (all requiring
/// gradients) and returns the output var; the implied loss is the **sum of
/// the output elements**. Every element of every input is perturbed by
/// `±eps`; the check fails if any analytic/numeric pair differs by more
/// than `tol·(1 + |analytic|)`.
///
/// # Errors
///
/// Returns the first [`GradMismatch`] found.
pub fn gradcheck<F>(inputs: &[Tensor], f: F, eps: f32, tol: f64) -> Result<(), GradMismatch>
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    // Analytic pass.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone(), true)).collect();
    let out = f(&mut g, &vars);
    let ones = Tensor::ones(g.value(out).shape().clone());
    g.seed_grad(out, ones);
    g.backward();
    let analytic: Vec<Option<Tensor>> = vars.iter().map(|&v| g.grad(v).cloned()).collect();

    // Numeric pass per element.
    let loss = |tensors: &[Tensor]| -> f64 {
        let mut g = Graph::new();
        let vars: Vec<Var> = tensors.iter().map(|t| g.leaf(t.clone(), true)).collect();
        let out = f(&mut g, &vars);
        g.value(out).sum()
    };
    for (ii, input) in inputs.iter().enumerate() {
        let ana = match &analytic[ii] {
            Some(t) => t.clone(),
            None => Tensor::zeros(input.shape().clone()),
        };
        for e in 0..input.numel() {
            let mut plus: Vec<Tensor> = inputs.iter().map(Tensor::deep_clone).collect();
            plus[ii].data_mut()[e] += eps;
            let mut minus: Vec<Tensor> = inputs.iter().map(Tensor::deep_clone).collect();
            minus[ii].data_mut()[e] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps as f64);
            let a = ana.data()[e] as f64;
            if (numeric - a).abs() > tol * (1.0 + a.abs()) {
                return Err(GradMismatch {
                    input: ii,
                    element: e,
                    numeric,
                    analytic: a,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_tensor::{Conv2dSpec, XorShiftRng};

    #[test]
    fn passes_on_linear_chain() {
        let mut rng = XorShiftRng::new(21);
        let x = Tensor::randn([2, 3], &mut rng);
        let w = Tensor::randn([4, 3], &mut rng);
        let b = Tensor::randn([4], &mut rng);
        gradcheck(
            &[x, w, b],
            |g, v| g.linear(v[0], v[1], Some(v[2])),
            1e-2,
            1e-2,
        )
        .unwrap();
    }

    #[test]
    fn passes_on_conv_pool_reshape() {
        let mut rng = XorShiftRng::new(22);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng);
        let w = Tensor::randn([2, 2, 3, 3], &mut rng);
        gradcheck(
            &[x, w],
            |g, v| {
                let c = g.conv2d(v[0], v[1], None, Conv2dSpec::padded(1));
                let p = g.avg_pool2d(c, 2);
                g.reshape(p, [1, 8])
            },
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn passes_on_elementwise_mix() {
        let mut rng = XorShiftRng::new(23);
        let a = Tensor::randn([5], &mut rng);
        let b = Tensor::randn([5], &mut rng);
        gradcheck(
            &[a, b],
            |g, v| {
                let s = g.add_scaled(v[0], v[1], 0.5);
                let m = g.mul(s, v[1]);
                g.scale(m, 1.5)
            },
            1e-3,
            1e-2,
        )
        .unwrap();
    }

    #[test]
    fn catches_wrong_gradients() {
        // Emulate a wrong gradient by detaching one path: the LIF reset
        // with θ = −1 and the previous spikes set to x itself (and λ = 0)
        // gives y = x + detach(x). Numeric sees the dependency, analytic
        // does not.
        let a = Tensor::from_vec(vec![2.0], [1]);
        let err = gradcheck(
            &[a],
            |g, v| {
                let frozen = g.value(v[0]).clone();
                let surrogate = crate::Surrogate::default_triangle();
                g.lif(v[0], v[0], &frozen, 0.0, -1.0, surrogate).0
            },
            1e-3,
            1e-3,
        )
        .unwrap_err();
        assert_eq!(err.input, 0);
        assert!((err.numeric - 2.0).abs() < 1e-2);
        assert!((err.analytic - 1.0).abs() < 1e-6);
    }
}
