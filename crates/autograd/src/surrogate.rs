//! Surrogate derivatives for the Heaviside spike function.
//!
//! The firing non-linearity `o = H(U − θ)` has a zero-almost-everywhere
//! derivative, so BPTT substitutes a smooth *surrogate* σ′(U − θ) on the
//! backward pass (the paper's Eq. 2, following Neftci et al., "Surrogate
//! gradient learning in spiking neural networks", 2019). The forward pass
//! stays binary; only gradients are smoothed.

use std::fmt;

/// A surrogate gradient family for `H(x)` around `x = 0`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Surrogate {
    /// Triangular (piecewise-linear) window:
    /// `σ′(x) = max(0, 1 − |x|/width) / width`.
    Triangle {
        /// Half-width of the support.
        width: f32,
    },
    /// Fast sigmoid: `σ′(x) = 1 / (1 + slope·|x|)²`.
    FastSigmoid {
        /// Sharpness of the pseudo-derivative.
        slope: f32,
    },
    /// Arc-tangent: `σ′(x) = alpha / (2(1 + (π/2·alpha·x)²))`.
    ArcTan {
        /// Sharpness parameter.
        alpha: f32,
    },
}

impl Surrogate {
    /// The default used across the paper's experiments: a unit-width
    /// triangle (equivalent to the "linear" surrogate of Bellec et al.).
    pub fn default_triangle() -> Surrogate {
        Surrogate::Triangle { width: 1.0 }
    }

    /// The surrogate derivative evaluated at `x = U − θ`: the one-element
    /// case of the spike backward.
    pub fn derivative(&self, x: f32) -> f32 {
        self.backward(&[1.0], &[x], 0.0)[0]
    }

    /// `grad ⊙ σ′(u − θ)`, elementwise: the backward of `o = H(u − θ)`.
    /// The variant is matched once, and each arm runs its own loop.
    pub(crate) fn backward(&self, grad: &[f32], u: &[f32], theta: f32) -> Vec<f32> {
        fn pass(grad: &[f32], u: &[f32], theta: f32, d: impl Fn(f32) -> f32) -> Vec<f32> {
            grad.iter()
                .zip(u)
                .map(|(&g, &u)| g * d(u - theta))
                .collect()
        }
        match *self {
            Surrogate::Triangle { width } => pass(grad, u, theta, |x| {
                let a = 1.0 - (x / width).abs();
                if a > 0.0 {
                    a / width
                } else {
                    0.0
                }
            }),
            Surrogate::FastSigmoid { slope } => pass(grad, u, theta, |x| {
                let d = 1.0 + slope * x.abs();
                1.0 / (d * d)
            }),
            Surrogate::ArcTan { alpha } => pass(grad, u, theta, |x| {
                let z = std::f32::consts::FRAC_PI_2 * alpha * x;
                alpha / (2.0 * (1.0 + z * z))
            }),
        }
    }
}

impl Default for Surrogate {
    fn default() -> Self {
        Surrogate::default_triangle()
    }
}

impl fmt::Display for Surrogate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Surrogate::Triangle { width } => write!(f, "triangle(width={width})"),
            Surrogate::FastSigmoid { slope } => write!(f, "fast-sigmoid(slope={slope})"),
            Surrogate::ArcTan { alpha } => write!(f, "arctan(alpha={alpha})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The spike backward [`Surrogate::backward`] replaced: the variant
    /// matched inside the loop, once per element.
    fn backward_reference(s: Surrogate, grad: &[f32], u: &[f32], theta: f32) -> Vec<f32> {
        let derivative = |x: f32| match s {
            Surrogate::Triangle { width } => {
                let a = 1.0 - (x / width).abs();
                if a > 0.0 {
                    a / width
                } else {
                    0.0
                }
            }
            Surrogate::FastSigmoid { slope } => {
                let d = 1.0 + slope * x.abs();
                1.0 / (d * d)
            }
            Surrogate::ArcTan { alpha } => {
                let z = std::f32::consts::FRAC_PI_2 * alpha * x;
                alpha / (2.0 * (1.0 + z * z))
            }
        };
        grad.iter()
            .zip(u)
            .map(|(&g, &u)| g * derivative(u - theta))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every variant gives the per-element loop's bits. `θ` and the
        /// width are dyadic, so `U − θ` lands exactly on `0` and `±width`
        /// where the case puts it; `±0.0` gradients are among the draws.
        #[test]
        fn backward_is_bitwise_the_per_element_loop(
            cells in prop::collection::vec((0u8..6, -3.0f32..3.0, -2.0f32..2.0), 1..24),
            variant in 0u8..3, theta_exp in -2i32..2, width_exp in -2i32..2,
            shape in 0.1f32..5.0,
        ) {
            let theta = 2f32.powi(theta_exp);
            let width = 2f32.powi(width_exp);
            let s = match variant {
                0 => Surrogate::Triangle { width },
                1 => Surrogate::FastSigmoid { slope: shape },
                _ => Surrogate::ArcTan { alpha: shape },
            };
            let (mut grad, mut u) = (Vec::new(), Vec::new());
            for &(kind, x, g) in &cells {
                u.push(match kind {
                    0 => theta,
                    1 => theta + width,
                    2 => theta - width,
                    _ => theta + x,
                });
                grad.push(match kind {
                    3 => 0.0,
                    4 => -0.0,
                    _ => g,
                });
            }
            let got: Vec<u32> = s.backward(&grad, &u, theta).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> =
                backward_reference(s, &grad, &u, theta).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "{}", s);
        }
    }

    #[test]
    fn triangle_shape() {
        let s = Surrogate::Triangle { width: 1.0 };
        assert_eq!(s.derivative(0.0), 1.0);
        assert_eq!(s.derivative(1.0), 0.0);
        assert_eq!(s.derivative(-1.0), 0.0);
        assert!((s.derivative(0.5) - 0.5).abs() < 1e-6);
        assert_eq!(s.derivative(5.0), 0.0);
    }

    #[test]
    fn all_surrogates_peak_at_zero_and_are_symmetric() {
        for s in [
            Surrogate::Triangle { width: 0.7 },
            Surrogate::FastSigmoid { slope: 2.0 },
            Surrogate::ArcTan { alpha: 2.0 },
        ] {
            let peak = s.derivative(0.0);
            for x in [0.1f32, 0.5, 1.0, 3.0] {
                assert!(s.derivative(x) <= peak, "{s} not peaked at 0");
                assert!(
                    (s.derivative(x) - s.derivative(-x)).abs() < 1e-6,
                    "{s} not symmetric"
                );
            }
        }
    }

    #[test]
    fn derivatives_are_nonnegative() {
        for s in [
            Surrogate::default_triangle(),
            Surrogate::FastSigmoid { slope: 5.0 },
            Surrogate::ArcTan { alpha: 1.0 },
        ] {
            for i in -20..=20 {
                assert!(s.derivative(i as f32 * 0.25) >= 0.0);
            }
        }
    }
}
