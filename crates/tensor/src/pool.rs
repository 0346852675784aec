//! Average pooling (the pooling used by spiking CNNs, where max-pooling is
//! ill-defined on binary spike trains).
//!
//! Windows are `k x k` with stride `k`, so the input is `B·C·H_out` bands of
//! `k` rows, one band per output row, and both directions walk the bands in
//! order: the forward adds each input row of a band, window by window, onto
//! the band's output row, and the backward writes the band's first row and
//! copies it to the other `k − 1`. There is one body for every `k`; it is
//! compiled once more with `k = 2`, the window of every pooled network here,
//! so that the window loops unroll. Each window's terms are added onto
//! `+0.0` in `(i, j)` order and scaled by `1/k²` once, so every output
//! bit is what a per-window loop in that order gives.

use crate::conv::dims4;
use crate::tensor::Tensor;
use skipper_memprof::{record_op, OpKind};

/// `(b, c, h, w)` of an input of `dims` pooled by `k`.
///
/// # Panics
///
/// Panics if `k` is zero, `dims` is not rank 4, or `k` does not divide the
/// spatial dimensions.
fn pooled_input(dims: &[usize], k: usize) -> (usize, usize, usize, usize) {
    assert!(k > 0, "pool window must be positive");
    let (b, c, h, w) = dims4(dims);
    assert!(
        h % k == 0 && w % k == 0,
        "pool window {k} must divide {h}x{w}"
    );
    (b, c, h, w)
}

/// Average-pool `input [B,C,H,W]` with a `k x k` window and stride `k`
/// (non-overlapping, the configuration used by all networks in the paper).
///
/// # Panics
///
/// Panics if `k` is zero or does not divide the spatial dimensions.
pub fn avg_pool2d(input: &Tensor, k: usize) -> Tensor {
    let (b, c, h, w) = pooled_input(input.shape().dims(), k);
    let (ho, wo) = (h / k, w / k);
    record_op(
        OpKind::Pool,
        input.numel() as f64,
        (input.numel() + b * c * ho * wo) as f64 * 4.0,
    );
    let mut out = Tensor::zeros([b, c, ho, wo]);
    let inv = 1.0 / (k * k) as f32;
    if k == 2 {
        sum_bands(input.data(), out.data_mut(), w, 2, inv);
    } else {
        sum_bands(input.data(), out.data_mut(), w, k, inv);
    }
    out
}

/// Each row of `dst` (zeroed, `w / k` wide) becomes the mean of the windows
/// of its `k`-row band of `src`.
#[inline(always)]
fn sum_bands(src: &[f32], dst: &mut [f32], w: usize, k: usize, inv: f32) {
    let wo = w / k;
    if wo == 0 {
        return;
    }
    for (out_row, band) in dst.chunks_exact_mut(wo).zip(src.chunks_exact(k * w)) {
        for row in band.chunks_exact(w) {
            for (acc, window) in out_row.iter_mut().zip(row.chunks_exact(k)) {
                for &v in window {
                    *acc += v;
                }
            }
        }
        for acc in out_row {
            *acc *= inv;
        }
    }
}

/// Gradient of [`avg_pool2d`]: spreads each output gradient uniformly over
/// its `k x k` window.
///
/// # Panics
///
/// Panics as [`avg_pool2d`] does on `input_shape`, and if `grad_output`'s
/// shape is not `input_shape` pooled by `k`.
pub fn avg_pool2d_backward(grad_output: &Tensor, input_shape: &[usize], k: usize) -> Tensor {
    let (b, c, h, w) = pooled_input(input_shape, k);
    let (ho, wo) = (h / k, w / k);
    assert_eq!(
        grad_output.shape().dims(),
        &[b, c, ho, wo],
        "grad_output shape mismatch"
    );
    record_op(
        OpKind::Pool,
        grad_output.numel() as f64 * (k * k) as f64,
        (b * c * h * w + grad_output.numel()) as f64 * 4.0,
    );
    let mut out = Tensor::zeros([b, c, h, w]);
    let inv = 1.0 / (k * k) as f32;
    if k == 2 {
        spread_bands(grad_output.data(), out.data_mut(), w, 2, inv);
    } else {
        spread_bands(grad_output.data(), out.data_mut(), w, k, inv);
    }
    out
}

/// Each `k`-row band of `dst` becomes its row of `src` (`w / k` wide),
/// scaled by `inv` and repeated over every window.
#[inline(always)]
fn spread_bands(src: &[f32], dst: &mut [f32], w: usize, k: usize, inv: f32) {
    let wo = w / k;
    if wo == 0 {
        return;
    }
    for (grad_row, band) in src.chunks_exact(wo).zip(dst.chunks_exact_mut(k * w)) {
        let (first, rest) = band.split_at_mut(w);
        for (window, &g) in first.chunks_exact_mut(k).zip(grad_row) {
            window.fill(g * inv);
        }
        for row in rest.chunks_exact_mut(w) {
            row.copy_from_slice(first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference::{mixed, same_bits};
    use crate::random::XorShiftRng;
    use proptest::prelude::*;

    /// The forward kernel [`sum_bands`] replaced: one accumulator per
    /// window, its terms in `(i, j)` order.
    fn avg_pool2d_reference(input: &Tensor, k: usize) -> Tensor {
        let (b, c, h, w) = input.shape().as_4d();
        let (ho, wo) = (h / k, w / k);
        let mut out = Tensor::zeros([b, c, ho, wo]);
        let inv = 1.0 / (k * k) as f32;
        let src = input.data();
        let dst = out.data_mut();
        for bc in 0..b * c {
            let plane = &src[bc * h * w..(bc + 1) * h * w];
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut acc = 0.0f32;
                    for i in 0..k {
                        for j in 0..k {
                            acc += plane[(oh * k + i) * w + ow * k + j];
                        }
                    }
                    dst[(bc * ho + oh) * wo + ow] = acc * inv;
                }
            }
        }
        out
    }

    /// The backward kernel [`spread_bands`] replaced: each window written
    /// with its scaled gradient.
    fn avg_pool2d_backward_reference(grad_output: &Tensor, dims: &[usize], k: usize) -> Tensor {
        let (b, c, h, w) = dims4(dims);
        let (ho, wo) = (h / k, w / k);
        let mut out = Tensor::zeros([b, c, h, w]);
        let inv = 1.0 / (k * k) as f32;
        let src = grad_output.data();
        let dst = out.data_mut();
        for bc in 0..b * c {
            let src_plane = &src[bc * ho * wo..(bc + 1) * ho * wo];
            let dst_plane = &mut dst[bc * h * w..(bc + 1) * h * w];
            for oh in 0..ho {
                for ow in 0..wo {
                    let g = src_plane[oh * wo + ow] * inv;
                    for i in 0..k {
                        for j in 0..k {
                            dst_plane[(oh * k + i) * w + ow * k + j] = g;
                        }
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Both directions equal their reference bit for bit on `mixed`
        /// elements (`±0.0` among them), for every window size the
        /// geometry admits.
        #[test]
        fn pool_matches_the_reference_bit_for_bit(
            k in 1usize..5, b in 1usize..4, c in 1usize..4, ho in 0usize..6, wo in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(ho != wo);
            let dims = [b, c, ho * k, wo * k];
            let mut rng = XorShiftRng::new(seed);
            let input = mixed(dims, &mut rng);
            let got = avg_pool2d(&input, k);
            let checked = same_bits("avg_pool2d", &got, &avg_pool2d_reference(&input, k));
            prop_assert!(checked.is_ok(), "{dims:?} k {k}: {checked:?}");
            let grad = mixed([b, c, ho, wo], &mut rng);
            let got = avg_pool2d_backward(&grad, &dims, k);
            let want = avg_pool2d_backward_reference(&grad, &dims, k);
            let checked = same_bits("avg_pool2d_backward", &got, &want);
            prop_assert!(checked.is_ok(), "{dims:?} k {k}: {checked:?}");
        }
    }

    #[test]
    fn known_2x2_pool() {
        let input = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), [1, 1, 4, 4]);
        let out = avg_pool2d(&input, 2);
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn pool_of_constant_is_constant() {
        let input = Tensor::full([2, 3, 6, 6], 2.5);
        let out = avg_pool2d(&input, 3);
        assert!(out.allclose(&Tensor::full([2, 3, 2, 2], 2.5), 1e-6));
    }

    #[test]
    fn backward_distributes_uniformly() {
        let go = Tensor::from_vec(vec![4.0], [1, 1, 1, 1]);
        let gi = avg_pool2d_backward(&go, &[1, 1, 2, 2], 2);
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = XorShiftRng::new(8);
        let input = Tensor::randn([1, 2, 4, 4], &mut rng);
        let go = Tensor::randn([1, 2, 2, 2], &mut rng);
        let gi = avg_pool2d_backward(&go, input.shape().dims(), 2);
        let f = |x: &Tensor| -> f64 {
            avg_pool2d(x, 2)
                .data()
                .iter()
                .zip(go.data())
                .map(|(&o, &g)| (o * g) as f64)
                .sum()
        };
        let eps = 1e-2f32;
        for probe in [0usize, 5, 21, 31] {
            let mut plus = input.deep_clone();
            plus.data_mut()[probe] += eps;
            let mut minus = input.deep_clone();
            minus.data_mut()[probe] -= eps;
            let num = ((f(&plus) - f(&minus)) / (2.0 * eps as f64)) as f32;
            assert!((num - gi.data()[probe]).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn window_must_divide_input() {
        avg_pool2d(&Tensor::zeros([1, 1, 5, 5]), 2);
    }

    /// A 5x5 input has no 2x2 pooling: the gradient must not come back
    /// with its last row and column silently zero.
    #[test]
    #[should_panic(expected = "pool window 2 must divide 5x5")]
    fn backward_window_must_divide_input() {
        avg_pool2d_backward(&Tensor::zeros([1, 1, 2, 2]), &[1, 1, 5, 5], 2);
    }

    #[test]
    #[should_panic(expected = "pool window must be positive")]
    fn backward_window_must_be_positive() {
        avg_pool2d_backward(&Tensor::zeros([1, 1, 2, 2]), &[1, 1, 2, 2], 0);
    }
}
