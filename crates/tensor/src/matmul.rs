//! Matrix products on one inner loop.
//!
//! Three variants cover a dense layer's forward pass and both backward
//! passes, and the three products of the lowered convolution:
//!
//! * [`matmul`]    — `C[M,N] = A[M,K] · B[K,N]` (dense grad wrt input;
//!   conv forward and conv grad wrt weight),
//! * [`matmul_nt`] — `C[M,N] = A[M,K] · B[N,K]ᵀ` (dense forward),
//! * [`matmul_tn`] — `C[M,N] = A[K,M]ᵀ · B[K,N]` (dense grad wrt weight;
//!   conv grad wrt input).
//!
//! All three run the same row-axpy loop, `c_row += a_ip · b_row` with `p`
//! ascending and a zero `a_ip` skipped, so every output element is the sum
//! of its terms in ascending `p` starting from `+0.0`, whichever variant
//! computes it. The loop is neither blocked nor register-tiled. `matmul_nt`
//! first writes `Bᵀ` to a [`Category::Workspace`] scratch, so that the rows
//! it streams are contiguous as well.
//!
//! All record `2·M·N·K` FLOPs with the latency model (`matmul_nt`'s
//! transpose is part of that one GEMM, not an op of its own) and run entirely
//! in their caller: data-parallel shards are the only parallelism in training.

use crate::manip::transpose_into;
use crate::tensor::Tensor;
use skipper_memprof::{record_op, Category, CategoryGuard, OpKind};

fn record(m: usize, n: usize, k: usize) {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    record_op(OpKind::MatMul, flops, bytes);
}

/// The one GEMM inner loop: `out[M,N] = Σ_p a(i, p) · b[p, :]`, `p` ascending.
fn row_axpy(m: usize, k: usize, n: usize, a: impl Fn(usize, usize) -> f32, bd: &[f32]) -> Tensor {
    let mut out = Tensor::zeros([m, n]);
    let od = out.data_mut();
    for i in 0..m {
        let crow = &mut od[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a(i, p);
            if av == 0.0 {
                continue; // a ±0.0 term cannot change a sum that started at +0.0
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    out
}

/// `A[M,K] · B[K,N]`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_2d();
    let (k2, n) = b.shape().as_2d();
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", a.shape(), b.shape());
    record(m, n, k);
    let ad = a.data();
    row_axpy(m, k, n, |i, p| ad[i * k + p], b.data())
}

/// `A[M,K] · B[N,K]ᵀ`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the `K` dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_2d();
    let (n, k2) = b.shape().as_2d();
    assert_eq!(
        k,
        k2,
        "matmul_nt inner dims: {} vs {}",
        a.shape(),
        b.shape()
    );
    record(m, n, k);
    let bt = {
        let _ws = CategoryGuard::new(Category::Workspace);
        let mut bt = Tensor::zeros([k, n]);
        transpose_into(b.data(), n, k, bt.data_mut());
        bt
    };
    let ad = a.data();
    row_axpy(m, k, n, |i, p| ad[i * k + p], bt.data())
}

/// `A[K,M]ᵀ · B[K,N]`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the `K` dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape().as_2d();
    let (k2, n) = b.shape().as_2d();
    assert_eq!(
        k,
        k2,
        "matmul_tn inner dims: {} vs {}",
        a.shape(),
        b.shape()
    );
    record(m, n, k);
    let ad = a.data();
    row_axpy(m, k, n, |i, p| ad[p * m + i], b.data())
}

#[cfg(test)]
pub(crate) mod reference {
    //! What the bit-for-bit tests of this crate compare against: the kernel
    //! [`matmul_nt`](super::matmul_nt) replaced, and the element mix that
    //! makes a dropped or reordered term visible.

    use crate::random::XorShiftRng;
    use crate::shape::Shape;
    use crate::tensor::Tensor;

    /// `A[M,K] · B[N,K]ᵀ` as one dot product per output element: no
    /// transpose, no zero skipped.
    pub(crate) fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_2d();
        let (n, k2) = b.shape().as_2d();
        assert_eq!(k, k2);
        let mut out = Tensor::zeros([m, n]);
        let (ad, bd) = (a.data(), b.data());
        for (i, crow) in out.data_mut().chunks_mut(n).enumerate() {
            let arow = &ad[i * k..(i + 1) * k];
            for (j, c) in crow.iter_mut().enumerate() {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *c = acc;
            }
        }
        out
    }

    /// Elements drawn evenly from `{0.0, -0.0, 0.25, 1.0, N(0,1)}`: both
    /// zeros (the skipped terms), a pooled spike, a spike, a dense value.
    pub(crate) fn mixed(shape: impl Into<Shape>, rng: &mut XorShiftRng) -> Tensor {
        Tensor::from_fn(shape, |_| match rng.next_below(5) {
            0 => 0.0,
            1 => -0.0,
            2 => 0.25,
            3 => 1.0,
            _ => rng.next_normal(),
        })
    }

    /// `Err` naming the first element whose bit pattern differs.
    pub(crate) fn same_bits(what: &str, got: &Tensor, want: &Tensor) -> Result<(), String> {
        if got.shape() != want.shape() {
            return Err(format!("{what}: shape {} vs {}", got.shape(), want.shape()));
        }
        match (got.data().iter().zip(want.data())).position(|(g, w)| g.to_bits() != w.to_bits()) {
            Some(i) => Err(format!(
                "{what}: element {i} is {:?}, reference {:?}",
                got.data()[i],
                want.data()[i]
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::XorShiftRng;
    use proptest::prelude::*;
    use skipper_memprof as mp;

    fn naive(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
        let (ar, ac) = a.shape().as_2d();
        let (br, bc) = b.shape().as_2d();
        let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
        let (k2, n) = if tb { (bc, br) } else { (br, bc) };
        assert_eq!(k, k2);
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    let av = if ta { a.at(&[p, i]) } else { a.at(&[i, p]) };
                    let bv = if tb { b.at(&[j, p]) } else { b.at(&[p, j]) };
                    acc += av * bv;
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = XorShiftRng::new(1);
        let a = Tensor::randn([5, 5], &mut rng);
        assert!(matmul(&a, &Tensor::eye(5)).allclose(&a, 1e-6));
        assert!(matmul(&Tensor::eye(5), &a).allclose(&a, 1e-6));
    }

    #[test]
    fn variants_match_naive_reference() {
        let mut rng = XorShiftRng::new(3);
        let a = Tensor::randn([7, 5], &mut rng);
        let b = Tensor::randn([5, 6], &mut rng);
        assert!(matmul(&a, &b).allclose(&naive(&a, &b, false, false), 1e-4));

        let bt = Tensor::randn([6, 5], &mut rng); // use as Bᵀ
        assert!(matmul_nt(&a, &bt).allclose(&naive(&a, &bt, false, true), 1e-4));

        let at = Tensor::randn([5, 7], &mut rng); // use as Aᵀ
        assert!(matmul_tn(&at, &b).allclose(&naive(&at, &b, true, false), 1e-4));
    }

    /// The largest product here (64×96×80 = 491 520 multiply-adds). `naive`
    /// adds every term in ascending `p` from `+0.0` too, and a skipped
    /// `±0.0` term cannot change such a sum, so the bits must agree.
    #[test]
    fn large_product_matches_naive_bit_for_bit() {
        let mut rng = XorShiftRng::new(11);
        let a = reference::mixed([64, 96], &mut rng);
        let b = reference::mixed([96, 80], &mut rng);
        let checked = reference::same_bits("matmul", &matmul(&a, &b), &naive(&a, &b, false, false));
        assert!(checked.is_ok(), "{checked:?}");
    }

    /// Any of `M`, `N`, `K` = 0: the right shape, all `+0.0`, one op record
    /// of 0 FLOPs, for each variant.
    #[test]
    fn zero_extent_products_are_empty_or_zero() {
        type Product = fn(&Tensor, &Tensor) -> Tensor;
        for (m, n, k) in [(0, 3, 4), (2, 0, 4), (2, 3, 0)] {
            let products: [(&str, Product, [usize; 2], [usize; 2]); 3] = [
                ("matmul", matmul, [m, k], [k, n]),
                ("matmul_nt", matmul_nt, [m, k], [n, k]),
                ("matmul_tn", matmul_tn, [k, m], [k, n]),
            ];
            for (what, product, a, b) in products {
                let (a, b) = (Tensor::ones(a), Tensor::ones(b));
                mp::take_op_log();
                let out = product(&a, &b);
                let log = mp::take_op_log();
                let at = format!("{what} M={m} N={n} K={k}");
                assert_eq!(out.shape().as_2d(), (m, n), "{at}");
                assert!(out.data().iter().all(|v| v.to_bits() == 0), "{at}");
                assert_eq!(log.len(), 1, "{at}");
                assert_eq!(log.total_flops(), 0.0, "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn mismatched_dims_panic() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn flops_are_recorded() {
        skipper_memprof::take_op_log();
        let a = Tensor::ones([4, 3]);
        let b = Tensor::ones([3, 2]);
        let _ = matmul(&a, &b);
        let log = skipper_memprof::take_op_log();
        assert!(log.total_flops() >= 2.0 * 4.0 * 3.0 * 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Transpose + row-axpy gives the dot-product kernel's bits, at
        /// sizes on both sides of the transpose tile and not multiples of it.
        #[test]
        fn matmul_nt_matches_the_dot_product_kernel_bit_for_bit(
            m in 1usize..41, n in 1usize..41, k in 1usize..41,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = XorShiftRng::new(seed);
            let a = reference::mixed([m, k], &mut rng);
            let b = reference::mixed([n, k], &mut rng);
            let checked = reference::same_bits(
                "matmul_nt",
                &matmul_nt(&a, &b),
                &reference::matmul_nt(&a, &b),
            );
            prop_assert!(checked.is_ok(), "[{m}x{k}]·[{n}x{k}]ᵀ seed {seed}: {checked:?}");
        }
    }

    /// `*_peak_bytes` have a 2 % bound: the scratch is exactly one `Bᵀ`,
    /// under Workspace even though a training step holds an Activations
    /// guard, and the device model still sees one GEMM.
    #[test]
    fn matmul_nt_scratch_is_workspace_and_not_an_op() {
        mp::reset_all();
        let (m, k, n) = (3, 17, 5);
        let a = Tensor::ones([m, k]);
        let b = Tensor::ones([n, k]);
        let _step = mp::CategoryGuard::new(mp::Category::Activations);
        mp::reset_peaks();
        mp::take_op_log();
        let out = matmul_nt(&a, &b);
        let log = mp::take_op_log();
        let snap = mp::snapshot();
        assert_eq!(snap.peak(mp::Category::Workspace), (k * n * 4) as u64);
        assert_eq!(snap.live(mp::Category::Workspace), 0);
        assert_eq!(snap.peak(mp::Category::Activations), out.byte_size());
        assert_eq!(log.len(), 1);
        assert_eq!(log.total_flops(), (2 * m * n * k) as f64);
        assert_eq!(log.total_bytes(), (4 * (m * k + k * n + m * n)) as f64);
    }
}
