//! Matrix products on one register-tiled kernel.
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
//! All three run the same kernel. It keeps an `MR × NR` tile of `C` in
//! accumulators for the whole `p` loop (`MR` = 4 rows, `NR` = 16 columns,
//! or 32 on AVX-512), covers the columns left over with strips 16, 8 and 4
//! wide and one tile of the last `N mod 4`, and the rows left over one at a
//! time. `A` is read in place, transposed or not; `matmul_nt` first writes
//! `Bᵀ` to a [`Category::Workspace`] scratch, so that the `B` rows the
//! kernel streams are contiguous in every variant. Each accumulator starts
//! at `+0.0` and adds `a(i,p) · b(p,j)` for every `p`, ascending: the naive
//! loop's operations on every input, whichever variant, tile or strip
//! computes the element, and no test on a value (`0 · ∞` is `NaN`).
//!
//! The kernel is one generic body with no intrinsics, compiled three times:
//! for the baseline target, with AVX2 and with AVX-512F enabled. Each call
//! runs the widest one the CPU supports (`is_x86_feature_detected!`); no
//! setting chooses. Which one runs cannot change a bit: a wider register
//! holds more lanes, but each lane performs the same IEEE single-precision
//! multiply, then add, in the same order, and Rust never fuses a multiply
//! and an add into an FMA by itself.
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

/// Rows of `C` one tile keeps in accumulators.
const MR: usize = 4;

/// An instantiation of the kernel, by the instruction set it is compiled for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Isa {
    Portable,
    Avx2,
    Avx512,
}

impl Isa {
    /// Widest first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Portable];

    /// The widest instantiation this CPU runs.
    pub(crate) fn detected() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Portable)
    }

    /// Whether this CPU has every feature the instantiation is compiled with.
    pub(crate) fn supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }
}

/// `C[M,N] = Σ_p a(i, p) · b[p, :]` on `isa`'s instantiation, with `A` read
/// in place, `a(i, p) = a[i·a_row + p·a_col]`, and `b` row-major `[K, N]`.
fn gemm(
    isa: Isa,
    m: usize,
    n: usize,
    a: &[f32],
    (a_row, a_col): (usize, usize),
    b: &[f32],
) -> Tensor {
    let mut out = Tensor::zeros([m, n]);
    if m == 0 || n == 0 {
        return out;
    }
    assert!(
        isa.supported(),
        "{isa:?} GEMM on a CPU without its features"
    );
    let ops = Operands {
        a,
        a_row,
        a_col,
        b,
        n,
    };
    // The arms coerce to one function pointer, which `unsafe` must call.
    let kernel = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => tiled_avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => tiled_avx2,
        _ => tiled_portable,
    };
    // SAFETY: `kernel` enables no target feature beyond `isa`'s, and the
    // assert above checked that this CPU has all of `isa`'s.
    unsafe { kernel(ops, out.data_mut()) };
    out
}

fn tiled_portable(ops: Operands<'_>, c: &mut [f32]) {
    ops.tiled::<16>(c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiled_avx2(ops: Operands<'_>, c: &mut [f32]) {
    ops.tiled::<16>(c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiled_avx512(ops: Operands<'_>, c: &mut [f32]) {
    ops.tiled::<32>(c);
}

/// What [`gemm`] multiplies; `n > 0`.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    a_row: usize,
    a_col: usize,
    b: &'a [f32],
    n: usize,
}

// Every method here is `#[inline(always)]`: inlined into each `tiled_*`,
// it is compiled with that function's target features; called, it would be
// compiled once, for the baseline target.
impl Operands<'_> {
    /// The one kernel body: `MR`-row blocks of `c`, then single rows.
    #[inline(always)]
    fn tiled<const NR: usize>(self, c: &mut [f32]) {
        let m = c.len() / self.n;
        let mut i = 0;
        while i + MR <= m {
            self.row_block::<MR, NR>(i, c);
            i += MR;
        }
        for i in i..m {
            self.row_block::<1, NR>(i, c);
        }
    }

    /// Rows `i..i + R` of `c`: `NR`-wide tiles, then strips 16, 8 and 4
    /// wide, then one tile as wide as the `N mod 4` columns left.
    #[inline(always)]
    fn row_block<const R: usize, const NR: usize>(self, i: usize, c: &mut [f32]) {
        let j = self.strips::<R, NR>(i, 0, c);
        let j = self.strips::<R, 16>(i, j, c);
        let j = self.strips::<R, 8>(i, j, c);
        let j = self.strips::<R, 4>(i, j, c);
        match self.n - j {
            1 => self.tile::<R, 1>(i, j, c),
            2 => self.tile::<R, 2>(i, j, c),
            3 => self.tile::<R, 3>(i, j, c),
            _ => {}
        }
    }

    /// As many `R × W` tiles as fit from column `j` on; returns the first
    /// column left.
    #[inline(always)]
    fn strips<const R: usize, const W: usize>(
        self,
        i: usize,
        mut j: usize,
        c: &mut [f32],
    ) -> usize {
        while j + W <= self.n {
            self.tile::<R, W>(i, j, c);
            j += W;
        }
        j
    }

    /// The `R × W` tile of `c` at `(i, j)`, in accumulators for the whole
    /// `p` loop.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(self, i: usize, j: usize, c: &mut [f32]) {
        let mut acc = [[0.0f32; W]; R];
        for (p, b_row) in self.b.chunks_exact(self.n).enumerate() {
            let b_strip = &b_row[j..j + W];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = self.a[(i + r) * self.a_row + p * self.a_col];
                for (acc, &bv) in acc_row.iter_mut().zip(b_strip) {
                    *acc += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            c[(i + r) * self.n + j..][..W].copy_from_slice(acc_row);
        }
    }
}

/// `A[M,K] · B[K,N]`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_on(Isa::detected(), a, b)
}

fn matmul_on(isa: Isa, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_2d();
    let (k2, n) = b.shape().as_2d();
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", a.shape(), b.shape());
    record(m, n, k);
    gemm(isa, m, n, a.data(), (k, 1), b.data())
}

/// `A[M,K] · B[N,K]ᵀ`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the `K` dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_nt_on(Isa::detected(), a, b)
}

fn matmul_nt_on(isa: Isa, a: &Tensor, b: &Tensor) -> Tensor {
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
    gemm(isa, m, n, a.data(), (k, 1), bt.data())
}

/// `A[K,M]ᵀ · B[K,N]`.
///
/// # Panics
///
/// Panics if the shapes are not rank-2 or the `K` dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_tn_on(Isa::detected(), a, b)
}

fn matmul_tn_on(isa: Isa, a: &Tensor, b: &Tensor) -> Tensor {
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
    gemm(isa, m, n, a.data(), (1, m), b.data())
}

#[cfg(test)]
pub(crate) mod reference {
    //! What the bit-for-bit tests of this crate compare against: the kernel
    //! [`matmul_nt`](super::matmul_nt) replaced, and the element mix that
    //! makes a dropped or reordered term visible; and the transpose they
    //! build operands with.

    use crate::random::XorShiftRng;
    use crate::shape::Shape;
    use crate::tensor::Tensor;

    /// `A[M,K] · B[N,K]ᵀ` as one dot product per output element, with no
    /// transpose.
    pub(crate) fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_2d();
        let (n, k2) = b.shape().as_2d();
        assert_eq!(k, k2);
        let mut out = Tensor::zeros([m, n]);
        let (ad, bd) = (a.data(), b.data());
        for (i, crow) in out.data_mut().chunks_mut(n.max(1)).enumerate() {
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

    /// `t[rows, cols]` transposed, by the copy `matmul_nt` writes `Bᵀ` with.
    pub(crate) fn transposed(t: &Tensor) -> Tensor {
        let (rows, cols) = t.shape().as_2d();
        let mut out = Tensor::zeros([cols, rows]);
        crate::manip::transpose_into(t.data(), rows, cols, out.data_mut());
        out
    }

    /// Elements drawn evenly from `{0.0, -0.0, 0.25, 1.0, N(0,1)}`: both
    /// zeros (a silent neuron), a pooled spike, a spike, a dense value.
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
    /// adds every term in ascending `p` from `+0.0` too, so the bits must
    /// agree.
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

        /// Every instantiation this CPU runs gives, for all three products,
        /// the bits of the naive kernel and of the dot-product kernel: every
        /// build performs the naive loop's operations on every input. `M`,
        /// `N`, `K` in `0..=70` reach every tile and strip remainder. With
        /// `special`, half of one row of `B` is `+∞`: where it meets one of
        /// `A`'s `±0.0` (two in five elements), `0 · ∞` must reach the sum
        /// as `NaN`, elsewhere `±∞`. A few `NaN` and `−∞` land in both
        /// operands too.
        #[test]
        fn every_instantiation_matches_the_oracles_bit_for_bit(
            m in 0usize..71, n in 0usize..71, k in 0usize..71,
            special in 0u8..2, seed in 0u64..u64::MAX,
        ) {
            let mut rng = XorShiftRng::new(seed);
            let mut a = reference::mixed([m, k], &mut rng);
            let mut b = reference::mixed([k, n], &mut rng);
            if special == 1 {
                if k > 0 {
                    let p = rng.next_below(k);
                    for v in &mut b.data_mut()[p * n..(p + 1) * n] {
                        if rng.next_below(2) == 0 {
                            *v = f32::INFINITY;
                        }
                    }
                }
                sprinkle_non_finite(&mut a, &mut rng);
                sprinkle_non_finite(&mut b, &mut rng);
            }
            let oracles = [
                ("naive", naive(&a, &b, false, false)),
                ("dot product", reference::matmul_nt(&a, &reference::transposed(&b))),
            ];
            let (at, bt) = (reference::transposed(&a), reference::transposed(&b));
            for isa in instantiations() {
                let products = [
                    ("matmul", matmul_on(isa, &a, &b)),
                    ("matmul_nt", matmul_nt_on(isa, &a, &bt)),
                    ("matmul_tn", matmul_tn_on(isa, &at, &b)),
                ];
                for (what, got) in &products {
                    for (oracle, want) in &oracles {
                        let checked = reference::same_bits(what, got, want);
                        prop_assert!(
                            checked.is_ok(),
                            "{isa:?} vs {oracle}, [{m}x{k}]·[{k}x{n}] special {special} seed {seed}: {checked:?}"
                        );
                    }
                }
            }
        }
    }

    /// Up to two elements of `t` become `NaN` or `−∞`. The `NaN` is the
    /// one this CPU makes for `0 · ∞`, so every `NaN` in a sum has one bit
    /// pattern: IEEE 754 leaves open which of two `NaN` operands an add
    /// passes on, and the compiler may order an add's operands either way.
    fn sprinkle_non_finite(t: &mut Tensor, rng: &mut XorShiftRng) {
        let nan = std::hint::black_box(0.0f32) * std::hint::black_box(f32::INFINITY);
        let len = t.numel();
        for _ in 0..rng.next_below(3).min(len) {
            let at = rng.next_below(len);
            t.data_mut()[at] = if rng.next_below(2) == 0 {
                nan
            } else {
                f32::NEG_INFINITY
            };
        }
    }

    /// The instantiations this CPU runs. Says once, on standard output,
    /// which run and which are skipped, and which one every call uses.
    fn instantiations() -> Vec<Isa> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            for isa in Isa::ALL {
                let verdict = if isa.supported() {
                    "tested"
                } else {
                    "skipped: not on this CPU"
                };
                println!("GEMM instantiation {isa:?}: {verdict}");
            }
            println!("GEMM calls run {:?}", Isa::detected());
        });
        Isa::ALL.into_iter().filter(|isa| isa.supported()).collect()
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
