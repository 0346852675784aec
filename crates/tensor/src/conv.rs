//! 2-D convolution kernels (lowering + GEMM), NCHW layout.
//!
//! Each kernel lowers the whole batch to one matrix (`K = C_in·kh·kw`,
//! `L = H_out·W_out`) and performs a single GEMM — the standard GPU
//! lowering, which keeps the FLOP accounting identical to what the latency
//! model expects. All three products run [`matmul`](mod@crate::matmul)'s one
//! kernel, which performs every multiply-add of the naive loop whatever the
//! operands hold:
//!
//! * forward: `out[C_out, B·L] = W[C_out, K] · cols[K, B·L]` (`im2col`),
//! * input gradient: `col_grad[K, B·L] = W[C_out, K]ᵀ · grad[C_out, B·L]`,
//!   scattered back by `col2im`,
//! * weight gradient: `grad_W[C_out, K] = grad[C_out, B·L] · rows[B·L, K]`
//!   (`im2row`: the transpose of `cols`, lowered directly so that the inner
//!   loop runs along contiguous rows of length `K`).
//!
//! The lowered matrices are booked under [`Category::Workspace`] so they
//! show up in the right bucket of the memory breakdowns. No lowering tests a
//! coordinate per element: the in-bounds output positions of a kernel
//! offset form a range, computed once per offset. `im2col` copies each
//! plane of a kernel offset as one span where the geometry allows it
//! (unit stride, as many output as input columns — every padded 3x3 here),
//! and zeroes each row just before filling it; `im2row` and `col2im` walk
//! the same ranges one output line at a time (`ConvDims::for_each_run`).
//! The `[Cout, B·L]` ↔ `[B, Cout, L]` permutes copy whole `L`-runs, the
//! forward adds the bias in the same pass, and [`Conv2dGrad`] permutes the
//! output gradient once for both backward products. Every kernel is a copy
//! or a sum in a fixed order, so no output bit depends on how it is walked.
//!
//! [`Category::Workspace`]: skipper_memprof::Category::Workspace

use crate::matmul::{matmul, matmul_tn};
use crate::shape::Shape;
use crate::tensor::Tensor;
use skipper_memprof::{record_op, Category, CategoryGuard, OpKind};
use std::ops::Range;

/// Stride and zero-padding of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Step between output positions.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dSpec {
    /// Unit stride with `padding`.
    pub fn padded(padding: usize) -> Conv2dSpec {
        Conv2dSpec { stride: 1, padding }
    }

    /// Output extent along one spatial dimension.
    ///
    /// # Panics
    ///
    /// Panics if the stride is 0 or the kernel does not fit the padded
    /// input.
    pub fn out_dim(&self, input: usize, kernel: usize) -> usize {
        assert!(self.stride >= 1, "conv stride must be at least 1, got 0");
        let padded = input + 2 * self.padding;
        assert!(
            padded >= kernel,
            "kernel {kernel} larger than padded input {padded}"
        );
        (padded - kernel) / self.stride + 1
    }

    /// For each kernel offset `k` in `0..kernel`, the output positions `o` in
    /// `0..out` whose tap `o·stride + k − padding` lies in `0..extent`.
    fn valid_outputs(&self, kernel: usize, extent: usize, out: usize) -> Vec<Range<usize>> {
        (0..kernel)
            .map(|k| {
                let lo = self.padding.saturating_sub(k).div_ceil(self.stride);
                let hi = (extent + self.padding).saturating_sub(k);
                let hi = hi.div_ceil(self.stride).min(out);
                lo.min(hi)..hi
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct ConvDims {
    b: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
}

/// `(n, c, h, w)` of a rank-4 dimension list, with [`Shape::as_4d`]'s panic.
///
/// [`Shape::as_4d`]: crate::Shape::as_4d
pub(crate) fn dims4(dims: &[usize]) -> (usize, usize, usize, usize) {
    match *dims {
        [n, c, h, w] => (n, c, h, w),
        _ => Shape::from(dims).as_4d(),
    }
}

impl ConvDims {
    /// Geometry of `input [B,Cin,H,W] ⋆ weight [Cout,Cin,kh,kw]` from the
    /// two dimension lists alone.
    fn new(input: &[usize], weight: &[usize], spec: Conv2dSpec) -> ConvDims {
        let (b, cin, h, w) = dims4(input);
        let (cout, cin_w, kh, kw) = dims4(weight);
        assert_eq!(
            cin,
            cin_w,
            "conv2d channels: input {} vs weight {}",
            Shape::from(input),
            Shape::from(weight)
        );
        ConvDims {
            b,
            cin,
            h,
            w,
            cout,
            kh,
            kw,
            ho: spec.out_dim(h, kh),
            wo: spec.out_dim(w, kw),
            spec,
        }
    }

    fn k(&self) -> usize {
        self.cin * self.kh * self.kw
    }
    fn l(&self) -> usize {
        self.ho * self.wo
    }

    /// Calls `f` once per [`Run`], in `(b, c, ki, kj, oh)` order. Taps that
    /// fall into the padding belong to no run, and nothing tests for them
    /// per element: the in-bounds `oh`/`ow` of a kernel offset form a range,
    /// computed once per offset.
    fn for_each_run(&self, mut f: impl FnMut(Run)) {
        let (stride, pad) = (self.spec.stride, self.spec.padding);
        let ohs = self.spec.valid_outputs(self.kh, self.h, self.ho);
        let ows = self.spec.valid_outputs(self.kw, self.w, self.wo);
        for plane in 0..self.b * self.cin {
            let (b, c) = (plane / self.cin, plane % self.cin);
            for (ki, ohs) in ohs.iter().enumerate() {
                for (kj, ows) in ows.iter().enumerate() {
                    if ows.is_empty() {
                        continue;
                    }
                    // Non-negative inside the valid ranges.
                    let iw = ows.start * stride + kj - pad;
                    for oh in ohs.clone() {
                        let ih = oh * stride + ki - pad;
                        f(Run {
                            krow: (c * self.kh + ki) * self.kw + kj,
                            out: b * self.l() + oh * self.wo + ows.start,
                            src: (plane * self.h + ih) * self.w + iw,
                            len: ows.len(),
                        });
                    }
                }
            }
        }
    }
}

/// The taps of one kernel offset along one output line that lie inside the
/// input: `len` consecutive output positions starting at flat position
/// `out` of `B·L`, reading the input from flat index `src` in steps of the
/// stride. `krow` is the offset's row of the `[K, B·L]` column matrix.
struct Run {
    krow: usize,
    out: usize,
    src: usize,
    len: usize,
}

/// Lower `input` to the `[K, B·L]` column matrix.
///
/// Each row is one kernel offset `(c, ki, kj)`: `B` planes, each a shifted
/// copy of an input plane with the padding zeroed. A row is zeroed just
/// before its taps are copied in, while it is in cache, not in a pass of
/// its own. With unit stride and as many output as input columns, a plane's
/// taps are one contiguous span of the input, from the first in-bounds tap
/// to the last, copied at once; what the span also carries into the gaps
/// between two rows' runs is padding, and is zeroed again.
fn im2col(input: &Tensor, d: &ConvDims) -> Tensor {
    let _ws = CategoryGuard::new(Category::Workspace);
    let (k, l, bl) = (d.k(), d.l(), d.b * d.l());
    record_op(OpKind::Copy, 0.0, (k * bl * 4) as f64);
    if l == 0 {
        return Tensor::zeros([k, bl]);
    }
    let (stride, pad, w, wo) = (d.spec.stride, d.spec.padding, d.w, d.wo);
    let ohs = d.spec.valid_outputs(d.kh, d.h, d.ho);
    let ows = d.spec.valid_outputs(d.kw, d.w, d.wo);
    let src = input.data();
    let mut cols = Vec::with_capacity(k * bl);
    for c in 0..d.cin {
        for (ki, ohs) in ohs.iter().enumerate() {
            for (kj, ows) in ows.iter().enumerate() {
                let at = cols.len();
                cols.resize(at + bl, 0.0);
                if ohs.is_empty() || ows.is_empty() {
                    continue;
                }
                // Non-negative inside the valid ranges.
                let (ih, iw) = (ohs.start * stride + ki - pad, ows.start * stride + kj - pad);
                for (b, dst) in cols[at..].chunks_exact_mut(l).enumerate() {
                    let plane = &src[(b * d.cin + c) * d.h * w..][..d.h * w];
                    if stride == 1 && w == wo {
                        let n = (ohs.len() - 1) * wo + ows.len();
                        let span = &mut dst[ohs.start * wo + ows.start..][..n];
                        span.copy_from_slice(&plane[ih * w + iw..][..n]);
                        let gap = wo - ows.len();
                        for gap_then_run in span[ows.len()..].chunks_exact_mut(wo) {
                            gap_then_run[..gap].fill(0.0);
                        }
                    } else {
                        let rows = dst[ohs.start * wo..ohs.end * wo].chunks_exact_mut(wo);
                        for (row, src_row) in rows.zip(plane[ih * w..].chunks(w).step_by(stride)) {
                            let taps = src_row[iw..].iter().step_by(stride);
                            for (o, &v) in row[ows.clone()].iter_mut().zip(taps) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(cols, [k, bl])
}

/// Lower `input` to the `[B·L, K]` row matrix, the transpose of [`im2col`]'s
/// (same bytes, same booking, same op record).
fn im2row(input: &Tensor, d: &ConvDims) -> Tensor {
    let _ws = CategoryGuard::new(Category::Workspace);
    let (k, bl) = (d.k(), d.b * d.l());
    let mut rows = Tensor::zeros([bl, k]);
    record_op(OpKind::Copy, 0.0, (k * bl * 4) as f64);
    let src = input.data();
    let dst = rows.data_mut();
    let stride = d.spec.stride;
    d.for_each_run(|r| {
        let (mut di, mut si) = (r.out * k + r.krow, r.src);
        for _ in 0..r.len {
            dst[di] = src[si];
            di += k;
            si += stride;
        }
    });
    rows
}

/// Scatter-add the `[K, B·L]` column gradient back to input layout. Every
/// input element receives its terms in ascending `(ki, kj)` order.
fn col2im(cols: &Tensor, d: &ConvDims) -> Tensor {
    let (k, bl) = (d.k(), d.b * d.l());
    assert_eq!(cols.shape().dims(), &[k, bl]);
    let mut grad_input = Tensor::zeros([d.b, d.cin, d.h, d.w]);
    record_op(OpKind::Copy, (k * bl) as f64, (k * bl * 4) as f64);
    let src = cols.data();
    let dst = grad_input.data_mut();
    let stride = d.spec.stride;
    d.for_each_run(|r| {
        let run = &src[r.krow * bl + r.out..][..r.len];
        if stride == 1 {
            for (o, &v) in dst[r.src..].iter_mut().zip(run) {
                *o += v;
            }
        } else {
            for (o, &v) in dst[r.src..].iter_mut().step_by(stride).zip(run) {
                *o += v;
            }
        }
    });
    grad_input
}

/// Permute `[B,C,L]`-flat data to `[C, B·L]` (or back with `invert`), one
/// contiguous `L`-run at a time, adding `bias[c]` to every element of
/// channel `c` on the way.
fn permute_bcl_cbl(
    src: &[f32],
    (b, c, l): (usize, usize, usize),
    invert: bool,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(b * c * l);
    let (outer, inner) = if invert { (b, c) } else { (c, b) };
    for o in 0..outer {
        for i in 0..inner {
            let (bi, ci) = if invert { (o, i) } else { (i, o) };
            let from = if invert {
                ci * (b * l) + bi * l
            } else {
                (bi * c + ci) * l
            };
            let run = &src[from..][..l];
            match bias {
                Some(bias) => out.extend(run.iter().map(|&v| v + bias[ci])),
                None => out.extend_from_slice(run),
            }
        }
    }
    out
}

/// Convolution forward: `input [B,Cin,H,W] ⋆ weight [Cout,Cin,kh,kw]
/// (+ bias [Cout]) → [B,Cout,Ho,Wo]`.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if the kernel exceeds the
/// padded input.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    let d = ConvDims::new(input.shape().dims(), weight.shape().dims(), spec);
    if let Some(bias) = bias {
        assert_eq!(bias.numel(), d.cout, "bias length vs out channels");
    }
    let cols = im2col(input, &d);
    let wmat = weight.reshape([d.cout, d.k()]);
    let out_mat = matmul(&wmat, &cols); // [Cout, B·L]
    record_op(OpKind::Conv, 0.0, out_mat.byte_size() as f64);
    let data = permute_bcl_cbl(
        out_mat.data(),
        (d.b, d.cout, d.l()),
        true,
        bias.map(Tensor::data),
    );
    Tensor::from_vec(data, [d.b, d.cout, d.ho, d.wo])
}

/// The output gradient of one convolution, permuted once to the `[Cout, B·L]`
/// matrix that both backward products read: a graph that needs the input
/// and the weight gradient builds one of these and asks it for both.
#[derive(Debug)]
pub struct Conv2dGrad {
    d: ConvDims,
    /// `grad_output` as `[Cout, B·L]`, under [`Category::Workspace`].
    ///
    /// [`Category::Workspace`]: skipper_memprof::Category::Workspace
    grad_mat: Tensor,
}

impl Conv2dGrad {
    /// Permute `grad_output [B,Cout,Ho,Wo]` of the convolution of an input
    /// of `input_shape` with a weight of `weight_shape`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches, or if `grad_output`'s shape is
    /// not the forward output's.
    pub fn new(
        grad_output: &Tensor,
        input_shape: &[usize],
        weight_shape: &[usize],
        spec: Conv2dSpec,
    ) -> Conv2dGrad {
        let d = ConvDims::new(input_shape, weight_shape, spec);
        assert_eq!(
            grad_output.shape().dims(),
            &[d.b, d.cout, d.ho, d.wo],
            "grad_output shape mismatch"
        );
        let _ws = CategoryGuard::new(Category::Workspace);
        let grad_mat = Tensor::from_vec(
            permute_bcl_cbl(grad_output.data(), (d.b, d.cout, d.l()), false, None),
            [d.cout, d.b * d.l()],
        );
        Conv2dGrad { d, grad_mat }
    }

    /// The gradient with respect to the input (booked, like the product it
    /// is scattered from, under [`Category::Workspace`]).
    ///
    /// [`Category::Workspace`]: skipper_memprof::Category::Workspace
    pub fn input(&self, weight: &Tensor) -> Tensor {
        let d = &self.d;
        let _ws = CategoryGuard::new(Category::Workspace);
        let wmat = weight.reshape([d.cout, d.k()]);
        let col_grad = matmul_tn(&wmat, &self.grad_mat); // [K, B·L]
        col2im(&col_grad, d)
    }

    /// `(grad_weight, grad_bias)`; `grad_bias` is the per-channel sum of
    /// `grad_output`, each `L`-run summed on its own and added in batch
    /// order.
    pub fn weight(&self, input: &Tensor) -> (Tensor, Tensor) {
        let d = &self.d;
        assert_eq!(
            input.shape().dims(),
            &[d.b, d.cin, d.h, d.w],
            "input shape mismatch"
        );
        let rows = im2row(input, d);
        let grad_w = matmul(&self.grad_mat, &rows).reshape([d.cout, d.cin, d.kh, d.kw]);
        let go = self.grad_mat.data();
        record_op(OpKind::Reduce, go.len() as f64, (go.len() * 4) as f64);
        let mut grad_b = Tensor::zeros([d.cout]);
        let (l, bl) = (d.l(), d.b * d.l());
        if bl > 0 {
            for (g, channel) in grad_b.data_mut().iter_mut().zip(go.chunks_exact(bl)) {
                for run in channel.chunks_exact(l) {
                    *g += run.iter().sum::<f32>();
                }
            }
        }
        (grad_w, grad_b)
    }
}

/// Gradient of the convolution with respect to its input.
///
/// `grad_output` has the forward output's shape `[B,Cout,Ho,Wo]`.
///
/// # Panics
///
/// Panics if `grad_output`'s shape is inconsistent with
/// `input_shape`/`weight`/`spec`.
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    input_shape: &[usize],
    weight: &Tensor,
    spec: Conv2dSpec,
) -> Tensor {
    Conv2dGrad::new(grad_output, input_shape, weight.shape().dims(), spec).input(weight)
}

/// Gradients of the convolution with respect to weight and bias.
///
/// Returns `(grad_weight, grad_bias)`; `grad_bias` is the per-channel sum
/// of `grad_output`.
pub fn conv2d_backward_weight(
    grad_output: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    spec: Conv2dSpec,
) -> (Tensor, Tensor) {
    Conv2dGrad::new(grad_output, input.shape().dims(), weight_shape, spec).weight(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference::{self, mixed, same_bits};
    use crate::random::XorShiftRng;
    use proptest::prelude::*;
    use skipper_memprof as mp;

    /// The lowering this crate used before [`ConvDims::for_each_run`]:
    /// every `(kernel offset, output position)` pair tests its own `ih`/`iw`.
    fn im2col_reference(input: &Tensor, d: &ConvDims) -> Tensor {
        let (l, bl) = (d.l(), d.b * d.l());
        let mut cols = Tensor::zeros([d.k(), bl]);
        let src = input.data();
        let dst = cols.data_mut();
        let (stride, pad) = (d.spec.stride, d.spec.padding);
        for c in 0..d.cin {
            for ki in 0..d.kh {
                for kj in 0..d.kw {
                    let row = (c * d.kh + ki) * d.kw + kj;
                    let dst_row = &mut dst[row * bl..(row + 1) * bl];
                    for b in 0..d.b {
                        let src_plane = &src[(b * d.cin + c) * d.h * d.w..];
                        for oh in 0..d.ho {
                            let ih = (oh * stride + ki) as isize - pad as isize;
                            if ih < 0 || ih >= d.h as isize {
                                continue; // stays zero
                            }
                            let src_row = &src_plane[ih as usize * d.w..];
                            let out_base = b * l + oh * d.wo;
                            for ow in 0..d.wo {
                                let iw = (ow * stride + kj) as isize - pad as isize;
                                if iw < 0 || iw >= d.w as isize {
                                    continue;
                                }
                                dst_row[out_base + ow] = src_row[iw as usize];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// The scatter-add that went with it.
    fn col2im_reference(cols: &Tensor, d: &ConvDims) -> Tensor {
        let (l, bl) = (d.l(), d.b * d.l());
        let mut grad_input = Tensor::zeros([d.b, d.cin, d.h, d.w]);
        let src = cols.data();
        let dst = grad_input.data_mut();
        let (stride, pad) = (d.spec.stride, d.spec.padding);
        for c in 0..d.cin {
            for ki in 0..d.kh {
                for kj in 0..d.kw {
                    let row = (c * d.kh + ki) * d.kw + kj;
                    let src_row = &src[row * bl..(row + 1) * bl];
                    for b in 0..d.b {
                        let dst_base = (b * d.cin + c) * d.h * d.w;
                        for oh in 0..d.ho {
                            let ih = (oh * stride + ki) as isize - pad as isize;
                            if ih < 0 || ih >= d.h as isize {
                                continue;
                            }
                            let src_base = b * l + oh * d.wo;
                            for ow in 0..d.wo {
                                let iw = (ow * stride + kj) as isize - pad as isize;
                                if iw < 0 || iw >= d.w as isize {
                                    continue;
                                }
                                dst[dst_base + ih as usize * d.w + iw as usize] +=
                                    src_row[src_base + ow];
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    /// The permute this crate used before runs were copied whole: one
    /// index pair per element, the bias added in a second pass.
    fn permute_reference(src: &[f32], b: usize, c: usize, l: usize, invert: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; b * c * l];
        for bi in 0..b {
            for ci in 0..c {
                for li in 0..l {
                    let bcl = (bi * c + ci) * l + li;
                    let cbl = ci * (b * l) + bi * l + li;
                    if invert {
                        out[bcl] = src[cbl];
                    } else {
                        out[cbl] = src[bcl];
                    }
                }
            }
        }
        out
    }

    /// One convolution geometry with an input side length per axis.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        b: usize,
        cin: usize,
        cout: usize,
        h: usize,
        w: usize,
        k: usize,
        spec: Conv2dSpec,
    }

    /// Runs the three public kernels on [`mixed`] operands and compares every
    /// output, bit for bit, with the same product taken over the reference
    /// lowerings (and, for the weight gradient, the dot-product GEMM).
    fn check_against_reference(case: Case, seed: u64) -> Result<(), String> {
        let Case {
            b,
            cin,
            cout,
            h,
            w,
            k,
            spec,
        } = case;
        let mut rng = XorShiftRng::new(seed);
        let input = mixed([b, cin, h, w], &mut rng);
        let weight = mixed([cout, cin, k, k], &mut rng);
        let bias = mixed([cout], &mut rng);
        let d = ConvDims::new(input.shape().dims(), weight.shape().dims(), spec);
        let go = mixed([b, cout, d.ho, d.wo], &mut rng);
        let wmat = weight.reshape([cout, d.k()]);
        let cols = im2col_reference(&input, &d);
        let grad_mat = Tensor::from_vec(
            permute_reference(go.data(), b, cout, d.l(), false),
            [cout, b * d.l()],
        );

        let mut want = permute_reference(matmul(&wmat, &cols).data(), b, cout, d.l(), true);
        for (i, v) in want.iter_mut().enumerate() {
            *v += bias.data()[i / d.l() % cout];
        }
        let want = Tensor::from_vec(want, [b, cout, d.ho, d.wo]);
        same_bits("conv2d", &conv2d(&input, &weight, Some(&bias), spec), &want)?;

        let want = col2im_reference(&matmul_tn(&wmat, &grad_mat), &d);
        let got = conv2d_backward_input(&go, input.shape().dims(), &weight, spec);
        same_bits("conv2d_backward_input", &got, &want)?;

        let want = reference::matmul_nt(&grad_mat, &cols).reshape(weight.shape().clone());
        let (gw, gb) = conv2d_backward_weight(&go, &input, weight.shape().dims(), spec);
        same_bits("grad_weight", &gw, &want)?;
        let mut want = Tensor::zeros([cout]);
        for (i, chunk) in go.data().chunks(d.l()).enumerate() {
            want.data_mut()[i % cout] += chunk.iter().sum::<f32>();
        }
        same_bits("grad_bias", &gb, &want)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn kernels_match_the_reference_lowerings_bit_for_bit(
            b in 1usize..5, cin in 1usize..6, cout in 1usize..6,
            h in 1usize..10, w in 1usize..10,
            k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
            stride in 1usize..4, padding in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(h != w && h.min(w) + 2 * padding >= k);
            let case = Case { b, cin, cout, h, w, k, spec: Conv2dSpec { stride, padding } };
            let checked = check_against_reference(case, seed);
            prop_assert!(checked.is_ok(), "{case:?} seed {seed}: {checked:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Each lowering equals its reference bit for bit on its own: the
        /// column matrix, the row matrix (its transpose) and the scatter-add.
        #[test]
        fn lowerings_match_the_reference_bit_for_bit(
            b in 3usize..5, cin in 1usize..4, h in 1usize..10, w in 1usize..10,
            k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
            stride in 1usize..3, padding in 0usize..3, seed in 0u64..u64::MAX,
        ) {
            prop_assume!(h != w && h.min(w) + 2 * padding >= k);
            let spec = Conv2dSpec { stride, padding };
            let d = ConvDims::new(&[b, cin, h, w], &[1, cin, k, k], spec);
            let mut rng = XorShiftRng::new(seed);
            let input = mixed([b, cin, h, w], &mut rng);
            let cols = im2col_reference(&input, &d);
            let at = format!("{spec:?} k {k} [{b}x{cin}x{h}x{w}] seed {seed}");
            let checked = same_bits("im2col", &im2col(&input, &d), &cols);
            prop_assert!(checked.is_ok(), "{at}: {checked:?}");
            let checked = same_bits("im2row", &im2row(&input, &d), &reference::transposed(&cols));
            prop_assert!(checked.is_ok(), "{at}: {checked:?}");
            let col_grad = mixed([d.k(), b * d.l()], &mut rng);
            let checked = same_bits("col2im", &col2im(&col_grad, &d), &col2im_reference(&col_grad, &d));
            prop_assert!(checked.is_ok(), "{at}: {checked:?}");
        }

        /// The permute equals the per-element one in both directions, and
        /// the forward's folded bias add equals a second pass.
        #[test]
        fn permute_matches_the_reference_bit_for_bit(
            b in 1usize..5, c in 1usize..6, l in 0usize..20, seed in 0u64..u64::MAX,
        ) {
            let mut rng = XorShiftRng::new(seed);
            let src = mixed([b * c * l], &mut rng);
            let bias = mixed([c], &mut rng);
            for invert in [false, true] {
                let got = Tensor::from_vec(permute_bcl_cbl(src.data(), (b, c, l), invert, None), [b * c * l]);
                let want = Tensor::from_vec(permute_reference(src.data(), b, c, l, invert), [b * c * l]);
                let checked = same_bits("permute", &got, &want);
                prop_assert!(checked.is_ok(), "invert {invert} [{b}x{c}x{l}]: {checked:?}");
            }
            let got = permute_bcl_cbl(src.data(), (b, c, l), true, Some(bias.data()));
            let mut want = permute_reference(src.data(), b, c, l, true);
            for (i, v) in want.iter_mut().enumerate() {
                *v += bias.data()[i / l % c];
            }
            let checked = same_bits("permute + bias", &Tensor::from_vec(got, [b * c * l]), &Tensor::from_vec(want, [b * c * l]));
            prop_assert!(checked.is_ok(), "[{b}x{c}x{l}]: {checked:?}");
        }
    }

    /// Geometries the random draw above may miss.
    #[test]
    fn edge_geometries_match_the_reference_bit_for_bit() {
        let spec = |stride, padding| Conv2dSpec { stride, padding };
        #[rustfmt::skip]
        let cases = [
            // A 5x5 kernel on a 2x1 input: fits only thanks to the padding,
            // and some kernel offsets see nothing but padding.
            Case { b: 2, cin: 2, cout: 3, h: 2, w: 1, k: 5, spec: spec(1, 2) },
            Case { b: 1, cin: 1, cout: 1, h: 1, w: 3, k: 5, spec: spec(3, 2) },
            // The ResNet shortcut projection: 1x1, stride 2, no padding.
            Case { b: 2, cin: 3, cout: 4, h: 8, w: 6, k: 1, spec: spec(2, 0) },
            Case { b: 2, cin: 3, cout: 4, h: 7, w: 5, k: 1, spec: spec(2, 0) },
            // The ResNet down-sampling 3x3, and a stride larger than the kernel reach.
            Case { b: 2, cin: 2, cout: 2, h: 9, w: 8, k: 3, spec: spec(2, 1) },
            Case { b: 1, cin: 2, cout: 2, h: 9, w: 4, k: 3, spec: spec(3, 0) },
        ];
        for (i, case) in cases.into_iter().enumerate() {
            check_against_reference(case, 40 + i as u64)
                .unwrap_or_else(|e| panic!("{case:?}: {e}"));
        }
    }

    /// `*_peak_bytes` have a 2 % bound and the smallest is 1.4 MB: a second
    /// copy of the lowered matrix would fail a PR. The weight gradient's
    /// workspace is one lowered input plus the permuted output gradient, and
    /// the device model sees the same three ops as with `im2col`.
    #[test]
    fn backward_weight_workspace_and_op_log_are_exact() {
        mp::reset_all();
        let (b, cin, cout, hw, k) = (2, 3, 4, 6, 3);
        let spec = Conv2dSpec::padded(1);
        let input = Tensor::ones([b, cin, hw, hw]);
        let go = Tensor::ones([b, cout, hw, hw]);
        let (kk, bl) = (cin * k * k, b * hw * hw);
        let _step = mp::CategoryGuard::new(mp::Category::Activations);
        mp::reset_peaks();
        mp::take_op_log();
        let _ = conv2d_backward_weight(&go, &input, &[cout, cin, k, k], spec);
        let log = mp::take_op_log();
        let snap = mp::snapshot();
        assert_eq!(
            snap.peak(mp::Category::Workspace),
            ((kk * bl + cout * bl) * 4) as u64
        );
        assert_eq!(snap.live(mp::Category::Workspace), 0);
        assert_eq!(log.len(), 3, "lowering, GEMM, bias reduction");
        assert_eq!(log.total_flops(), (2 * cout * kk * bl + go.numel()) as f64);
        let gemm_bytes = 4 * (cout * bl + bl * kk + cout * kk);
        assert_eq!(
            log.total_bytes(),
            (kk * bl * 4 + gemm_bytes) as f64 + go.byte_size() as f64
        );
    }

    /// An empty batch or no output channels: every gradient is `+0.0`,
    /// with the right shape.
    #[test]
    fn empty_batches_and_channels_give_zero_gradients() {
        let spec = Conv2dSpec::padded(1);
        for (b, cout) in [(0, 3), (2, 0)] {
            let input = Tensor::ones([b, 2, 4, 5]);
            let weight = Tensor::ones([cout, 2, 3, 3]);
            let go = Tensor::ones([b, cout, 4, 5]);
            let (gw, gb) = conv2d_backward_weight(&go, &input, weight.shape().dims(), spec);
            let gi = conv2d_backward_input(&go, input.shape().dims(), &weight, spec);
            assert_eq!(gi.shape(), input.shape());
            for t in [&gw, &gb, &gi] {
                assert!(t.data().iter().all(|v| v.to_bits() == 0), "{t:?}");
            }
            let out = conv2d(&input, &weight, Some(&Tensor::ones([cout])), spec);
            assert_eq!(out.shape(), go.shape());
        }
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn zero_stride_is_rejected_by_name() {
        Conv2dSpec {
            stride: 0,
            padding: 1,
        }
        .out_dim(8, 3);
    }

    #[test]
    #[should_panic(expected = "expected rank-4 shape, got [2x3x4]")]
    fn rank_mismatch_keeps_its_message() {
        conv2d_backward_input(
            &Tensor::zeros([1, 1, 1, 1]),
            &[2, 3, 4],
            &Tensor::zeros([1, 1, 1, 1]),
            Conv2dSpec::default(),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d channels: input [1x2x4x4] vs weight [3x5x3x3]")]
    fn channel_mismatch_keeps_its_message() {
        conv2d_backward_weight(
            &Tensor::zeros([1, 3, 2, 2]),
            &Tensor::zeros([1, 2, 4, 4]),
            &[3, 5, 3, 3],
            Conv2dSpec::default(),
        );
    }

    /// Direct (quadruple-loop) reference convolution.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let d = ConvDims::new(input.shape().dims(), weight.shape().dims(), spec);
        let mut out = Tensor::zeros([d.b, d.cout, d.ho, d.wo]);
        for b in 0..d.b {
            for co in 0..d.cout {
                for oh in 0..d.ho {
                    for ow in 0..d.wo {
                        let mut acc = bias.map_or(0.0, |t| t.data()[co]);
                        for ci in 0..d.cin {
                            for ki in 0..d.kh {
                                for kj in 0..d.kw {
                                    let ih =
                                        (oh * spec.stride + ki) as isize - spec.padding as isize;
                                    let iw =
                                        (ow * spec.stride + kj) as isize - spec.padding as isize;
                                    if ih < 0 || iw < 0 || ih >= d.h as isize || iw >= d.w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[b, ci, ih as usize, iw as usize])
                                        * weight.at(&[co, ci, ki, kj]);
                                }
                            }
                        }
                        let idx = ((b * d.cout + co) * d.ho + oh) * d.wo + ow;
                        out.data_mut()[idx] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_dim_arithmetic() {
        let s = Conv2dSpec::padded(1);
        assert_eq!(s.out_dim(8, 3), 8);
        let s2 = Conv2dSpec {
            stride: 2,
            padding: 0,
        };
        assert_eq!(s2.out_dim(8, 2), 4);
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = XorShiftRng::new(2);
        for &(spec, hw) in &[
            (Conv2dSpec::padded(1), 6),
            (
                Conv2dSpec {
                    stride: 2,
                    padding: 1,
                },
                7,
            ),
            (Conv2dSpec::default(), 5),
        ] {
            let input = Tensor::randn([2, 3, hw, hw], &mut rng);
            let weight = Tensor::randn([4, 3, 3, 3], &mut rng);
            let bias = Tensor::randn([4], &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), spec);
            let slow = naive_conv(&input, &weight, Some(&bias), spec);
            assert!(fast.allclose(&slow, 1e-4), "spec {spec:?}");
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut rng = XorShiftRng::new(5);
        let spec = Conv2dSpec::padded(1);
        let input = Tensor::randn([1, 2, 4, 4], &mut rng);
        let weight = Tensor::randn([3, 2, 3, 3], &mut rng);
        let go = Tensor::randn([1, 3, 4, 4], &mut rng);
        let gi = conv2d_backward_input(&go, input.shape().dims(), &weight, spec);

        let eps = 1e-2f32;
        for probe in [0usize, 7, 13, 31] {
            let mut plus = input.deep_clone();
            plus.data_mut()[probe] += eps;
            let mut minus = input.deep_clone();
            minus.data_mut()[probe] -= eps;
            let f = |x: &Tensor| -> f64 {
                conv2d(x, &weight, None, spec)
                    .data()
                    .iter()
                    .zip(go.data())
                    .map(|(&o, &g)| (o * g) as f64)
                    .sum()
            };
            let num = ((f(&plus) - f(&minus)) / (2.0 * eps as f64)) as f32;
            let ana = gi.data()[probe];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "elem {probe}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = XorShiftRng::new(6);
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
        };
        let input = Tensor::randn([2, 2, 5, 5], &mut rng);
        let weight = Tensor::randn([2, 2, 3, 3], &mut rng);
        let out = conv2d(&input, &weight, None, spec);
        let go = Tensor::randn(out.shape().dims(), &mut rng);
        let (gw, gb) = conv2d_backward_weight(&go, &input, weight.shape().dims(), spec);

        let eps = 1e-2f32;
        for probe in [0usize, 5, 17, 35] {
            let mut plus = weight.deep_clone();
            plus.data_mut()[probe] += eps;
            let mut minus = weight.deep_clone();
            minus.data_mut()[probe] -= eps;
            let f = |w: &Tensor| -> f64 {
                conv2d(&input, w, None, spec)
                    .data()
                    .iter()
                    .zip(go.data())
                    .map(|(&o, &g)| (o * g) as f64)
                    .sum()
            };
            let num = ((f(&plus) - f(&minus)) / (2.0 * eps as f64)) as f32;
            let ana = gw.data()[probe];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "elem {probe}: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient is the channel-wise sum of grad_output.
        let mut expect = vec![0.0f32; 2];
        let l = out.numel() / (2 * 2);
        for b in 0..2 {
            for (c, e) in expect.iter_mut().enumerate() {
                let base = (b * 2 + c) * l;
                *e += go.data()[base..base + l].iter().sum::<f32>();
            }
        }
        assert!(gb.allclose(&Tensor::from_vec(expect, [2]), 1e-4));
    }

    #[test]
    fn workspace_is_booked_under_workspace_category() {
        use skipper_memprof as mp;
        mp::reset_all();
        let input = Tensor::ones([1, 1, 4, 4]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        mp::reset_peaks();
        let _ = conv2d(&input, &weight, None, Conv2dSpec::default());
        assert!(mp::snapshot().peak(mp::Category::Workspace) > 0);
    }
}
