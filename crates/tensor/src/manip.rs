//! Data-movement operations: transpose, concatenation, row slicing.
//!
//! The public functions are not needed by the training algorithms
//! themselves, but they round out the tensor API for downstream users
//! building their own models and pre-/post-processing. The tiled copy
//! behind [`transpose2d`] is also what [`matmul_nt`](crate::matmul_nt)
//! writes its `Bᵀ` scratch with.

use crate::tensor::Tensor;
use skipper_memprof::{record_op, OpKind};

/// Transpose a rank-2 tensor.
///
/// # Panics
///
/// Panics if the rank is not 2.
pub fn transpose2d(t: &Tensor) -> Tensor {
    let (rows, cols) = t.shape().as_2d();
    record_op(OpKind::Copy, 0.0, 2.0 * t.byte_size() as f64);
    let mut out = Tensor::zeros([cols, rows]);
    transpose_into(t.data(), rows, cols, out.data_mut());
    out
}

/// Write the transpose of row-major `src[rows, cols]` to `dst[cols, rows]`,
/// one `TILE × TILE` block at a time so that neither side strides through
/// more cache lines than a block holds. Records no op: callers account for
/// the copy themselves.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const TILE: usize = 16;
    assert_eq!(src.len(), rows * cols, "transpose source length");
    assert_eq!(dst.len(), rows * cols, "transpose destination length");
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            for c in c0..(c0 + TILE).min(cols) {
                let dst_run = &mut dst[c * rows + r0..c * rows + r1];
                for (d, r) in dst_run.iter_mut().zip(r0..r1) {
                    *d = src[r * cols + c];
                }
            }
        }
    }
}

/// Concatenate tensors along axis 0. All trailing dimensions must agree.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes are incompatible.
pub fn concat0(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of nothing");
    let first = parts[0].shape().dims();
    assert!(!first.is_empty(), "concat needs rank ≥ 1");
    let tail = &first[1..];
    let mut rows = 0usize;
    for p in parts {
        let dims = p.shape().dims();
        assert_eq!(&dims[1..], tail, "trailing dimensions must agree");
        rows += dims[0];
    }
    let total: usize = rows * tail.iter().product::<usize>().max(1);
    record_op(OpKind::Copy, 0.0, (total * 8) as f64);
    let mut data = Vec::with_capacity(total);
    for p in parts {
        data.extend_from_slice(p.data());
    }
    let mut dims = vec![rows];
    dims.extend_from_slice(tail);
    Tensor::from_vec(data, dims)
}

/// Copy rows `range` of the leading axis into a new tensor.
///
/// # Panics
///
/// Panics if the range exceeds the leading dimension.
pub fn slice0(t: &Tensor, range: std::ops::Range<usize>) -> Tensor {
    let dims = t.shape().dims();
    assert!(!dims.is_empty(), "slice needs rank ≥ 1");
    assert!(
        range.end <= dims[0] && range.start <= range.end,
        "range {range:?} out of bounds for leading dim {}",
        dims[0]
    );
    let stride: usize = dims[1..].iter().product::<usize>().max(1);
    record_op(OpKind::Copy, 0.0, ((range.len() * stride) * 8) as f64);
    let data = t.data()[range.start * stride..range.end * stride].to_vec();
    let mut out_dims = vec![range.len()];
    out_dims.extend_from_slice(&dims[1..]);
    Tensor::from_vec(data, out_dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::XorShiftRng;

    #[test]
    fn transpose_known_and_involutive() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = transpose2d(&t);
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose2d(&tt), t);
    }

    #[test]
    fn transpose_consistent_with_matmul_variants() {
        use crate::matmul::{matmul, matmul_tn};
        let mut rng = XorShiftRng::new(2);
        let a = Tensor::randn([4, 3], &mut rng);
        let b = Tensor::randn([4, 5], &mut rng);
        // aᵀ·b computed two ways.
        let via_tn = matmul_tn(&a, &b);
        let via_transpose = matmul(&transpose2d(&a), &b);
        assert!(via_tn.allclose(&via_transpose, 1e-4));
    }

    #[test]
    fn concat_stacks_batches() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], [2, 2]);
        let c = concat0(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "trailing dimensions")]
    fn concat_checks_shapes() {
        let a = Tensor::zeros([1, 2]);
        let b = Tensor::zeros([1, 3]);
        concat0(&[&a, &b]);
    }

    #[test]
    fn slice_extracts_rows() {
        let t = Tensor::from_fn([4, 2], |i| i as f32);
        let s = slice0(&t, 1..3);
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(slice0(&t, 0..0).numel(), 0);
    }

    #[test]
    fn slice_concat_roundtrip() {
        let mut rng = XorShiftRng::new(3);
        let t = Tensor::randn([5, 3, 2], &mut rng);
        let a = slice0(&t, 0..2);
        let b = slice0(&t, 2..5);
        assert_eq!(concat0(&[&a, &b]), t);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_checks_bounds() {
        slice0(&Tensor::zeros([2, 2]), 1..4);
    }
}
