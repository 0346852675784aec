//! The tiled transpose that [`matmul_nt`](crate::matmul_nt) writes its
//! `Bᵀ` scratch with.

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

#[cfg(test)]
mod tests {
    use crate::matmul::reference::transposed;
    use crate::random::XorShiftRng;
    use crate::tensor::Tensor;

    #[test]
    fn transpose_known_and_involutive() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = transposed(&t);
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transposed(&tt), t);
        // Larger than one tile on both axes, with ragged edges.
        let mut rng = XorShiftRng::new(1);
        let big = Tensor::randn([37, 21], &mut rng);
        assert_eq!(transposed(&transposed(&big)), big);
    }

    #[test]
    fn transpose_consistent_with_matmul_variants() {
        use crate::matmul::{matmul, matmul_tn};
        let mut rng = XorShiftRng::new(2);
        let a = Tensor::randn([4, 3], &mut rng);
        let b = Tensor::randn([4, 5], &mut rng);
        // aᵀ·b computed two ways.
        let via_tn = matmul_tn(&a, &b);
        let via_transpose = matmul(&transposed(&a), &b);
        assert!(via_tn.allclose(&via_transpose, 1e-4));
    }
}
