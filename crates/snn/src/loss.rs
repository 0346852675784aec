//! Softmax cross-entropy on time-accumulated readout logits.
//!
//! The readout integrator accumulates logit contributions over the `T`
//! timesteps; the loss is computed **once per iteration** on the
//! accumulated logits and its gradient `∂L/∂logits` is returned in closed
//! form. Because `logits = Σ_t logits_t`, the same gradient seeds every
//! timestep's contribution — which is precisely what lets checkpointed
//! segments be backpropagated independently (paper Fig. 5/6).

use skipper_memprof::{record_op, OpKind};
use skipper_tensor::Tensor;

/// Loss value, gradient and batch accuracy.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f64,
    /// `∂L/∂logits`, shape `[B, K]`, already divided by the batch size.
    pub dlogits: Tensor,
    /// Correctly classified samples in the batch.
    pub correct: usize,
}

/// Softmax cross-entropy of one batch shard, with the gradient scaled for
/// a possibly larger global batch.
#[derive(Debug, Clone)]
pub struct ShardLossOutput {
    /// Per-sample negative log-likelihoods, in row order.
    pub per_sample: Vec<f64>,
    /// `∂L/∂logits`, shape `[rows, K]`, divided by the *global* batch size.
    pub dlogits: Tensor,
    /// Correctly classified samples among these rows.
    pub correct: usize,
}

/// Mean softmax cross-entropy of `logits [B,K]` against integer `labels`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    let b = labels.len();
    let shard = softmax_cross_entropy_scaled(logits, labels, b);
    // Folding the per-sample values in row order reproduces the historical
    // `loss -= log_p` accumulation bit-for-bit.
    let loss: f64 = shard.per_sample.iter().sum();
    LossOutput {
        loss: loss / b as f64,
        dlogits: shard.dlogits,
        correct: shard.correct,
    }
}

/// Softmax cross-entropy of a batch *shard*: per-sample losses plus a
/// gradient already divided by `global_batch` (the denominator the
/// unsharded mean-loss gradient would use).
///
/// With `global_batch == labels.len()` this is exactly the unsharded
/// [`softmax_cross_entropy`] computation.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the row count, any label is out of
/// range, or `global_batch` is zero.
pub fn softmax_cross_entropy_scaled(
    logits: &Tensor,
    labels: &[usize],
    global_batch: usize,
) -> ShardLossOutput {
    let (b, k) = logits.shape().as_2d();
    assert_eq!(labels.len(), b, "one label per row");
    assert!(global_batch > 0, "global batch must be positive");
    let _span = skipper_obs::span!("loss", batch = b, classes = k);
    record_op(
        OpKind::Reduce,
        (3 * b * k) as f64,
        2.0 * logits.byte_size() as f64,
    );
    let mut dlogits = Tensor::zeros([b, k]);
    let mut per_sample = Vec::with_capacity(b);
    let predicted = logits.argmax_rows();
    let correct = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
    {
        let dl = dlogits.data_mut();
        for (r, &label) in labels.iter().enumerate() {
            assert!(label < k, "label {label} out of range for {k} classes");
            let row = &logits.data()[r * k..(r + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f64> = row.iter().map(|&x| ((x - max) as f64).exp()).collect();
            let denom: f64 = exps.iter().sum();
            let log_p = (exps[label] / denom).ln();
            per_sample.push(-log_p);
            for (c, &e) in exps.iter().enumerate() {
                let softmax = (e / denom) as f32;
                let one_hot = if c == label { 1.0 } else { 0.0 };
                dl[r * k + c] = (softmax - one_hot) / global_batch as f32;
            }
        }
    }
    ShardLossOutput {
        per_sample,
        dlogits,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_tensor::XorShiftRng;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros([2, 4]);
        let out = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((out.loss - (4.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0], [1, 3]);
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-3);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn gradient_rows_sum_to_zero_and_point_away_from_label() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5, -1.0, 0.0, 1.0], [2, 3]);
        let out = softmax_cross_entropy(&logits, &[1, 2]);
        let d = out.dlogits.data();
        for r in 0..2 {
            let row = &d[r * 3..(r + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!(sum.abs() < 1e-6, "softmax-grad rows sum to 0");
        }
        assert!(d[1] < 0.0, "label logit gradient is negative");
        assert!(d[0] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = XorShiftRng::new(60);
        let logits = Tensor::randn([3, 5], &mut rng);
        let labels = [4usize, 0, 2];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for probe in [0usize, 4, 7, 12, 14] {
            let mut plus = logits.deep_clone();
            plus.data_mut()[probe] += eps;
            let mut minus = logits.deep_clone();
            minus.data_mut()[probe] -= eps;
            let lp = softmax_cross_entropy(&plus, &labels).loss;
            let lm = softmax_cross_entropy(&minus, &labels).loss;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = out.dlogits.data()[probe];
            assert!((num - ana).abs() < 1e-3, "{num} vs {ana}");
        }
    }

    #[test]
    fn sharded_rows_reproduce_unsharded_loss_and_grad() {
        let mut rng = XorShiftRng::new(61);
        let logits = Tensor::randn([5, 3], &mut rng);
        let labels = [0usize, 2, 1, 1, 0];
        let full = softmax_cross_entropy(&logits, &labels);

        // Split into rows [0..2) and [2..5); fold shard per-sample losses
        // in global row order and compare bitwise.
        let top = Tensor::from_vec(logits.data()[..2 * 3].to_vec(), [2, 3]);
        let bot = Tensor::from_vec(logits.data()[2 * 3..].to_vec(), [3, 3]);
        let a = softmax_cross_entropy_scaled(&top, &labels[..2], 5);
        let b = softmax_cross_entropy_scaled(&bot, &labels[2..], 5);
        let loss: f64 = a.per_sample.iter().chain(&b.per_sample).sum::<f64>() / 5.0;
        assert_eq!(loss.to_bits(), full.loss.to_bits());
        assert_eq!(a.correct + b.correct, full.correct);
        let mut grad = a.dlogits.data().to_vec();
        grad.extend_from_slice(b.dlogits.data());
        assert_eq!(grad, full.dlogits.data());
    }

    #[test]
    fn numerically_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], [1, 2]);
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss.is_finite());
        assert!(out.dlogits.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_labels() {
        softmax_cross_entropy(&Tensor::zeros([1, 2]), &[5]);
    }
}
