//! Measurement records: what the paper plots, per batch and per epoch.

use serde::{Deserialize, Serialize};
use skipper_memprof::{LatencyModel, MemorySnapshot, OpLog};
use std::time::Duration;

/// Everything measured during one training iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchStats {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Correct predictions (on the full-forward logits).
    pub correct: usize,
    /// Samples in the batch.
    pub batch_size: usize,
    /// Simulation horizon `T`.
    pub timesteps: usize,
    /// Timesteps whose backward pass actually ran (BPTT: `T`; Skipper:
    /// the recomputed subset).
    pub recomputed_steps: usize,
    /// Timesteps skipped by the SAM/SST mechanism.
    pub skipped_steps: usize,
    /// Divergences the sentinels recovered from on the way to this
    /// (successful) iteration — zero unless sentinels are enabled and a
    /// faulty attempt was retried.
    pub recoveries: u32,
    /// Wall-clock time of the iteration (real CPU execution).
    pub wall: Duration,
    /// Peak per-category tensor memory during the iteration. On a sharded
    /// run this merges the session thread with the per-worker peaks
    /// (elementwise maximum — a per-thread attribution, not a sum of
    /// concurrent residency).
    pub mem: MemorySnapshot,
    /// Per-worker peak snapshots of a sharded iteration, in worker order
    /// (empty on the unsharded path).
    pub worker_mem: Vec<MemorySnapshot>,
    /// Kernel log of the iteration (drives the GPU latency model).
    pub ops: OpLog,
}

impl BatchStats {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.batch_size == 0 {
            return 0.0;
        }
        self.correct as f64 / self.batch_size as f64
    }

    /// Modeled device time of this iteration under `model`.
    pub fn modeled_time_s(&self, model: &LatencyModel) -> f64 {
        model.time_s(&self.ops)
    }

    /// Peak tensor bytes (all categories, coincident peak).
    pub fn peak_bytes(&self) -> u64 {
        self.mem.total_peak()
    }
}

/// Result of evaluating one batch without gradients (see
/// [`TrainSession::eval_batch`](crate::runner::TrainSession::eval_batch)),
/// mirroring the shape of [`BatchStats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Mean cross-entropy loss over the batch.
    pub loss: f64,
    /// Correct predictions on the time-averaged logits.
    pub correct: usize,
    /// Samples evaluated.
    pub total: usize,
}

impl EvalStats {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct as f64 / self.total as f64
    }
}

/// Aggregate over the batches of one epoch (or any batch sequence).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochStats {
    /// Batches aggregated.
    pub batches: usize,
    /// Samples aggregated.
    pub samples: usize,
    /// Correct predictions.
    pub correct: usize,
    /// Sum of per-batch mean losses.
    loss_sum: f64,
    /// Total wall time.
    pub wall: Duration,
    /// Total modeled device time in seconds (filled by the caller when a
    /// latency model is in play).
    pub modeled_s: f64,
    /// Maximum per-iteration peak tensor bytes.
    pub peak_bytes: u64,
    /// Total timesteps skipped.
    pub skipped_steps: usize,
    /// Total timesteps recomputed.
    pub recomputed_steps: usize,
    /// Total kernel FLOPs.
    pub flops: f64,
}

impl EpochStats {
    /// Fold one batch into the aggregate, including its modeled time under
    /// `model` if one is given.
    pub fn absorb(&mut self, batch: &BatchStats, model: Option<&LatencyModel>) {
        self.batches += 1;
        self.samples += batch.batch_size;
        self.correct += batch.correct;
        self.loss_sum += batch.loss;
        self.wall += batch.wall;
        self.peak_bytes = self.peak_bytes.max(batch.peak_bytes());
        self.skipped_steps += batch.skipped_steps;
        self.recomputed_steps += batch.recomputed_steps;
        self.flops += batch.ops.total_flops();
        if let Some(m) = model {
            self.modeled_s += batch.modeled_time_s(m);
        }
    }

    /// Mean of the per-batch losses.
    pub fn mean_loss(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.loss_sum / self.batches as f64
        }
    }

    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.correct as f64 / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_memprof::{snapshot, DeviceModel};

    fn batch(correct: usize, size: usize, loss: f64) -> BatchStats {
        BatchStats {
            loss,
            correct,
            batch_size: size,
            timesteps: 10,
            recomputed_steps: 10,
            skipped_steps: 0,
            recoveries: 0,
            wall: Duration::from_millis(5),
            mem: snapshot(),
            worker_mem: Vec::new(),
            ops: OpLog::new(),
        }
    }

    #[test]
    fn accuracy_arithmetic() {
        assert_eq!(batch(3, 4, 0.1).accuracy(), 0.75);
        assert_eq!(batch(0, 0, 0.0).accuracy(), 0.0);
    }

    #[test]
    fn epoch_aggregation() {
        let mut e = EpochStats::default();
        e.absorb(&batch(2, 4, 1.0), None);
        e.absorb(&batch(4, 4, 0.5), None);
        assert_eq!(e.batches, 2);
        assert_eq!(e.samples, 8);
        assert_eq!(e.accuracy(), 0.75);
        assert!((e.mean_loss() - 0.75).abs() < 1e-12);
        assert_eq!(e.wall, Duration::from_millis(10));
    }

    #[test]
    fn modeled_time_accumulates_with_model() {
        let model = LatencyModel::new(DeviceModel::a100_80gb());
        let mut e = EpochStats::default();
        let mut b = batch(1, 1, 0.0);
        b.ops.push(skipper_memprof::OpRecord {
            kind: skipper_memprof::OpKind::MatMul,
            flops: 1e9,
            bytes: 1e6,
        });
        e.absorb(&b, Some(&model));
        assert!(e.modeled_s > 0.0);
        assert!(e.flops >= 1e9);
    }
}
