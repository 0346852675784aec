//! Epoch-level training helper for the accuracy benches (Table I,
//! Figs. 8/9, Table II, Fig. 16).

use crate::measure::DataSource;
use skipper_core::{EpochStats, TrainSession};
use skipper_tensor::XorShiftRng;

/// Accuracy trajectory of a training run.
#[derive(Debug, Clone, Default)]
pub struct FitResult {
    /// Training accuracy per epoch.
    pub train_acc: Vec<f64>,
    /// Held-out accuracy per epoch.
    pub val_acc: Vec<f64>,
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Total wall time of the run, seconds.
    pub wall_s: f64,
    /// Total timesteps skipped across the run.
    pub skipped: usize,
}

impl FitResult {
    /// Final held-out accuracy.
    pub fn final_val_acc(&self) -> f64 {
        self.val_acc.last().copied().unwrap_or(0.0)
    }
}

/// Held-out accuracy of `session` on `data`.
pub fn evaluate(session: &TrainSession, data: &DataSource, batch: usize, seed: u64) -> f64 {
    let timesteps = session.timesteps();
    let mut rng = XorShiftRng::new(seed);
    let (mut correct, mut total) = (0usize, 0usize);
    for idx in data.epoch(batch, 0) {
        let (inputs, labels) = data.batch(&idx, timesteps, &mut rng);
        correct += session.eval_batch(&inputs, &labels).correct;
        total += labels.len();
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Train for `epochs` epochs, evaluating on `test` after each.
pub fn fit(
    session: &mut TrainSession,
    train: &DataSource,
    test: &DataSource,
    epochs: usize,
    batch: usize,
    seed: u64,
) -> FitResult {
    let timesteps = session.timesteps();
    let mut result = FitResult::default();
    for epoch in 0..epochs {
        let epoch_span = skipper_obs::span!("epoch", epoch = epoch, of = epochs);
        let mut rng = XorShiftRng::new(seed ^ ((epoch as u64 + 1) * 0x9E37));
        let mut stats = EpochStats::default();
        for idx in train.epoch(batch, seed.wrapping_add(epoch as u64)) {
            let (inputs, labels) = train.batch(&idx, timesteps, &mut rng);
            stats.absorb(&session.train_batch(&inputs, &labels), None);
        }
        result.train_acc.push(stats.accuracy());
        result.train_loss.push(stats.mean_loss());
        result.wall_s += stats.wall.as_secs_f64();
        result.skipped += stats.skipped_steps;
        {
            let _eval = skipper_obs::span!("evaluate", epoch = epoch);
            result.val_acc.push(evaluate(session, test, batch, 99));
        }
        drop(epoch_span);
        skipper_obs::instant!(
            skipper_obs::Level::Info,
            "epoch.done",
            epoch = epoch,
            train_acc = result.train_acc[epoch],
            val_acc = result.val_acc[epoch],
            mean_loss = result.train_loss[epoch],
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, WorkloadKind};
    use skipper_core::Method;
    use skipper_snn::Adam;

    #[test]
    fn fit_improves_over_random_on_custom_net() {
        let w = Workload::build(WorkloadKind::CustomNetNmnist);
        let chance = 1.0 / w.train.num_classes() as f64;
        let mut session = TrainSession::builder(
            w.net,
            Method::Skipper {
                checkpoints: 3,
                percentile: 40.0,
            },
            w.timesteps,
        )
        .optimizer(Box::new(Adam::new(2e-3)))
        .build()
        .expect("valid method");
        let r = fit(&mut session, &w.train, &w.test, 3, w.batch, 1);
        assert_eq!(r.train_acc.len(), 3);
        assert!(
            r.final_val_acc() > 1.5 * chance,
            "val acc {:.3} should beat chance {:.3}",
            r.final_val_acc(),
            chance
        );
        assert!(r.skipped > 0);
    }
}
