//! [`InferSession`]: the public forward-only inference API.
//!
//! Training goes through [`TrainSession`](crate::TrainSession), which
//! carries an optimizer, autodiff tapes, SAM history, sentinels and a
//! worker pool — none of which a serving path should pay for. An
//! `InferSession` owns nothing but the network: [`predict`] runs the
//! gradient-free [`step_infer`](skipper_snn::SpikingNetwork::step_infer)
//! loop and time-averages the logits, exactly the arithmetic
//! [`TrainSession::eval_batch`](crate::TrainSession::eval_batch) performs
//! (that method is now implemented on top of this one, and a regression
//! test holds the two paths bit-identical).
//!
//! # Inference-time skipping
//!
//! The paper's lever — skip low-activity timesteps under a per-segment
//! Spike-Sum-Threshold (Eq. 5) — transfers from the backward
//! recomputation to the forward serving path: with [`InferSkip`]
//! configured, the session measures the input spike activity `s_t` of
//! each timestep (inputs are spike trains, so the sum is the batch's
//! spike count at `t`), forms the SST as the `p`-th percentile of the
//! batch's record via the same [`percentile`] the trainer uses, and
//! **early-exits** every timestep below it — `step_infer` is never
//! called, the membrane state simply persists. The logits are averaged
//! over the evaluated steps only. This trades a small accuracy delta for
//! latency; serve's `tests/gateway.rs` counts the skips, nothing times them.
//!
//! ```
//! use skipper_core::InferSession;
//! use skipper_snn::{custom_net, Encoder, ModelConfig, PoissonEncoder};
//! use skipper_tensor::{Tensor, XorShiftRng};
//!
//! let net = custom_net(&ModelConfig {
//!     input_hw: 8,
//!     width_mult: 0.25,
//!     ..ModelConfig::default()
//! });
//! let session = InferSession::new(net);
//! let mut rng = XorShiftRng::new(1);
//! let frames = Tensor::rand([2, 3, 8, 8], &mut rng);
//! let spikes = PoissonEncoder::default().encode(&frames, 8, &mut rng);
//! let prediction = session.predict(&spikes).expect("well-formed batch");
//! assert_eq!(prediction.classes.len(), 2);
//! assert_eq!(prediction.evaluated_steps, 8);
//! ```
//!
//! [`predict`]: InferSession::predict
//! [`percentile`]: crate::sam::percentile

use crate::error::SkipperError;
use crate::sam::percentile;
use crate::stats::EvalStats;
use skipper_snn::{softmax_cross_entropy, SpikingNetwork, StepCtx};
use skipper_tensor::Tensor;

/// Inference-time skipping knobs; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferSkip {
    /// Skip timesteps whose input spike activity falls below this
    /// percentile of the batch's per-timestep record (the SST, Eq. 5).
    /// `0` disables skipping.
    pub percentile: f32,
    /// Never evaluate fewer than this many timesteps (the readout needs
    /// at least one logit contribution). Clamped to ≥ 1.
    pub min_steps: usize,
}

impl Default for InferSkip {
    fn default() -> InferSkip {
        InferSkip {
            percentile: 0.0,
            min_steps: 1,
        }
    }
}

/// The outcome of one [`InferSession::predict`] call.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Time-averaged logits, `[B, classes]`.
    pub logits: Tensor,
    /// Argmax class per sample.
    pub classes: Vec<usize>,
    /// Timesteps that ran through the network.
    pub evaluated_steps: usize,
    /// Timesteps early-exited by the skipping policy.
    pub skipped_steps: usize,
}

/// A forward-only session over one network: no tape, no optimizer state,
/// no worker pool. `Send + Sync`, so a gateway can share one behind an
/// `Arc` across its batcher and reload threads.
#[derive(Debug)]
pub struct InferSession {
    net: SpikingNetwork,
    skip: Option<InferSkip>,
}

impl InferSession {
    /// Wrap `net` for plain inference (no skipping).
    pub fn new(net: SpikingNetwork) -> InferSession {
        InferSession { net, skip: None }
    }

    /// Enable SAM-driven inference-time skipping. A percentile of `0`
    /// (or negative) keeps every step — [`percentile`] yields `-∞` — so
    /// the default config is exactly [`InferSession::new`].
    pub fn with_skip(mut self, skip: InferSkip) -> InferSession {
        self.skip = Some(skip);
        self
    }

    /// The wrapped network.
    pub fn net(&self) -> &SpikingNetwork {
        &self.net
    }

    /// Load `.skw` weights into the wrapped network (hot reload path).
    ///
    /// # Errors
    ///
    /// Propagates I/O, container and name/shape-mismatch errors from
    /// [`load_params`](skipper_snn::load_params).
    pub fn load_weights(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), SkipperError> {
        skipper_snn::load_params(self.net.params_mut(), path)?;
        Ok(())
    }

    /// Which timesteps to evaluate for this batch: `false` = run,
    /// `true` = skip. Pure function of the input record and the config,
    /// so every replica decides identically.
    fn skip_schedule(&self, inputs: &[Tensor]) -> Vec<bool> {
        let Some(cfg) = &self.skip else {
            return vec![false; inputs.len()];
        };
        if cfg.percentile <= 0.0 {
            return vec![false; inputs.len()];
        }
        // s_t: the batch's input spike count at timestep t (inputs are
        // spike trains; this is the SAM statistic available before the
        // forward pass runs).
        let sums: Vec<f64> = inputs.iter().map(Tensor::sum).collect();
        let sst = percentile(&sums, cfg.percentile);
        let mut skip: Vec<bool> = sums.iter().map(|&s| s < sst).collect();
        // Keep the busiest steps when the threshold would starve the
        // readout below min_steps.
        let min_steps = cfg.min_steps.clamp(1, inputs.len());
        let evaluated = skip.iter().filter(|&&s| !s).count();
        if evaluated < min_steps {
            let mut order: Vec<usize> = (0..inputs.len()).collect();
            order.sort_by(|&a, &b| {
                sums[b]
                    .partial_cmp(&sums[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &t in order.iter().take(min_steps) {
                skip[t] = false;
            }
        }
        skip
    }

    /// Run the batch `inputs` (one `[B, C, H, W]` spike tensor per
    /// timestep) and return time-averaged logits plus argmax classes.
    ///
    /// Without skipping configured this is bit-identical to the
    /// arithmetic of [`TrainSession::eval_batch`]: accumulate each
    /// step's logits, then scale by `1/steps`.
    ///
    /// # Errors
    ///
    /// [`SkipperError::Config`] when the batch is empty, a timestep's
    /// shape disagrees with the network's input shape, or timesteps
    /// disagree on the batch size.
    ///
    /// [`TrainSession::eval_batch`]: crate::TrainSession::eval_batch
    pub fn predict(&self, inputs: &[Tensor]) -> Result<Prediction, SkipperError> {
        let Some(first) = inputs.first() else {
            return Err(SkipperError::Config(
                "predict needs at least one timestep".into(),
            ));
        };
        let want = self.net.input_shape();
        for (t, input) in inputs.iter().enumerate() {
            let shape = input.shape().dims();
            if shape.len() != want.len() + 1 || &shape[1..] != want || shape[0] == 0 {
                return Err(SkipperError::Config(format!(
                    "timestep {t} has shape {shape:?}; expected [B>0, {want:?}]"
                )));
            }
            if shape[0] != first.shape()[0] {
                return Err(SkipperError::Config(format!(
                    "timestep {t} has batch {} but timestep 0 has {}",
                    shape[0],
                    first.shape()[0]
                )));
            }
        }
        let _no_op_log = skipper_memprof::pause_op_log(); // no serving thread drains an op log
        let batch = first.shape()[0];
        let schedule = self.skip_schedule(inputs);
        let mut state = self.net.init_state(batch);
        let mut logits: Option<Tensor> = None;
        let mut evaluated = 0usize;
        for (t, input) in inputs.iter().enumerate() {
            if schedule[t] {
                // Early exit: the membrane state persists unchanged, as
                // in the training-path skip (Section VI).
                continue;
            }
            evaluated += 1;
            let out = self.net.step_infer(input, &mut state, &StepCtx::eval(t));
            match logits.as_mut() {
                Some(l) => l.add_assign(&out.logits),
                None => logits = Some(out.logits),
            }
        }
        #[expect(clippy::expect_used, reason = "skip_schedule keeps at least one step")]
        let mut logits = logits.expect("at least one evaluated step");
        logits.scale_assign(1.0 / evaluated as f32); // time-averaged readout
        let classes = logits.argmax_rows();
        Ok(Prediction {
            logits,
            classes,
            evaluated_steps: evaluated,
            skipped_steps: inputs.len() - evaluated,
        })
    }

    /// Predict and score against `labels`: the forward-only path behind
    /// [`TrainSession::eval_batch`].
    ///
    /// # Errors
    ///
    /// Everything [`predict`](InferSession::predict) rejects, plus a
    /// label-count mismatch.
    ///
    /// [`TrainSession::eval_batch`]: crate::TrainSession::eval_batch
    pub fn eval(&self, inputs: &[Tensor], labels: &[usize]) -> Result<EvalStats, SkipperError> {
        let prediction = self.predict(inputs)?;
        if prediction.classes.len() != labels.len() {
            return Err(SkipperError::Config(format!(
                "batch has {} samples but {} labels",
                prediction.classes.len(),
                labels.len()
            )));
        }
        let loss = softmax_cross_entropy(&prediction.logits, labels);
        Ok(EvalStats {
            loss: loss.loss,
            correct: loss.correct,
            total: labels.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_snn::{custom_net, Encoder, ModelConfig, PoissonEncoder};
    use skipper_tensor::XorShiftRng;

    fn net() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    }

    fn spikes(seed: u64, timesteps: usize) -> Vec<Tensor> {
        let mut rng = XorShiftRng::new(seed);
        let frames = Tensor::rand([4, 3, 8, 8], &mut rng);
        PoissonEncoder::default().encode(&frames, timesteps, &mut rng)
    }

    #[test]
    fn predict_returns_classes_and_full_horizon() {
        let session = InferSession::new(net());
        let p = session.predict(&spikes(1, 8)).unwrap();
        assert_eq!(p.logits.shape().dims(), &[4, 10]);
        assert_eq!(p.classes.len(), 4);
        assert!(p.classes.iter().all(|&c| c < 10));
        assert_eq!(p.evaluated_steps, 8);
        assert_eq!(p.skipped_steps, 0);
        // classes really are the argmax of the logits
        for (row, &class) in p.logits.data().chunks_exact(10).zip(&p.classes) {
            assert!(row.iter().all(|&v| v <= row[class]));
        }
    }

    #[test]
    fn predict_and_eval_break_ties_the_same_way() {
        // A silent input leaves every logit at 0.0: the served class and
        // the scored class must be the same one (the lowest index).
        let session = InferSession::new(net());
        let silent = vec![Tensor::zeros([1, 3, 8, 8]); 4];
        let p = session.predict(&silent).unwrap();
        assert!(p.logits.data().iter().all(|&v| v == 0.0));
        assert_eq!(p.classes, [0]);
        assert_eq!(session.eval(&silent, &[0]).unwrap().correct, 1);
    }

    #[test]
    fn malformed_batches_are_typed_errors() {
        let session = InferSession::new(net());
        assert!(matches!(session.predict(&[]), Err(SkipperError::Config(_))));
        // Wrong spatial shape.
        let bad = vec![Tensor::zeros([4, 3, 4, 4])];
        assert!(matches!(
            session.predict(&bad),
            Err(SkipperError::Config(_))
        ));
        // Batch-size disagreement across timesteps.
        let ragged = vec![Tensor::zeros([4, 3, 8, 8]), Tensor::zeros([2, 3, 8, 8])];
        assert!(matches!(
            session.predict(&ragged),
            Err(SkipperError::Config(_))
        ));
        // Mismatched label count.
        assert!(matches!(
            session.eval(&spikes(2, 4), &[0, 1]),
            Err(SkipperError::Config(_))
        ));
    }

    #[test]
    fn skipping_early_exits_low_activity_steps() {
        let inputs = spikes(3, 16);
        let plain = InferSession::new(net());
        let skipping = InferSession::new(net()).with_skip(InferSkip {
            percentile: 50.0,
            min_steps: 1,
        });
        let full = plain.predict(&inputs).unwrap();
        let fast = skipping.predict(&inputs).unwrap();
        assert_eq!(full.evaluated_steps, 16);
        assert!(fast.skipped_steps > 0, "p50 must drop steps");
        assert_eq!(fast.evaluated_steps + fast.skipped_steps, 16);
        // The skipped path still produces a usable readout.
        assert!(fast.logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn min_steps_floor_holds_even_at_p100() {
        let session = InferSession::new(net()).with_skip(InferSkip {
            percentile: 100.0,
            min_steps: 3,
        });
        let p = session.predict(&spikes(4, 8)).unwrap();
        assert!(p.evaluated_steps >= 3, "kept {}", p.evaluated_steps);
    }

    #[test]
    fn zero_percentile_is_bit_identical_to_plain() {
        let inputs = spikes(5, 8);
        let plain = InferSession::new(net()).predict(&inputs).unwrap();
        let zero = InferSession::new(net())
            .with_skip(InferSkip::default())
            .predict(&inputs)
            .unwrap();
        for (a, b) in plain.logits.data().iter().zip(zero.logits.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn weights_hot_load_changes_the_readout() {
        let dir = std::env::temp_dir().join(format!("skipper-infer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hot.skw");

        // Train a few steps so saved weights differ from fresh ones.
        let mut trained = crate::TrainSession::builder(net(), crate::Method::Bptt, 4)
            .optimizer(Box::new(skipper_snn::Sgd::new(0.5)))
            .workers(1)
            .build()
            .unwrap();
        let inputs = spikes(6, 4);
        for _ in 0..3 {
            trained.train_batch(&inputs, &[0, 1, 2, 3]);
        }
        skipper_snn::save_params(trained.net().params(), &path).unwrap();

        let mut session = InferSession::new(net());
        let before = session.predict(&inputs).unwrap();
        session.load_weights(&path).unwrap();
        let after = session.predict(&inputs).unwrap();
        assert_ne!(
            before.logits.data(),
            after.logits.data(),
            "loaded weights must change the logits"
        );
        // And they now match the trained network exactly.
        let reference = InferSession::new(trained.net().share())
            .predict(&inputs)
            .unwrap();
        for (a, b) in after.logits.data().iter().zip(reference.logits.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
