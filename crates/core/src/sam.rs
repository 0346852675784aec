//! Spike Activity Monitoring (SAM) and the Spike-Sum-Threshold (SST).
//!
//! During the first forward pass, Skipper records the network-wide spike
//! count `s_t = Σ_l sum(o_t^l)` per timestep (Eq. 4). Before a segment is
//! recomputed, the segment's `p`-th percentile of those counts becomes the
//! Spike-Sum-Threshold `SST_c` (Eq. 5); timesteps with `s_t < SST_c` are
//! skipped. This module also provides the boundary conditions of
//! Section VI-B (Eq. 7 and the `C ≤ T/L_n` bound of Section V-A).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use serde::{Deserialize, Serialize};
use skipper_snn::NetworkState;

/// Which per-timestep activity statistic the monitor records.
///
/// The paper uses the plain spike sum (Eq. 4) and names two refinements as
/// future work (Section VI-A: "the sum of spike counts weighted by the
/// neuron count in each layer, the ℓ2-norm of neuron trace per timestep");
/// all three are implemented here and compared by the
/// `ablation_sam_policy` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamMetric {
    /// `s_t = Σ_l sum(o_t^l)` — the paper's Eq. 4.
    #[default]
    SpikeSum,
    /// Per-layer spike *rates* summed: `Σ_l sum(o_t^l)/N_l`, so small deep
    /// layers count as much as wide early ones.
    NeuronNormalized,
    /// `Σ_l ‖U_t^l‖₂` — membrane-trace energy.
    MembraneL2,
}

impl SamMetric {
    /// Evaluate the statistic on the post-step neuron state.
    pub fn measure(&self, state: &NetworkState) -> f64 {
        match self {
            SamMetric::SpikeSum => state.spikes.iter().map(|s| s.sum()).sum(),
            SamMetric::NeuronNormalized => state
                .spikes
                .iter()
                .map(|s| s.sum() / s.numel().max(1) as f64)
                .sum(),
            SamMetric::MembraneL2 => state
                .mems
                .iter()
                .map(|u| {
                    u.data()
                        .iter()
                        .map(|&x| (x as f64) * (x as f64))
                        // lint:allow(float-order): shard-local sequential fold in a fixed unit order; cross-shard combining goes through the aggregated SAM record
                        .sum::<f64>()
                        .sqrt()
                })
                .sum(),
        }
    }
}

impl std::fmt::Display for SamMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SamMetric::SpikeSum => "spike-sum",
            SamMetric::NeuronNormalized => "neuron-normalized",
            SamMetric::MembraneL2 => "membrane-l2",
        })
    }
}

/// How Skipper decides which timesteps to skip.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SkipPolicy {
    /// The paper's mechanism: skip steps whose activity falls below the
    /// segment's `p`-th percentile of the chosen [`SamMetric`].
    #[default]
    SpikeActivity,
    /// Ablation baseline: skip a uniformly random `p` % of each segment's
    /// steps (pure "temporal dropout", no activity information).
    Random,
}

impl std::fmt::Display for SkipPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SkipPolicy::SpikeActivity => "spike-activity",
            SkipPolicy::Random => "random",
        })
    }
}

/// Recorder of the per-timestep spike sums of one training iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpikeActivityMonitor {
    sums: Vec<f64>,
}

impl SpikeActivityMonitor {
    /// Monitor with capacity for `timesteps` entries.
    pub fn new(timesteps: usize) -> SpikeActivityMonitor {
        SpikeActivityMonitor {
            sums: Vec::with_capacity(timesteps),
        }
    }

    /// Record `s_t` for the next timestep.
    pub fn record(&mut self, spike_sum: f64) {
        self.sums.push(spike_sum);
    }

    /// All recorded sums, in time order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// `s_t` of a single timestep.
    pub fn at(&self, t: usize) -> f64 {
        self.sums[t]
    }

    /// The SST for the segment `[start, end)`: the `p`-th percentile of its
    /// spike sums. `p ≤ 0` yields `-∞` (skip nothing).
    pub fn threshold(&self, start: usize, end: usize, p: f32) -> f64 {
        percentile(&self.sums[start..end], p)
    }

    /// Whether timestep `t` should be recomputed given segment threshold
    /// `sst` (recompute iff `s_t ≥ SST`, skip otherwise).
    pub fn recompute(&self, t: usize, sst: f64) -> bool {
        self.sums[t] >= sst
    }

    /// Monitor wrapping an already-recorded sum sequence.
    pub fn from_sums(sums: Vec<f64>) -> SpikeActivityMonitor {
        SpikeActivityMonitor { sums }
    }

    /// Add another record elementwise (Eq. 4 across batch shards).
    ///
    /// `s_t` is a sum over the batch, so the network-wide statistic of a
    /// sharded iteration is the shard-order sum of the per-shard records.
    /// For [`SamMetric::SpikeSum`] (integer counts held in `f64`) and
    /// [`SamMetric::NeuronNormalized`] the aggregate is exactly the
    /// unsharded value; [`SamMetric::MembraneL2`] sums per-layer norms, so
    /// its sharded aggregate sums *per-shard* norms instead — the same
    /// additive form, but not bitwise equal to the unsharded measurement.
    ///
    /// # Panics
    ///
    /// Panics if the records have different lengths.
    pub fn absorb(&mut self, other: &SpikeActivityMonitor) {
        assert_eq!(
            self.sums.len(),
            other.sums.len(),
            "SAM records cover the same horizon"
        );
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
    }
}

/// The skip schedule of one iteration: a verdict per timestep plus the
/// per-segment thresholds that produced it.
///
/// Computed once from the network-wide SAM record (after cross-shard
/// aggregation) so every shard recomputes exactly the same timesteps —
/// the paper's skip decision (Eq. 5) is global, not per-shard.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipDecisions {
    skip: Vec<bool>,
    ssts: Vec<f64>,
}

impl SkipDecisions {
    /// Whether timestep `t` is skipped in the backward recomputation.
    pub fn skip(&self, t: usize) -> bool {
        self.skip[t]
    }

    /// The SST of segment `c` (NaN when the policy does not threshold on
    /// activity).
    pub fn sst(&self, c: usize) -> f64 {
        self.ssts[c]
    }

    /// Total skipped timesteps.
    pub fn skipped(&self) -> usize {
        self.skip.iter().filter(|&&s| s).count()
    }

    /// Total recomputed timesteps.
    pub fn recomputed(&self) -> usize {
        self.skip.len() - self.skipped()
    }
}

/// Form the iteration's skip schedule from a (globally aggregated) SAM
/// record. A pure function of its arguments: sharded and unsharded runs
/// that agree on the record agree on every decision.
///
/// # Panics
///
/// Panics if the record is shorter than the last segment bound.
pub fn decide_skips(
    sam: &SpikeActivityMonitor,
    bounds: &[usize],
    percentile: f32,
    policy: SkipPolicy,
    iter_seed: u64,
) -> SkipDecisions {
    #[expect(clippy::expect_used, reason = "segment_bounds never returns empty")]
    let timesteps = *bounds.last().expect("at least one bound");
    let checkpoints = bounds.len() - 1;
    let mut skip = vec![false; timesteps];
    let mut ssts = vec![f64::NAN; checkpoints];
    for c in 0..checkpoints {
        let (start, end) = (bounds[c], bounds[c + 1]);
        match policy {
            SkipPolicy::SpikeActivity => {
                let sst = sam.threshold(start, end, percentile);
                ssts[c] = sst;
                for (t, s) in skip.iter_mut().enumerate().take(end).skip(start) {
                    *s = !sam.recompute(t, sst);
                }
            }
            SkipPolicy::Random => {
                // Uniformly drop ~p% of the segment, deterministic per
                // (iteration, segment) and independent of the record.
                let len = end - start;
                let want = ((percentile as f64 / 100.0) * len as f64).floor() as usize;
                let mut rng = skipper_tensor::XorShiftRng::new(
                    iter_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c as u64 + 1),
                );
                let mut order: Vec<usize> = (start..end).collect();
                for i in (1..len).rev() {
                    let j = rng.next_below(i + 1);
                    order.swap(i, j);
                }
                for &t in order.iter().take(want) {
                    skip[t] = true;
                }
            }
        }
    }
    SkipDecisions { skip, ssts }
}

/// Emit the per-timestep `skip_decision` trace event: segment `c`,
/// timestep `t`, its activity statistic `s_t`, the segment's threshold
/// `SST_c` (NaN when the policy does not threshold on activity, e.g.
/// [`SkipPolicy::Random`] — serialised as `null`), and the verdict.
///
/// This is the event granularity the paper plots (Fig. 3's skip traces);
/// the `trace_training` bench bin and the obs integration tests assert the
/// emitted counts against [`BatchStats`](crate::BatchStats). No-op while
/// tracing is disabled.
pub fn trace_skip_decision(c: usize, t: usize, s_t: f64, sst: f64, skip: bool) {
    skipper_obs::instant!(
        skipper_obs::Level::Trace,
        "skip_decision",
        c = c,
        t = t,
        s_t = s_t,
        sst = sst,
        skip = skip,
    );
}

/// Emit an iteration's skip-decision trace — the SST gauge and one
/// [`trace_skip_decision`] event per timestep, most recent segment first
/// like the backward pass. Called once per iteration by whichever driver
/// formed the schedule, never once per shard.
pub(crate) fn emit_skip_trace(
    bounds: &[usize],
    sam: &SpikeActivityMonitor,
    decisions: &SkipDecisions,
) {
    for c in (0..bounds.len() - 1).rev() {
        if !decisions.sst(c).is_nan() {
            skipper_obs::gauge_set("skipper.sst_threshold", decisions.sst(c));
        }
        for t in bounds[c]..bounds[c + 1] {
            trace_skip_decision(c, t, sam.at(t), decisions.sst(c), decisions.skip(t));
        }
    }
}

/// Nearest-rank percentile of `values`. `p ≤ 0` → `-∞`; `p ≥ 100` → the
/// maximum.
///
/// # Panics
///
/// Panics if `values` is empty and `p > 0`.
pub fn percentile(values: &[f64], p: f32) -> f64 {
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    assert!(!values.is_empty(), "percentile of empty slice");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Section V-A: the largest admissible `C` is `T / L_n`.
pub fn max_checkpoints(timesteps: usize, layers: usize) -> usize {
    (timesteps / layers.max(1)).max(1)
}

/// Eq. 7: the largest skippable fraction (as a percentile) for a given
/// `T`, `C` and `L_n`: `p/100 ≤ 1 − C/(T/L_n)`.
pub fn max_skippable_percentile(timesteps: usize, checkpoints: usize, layers: usize) -> f32 {
    let seg = timesteps as f32 / checkpoints.max(1) as f32;
    (100.0 * (1.0 - layers as f32 / seg)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 70.0), 7.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&v, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 60.0), 3.0);
    }

    #[test]
    fn skipping_fraction_approximates_p() {
        // With distinct sums, skipping s_t < SST drops ~p% of steps.
        let sums: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut sam = SpikeActivityMonitor::new(100);
        for &s in &sums {
            sam.record(s);
        }
        let sst = sam.threshold(0, 100, 70.0);
        let skipped = (0..100).filter(|&t| !sam.recompute(t, sst)).count();
        assert!((skipped as i64 - 70).abs() <= 1, "skipped {skipped}");
    }

    #[test]
    fn p_zero_skips_nothing() {
        let mut sam = SpikeActivityMonitor::new(4);
        for s in [3.0, 1.0, 2.0, 0.0] {
            sam.record(s);
        }
        let sst = sam.threshold(0, 4, 0.0);
        assert!((0..4).all(|t| sam.recompute(t, sst)));
    }

    /// Eq. 5 with a tie at the SST: the nearest-rank 50th percentile of
    /// `[3, 1, 2, 2]` is 2, and both steps equal to it are recomputed.
    #[test]
    fn steps_equal_to_the_sst_are_recomputed() {
        let sam = SpikeActivityMonitor::from_sums(vec![3.0, 1.0, 2.0, 2.0]);
        let decisions = decide_skips(&sam, &[0, 4], 50.0, SkipPolicy::SpikeActivity, 0);
        assert_eq!(decisions.sst(0), 2.0);
        let skipped: Vec<bool> = (0..4).map(|t| decisions.skip(t)).collect();
        assert_eq!(skipped, [false, true, false, false]);
        assert_eq!(decisions.recomputed(), 3);
    }

    #[test]
    fn thresholds_are_per_segment() {
        let mut sam = SpikeActivityMonitor::new(8);
        for s in [1.0, 2.0, 3.0, 4.0, 100.0, 200.0, 300.0, 400.0] {
            sam.record(s);
        }
        let sst0 = sam.threshold(0, 4, 50.0);
        let sst1 = sam.threshold(4, 8, 50.0);
        assert!(sst1 > sst0 * 10.0);
        // A step busy for segment 0 would be skipped under segment 1's SST.
        assert!(sam.recompute(3, sst0));
        assert!(!sam.recompute(3, sst1));
    }

    #[test]
    fn eq7_bound_matches_paper_shape() {
        // Larger T/L_n or smaller C → more skippable.
        assert!(max_skippable_percentile(100, 4, 6) > max_skippable_percentile(100, 10, 6));
        assert!(max_skippable_percentile(200, 4, 6) > max_skippable_percentile(100, 4, 6));
        assert_eq!(max_skippable_percentile(10, 10, 5), 0.0);
        // VGG5-style: T=100, C=4, L_n=5 → (1 − 5/25)·100 = 80 %.
        assert!((max_skippable_percentile(100, 4, 5) - 80.0).abs() < 1e-4);
    }

    #[test]
    fn max_checkpoints_bound() {
        assert_eq!(max_checkpoints(100, 5), 20);
        assert_eq!(max_checkpoints(10, 20), 1);
    }

    #[test]
    fn sam_metrics_measure_sensible_quantities() {
        use skipper_tensor::Tensor;
        let state = NetworkState {
            mems: vec![
                Tensor::from_vec(vec![3.0, 4.0], [1, 2]), // ‖·‖₂ = 5
                Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], [1, 4]),
            ],
            spikes: vec![
                Tensor::from_vec(vec![1.0, 1.0], [1, 2]), // 2 spikes / 2 neurons
                Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], [1, 4]), // 1 / 4
            ],
        };
        assert_eq!(SamMetric::SpikeSum.measure(&state), 3.0);
        assert!((SamMetric::NeuronNormalized.measure(&state) - 1.25).abs() < 1e-9);
        assert!((SamMetric::MembraneL2.measure(&state) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn neuron_normalization_rebalances_layer_influence() {
        use skipper_tensor::Tensor;
        // A wide noisy layer vs a narrow active one: the raw sum is
        // dominated by the wide layer, the normalized metric is not.
        let wide_only = NetworkState {
            mems: vec![Tensor::zeros([1, 100]), Tensor::zeros([1, 4])],
            spikes: vec![Tensor::full([1, 100], 0.2), Tensor::zeros([1, 4])],
        };
        let narrow_only = NetworkState {
            mems: vec![Tensor::zeros([1, 100]), Tensor::zeros([1, 4])],
            spikes: vec![Tensor::zeros([1, 100]), Tensor::ones([1, 4])],
        };
        assert!(
            SamMetric::SpikeSum.measure(&wide_only) > SamMetric::SpikeSum.measure(&narrow_only)
        );
        assert!(
            SamMetric::NeuronNormalized.measure(&narrow_only)
                > SamMetric::NeuronNormalized.measure(&wide_only)
        );
    }

    #[test]
    fn decide_skips_matches_per_segment_thresholding() {
        let sums: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 100.0, 200.0, 300.0, 400.0];
        let sam = SpikeActivityMonitor::from_sums(sums);
        let bounds = [0usize, 4, 8];
        let d = decide_skips(&sam, &bounds, 50.0, SkipPolicy::SpikeActivity, 1);
        for c in 0..2 {
            let sst = sam.threshold(bounds[c], bounds[c + 1], 50.0);
            assert_eq!(d.sst(c), sst);
            for t in bounds[c]..bounds[c + 1] {
                assert_eq!(d.skip(t), !sam.recompute(t, sst), "t={t}");
            }
        }
        assert_eq!(d.skipped() + d.recomputed(), 8);
    }

    #[test]
    fn decide_skips_random_is_deterministic_and_record_independent() {
        let a = SpikeActivityMonitor::from_sums(vec![0.0; 8]);
        let b = SpikeActivityMonitor::from_sums((0..8).map(|i| i as f64).collect());
        let bounds = [0usize, 4, 8];
        let da = decide_skips(&a, &bounds, 50.0, SkipPolicy::Random, 7);
        let db = decide_skips(&b, &bounds, 50.0, SkipPolicy::Random, 7);
        // Compare schedules, not the structs: the ssts are NaN here, and
        // NaN != NaN under PartialEq.
        let same = |x: &SkipDecisions, y: &SkipDecisions| (0..8).all(|t| x.skip(t) == y.skip(t));
        assert!(same(&da, &db), "random policy ignores the record");
        assert_eq!(da.skipped(), 4, "floor(0.5·4) per segment");
        assert!(da.sst(0).is_nan() && da.sst(1).is_nan());
        let dc = decide_skips(&a, &bounds, 50.0, SkipPolicy::Random, 8);
        assert!(!same(&da, &dc), "different iteration, different draw");
    }

    #[test]
    fn shard_records_aggregate_to_the_unsharded_sums() {
        // Spike counts are integers: summing per-shard counts reproduces
        // the full-batch count exactly, so the SST (a selected element of
        // the record) is bitwise identical.
        let mut global = SpikeActivityMonitor::from_sums(vec![0.0; 4]);
        let shard_a = SpikeActivityMonitor::from_sums(vec![3.0, 7.0, 1.0, 9.0]);
        let shard_b = SpikeActivityMonitor::from_sums(vec![2.0, 5.0, 8.0, 0.0]);
        global.absorb(&shard_a);
        global.absorb(&shard_b);
        assert_eq!(global.sums(), &[5.0, 12.0, 9.0, 9.0]);
        let unsharded = SpikeActivityMonitor::from_sums(vec![5.0, 12.0, 9.0, 9.0]);
        assert_eq!(
            global.threshold(0, 4, 60.0).to_bits(),
            unsharded.threshold(0, 4, 60.0).to_bits()
        );
    }

    #[test]
    fn metric_and_policy_display() {
        assert_eq!(SamMetric::SpikeSum.to_string(), "spike-sum");
        assert_eq!(SamMetric::MembraneL2.to_string(), "membrane-l2");
        assert_eq!(SkipPolicy::Random.to_string(), "random");
        assert_eq!(SamMetric::default(), SamMetric::SpikeSum);
        assert_eq!(SkipPolicy::default(), SkipPolicy::SpikeActivity);
    }
}
