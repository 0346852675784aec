//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! A [`Registry`] aggregates in-process; sinks additionally see every
//! update as an [`Event`](crate::Event), so exporters can reconstruct time
//! series while the registry answers "what is the total now?". Metric keys
//! are plain strings; a label dimension is encoded into the key with
//! [`labeled`] (`"memprof.peak_bytes{category=weights}"`), keeping the
//! registry flat and allocation-light.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Build a labelled metric key: `name{key=value}`.
pub fn labeled(name: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{name}{{{key}={value}}}")
}

/// A histogram over the one bucket layout every histogram shares: counts
/// per bucket, plus sum/count/min/max of the raw samples.
///
/// Bucket `i` covers `(BOUNDS[i-1], BOUNDS[i]]` (the first covers
/// `(-inf, BOUNDS[0]]`); one extra overflow bucket covers
/// `(BOUNDS.last(), +inf)`. Because the layout is a constant, merging two
/// histograms or subtracting one from another never has a layout to check.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    /// Per-bucket exemplar: the span id of the last sample recorded into
    /// that bucket via [`observe_with_exemplar`](Histogram::observe_with_exemplar)
    /// (0 = none). Links a bad latency bucket straight to a trace span.
    exemplars: [u64; BUCKETS],
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

/// Finite buckets plus the overflow bucket.
const BUCKETS: usize = Histogram::BOUNDS.len() + 1;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            exemplars: [0; BUCKETS],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Upper bounds of the finite buckets, for duration-like values in
    /// microseconds: powers of 10 from 1 µs to 100 s. Heartbeat
    /// histograms cross the cluster wire as counts in this layout, so
    /// changing it bumps the transport's frame magic.
    pub const BOUNDS: [f64; 9] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

    /// The bucket `value` falls into (NaN lands in the overflow bucket).
    fn bucket(value: f64) -> usize {
        Self::BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(Self::BOUNDS.len())
    }

    /// Lower and upper edge of bucket `i`: `-inf` below the first bucket,
    /// `+inf` above the overflow bucket.
    fn edges(i: usize) -> (f64, f64) {
        let lower = if i == 0 {
            f64::NEG_INFINITY
        } else {
            Self::BOUNDS[i - 1]
        };
        (lower, Self::BOUNDS.get(i).copied().unwrap_or(f64::INFINITY))
    }

    /// Rebuild a histogram from externally transported state (the metric
    /// federation path: a worker ships bucket deltas over the wire and the
    /// coordinator reconstitutes them here).
    ///
    /// # Errors
    ///
    /// Rejects a counts length other than the layout's, or a bucket total
    /// disagreeing with `count` — a corrupted or mis-encoded delta must not
    /// poison the registry.
    pub fn from_parts(
        counts: &[u64],
        sum: f64,
        count: u64,
        min: f64,
        max: f64,
    ) -> Result<Histogram, String> {
        let counts: [u64; BUCKETS] = counts.try_into().map_err(|_| {
            format!(
                "histogram has {} bucket counts, the layout has {BUCKETS}",
                counts.len()
            )
        })?;
        if counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            != Some(count)
        {
            return Err("histogram bucket total disagrees with count".into());
        }
        Ok(Histogram {
            counts,
            sum,
            count,
            min,
            max,
            ..Histogram::default()
        })
    }

    /// Fold `other`'s samples into `self`: bucket counts and sums add,
    /// min/max widen. Counts saturate: `other` may come off the wire, where
    /// nothing bounds them.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        // Exemplars are best-effort "a recent span in this bucket": the
        // incoming delta's exemplar (when it has one) is the fresher.
        for (mine, theirs) in self.exemplars.iter_mut().zip(&other.exemplars) {
            if *theirs != 0 {
                *mine = *theirs;
            }
        }
        self.sum += other.sum;
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `earlier`, an older reading of the same
    /// series: bucket counts, count and sum are the differences. min, max
    /// and exemplars are this reading's — the tightest bounds known for
    /// the new samples — so merging every delta of a series rebuilds its
    /// extremes exactly. `None` when some bucket went down: the series was
    /// cleared in between and the difference means nothing. (A clear
    /// followed by at least as many samples in every bucket looks like
    /// growth; no reading of the counts can tell the two apart.)
    pub fn since(&self, earlier: &Histogram) -> Option<Histogram> {
        let mut delta = self.clone();
        for (now, &then) in delta.counts.iter_mut().zip(&earlier.counts) {
            *now = now.checked_sub(then)?;
        }
        delta.count = self.count.saturating_sub(earlier.count);
        delta.sum -= earlier.sum;
        Some(delta)
    }

    /// Record one sample.
    pub fn observe(&mut self, value: f64) {
        self.observe_with_exemplar(value, 0);
    }

    /// Record one sample and remember `span_id` as the containing
    /// bucket's exemplar (latest wins; 0 leaves the exemplar untouched).
    pub fn observe_with_exemplar(&mut self, value: f64, span_id: u64) {
        let idx = Self::bucket(value);
        self.counts[idx] += 1;
        if span_id != 0 {
            self.exemplars[idx] = span_id;
        }
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Per-bucket counts (`BOUNDS.len() + 1` entries, last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bucket exemplar span ids (`BOUNDS.len() + 1` entries, 0 =
    /// none).
    pub fn exemplars(&self) -> &[u64] {
        &self.exemplars
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing bucket.
    ///
    /// The target rank `q * count` is located by walking the cumulative
    /// bucket counts; within that bucket samples are assumed uniform
    /// between its lower and upper edges. Edges are tightened by the true
    /// `min`/`max`, which also bounds the otherwise-open first and
    /// overflow buckets. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= (cum + c) as f64 {
                let (lower, upper) = Self::edges(i);
                let (lower, upper) = (lower.max(self.min), upper.min(self.max));
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower + frac * (upper - lower);
            }
            cum += c;
        }
        self.max
    }

    /// Estimated number of samples above `threshold`, assuming samples are
    /// uniform within each bucket and the first bucket starts at 0. The
    /// overflow bucket (unbounded above) counts entirely as "above" — the
    /// conservative reading, since nothing places its samples.
    pub fn count_above(&self, threshold: f64) -> f64 {
        let mut above = 0.0;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let count = count as f64;
            let (lower, upper) = Self::edges(i);
            let lower = lower.max(0.0);
            above += if upper == f64::INFINITY {
                count
            } else if upper <= threshold {
                0.0
            } else if lower >= threshold {
                count
            } else {
                count * (upper - threshold) / (upper - lower)
            };
        }
        above
    }
}

#[derive(Debug, Default)]
struct RegistryState {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe aggregate store of counters, gauges and histograms.
///
/// The crate keeps one global registry (see [`registry`](crate::registry));
/// tests can build private ones for isolation.
#[derive(Debug, Default)]
pub struct Registry {
    state: Mutex<RegistryState>,
}

/// Point-in-time copy of a registry's contents.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by key.
    pub counters: Vec<(String, f64)>,
    /// Latest gauge values, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by key.
    pub histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to the counter `name` (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: f64) {
        let mut s = crate::named_lock("obs.registry", &self.state);
        match s.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        crate::named_lock("obs.registry", &self.state)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut s = crate::named_lock("obs.registry", &self.state);
        match s.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                s.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Latest value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        crate::named_lock("obs.registry", &self.state)
            .gauges
            .get(name)
            .copied()
    }

    /// Record one sample into histogram `name` (created empty on first
    /// use).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with_exemplar(name, value, 0);
    }

    /// Record one sample into histogram `name`, remembering `span_id` as
    /// the containing bucket's exemplar (see
    /// [`Histogram::observe_with_exemplar`]).
    pub fn observe_with_exemplar(&self, name: &str, value: f64, span_id: u64) {
        crate::named_lock("obs.registry", &self.state)
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe_with_exemplar(value, span_id);
    }

    /// Merge an externally transported histogram into histogram `name`
    /// (created empty on first sight). The metric-federation ingest path:
    /// bucket deltas arriving on a Heartbeat fold in here.
    pub fn merge_histogram(&self, name: &str, delta: &Histogram) {
        crate::named_lock("obs.registry", &self.state)
            .histograms
            .entry(name.to_string())
            .or_default()
            .merge(delta);
    }

    /// A copy of histogram `name`, if it has been recorded into.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        crate::named_lock("obs.registry", &self.state)
            .histograms
            .get(name)
            .cloned()
    }

    /// Copy out everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = crate::named_lock("obs.registry", &self.state);
        MetricsSnapshot {
            counters: s.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: s.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Drop every metric (test isolation).
    pub fn clear(&self) {
        *crate::named_lock("obs.registry", &self.state) = RegistryState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Registry::new();
        r.counter_add("skipped", 3.0);
        r.counter_add("skipped", 2.0);
        assert_eq!(r.counter("skipped"), 5.0);
        assert_eq!(r.counter("absent"), 0.0);
        r.gauge_set("sst", 10.0);
        r.gauge_set("sst", 7.0);
        assert_eq!(r.gauge("sst"), Some(7.0));
        assert_eq!(r.gauge("absent"), None);
    }

    /// A histogram holding `values`.
    fn hist_of(values: &[f64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper() {
        let h = hist_of(&[0.5, 1.0, 1.5, 10.0, 99.0, 1000.0, 2e8]);
        // (-inf,1]: {0.5, 1.0}; (1,10]: {1.5, 10.0}; (10,100]: {99.0};
        // (100,1000]: {1000.0}; overflow: {2e8}.
        assert_eq!(h.counts(), &[2, 2, 1, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 2e8);
        assert!((h.mean() - (1112.0 + 2e8) / 7.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = hist_of(&[5.0, 50.0, 500.0, 700.0, 5e8]);
        // Buckets: (1,10]={5}, (10,100]={50}, (100,1000]={500,700},
        // overflow={5e8}; min=5, max=5e8.
        // q=0.5 -> rank 2.5, a quarter into (100,1000] = 325.
        assert!((h.quantile(0.5) - 325.0).abs() < 1e-9);
        // q=0.95 -> rank 4.75, 0.75 into the overflow bucket [1e8,5e8] = 4e8.
        assert!((h.quantile(0.95) - 4e8).abs() < 1e-6);
        // Extremes clamp to the observed min/max.
        assert!((h.quantile(0.0) - 5.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 5e8).abs() < 1e-9);
        // Out-of-range q clamps.
        assert!((h.quantile(2.0) - 5e8).abs() < 1e-9);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_folds_counts_and_extremes() {
        let mut a = hist_of(&[5.0, 50.0]);
        a.merge(&hist_of(&[500.0, 7.0]));
        assert_eq!(a.counts(), &[0, 2, 1, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.count(), 4);
        assert!((a.sum() - 562.0).abs() < 1e-9);
        assert_eq!(a.min(), 5.0);
        assert_eq!(a.max(), 500.0);
        // Counts off the wire can be anything: they saturate, not wrap.
        let huge = Histogram::from_parts(
            &[u64::MAX, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            0.0,
            u64::MAX,
            0.0,
            0.0,
        )
        .unwrap();
        a.merge(&huge);
        assert_eq!((a.counts()[0], a.count()), (u64::MAX, u64::MAX));
    }

    #[test]
    fn since_subtracts_buckets_and_refuses_a_cleared_series() {
        let earlier = hist_of(&[5.0, 50.0]);
        let mut later = earlier.clone();
        later.observe(7.0);
        later.observe(5000.0);
        let delta = later.since(&earlier).unwrap();
        assert_eq!(delta.counts(), &[0, 1, 0, 0, 1, 0, 0, 0, 0, 0]);
        assert_eq!((delta.count(), delta.sum()), (2, 5007.0));
        // Extremes are the later reading's, so merging deltas rebuilds them.
        assert_eq!((delta.min(), delta.max()), (5.0, 5000.0));
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later);
        assert_eq!(later.since(&later).unwrap().count(), 0);
        // A bucket that went down means the series was cleared in between.
        assert_eq!(hist_of(&[7.0]).since(&earlier), None);
    }

    #[test]
    fn from_parts_validates_transported_state() {
        let h = Histogram::from_parts(&[1, 2, 0, 0, 0, 0, 0, 0, 0, 0], 7.5, 3, 0.5, 9.0).unwrap();
        assert_eq!(h.counts(), &[1, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.count(), 3);
        // Not the layout's length, either way.
        assert!(Histogram::from_parts(&[0; 9], 0.0, 0, 0.0, 0.0).is_err());
        assert!(Histogram::from_parts(&[0; 11], 0.0, 0, 0.0, 0.0).is_err());
        // Bucket total disagreeing with count, including by overflow.
        assert!(Histogram::from_parts(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0.0, 2, 0.0, 0.0).is_err());
        let wraps = [u64::MAX, 2, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(Histogram::from_parts(&wraps, 0.0, 1, 0.0, 0.0).is_err());
    }

    #[test]
    fn registry_merge_histogram_creates_then_folds() {
        let r = Registry::new();
        let delta = hist_of(&[5.0]);
        r.merge_histogram("fed{worker=3}", &delta);
        assert_eq!(r.histogram("fed{worker=3}").unwrap(), delta);
        r.merge_histogram("fed{worker=3}", &delta);
        let h = r.histogram("fed{worker=3}").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exemplars_track_the_latest_span_per_bucket() {
        let mut h = Histogram::default();
        h.observe(5.0); // plain observe leaves no exemplar
        h.observe_with_exemplar(7.0, 41);
        h.observe_with_exemplar(3.0, 42); // same bucket: latest wins
        h.observe_with_exemplar(5e8, 99); // overflow bucket
        h.observe_with_exemplar(50.0, 0); // id 0 = "no exemplar"
        assert_eq!(h.exemplars(), &[0, 42, 0, 0, 0, 0, 0, 0, 0, 99]);
        assert_eq!(h.count(), 5);

        // Merge prefers the incoming delta's exemplars where present.
        let mut other = Histogram::default();
        other.observe_with_exemplar(80.0, 7);
        h.merge(&other);
        assert_eq!(h.exemplars(), &[0, 42, 7, 0, 0, 0, 0, 0, 0, 99]);

        // Transported state starts exemplar-free.
        let rebuilt =
            Histogram::from_parts(&[0, 1, 0, 0, 0, 0, 0, 0, 0, 0], 5.0, 1, 5.0, 5.0).unwrap();
        assert_eq!(rebuilt.exemplars(), &[0; 10]);

        // The registry path reaches the same machinery.
        let r = Registry::new();
        r.observe_with_exemplar("ex.wall_us", 50.0, 1234);
        let snap = r.histogram("ex.wall_us").unwrap();
        assert!(snap.exemplars().contains(&1234));
    }

    #[test]
    fn labeled_key_format() {
        assert_eq!(
            labeled("memprof.peak_bytes", "category", "weights"),
            "memprof.peak_bytes{category=weights}"
        );
    }

    #[test]
    fn snapshot_and_clear() {
        let r = Registry::new();
        r.counter_add("a", 1.0);
        r.observe("h", 5.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 1.0)]);
        assert_eq!(snap.histograms.len(), 1);
        r.clear();
        assert!(r.snapshot().counters.is_empty());
    }
}
