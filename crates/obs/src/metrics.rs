//! The metrics registry: counters, gauges, and histograms.
//!
//! All metric updates are driven by the trace-event stream (see
//! [`crate::Obs::emit`]), so the registry and a trace of the same run can
//! never disagree. Everything here is a function of simulated events only —
//! no wall clocks — which keeps [`ObsSummary`] deterministic and safe to
//! embed in `SimReport` (runs with equal seeds still compare equal).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A monotonically increasing event count.
pub type Counter = u64;

/// Deterministic quantile sketch: a decimating reservoir that keeps at most
/// `MAX_SAMPLES` values by dropping every other retained sample (and
/// doubling its keep-stride) when full. No randomness, so same input
/// sequence ⇒ same summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
    stride: u64,
    seen: u64,
    max: f64,
    sum: f64,
}

const MAX_SAMPLES: usize = 4096;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            samples: Vec::new(),
            stride: 1,
            seen: 0,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == MAX_SAMPLES {
                // Decimate: keep every other sample, double the stride.
                let kept: Vec<f64> = self.samples.iter().copied().step_by(2).collect();
                self.samples = kept;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.samples.push(value);
            }
        }
        self.seen += 1;
    }

    /// Total observations recorded (not just retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile (0.0–1.0) over the retained sample, or None when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }

    /// Largest observation, or None when empty.
    pub fn max(&self) -> Option<f64> {
        if self.seen == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Mean of all observations, or None when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.seen == 0 {
            None
        } else {
            Some(self.sum / self.seen as f64)
        }
    }
}

/// Fixed-bucket histogram: a static list of bucket upper bounds and one
/// counter per bucket (plus an overflow bucket). `observe` touches no heap —
/// the counters are allocated once at construction — so it is safe on the
/// scheduler's hot path where the decimating [`Histogram`] would reallocate.
///
/// Quantiles are bucket-bound estimates: the reported value is the upper
/// bound of the bucket where the cumulative count crosses the quantile,
/// clamped to the exact observed maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    seen: u64,
    sum: f64,
    max: f64,
    min: f64,
}

impl FixedHistogram {
    /// Creates a histogram over the given ascending bucket upper bounds.
    /// Values above the last bound land in an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "fixed histogram needs at least one bucket"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        FixedHistogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            seen: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }

    /// Records one observation. Non-finite values are dropped. No allocation.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.seen += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
        if value < self.min {
            self.min = value;
        }
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observations, or None when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.seen == 0 {
            None
        } else {
            Some(self.sum / self.seen as f64)
        }
    }

    /// Largest observation, or None when empty.
    pub fn max(&self) -> Option<f64> {
        if self.seen == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Smallest observation, or None when empty.
    pub fn min(&self) -> Option<f64> {
        if self.seen == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Bucket-bound estimate of the `q`-quantile (0.0–1.0), or None when
    /// empty. Observations in the overflow bucket report the exact maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.seen == 0 {
            return None;
        }
        let rank = ((self.seen as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let est = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Serializable summary of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// Map from `&'static str` metric names to values, tuned for the emit hot
/// path. Metric names are string literals, so an entry's (address, length)
/// pair is stable for the program's lifetime; a linear probe compares
/// addresses before falling back to contents, which resolves repeat lookups
/// over the few dozen live metrics without walking a tree of string
/// comparisons. Two distinct literals with equal text still share one entry
/// via the content fallback.
#[derive(Debug, Clone, Default)]
struct NameMap<T> {
    entries: Vec<(&'static str, T)>,
}

impl<T: Default> NameMap<T> {
    /// The value slot for `name`, created on first use.
    fn slot(&mut self, name: &'static str) -> &mut T {
        let pos = self.entries.iter().position(|(k, _)| {
            (std::ptr::eq(k.as_ptr(), name.as_ptr()) && k.len() == name.len()) || *k == name
        });
        let i = match pos {
            Some(i) => i,
            None => {
                self.entries.push((name, T::default()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }

    /// The value under `name`, if present.
    fn get(&self, name: &str) -> Option<&T> {
        self.entries
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// All (name, value) pairs in name order (sorted on demand; emits never
    /// pay for the ordering, only snapshots do).
    fn sorted(&self) -> Vec<(&'static str, &T)> {
        let mut all: Vec<_> = self.entries.iter().map(|(k, v)| (*k, v)).collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }
}

/// Counters, gauges, and histograms for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: NameMap<Counter>,
    gauges: NameMap<f64>,
    histograms: NameMap<Histogram>,
}

impl MetricsRegistry {
    /// Increments a counter by `by`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.slot(name) += by;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        *self.gauges.slot(name) = value;
    }

    /// Adds `delta` to a gauge (creating it at 0.0).
    pub fn add_gauge(&mut self, name: &'static str, delta: f64) {
        *self.gauges.slot(name) += delta;
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.slot(name).observe(value);
    }

    /// Records observations in order (decimation is order-sensitive),
    /// looking the histogram up once.
    pub fn observe_all(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        let h = self.histograms.slot(name);
        for v in values {
            h.observe(v);
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Snapshot of every metric.
    pub fn snapshot(
        &self,
    ) -> (
        BTreeMap<String, u64>,
        BTreeMap<String, f64>,
        Vec<HistogramSummary>,
    ) {
        let counters = self
            .counters
            .sorted()
            .into_iter()
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        let gauges = self
            .gauges
            .sorted()
            .into_iter()
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        let histograms = self
            .histograms
            .sorted()
            .into_iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| HistogramSummary {
                name: k.to_string(),
                count: h.count(),
                mean: h.mean().unwrap_or(0.0),
                p50: h.quantile(0.5).unwrap_or(0.0),
                p99: h.quantile(0.99).unwrap_or(0.0),
                max: h.max().unwrap_or(0.0),
            })
            .collect();
        (counters, gauges, histograms)
    }
}

/// Deterministic observability snapshot embedded in `SimReport`.
///
/// Contains only quantities derived from simulated events; wall-clock span
/// timings live in [`crate::PhaseStats`] and are reported separately (they
/// would break report determinism).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSummary {
    /// Total trace events emitted.
    pub events: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries, by name.
    pub histograms: Vec<HistogramSummary>,
    /// The fairness ledger's deserved-vs-received accounting.
    pub ledger: crate::ledger::LedgerSummary,
    /// Fatal invariant violations detected by the auditor (0 on any healthy
    /// run — a violation aborts the simulation).
    pub violations: u64,
    /// Warn-level audit findings (e.g. idle GPUs with runnable jobs under a
    /// deliberately non-work-conserving gang policy).
    pub warnings: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsRegistry::default();
        m.inc("rounds", 1);
        m.inc("rounds", 2);
        m.set_gauge("queue_depth", 4.0);
        m.add_gauge("trade_gpu_volume", 1.5);
        m.add_gauge("trade_gpu_volume", 2.5);
        assert_eq!(m.counter("rounds"), 3);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauge("queue_depth"), Some(4.0));
        assert_eq!(m.gauge("trade_gpu_volume"), Some(4.0));
    }

    #[test]
    fn histogram_quantiles_track_data() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((45.0..=55.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.max(), Some(100.0));
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_decimates_but_keeps_count_and_max() {
        let mut h = Histogram::default();
        let n = 3 * MAX_SAMPLES as u64;
        for i in 0..n {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), n);
        assert_eq!(h.max(), Some((n - 1) as f64));
        assert!(h.samples.len() <= MAX_SAMPLES);
        // Quantiles remain sane after decimation.
        let p50 = h.quantile(0.5).unwrap();
        let mid = n as f64 / 2.0;
        assert!((p50 - mid).abs() / mid < 0.1, "p50 {p50} vs mid {mid}");
    }

    #[test]
    fn histogram_is_deterministic() {
        let run = || {
            let mut h = Histogram::default();
            for i in 0..10_000u64 {
                h.observe((i % 97) as f64);
            }
            (h.quantile(0.5), h.quantile(0.99), h.count())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_skips_empty_histograms() {
        let mut m = MetricsRegistry::default();
        m.observe("used", 1.0);
        let (_, _, hists) = m.snapshot();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].name, "used");
        assert_eq!(hists[0].count, 1);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
    }

    const TEST_BOUNDS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];

    #[test]
    fn fixed_histogram_buckets_and_stats() {
        let mut h = FixedHistogram::new(&TEST_BOUNDS);
        for v in [0.5, 5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        h.observe(f64::NAN);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Some(5000.0));
        assert_eq!(h.min(), Some(0.5));
        assert!((h.mean().unwrap() - 1111.1).abs() < 1e-9);
        // p50 of 5 observations is the 3rd: bucket (10, 100] → bound 100.
        assert_eq!(h.quantile(0.5), Some(100.0));
        // p99 lands in the overflow bucket → the exact max.
        assert_eq!(h.quantile(0.99), Some(5000.0));
    }

    #[test]
    fn fixed_histogram_quantile_clamps_to_observed_range() {
        let mut h = FixedHistogram::new(&TEST_BOUNDS);
        h.observe(3.0);
        h.observe(4.0);
        // Both fall in bucket (1, 10]; the bound estimate 10.0 is clamped to
        // the observed max.
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(FixedHistogram::new(&TEST_BOUNDS).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn fixed_histogram_rejects_unsorted_bounds() {
        static BAD: [f64; 2] = [2.0, 1.0];
        let _ = FixedHistogram::new(&BAD);
    }
}
