//! Transparent throughput profiling.
//!
//! Gandiva_fair never asks users how fast their jobs are: it observes
//! minibatch throughput while jobs run and, when a job has run on more than
//! one GPU generation, derives its speedup. The simulator feeds this module
//! with noisy [`gfair_sim::ProfileReport`]s; estimates are aggregated **per
//! model** — throughput is a property of the model/config, so sharing
//! estimates across a model's jobs converges much faster than per-job
//! profiling and matches how production schedulers cache profiles.
//!
//! Estimates are keyed by [`ModelId`], the rank the simulator gives each
//! distinct model name, in one flat `model × generation` table: recording
//! an observation or reading a speedup is an array access. Names are read
//! only through the simulator's interned model table
//! ([`gfair_sim::SimView::models`]), which the profiler shares.

use gfair_types::{GenId, ModelId};
use std::sync::Arc;

/// Running mean of rate observations for one (model, generation) pair.
#[derive(Debug, Clone, Copy, Default)]
struct RateEstimate {
    sum: f64,
    count: u64,
}

impl RateEstimate {
    fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Aggregates rate observations into per-model speedup estimates.
#[derive(Debug, Clone)]
pub struct Profiler {
    num_gens: usize,
    min_samples: u64,
    /// Model names in `str` order, indexed by `ModelId::index()`.
    models: Arc<[Arc<str>]>,
    /// One estimate per (model, generation), flattened as
    /// `model.index() * num_gens + gen.index()`.
    estimates: Vec<RateEstimate>,
}

impl Profiler {
    /// Creates a profiler for the models named in `models` (sorted, indexed
    /// by [`ModelId::index`], as [`gfair_sim::SimView::models`] returns
    /// them) on a catalog with `num_gens` generations, treating an estimate
    /// as trustworthy after `min_samples` observations.
    ///
    /// # Panics
    ///
    /// Panics if `num_gens` is zero or `min_samples` is zero.
    pub fn new(models: Arc<[Arc<str>]>, num_gens: usize, min_samples: u64) -> Self {
        assert!(num_gens > 0, "need at least one generation");
        assert!(min_samples > 0, "need at least one sample");
        debug_assert!(models.is_sorted_by(|a, b| a < b), "models unsorted");
        Profiler {
            num_gens,
            min_samples,
            estimates: vec![RateEstimate::default(); models.len() * num_gens],
            models,
        }
    }

    /// The id of the model named `name`, if it is one of the profiler's
    /// models.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        (self.models.binary_search_by(|m| (**m).cmp(name)).ok()).map(|i| ModelId::new(i as u32))
    }

    /// The name of model `model`.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range.
    pub fn model_name(&self, model: ModelId) -> &Arc<str> {
        &self.models[model.index()]
    }

    /// The estimate of (`model`, `gen`), if both are in range.
    fn estimate(&self, model: ModelId, gen: GenId) -> Option<&RateEstimate> {
        if gen.index() >= self.num_gens {
            return None;
        }
        self.estimates
            .get(model.index() * self.num_gens + gen.index())
    }

    /// Records one rate observation for `model` on `gen`. Returns `true`
    /// exactly when this observation pushes the estimate over the sample
    /// threshold — i.e. the profile was just inferred — so callers can emit
    /// a single convergence notification per (model, generation).
    ///
    /// # Panics
    ///
    /// Panics if `model` or `gen` is out of range or `rate` is not positive
    /// and finite.
    pub fn record(&mut self, model: ModelId, gen: GenId, rate: f64) -> bool {
        assert!(gen.index() < self.num_gens, "generation out of range");
        assert!(model.index() < self.models.len(), "model out of range");
        assert!(
            rate.is_finite() && rate > 0.0,
            "observed rate must be positive and finite, got {rate}"
        );
        let e = &mut self.estimates[model.index() * self.num_gens + gen.index()];
        e.sum += rate;
        e.count += 1;
        e.count == self.min_samples
    }

    /// Mean observed rate of `model` on `gen`, if any observation exists.
    pub fn rate(&self, model: ModelId, gen: GenId) -> Option<f64> {
        self.estimate(model, gen)?.mean()
    }

    /// Number of observations for `model` on `gen`.
    pub fn samples(&self, model: ModelId, gen: GenId) -> u64 {
        self.estimate(model, gen).map_or(0, |e| e.count)
    }

    /// True when the (model, generation) estimate has reached the sample
    /// threshold.
    pub fn is_profiled(&self, model: ModelId, gen: GenId) -> bool {
        self.samples(model, gen) >= self.min_samples
    }

    /// Estimated speedup of `model` on `gen` relative to `base`.
    ///
    /// Returns `None` unless both generations are profiled — the trading
    /// engine never trades on guesses.
    pub fn speedup(&self, model: ModelId, gen: GenId, base: GenId) -> Option<f64> {
        let (e, b) = (self.estimate(model, gen)?, self.estimate(model, base)?);
        if e.count < self.min_samples || b.count < self.min_samples {
            return None;
        }
        Some(e.mean()? / b.mean()?)
    }

    /// Generations on which `model` has not yet reached the sample
    /// threshold, in id order.
    pub fn unprofiled_gens(&self, model: ModelId) -> Vec<GenId> {
        (0..self.num_gens as u32)
            .map(GenId::new)
            .filter(|&g| !self.is_profiled(model, g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profiler over `names` (any order; sorted here as the simulator
    /// ranks them).
    fn profiler(names: &[&str], num_gens: usize, min_samples: u64) -> Profiler {
        let mut names: Vec<Arc<str>> = names.iter().map(|&n| Arc::from(n)).collect();
        names.sort();
        Profiler::new(names.into(), num_gens, min_samples)
    }

    fn m(raw: u32) -> ModelId {
        ModelId::new(raw)
    }

    #[test]
    fn estimates_average_observations() {
        let mut p = profiler(&["ResNet-50"], 3, 1);
        p.record(m(0), GenId::new(0), 0.9);
        p.record(m(0), GenId::new(0), 1.1);
        assert!((p.rate(m(0), GenId::new(0)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(p.samples(m(0), GenId::new(0)), 2);
    }

    #[test]
    fn speedup_requires_both_gens_profiled() {
        let mut p = profiler(&["GRU"], 3, 1);
        p.record(m(0), GenId::new(2), 2.0);
        assert_eq!(p.speedup(m(0), GenId::new(2), GenId::new(0)), None);
        p.record(m(0), GenId::new(0), 1.0);
        let s = p.speedup(m(0), GenId::new(2), GenId::new(0)).unwrap();
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_gate() {
        let mut p = profiler(&["VAE"], 2, 3);
        p.record(m(0), GenId::new(0), 1.0);
        p.record(m(0), GenId::new(0), 1.0);
        assert!(!p.is_profiled(m(0), GenId::new(0)));
        p.record(m(0), GenId::new(0), 1.0);
        assert!(p.is_profiled(m(0), GenId::new(0)));
    }

    #[test]
    fn record_signals_convergence_exactly_once_per_gen() {
        let mut p = profiler(&["BERT"], 2, 3);
        assert!(!p.record(m(0), GenId::new(0), 1.0));
        assert!(!p.record(m(0), GenId::new(0), 1.0));
        // The min_samples-th observation crosses the threshold...
        assert!(p.record(m(0), GenId::new(0), 1.0));
        // ...and further observations refine the estimate silently.
        assert!(!p.record(m(0), GenId::new(0), 1.0));
        // Each generation converges independently.
        assert!(!p.record(m(0), GenId::new(1), 2.0));
        assert!(!p.record(m(0), GenId::new(1), 2.0));
        assert!(p.record(m(0), GenId::new(1), 2.0));
    }

    #[test]
    fn unprofiled_gens_shrink_as_data_arrives() {
        let mut p = profiler(&["LSTM"], 3, 1);
        assert_eq!(
            p.unprofiled_gens(m(0)),
            vec![GenId::new(0), GenId::new(1), GenId::new(2)]
        );
        p.record(m(0), GenId::new(1), 1.4);
        assert_eq!(p.unprofiled_gens(m(0)), vec![GenId::new(0), GenId::new(2)]);
    }

    #[test]
    fn models_keep_separate_estimates_by_id() {
        // Ids are ranks in name order, not the order names were listed.
        let mut p = profiler(&["VAE", "BERT", "GRU"], 2, 1);
        let (bert, gru, vae) = (m(0), m(1), m(2));
        assert_eq!(p.model_id("BERT"), Some(bert));
        assert_eq!(p.model_id("GRU"), Some(gru));
        assert_eq!(p.model_id("VAE"), Some(vae));
        assert_eq!(&**p.model_name(vae), "VAE");
        p.record(gru, GenId::new(1), 3.0);
        assert_eq!(p.rate(gru, GenId::new(1)), Some(3.0));
        assert_eq!(p.samples(bert, GenId::new(1)), 0);
        assert_eq!(p.samples(vae, GenId::new(1)), 0);
        assert_eq!(p.samples(gru, GenId::new(0)), 0);
    }

    #[test]
    fn unknown_model_has_no_estimates() {
        let p = profiler(&["m"], 2, 1);
        assert_eq!(p.model_id("nope"), None);
        assert_eq!(p.rate(m(1), GenId::new(0)), None);
        assert_eq!(p.samples(m(1), GenId::new(1)), 0);
        assert_eq!(p.samples(m(0), GenId::new(2)), 0);
        assert!(!p.is_profiled(m(1), GenId::new(0)));
    }

    #[test]
    #[should_panic(expected = "generation out of range")]
    fn out_of_range_gen_panics() {
        let mut p = profiler(&["m"], 2, 1);
        p.record(m(0), GenId::new(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "model out of range")]
    fn out_of_range_model_panics() {
        let mut p = profiler(&["m"], 2, 1);
        p.record(m(1), GenId::new(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_rate_panics() {
        let mut p = profiler(&["m"], 2, 1);
        p.record(m(0), GenId::new(0), 0.0);
    }

    #[test]
    fn noisy_observations_converge_to_truth() {
        let mut p = profiler(&["DCGAN"], 2, 1);
        // Symmetric noise around 2.1.
        for i in 0..100 {
            let eps = ((i % 11) as f64 - 5.0) / 100.0;
            p.record(m(0), GenId::new(1), 2.1 * (1.0 + eps));
            p.record(m(0), GenId::new(0), 1.0 * (1.0 - eps));
        }
        let s = p.speedup(m(0), GenId::new(1), GenId::new(0)).unwrap();
        assert!((s - 2.1).abs() < 0.05, "estimate {s}");
    }
}
