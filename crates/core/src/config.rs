//! Configuration knobs specific to the Gandiva_fair policy.
//!
//! Intervals, the quantum, the trade price strategy and the RNG seed live in
//! the shared [`gfair_types::SimConfig`]; this struct holds the policy
//! choice, the mechanism toggles (used by the ablation experiments), the
//! retry budget, the lazy-planning switch and the Themis auction knobs.
//! Tuning values no caller varies are private constants where they are
//! read: the trade margin, profile-trust threshold and retry backoff base
//! in `policy.rs`, the stride-weight floor in `planner.rs` and the load
//! spread in `balance.rs`.

use gfair_types::SimDuration;
use std::fmt;

/// Selector for the allocation policy that drives scheduling decisions.
///
/// The id is just a name — the mapping to a concrete scheduler lives in the
/// `gfair-policies` crate (`build_policy`), which keeps this core crate free
/// of policy implementations it doesn't own. `POLICIES.md` documents each
/// policy; its table is cross-checked against [`PolicyId::ALL`] by a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyId {
    /// The paper's policy: ticket-proportional entitlements plus the
    /// big/small trading market ([`crate::GandivaFair`]).
    Gfair,
    /// Gavel-style heterogeneity-aware max-min fairness via deterministic
    /// water-filling over estimated per-generation throughput.
    GavelHetero,
    /// Themis-style finish-time fairness: online ρ̂ tracking with a
    /// partial-allocation auction among the worst-off users each lease.
    ThemisFtf,
}

impl PolicyId {
    /// Every selectable policy, in CLI-listing order.
    pub const ALL: [PolicyId; 3] = [PolicyId::Gfair, PolicyId::GavelHetero, PolicyId::ThemisFtf];

    /// The CLI / report name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyId::Gfair => "gfair",
            PolicyId::GavelHetero => "gavel-hetero",
            PolicyId::ThemisFtf => "themis-ftf",
        }
    }

    /// Parses a CLI name back into a policy id.
    pub fn parse(s: &str) -> Option<PolicyId> {
        PolicyId::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Policy choice, toggles and knobs for [`crate::GandivaFair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GfairConfig {
    /// Which allocation policy drives scheduling. The default is the
    /// paper's entitlement + trading policy; `gavel-hetero` and
    /// `themis-ftf` select the alternative formulations from
    /// `gfair-policies`.
    pub policy: PolicyId,
    /// Run the trading market (ablation: off reproduces "fairness without
    /// heterogeneity awareness").
    pub trading: bool,
    /// Run migration-based load balancing, including the profiling
    /// migrations that send jobs to generations the profiler has not yet
    /// measured them on.
    pub balancing: bool,
    /// Maximum times a failed migration is retried before the job is left
    /// where the failure stranded it (resident at the source for checkpoint
    /// failures, pending for restore failures — the placement path then
    /// owns it). `0` disables retries entirely. Attempt `n` waits
    /// 60 s · 2^(n-1) of exponential backoff.
    pub max_migration_retries: u32,
    /// Allow the round planner to settle servers lazily — re-plan only
    /// servers that were touched (residency, weights, a departing job) or
    /// whose gangs did not all fit at their last settle, serving the rest
    /// from the cached selection. Purely a performance knob:
    /// reports and traces are byte-identical either way (asserted by the
    /// differential tests).
    pub lazy_planning: bool,
    /// Themis lease length: how often the partial-allocation auction among
    /// the worst-ρ̂ users re-runs (only read by the `themis-ftf` policy).
    pub themis_lease: SimDuration,
    /// Fraction of active users admitted to each Themis auction, taken from
    /// the worst-ρ̂ end (only read by the `themis-ftf` policy). Clamped to
    /// at least one user.
    pub themis_filter: f64,
}

impl Default for GfairConfig {
    fn default() -> Self {
        GfairConfig {
            policy: PolicyId::Gfair,
            trading: true,
            balancing: true,
            max_migration_retries: 3,
            lazy_planning: true,
            themis_lease: SimDuration::from_mins(10),
            themis_filter: 0.5,
        }
    }
}

impl GfairConfig {
    /// Selects the allocation policy (builder-style).
    pub fn with_policy(mut self, policy: PolicyId) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the Themis auction knobs (builder-style): lease length and
    /// the worst-ρ̂ fraction admitted to each auction.
    pub fn with_themis(mut self, lease: SimDuration, filter: f64) -> Self {
        self.themis_lease = lease;
        self.themis_filter = filter;
        self
    }

    /// Disables trading (builder-style).
    pub fn without_trading(mut self) -> Self {
        self.trading = false;
        self
    }

    /// Disables load balancing and with it profiling migrations
    /// (builder-style).
    pub fn without_balancing(mut self) -> Self {
        self.balancing = false;
        self
    }

    /// Returns `self` unchanged: round planning is single-threaded, so there
    /// is no worker count left to set. Kept only because the repository
    /// benchmark (`crates/bench/src/bin/benchmark/workloads.rs`) still calls
    /// it; it goes when that call does.
    #[doc(hidden)]
    pub fn with_planning_workers(self, _workers: usize) -> Self {
        self
    }

    /// Overrides the migration retry budget (builder-style): at most
    /// `retries` attempts after the first failure.
    pub fn with_migration_retries(mut self, retries: u32) -> Self {
        self.max_migration_retries = retries;
        self
    }

    /// Disables lazy plan settling (builder-style), forcing every server to
    /// re-plan every round. Used by the differential tests (lazy vs eager
    /// byte-equality) and by benchmarks that must isolate other costs.
    pub fn without_lazy_planning(mut self) -> Self {
        self.lazy_planning = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_mechanisms() {
        let c = GfairConfig::default();
        assert!(c.trading && c.balancing);
        assert_eq!(c.policy, PolicyId::Gfair);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PolicyId::ALL {
            assert_eq!(PolicyId::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PolicyId::parse("no-such-policy"), None);
    }

    #[test]
    fn policy_builders() {
        let c = GfairConfig::default().with_policy(PolicyId::GavelHetero);
        assert_eq!(c.policy, PolicyId::GavelHetero);
        let c = GfairConfig::default().with_themis(SimDuration::from_mins(5), 0.25);
        assert_eq!(c.themis_lease, SimDuration::from_mins(5));
        assert_eq!(c.themis_filter, 0.25);
    }

    #[test]
    fn builders_toggle_mechanisms() {
        let c = GfairConfig::default().without_trading();
        assert!(!c.trading);
        assert!(c.balancing);
        let c = GfairConfig::default().without_balancing();
        assert!(!c.balancing);
        let c = GfairConfig::default().with_migration_retries(5);
        assert_eq!(c.max_migration_retries, 5);
        assert!(GfairConfig::default().lazy_planning);
        let c = GfairConfig::default().without_lazy_planning();
        assert!(!c.lazy_planning);
    }
}
