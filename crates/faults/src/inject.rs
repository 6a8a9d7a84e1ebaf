//! The runtime half of fault injection: deterministic per-attempt draws.
//!
//! [`FaultInjector`] answers one question for the engine — "does this
//! migration attempt fault, and how?" — using a counter-based hash keyed on
//! `(seed, job, attempt)`. Because the draw depends only on that key, the
//! answer is independent of event interleaving and planner thread count,
//! which is what keeps fault runs byte-deterministic.

use crate::plan::{FaultKind, FaultPlan, PartitionWindow};
use gfair_types::{JobId, ServerId, SimTime};

/// The outcome of a faulted migration attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationFault {
    /// The checkpoint write fails; the job never leaves its source.
    Checkpoint,
    /// The restore fails after the transfer; the job is re-queued.
    Restore,
    /// The migration succeeds but its outage is multiplied by this factor.
    Slowdown(f64),
}

/// Interprets a [`FaultPlan`] at runtime.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a validated plan. Panics if the plan fails
    /// [`FaultPlan::validate`]; parse or construct plans through the
    /// checked paths first.
    pub fn new(plan: FaultPlan) -> Self {
        let errs = plan.validate();
        assert!(errs.is_empty(), "invalid fault plan: {}", errs.join("; "));
        FaultInjector { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Partition windows, in plan order.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.plan.partitions
    }

    /// Expands flap specs into a flat `(time, server, is_failure)` list for
    /// the engine to feed its event queue. The list is in plan order, not
    /// time order; the event queue supplies the total order.
    pub fn server_events(&self) -> Vec<(SimTime, ServerId, bool)> {
        (self.plan.flaps.iter())
            .flat_map(|f| {
                (f.outages()).flat_map(|(fail, recover)| {
                    [(fail, f.server, true), (recover, f.server, false)]
                })
            })
            .collect()
    }

    /// Decides the fate of `job`'s `attempt`-th migration attempt
    /// (attempts are numbered from 1). Scripted faults take precedence;
    /// otherwise a deterministic unit draw is compared against the plan's
    /// cumulative rate thresholds.
    pub fn migration_fault(&self, job: JobId, attempt: u32) -> Option<MigrationFault> {
        for s in &self.plan.scripted {
            if s.job == job && s.attempt == attempt {
                return match s.kind {
                    FaultKind::CheckpointFail => Some(MigrationFault::Checkpoint),
                    FaultKind::RestoreFail => Some(MigrationFault::Restore),
                    FaultKind::MigrationSlowdown => {
                        Some(MigrationFault::Slowdown(self.plan.slowdown_factor))
                    }
                    // validate() rejects windowed kinds in scripts; be
                    // defensive anyway.
                    FaultKind::Partition | FaultKind::ServerFlap => None,
                };
            }
        }
        let total =
            self.plan.checkpoint_fail_rate + self.plan.restore_fail_rate + self.plan.slowdown_rate;
        if total <= 0.0 {
            return None;
        }
        let u = unit_draw(self.plan.seed, job, attempt);
        if u < self.plan.checkpoint_fail_rate {
            Some(MigrationFault::Checkpoint)
        } else if u < self.plan.checkpoint_fail_rate + self.plan.restore_fail_rate {
            Some(MigrationFault::Restore)
        } else if u < total {
            Some(MigrationFault::Slowdown(self.plan.slowdown_factor))
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixer with full avalanche.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic draw in [0, 1) keyed on (seed, job, attempt).
fn unit_draw(seed: u64, job: JobId, attempt: u32) -> f64 {
    let key = (u64::from(job.raw()) << 32) | u64::from(attempt);
    let h = splitmix64(seed ^ splitmix64(key));
    // Top 53 bits → uniform double in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_types::SimDuration;

    #[test]
    fn draws_are_deterministic_and_attempt_sensitive() {
        let a = unit_draw(7, JobId::new(3), 1);
        assert_eq!(a, unit_draw(7, JobId::new(3), 1));
        assert_ne!(a, unit_draw(7, JobId::new(3), 2));
        assert_ne!(a, unit_draw(7, JobId::new(4), 1));
        assert_ne!(a, unit_draw(8, JobId::new(3), 1));
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn rates_partition_the_unit_interval() {
        let inj = FaultInjector::new(
            FaultPlan::default()
                .with_seed(11)
                .with_migration_fail_rates(0.2, 0.2)
                .with_slowdown(0.2, 2.0),
        );
        let mut counts = [0u32; 4]; // checkpoint, restore, slowdown, none
        for j in 0..2000 {
            match inj.migration_fault(JobId::new(j), 1) {
                Some(MigrationFault::Checkpoint) => counts[0] += 1,
                Some(MigrationFault::Restore) => counts[1] += 1,
                Some(MigrationFault::Slowdown(f)) => {
                    assert_eq!(f, 2.0);
                    counts[2] += 1;
                }
                None => counts[3] += 1,
            }
        }
        // Each bucket should land near its expected mass (400/400/400/800).
        for (i, &c) in counts.iter().enumerate() {
            let expected = if i == 3 { 800.0 } else { 400.0 };
            assert!(
                (c as f64 - expected).abs() < 150.0,
                "bucket {i} count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn scripted_faults_override_draws() {
        let inj = FaultInjector::new(
            FaultPlan::default()
                .with_scripted(JobId::new(5), 2, FaultKind::RestoreFail)
                .with_scripted(JobId::new(6), 1, FaultKind::MigrationSlowdown),
        );
        assert_eq!(inj.migration_fault(JobId::new(5), 1), None);
        assert_eq!(
            inj.migration_fault(JobId::new(5), 2),
            Some(MigrationFault::Restore)
        );
        assert_eq!(
            inj.migration_fault(JobId::new(6), 1),
            Some(MigrationFault::Slowdown(3.0))
        );
    }

    #[test]
    fn flaps_expand_to_alternating_events() {
        let inj = FaultInjector::new(FaultPlan::default().with_flap(
            ServerId::new(1),
            SimTime::from_secs(100),
            SimDuration::from_secs(10),
            SimDuration::from_secs(50),
            2,
        ));
        let events = inj.server_events();
        assert_eq!(
            events,
            vec![
                (SimTime::from_secs(100), ServerId::new(1), true),
                (SimTime::from_secs(110), ServerId::new(1), false),
                (SimTime::from_secs(160), ServerId::new(1), true),
                (SimTime::from_secs(170), ServerId::new(1), false),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_rejects_invalid_plans() {
        let _ = FaultInjector::new(FaultPlan::default().with_migration_fail_rates(2.0, 0.0));
    }
}
