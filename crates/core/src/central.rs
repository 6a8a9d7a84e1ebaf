//! The Gandiva_fair scheduler: the paper's [`TicketTrading`] economy run by
//! the shared [`PolicyScheduler`] driver.
//!
//! ## Decision flow per round
//!
//! 1. Refresh entitlements if the active user set changed or the trade
//!    interval elapsed; re-run the trading market on refresh.
//! 2. If the balance interval elapsed, plan migrations (profiling /
//!    realization / spreading passes).
//! 3. Re-issue failed migrations whose backoff expired, then re-place
//!    pending jobs.
//! 4. Sync every local scheduler with residency (excluding jobs that are
//!    about to migrate) and with user weights = the user's post-trade
//!    entitlement on that server's generation, and collect each server's
//!    gang-aware stride selection into the round plan.
//!
//! Failed migrations are retried by the driver, as for every policy:
//! exponential backoff and generation re-targeting, bounded by
//! `GfairConfig::max_migration_retries`.

use crate::config::GfairConfig;
use crate::policy::{PolicyScheduler, TicketTrading};

/// The Gandiva_fair cluster scheduler: [`PolicyScheduler`] driving
/// [`TicketTrading`]. The type only names that combination; it has no
/// values, and [`GandivaFair::new`] returns the driver itself.
///
/// # Examples
///
/// ```no_run
/// use gfair_core::{GandivaFair, GfairConfig};
/// use gfair_sim::Simulation;
/// use gfair_types::{ClusterSpec, SimConfig, UserSpec};
///
/// let cluster = ClusterSpec::paper_testbed();
/// let users = UserSpec::equal_users(4, 100);
/// let trace = vec![]; // build with gfair-workloads
/// let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
/// let mut sched = GandivaFair::new(GfairConfig::default());
/// let report = sim.run(&mut sched).unwrap();
/// ```
#[derive(Debug)]
pub enum GandivaFair {}

impl GandivaFair {
    /// Creates the scheduler with the given policy configuration.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(cfg: GfairConfig) -> PolicyScheduler<TicketTrading> {
        PolicyScheduler::new(TicketTrading::new(&cfg), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_sim::Simulation;
    use gfair_types::{
        ClusterSpec, GenId, JobId, JobSpec, ModelProfile, SimConfig, SimTime, UserId, UserSpec,
    };
    use std::sync::Arc;

    fn mono_model() -> Arc<ModelProfile> {
        Arc::new(ModelProfile::with_default_overheads("uni", vec![1.0]))
    }

    fn job(id: u32, user: u32, gang: u32, service: f64, at: u64) -> JobSpec {
        JobSpec::new(
            JobId::new(id),
            UserId::new(user),
            mono_model(),
            gang,
            service,
            SimTime::from_secs(at),
        )
    }

    #[test]
    fn single_job_completes_promptly() {
        let sim = Simulation::new(
            ClusterSpec::homogeneous(2, 4),
            UserSpec::equal_users(1, 100),
            vec![job(0, 0, 2, 600.0, 0)],
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim.run(&mut sched).unwrap();
        assert_eq!(report.finished_jobs(), 1);
        assert_eq!(
            report.jobs[&JobId::new(0)].finish,
            Some(SimTime::from_secs(600))
        );
    }

    #[test]
    fn equal_users_get_equal_gpu_time_under_contention() {
        // 1 server x 4 GPUs, 2 users x 4 single-GPU long jobs each.
        let mut trace = Vec::new();
        for u in 0..2u32 {
            for k in 0..4u32 {
                trace.push(job(u * 4 + k, u, 1, 50_000.0, 0));
            }
        }
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            UserSpec::equal_users(2, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(4 * 3600))
            .unwrap();
        let a = report.gpu_secs_of(UserId::new(0));
        let b = report.gpu_secs_of(UserId::new(1));
        assert!(
            (a - b).abs() / a.max(b) < 0.02,
            "unequal GPU time: {a} vs {b}"
        );
        // Work conservation: the server never idles.
        assert!(report.utilization() > 0.99, "util {}", report.utilization());
    }

    #[test]
    fn ticket_ratio_is_respected() {
        let users = vec![
            UserSpec::new(UserId::new(0), "big", 300),
            UserSpec::new(UserId::new(1), "small", 100),
        ];
        let mut trace = Vec::new();
        for u in 0..2u32 {
            for k in 0..4u32 {
                trace.push(job(u * 4 + k, u, 1, 50_000.0, 0));
            }
        }
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            users,
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(4 * 3600))
            .unwrap();
        let ratio = report.gpu_secs_of(UserId::new(0)) / report.gpu_secs_of(UserId::new(1));
        assert!(
            (ratio - 3.0).abs() < 0.25,
            "expected 3x GPU time for 3x tickets, got {ratio}"
        );
    }

    #[test]
    fn idle_user_capacity_goes_to_active_users() {
        // User 1 has tickets but no jobs; user 0 must get the whole cluster.
        let users = UserSpec::equal_users(2, 100);
        let trace = vec![job(0, 0, 4, 10_000.0, 0)];
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            users,
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim.run_until(&mut sched, SimTime::from_secs(3600)).unwrap();
        assert!(report.utilization() > 0.99);
        assert!((report.gpu_secs_of(UserId::new(0)) - 4.0 * 3600.0).abs() < 60.0);
    }

    #[test]
    fn gangs_are_packed_across_servers() {
        // Two 4-GPU servers; four 2-GPU jobs must spread and all run.
        let trace: Vec<JobSpec> = (0..4).map(|i| job(i, 0, 2, 100_000.0, 0)).collect();
        let sim = Simulation::new(
            ClusterSpec::homogeneous(2, 4),
            UserSpec::equal_users(1, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim.run_until(&mut sched, SimTime::from_secs(1800)).unwrap();
        assert!(report.utilization() > 0.99, "util {}", report.utilization());
    }

    #[test]
    fn profiling_migrations_learn_cross_generation_rates() {
        let model = Arc::new(ModelProfile::new(
            "learnme",
            vec![1.0, 2.0, 4.0],
            gfair_types::SimDuration::from_secs(10),
            gfair_types::SimDuration::from_secs(10),
        ));
        let cluster = ClusterSpec::build(
            gfair_types::GenCatalog::k80_p100_v100(),
            &[("K80", 2, 4), ("P100", 1, 4), ("V100", 1, 4)],
        );
        let trace = vec![JobSpec::new(
            JobId::new(0),
            UserId::new(0),
            model,
            1,
            1_000_000.0,
            SimTime::ZERO,
        )];
        let sim = Simulation::new(
            cluster,
            UserSpec::equal_users(1, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let _ = sim
            .run_until(&mut sched, SimTime::from_secs(4 * 3600))
            .unwrap();
        let profiler = sched.profiler().unwrap();
        let model = profiler.model_id("learnme").unwrap();
        // The job was migrated around until every generation was profiled.
        for g in 0..3u32 {
            assert!(
                profiler.is_profiled(model, GenId::new(g)),
                "generation {g} never profiled"
            );
        }
        let s = profiler
            .speedup(model, GenId::new(2), GenId::new(0))
            .unwrap();
        assert!((s - 4.0).abs() < 0.5, "V100 speedup estimate {s}");
    }

    #[test]
    fn trading_moves_fast_gpus_to_high_speedup_user() {
        // User 0 runs low-speedup jobs, user 1 high-speedup jobs, cluster
        // has scarce V100s: after profiling, trades must fire and user 1
        // must end up consuming more V100 time than user 0.
        let low = Arc::new(ModelProfile::new(
            "low",
            vec![1.0, 1.1, 1.2],
            gfair_types::SimDuration::from_secs(5),
            gfair_types::SimDuration::from_secs(5),
        ));
        let high = Arc::new(ModelProfile::new(
            "high",
            vec![1.0, 2.5, 5.0],
            gfair_types::SimDuration::from_secs(5),
            gfair_types::SimDuration::from_secs(5),
        ));
        let cluster = ClusterSpec::build(
            gfair_types::GenCatalog::k80_p100_v100(),
            &[("K80", 4, 4), ("V100", 1, 4)],
        );
        // Oversubscribed: each user's demand (16 GPUs) exceeds their fair
        // share (10 GPUs) — the regime where trading fires. Under-demanded
        // users correctly refuse to sell (tested in trade.rs).
        let mut trace = Vec::new();
        for k in 0..16u32 {
            trace.push(JobSpec::new(
                JobId::new(k),
                UserId::new(0),
                Arc::clone(&low),
                1,
                1_000_000.0,
                SimTime::ZERO,
            ));
            trace.push(JobSpec::new(
                JobId::new(100 + k),
                UserId::new(1),
                Arc::clone(&high),
                1,
                1_000_000.0,
                SimTime::ZERO,
            ));
        }
        let sim = Simulation::new(
            cluster,
            UserSpec::equal_users(2, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = GandivaFair::new(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(6 * 3600))
            .unwrap();
        assert!(
            !sched.trades().is_empty(),
            "no trades fired despite profiled speedup gap"
        );
        // The catalog has three generations; this cluster populates K80
        // (gen 0) and V100 (gen 2).
        let v100 = GenId::new(2);
        let low_v100 = report
            .user_gen_gpu_secs
            .get(&(UserId::new(0), v100))
            .copied()
            .unwrap_or(0.0);
        let high_v100 = report
            .user_gen_gpu_secs
            .get(&(UserId::new(1), v100))
            .copied()
            .unwrap_or(0.0);
        assert!(
            high_v100 > low_v100 * 1.5,
            "V100 time did not shift to the high-speedup user: low {low_v100}, high {high_v100}"
        );
    }
}
