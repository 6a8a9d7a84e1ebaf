//! Simulation output: per-job records, per-user accounting, time series.
//!
//! The report is the single artifact experiments consume. It contains raw
//! GPU-seconds as well as *base-generation-equivalent* service (GPU-seconds
//! weighted by the job's true speedup on the generation it ran on), which is
//! the currency in which heterogeneity-aware fairness is judged.

use crate::job::JobRecord;
use gfair_obs::ObsSummary;
use gfair_types::{GenId, JobId, SimDuration, SimTime, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accounting for one reporting window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowSample {
    /// Window start time.
    pub start: SimTime,
    /// Raw GPU-seconds received per user in this window.
    pub user_gpu_secs: BTreeMap<UserId, f64>,
    /// Base-generation-equivalent GPU-seconds per user (speedup-weighted).
    pub user_base_secs: BTreeMap<UserId, f64>,
    /// Raw GPU-seconds dispensed across all servers.
    pub used_gpu_secs: f64,
    /// GPU-seconds of capacity in the window (total GPUs x window length).
    pub capacity_gpu_secs: f64,
}

impl WindowSample {
    /// Fraction of raw GPU capacity used in this window.
    pub fn utilization(&self) -> f64 {
        if self.capacity_gpu_secs <= 0.0 {
            0.0
        } else {
            self.used_gpu_secs / self.capacity_gpu_secs
        }
    }
}

/// Complete results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: String,
    /// Time at which the simulation ended (all jobs done, or the horizon).
    pub end: SimTime,
    /// Number of scheduling rounds executed.
    pub rounds: u64,
    /// Per-job records, in id order.
    pub jobs: BTreeMap<JobId, JobRecord>,
    /// Raw GPU-seconds per user over the whole run.
    pub user_gpu_secs: BTreeMap<UserId, f64>,
    /// Base-generation-equivalent GPU-seconds per user over the whole run.
    pub user_base_secs: BTreeMap<UserId, f64>,
    /// Raw GPU-seconds per (user, generation).
    ///
    /// Serialized as a list of `[user, gen, secs]` entries — JSON objects
    /// cannot have tuple keys.
    #[serde(with = "tuple_key_map")]
    pub user_gen_gpu_secs: BTreeMap<(UserId, GenId), f64>,
    /// Raw GPU-seconds dispensed per server (for load-balance analysis).
    pub server_gpu_secs: BTreeMap<gfair_types::ServerId, f64>,
    /// Windowed time series of shares and utilization.
    pub timeseries: Vec<WindowSample>,
    /// Total migrations performed.
    pub migrations: u32,
    /// Total job outage time spent in checkpoint/restore.
    pub migration_outage: SimDuration,
    /// Raw GPU-seconds dispensed over the run.
    pub gpu_secs_used: f64,
    /// Raw GPU-second capacity over the run (total GPUs x end time).
    pub gpu_secs_capacity: f64,
    /// Number of profile reports delivered to the scheduler.
    pub profile_reports: u64,
    /// Migrations that were skipped because the job had finished or moved
    /// by the time the decision was applied, or because the decision raced
    /// a server failure / targeted a partitioned server and could not be
    /// delivered.
    pub stale_migrations: u32,
    /// Migration attempts that started (or were decided) but failed —
    /// checkpoint write, restore, destination lost mid-flight, or
    /// undeliverable across a partition. Zero unless faults are injected.
    pub migration_failures: u32,
    /// Deterministic observability snapshot (event counts, counters,
    /// gauges, histograms, auditor findings). `None` only for reports
    /// deserialized from runs predating the observability layer.
    pub obs: Option<ObsSummary>,
}

impl SimReport {
    /// Overall raw GPU utilization of the run.
    pub fn utilization(&self) -> f64 {
        if self.gpu_secs_capacity <= 0.0 {
            0.0
        } else {
            self.gpu_secs_used / self.gpu_secs_capacity
        }
    }

    /// Job completion times of all finished jobs, in id order.
    pub fn jcts(&self) -> Vec<SimDuration> {
        self.jobs.values().filter_map(|j| j.jct()).collect()
    }

    /// Number of jobs that finished before the horizon.
    pub fn finished_jobs(&self) -> usize {
        self.jobs.values().filter(|j| j.finish.is_some()).count()
    }

    /// Makespan: completion time of the last finished job, if any finished.
    pub fn makespan(&self) -> Option<SimTime> {
        self.jobs.values().filter_map(|j| j.finish).max()
    }

    /// Total base-equivalent service dispensed (the cluster-efficiency
    /// currency: how much "slowest-GPU work" the cluster got done).
    pub fn total_base_secs(&self) -> f64 {
        self.user_base_secs.values().sum()
    }

    /// Raw GPU-seconds received by `user` (0.0 if the user never ran).
    pub fn gpu_secs_of(&self, user: UserId) -> f64 {
        self.user_gpu_secs.get(&user).copied().unwrap_or(0.0)
    }

    /// Base-equivalent GPU-seconds received by `user`.
    pub fn base_secs_of(&self, user: UserId) -> f64 {
        self.user_base_secs.get(&user).copied().unwrap_or(0.0)
    }
}

/// Serde adapter for maps keyed by `(UserId, GenId)`: JSON object keys must
/// be strings, so the map round-trips through a sequence of triples.
mod tuple_key_map {
    use gfair_types::{GenId, UserId};
    use serde::{DeError, Deserialize, Deserializer, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize(
        map: &BTreeMap<(UserId, GenId), f64>,
        s: &mut Serializer,
    ) -> Result<(), DeError> {
        s.begin_array();
        for (&(u, g), v) in map {
            s.element(&(u, g, v))?;
        }
        s.end_array();
        Ok(())
    }

    pub fn deserialize(
        d: &mut Deserializer<'_>,
    ) -> Result<BTreeMap<(UserId, GenId), f64>, DeError> {
        let entries = Vec::<(UserId, GenId, f64)>::deserialize(d)?;
        Ok(entries.into_iter().map(|(u, g, v)| ((u, g), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> SimReport {
        SimReport {
            scheduler: "test".into(),
            end: SimTime::from_secs(100),
            rounds: 0,
            jobs: BTreeMap::new(),
            user_gpu_secs: BTreeMap::new(),
            user_base_secs: BTreeMap::new(),
            user_gen_gpu_secs: BTreeMap::new(),
            server_gpu_secs: BTreeMap::new(),
            timeseries: Vec::new(),
            migrations: 0,
            migration_outage: SimDuration::ZERO,
            gpu_secs_used: 0.0,
            gpu_secs_capacity: 0.0,
            profile_reports: 0,
            stale_migrations: 0,
            migration_failures: 0,
            obs: None,
        }
    }

    #[test]
    fn utilization_handles_zero_capacity() {
        let r = empty_report();
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn utilization_ratio() {
        let mut r = empty_report();
        r.gpu_secs_used = 50.0;
        r.gpu_secs_capacity = 200.0;
        assert!((r.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn window_utilization() {
        let w = WindowSample {
            start: SimTime::ZERO,
            user_gpu_secs: BTreeMap::new(),
            user_base_secs: BTreeMap::new(),
            used_gpu_secs: 30.0,
            capacity_gpu_secs: 60.0,
        };
        assert!((w.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(WindowSample::default().utilization(), 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = empty_report();
        r.user_gen_gpu_secs
            .insert((UserId::new(1), gfair_types::GenId::new(2)), 12.5);
        r.user_gen_gpu_secs
            .insert((UserId::new(0), gfair_types::GenId::new(1)), 3.0);
        r.gpu_secs_used = 12.5;
        let json = serde_json::to_string(&r).expect("report serializes");
        assert_eq!(
            json,
            "{\"scheduler\":\"test\",\"end\":100000000,\"rounds\":0,\"jobs\":{},\
             \"user_gpu_secs\":{},\"user_base_secs\":{},\
             \"user_gen_gpu_secs\":[[0,1,3.0],[1,2,12.5]],\"server_gpu_secs\":{},\
             \"timeseries\":[],\"migrations\":0,\"migration_outage\":0,\
             \"gpu_secs_used\":12.5,\"gpu_secs_capacity\":0.0,\"profile_reports\":0,\
             \"stale_migrations\":0,\"migration_failures\":0,\"obs\":null}"
        );
        let back: SimReport = serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(back, r);
    }

    #[test]
    fn per_user_lookups_default_to_zero() {
        let r = empty_report();
        assert_eq!(r.gpu_secs_of(UserId::new(9)), 0.0);
        assert_eq!(r.base_secs_of(UserId::new(9)), 0.0);
        assert_eq!(r.finished_jobs(), 0);
        assert_eq!(r.makespan(), None);
        assert!(r.jcts().is_empty());
    }
}
