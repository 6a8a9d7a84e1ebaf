//! The scheduler interface: how policies plug into the simulator.
//!
//! A cluster scheduler is driven by engine callbacks. Mid-round callbacks
//! (arrival, finish, migration-done, profile report) return [`Action`]s that
//! the engine *queues* and applies at the next round boundary, so all state
//! changes happen at quantum edges — matching the paper's round-based
//! suspend/resume design and keeping accounting exact. The per-quantum
//! [`RoundPlan`] may also carry actions; those apply immediately, before the
//! plan's run sets are installed and validated.

use crate::view::SimView;
use gfair_types::{GenId, JobId, JobState, MigrationFailReason, ServerId, SimTime};
use std::collections::BTreeMap;

/// A placement or migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Place a pending job on a server (it becomes resident immediately and
    /// can run from the next round plan onward).
    Place {
        /// Job to place.
        job: JobId,
        /// Destination server.
        server: ServerId,
    },
    /// Migrate a resident job to another server. The job is suspended for
    /// its checkpoint+restore cost and becomes resident on the destination
    /// when the migration completes.
    Migrate {
        /// Job to move.
        job: JobId,
        /// Destination server.
        to: ServerId,
    },
}

/// One quantum's scheduling decision.
///
/// The engine keeps one run set per server, the jobs that server runs each
/// quantum, and a plan updates them in one of two forms:
///
/// - **Full** (`changes_only == false`, the default): `run` is the whole
///   decision. A listed server runs its list; a server left out runs
///   nothing. Schedulers that replan every server every round use it.
/// - **Changes-only** (`changes_only == true`): `run` lists exactly the
///   servers whose set was decided this round. A listed server runs its
///   list, an empty list stops it, and a server left out keeps running its
///   last set. A scheduler that knows which servers it touched sends only
///   those.
///
/// Either way every run set must hold at each quantum: jobs listed must be
/// resident on that server, each job runs on at most one server, and the
/// gangs must fit within the server's GPUs. The engine re-checks a set
/// whenever it is installed or its server's residency changed, so a set
/// left in place that a finish or a migration made stale is refused exactly
/// as if it had been sent again.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Jobs to run this quantum, per server, in the form `changes_only`
    /// names.
    pub run: BTreeMap<ServerId, Vec<JobId>>,
    /// Whether `run` holds only the servers whose set changed (see the type
    /// docs); `false` makes `run` the whole decision.
    pub changes_only: bool,
    /// Placements/migrations to apply at this round boundary, before the run
    /// sets are installed. A job placed here may appear in `run`.
    pub actions: Vec<Action>,
}

impl RoundPlan {
    /// An empty full-form plan (nothing runs anywhere).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a job to a server's run set (builder-style convenience).
    pub fn run_on(&mut self, server: ServerId, job: JobId) {
        self.run.entry(server).or_default().push(job);
    }

    /// Total number of jobs listed across all servers.
    pub fn num_running(&self) -> usize {
        self.run.values().map(|v| v.len()).sum()
    }
}

/// A noisy observation of a job's training rate on one GPU generation.
///
/// Emitted by the engine after the job accumulates
/// [`gfair_types::SimConfig::profile_stint`] of runtime on that generation
/// (and again after each further stint, so estimators can average).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileReport {
    /// The profiled job.
    pub job: JobId,
    /// Generation the job was observed on.
    pub gen: GenId,
    /// Observed training rate in minibatches/sec-equivalents. Only *ratios*
    /// between generations are meaningful to a scheduler.
    pub rate: f64,
}

/// A scheduling policy driven by the simulator.
///
/// All callbacks receive a read-only [`SimView`] of cluster state. The
/// default implementations of the optional callbacks do nothing.
pub trait ClusterScheduler {
    /// Human-readable policy name, used in reports.
    fn name(&self) -> &'static str;

    /// Called when a job is submitted. Returned actions are queued and
    /// applied at the next round boundary.
    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action>;

    /// Called when a job completes. Returned actions are queued.
    fn on_job_finish(&mut self, _view: &SimView<'_>, _job: JobId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when a migration completes and the job is resident on its
    /// destination. Returned actions are queued.
    fn on_migration_done(&mut self, _view: &SimView<'_>, _job: JobId) -> Vec<Action> {
        Vec::new()
    }

    /// Called for each job evicted by a server failure (the job is back in
    /// the `Pending` state with its training progress intact — DLT jobs
    /// restart from their last checkpoint). The default treats eviction
    /// like a fresh arrival, so every scheduler re-places evicted jobs.
    fn on_job_evicted(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.on_job_arrival(view, job)
    }

    /// Called when a migration attempt (or a placement decision that could
    /// not be delivered) fails. `to` is the intended destination and
    /// `reason` says which stage broke; the job's current state tells the
    /// scheduler where it ended up — still resident at its source
    /// (checkpoint failure, unreachable target) or back in the pending
    /// queue (restore failure, destination down).
    ///
    /// The default re-dispatches jobs that landed back in the queue through
    /// [`on_job_evicted`](Self::on_job_evicted) and leaves still-resident
    /// jobs alone, so baselines without a retry policy never lose a job.
    fn on_migration_failed(
        &mut self,
        view: &SimView<'_>,
        job: JobId,
        _to: ServerId,
        _reason: MigrationFailReason,
    ) -> Vec<Action> {
        if view.job(job).map(|j| j.state) == Some(JobState::Pending) {
            self.on_job_evicted(view, job)
        } else {
            Vec::new()
        }
    }

    /// Called when the central scheduler loses contact with `server`'s
    /// local scheduler. The server keeps running its last-received state;
    /// decisions targeting it will be dropped until it heals.
    fn on_partition(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when connectivity to a partitioned server is restored and the
    /// scheduler should reconcile any state that went stale.
    fn on_partition_heal(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called after a server fails (its jobs have already been evicted and
    /// re-dispatched through [`on_job_evicted`](Self::on_job_evicted)).
    fn on_server_down(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when a failed server comes back online.
    fn on_server_up(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when the profiler observes a job's rate on a generation.
    /// Returned actions are queued.
    fn on_profile_report(&mut self, _view: &SimView<'_>, _report: &ProfileReport) -> Vec<Action> {
        Vec::new()
    }

    /// Called once per quantum: decide which resident jobs run this round,
    /// as a full plan or as the changes since the last one (see
    /// [`RoundPlan`]).
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan;

    /// Unused: the engine steps every quantum. The next three methods are
    /// kept only because the repository benchmark's `TimedScheduler` still
    /// forwards them; they go with the next benchmark refresh.
    #[doc(hidden)]
    fn next_decision_time(&self) -> Option<SimTime> {
        None
    }

    /// Unused; see [`next_decision_time`](Self::next_decision_time).
    #[doc(hidden)]
    fn probe_fast_forward(&mut self, _view: &SimView<'_>, _plan: &RoundPlan, _k: u64) -> u64 {
        0
    }

    /// Unused; see [`next_decision_time`](Self::next_decision_time).
    #[doc(hidden)]
    fn commit_fast_forward(&mut self, _j: u64) {}

    /// Per-user tickets backing the plan just produced, reported for
    /// tracing and audit (the auditor checks that tickets sum to the
    /// cluster's GPU supply). Policies without a per-user ticket economy
    /// return an empty list, which disables the check.
    fn user_shares(&self, _view: &SimView<'_>) -> Vec<gfair_obs::UserShare> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_plan_builder() {
        let mut p = RoundPlan::empty();
        assert_eq!(p.num_running(), 0);
        p.run_on(ServerId::new(0), JobId::new(1));
        p.run_on(ServerId::new(0), JobId::new(2));
        p.run_on(ServerId::new(3), JobId::new(7));
        assert_eq!(p.num_running(), 3);
        assert_eq!(p.run[&ServerId::new(0)], vec![JobId::new(1), JobId::new(2)]);
    }

    #[test]
    fn actions_are_comparable() {
        let a = Action::Place {
            job: JobId::new(1),
            server: ServerId::new(2),
        };
        let b = Action::Place {
            job: JobId::new(1),
            server: ServerId::new(2),
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            Action::Migrate {
                job: JobId::new(1),
                to: ServerId::new(2)
            }
        );
    }
}
