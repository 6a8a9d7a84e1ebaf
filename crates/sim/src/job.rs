//! Runtime job state and the scheduler-visible job view.
//!
//! `JobRt` is the engine's private per-job record including ground truth
//! (true rates, exact progress). [`JobInfo`] is the subset a scheduler may
//! see; [`JobRecord`] is the per-job line in the final report.

use gfair_types::{
    GenId, JobId, JobSpec, JobState, ModelId, ServerId, SimDuration, SimTime, UserId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scheduler-visible job metadata.
///
/// Deliberately excludes the model's true per-generation rates: schedulers
/// learn speedups only from [`crate::ProfileReport`]s, mirroring the paper's
/// transparent profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// Job identifier.
    pub id: JobId,
    /// Owning user.
    pub user: UserId,
    /// Gang size (GPUs needed simultaneously).
    pub gang: u32,
    /// The job's model: its name's rank among the trace's distinct model
    /// names in `str` order, an opaque label to schedulers
    /// ([`crate::SimView::model_name`] maps it back to the name).
    /// Per-model tables index by it.
    pub model_id: ModelId,
    /// Checkpoint + restore outage if the job is migrated.
    pub migration_cost: SimDuration,
    /// Submission time.
    pub arrival: SimTime,
    /// Current lifecycle state.
    pub state: JobState,
    /// Server the job is resident on (or migrating to), if placed.
    pub server: Option<ServerId>,
    /// When the job last completed a migration, if ever (lets schedulers
    /// honor migration cooldowns).
    pub last_migration: Option<SimTime>,
    /// Rounds the job sat in its server's run set: the quanta it was
    /// served, counted at accrual. Rounds are capped at ten million, so
    /// the count cannot overflow.
    pub rounds_run: u32,
}

/// Engine-private runtime state of a job.
#[derive(Debug, Clone)]
pub(crate) struct JobRt {
    /// Immutable spec, including ground-truth rates.
    pub spec: JobSpec,
    /// Scheduler-visible view, kept in sync by the engine.
    pub info: JobInfo,
    /// Per-GPU progress in base-generation seconds (completion at
    /// `spec.service_secs`).
    pub progress: f64,
    /// True if a `Finish` event has been scheduled for this job.
    pub finishing: bool,
    /// First time the job ran, if ever (for queueing-delay stats).
    pub first_run: Option<SimTime>,
    /// Completion time, when finished.
    pub finish: Option<SimTime>,
    /// Number of times this job was migrated.
    pub migrations: u32,
    /// Migration attempts started, successful or not (keys the fault
    /// injector's order-independent draws).
    pub attempts: u32,
    /// The in-flight migration is fated to fail at the restore stage (the
    /// draw happens at departure so the whole attempt uses one key).
    pub restore_fail: bool,
    /// Source server of the in-flight migration, for failure reporting.
    pub migrating_from: Option<ServerId>,
    /// The engine's round serial in which the job counts as warm: set to
    /// the next round's serial whenever it runs (see the engine's
    /// `warm_serial`). Zero never matches a serial.
    pub warm: u64,
}

impl JobRt {
    /// Creates runtime state for a newly arrived job whose model has id
    /// `model_id`.
    pub fn new(spec: JobSpec, model_id: ModelId) -> Self {
        let info = JobInfo {
            id: spec.id,
            user: spec.user,
            gang: spec.gang,
            model_id,
            migration_cost: spec.model.migration_cost(),
            arrival: spec.arrival,
            state: JobState::Pending,
            server: None,
            last_migration: None,
            rounds_run: 0,
        };
        JobRt {
            spec,
            info,
            progress: 0.0,
            finishing: false,
            first_run: None,
            finish: None,
            migrations: 0,
            attempts: 0,
            restore_fail: false,
            migrating_from: None,
            warm: 0,
        }
    }

    /// Remaining per-GPU service in base-generation seconds.
    pub fn remaining(&self) -> f64 {
        (self.spec.service_secs - self.progress).max(0.0)
    }

    /// True rate on generation `gen` (engine-side only).
    pub fn true_rate(&self, gen: GenId) -> f64 {
        self.spec.model.rate(gen)
    }
}

/// Dense job table indexed by `JobId::index()`.
///
/// Job ids in a trace are minted sequentially, so a slab beats a tree:
/// `jobs[id]` sits on every hot path (arrival placement, per-grant accrual,
/// view queries), where a tree descent over tens of thousands of jobs
/// dominates. Sparse ids still work — absent slots simply hold `None`.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobTable {
    slots: Vec<Option<JobRt>>,
    len: usize,
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Number of jobs present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Inserts `job` under `id`, returning the previous occupant if any.
    pub fn insert(&mut self, id: JobId, job: JobRt) -> Option<JobRt> {
        let i = id.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(job);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The job under `id`, if present.
    pub fn get(&self, id: JobId) -> Option<&JobRt> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the job under `id`, if present.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut JobRt> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// All (id, job) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobRt)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|j| (JobId::new(i as u32), j)))
    }

    /// Consumes the table, yielding (id, job) pairs in id order.
    pub fn into_iter(self) -> impl Iterator<Item = (JobId, JobRt)> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|j| (JobId::new(i as u32), j)))
    }
}

impl std::ops::Index<JobId> for JobTable {
    type Output = JobRt;
    fn index(&self, id: JobId) -> &JobRt {
        self.get(id).expect("unknown job id")
    }
}

/// Per-job line in the final [`crate::SimReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job identifier.
    pub id: JobId,
    /// Owning user.
    pub user: UserId,
    /// Model name.
    pub model: String,
    /// Gang size.
    pub gang: u32,
    /// Per-GPU service demand in base-generation seconds.
    pub service_secs: f64,
    /// Submission time.
    pub arrival: SimTime,
    /// First time the job ran, if it ever ran.
    pub first_run: Option<SimTime>,
    /// Completion time, if it finished before the horizon.
    pub finish: Option<SimTime>,
    /// GPU-seconds consumed per generation.
    pub gpu_secs_by_gen: BTreeMap<GenId, f64>,
    /// Number of migrations the job underwent.
    pub migrations: u32,
}

impl JobRecord {
    /// Job completion time (finish − arrival), if finished.
    pub fn jct(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.saturating_since(self.arrival))
    }

    /// Queueing delay before the first run, if the job ever ran.
    pub fn queue_delay(&self) -> Option<SimDuration> {
        self.first_run.map(|f| f.saturating_since(self.arrival))
    }

    /// Total GPU-seconds consumed across generations.
    pub fn total_gpu_secs(&self) -> f64 {
        self.gpu_secs_by_gen.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_types::ModelProfile;
    use std::sync::Arc;

    fn rt() -> JobRt {
        let model = Arc::new(ModelProfile::with_default_overheads(
            "ResNet-50",
            vec![1.0, 2.0, 4.0],
        ));
        JobRt::new(
            JobSpec::new(
                JobId::new(1),
                UserId::new(2),
                model,
                4,
                3600.0,
                SimTime::from_secs(100),
            ),
            ModelId::new(0),
        )
    }

    #[test]
    fn new_job_is_pending_and_unplaced() {
        let j = rt();
        assert_eq!(j.info.state, JobState::Pending);
        assert_eq!(j.info.server, None);
        assert_eq!(j.progress, 0.0);
        assert_eq!(j.remaining(), 3600.0);
    }

    #[test]
    fn info_mirrors_spec() {
        let j = rt();
        assert_eq!(j.info.id, JobId::new(1));
        assert_eq!(j.info.user, UserId::new(2));
        assert_eq!(j.info.gang, 4);
        assert_eq!(j.info.model_id, ModelId::new(0));
        assert_eq!(j.info.migration_cost, SimDuration::from_secs(60));
    }

    #[test]
    fn remaining_clamps_at_zero() {
        let mut j = rt();
        j.progress = 4000.0;
        assert_eq!(j.remaining(), 0.0);
    }

    #[test]
    fn record_jct_and_queue_delay() {
        let rec = JobRecord {
            id: JobId::new(1),
            user: UserId::new(0),
            model: "m".into(),
            gang: 2,
            service_secs: 100.0,
            arrival: SimTime::from_secs(10),
            first_run: Some(SimTime::from_secs(70)),
            finish: Some(SimTime::from_secs(250)),
            gpu_secs_by_gen: BTreeMap::from([(GenId::new(0), 360.0)]),
            migrations: 1,
        };
        assert_eq!(rec.jct(), Some(SimDuration::from_secs(240)));
        assert_eq!(rec.queue_delay(), Some(SimDuration::from_secs(60)));
        assert_eq!(rec.total_gpu_secs(), 360.0);
    }

    #[test]
    fn unfinished_record_has_no_jct() {
        let rec = JobRecord {
            id: JobId::new(1),
            user: UserId::new(0),
            model: "m".into(),
            gang: 1,
            service_secs: 100.0,
            arrival: SimTime::ZERO,
            first_run: None,
            finish: None,
            gpu_secs_by_gen: BTreeMap::new(),
            migrations: 0,
        };
        assert_eq!(rec.jct(), None);
        assert_eq!(rec.queue_delay(), None);
        assert_eq!(rec.total_gpu_secs(), 0.0);
    }
}
