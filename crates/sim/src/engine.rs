//! The discrete-event simulation engine.
//!
//! ## Execution model
//!
//! Time advances through four event kinds (see [`crate::event`]). Once per
//! quantum a `Round` event fires and, in order:
//!
//! 1. flushes the reporting window if a boundary was crossed,
//! 2. delivers pending profile reports to the scheduler,
//! 3. applies actions queued by mid-round callbacks,
//! 4. asks the scheduler for a [`RoundPlan`], applies its actions and
//!    installs its run sets (the engine keeps one per server; a
//!    changes-only plan replaces just the sets it lists),
//! 5. validates the run sets (residency, gang fit, overcommit), re-checking
//!    only the sets installed this round and those whose server's
//!    residency changed since their last check,
//! 6. accrues progress for every running job for the quantum (scheduling an
//!    exact-time `Finish` event for jobs that complete mid-round) and
//!    updates per-user accounting.
//!
//! Because every state change lands on a round boundary, progress accrual
//! never needs to be clawed back and accounting is exact.
//!
//! ## Stale decisions
//!
//! A `Migrate` action may race with the job finishing in the same round
//! (the scheduler could not have known); such stale migrations are counted
//! and skipped. All other invalid decisions are hard errors.

use crate::event::{EventKind, EventQueue};
use crate::index::ClusterIndex;
use crate::job::{JobRecord, JobRt, JobTable};
use crate::report::{SimReport, WindowSample};
use crate::sched::{Action, ClusterScheduler, ProfileReport, RoundPlan};
use crate::view::SimView;
use gfair_faults::{FaultInjector, FaultPlan, MigrationFault};
use gfair_obs::{Obs, PackedGang, Phase, SharedObs, TraceEvent};
use gfair_types::{
    ClusterSpec, GfairError, JobId, JobSpec, JobState, MigrationFailReason, ModelId, ModelProfile,
    Result, ServerId, SimConfig, SimDuration, SimTime, UserSpec,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Safety limit on scheduling rounds; prevents schedulers that never place
/// jobs from spinning forever in [`Simulation::run`]. It also bounds every
/// arrival and scheduled event; see [`latest_event_time`].
const MAX_ROUNDS: u64 = 10_000_000;

/// The latest time a run accepts for an arrival or a scheduled event (a
/// ticket change, a server failure or recovery, a fault-plan partition or
/// flap): `MAX_ROUNDS` (ten million) quanta. The engine flushes one report
/// window per `report_window` up to each event it reaches, so a later time
/// would fill the timeseries with empty windows. [`Simulation::new`]
/// rejects later arrivals; the event builders assert the bound.
pub fn latest_event_time(config: &SimConfig) -> SimTime {
    SimTime::from_micros(config.quantum.as_micros().saturating_mul(MAX_ROUNDS))
}

/// Headroom for sparse ids: job and user ids index dense tables, so
/// [`Simulation::new`] accepts an id only below twice the number of jobs
/// (or users) plus this many slots.
const ID_SLACK: usize = 1 << 16;

/// A configured simulation, ready to run one scheduling policy.
pub struct Simulation {
    cluster: ClusterSpec,
    users: Vec<UserSpec>,
    config: SimConfig,
    jobs: JobTable,
    /// Id-sorted resident jobs per server, indexed by `ServerId::index()`.
    residents: Vec<Vec<JobId>>,
    /// Each server's run set, indexed by `ServerId::index()`: the jobs it
    /// runs every quantum until a plan installs another (see [`RoundPlan`]).
    run_sets: Vec<Vec<JobId>>,
    /// The residency version (`ClusterIndex::res_version`) each run set was
    /// last checked against, by server index; `u64::MAX` marks a set
    /// installed since. A set whose entry matches its server's version is
    /// still valid: it was valid then, and nothing it depends on has moved.
    run_checked: Vec<u64>,
    /// Materialized indexes over `jobs`/`residents`, updated on every state
    /// transition so view queries run in O(answer); see [`crate::index`].
    index: ClusterIndex,
    down: BTreeSet<ServerId>,
    /// Servers whose local scheduler the central scheduler cannot currently
    /// reach (they keep running, but decisions targeting them are dropped).
    partitioned: BTreeSet<ServerId>,
    /// |down ∪ partitioned|, maintained across failure/recovery/partition
    /// transitions so the view's reachable count is O(1).
    unreachable: u32,
    /// Total GPUs on online servers, maintained across fail/recover.
    gpus_up: u32,
    /// Fault injector, when a [`FaultPlan`] was attached; `None` keeps the
    /// fault machinery entirely off the hot path.
    faults: Option<FaultInjector>,
    /// Failures and recoveries scheduled outside a fault plan, as
    /// `(time, server, is_failure)`; checked against the plan's flaps when
    /// the run starts.
    server_events: Vec<(SimTime, ServerId, bool)>,
    /// Failed-migration notifications awaiting delivery to the scheduler at
    /// the next round boundary: (job, intended destination, reason).
    pending_fault_notices: Vec<(JobId, ServerId, MigrationFailReason)>,
    queue: EventQueue,
    now: SimTime,
    rng: ChaCha8Rng,
    round_armed: bool,
    pending_actions: Vec<Action>,
    pending_reports: Vec<ProfileReport>,
    // Accounting.
    rounds: u64,
    migrations: u32,
    stale_migrations: u32,
    migration_failures: u32,
    migration_outage: SimDuration,
    gpu_secs_used: f64,
    profile_reports: u64,
    window: WindowSample,
    timeseries: Vec<WindowSample>,
    /// Live accumulation of the current window's per-user maps, kept dense
    /// (indexed by `UserId::index()`) because [`accrue`](Self::accrue) runs
    /// per grant per quantum; folded into [`WindowSample`]'s maps only when
    /// a window closes. An entry belongs to the window iff its raw
    /// GPU-seconds are positive (every accrual adds a positive amount).
    win_user_gpu_secs: Vec<f64>,
    win_user_base_secs: Vec<f64>,
    /// Run-wide accounting, dense for the same reason; converted to the
    /// report's maps in [`finalize`](Self::finalize). The (user, gen) grid
    /// is flattened as `user.index() * num_gens + gen.index()`.
    acct_user_gpu_secs: Vec<f64>,
    acct_user_base_secs: Vec<f64>,
    acct_user_gen_gpu_secs: Vec<f64>,
    acct_server_gpu_secs: Vec<f64>,
    num_gens: usize,
    /// Per-(job, generation) tables, flattened as
    /// `job.index() * num_gens + gen.index()`: runtime accumulated since
    /// the last profile report for that generation, and GPU-seconds
    /// consumed (gang x wall time; folded into each job's report map in
    /// [`finalize`](Self::finalize), where a generation belongs to the map
    /// iff its GPU-seconds are positive).
    stint: Vec<SimDuration>,
    job_gen_gpu_secs: Vec<f64>,
    /// Round serial for switch-overhead accounting: a job whose `warm`
    /// stamp equals it ran in the previous round; any other stamp pays the
    /// suspend/resume overhead before making progress. Accrual stamps each
    /// job it runs with `warm_serial + 1`, and the round then bumps the
    /// serial, invalidating every older stamp at once. It starts at 1 so a
    /// fresh job's zero stamp never reads as warm.
    warm_serial: u64,
    /// Round-stamp per job (by `JobId::index()`) for duplicate-grant
    /// detection while validating a plan's run sets: a job stamped with the
    /// current round number has already been granted this round. Rounds
    /// start at 1, so the vector's default of zero never collides.
    dup_stamp: Vec<u64>,
    /// Reused buffer for the round's validated grants, emitted in batches of
    /// at most [`GRANT_BATCH`].
    grants: Vec<PackedGang>,
    round_limit: u64,
    /// Observability pipeline: every lifecycle and scheduling decision is
    /// emitted through it, and its online auditor can abort the run.
    obs: SharedObs,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("jobs", &self.jobs.len())
            .field("servers", &self.cluster.servers.len())
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation from a cluster, a user population, a trace of
    /// jobs (any order; they are scheduled by arrival time) and a config.
    ///
    /// # Errors
    ///
    /// Returns [`GfairError::InvalidConfig`] if the config fails validation,
    /// the cluster's GPU total does not fit in a `u32`, a user holds zero
    /// tickets, a job's gang is zero or fits no server, a job's service
    /// demand or one of its model's rates is not positive and finite, a job
    /// references an unknown user, a job's model does not cover the
    /// cluster's generation catalog, a job arrives later than 10,000,000
    /// quanta (about 19 years at the default 60 s quantum), or a job or user
    /// id is too sparse. Ids index dense tables, so every job id must be
    /// below `2 × trace.len() + 65536` and every user id below
    /// `2 × users.len() + 65536`: a table can then never be far larger than
    /// the input.
    pub fn new(
        cluster: ClusterSpec,
        users: Vec<UserSpec>,
        trace: Vec<JobSpec>,
        config: SimConfig,
    ) -> Result<Self> {
        let problems = config.validate();
        if !problems.is_empty() {
            return Err(GfairError::InvalidConfig(problems.join("; ")));
        }
        if cluster.checked_total_gpus().is_none() {
            return Err(GfairError::InvalidConfig(format!(
                "the cluster's {} servers hold more than {} GPUs in total",
                cluster.servers.len(),
                u32::MAX
            )));
        }
        let max_gang = cluster.max_gang();
        let user_limit = 2 * users.len() + ID_SLACK;
        if let Some(u) = users.iter().find(|u| u.id.index() >= user_limit) {
            return Err(GfairError::InvalidConfig(format!(
                "user id {} is too sparse for {} users (ids must be below {user_limit})",
                u.id,
                users.len()
            )));
        }
        // `UserSpec::new` refuses zero tickets, but a struct literal or a
        // deserialized spec can carry them, and entitlements divide by
        // tickets once the user is active.
        if let Some(u) = users.iter().find(|u| u.tickets == 0) {
            return Err(GfairError::InvalidConfig(format!(
                "user {} ({}) has zero tickets (a user needs at least one)",
                u.id, u.name
            )));
        }
        let num_users = users.iter().map(|u| u.id.index() + 1).max().unwrap_or(0);
        let mut known_user = vec![false; num_users];
        for u in &users {
            known_user[u.id.index()] = true;
        }
        // Intern model names: one shared `Arc<str>` per distinct name,
        // ranked in `str` order; the rank is the model's `ModelId`. Each
        // job's name is looked up once, borrowed from the trace (no string
        // is copied per job), and numbered in first-seen order; `rank_of`
        // then maps that number to the rank.
        // Generated traces share one profile `Arc` per model, so a short
        // memo keyed by that pointer answers most lookups without comparing
        // strings. It stops growing at `MEMO` entries, which bounds the miss
        // cost for traces whose jobs each own their profile.
        const MEMO: usize = 32;
        let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
        let first_seen: Vec<u32> = {
            let mut memo: Vec<(&Arc<ModelProfile>, u32)> = Vec::with_capacity(MEMO);
            (trace.iter())
                .map(|s| {
                    if let Some(&(_, id)) = memo.iter().find(|(m, _)| Arc::ptr_eq(m, &s.model)) {
                        return id;
                    }
                    let next = seen.len() as u32;
                    let id = *seen.entry(s.model.name.as_str()).or_insert(next);
                    if memo.len() < MEMO {
                        memo.push((&s.model, id));
                    }
                    id
                })
                .collect()
        };
        let mut rank_of = vec![0u32; seen.len()];
        let models: Arc<[Arc<str>]> = (seen.into_iter().enumerate())
            .map(|(rank, (name, first))| {
                rank_of[first as usize] = rank as u32;
                Arc::from(name)
            })
            .collect();
        let trace_len = trace.len();
        let job_limit = 2 * trace_len + ID_SLACK;
        let last_arrival = latest_event_time(&config).as_micros();
        let mut job_slots = 0;
        let mut jobs = JobTable::new();
        let mut arrivals = Vec::new();
        for (spec, first) in trace.into_iter().zip(first_seen) {
            if spec.id.index() >= job_limit {
                return Err(GfairError::InvalidConfig(format!(
                    "job id {} is too sparse for a trace of {trace_len} jobs (ids must be below {job_limit})",
                    spec.id
                )));
            }
            if spec.arrival.as_micros() > last_arrival {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} arrives at {} us, after the last arrival a run accepts ({MAX_ROUNDS} quanta, {last_arrival} us)",
                    spec.id,
                    spec.arrival.as_micros()
                )));
            }
            if spec.gang == 0 {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} has gang 0 (a job needs at least one GPU)",
                    spec.id
                )));
            }
            if spec.gang > max_gang {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} gang {} exceeds the widest server ({max_gang} GPUs)",
                    spec.id, spec.gang
                )));
            }
            if !known_user.get(spec.user.index()).copied().unwrap_or(false) {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} references unknown user {}",
                    spec.id, spec.user
                )));
            }
            if !(spec.service_secs.is_finite() && spec.service_secs > 0.0) {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} service_secs {} is not positive and finite",
                    spec.id, spec.service_secs
                )));
            }
            if let Some((g, rate)) =
                (spec.model.rates.iter().enumerate()).find(|(_, r)| !(r.is_finite() && **r > 0.0))
            {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} model {} has rate {rate} on generation {g} (rates must be positive and finite)",
                    spec.id, spec.model.name
                )));
            }
            if !spec.model.covers(&cluster.catalog) {
                return Err(GfairError::InvalidConfig(format!(
                    "job {} model {} does not cover all {} generations",
                    spec.id,
                    spec.model.name,
                    cluster.catalog.len()
                )));
            }
            arrivals.push((spec.arrival, EventKind::Arrival(spec.id)));
            job_slots = job_slots.max(spec.id.index() + 1);
            let model = ModelId::new(rank_of[first as usize]);
            if jobs.insert(spec.id, JobRt::new(spec, model)).is_some() {
                return Err(GfairError::InvalidConfig(
                    "duplicate job id in trace".to_string(),
                ));
            }
        }
        // Stage the trace instead of front-loading the heap: the heap then
        // only carries the live working set (finishes, migrations, rounds).
        let queue = EventQueue::with_staged(arrivals);
        let index = ClusterIndex::new(&cluster, num_users, models);
        let residents = vec![Vec::new(); index.demand.len()];
        let run_sets = vec![Vec::new(); cluster.servers.len()];
        let run_checked = vec![0; cluster.servers.len()];
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let num_gens = cluster.catalog.len().max(1);
        let gpus_up = cluster.servers.iter().map(|s| s.num_gpus).sum();
        Ok(Simulation {
            cluster,
            users,
            config,
            jobs,
            residents,
            run_sets,
            run_checked,
            index,
            down: BTreeSet::new(),
            partitioned: BTreeSet::new(),
            unreachable: 0,
            gpus_up,
            faults: None,
            server_events: Vec::new(),
            pending_fault_notices: Vec::new(),
            queue,
            now: SimTime::ZERO,
            rng,
            round_armed: false,
            pending_actions: Vec::new(),
            pending_reports: Vec::new(),
            rounds: 0,
            migrations: 0,
            stale_migrations: 0,
            migration_failures: 0,
            migration_outage: SimDuration::ZERO,
            gpu_secs_used: 0.0,
            profile_reports: 0,
            window: WindowSample::default(),
            timeseries: Vec::new(),
            win_user_gpu_secs: Vec::new(),
            win_user_base_secs: Vec::new(),
            acct_user_gpu_secs: Vec::new(),
            acct_user_base_secs: Vec::new(),
            acct_user_gen_gpu_secs: Vec::new(),
            acct_server_gpu_secs: Vec::new(),
            num_gens,
            stint: vec![SimDuration::ZERO; job_slots * num_gens],
            job_gen_gpu_secs: vec![0.0; job_slots * num_gens],
            dup_stamp: Vec::new(),
            grants: Vec::new(),
            warm_serial: 1,
            round_limit: MAX_ROUNDS,
            obs: Arc::new(Obs::new()),
        })
    }

    /// Attaches a shared observability pipeline (trace sinks, metrics, the
    /// invariant auditor). A fresh pipeline with no sinks is used when this
    /// is never called; the auditor is always active either way.
    pub fn with_obs(mut self, obs: SharedObs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability pipeline this simulation emits into.
    pub fn obs(&self) -> SharedObs {
        Arc::clone(&self.obs)
    }

    /// Overrides the round safety limit (mostly for tests). The default,
    /// ten million rounds, is also the most it accepts: a larger `limit`
    /// is clamped to it, so per-job round counts fit in a `u32`.
    pub fn with_round_limit(mut self, limit: u64) -> Self {
        self.round_limit = limit.min(MAX_ROUNDS);
        self
    }

    /// Panics unless `at` is at or before [`latest_event_time`]; `what`
    /// names the event in the message.
    fn assert_before_latest(&self, at: SimTime, what: &str) {
        let latest = latest_event_time(&self.config);
        assert!(
            at <= latest,
            "{what} at {} us is after the latest event time a run accepts ({} us)",
            at.as_micros(),
            latest.as_micros()
        );
    }

    /// Schedules a priority change: at `at`, `user`'s tickets become
    /// `tickets`. Ticket-reading schedulers (Gandiva_fair, the lottery) pick
    /// the change up at their next entitlement refresh; static partitioning
    /// ignores it by design.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero, the user is unknown or `at` is after
    /// [`latest_event_time`].
    pub fn with_ticket_change(
        mut self,
        user: gfair_types::UserId,
        at: SimTime,
        tickets: u64,
    ) -> Self {
        assert!(tickets > 0, "tickets must be positive");
        assert!(
            self.users.iter().any(|u| u.id == user),
            "ticket change for unknown user {user}"
        );
        self.assert_before_latest(at, "ticket change");
        self.queue.push(at, EventKind::TicketChange(user, tickets));
        self
    }

    /// Schedules a server failure at `at`: resident jobs are evicted back to
    /// `Pending` (keeping their checkpointed progress) and re-dispatched via
    /// [`ClusterScheduler::on_job_evicted`]; the server rejects placements
    /// and run plans until it recovers.
    ///
    /// # Panics
    ///
    /// Panics if the server is unknown or `at` is after
    /// [`latest_event_time`].
    pub fn with_server_failure(mut self, server: ServerId, at: SimTime) -> Self {
        assert!(
            server.index() < self.cluster.servers.len(),
            "failure for unknown server {server}"
        );
        self.assert_before_latest(at, "server failure");
        self.server_events.push((at, server, true));
        self.queue.push(at, EventKind::ServerFail(server));
        self
    }

    /// Schedules a failed server to come back online at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the server is unknown or `at` is after
    /// [`latest_event_time`].
    pub fn with_server_recovery(mut self, server: ServerId, at: SimTime) -> Self {
        assert!(
            server.index() < self.cluster.servers.len(),
            "recovery for unknown server {server}"
        );
        self.assert_before_latest(at, "server recovery");
        self.server_events.push((at, server, false));
        self.queue.push(at, EventKind::ServerRecover(server));
        self
    }

    /// Attaches a deterministic fault plan: migration checkpoint/restore
    /// failures and slowdowns (seeded per-attempt draws plus scripted
    /// faults), per-server network-partition windows, and server flapping.
    ///
    /// The plan's partition windows and flap cycles are scheduled as events
    /// here; migration faults are drawn lazily as attempts start, keyed on
    /// `(seed, job, attempt)` so the outcome never depends on event
    /// interleaving or planner thread count.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`], references a
    /// server the cluster does not have, or ends a partition or a flap after
    /// [`latest_event_time`]. The run panics when it starts if a failure or
    /// recovery scheduled with [`with_server_failure`](Self::with_server_failure)
    /// or [`with_server_recovery`](Self::with_server_recovery) overlaps or
    /// touches a flap outage ([`FaultPlan::outage_clashes`]): the first
    /// recovery would end both outages.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let errs = plan.validate();
        assert!(errs.is_empty(), "invalid fault plan: {}", errs.join("; "));
        let num_servers = self.cluster.servers.len();
        for w in &plan.partitions {
            assert!(
                w.server.index() < num_servers,
                "fault plan partitions unknown server {}",
                w.server
            );
            self.assert_before_latest(w.until, "fault plan partition end");
            self.queue.push(w.from, EventKind::PartitionStart(w.server));
            self.queue.push(w.until, EventKind::PartitionEnd(w.server));
        }
        for f in &plan.flaps {
            let last = f.last_recovery().unwrap_or(SimTime::MAX);
            self.assert_before_latest(last, "fault plan flap's last recovery");
        }
        let injector = FaultInjector::new(plan);
        for (at, server, is_failure) in injector.server_events() {
            assert!(
                server.index() < num_servers,
                "fault plan flaps unknown server {server}"
            );
            let kind = if is_failure {
                EventKind::ServerFail(server)
            } else {
                EventKind::ServerRecover(server)
            };
            self.queue.push(at, kind);
        }
        self.faults = Some(injector);
        self
    }

    /// Runs until every job has finished (or the round safety limit trips).
    ///
    /// # Errors
    ///
    /// Propagates any invalid scheduler decision; see [`crate::sched`].
    pub fn run(self, scheduler: &mut dyn ClusterScheduler) -> Result<SimReport> {
        self.run_inner(scheduler, None)
    }

    /// Runs until `horizon`, leaving unfinished jobs in flight. Service is
    /// never accrued beyond the horizon.
    ///
    /// # Errors
    ///
    /// Propagates any invalid scheduler decision; see [`crate::sched`].
    pub fn run_until(
        self,
        scheduler: &mut dyn ClusterScheduler,
        horizon: SimTime,
    ) -> Result<SimReport> {
        self.run_inner(scheduler, Some(horizon))
    }

    fn run_inner(
        mut self,
        scheduler: &mut dyn ClusterScheduler,
        horizon: Option<SimTime>,
    ) -> Result<SimReport> {
        if let Some(faults) = &self.faults {
            let errs = faults.plan().outage_clashes(&self.server_events);
            assert!(
                errs.is_empty(),
                "server failures clash with the fault plan: {}",
                errs.join("; ")
            );
        }
        // Announce every server up front so a trace is self-describing: the
        // auditor (and any consumer) learns capacities from the stream alone.
        for srv in &self.cluster.servers {
            self.obs.emit(TraceEvent::ServerUp {
                t: SimTime::ZERO,
                server: srv.id,
                gen: srv.gen,
                gpus: srv.num_gpus,
            });
        }
        while let Some(ev) = self.queue.pop() {
            if let Some(h) = horizon {
                if ev.time > h {
                    self.now = h;
                    break;
                }
            }
            self.now = ev.time;
            match ev.kind {
                EventKind::Arrival(job) => self.on_arrival(scheduler, job),
                EventKind::Finish(job) => self.on_finish(scheduler, job),
                EventKind::MigrationDone(job) => self.on_migration_done(scheduler, job),
                EventKind::ServerFail(server) => self.on_server_fail(scheduler, server),
                EventKind::ServerRecover(server) => self.on_server_recover(scheduler, server),
                EventKind::PartitionStart(server) => self.on_partition_start(scheduler, server),
                EventKind::PartitionEnd(server) => self.on_partition_end(scheduler, server),
                EventKind::TicketChange(user, tickets) => {
                    if let Some(u) = self.users.iter_mut().find(|u| u.id == user) {
                        u.tickets = tickets;
                    }
                }
                EventKind::Round => self.on_round(scheduler, horizon)?,
            }
            if self.rounds > self.round_limit {
                return Err(GfairError::RoundLimitExceeded(self.round_limit));
            }
        }
        Ok(self.finalize(scheduler.name()))
    }

    fn view(&self) -> SimView<'_> {
        SimView {
            now: self.now,
            cluster: &self.cluster,
            users: &self.users,
            jobs: &self.jobs,
            residents: &self.residents,
            run_sets: &self.run_sets,
            index: &self.index,
            down: &self.down,
            partitioned: &self.partitioned,
            config: &self.config,
            unreachable: self.unreachable,
            gpus_up: self.gpus_up,
        }
    }

    fn arm_round(&mut self, at: SimTime) {
        if !self.round_armed {
            self.queue.push(at, EventKind::Round);
            self.round_armed = true;
        }
    }

    fn on_arrival(&mut self, scheduler: &mut dyn ClusterScheduler, job: JobId) {
        {
            let j = &self.jobs[job];
            self.index
                .on_arrive(job, j.info.user, j.info.gang, j.info.model_id);
            self.obs.emit(TraceEvent::JobArrive {
                t: self.now,
                job,
                user: j.spec.user,
                gang: j.spec.gang,
                service_secs: j.spec.service_secs,
            });
        }
        let actions = scheduler.on_job_arrival(&self.view(), job);
        self.pending_actions.extend(actions);
        self.arm_round(self.now);
    }

    fn on_finish(&mut self, scheduler: &mut dyn ClusterScheduler, job: JobId) {
        let user = {
            let j = self.jobs.get_mut(job).expect("finish for known job");
            debug_assert!(j.finishing, "finish event without finishing flag");
            j.info.state = JobState::Finished;
            j.finish = Some(self.now);
            if let Some(server) = j.info.server {
                if remove_sorted(&mut self.residents[server.index()], job) {
                    self.index.sub_demand(server, j.info.gang);
                }
                self.index.unassign(j.info.user, server, j.info.gang);
            }
            j.info.server = None;
            self.index
                .on_finish(job, j.info.user, j.info.gang, j.info.model_id);
            j.info.user
        };
        self.obs.emit(TraceEvent::JobFinish {
            t: self.now,
            job,
            user,
        });
        let actions = scheduler.on_job_finish(&self.view(), job);
        self.pending_actions.extend(actions);
    }

    fn on_migration_done(&mut self, scheduler: &mut dyn ClusterScheduler, job: JobId) {
        enum Outcome {
            Landed(ServerId, u32),
            Failed(ServerId, ServerId, MigrationFailReason, u32),
        }
        let outcome = {
            let j = self.jobs.get_mut(job).expect("migration for known job");
            debug_assert_eq!(j.info.state, JobState::Migrating);
            let dst = j.info.server.expect("migrating job has a destination");
            let from = j.migrating_from.take().unwrap_or(dst);
            let attempt = j.attempts;
            if self.down.contains(&dst) {
                // The destination failed while the job was in flight: the
                // job is stranded and must be re-placed.
                j.restore_fail = false;
                j.info.state = JobState::Pending;
                j.info.server = None;
                self.index.unassign(j.info.user, dst, j.info.gang);
                self.index.on_evict(job);
                Outcome::Failed(from, dst, MigrationFailReason::TargetDown, attempt)
            } else if j.restore_fail {
                // The injected fault fires: the restore fails on the
                // destination and the job goes back to the pending queue
                // (its checkpointed progress is intact).
                j.restore_fail = false;
                j.info.state = JobState::Pending;
                j.info.server = None;
                self.index.unassign(j.info.user, dst, j.info.gang);
                self.index.on_evict(job);
                Outcome::Failed(from, dst, MigrationFailReason::Restore, attempt)
            } else {
                j.info.state = JobState::Resident;
                j.info.last_migration = Some(self.now);
                insert_sorted(&mut self.residents[dst.index()], job);
                self.index.add_demand(dst, j.info.gang);
                Outcome::Landed(dst, j.info.gang)
            }
        };
        let actions = match outcome {
            Outcome::Landed(server, gang) => {
                self.obs.emit(TraceEvent::Placement {
                    t: self.now,
                    job,
                    server,
                    gang,
                });
                scheduler.on_migration_done(&self.view(), job)
            }
            Outcome::Failed(from, to, reason, attempt) => {
                self.migration_failures += 1;
                self.obs.emit(TraceEvent::MigrationFailed {
                    t: self.now,
                    job,
                    from,
                    to,
                    reason,
                    attempt,
                });
                scheduler.on_migration_failed(&self.view(), job, to, reason)
            }
        };
        self.pending_actions.extend(actions);
    }

    fn on_server_fail(&mut self, scheduler: &mut dyn ClusterScheduler, server: ServerId) {
        if !self.down.insert(server) {
            return; // already down
        }
        if !self.partitioned.contains(&server) {
            self.unreachable += 1;
        }
        self.gpus_up -= self.cluster.server(server).num_gpus;
        let evicted = std::mem::take(&mut self.residents[server.index()]);
        for &job in &evicted {
            let j = self.jobs.get_mut(job).expect("resident job is known");
            j.info.state = JobState::Pending;
            j.info.server = None;
            self.index.unassign(j.info.user, server, j.info.gang);
            self.index.on_evict(job);
            // Jobs with a pending Finish event (they banked their last
            // service before the failure instant) stay pending and simply
            // finish when the event fires; they are not re-dispatched.
        }
        self.index.clear_demand(server);
        self.obs.emit(TraceEvent::ServerDown {
            t: self.now,
            server,
            evicted: evicted.len() as u32,
        });
        // Eviction provenance: there is no alternative to evicting residents
        // of a dead server, so the "candidates" are the victims themselves.
        // Trace-only, like every Decision event: skipped without a sink.
        if self.obs.tracing() {
            for &job in &evicted {
                let info = &self.jobs[job].info;
                self.obs.emit(TraceEvent::Decision {
                    t: self.now,
                    decision: "eviction".to_string(),
                    job: Some(job),
                    user: Some(info.user),
                    chosen: format!("evict from server:{}", server.index()),
                    tie_break: "none (server failed)".to_string(),
                    considered: 1,
                    candidates: vec![gfair_obs::Candidate {
                        label: format!("job:{}", job.index()),
                        score: f64::from(info.gang),
                    }],
                    rejected: vec![],
                });
            }
        }
        for &job in &evicted {
            if self.jobs[job].finishing {
                continue;
            }
            let actions = scheduler.on_job_evicted(&self.view(), job);
            self.pending_actions.extend(actions);
        }
        let actions = scheduler.on_server_down(&self.view(), server);
        self.pending_actions.extend(actions);
        self.arm_round(self.now);
    }

    fn on_server_recover(&mut self, scheduler: &mut dyn ClusterScheduler, server: ServerId) {
        if !self.down.remove(&server) {
            return; // was not down
        }
        if !self.partitioned.contains(&server) {
            self.unreachable -= 1;
        }
        let srv = self.cluster.server(server);
        self.gpus_up += srv.num_gpus;
        self.obs.emit(TraceEvent::ServerUp {
            t: self.now,
            server,
            gen: srv.gen,
            gpus: srv.num_gpus,
        });
        let actions = scheduler.on_server_up(&self.view(), server);
        self.pending_actions.extend(actions);
    }

    fn on_partition_start(&mut self, scheduler: &mut dyn ClusterScheduler, server: ServerId) {
        if !self.partitioned.insert(server) {
            return; // already partitioned
        }
        if !self.down.contains(&server) {
            self.unreachable += 1;
        }
        // The server itself keeps running: residents stay resident and keep
        // making progress on the last-received stride state. Only the
        // control path (decision delivery) is cut.
        self.obs.emit(TraceEvent::PartitionStart {
            t: self.now,
            server,
        });
        let actions = scheduler.on_partition(&self.view(), server);
        self.pending_actions.extend(actions);
        self.arm_round(self.now);
    }

    fn on_partition_end(&mut self, scheduler: &mut dyn ClusterScheduler, server: ServerId) {
        if !self.partitioned.remove(&server) {
            return; // was not partitioned
        }
        if !self.down.contains(&server) {
            self.unreachable -= 1;
        }
        self.obs.emit(TraceEvent::PartitionEnd {
            t: self.now,
            server,
        });
        let actions = scheduler.on_partition_heal(&self.view(), server);
        self.pending_actions.extend(actions);
        self.arm_round(self.now);
    }

    /// Applies a placement or migration.
    ///
    /// `queued` actions were decided by mid-round callbacks against a view
    /// that may have gone stale (the target server can fail before the round
    /// boundary); such races are counted and skipped. Actions from a round
    /// plan saw a fresh view, so targeting a down server there is a hard
    /// scheduler bug. Stale migrations (job finished or moved) are skipped
    /// in both cases.
    fn apply_action(&mut self, action: Action, queued: bool) -> Result<()> {
        match action {
            Action::Place { job, server } => {
                let srv = self
                    .cluster
                    .servers
                    .get(server.index())
                    .ok_or(GfairError::UnknownServer(server))?;
                if self.down.contains(&server) {
                    if queued {
                        // Raced with a failure. The job stays pending;
                        // notify the scheduler so its retry path (not just
                        // luck) re-places it.
                        self.stale_migrations += 1;
                        self.obs.inc("stale_migrations", 1);
                        self.pending_fault_notices.push((
                            job,
                            server,
                            MigrationFailReason::TargetDown,
                        ));
                        return Ok(());
                    }
                    return Err(GfairError::ServerDown(server));
                }
                if self.partitioned.contains(&server) {
                    // The decision cannot be delivered to the server's
                    // local scheduler. Soft-skip in both phases — the
                    // partition may have started after the scheduler's
                    // information went stale — and notify.
                    self.stale_migrations += 1;
                    self.obs.inc("stale_migrations", 1);
                    self.pending_fault_notices.push((
                        job,
                        server,
                        MigrationFailReason::Unreachable,
                    ));
                    return Ok(());
                }
                let gpus = srv.num_gpus;
                let j = self.jobs.get_mut(job).ok_or(GfairError::UnknownJob(job))?;
                if j.info.state != JobState::Pending {
                    // Placing a non-pending job is always a scheduler bug.
                    return Err(GfairError::NotMigratable(job));
                }
                if j.info.gang > gpus {
                    return Err(GfairError::GangDoesNotFit {
                        job,
                        server,
                        gang: j.info.gang,
                        gpus,
                    });
                }
                j.info.state = JobState::Resident;
                j.info.server = Some(server);
                let gang = j.info.gang;
                insert_sorted(&mut self.residents[server.index()], job);
                self.index.on_place(job, server, gang);
                self.index.assign(j.info.user, server, gang);
                self.obs.emit(TraceEvent::Placement {
                    t: self.now,
                    job,
                    server,
                    gang,
                });
                Ok(())
            }
            Action::Migrate { job, to } => {
                let srv = self
                    .cluster
                    .servers
                    .get(to.index())
                    .ok_or(GfairError::UnknownServer(to))?;
                let target_down = self.down.contains(&to);
                if target_down && !queued {
                    return Err(GfairError::ServerDown(to));
                }
                let gpus = srv.num_gpus;
                let j = self.jobs.get_mut(job).ok_or(GfairError::UnknownJob(job))?;
                if j.info.state != JobState::Resident || j.finishing {
                    // Stale: the job finished or started moving since the
                    // decision was made. Skip quietly but keep count.
                    self.stale_migrations += 1;
                    self.obs.inc("stale_migrations", 1);
                    return Ok(());
                }
                let src = j.info.server.expect("resident job has a server");
                if target_down || self.partitioned.contains(&to) || self.partitioned.contains(&src)
                {
                    // Undeliverable: the queued decision raced a failure, or
                    // a partition cut the control path to either end. The
                    // job stays where it is; notify so a retrying scheduler
                    // can route the move through its retry path.
                    let reason = if target_down {
                        MigrationFailReason::TargetDown
                    } else {
                        MigrationFailReason::Unreachable
                    };
                    let attempt = j.attempts + 1;
                    self.stale_migrations += 1;
                    self.obs.inc("stale_migrations", 1);
                    self.migration_failures += 1;
                    self.obs.emit(TraceEvent::MigrationFailed {
                        t: self.now,
                        job,
                        from: src,
                        to,
                        reason,
                        attempt,
                    });
                    self.pending_fault_notices.push((job, to, reason));
                    return Ok(());
                }
                if j.info.gang > gpus {
                    return Err(GfairError::GangDoesNotFit {
                        job,
                        server: to,
                        gang: j.info.gang,
                        gpus,
                    });
                }
                if src == to {
                    // No-op move; ignore.
                    return Ok(());
                }
                // The attempt starts: draw its fate (if faults are active).
                // The draw is keyed on (seed, job, attempt), so it depends
                // only on the attempt itself, never on event interleaving.
                let attempt = j.attempts + 1;
                j.attempts = attempt;
                let mut cost = j.info.migration_cost;
                match self
                    .faults
                    .as_ref()
                    .and_then(|f| f.migration_fault(job, attempt))
                {
                    Some(MigrationFault::Checkpoint) => {
                        // The checkpoint write failed: the job never leaves
                        // its source and keeps running there.
                        self.migration_failures += 1;
                        self.obs.emit(TraceEvent::MigrationFailed {
                            t: self.now,
                            job,
                            from: src,
                            to,
                            reason: MigrationFailReason::Checkpoint,
                            attempt,
                        });
                        self.pending_fault_notices
                            .push((job, to, MigrationFailReason::Checkpoint));
                        return Ok(());
                    }
                    Some(MigrationFault::Restore) => {
                        // The transfer departs but is fated to fail at the
                        // restore stage; resolved in `on_migration_done`.
                        j.restore_fail = true;
                    }
                    Some(MigrationFault::Slowdown(factor)) => {
                        cost = cost.mul_f64(factor);
                    }
                    None => {}
                }
                j.migrating_from = Some(src);
                remove_sorted(&mut self.residents[src.index()], job);
                self.index.sub_demand(src, j.info.gang);
                self.index.unassign(j.info.user, src, j.info.gang);
                self.index.assign(j.info.user, to, j.info.gang);
                j.info.state = JobState::Migrating;
                j.info.server = Some(to);
                j.migrations += 1;
                self.migrations += 1;
                self.migration_outage += cost;
                self.obs.emit(TraceEvent::Migration {
                    t: self.now,
                    job,
                    from: src,
                    to,
                    outage_secs: cost.as_secs_f64(),
                });
                self.queue
                    .push(self.now + cost, EventKind::MigrationDone(job));
                Ok(())
            }
        }
    }

    /// Reports undeliverable decisions back to the policy. The resulting
    /// actions join `pending_actions` and are applied with the next batch of
    /// queued actions, exactly like any other mid-round callback output.
    fn drain_fault_notices(&mut self, scheduler: &mut dyn ClusterScheduler) {
        while !self.pending_fault_notices.is_empty() {
            let notices = std::mem::take(&mut self.pending_fault_notices);
            for (job, to, reason) in notices {
                let actions = scheduler.on_migration_failed(&self.view(), job, to, reason);
                self.pending_actions.extend(actions);
            }
        }
    }

    fn on_round(
        &mut self,
        scheduler: &mut dyn ClusterScheduler,
        horizon: Option<SimTime>,
    ) -> Result<()> {
        self.rounds += 1;
        self.maybe_flush_window();

        // 1. Deliver profile reports accumulated since the last round.
        let reports = std::mem::take(&mut self.pending_reports);
        {
            // A round without reports creates no counter entry.
            if !reports.is_empty() {
                self.profile_reports += reports.len() as u64;
                self.obs.inc("profile_reports", reports.len() as u64);
            }
            for report in reports {
                let actions = scheduler.on_profile_report(&self.view(), &report);
                self.pending_actions.extend(actions);
            }
        }

        // 2. Apply actions queued by mid-round callbacks. Decisions that
        // turn out to be undeliverable (raced a server failure, targeted a
        // partitioned server) are soft-skipped by `apply_action` and
        // reported back to the policy below so they flow through its retry
        // path instead of vanishing.
        let queued = std::mem::take(&mut self.pending_actions);
        {
            for action in queued {
                self.apply_action(action, true)?;
            }
            self.drain_fault_notices(scheduler);
        }

        // 3. Ask the policy for this quantum's plan (self-profiled: the
        // whole call is one round-planning span), apply its actions, then
        // install its run sets.
        let obs = Arc::clone(&self.obs);
        let plan: RoundPlan = obs.time(Phase::RoundPlanning, || scheduler.plan_round(&self.view()));
        for action in &plan.actions {
            self.apply_action(*action, false)?;
        }
        self.drain_fault_notices(scheduler);
        let unknown = self.install_run_sets(plan.run, plan.changes_only);

        // 4. Validate the run sets: the one check of each set, which the
        // auditor does not repeat. The validated grants are emitted in
        // batches for the trace and metrics; grants validated before a
        // validation error are emitted before it returns.
        let mut grants = std::mem::take(&mut self.grants);
        grants.clear();
        let mut grant_by_user: Vec<u32> = vec![0; self.users.len()];
        let validated = self.validate_run_sets(unknown, &mut grants, &mut grant_by_user);
        self.obs.emit_packed(self.now, self.rounds, &grants);
        self.grants = grants;
        #[cfg(debug_assertions)]
        match (&validated, self.check_run_sets(unknown)) {
            (Ok(got), Ok(want)) => assert_eq!(*got, want, "run-set totals diverged"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("run-set check diverged: {got:?} vs full check {want:?}"),
        }
        // A skipped duplicate stamp can turn the full check's
        // `DuplicateJobInPlan` into `JobNotResident` at the same grant, so
        // a failure is reported as the full check words it.
        let (scheduled, gpus_used) =
            validated.map_err(|e| self.check_run_sets(unknown).err().unwrap_or(e))?;

        // Round summary: who got what, the queue depth, and the per-user
        // tickets backing the decision. The auditor checks ticket
        // conservation against the cluster's physical supply.
        let gpus_up = self.gpus_up;
        let pending = self
            .index
            .pending
            .iter()
            .filter(|&id| !self.jobs[id].finishing)
            .count() as u32;
        let users = scheduler.user_shares(&self.view());
        let user_gpus = grant_by_user
            .into_iter()
            .enumerate()
            .filter(|&(_, gpus)| gpus > 0)
            .map(|(u, gpus)| gfair_obs::UserGrant {
                user: gfair_types::UserId::new(u as u32),
                gpus,
            })
            .collect();
        self.obs.emit(TraceEvent::RoundPlanned {
            t: self.now,
            round: self.rounds,
            scheduled,
            gpus_used,
            gpus_up,
            pending,
            tickets_total: self.cluster.total_gpus() as f64,
            users,
            user_gpus,
        });
        if let Some(v) = self.obs.take_fatal() {
            return Err(GfairError::InvariantViolation(v.to_string()));
        }
        // 5. Accrue progress for this quantum, in server-id order, stamping
        // each job warm for next round's switch-overhead accounting and
        // counting the round it ran. Bumping the serial afterwards
        // invalidates every older stamp.
        let quantum = self.config.quantum;
        let budget = match horizon {
            Some(h) => h.saturating_since(self.now).min(quantum),
            None => quantum,
        };
        if budget.is_zero() {
            for &job in self.run_sets.iter().flatten() {
                let j = self.jobs.get_mut(job).expect("validated job exists");
                j.warm = self.warm_serial + 1;
                j.info.rounds_run += 1;
            }
        } else {
            let sets = std::mem::take(&mut self.run_sets);
            let accrued = (sets.iter().enumerate())
                .filter(|(_, run)| !run.is_empty())
                .try_for_each(|(i, run)| {
                    let server = ServerId::new(i as u32);
                    let gen = self.cluster.servers[i].gen;
                    run.iter()
                        .try_for_each(|&job| self.accrue(job, server, gen, budget))
                });
            self.run_sets = sets;
            accrued?;
        }
        self.warm_serial += 1;

        // 6. Keep the clock ticking while anything is alive. Not-yet-arrived
        // jobs don't count: their arrival events restart the clock.
        self.round_armed = false;
        if !self.index.active.is_empty() {
            self.arm_round(self.now + quantum);
        }
        Ok(())
    }

    /// Installs a plan's run sets by move: a full-form plan replaces every
    /// server's set (a server it leaves out gets an empty one), a
    /// changes-only plan just the sets it lists. Each installed set is
    /// marked for checking. Returns the first listed server the cluster
    /// does not have, which validation reports after every known server,
    /// where the id order puts it.
    fn install_run_sets(
        &mut self,
        run: BTreeMap<ServerId, Vec<JobId>>,
        changes_only: bool,
    ) -> Option<ServerId> {
        if !changes_only {
            for (set, checked) in self.run_sets.iter_mut().zip(&mut self.run_checked) {
                if !set.is_empty() {
                    set.clear();
                    *checked = u64::MAX;
                }
            }
        }
        let mut unknown = None;
        for (server, jobs) in run {
            match self.run_sets.get_mut(server.index()) {
                Some(set) => {
                    *set = jobs;
                    self.run_checked[server.index()] = u64::MAX;
                }
                None => {
                    unknown.get_or_insert(server);
                }
            }
        }
        unknown
    }

    /// Walks the run sets in server-id order and returns the jobs scheduled
    /// and the GPUs used, adding each user's granted GPUs to
    /// `grant_by_user`. Every grant collects in `grants`; a full buffer of
    /// [`GRANT_BATCH`] is emitted and cleared, and the caller emits what is
    /// left.
    ///
    /// A set is checked (server up, no duplicate, every job resident there,
    /// no overcommit) only when it was installed this round or its server's
    /// residency changed since its last check. A set that passed and whose
    /// residency has not moved still passes: its jobs are still resident
    /// there, so none can be listed twice or sit on a down server.
    /// [`check_run_sets`](Self::check_run_sets) checks every set, and debug
    /// builds compare the two every round.
    ///
    /// Duplicate detection stamps each checked job with the round number
    /// (`dup_stamp` defaults to 0, rounds start at 1), and per-user grant
    /// totals accumulate into a user-indexed vec — both O(1) per gang
    /// where a set insert / linear user probe would grow with the plan.
    fn validate_run_sets(
        &mut self,
        unknown: Option<ServerId>,
        grants: &mut Vec<PackedGang>,
        grant_by_user: &mut Vec<u32>,
    ) -> Result<(u32, u32)> {
        let mut scheduled = 0u32;
        let mut gpus_used = 0u32;
        for (i, run) in self.run_sets.iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            let server = ServerId::new(i as u32);
            let version = self.index.res_version[i];
            let check = self.run_checked[i] != version;
            if check && self.down.contains(&server) {
                return Err(GfairError::ServerDown(server));
            }
            let mut requested = 0u32;
            for &job in run {
                let j = if check {
                    let stamp = slot_u64(&mut self.dup_stamp, job.index());
                    if *stamp == self.rounds {
                        return Err(GfairError::DuplicateJobInPlan(job));
                    }
                    *stamp = self.rounds;
                    let j = self.jobs.get(job).ok_or(GfairError::UnknownJob(job))?;
                    if j.info.state != JobState::Resident || j.info.server != Some(server) {
                        return Err(GfairError::JobNotResident { job, server });
                    }
                    j
                } else {
                    &self.jobs[job]
                };
                let (user, gang) = (j.info.user, j.info.gang);
                requested += gang;
                let slot = user.index();
                if grant_by_user.len() <= slot {
                    grant_by_user.resize(slot + 1, 0);
                }
                grant_by_user[slot] += gang;
                if grants.len() == GRANT_BATCH {
                    self.obs.emit_packed(self.now, self.rounds, grants);
                    grants.clear();
                }
                grants.push(PackedGang {
                    server,
                    job,
                    user,
                    gang,
                });
                scheduled += 1;
            }
            if check {
                let gpus = self.cluster.servers[i].num_gpus;
                if requested > gpus {
                    return Err(GfairError::ServerOvercommitted {
                        server,
                        requested,
                        gpus,
                    });
                }
                self.run_checked[i] = version;
            }
            gpus_used += requested;
        }
        match unknown {
            Some(server) => Err(GfairError::UnknownServer(server)),
            None => Ok((scheduled, gpus_used)),
        }
    }

    /// The full check of every run set, as if each had been installed this
    /// round: the oracle for [`validate_run_sets`](Self::validate_run_sets)
    /// and the source of its error when a set fails. Returns the same
    /// totals, or the first failure in server-id order.
    fn check_run_sets(&self, unknown: Option<ServerId>) -> Result<(u32, u32)> {
        let mut granted = BTreeSet::new();
        let mut scheduled = 0u32;
        let mut gpus_used = 0u32;
        for (i, run) in self.run_sets.iter().enumerate() {
            let server = ServerId::new(i as u32);
            if self.down.contains(&server) && !run.is_empty() {
                return Err(GfairError::ServerDown(server));
            }
            let mut requested = 0u32;
            for &job in run {
                if !granted.insert(job) {
                    return Err(GfairError::DuplicateJobInPlan(job));
                }
                let j = self.jobs.get(job).ok_or(GfairError::UnknownJob(job))?;
                if j.info.state != JobState::Resident || j.info.server != Some(server) {
                    return Err(GfairError::JobNotResident { job, server });
                }
                requested += j.info.gang;
                scheduled += 1;
            }
            let gpus = self.cluster.servers[i].num_gpus;
            if requested > gpus {
                return Err(GfairError::ServerOvercommitted {
                    server,
                    requested,
                    gpus,
                });
            }
            gpus_used += requested;
        }
        match unknown {
            Some(server) => Err(GfairError::UnknownServer(server)),
            None => Ok((scheduled, gpus_used)),
        }
    }

    /// Runs `job` on generation `gen` for up to `budget`, scheduling an
    /// exact-time finish if it completes, and updating all accounting.
    ///
    /// Fails with [`GfairError::JobStalled`] if the job ran for productive
    /// time yet neither progressed nor started finishing: such a job would
    /// be granted every round and never finish.
    fn accrue(
        &mut self,
        job: JobId,
        server: ServerId,
        gen: gfair_types::GenId,
        budget: SimDuration,
    ) -> Result<()> {
        let noise = self.config.profile_noise;
        let stint_len = self.config.profile_stint;
        let j = self.jobs.get_mut(job).expect("validated job exists");
        // A job resuming after a round off pays the suspend/resume switch
        // cost before training resumes (the GPU is occupied throughout).
        // Running now makes it warm next round.
        let warm = j.warm == self.warm_serial;
        j.warm = self.warm_serial + 1;
        j.info.rounds_run += 1;
        if j.first_run.is_none() {
            j.first_run = Some(self.now);
        }
        let rate = j.true_rate(gen);
        let overhead = if warm {
            SimDuration::ZERO
        } else {
            self.config.switch_overhead
        };
        // The one finish test, in the simulator's time unit: the job
        // finishes in this grant iff its remaining run time, in whole
        // microseconds, fits in the budget after the overhead. A residue
        // that rounds to zero microseconds finishes now. (Compared without
        // adding: a huge demand saturates the conversion at `u64::MAX`.)
        let remaining = SimDuration::from_secs_f64(j.remaining() / rate);
        let finishes = overhead <= budget && remaining <= budget - overhead;
        let run = if finishes {
            overhead + remaining
        } else {
            budget
        };
        let productive = run.saturating_sub(overhead);
        let run_secs = run.as_secs_f64();
        let progress_secs = productive.as_secs_f64();
        if finishes {
            j.progress = j.spec.service_secs;
            j.finishing = true;
            self.queue.push(self.now + run, EventKind::Finish(job));
        } else {
            let before = j.progress;
            j.progress += progress_secs * rate;
            if !productive.is_zero() && j.progress <= before {
                return Err(GfairError::JobStalled { job, server });
            }
        }
        let gang = j.info.gang as f64;
        let gpu_secs = gang * run_secs;
        let base_secs = gang * progress_secs * rate;
        let user = j.info.user;
        let slot = job.index() * self.num_gens + gen.index();
        self.job_gen_gpu_secs[slot] += gpu_secs;

        // Profiling stints (only productive time counts toward a stint).
        let stint = &mut self.stint[slot];
        *stint += productive;
        while *stint >= stint_len {
            *stint -= stint_len;
            let eps: f64 = if noise > 0.0 {
                self.rng.gen_range(-noise..noise)
            } else {
                0.0
            };
            self.pending_reports.push(ProfileReport {
                job,
                gen,
                rate: rate * (1.0 + eps),
            });
        }

        // Global and windowed accounting.
        let ui = user.index();
        bump(&mut self.acct_server_gpu_secs, server.index(), gpu_secs);
        self.gpu_secs_used += gpu_secs;
        bump(&mut self.acct_user_gpu_secs, ui, gpu_secs);
        bump(&mut self.acct_user_base_secs, ui, base_secs);
        bump(
            &mut self.acct_user_gen_gpu_secs,
            ui * self.num_gens + gen.index(),
            gpu_secs,
        );
        self.window.used_gpu_secs += gpu_secs;
        bump(&mut self.win_user_gpu_secs, ui, gpu_secs);
        bump(&mut self.win_user_base_secs, ui, base_secs);
        Ok(())
    }

    /// Folds the dense per-user window accumulators into the live window's
    /// maps, zeroing them for the next window. A user belongs to the window
    /// iff they received raw GPU-seconds in it; their base-seconds entry
    /// rides along even at 0.0 (all-overhead quanta), exactly as the former
    /// per-accrual map inserts behaved.
    fn fold_window(&mut self) {
        for (i, gpu) in self.win_user_gpu_secs.iter_mut().enumerate() {
            if *gpu > 0.0 {
                let user = gfair_types::UserId::new(i as u32);
                self.window.user_gpu_secs.insert(user, *gpu);
                self.window
                    .user_base_secs
                    .insert(user, self.win_user_base_secs[i]);
                *gpu = 0.0;
                self.win_user_base_secs[i] = 0.0;
            }
        }
    }

    /// Closes the current reporting window if `now` has crossed a boundary.
    fn maybe_flush_window(&mut self) {
        let len = self.config.report_window;
        while self.now >= self.window.start + len {
            self.fold_window();
            let start = self.window.start;
            let mut done = std::mem::take(&mut self.window);
            done.capacity_gpu_secs = len.as_secs_f64() * self.cluster.total_gpus() as f64;
            self.timeseries.push(done);
            self.window.start = start + len;
        }
    }

    fn finalize(mut self, scheduler: &str) -> SimReport {
        // Close the trailing (possibly partial) window.
        if self.window.used_gpu_secs > 0.0 {
            self.fold_window();
            let span = self.now.saturating_since(self.window.start);
            let mut done = std::mem::take(&mut self.window);
            done.capacity_gpu_secs = span.as_secs_f64() * self.cluster.total_gpus() as f64;
            self.timeseries.push(done);
        }
        // Convert the dense run-wide accumulators back to the report's maps.
        // An id accrued in the run iff its raw GPU-seconds are positive;
        // base-seconds entries mirror the raw ones (see `fold_window`).
        let user_gpu_secs: BTreeMap<gfair_types::UserId, f64> = self
            .acct_user_gpu_secs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| (gfair_types::UserId::new(i as u32), *v))
            .collect();
        let user_base_secs: BTreeMap<gfair_types::UserId, f64> = user_gpu_secs
            .keys()
            .map(|&u| (u, self.acct_user_base_secs[u.index()]))
            .collect();
        let user_gen_gpu_secs: BTreeMap<(gfair_types::UserId, gfair_types::GenId), f64> = self
            .acct_user_gen_gpu_secs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| {
                let user = gfair_types::UserId::new((i / self.num_gens) as u32);
                let gen = gfair_types::GenId::new((i % self.num_gens) as u32);
                ((user, gen), *v)
            })
            .collect();
        let server_gpu_secs: BTreeMap<ServerId, f64> = self
            .acct_server_gpu_secs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| (ServerId::new(i as u32), *v))
            .collect();
        let num_gens = self.num_gens;
        let job_gen_gpu_secs = &self.job_gen_gpu_secs;
        let jobs = self
            .jobs
            .into_iter()
            .map(|(id, j)| {
                let row = &job_gen_gpu_secs[id.index() * num_gens..][..num_gens];
                let gpu_secs_by_gen = (row.iter().enumerate())
                    .filter(|(_, &v)| v > 0.0)
                    .map(|(g, &v)| (gfair_types::GenId::new(g as u32), v))
                    .collect();
                (
                    id,
                    JobRecord {
                        id,
                        user: j.spec.user,
                        model: j.spec.model.name.clone(),
                        gang: j.spec.gang,
                        service_secs: j.spec.service_secs,
                        arrival: j.spec.arrival,
                        first_run: j.first_run,
                        finish: j.finish,
                        gpu_secs_by_gen,
                        migrations: j.migrations,
                    },
                )
            })
            .collect();
        let report = SimReport {
            scheduler: scheduler.to_string(),
            end: self.now,
            rounds: self.rounds,
            jobs,
            user_gpu_secs,
            user_base_secs,
            user_gen_gpu_secs,
            server_gpu_secs,
            timeseries: self.timeseries,
            migrations: self.migrations,
            migration_outage: self.migration_outage,
            gpu_secs_used: self.gpu_secs_used,
            gpu_secs_capacity: self.now.as_secs_f64() * self.cluster.total_gpus() as f64,
            profile_reports: self.profile_reports,
            stale_migrations: self.stale_migrations,
            migration_failures: self.migration_failures,
            obs: Some(self.obs.summary()),
        };
        self.obs.flush();
        report
    }
}

/// Adds `d` at index `i`, growing the accumulator as new ids appear.
#[inline]
fn bump(v: &mut Vec<f64>, i: usize, d: f64) {
    if v.len() <= i {
        v.resize(i + 1, 0.0);
    }
    v[i] += d;
}

/// Inserts `job` into an id-sorted resident list (a no-op if present).
fn insert_sorted(list: &mut Vec<JobId>, job: JobId) {
    if let Err(pos) = list.binary_search(&job) {
        list.insert(pos, job);
    }
}

/// Removes `job` from an id-sorted resident list; false if it was absent.
fn remove_sorted(list: &mut Vec<JobId>, job: JobId) -> bool {
    match list.binary_search(&job) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// Most gang grants a round hands to the observability pipeline in one
/// call. Every round on a testbed-sized cluster is one batch; on a
/// 50k-GPU cluster, with over ten thousand grants a round, the cap keeps
/// the reused grant buffer at a fixed 20 KB instead of growing with them.
const GRANT_BATCH: usize = 1024;

/// Grows `v` so index `i` exists, then hands out the slot.
#[inline]
fn slot_u64(v: &mut Vec<u64>, i: usize) -> &mut u64 {
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    &mut v[i]
}
