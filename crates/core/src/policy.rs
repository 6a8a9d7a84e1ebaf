//! The policy boundary: pluggable per-epoch allocation behind a shared
//! round driver.
//!
//! Everything the schedulers in this workspace disagree about fits in one
//! question: *given the active users, their demand, their estimated
//! per-generation speedups and (optionally) their finish-time-fairness ρ,
//! how many GPUs of each generation is each user entitled to right now?*
//! [`AllocPolicy`] is exactly that question; everything else — placement,
//! per-server stride planning, migration-based balancing, migration retry,
//! degraded-mode handling, fast-forward — is common machinery provided by
//! [`PolicyScheduler`] (the generic driver) on top of the shared
//! `RoundPlanner` and `Placer` internals.
//!
//! ## Determinism obligations
//!
//! An [`AllocPolicy`] implementation must be a pure function of the
//! [`PolicyRound`] inputs plus its own deterministic state: no wall-clock,
//! no ambient randomness, no iteration over unordered containers. The
//! driver guarantees the inputs themselves are deterministic (id-ordered
//! maps, integer-microsecond ρ accounting), so policy output — and with it
//! the whole trace — replays byte-identically from the same seed and is the
//! same with fast-forward on or off.
//!
//! ## Fast-forward opt-in
//!
//! [`AllocPolicy::fast_forward_ok`] defaults to `false`: a policy must
//! explicitly declare that replaying a cached plan across quiescent quanta
//! cannot change its future decisions. Opting in is sound iff the policy's
//! allocation depends only on inputs the driver refreshes at epoch
//! boundaries — the driver never fast-forwards across an epoch boundary,
//! a pending job, a due balancing pass, or a due migration retry.
//!
//! ## Migration retry opt-in
//!
//! [`AllocPolicy::retries_migrations`] defaults to `false`. For a policy
//! that opts in, each failed migration arms a bounded retry: attempt *n*
//! waits 60 s · 2^(n-1) (`BACKOFF_BASE`), and after
//! `max_migration_retries` failures the job is left where the failure put
//! it. A still-resident job is re-sent to the least-loaded reachable server
//! of the generation the failed move targeted; a pending job waits out its
//! backoff before the round's pending scan re-places it. Without the
//! opt-in, pending jobs are re-placed at the next round and resident ones
//! wait for the next balancing pass. Either way only the pending scan
//! places pending jobs.

use crate::balance::plan_migrations_traced;
use crate::config::GfairConfig;
use crate::entitlement::Entitlements;
use crate::inputs::PolicyInputs;
use crate::placement::{Placer, TIE_BREAK_LOAD};
use crate::planner::RoundPlanner;
use crate::profiler::Profiler;
use crate::trade::{run_market_traced, Trade};
use gfair_obs::{Obs, Rejection, SharedObs, TraceEvent, UserShare};
use gfair_sim::{Action, ClusterScheduler, ProfileReport, RoundPlan, SimView};
use gfair_types::{
    GenId, JobId, JobState, MigrationFailReason, ServerId, SimConfig, SimDuration, SimTime, UserId,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Minimum buyer-minus-seller speedup gap before a trade fires (filters
/// profiling noise).
const TRADE_MARGIN: f64 = 0.2;

/// Minimum profile samples per (model, generation) before the estimate is
/// trusted for trading.
const MIN_PROFILE_SAMPLES: u64 = 2;

/// Base delay of the exponential backoff between migration retries:
/// attempt `n` waits `BACKOFF_BASE * 2^(n-1)`.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(60);

/// Everything an allocation policy may consult for one epoch decision.
///
/// The `active` slice is id-ordered and the [`PolicyInputs`] accessors are
/// pure lookups, so any iteration a policy performs is deterministic.
pub struct PolicyRound<'a> {
    /// Read-only cluster state (topology, jobs, reachability).
    pub view: &'a SimView<'a>,
    /// Current simulated time.
    pub now: SimTime,
    /// Active users and their configured tickets, in user-id order.
    pub active: &'a [(UserId, u64)],
    /// Dense per-user inputs: demand, per-generation speedup estimates from
    /// the online profiler (`None` where unprofiled — policies should
    /// assume the base rate 1.0), and — for policies that return `true`
    /// from [`AllocPolicy::wants_rho`] — the online finish-time-fairness
    /// estimate ρ̂ (1.0 where not maintained).
    pub inputs: &'a PolicyInputs,
    /// Observability pipeline for policy-side trace events (trades,
    /// auction outcomes).
    pub obs: &'a SharedObs,
}

/// An allocation policy: decides per-(user, generation) GPU entitlements
/// once per epoch. See the module docs for the determinism contract.
pub trait AllocPolicy {
    /// Policy name as reported by the scheduler and the CLI.
    fn name(&self) -> &'static str;

    /// Computes the per-(user, generation) allocation for this epoch.
    ///
    /// The returned entitlements must conserve physical capacity: summed
    /// over users, each generation's allocation must equal the cluster's
    /// *static* GPU count for that generation (the trace auditor checks
    /// round tickets against static supply). Policies that want to steer
    /// work away from unreachable servers do so by *shaping* who gets the
    /// capacity, not by shrinking it.
    fn allocate(&mut self, round: &PolicyRound<'_>) -> Entitlements;

    /// How often the allocation is recomputed on a timer (it is also
    /// recomputed whenever the active-user set changes).
    fn epoch(&self, config: &SimConfig) -> SimDuration;

    /// Whether quiescence fast-forward is sound for this policy: replaying
    /// a cached plan across quanta must not change any future allocation.
    /// Defaults to `false` — policies opt in explicitly (or stay opted
    /// out, which forces the engine to step every quantum).
    fn fast_forward_ok(&self) -> bool {
        false
    }

    /// Whether the driver should maintain online per-user ρ̂ estimates and
    /// serve them via [`PolicyInputs::rho`]. Defaults to `false` (the
    /// accounting costs a per-round sweep over the scheduled jobs).
    fn wants_rho(&self) -> bool {
        false
    }

    /// Whether the driver retries failed migrations with exponential
    /// backoff (see the module docs). Defaults to `false`.
    fn retries_migrations(&self) -> bool {
        false
    }
}

/// The paper's allocation policy: ticket-proportional entitlements per
/// generation, then the big/small trading market on top.
///
/// [`crate::GandivaFair::new`] runs it on [`PolicyScheduler`]; it is the
/// one built-in policy that retries failed migrations.
#[derive(Debug)]
pub struct TicketTrading {
    trading: bool,
    trade_log: Vec<(SimTime, Trade)>,
}

impl TicketTrading {
    /// Creates the policy from the gfair trading toggle.
    pub fn new(cfg: &GfairConfig) -> Self {
        TicketTrading {
            trading: cfg.trading,
            trade_log: Vec::new(),
        }
    }

    /// Trades executed so far, with timestamps.
    pub fn trades(&self) -> &[(SimTime, Trade)] {
        &self.trade_log
    }
}

impl AllocPolicy for TicketTrading {
    fn name(&self) -> &'static str {
        "gandiva-fair"
    }

    fn allocate(&mut self, round: &PolicyRound<'_>) -> Entitlements {
        let gpus = round.view.cluster().gpus_per_gen();
        let mut ent = Entitlements::base(&gpus, round.active);
        if self.trading && !round.active.is_empty() {
            let trades = run_market_traced(
                round.obs,
                round.now,
                &mut ent,
                round.inputs,
                round.view.config().price_strategy,
                TRADE_MARGIN,
            );
            self.trade_log
                .extend(trades.into_iter().map(|t| (round.now, t)));
        }
        ent
    }

    fn epoch(&self, config: &SimConfig) -> SimDuration {
        config.trade_interval
    }

    fn fast_forward_ok(&self) -> bool {
        true
    }

    fn retries_migrations(&self) -> bool {
        true
    }
}

/// Recovery bookkeeping for one job whose migration (or queued placement)
/// failed: how many attempts have failed, when the next one may be issued,
/// and which generation the failed move was targeting.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Failed attempts observed so far in this recovery episode.
    attempts: u32,
    /// Earliest time the next attempt may be issued (exponential backoff).
    next_try: SimTime,
    /// Generation the failed move was targeting; the retry re-targets the
    /// least-loaded reachable server of this generation.
    gen: GenId,
}

/// Generic round driver: runs any [`AllocPolicy`] as a full
/// [`ClusterScheduler`].
///
/// The driver owns the machinery every policy shares — placement via
/// the placer, per-server stride planning via the shared planner,
/// migration-based balancing toward the policy's entitlements, pending-job
/// re-placement after outages, epoch timers, optional online ρ̂ accounting,
/// optional migration retry, and fast-forward probing — so a policy
/// implementation is nothing but its allocation rule.
///
/// # Examples
///
/// ```no_run
/// use gfair_core::{GfairConfig, PolicyScheduler, TicketTrading};
/// use gfair_sim::Simulation;
/// use gfair_types::{ClusterSpec, SimConfig, UserSpec};
///
/// let cfg = GfairConfig::default();
/// let sim = Simulation::new(
///     ClusterSpec::paper_testbed(),
///     UserSpec::equal_users(4, 100),
///     vec![],
///     SimConfig::default(),
/// )
/// .unwrap();
/// let mut sched = PolicyScheduler::new(TicketTrading::new(&cfg), cfg);
/// let report = sim.run(&mut sched).unwrap();
/// ```
#[derive(Debug)]
pub struct PolicyScheduler<P: AllocPolicy> {
    policy: P,
    cfg: GfairConfig,
    profiler: Option<Profiler>,
    ent: Option<Entitlements>,
    planner: RoundPlanner,
    placer: Placer,
    /// Active-user signature the current entitlements were computed from.
    active_sig: Vec<(UserId, u64)>,
    next_epoch: SimTime,
    next_balance: SimTime,
    /// Jobs whose migration failed and is being retried with backoff.
    /// Stays empty unless the policy retries migrations.
    retry: BTreeMap<JobId, RetryState>,
    /// Quantum length in integer microseconds, cached at init so that
    /// [`ClusterScheduler::commit_fast_forward`] (which has no view) can
    /// account skipped service exactly.
    quantum_micros: u64,
    /// Cumulative scheduled time per job in integer microseconds, indexed
    /// by `JobId::index()`. Integer accounting makes the ρ̂ inputs — and
    /// therefore the allocations — byte-identical with fast-forward on or
    /// off. Maintained only when the policy wants ρ̂.
    sched_micros: Vec<u64>,
    /// Jobs scheduled by the most recent plan, for fast-forward service
    /// accounting (a skipped span replays exactly this run set).
    last_plan_jobs: Vec<JobId>,
    /// Dense per-user policy inputs (demand, speedups, ρ̂), refreshed
    /// incrementally from the cluster-index aggregates each epoch.
    inputs: PolicyInputs,
    /// Per-user minimum stride pass scratch for traced
    /// [`ClusterScheduler::user_shares`] calls, indexed by
    /// `UserId::index()` and reused across rounds.
    min_pass: RefCell<Vec<Option<f64>>>,
    /// Observability pipeline; share the simulation's instance via
    /// [`PolicyScheduler::with_obs`] to get one unified trace.
    obs: SharedObs,
}

impl<P: AllocPolicy> PolicyScheduler<P> {
    /// Creates the driver around an allocation policy.
    pub fn new(policy: P, cfg: GfairConfig) -> Self {
        PolicyScheduler {
            policy,
            cfg,
            profiler: None,
            ent: None,
            planner: RoundPlanner::new(),
            placer: Placer::new(),
            active_sig: Vec::new(),
            next_epoch: SimTime::ZERO,
            next_balance: SimTime::ZERO,
            retry: BTreeMap::new(),
            quantum_micros: 0,
            sched_micros: Vec::new(),
            last_plan_jobs: Vec::new(),
            inputs: PolicyInputs::new(),
            min_pass: RefCell::new(Vec::new()),
            obs: Arc::new(Obs::new()),
        }
    }

    /// Attaches a shared observability pipeline. Pass the same instance to
    /// `Simulation::with_obs` so scheduler-side and engine-side events land
    /// in one ordered trace.
    pub fn with_obs(mut self, obs: SharedObs) -> Self {
        self.obs = obs;
        self
    }

    /// The wrapped allocation policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The current entitlements (None before the first round).
    pub fn entitlements(&self) -> Option<&Entitlements> {
        self.ent.as_ref()
    }

    /// The profiler's current state (None before the first round).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Lazily builds the profiler, planner and placer from the cluster.
    fn ensure_init(&mut self, view: &SimView<'_>) {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::new(
                view.cluster().catalog.len(),
                MIN_PROFILE_SAMPLES,
            ));
        }
        self.planner.ensure_init(view);
        self.placer.ensure_capacity(view);
        self.inputs.ensure_init(view);
        if self.quantum_micros == 0 {
            self.quantum_micros = view.config().quantum.as_micros();
        }
    }

    /// Recomputes the allocation through the policy and pushes the derived
    /// weights into the planner.
    ///
    /// The dense inputs are refreshed incrementally from the cluster-index
    /// aggregates; in debug builds every refresh is differential-checked
    /// against the from-scratch map builders ([`PolicyInputs::audit`]).
    fn refresh_allocation(&mut self, view: &SimView<'_>, active: Vec<(UserId, u64)>) {
        let now = view.now();
        let profiler = self.profiler.as_ref().expect("initialized");
        self.inputs.refresh(view, profiler);
        if self.policy.wants_rho() {
            // ρ̂ per user: the worst ratio of time-in-system to time-served
            // over the user's active jobs, quantum-smoothed so brand-new
            // jobs start at ρ̂ = 1 instead of ∞. Both sides are integer
            // microseconds, so the estimate is exact and replay-stable.
            self.inputs
                .refresh_rho(view, &self.sched_micros, self.quantum_micros, now);
        }
        #[cfg(debug_assertions)]
        {
            let ledger = self.policy.wants_rho().then_some((
                self.sched_micros.as_slice(),
                self.quantum_micros,
                now,
            ));
            if let Err(e) = self.inputs.audit(view, profiler, ledger) {
                panic!("dense policy inputs diverged from from-scratch oracle: {e}");
            }
        }
        let round = PolicyRound {
            view,
            now,
            active: &active,
            inputs: &self.inputs,
            obs: &self.obs,
        };
        let ent = self.policy.allocate(&round);
        self.planner.refresh_weights(view, &ent);
        self.ent = Some(ent);
        self.active_sig = active;
    }

    /// Re-issues failed migrations whose backoff window has expired.
    ///
    /// Pending jobs (restore failures, stranded mid-flight) are left to the
    /// placement path, which honors the same backoff; in-flight jobs wait
    /// for their `MigrationDone`; resident jobs already sitting on the
    /// generation the failed move was targeting count as recovered.
    fn plan_retries(&mut self, view: &SimView<'_>, actions: &mut Vec<Action>) {
        if self.retry.is_empty() {
            return;
        }
        let now = view.now();
        let planned: BTreeSet<JobId> = actions
            .iter()
            .map(|a| match a {
                Action::Migrate { job, .. } | Action::Place { job, .. } => *job,
            })
            .collect();
        let due: Vec<(JobId, RetryState)> = self
            .retry
            .iter()
            .filter(|(_, r)| r.next_try <= now)
            .map(|(&j, &r)| (j, r))
            .collect();
        for (job, state) in due {
            let Some(info) = view.job(job) else {
                self.retry.remove(&job);
                continue;
            };
            match info.state {
                JobState::Finished => {
                    self.retry.remove(&job);
                }
                // The placement path owns pending jobs; in-flight jobs are
                // resolved by their MigrationDone (or the next failure).
                JobState::Pending | JobState::Migrating => {}
                JobState::Resident => {
                    let cur = info.server.expect("resident job has a server");
                    if view.cluster().server(cur).gen == state.gen {
                        // The job already sits where the failed move was
                        // headed (e.g. the balancer got there first).
                        self.retry.remove(&job);
                        continue;
                    }
                    if planned.contains(&job) {
                        continue;
                    }
                    let want_why = self.obs.why();
                    let (target, considered, too_narrow, candidates) =
                        self.placer.pick_least_loaded(
                            view,
                            info.gang,
                            view.reachable_servers_of_gen(state.gen),
                            want_why,
                        );
                    if let Some(to) = target {
                        if to != cur {
                            if want_why {
                                let mut rejected = Vec::new();
                                if too_narrow > 0 {
                                    rejected.push(Rejection {
                                        reason: "gang_too_wide_for_server".into(),
                                        count: too_narrow,
                                    });
                                }
                                self.obs.emit(TraceEvent::Decision {
                                    t: now,
                                    decision: "retry".to_string(),
                                    job: Some(job),
                                    user: Some(info.user),
                                    chosen: format!(
                                        "migrate to server:{} (gen:{}, attempt {})",
                                        to.index(),
                                        state.gen.index(),
                                        state.attempts + 1
                                    ),
                                    tie_break: TIE_BREAK_LOAD.to_string(),
                                    considered,
                                    candidates,
                                    rejected,
                                });
                            }
                            actions.push(Action::Migrate { job, to });
                        }
                    }
                }
            }
        }
    }
}

impl PolicyScheduler<TicketTrading> {
    /// Trades executed so far, with timestamps.
    pub fn trades(&self) -> &[(SimTime, Trade)] {
        self.policy.trades()
    }
}

impl<P: AllocPolicy> ClusterScheduler for PolicyScheduler<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.ensure_init(view);
        let info = view.job(job).expect("arriving job is known");
        let want_why = self.obs.why();
        let (target, why) = self.placer.choose_server_explained(
            view,
            self.ent.as_ref(),
            info.user,
            info.gang,
            want_why,
        );
        if let Some(why) = why {
            self.obs.emit(TraceEvent::Decision {
                t: view.now(),
                decision: "placement".to_string(),
                job: Some(job),
                user: Some(info.user),
                chosen: why.chosen,
                tie_break: why.tie_break.to_string(),
                considered: why.considered,
                candidates: why.candidates,
                rejected: why.rejected,
            });
        }
        match target {
            Some(server) => {
                self.placer.note_placement(view, server, info.gang);
                vec![Action::Place { job, server }]
            }
            // Unplaceable gangs are rejected at simulation construction, so
            // this only happens for an empty cluster.
            None => Vec::new(),
        }
    }

    fn on_profile_report(&mut self, view: &SimView<'_>, report: &ProfileReport) -> Vec<Action> {
        self.ensure_init(view);
        let profiler = self.profiler.as_mut().expect("initialized");
        if let Some(info) = view.job(report.job) {
            if profiler.record(&info.model, report.gen, report.rate) {
                // The estimate just crossed the sample threshold: announce
                // the inferred rate once per (model, generation).
                self.obs.emit(TraceEvent::ProfileInferred {
                    t: view.now(),
                    model: info.model.to_string(),
                    gen: report.gen,
                    rate: profiler
                        .rate(&info.model, report.gen)
                        .expect("just recorded"),
                    samples: profiler.samples(&info.model, report.gen),
                });
            }
        }
        Vec::new()
    }

    fn on_migration_failed(
        &mut self,
        view: &SimView<'_>,
        job: JobId,
        to: ServerId,
        _reason: MigrationFailReason,
    ) -> Vec<Action> {
        // No immediate retry: `plan_round` re-places every pending job each
        // round, so a job stranded by a failed move is picked up there. The
        // trait default (re-dispatch through `on_job_arrival`) would queue a
        // second placement that races the round plan's — whichever lands
        // first leaves the other targeting a now-resident job, which the
        // engine rejects as a scheduler bug. A retrying policy only arms a
        // backoff here; otherwise still-resident jobs (checkpoint failure,
        // unreachable target) are re-examined by the next balancing pass.
        if !self.policy.retries_migrations() {
            return Vec::new();
        }
        self.ensure_init(view);
        let state = view.job(job).map(|j| j.state);
        if state.is_none() || state == Some(JobState::Finished) {
            self.retry.remove(&job);
            return Vec::new();
        }
        let entry = self.retry.entry(job).or_insert(RetryState {
            attempts: 0,
            next_try: SimTime::ZERO,
            gen: GenId::new(0),
        });
        entry.attempts += 1;
        if entry.attempts > self.cfg.max_migration_retries {
            // Retry budget exhausted: leave the job where the failure put
            // it. Resident jobs stay at the source; pending jobs fall to
            // the ordinary placement path with no backoff gate.
            self.retry.remove(&job);
            self.obs.inc("migration_retries_abandoned", 1);
            return Vec::new();
        }
        let shift = (entry.attempts - 1).min(16);
        entry.next_try = view.now() + BACKOFF_BASE * (1u64 << shift);
        entry.gen = view.cluster().server(to).gen;
        Vec::new()
    }

    fn on_migration_done(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
        // A landed migration ends any recovery episode for the job.
        self.retry.remove(&job);
        Vec::new()
    }

    fn on_partition_heal(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        self.ensure_init(view);
        // Reconcile: clearing the active signature forces an allocation
        // refresh at the next round, and the healed server's residency is
        // re-validated against the local scheduler's last-known membership.
        // The next sync() repairs any drift; the Reconcile event records
        // how much there was.
        self.active_sig.clear();
        let local_jobs = self.planner.jobs_on(server);
        let actual: BTreeSet<JobId> = view.resident(server).collect();
        let drift = local_jobs.symmetric_difference(&actual).count() as u32;
        let users_resynced = self
            .ent
            .as_ref()
            .map(|e| e.users().count() as u32)
            .unwrap_or(0);
        self.obs.emit(TraceEvent::Reconcile {
            t: view.now(),
            server,
            users_resynced,
            jobs_revalidated: actual.len() as u32,
            drift,
        });
        Vec::new()
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        self.ensure_init(view);
        // Queued placements were applied before this callback.
        self.placer.reset();
        let now = view.now();

        // 1. Allocation: refresh on churn or on the epoch timer.
        let active = self.inputs.active_signature(view);
        let epoch_due = now >= self.next_epoch;
        let refreshed = epoch_due || active != self.active_sig || self.ent.is_none();
        if refreshed {
            self.refresh_allocation(view, active);
            if epoch_due {
                self.next_epoch = now + self.policy.epoch(view.config());
            }
        }

        // 2. Balancing: realize the allocation by migration (plus the
        // profiling and load-spreading passes).
        let mut actions = Vec::new();
        if self.cfg.balancing && now >= self.next_balance {
            let ent = self.ent.as_ref().expect("refreshed above");
            let profiler = self.profiler.as_ref().expect("initialized");
            actions = plan_migrations_traced(&self.obs, view, ent, profiler);
            self.next_balance = now + view.config().balance_interval;
        }
        // 3. Recovery: re-issue failed migrations whose backoff expired.
        self.plan_retries(view, &mut actions);

        // 4. Re-place pending jobs (deferred arrivals, outage evictions,
        // stranded restores). Jobs in a backoff window after a failed
        // migration wait until their retry is due; once placed, the
        // placement path owns them and the retry entry is dropped.
        let retries: Vec<(JobId, UserId, u32)> = view
            .pending_jobs()
            .filter(|j| {
                self.retry
                    .get(&j.id)
                    .map(|r| r.next_try <= now)
                    .unwrap_or(true)
            })
            .map(|j| (j.id, j.user, j.gang))
            .collect();
        let want_why = self.obs.why();
        for (job, user, gang) in retries {
            let (target, why) =
                self.placer
                    .choose_server_explained(view, self.ent.as_ref(), user, gang, want_why);
            if let Some(server) = target {
                self.retry.remove(&job);
                // Emit only on success: an unplaceable job would otherwise
                // flood the trace with one identical decision per round.
                if let Some(why) = why {
                    self.obs.emit(TraceEvent::Decision {
                        t: now,
                        decision: "retry".to_string(),
                        job: Some(job),
                        user: Some(user),
                        chosen: why.chosen,
                        tie_break: why.tie_break.to_string(),
                        considered: why.considered,
                        candidates: why.candidates,
                        rejected: why.rejected,
                    });
                }
                actions.push(Action::Place { job, server });
            }
        }

        // 5. Sync locals and collect per-server selections. Jobs involved
        // in this round's actions (migrating away or just being placed) are
        // excluded from the run sets.
        let departing: BTreeSet<JobId> = actions
            .iter()
            .map(|a| match a {
                Action::Migrate { job, .. } | Action::Place { job, .. } => *job,
            })
            .collect();
        let run = self.planner.plan_runs(
            view,
            &departing,
            refreshed,
            self.cfg.lazy_planning,
            &self.obs,
        );

        // 6. Service accounting for ρ̂: every scheduled job accrues one
        // quantum (integer micros, replayed exactly on fast-forward). One
        // resize to the round's max job index, not one per job.
        if self.policy.wants_rho() {
            self.last_plan_jobs.clear();
            let q = self.quantum_micros;
            let max_idx = run
                .values()
                .flat_map(|jobs| jobs.iter())
                .map(|job| job.index())
                .max();
            if let Some(max_idx) = max_idx {
                if self.sched_micros.len() <= max_idx {
                    self.sched_micros.resize(max_idx + 1, 0);
                }
            }
            for jobs in run.values() {
                for &job in jobs {
                    self.sched_micros[job.index()] += q;
                    self.last_plan_jobs.push(job);
                }
            }
        }
        RoundPlan { run, actions }
    }

    fn next_decision_time(&self) -> Option<SimTime> {
        // Epoch timers and retry backoffs are the only internal clocks that
        // can change a plan with otherwise-unchanged inputs. A past retry
        // deadline (job waiting in a non-retryable state) keeps the minimum
        // in the past, which makes the engine's horizon collapse to zero —
        // conservative, never wrong.
        let mut t = self.next_epoch;
        if self.cfg.balancing {
            t = t.min(self.next_balance);
        }
        for r in self.retry.values() {
            t = t.min(r.next_try);
        }
        Some(t)
    }

    fn probe_fast_forward(&mut self, view: &SimView<'_>, plan: &RoundPlan, k: u64) -> u64 {
        if !self.cfg.fast_forward
            || !self.policy.fast_forward_ok()
            || k == 0
            || self.planner.is_empty()
        {
            return 0;
        }
        // Anything that would steer the next plan_round down a different
        // path declines: a pending job could be placed, an epoch timer
        // could fire, a due retry could re-enter the planning flow. The
        // engine already bounds k by next_decision_time, so these are
        // defensive.
        if view.pending_jobs().next().is_some() {
            return 0;
        }
        let now = view.now();
        if now >= self.next_epoch {
            return 0;
        }
        if self.cfg.balancing && now >= self.next_balance {
            return 0;
        }
        if self.retry.values().any(|r| r.next_try <= now) {
            return 0;
        }
        // All-or-nothing across servers: the replayable horizon is the
        // minimum over every local scheduler's differential check against
        // the cached plan (absent servers must reproduce an empty
        // selection).
        self.planner.probe(&plan.run, k)
    }

    fn commit_fast_forward(&mut self, j: u64) {
        self.planner.commit(j);
        if self.policy.wants_rho() {
            // The skipped span replays the cached plan j more times: each
            // job in it accrues j further quanta of service, keeping ρ̂
            // byte-identical to the naive per-round path.
            let q = self.quantum_micros;
            for &job in &self.last_plan_jobs {
                self.sched_micros[job.index()] += q * j;
            }
        }
    }

    fn user_shares(&self, _view: &SimView<'_>) -> Vec<UserShare> {
        let Some(ent) = &self.ent else {
            return Vec::new();
        };
        // The user's effective priority is the best (lowest) stride pass
        // among their jobs anywhere in the cluster. Lazily-settled locals
        // hold intentionally stale passes between settles, so passes are
        // folded only for traced runs — where planning is always eager and
        // they are exact. (0.0 is the schema's "no pass exposed" value, and
        // auditing keys off tickets alone.)
        let mut min_pass = self.min_pass.borrow_mut();
        if self.obs.tracing() {
            self.planner.fold_min_passes(&mut min_pass);
        } else {
            min_pass.clear();
        }
        ent.users()
            .map(|user| UserShare {
                user,
                tickets: ent.gpus_of(user),
                pass: min_pass.get(user.index()).copied().flatten().unwrap_or(0.0),
            })
            .collect()
    }
}
