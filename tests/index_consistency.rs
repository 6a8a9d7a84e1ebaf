//! Differential property tests for the simulator's materialized indexes.
//!
//! The engine answers `SimView` queries from incrementally maintained
//! indexes (`crates/sim/src/index.rs`). These tests wrap the full
//! Gandiva_fair stack in an auditing shim that, at **every** scheduler
//! callback, (a) re-derives all indexes from the raw job/residency tables
//! via `SimView::audit_indexes` and (b) cross-checks the indexed public
//! queries against naive recomputations through the public API — across
//! random traces, clusters, server failures/recoveries and the migrations
//! the balancer plans along the way.

use gfair::core::{PolicyInputs, TicketTrading};
use gfair::obs::Tracer;
use gfair::prelude::*;
use gfair::sim::{Action, ClusterScheduler, ProfileReport, RoundPlan, SimView};
use gfair::types::{GenId, JobState};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Wraps a scheduler, validating every view it is handed.
struct Audited<S>(S);

impl<S> Audited<S> {
    fn check(view: &SimView<'_>) {
        // Oracle 1: internal from-scratch recomputation of every index.
        view.audit_indexes()
            .expect("indexes match naive recomputation");

        // Oracle 2: indexed public queries vs naive public-API derivations.
        for s in &view.cluster().servers {
            let naive: u32 = view
                .resident(s.id)
                .filter_map(|id| view.job(id))
                .map(|j| j.gang)
                .sum();
            assert_eq!(
                view.resident_demand(s.id),
                naive,
                "resident_demand diverged on {}",
                s.id
            );
            let gpus = view.cluster().server(s.id).num_gpus;
            assert_eq!(view.server_load(s.id), naive as f64 / gpus as f64);
        }
        // Every job iterator yields strictly increasing ids, so an order
        // bug in the index's job sets fails here and not only in a digest.
        let increasing = |ids: Vec<JobId>, what: &str| {
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "{what} is not strictly id-ordered: {ids:?}"
            );
        };
        increasing(view.jobs().map(|j| j.id).collect(), "jobs()");
        increasing(view.active_jobs().map(|j| j.id).collect(), "active_jobs()");
        increasing(
            view.pending_jobs().map(|j| j.id).collect(),
            "pending_jobs()",
        );
        for u in view.active_users() {
            increasing(
                view.jobs_of_user(u).map(|j| j.id).collect(),
                "jobs_of_user()",
            );
        }
        for (model, jobs) in view.active_models() {
            increasing(jobs.iter().collect(), &format!("active_models()[{model}]"));
            assert_eq!(jobs.len(), jobs.iter().count(), "{model}: len disagrees");
        }
        let active: Vec<JobId> = view.active_jobs().map(|j| j.id).collect();
        let naive_active: Vec<JobId> = view
            .jobs()
            .filter(|j| j.state.is_active())
            .map(|j| j.id)
            .collect();
        assert_eq!(active, naive_active, "active_jobs diverged");
        let pending: Vec<JobId> = view.pending_jobs().map(|j| j.id).collect();
        let naive_pending: Vec<JobId> = view
            .jobs()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| j.id)
            .collect();
        assert_eq!(pending, naive_pending, "pending_jobs diverged");
        let users = view.active_users();
        let naive_users: Vec<UserId> = {
            let set: BTreeSet<UserId> = view.active_jobs().map(|j| j.user).collect();
            set.into_iter().collect()
        };
        assert_eq!(users, naive_users, "active_users diverged");
        for u in users {
            let of_user: Vec<JobId> = view.jobs_of_user(u).map(|j| j.id).collect();
            let naive_of: Vec<JobId> = view
                .active_jobs()
                .filter(|j| j.user == u)
                .map(|j| j.id)
                .collect();
            assert_eq!(of_user, naive_of, "jobs_of_user({u}) diverged");
        }
        Self::check_aggregates(view);
    }

    /// The aggregate queries the policies read, each against a naive
    /// derivation over `active_jobs()`. Every comparison is between
    /// vectors, so the order must match as well as the values.
    fn check_aggregates(view: &SimView<'_>) {
        let mut demands: BTreeMap<UserId, u64> = BTreeMap::new();
        let mut model_demands: BTreeMap<(UserId, String), u64> = BTreeMap::new();
        let mut models: BTreeMap<String, Vec<JobId>> = BTreeMap::new();
        let mut gen_assigned: BTreeMap<(UserId, GenId), u64> = BTreeMap::new();
        let mut server_assigned: BTreeMap<UserId, BTreeMap<ServerId, u64>> = BTreeMap::new();
        for j in view.active_jobs() {
            let gang = u64::from(j.gang);
            *demands.entry(j.user).or_insert(0) += gang;
            *model_demands
                .entry((j.user, view.model_name(j.model_id).to_string()))
                .or_insert(0) += gang;
            let model = view.model_name(j.model_id).to_string();
            models.entry(model).or_default().push(j.id);
            if let Some(s) = j.server {
                let gen = view.cluster().server(s).gen;
                *gen_assigned.entry((j.user, gen)).or_insert(0) += gang;
                *server_assigned
                    .entry(j.user)
                    .or_default()
                    .entry(s)
                    .or_insert(0) += gang;
            }
        }
        let got: Vec<(UserId, u64)> = view.user_demands().collect();
        let naive: Vec<(UserId, u64)> = demands.into_iter().collect();
        assert_eq!(got, naive, "user_demands diverged");
        let got: Vec<(UserId, String, u64)> = view
            .user_model_demands()
            .map(|(u, m, d)| (u, view.model_name(m).to_string(), d))
            .collect();
        let naive: Vec<(UserId, String, u64)> = model_demands
            .into_iter()
            .map(|((u, m), d)| (u, m, d))
            .collect();
        assert_eq!(got, naive, "user_model_demands diverged");
        let got: Vec<(String, Vec<JobId>)> = view
            .active_models()
            .map(|(m, jobs)| (view.model_name(m).to_string(), jobs.iter().collect()))
            .collect();
        let naive: Vec<(String, Vec<JobId>)> = models.into_iter().collect();
        assert_eq!(got, naive, "active_models diverged");
        for user in view.users() {
            let u = user.id;
            for gen in view.cluster().catalog.ids() {
                let naive = gen_assigned.get(&(u, gen)).copied().unwrap_or(0);
                assert_eq!(
                    view.user_gen_assigned(u, gen),
                    naive,
                    "user_gen_assigned({u}, {gen:?}) diverged"
                );
            }
            let got: Vec<(ServerId, u64)> = view.user_server_assignments(u).collect();
            let naive: Vec<(ServerId, u64)> = server_assigned
                .get(&u)
                .map(|m| m.iter().map(|(&s, &d)| (s, d)).collect())
                .unwrap_or_default();
            assert_eq!(got, naive, "user_server_assignments({u}) diverged");
            for s in &view.cluster().servers {
                let naive = server_assigned
                    .get(&u)
                    .and_then(|m| m.get(&s.id))
                    .copied()
                    .unwrap_or(0);
                assert_eq!(
                    view.user_server_assigned(u, s.id),
                    naive,
                    "user_server_assigned({u}, {}) diverged",
                    s.id
                );
            }
        }
    }
}

impl<S: ClusterScheduler> ClusterScheduler for Audited<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        Self::check(view);
        self.0.on_job_arrival(view, job)
    }
    fn on_job_finish(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        Self::check(view);
        self.0.on_job_finish(view, job)
    }
    fn on_migration_done(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        Self::check(view);
        self.0.on_migration_done(view, job)
    }
    fn on_job_evicted(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        Self::check(view);
        self.0.on_job_evicted(view, job)
    }
    fn on_server_down(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        Self::check(view);
        self.0.on_server_down(view, server)
    }
    fn on_server_up(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        Self::check(view);
        self.0.on_server_up(view, server)
    }
    fn on_profile_report(&mut self, view: &SimView<'_>, report: &ProfileReport) -> Vec<Action> {
        Self::check(view);
        self.0.on_profile_report(view, report)
    }
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        Self::check(view);
        self.0.plan_round(view)
    }
    fn user_shares(&self, view: &SimView<'_>) -> Vec<gfair::obs::UserShare> {
        self.0.user_shares(view)
    }
}

/// Keeps the `profile_inferred` events of a run, as (model, gen, samples).
struct Inferred(Arc<Mutex<Vec<(String, GenId, u64)>>>);

impl Tracer for Inferred {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::ProfileInferred {
            model,
            gen,
            samples,
            ..
        } = event
        {
            self.0.lock().unwrap().push((model.clone(), *gen, *samples));
        }
    }
}

/// Wraps gfair's scheduler (itself audited) and checks that model ids and
/// the trace's model names agree wherever the profiler sits between them:
/// each report lands on the estimate of its job's model name, a
/// `profile_inferred` event names that model exactly when its estimate
/// crosses the sample threshold, and the dense policy inputs built on the
/// profiler match their from-scratch oracle.
struct ModelIds {
    sched: Audited<PolicyScheduler<TicketTrading>>,
    /// Each job's model name as the trace gave it, by `JobId::index()`.
    names: Vec<String>,
    inferred: Arc<Mutex<Vec<(String, GenId, u64)>>>,
    /// Reports seen per (model name, generation).
    reports: BTreeMap<(String, GenId), u64>,
}

impl ClusterScheduler for ModelIds {
    fn name(&self) -> &'static str {
        self.sched.name()
    }
    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.sched.on_job_arrival(view, job)
    }
    fn on_job_finish(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.sched.on_job_finish(view, job)
    }
    fn on_migration_done(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.sched.on_migration_done(view, job)
    }
    fn on_job_evicted(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.sched.on_job_evicted(view, job)
    }
    fn on_profile_report(&mut self, view: &SimView<'_>, report: &ProfileReport) -> Vec<Action> {
        let info = view.job(report.job).expect("reported job is known");
        let name = &self.names[report.job.index()];
        assert_eq!(&**view.model_name(info.model_id), name);
        let key = (name.clone(), report.gen);
        let seen = self.reports.entry(key.clone()).or_insert(0);
        *seen += 1;
        let seen = *seen;
        let was_profiled =
            (self.sched.0.profiler()).is_some_and(|p| p.is_profiled(info.model_id, report.gen));
        let before = self.inferred.lock().unwrap().len();
        let actions = self.sched.on_profile_report(view, report);
        let profiler = self.sched.0.profiler().expect("profiler built");
        assert_eq!(profiler.model_id(name), Some(info.model_id));
        assert_eq!(
            profiler.samples(info.model_id, report.gen),
            seen,
            "{key:?}: the estimate counts another model's reports"
        );
        let crossed = !was_profiled && profiler.is_profiled(info.model_id, report.gen);
        let events = self.inferred.lock().unwrap()[before..].to_vec();
        let want = if crossed {
            vec![(key.0, key.1, seen)]
        } else {
            vec![]
        };
        assert_eq!(
            events, want,
            "profile_inferred for a report of {}",
            report.job
        );
        actions
    }
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        let plan = self.sched.plan_round(view);
        let profiler = self.sched.0.profiler().expect("profiler built");
        let mut inputs = PolicyInputs::new();
        inputs.ensure_init(view);
        inputs.active_signature(view);
        inputs.refresh(view, profiler);
        inputs
            .audit(view, profiler, false)
            .expect("policy inputs match their from-scratch oracle");
        plan
    }
    fn user_shares(&self, view: &SimView<'_>) -> Vec<gfair::obs::UserShare> {
        self.sched.user_shares(view)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random heterogeneous runs — arrivals, finishes, placements and
    /// balancer migrations — keep every index equal to its naive
    /// recomputation at every callback.
    #[test]
    fn indexes_match_naive_recomputation(
        seed in 0u64..1000,
        k80 in 1u32..4,
        v100 in 1u32..3,
        n_users in 1u32..5,
        n_jobs in 1usize..50,
    ) {
        let cluster = ClusterSpec::build(
            GenCatalog::k80_p100_v100(),
            &[("K80", k80, 8), ("V100", v100, 8)],
        );
        let users = UserSpec::equal_users(n_users, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = n_jobs;
        params.jobs_per_hour = 200.0;
        params.median_service_mins = 15.0;
        params.service_clamp_mins = (2.0, 60.0);
        let trace = TraceBuilder::new(params, seed).build(&users);
        let sim = Simulation::new(
            cluster,
            users,
            trace,
            SimConfig::default().with_seed(seed),
        )
        .unwrap();
        let mut sched = Audited(GandivaFair::new(GfairConfig::default()));
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(8 * 3600))
            .expect("clean run");
        prop_assert!(report.rounds > 0);
    }

    /// Server failures (evicting whole resident sets at once) and
    /// recoveries — the bulk index transitions — stay consistent too.
    #[test]
    fn indexes_survive_failures_and_recoveries(
        seed in 0u64..1000,
        fail_at_mins in 10u64..120,
        down_mins in 5u64..120,
        n_jobs in 5usize..40,
    ) {
        let cluster = ClusterSpec::homogeneous(3, 8);
        let users = UserSpec::equal_users(3, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = n_jobs;
        params.jobs_per_hour = 150.0;
        params.median_service_mins = 20.0;
        params.service_clamp_mins = (2.0, 90.0);
        let trace = TraceBuilder::new(params, seed).build(&users);
        let fail_at = SimTime::from_secs(fail_at_mins * 60);
        let sim = Simulation::new(
            cluster,
            users,
            trace,
            SimConfig::default().with_seed(seed),
        )
        .unwrap()
        .with_server_failure(ServerId::new(1), fail_at)
        .with_server_recovery(ServerId::new(1), fail_at + SimDuration::from_secs(down_mins * 60));
        let mut sched = Audited(GandivaFair::new(GfairConfig::default()));
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(8 * 3600))
            .expect("clean run");
        prop_assert!(report.rounds > 0);
    }

    /// Sparse user ids and model names that first arrive in reverse name
    /// order: the per-user tables must skip the id gaps, the per-model
    /// tables must still list models in name order, not arrival order, and
    /// the profiler, keyed by model id, must attribute every report and
    /// every `profile_inferred` event to the right model name.
    #[test]
    fn indexes_handle_sparse_users_and_out_of_order_models(
        seed in 0u64..1000,
        gaps in proptest::collection::vec(0u32..40, 1..5),
        n_jobs in 5usize..40,
    ) {
        let cluster = ClusterSpec::build(
            GenCatalog::k80_p100_v100(),
            &[("K80", 2, 8), ("P100", 1, 4), ("V100", 1, 8)],
        );
        let mut next = 0u32;
        let users: Vec<UserSpec> = gaps
            .iter()
            .map(|&gap| {
                next += gap;
                let id = UserId::new(next);
                next += 1;
                UserSpec::new(id, &format!("u{}", id.index()), 100)
            })
            .collect();
        let mut params = PhillyParams::default();
        params.num_jobs = n_jobs;
        params.jobs_per_hour = 200.0;
        params.median_service_mins = 15.0;
        params.service_clamp_mins = (2.0, 60.0);
        let mut trace = TraceBuilder::new(params, seed).build(&users);
        // Hand out models so that the first arrivals walk the zoo in
        // descending name order.
        let mut descending: Vec<_> = zoo().into_iter().map(|e| e.model).collect();
        descending.sort_by(|a, b| b.name.cmp(&a.name));
        trace.sort_by_key(|j| (j.arrival, j.id));
        for (i, job) in trace.iter_mut().enumerate() {
            job.model = Arc::clone(&descending[i % descending.len()]);
        }
        let mut names = vec![String::new(); trace.len()];
        for job in &trace {
            names[job.id.index()] = job.model.name.clone();
        }
        let obs: SharedObs = Arc::new(Obs::new());
        let inferred = Arc::new(Mutex::new(Vec::new()));
        obs.add_sink(Box::new(Inferred(Arc::clone(&inferred))));
        let sim = Simulation::new(
            cluster,
            users,
            trace,
            SimConfig::default().with_seed(seed),
        )
        .unwrap()
        .with_obs(Arc::clone(&obs));
        let mut sched = ModelIds {
            sched: Audited(GandivaFair::new(GfairConfig::default()).with_obs(obs)),
            names,
            inferred: Arc::clone(&inferred),
            reports: BTreeMap::new(),
        };
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(8 * 3600))
            .expect("clean run");
        prop_assert!(report.rounds > 0);
        prop_assert!(!sched.reports.is_empty(), "no profile report arrived");
    }
}
