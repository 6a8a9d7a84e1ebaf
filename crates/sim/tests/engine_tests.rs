//! Integration tests for the simulation engine, using small reference
//! schedulers to exercise arrival/placement, time slicing, exact-time
//! completion, migration, profiling, horizons, validation, and determinism.

use gfair_faults::FaultPlan;
use gfair_obs::{Obs, TraceEvent};
use gfair_sim::{
    latest_event_time, Action, ClusterScheduler, ProfileReport, RoundPlan, SimReport, SimView,
    Simulation,
};
use gfair_types::{
    ClusterSpec, GenCatalog, GfairError, JobId, JobSpec, JobState, ModelProfile, ServerId,
    SimConfig, SimDuration, SimTime, UserId, UserSpec,
};
use std::sync::Arc;

/// Places each arriving job on the least-demand server that fits its gang;
/// each round runs resident jobs first-fit in id order.
struct Greedy;

impl Greedy {
    fn pick_server(view: &SimView<'_>, gang: u32) -> Option<ServerId> {
        view.up_servers()
            .filter(|s| s.num_gpus >= gang)
            .min_by(|a, b| {
                view.server_load(a.id)
                    .total_cmp(&view.server_load(b.id))
                    .then(a.id.cmp(&b.id))
            })
            .map(|s| s.id)
    }
}

impl ClusterScheduler for Greedy {
    fn name(&self) -> &'static str {
        "greedy-test"
    }

    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        let gang = view.job(job).unwrap().gang;
        match Self::pick_server(view, gang) {
            Some(server) => vec![Action::Place { job, server }],
            None => Vec::new(),
        }
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        let mut plan = RoundPlan::empty();
        for server in &view.cluster().servers {
            let mut free = server.num_gpus;
            for job in view.resident(server.id) {
                let info = view.job(job).unwrap();
                if info.state == JobState::Resident && info.gang <= free {
                    free -= info.gang;
                    plan.run_on(server.id, job);
                }
            }
        }
        plan
    }
}

fn model() -> Arc<ModelProfile> {
    Arc::new(ModelProfile::with_default_overheads(
        "ResNet-50",
        vec![1.0, 2.0, 4.0],
    ))
}

fn hetero_cluster() -> ClusterSpec {
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 1, 4), ("P100", 1, 4), ("V100", 1, 4)],
    )
}

fn mono_cluster(gpus: u32) -> ClusterSpec {
    ClusterSpec::homogeneous(1, gpus)
}

fn mono_model() -> Arc<ModelProfile> {
    Arc::new(ModelProfile::with_default_overheads("VAE", vec![1.0]))
}

fn users(n: u32) -> Vec<UserSpec> {
    UserSpec::equal_users(n, 100)
}

fn job(id: u32, user: u32, model: &Arc<ModelProfile>, gang: u32, service: f64, at: u64) -> JobSpec {
    JobSpec::new(
        JobId::new(id),
        UserId::new(user),
        Arc::clone(model),
        gang,
        service,
        SimTime::from_secs(at),
    )
}

fn config() -> SimConfig {
    SimConfig::default()
}

#[test]
fn single_job_runs_to_completion_with_exact_jct() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 2, 300.0, 0)];
    let sim = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    let rec = &report.jobs[&JobId::new(0)];
    // 300 s of service on a base-rate GPU, scheduled every round from t=0.
    assert_eq!(rec.finish, Some(SimTime::from_secs(300)));
    assert_eq!(rec.jct(), Some(SimDuration::from_secs(300)));
    assert_eq!(rec.first_run, Some(SimTime::ZERO));
    // gang 2 x 300 s = 600 GPU-seconds.
    assert!((rec.total_gpu_secs() - 600.0).abs() < 1e-6);
    assert_eq!(report.finished_jobs(), 1);
    assert_eq!(report.end, SimTime::from_secs(300));
}

#[test]
fn fast_generation_shortens_runtime() {
    let m = model();
    // One job placed on the V100 server (least loaded tie broken by id:
    // place explicitly by filling others first).
    struct PinV100;
    impl ClusterScheduler for PinV100 {
        fn name(&self) -> &'static str {
            "pin-v100"
        }
        fn on_job_arrival(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(2),
            }]
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            let mut plan = RoundPlan::empty();
            for j in view.resident(ServerId::new(2)) {
                plan.run_on(ServerId::new(2), j);
            }
            plan
        }
    }
    let trace = vec![job(0, 0, &m, 1, 1200.0, 0)];
    let sim = Simulation::new(hetero_cluster(), users(1), trace, config()).unwrap();
    let report = sim.run(&mut PinV100).unwrap();
    // Server 2 is V100 (rate 4.0): 1200 base-seconds finish in 300 s.
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(300))
    );
}

#[test]
fn mid_round_completion_is_exact() {
    let m = mono_model();
    // 90 s of service with a 60 s quantum: finishes at t=90, mid-round.
    let trace = vec![job(0, 0, &m, 1, 90.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(90))
    );
    // Only 90 GPU-seconds are accounted, not two full quanta.
    assert!((report.gpu_secs_used - 90.0).abs() < 1e-6);
}

#[test]
fn two_jobs_time_share_one_gpu() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 300.0, 0), job(1, 1, &m, 1, 300.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(2), trace, config()).unwrap();
    // Greedy runs whichever fits first each round: job 0 always wins (id
    // order), so job 1 runs only after job 0 finishes.
    let report = sim.run(&mut Greedy).unwrap();
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(300))
    );
    assert_eq!(
        report.jobs[&JobId::new(1)].finish,
        Some(SimTime::from_secs(600))
    );
    assert!((report.gpu_secs_used - 600.0).abs() < 1e-6);
    // The 1-GPU cluster was fully used until the end.
    assert!((report.utilization() - 1.0).abs() < 1e-6);
}

#[test]
fn late_arrival_starts_rounds_on_demand() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 60.0, 1000)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    let rec = &report.jobs[&JobId::new(0)];
    assert_eq!(rec.first_run, Some(SimTime::from_secs(1000)));
    assert_eq!(rec.finish, Some(SimTime::from_secs(1060)));
    assert_eq!(rec.queue_delay(), Some(SimDuration::ZERO));
}

/// Migrates job 0 to server 1 on the first round after t=120, then behaves
/// like `Greedy`.
struct MigrateOnce {
    done: bool,
}

impl ClusterScheduler for MigrateOnce {
    fn name(&self) -> &'static str {
        "migrate-once"
    }
    fn on_job_arrival(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
        vec![Action::Place {
            job,
            server: ServerId::new(0),
        }]
    }
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        let mut plan = RoundPlan::empty();
        if !self.done && view.now() >= SimTime::from_secs(120) {
            self.done = true;
            plan.actions.push(Action::Migrate {
                job: JobId::new(0),
                to: ServerId::new(1),
            });
            return plan;
        }
        for server in &view.cluster().servers {
            for j in view.resident(server.id) {
                if view.job(j).unwrap().state == JobState::Resident {
                    plan.run_on(server.id, j);
                }
            }
        }
        plan
    }
}

#[test]
fn migration_suspends_and_resumes_on_destination() {
    let m = mono_model(); // 30 s ckpt + 30 s restore
    let cluster = ClusterSpec::homogeneous(2, 4);
    let trace = vec![job(0, 0, &m, 2, 300.0, 0)];
    let sim = Simulation::new(cluster, users(1), trace, config()).unwrap();
    let report = sim.run(&mut MigrateOnce { done: false }).unwrap();
    let rec = &report.jobs[&JobId::new(0)];
    assert_eq!(rec.migrations, 1);
    assert_eq!(report.migrations, 1);
    assert_eq!(report.migration_outage, SimDuration::from_secs(60));
    // Ran 120 s, suspended for 60 s (done at t=180), resumes at the next
    // round (also t=180 — migration completes exactly on a boundary), so
    // completion = 120 + 60 + 180 = 360 s.
    assert_eq!(rec.finish, Some(SimTime::from_secs(360)));
}

#[test]
fn profile_reports_reflect_true_rate_within_noise() {
    struct Capture {
        inner: Greedy,
        reports: Vec<ProfileReport>,
    }
    impl ClusterScheduler for Capture {
        fn name(&self) -> &'static str {
            "capture"
        }
        fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
            self.inner.on_job_arrival(view, job)
        }
        fn on_profile_report(&mut self, _v: &SimView<'_>, r: &ProfileReport) -> Vec<Action> {
            self.reports.push(*r);
            Vec::new()
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            self.inner.plan_round(view)
        }
    }
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 1800.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let mut sched = Capture {
        inner: Greedy,
        reports: Vec::new(),
    };
    let report = sim.run(&mut sched).unwrap();
    // 1800 s of runtime with a 180 s stint: 10 stints, but the last report
    // lands after the job's final round and is never delivered mid-run.
    assert!(
        sched.reports.len() >= 8,
        "expected ~9 reports, got {}",
        sched.reports.len()
    );
    assert_eq!(report.profile_reports, sched.reports.len() as u64);
    for r in &sched.reports {
        assert_eq!(r.job, JobId::new(0));
        assert!(
            (r.rate - 1.0).abs() <= 0.05 + 1e-9,
            "observed rate {} outside noise band",
            r.rate
        );
    }
}

#[test]
fn sub_microsecond_residue_finishes_instead_of_stalling() {
    // 120 s + 2e-9 s of service at rate 1: after two full quanta a residue
    // of about 2e-9 s is left. It rounds to zero microseconds of run time,
    // so the job must finish rather than be granted forever without
    // progress. A demand that is all residue finishes at its first grant.
    let m = mono_model();
    for (service, finish) in [(120.000_000_002, 120), (1e-7, 0)] {
        let trace = vec![job(0, 0, &m, 1, service, 0)];
        let sim = Simulation::new(mono_cluster(1), users(1), trace, config())
            .unwrap()
            .with_round_limit(100);
        let report = sim.run(&mut Greedy).unwrap();
        let rec = &report.jobs[&JobId::new(0)];
        assert_eq!(rec.finish, Some(SimTime::from_secs(finish)), "{service}");
        assert_eq!(report.finished_jobs(), 1);
    }
}

#[test]
fn huge_demand_with_switch_overhead_does_not_finish_early() {
    // 1e30 s of demand saturates the microsecond conversion; adding the
    // switch overhead to it must neither overflow nor wrap into an
    // instant finish.
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 1e30, 0)];
    let cfg = config().with_switch_overhead(SimDuration::from_secs(6));
    let sim = Simulation::new(mono_cluster(1), users(1), trace, cfg).unwrap();
    let report = sim.run_until(&mut Greedy, SimTime::from_secs(600)).unwrap();
    assert_eq!(report.finished_jobs(), 0);
}

#[test]
fn a_job_granted_without_progress_is_reported_stalled() {
    // Two minutes on the fast server leave 1.2e22 s of progress; on the
    // base-rate server a quantum adds 60 s, which that sum absorbs in f64.
    // The job would be granted every round and never finish, so the run
    // fails.
    let m = Arc::new(ModelProfile::with_default_overheads(
        "stalls-on-K80",
        vec![1.0, 1e20, 1e20],
    ));
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("P100", 1, 4), ("K80", 1, 4)],
    );
    let trace = vec![job(0, 0, &m, 1, 1e30, 0)];
    let sim = Simulation::new(cluster, users(1), trace, config()).unwrap();
    let err = sim
        .run_until(&mut MigrateOnce { done: false }, SimTime::from_secs(3600))
        .unwrap_err();
    assert_eq!(
        err,
        GfairError::JobStalled {
            job: JobId::new(0),
            server: ServerId::new(1),
        }
    );
}

#[test]
fn horizon_truncates_service_exactly() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 100_000.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let horizon = SimTime::from_secs(3_570); // mid-round on purpose
    let report = sim.run_until(&mut Greedy, horizon).unwrap();
    let rec = &report.jobs[&JobId::new(0)];
    assert_eq!(rec.finish, None);
    assert_eq!(report.end, horizon);
    // Service must not be accrued past the horizon.
    assert!(
        report.gpu_secs_used <= 3_570.0 + 1e-6,
        "accrued {} past horizon",
        report.gpu_secs_used
    );
    assert!(report.gpu_secs_used >= 3_500.0);
}

#[test]
fn same_seed_gives_identical_reports() {
    let m = model();
    let trace: Vec<JobSpec> = (0..20)
        .map(|i| {
            job(
                i,
                i % 3,
                &m,
                1 + (i % 4),
                500.0 + 50.0 * i as f64,
                30 * i as u64,
            )
        })
        .collect();
    let mk = || {
        Simulation::new(hetero_cluster(), users(3), trace.clone(), config())
            .unwrap()
            .run(&mut Greedy)
            .unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
}

#[test]
fn overcommit_plan_is_rejected() {
    struct Overcommit;
    impl ClusterScheduler for Overcommit {
        fn name(&self) -> &'static str {
            "overcommit"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            let mut plan = RoundPlan::empty();
            // Run everything resident regardless of capacity.
            for j in view.resident(ServerId::new(0)) {
                plan.run_on(ServerId::new(0), j);
            }
            plan
        }
    }
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 3, 100.0, 0), job(1, 0, &m, 3, 100.0, 0)];
    let obs = Arc::new(Obs::new());
    let ring = obs.ring(64);
    let sim = Simulation::new(mono_cluster(4), users(1), trace, config())
        .unwrap()
        .with_obs(Arc::clone(&obs));
    let err = sim.run(&mut Overcommit).unwrap_err();
    assert!(matches!(err, GfairError::ServerOvercommitted { .. }));
    // Both grants passed their own checks before the server total failed;
    // they are emitted before the error returns. The engine's check is the
    // only one: the auditor does not re-check grants.
    let granted = ring
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::GangPacked { .. }))
        .count();
    assert_eq!(granted, 2);
    assert_eq!(obs.counter("gangs_packed"), 2);
    assert!(obs.take_fatal().is_none());
}

#[test]
fn running_a_non_resident_job_is_rejected() {
    struct WrongServer;
    impl ClusterScheduler for WrongServer {
        fn name(&self) -> &'static str {
            "wrong-server"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, _view: &SimView<'_>) -> RoundPlan {
            let mut plan = RoundPlan::empty();
            plan.run_on(ServerId::new(1), JobId::new(0));
            plan
        }
    }
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 100.0, 0)];
    let cluster = ClusterSpec::homogeneous(2, 4);
    let sim = Simulation::new(cluster, users(1), trace, config()).unwrap();
    let err = sim.run(&mut WrongServer).unwrap_err();
    assert!(matches!(err, GfairError::JobNotResident { .. }));
}

#[test]
fn placing_an_oversized_gang_is_rejected() {
    struct BadPlace;
    impl ClusterScheduler for BadPlace {
        fn name(&self) -> &'static str {
            "bad-place"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, _view: &SimView<'_>) -> RoundPlan {
            RoundPlan::empty()
        }
    }
    let m = mono_model();
    // Cluster has a 4-GPU and an 8-GPU server; the gang of 8 fits only the
    // second but the scheduler places it on the first.
    let cluster = ClusterSpec::build(
        GenCatalog::homogeneous("P100"),
        &[("P100", 1, 4), ("P100", 1, 8)],
    );
    let trace = vec![job(0, 0, &m, 8, 100.0, 0)];
    let sim = Simulation::new(cluster, users(1), trace, config()).unwrap();
    let err = sim.run(&mut BadPlace).unwrap_err();
    assert!(matches!(err, GfairError::GangDoesNotFit { .. }));
}

#[test]
fn never_placing_jobs_hits_round_limit() {
    struct DoNothing;
    impl ClusterScheduler for DoNothing {
        fn name(&self) -> &'static str {
            "do-nothing"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, _job: JobId) -> Vec<Action> {
            Vec::new()
        }
        fn plan_round(&mut self, _view: &SimView<'_>) -> RoundPlan {
            RoundPlan::empty()
        }
    }
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 100.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config())
        .unwrap()
        .with_round_limit(100);
    let err = sim.run(&mut DoNothing).unwrap_err();
    assert_eq!(err, GfairError::RoundLimitExceeded(100));
}

#[test]
fn oversized_gang_in_trace_is_rejected_at_construction() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 16, 100.0, 0)];
    let err = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap_err();
    assert!(matches!(err, GfairError::InvalidConfig(_)));
}

#[test]
fn gpu_total_overflowing_u32_is_rejected_at_construction() {
    // 4 × (2^30 + 1) GPUs wraps a u32 total to 4.
    let cluster = ClusterSpec::homogeneous(4, (1 << 30) + 1);
    assert_eq!(cluster.checked_total_gpus(), None);
    let trace = vec![job(0, 0, &mono_model(), 1, 100.0, 0)];
    let err = Simulation::new(cluster, users(1), trace, config()).unwrap_err();
    assert!(
        matches!(&err, GfairError::InvalidConfig(m) if m.contains("GPUs in total")),
        "{err}"
    );
}

#[test]
fn unknown_user_in_trace_is_rejected() {
    let m = mono_model();
    let trace = vec![job(0, 7, &m, 1, 100.0, 0)];
    let err = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap_err();
    assert!(matches!(err, GfairError::InvalidConfig(_)));
}

#[test]
fn zero_ticket_user_is_rejected_at_construction() {
    // `UserSpec::new` refuses zero tickets, but a struct literal or a
    // deserialized spec can carry them; the run used to panic once the
    // user became active.
    let m = mono_model();
    let mut users = users(2);
    users[1].tickets = 0;
    let trace = vec![job(0, 0, &m, 1, 100.0, 0), job(1, 1, &m, 1, 100.0, 0)];
    let err = Simulation::new(mono_cluster(4), users, trace, config()).unwrap_err();
    assert!(
        matches!(&err, GfairError::InvalidConfig(m) if m.contains("user U1") && m.contains("zero tickets")),
        "{err}"
    );
}

/// Asserts that `build` panics with a message that starts with `what` and
/// names the latest event time.
fn assert_refused(what: &str, build: impl FnOnce() -> Simulation) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
        .err()
        .unwrap_or_else(|| panic!("{what} after the latest event time was accepted"));
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.starts_with(what) && msg.contains("after the latest event time"),
        "{what}: {msg}"
    );
}

#[test]
fn events_after_the_latest_event_time_are_refused() {
    // Scheduled events get the bound arrivals have. The engine flushes one
    // report window per `report_window` up to each event it reaches, so a
    // partition starting at 3·10^12 s used to exhaust memory.
    let latest = latest_event_time(&config());
    let after = latest + SimDuration::from_micros(1);
    let s0 = ServerId::new(0);
    let u0 = UserId::new(0);
    let sim = || Simulation::new(mono_cluster(4), users(1), vec![], config()).unwrap();
    let far = SimTime::from_secs(3_000_000_000_000);
    let hour = SimDuration::from_secs(3600);
    let minute = SimDuration::from_secs(60);
    assert_refused("fault plan partition end", || {
        sim().with_faults(FaultPlan::none().with_partition(s0, far, far + hour))
    });
    // Its last recovery overflows u64 microseconds.
    let long = SimDuration::from_micros(u64::MAX / 4);
    assert_refused("fault plan flap", || {
        sim().with_faults(FaultPlan::none().with_flap(s0, SimTime::ZERO, long, long, 3))
    });
    assert_refused("server failure", || sim().with_server_failure(s0, after));
    assert_refused("server recovery", || sim().with_server_recovery(s0, after));
    assert_refused("ticket change", || sim().with_ticket_change(u0, after, 5));
    // The bound itself is accepted.
    let plan = FaultPlan::none().with_flap(s0, latest - minute - minute, minute, minute, 1);
    let _ = sim()
        .with_faults(plan)
        .with_server_failure(s0, latest)
        .with_ticket_change(u0, latest, 5);
}

#[test]
fn zero_gang_in_trace_is_rejected_at_construction() {
    // `JobSpec::new` refuses a zero gang, but a deserialized trace can
    // carry one.
    let m = mono_model();
    let mut zero = job(0, 0, &m, 1, 100.0, 0);
    zero.gang = 0;
    let trace = vec![zero];
    let err = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap_err();
    assert!(matches!(err, GfairError::InvalidConfig(_)));
}

#[test]
fn non_positive_service_or_rates_in_trace_are_rejected_at_construction() {
    // `JobSpec::new` and `ModelProfile::new` refuse these, but a
    // deserialized trace can carry them.
    let m = mono_model();
    for service in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
        let mut bad = job(0, 0, &m, 1, 100.0, 0);
        bad.service_secs = service;
        let err = Simulation::new(mono_cluster(4), users(1), vec![bad], config()).unwrap_err();
        assert!(
            matches!(err, GfairError::InvalidConfig(_)),
            "{service}: {err}"
        );
    }
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut profile = (*m).clone();
        profile.rates = vec![rate];
        let trace = vec![job(0, 0, &Arc::new(profile), 1, 100.0, 0)];
        let err = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap_err();
        assert!(matches!(err, GfairError::InvalidConfig(_)), "{rate}: {err}");
    }
}

#[test]
fn sparse_ids_are_rejected_past_the_documented_bound() {
    // One job and one user: ids must be below 2 * 1 + 65536.
    let m = mono_model();
    let build = |job_id: u32, user_id: u32| {
        let users = vec![UserSpec::new(UserId::new(user_id), "u", 100)];
        let trace = vec![job(job_id, user_id, &m, 1, 100.0, 0)];
        Simulation::new(mono_cluster(1), users, trace, config())
    };
    assert!(build(65_537, 65_537).is_ok());
    for (job_id, user_id) in [(65_538, 0), (0, 65_538), (u32::MAX, 0)] {
        let err = build(job_id, user_id).unwrap_err();
        assert!(matches!(err, GfairError::InvalidConfig(_)), "{err}");
    }
}

#[test]
fn model_missing_generations_is_rejected() {
    let narrow = Arc::new(ModelProfile::with_default_overheads("narrow", vec![1.0]));
    let trace = vec![job(0, 0, &narrow, 1, 100.0, 0)];
    let err = Simulation::new(hetero_cluster(), users(1), trace, config()).unwrap_err();
    assert!(matches!(err, GfairError::InvalidConfig(_)));
}

#[test]
fn timeseries_windows_cover_the_run() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 900.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    // 900 s of work, 300 s windows: exactly 3 windows of full utilization.
    assert_eq!(report.timeseries.len(), 3);
    for w in &report.timeseries {
        assert!((w.utilization() - 1.0).abs() < 1e-6, "window {w:?}");
        assert!((w.user_gpu_secs[&UserId::new(0)] - 300.0).abs() < 1e-6);
    }
}

#[test]
fn base_equivalent_service_weights_by_speedup() {
    // Same job pinned to V100 (rate 4): base-equivalent service is 4x raw.
    struct PinV100;
    impl ClusterScheduler for PinV100 {
        fn name(&self) -> &'static str {
            "pin"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(2),
            }]
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            let mut plan = RoundPlan::empty();
            for j in view.resident(ServerId::new(2)) {
                plan.run_on(ServerId::new(2), j);
            }
            plan
        }
    }
    let m = model();
    let trace = vec![job(0, 0, &m, 1, 1200.0, 0)];
    let sim = Simulation::new(hetero_cluster(), users(1), trace, config()).unwrap();
    let report = sim.run(&mut PinV100).unwrap();
    let raw = report.gpu_secs_of(UserId::new(0));
    let base = report.base_secs_of(UserId::new(0));
    assert!((raw - 300.0).abs() < 1e-6);
    assert!((base - 1200.0).abs() < 1e-6);
}

#[test]
fn warm_jobs_pay_no_switch_overhead() {
    // A solo job runs continuously: only the first round is a cold start.
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 294.0, 0)];
    let cfg = SimConfig::default().with_switch_overhead(SimDuration::from_secs(6));
    let sim = Simulation::new(mono_cluster(1), users(1), trace, cfg).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    // 6 s cold start + 294 s of work = finish at exactly t=300.
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(300))
    );
}

#[test]
fn alternating_jobs_pay_switch_overhead_every_round() {
    // Two jobs alternate on one GPU (Greedy runs the lower id first until it
    // finishes; instead force alternation with service that outlives the
    // horizon and a scheduler that swaps every round).
    struct Alternate {
        flip: bool,
    }
    impl ClusterScheduler for Alternate {
        fn name(&self) -> &'static str {
            "alternate"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, _view: &SimView<'_>) -> RoundPlan {
            let mut plan = RoundPlan::empty();
            self.flip = !self.flip;
            let job = if self.flip {
                JobId::new(0)
            } else {
                JobId::new(1)
            };
            plan.run_on(ServerId::new(0), job);
            plan
        }
    }
    let m = mono_model();
    let trace = vec![
        job(0, 0, &m, 1, 100_000.0, 0),
        job(1, 1, &m, 1, 100_000.0, 0),
    ];
    let cfg = SimConfig::default().with_switch_overhead(SimDuration::from_secs(6));
    let sim = Simulation::new(mono_cluster(1), users(2), trace, cfg).unwrap();
    let report = sim
        .run_until(&mut Alternate { flip: false }, SimTime::from_secs(3600))
        .unwrap();
    // Every 60 s round loses 6 s to the switch: occupancy is 100% but
    // effective (base-equivalent) service is 90% of it.
    assert!((report.gpu_secs_used - 3600.0).abs() < 1e-6);
    let effective = report.total_base_secs();
    assert!(
        (effective - 3240.0).abs() < 1e-6,
        "expected 90% effective service, got {effective}"
    );
}

#[test]
fn zero_overhead_config_matches_legacy_behaviour() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 300.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let report = sim.run(&mut Greedy).unwrap();
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(300))
    );
    assert!((report.total_base_secs() - 300.0).abs() < 1e-6);
}

#[test]
fn future_jobs_are_invisible_to_schedulers() {
    // A scheduler must not see jobs before their arrival event — placing
    // tomorrow's job today is both an information leak and a correctness
    // bug (regression test: the pending-job retry loop once placed a job
    // 58 s before it arrived).
    struct Snooper {
        saw_future_job: bool,
    }
    impl ClusterScheduler for Snooper {
        fn name(&self) -> &'static str {
            "snooper"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            if view.now() < SimTime::from_secs(1000) && view.jobs().any(|j| j.id == JobId::new(1)) {
                self.saw_future_job = true;
            }
            let mut plan = RoundPlan::empty();
            for j in view.resident(ServerId::new(0)) {
                plan.run_on(ServerId::new(0), j);
            }
            plan
        }
    }
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 2000.0, 0), job(1, 0, &m, 1, 60.0, 1000)];
    let sim = Simulation::new(mono_cluster(2), users(1), trace, config()).unwrap();
    let mut sched = Snooper {
        saw_future_job: false,
    };
    let report = sim.run(&mut sched).unwrap();
    assert!(!sched.saw_future_job, "view leaked an unarrived job");
    assert_eq!(report.finished_jobs(), 2);
}

#[test]
fn overlapping_failure_events_are_idempotent() {
    // Failing an already-failed server and recovering an up server are
    // no-ops; a fail/recover/fail sequence lands in the expected state.
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 100_000.0, 0)];
    let cluster = ClusterSpec::homogeneous(2, 2);
    let sim = Simulation::new(cluster, users(1), trace, config())
        .unwrap()
        .with_server_failure(ServerId::new(1), SimTime::from_secs(60))
        .with_server_failure(ServerId::new(1), SimTime::from_secs(120))
        .with_server_recovery(ServerId::new(0), SimTime::from_secs(120)) // up already
        .with_server_recovery(ServerId::new(1), SimTime::from_secs(300))
        .with_server_recovery(ServerId::new(1), SimTime::from_secs(360));
    let report = sim
        .run_until(&mut Greedy, SimTime::from_secs(1800))
        .unwrap();
    // The job survived the churn and kept running on server 0 throughout.
    assert!(
        report.gpu_secs_used > 1700.0,
        "used {}",
        report.gpu_secs_used
    );
}

#[test]
fn a_failure_touching_a_plan_flap_outage_is_refused_when_the_run_starts() {
    // Both outages set the one down flag, so the first recovery would end
    // both. The order of the builder calls does not matter; a recovery
    // alone counts as an instant.
    let (s0, s1) = (ServerId::new(0), ServerId::new(1));
    let (t, d) = (SimTime::from_secs, SimDuration::from_secs);
    let flap = || FaultPlan::none().with_flap(s1, t(600), d(300), d(60), 1);
    let sim = || Simulation::new(ClusterSpec::homogeneous(2, 2), users(1), vec![], config());
    let run = |sim: Simulation| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(&mut Greedy, t(1800)).unwrap();
        }))
        .err()
        .map(|err| err.downcast_ref::<String>().cloned().unwrap_or_default())
    };
    let refused = [
        (
            sim()
                .unwrap()
                .with_server_failure(s1, t(60))
                .with_faults(flap()),
            "outage of S1 from 60 s on and flap 0 outage 0 of S1 (600-900 s)",
        ),
        (
            (sim().unwrap().with_faults(flap()))
                .with_server_failure(s1, t(900))
                .with_server_recovery(s1, t(1000)),
            "flap 0 outage 0 of S1 (600-900 s) and outage of S1 (900-1000 s)",
        ),
        (
            sim()
                .unwrap()
                .with_faults(flap())
                .with_server_recovery(s1, t(700)),
            "flap 0 outage 0 of S1 (600-900 s) and recovery of S1 at 700 s",
        ),
    ];
    for (sim, names) in refused {
        let msg = run(sim).unwrap_or_else(|| panic!("{names}: the run was accepted"));
        assert!(
            msg.starts_with("server failures clash with the fault plan") && msg.contains(names),
            "{names}: {msg}"
        );
    }
    // Clear of the outage, or on another server: the run goes ahead.
    let fine = (sim().unwrap().with_faults(flap()))
        .with_server_failure(s1, t(60))
        .with_server_recovery(s1, t(599))
        .with_server_failure(s0, t(700));
    assert_eq!(run(fine), None);
}

#[test]
fn ticket_change_for_unknown_user_panics() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 100.0, 0)];
    let sim = Simulation::new(mono_cluster(1), users(1), trace, config()).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = sim.with_ticket_change(UserId::new(9), SimTime::from_secs(60), 100);
    }));
    assert!(result.is_err(), "unknown user must be rejected");
}

#[test]
fn failure_of_idle_server_is_harmless() {
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 300.0, 0)];
    let cluster = ClusterSpec::homogeneous(2, 1);
    // Server 1 never hosts anything; its failure must not disturb job 0.
    let sim = Simulation::new(cluster, users(1), trace, config())
        .unwrap()
        .with_server_failure(ServerId::new(1), SimTime::from_secs(120));
    let report = sim.run(&mut Greedy).unwrap();
    assert_eq!(
        report.jobs[&JobId::new(0)].finish,
        Some(SimTime::from_secs(300))
    );
}

#[test]
fn eviction_preserves_training_progress() {
    // A job evicted mid-run resumes from its checkpointed progress, not
    // from scratch: total completion time = service + downtime gap only.
    let m = mono_model();
    let trace = vec![job(0, 0, &m, 1, 600.0, 0)];
    let cluster = ClusterSpec::homogeneous(2, 1);
    let sim = Simulation::new(cluster, users(1), trace, config())
        .unwrap()
        .with_server_failure(ServerId::new(0), SimTime::from_secs(300));
    // Greedy re-places the evicted job (via the on_job_evicted default) on
    // server 1; it ran 300 s before the failure and needs 300 s more.
    let report = sim
        .run_until(&mut Greedy, SimTime::from_secs(3600))
        .unwrap();
    let rec = &report.jobs[&JobId::new(0)];
    let finish = rec.finish.expect("job completes after re-placement");
    assert!(
        finish <= SimTime::from_secs(700),
        "progress was lost: finished at {finish}"
    );
    assert!(finish >= SimTime::from_secs(600));
}

/// Places jobs 0 and 1 on servers 0 and 1 as they arrive (later jobs wait
/// for a plan to place them) and sends `plans(r)` in round `r` (counted
/// from 1), logging what each round's callback sees.
struct Scripted<F> {
    round: u64,
    plans: F,
    log: Vec<Seen>,
}

/// What one round's callback saw: each server's run set and each arrived
/// job's `rounds_run`, as raw ids and counts.
type Seen = (Vec<Vec<u32>>, Vec<u32>);

impl<F: FnMut(u64) -> RoundPlan> ClusterScheduler for Scripted<F> {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
        match job.raw() {
            j @ (0 | 1) => vec![Action::Place {
                job,
                server: ServerId::new(j),
            }],
            _ => Vec::new(),
        }
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        let sets = (view.cluster().servers.iter())
            .map(|s| view.run_set(s.id).iter().map(|j| j.raw()).collect())
            .collect();
        let counts = view.jobs().map(|j| j.rounds_run).collect();
        self.log.push((sets, counts));
        self.round += 1;
        (self.plans)(self.round)
    }
}

/// A plan listing `sets` as `(server, jobs)`, in the changes-only form
/// when `changes_only`.
fn plan_of(changes_only: bool, sets: &[(u32, &[u32])]) -> RoundPlan {
    let run = (sets.iter())
        .map(|&(s, jobs)| {
            (
                ServerId::new(s),
                jobs.iter().map(|&j| JobId::new(j)).collect(),
            )
        })
        .collect();
    RoundPlan {
        run,
        changes_only,
        actions: Vec::new(),
    }
}

/// Runs `trace` (one-GPU jobs of user 0) on two one-GPU servers for
/// `rounds` quanta under `plans`, returning the run's result and what each
/// round's callback saw.
fn run_logged(
    trace: Vec<JobSpec>,
    rounds: u64,
    plans: impl FnMut(u64) -> RoundPlan,
) -> (Result<SimReport, GfairError>, Vec<Seen>) {
    let sim = Simulation::new(ClusterSpec::homogeneous(2, 1), users(1), trace, config()).unwrap();
    let horizon = SimTime::ZERO + config().quantum * rounds;
    let mut sched = Scripted {
        round: 0,
        plans,
        log: Vec::new(),
    };
    (sim.run_until(&mut sched, horizon), sched.log)
}

/// Runs jobs 0 and 1 (one GPU each, `service` seconds) on two one-GPU
/// servers for `rounds` quanta under `plans`, returning each job's
/// GPU-seconds or the run's error.
fn run_scripted(
    service: [f64; 2],
    rounds: u64,
    plans: impl FnMut(u64) -> RoundPlan,
) -> Result<[f64; 2], GfairError> {
    let m = mono_model();
    let trace = vec![
        job(0, 0, &m, 1, service[0], 0),
        job(1, 0, &m, 1, service[1], 0),
    ];
    let report = run_logged(trace, rounds, plans).0?;
    Ok([0, 1].map(|j| report.jobs[&JobId::new(j)].total_gpu_secs()))
}

#[test]
fn changes_only_plan_keeps_unlisted_servers_running() {
    // Both sets are sent once; every later plan lists nothing, so both
    // servers keep running their last set for all ten quanta.
    let q = config().quantum.as_secs_f64();
    let used = run_scripted([1e6, 1e6], 10, |r| match r {
        1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
        _ => plan_of(true, &[]),
    })
    .unwrap();
    assert_eq!(used, [10.0 * q, 10.0 * q]);
}

#[test]
fn changes_only_empty_list_clears_a_server() {
    // Server 1's set is replaced by an empty list in round 4: job 1 runs
    // three quanta, job 0 on the untouched server all ten.
    let q = config().quantum.as_secs_f64();
    let used = run_scripted([1e6, 1e6], 10, |r| match r {
        1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
        4 => plan_of(true, &[(1, &[])]),
        _ => plan_of(true, &[]),
    })
    .unwrap();
    assert_eq!(used, [10.0 * q, 3.0 * q]);
}

#[test]
fn finished_job_left_in_an_unlisted_set_is_refused() {
    // Job 0 finishes in its second quantum. Its server's set is never sent
    // again, yet the engine re-checks it once the finish changes the
    // server's residency, and refuses it as it would a resent set.
    let q = config().quantum.as_secs_f64();
    let err = run_scripted([1.5 * q, 1e6], 10, |r| match r {
        1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
        _ => plan_of(true, &[]),
    })
    .unwrap_err();
    assert_eq!(
        err,
        GfairError::JobNotResident {
            job: JobId::new(0),
            server: ServerId::new(0),
        }
    );
}

#[test]
fn each_run_set_check_ends_in_its_typed_error() {
    // Jobs 0 and 1 sit on one-GPU servers 0 and 1. Each case breaks one
    // fact about a run set; the engine's validation is the only check of
    // these facts, so each must end the run with the engine's own error.
    // The last two break a set an earlier changes-only plan left in place,
    // which is checked again only because its server's residency changed.
    let q = config().quantum;
    let (j0, s0, s1) = (JobId::new(0), ServerId::new(0), ServerId::new(1));
    type Case = (
        &'static str,
        Option<SimTime>,
        fn(u64) -> RoundPlan,
        GfairError,
    );
    let cases: [Case; 5] = [
        (
            "a job listed twice in one set",
            None,
            |_| plan_of(true, &[(0, &[0, 0])]),
            GfairError::DuplicateJobInPlan(j0),
        ),
        (
            "a job the trace lacks",
            None,
            |_| plan_of(true, &[(0, &[7])]),
            GfairError::UnknownJob(JobId::new(7)),
        ),
        (
            "a server the cluster lacks",
            None,
            |_| plan_of(true, &[(5, &[0])]),
            GfairError::UnknownServer(ServerId::new(5)),
        ),
        (
            "a set left on a server that failed",
            Some(SimTime::ZERO + q * 2 + SimDuration::from_secs(1)),
            |r| match r {
                1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
                _ => plan_of(true, &[]),
            },
            GfairError::ServerDown(s1),
        ),
        (
            "a set left in place after its job migrated away",
            None,
            |r| {
                let mut plan = match r {
                    1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
                    _ => plan_of(true, &[]),
                };
                if r == 3 {
                    plan.actions.push(Action::Migrate {
                        job: JobId::new(0),
                        to: ServerId::new(1),
                    });
                }
                plan
            },
            GfairError::JobNotResident {
                job: j0,
                server: s0,
            },
        ),
    ];
    for (what, fail_at, plans, want) in cases {
        let m = mono_model();
        let trace = vec![job(0, 0, &m, 1, 1e6, 0), job(1, 0, &m, 1, 1e6, 0)];
        let mut sim =
            Simulation::new(ClusterSpec::homogeneous(2, 1), users(1), trace, config()).unwrap();
        if let Some(at) = fail_at {
            sim = sim.with_server_failure(s1, at);
        }
        let mut sched = Scripted {
            round: 0,
            plans,
            log: Vec::new(),
        };
        let err = sim
            .run_until(&mut sched, SimTime::ZERO + q * 10)
            .expect_err(what);
        assert_eq!(err, want, "{what}");
    }
}

#[test]
fn full_plan_leaving_a_server_out_stops_it() {
    // The full form is the whole decision: from round 2 on, server 1 is
    // left out and so runs nothing.
    let q = config().quantum.as_secs_f64();
    let used = run_scripted([1e6, 1e6], 10, |r| match r {
        1 => plan_of(false, &[(0, &[0]), (1, &[1])]),
        _ => plan_of(false, &[(0, &[0])]),
    })
    .unwrap();
    assert_eq!(used, [10.0 * q, q]);
}

#[test]
fn rounds_run_counts_exactly_the_rounds_in_a_run_set() {
    // Job 0 runs on server 0 in rounds 1-5 (2-5 from a set no plan
    // resent), migrates to server 1 in round 6, sits there outside the set
    // in round 7 and runs from round 8. Job 1 is out of its set in round 4
    // and from round 8 on. Job 2 is pending until a plan places it in
    // round 9, and runs from round 10.
    let m = mono_model();
    let trace = (0..3).map(|j| job(j, 0, &m, 1, 1e6, 0)).collect();
    let (job0, s0, s1) = (JobId::new(0), ServerId::new(0), ServerId::new(1));
    let (report, log) = run_logged(trace, 12, |r| {
        let mut plan = match r {
            1 => plan_of(true, &[(0, &[0]), (1, &[1])]),
            4 => plan_of(true, &[(1, &[])]),
            5 => plan_of(true, &[(1, &[1])]),
            6 => plan_of(true, &[(0, &[])]),
            8 => plan_of(true, &[(1, &[0])]),
            10 => plan_of(true, &[(0, &[2])]),
            _ => plan_of(true, &[]),
        };
        match r {
            6 => plan.actions.push(Action::Migrate { job: job0, to: s1 }),
            9 => plan.actions.push(Action::Place {
                job: JobId::new(2),
                server: s0,
            }),
            _ => {}
        }
        plan
    });
    report.unwrap();
    assert!(log.len() >= 12, "{} rounds", log.len());
    // Round r's callback sees the counts through round r - 1 and the sets
    // installed in round r - 1.
    let counts: Vec<&[u32]> = log.iter().map(|(_, c)| c.as_slice()).collect();
    let want: [&[u32]; 12] = [
        &[0, 0, 0],
        &[1, 1, 0],
        &[2, 2, 0],
        &[3, 3, 0],
        &[4, 3, 0],
        &[5, 4, 0],
        &[5, 5, 0],
        &[5, 6, 0],
        &[6, 6, 0],
        &[7, 6, 0],
        &[8, 6, 1],
        &[9, 6, 2],
    ];
    assert_eq!(counts[..12], want);
    let sets: Vec<&[Vec<u32>]> = log.iter().map(|(s, _)| s.as_slice()).collect();
    let want: [[&[u32]; 2]; 12] = [
        [&[], &[]],
        [&[0], &[1]],
        [&[0], &[1]],
        [&[0], &[1]],
        [&[0], &[]],
        [&[0], &[1]],
        [&[], &[1]],
        [&[], &[1]],
        [&[], &[0]],
        [&[], &[0]],
        [&[2], &[0]],
        [&[2], &[0]],
    ];
    for (r, (got, want)) in sets.iter().zip(want).enumerate() {
        assert_eq!(got[0], want[0], "round {}: server 0's run set", r + 1);
        assert_eq!(got[1], want[1], "round {}: server 1's run set", r + 1);
    }
}
