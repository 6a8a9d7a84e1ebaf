//! Integration tests for the simulation engine, using small reference
//! schedulers to exercise arrival/placement, time slicing, exact-time
//! completion, migration, profiling, horizons, validation, and determinism.

use gfair_sim::{Action, ClusterScheduler, ProfileReport, RoundPlan, SimView, Simulation};
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
    let sim = Simulation::new(mono_cluster(4), users(1), trace, config()).unwrap();
    let err = sim.run(&mut Overcommit).unwrap_err();
    assert!(matches!(err, GfairError::ServerOvercommitted { .. }));
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
