//! Focused tests for the migration planner, driven through the engine with
//! a harness scheduler that pins residency into a known-bad shape and then
//! invokes `plan_migrations` once.

use gfair_core::balance::plan_migrations;
use gfair_core::{Entitlements, Profiler};
use gfair_sim::{Action, ClusterScheduler, RoundPlan, SimView, Simulation};
use gfair_types::{
    ClusterSpec, GenCatalog, GenId, JobId, JobSpec, ModelProfile, ServerId, SimConfig, SimTime,
    UserId, UserSpec,
};
use std::sync::Arc;

/// Places all jobs on fixed servers, then calls the balancer exactly once at
/// t >= `balance_at` and records its plan.
struct Harness {
    placements: Vec<(JobId, ServerId)>,
    balance_at: SimTime,
    ent_users: Vec<(UserId, u64)>,
    profiler: Profiler,
    planned: Option<Vec<Action>>,
}

impl Harness {
    fn new(placements: Vec<(JobId, ServerId)>) -> Self {
        Harness {
            placements,
            balance_at: SimTime::from_secs(60),
            ent_users: vec![(UserId::new(0), 100), (UserId::new(1), 100)],
            profiler: Profiler::new(3, 1),
            planned: None,
        }
    }
}

impl ClusterScheduler for Harness {
    fn name(&self) -> &'static str {
        "balance-harness"
    }

    fn on_job_arrival(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.placements
            .iter()
            .find(|(j, _)| *j == job)
            .map(|&(job, server)| vec![Action::Place { job, server }])
            .unwrap_or_default()
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        if self.planned.is_none() && view.now() >= self.balance_at {
            let ent = Entitlements::base(&view.cluster().gpus_per_gen(), &self.ent_users);
            let actions = plan_migrations(view, &ent, &self.profiler);
            self.planned = Some(actions.clone());
            return RoundPlan {
                run: Default::default(),
                actions,
            };
        }
        // Otherwise idle: these tests only care about the planner's output.
        RoundPlan::empty()
    }
}

fn mono_model() -> Arc<ModelProfile> {
    Arc::new(ModelProfile::with_default_overheads(
        "uni",
        vec![1.0, 1.0, 1.0],
    ))
}

fn job(id: u32, user: u32, gang: u32) -> JobSpec {
    JobSpec::new(
        JobId::new(id),
        UserId::new(user),
        mono_model(),
        gang,
        1_000_000.0,
        SimTime::ZERO,
    )
}

fn run_harness(cluster: ClusterSpec, trace: Vec<JobSpec>, harness: &mut Harness) {
    let users = UserSpec::equal_users(2, 100);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let _ = sim.run_until(harness, SimTime::from_secs(180)).unwrap();
}

#[test]
fn spreading_moves_jobs_from_hot_to_cold_servers() {
    // Two 4-GPU servers; all six 1-GPU jobs pinned on server 0.
    let cluster = ClusterSpec::homogeneous(2, 4);
    let trace: Vec<JobSpec> = (0..6).map(|i| job(i, 0, 1)).collect();
    let placements = (0..6).map(|i| (JobId::new(i), ServerId::new(0))).collect();
    let mut h = Harness::new(placements);
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let moves: Vec<_> = plan
        .iter()
        .filter_map(|a| match a {
            Action::Migrate { job, to } => Some((*job, *to)),
            _ => None,
        })
        .collect();
    assert!(!moves.is_empty(), "hot server should shed load");
    assert!(
        moves.iter().all(|(_, to)| *to == ServerId::new(1)),
        "moves must target the cold server: {moves:?}"
    );
    // Load 6/4 vs 0: moving ~2-3 jobs evens it; never more than needed.
    assert!(
        moves.len() >= 2 && moves.len() <= 3,
        "moved {}",
        moves.len()
    );
}

#[test]
fn balanced_servers_trigger_no_migrations() {
    let cluster = ClusterSpec::homogeneous(2, 4);
    let trace: Vec<JobSpec> = (0..6).map(|i| job(i, 0, 1)).collect();
    let placements = (0..6)
        .map(|i| (JobId::new(i), ServerId::new(i % 2)))
        .collect();
    let mut h = Harness::new(placements);
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    assert!(plan.is_empty(), "balanced cluster must not churn: {plan:?}");
}

#[test]
fn big_jobs_move_first() {
    // Server 0 holds a gang-2 and two gang-1 jobs (load 4/4); server 1 is
    // empty. The first move from the hot server must be the biggest job.
    let cluster = ClusterSpec::homogeneous(2, 4);
    let trace = vec![job(0, 0, 1), job(1, 0, 2), job(2, 0, 1)];
    let placements = vec![
        (JobId::new(0), ServerId::new(0)),
        (JobId::new(1), ServerId::new(0)),
        (JobId::new(2), ServerId::new(0)),
    ];
    let mut h = Harness::new(placements);
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let first = plan.iter().find_map(|a| match a {
        Action::Migrate { job, .. } => Some(*job),
        _ => None,
    });
    assert_eq!(first, Some(JobId::new(1)), "gang-2 job should move first");
}

#[test]
fn profiling_pass_targets_unprofiled_generations() {
    // Hetero cluster; one job on a K80 server; the profiler knows nothing,
    // so the profiling pass should send it toward the fastest unprofiled
    // generation (V100).
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 1, 4), ("P100", 1, 4), ("V100", 1, 4)],
    );
    let trace = vec![job(0, 0, 1)];
    let placements = vec![(JobId::new(0), ServerId::new(0))];
    let mut h = Harness::new(placements);
    run_harness(cluster.clone(), trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let target = plan.iter().find_map(|a| match a {
        Action::Migrate { job, to } if *job == JobId::new(0) => Some(*to),
        _ => None,
    });
    let v100_server = cluster
        .servers_of_gen(GenId::new(2))
        .next()
        .expect("v100 server")
        .id;
    assert_eq!(target, Some(v100_server));
}

#[test]
fn realization_pass_moves_overconsumers_toward_entitled_generation() {
    // Two users, equal tickets, on 8 K80 + 8 V100. User 0 squats on the
    // whole V100 server (8 GPUs used vs 4 entitled) while user 1 sits on
    // K80. The realization pass must move some user-0 job V100 -> K80.
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 1, 8), ("V100", 1, 8)],
    );
    let mut trace: Vec<JobSpec> = (0..4).map(|i| job(i, 0, 2)).collect();
    trace.extend((10..14).map(|i| job(i, 1, 2)));
    let mut placements: Vec<(JobId, ServerId)> = (0..4)
        .map(|i| (JobId::new(i), ServerId::new(1))) // V100 server
        .collect();
    placements.extend((10..14).map(|i| (JobId::new(i), ServerId::new(0))));
    let mut h = Harness::new(placements);
    // Profile the model everywhere first, so the profiling pass has nothing
    // to send and every move comes from the passes after it.
    let model: Arc<str> = Arc::from("uni");
    for gen in 0..3 {
        h.profiler.record(&model, GenId::new(gen), 1.0);
    }
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let user0_moves_to_k80 = plan.iter().any(|a| match a {
        Action::Migrate { job, to } => job.raw() < 4 && *to == ServerId::new(0),
        _ => false,
    });
    assert!(
        user0_moves_to_k80,
        "over-consumer should be pushed toward its entitled generation: {plan:?}"
    );
}

#[test]
fn migration_budget_is_respected() {
    // 12 jobs all pinned on one server of four: even though much more
    // movement would help, at most max_migrations_per_tick moves are planned.
    let cluster = ClusterSpec::homogeneous(4, 4);
    let trace: Vec<JobSpec> = (0..12).map(|i| job(i, 0, 1)).collect();
    let placements = (0..12).map(|i| (JobId::new(i), ServerId::new(0))).collect();
    let mut h = Harness::new(placements);
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let budget = SimConfig::default().max_migrations_per_tick as usize;
    assert!(
        plan.len() <= budget,
        "planned {} moves, budget {budget}",
        plan.len()
    );
}

#[test]
fn fairness_pass_spreads_a_users_jobs_across_servers() {
    // Two users, equal entitlements, two 4-GPU servers. User 0's four jobs
    // all sit on server 0 while user 1's four jobs are split evenly. Load
    // spreading alone would not fire (loads 6/4 vs 2/4 moves any job); the
    // fairness pass must move *user 0's* jobs toward server 1, where user 0
    // is under-represented.
    let cluster = ClusterSpec::homogeneous(2, 4);
    let mut trace: Vec<JobSpec> = (0..4).map(|i| job(i, 0, 1)).collect();
    trace.extend((10..14).map(|i| job(i, 1, 1)));
    let mut placements: Vec<(JobId, ServerId)> =
        (0..4).map(|i| (JobId::new(i), ServerId::new(0))).collect();
    placements.push((JobId::new(10), ServerId::new(0)));
    placements.push((JobId::new(11), ServerId::new(0)));
    placements.push((JobId::new(12), ServerId::new(1)));
    placements.push((JobId::new(13), ServerId::new(1)));
    let mut h = Harness::new(placements);
    run_harness(cluster, trace, &mut h);
    let plan = h.planned.expect("balancer ran");
    let user0_to_s1 = plan.iter().any(|a| match a {
        Action::Migrate { job, to } => job.raw() < 4 && *to == ServerId::new(1),
        _ => false,
    });
    assert!(
        user0_to_s1,
        "fairness pass should move a user-0 job to server 1: {plan:?}"
    );
}
