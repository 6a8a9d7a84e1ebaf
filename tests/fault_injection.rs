//! Fault-injection integration tests.
//!
//! Three families of guarantees:
//!
//! 1. **Determinism** — the same `FaultPlan` and seed produce byte-identical
//!    reports and JSONL traces. Fault draws are keyed on
//!    `(seed, job, attempt)`, never on event interleaving.
//! 2. **Recovery** — failed migrations are retried with backoff (gfair
//!    only; the other policies re-place or re-balance instead) and jobs
//!    survive checkpoint failures, restore failures, partitions, and
//!    flapping servers; the online auditor (migration lifecycle, ticket
//!    conservation across heals) stays clean throughout.
//! 3. **The queued-decision race** — a placement or migration decided just
//!    before its target server fails is counted in `stale_migrations` AND
//!    routed through the scheduler's retry path, so the job is re-placed
//!    instead of silently dropped.

use gfair::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .with_migration_fail_rates(0.10, 0.10)
        .with_slowdown(0.10, 3.0)
        .with_partition(
            ServerId::new(2),
            SimTime::from_secs(2 * 3600),
            SimTime::from_secs(3 * 3600),
        )
        .with_flap(
            ServerId::new(4),
            SimTime::from_secs(4 * 3600),
            SimDuration::from_mins(10),
            SimDuration::from_mins(30),
            2,
        )
}

/// Runs one seeded, fault-injected simulation with a JSONL sink; returns the
/// serialized report and trace bytes.
fn run_faulted(seed: u64, plan: FaultPlan, tag: &str) -> (String, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "gfair-fault-determinism-{}-{tag}.jsonl",
        std::process::id()
    ));
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    obs.jsonl(&path).expect("trace file");
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_faults(plan)
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run under faults");
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (json, bytes)
}

#[test]
fn full_fidelity_trace_holds_every_grant_and_reparses() {
    let path = std::env::temp_dir().join(format!(
        "gfair-fault-full-fidelity-{}.jsonl",
        std::process::id()
    ));
    let seed = 3;
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    obs.jsonl_full(&path).expect("trace file");
    let sim = Simulation::new(
        ClusterSpec::paper_testbed(),
        users,
        trace,
        SimConfig::default().with_seed(seed),
    )
    .unwrap()
    .with_faults(lossy_plan(seed))
    .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    sim.run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run under faults");
    obs.flush();
    let text = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    let (mut gang_lines, mut events, mut failures) = (0u64, 0u64, 0u64);
    for line in text.lines() {
        events += 1;
        let event = TraceEvent::from_json_line(line)
            .unwrap_or_else(|e| panic!("trace line does not re-parse: {e}\n{line}"));
        assert_eq!(event.to_json_line(), line, "re-rendered line differs");
        match event {
            TraceEvent::GangPacked { .. } => gang_lines += 1,
            TraceEvent::MigrationFailed { .. } => failures += 1,
            _ => {}
        }
    }
    assert!(
        gang_lines > 0 && failures > 0,
        "the run must grant and fail"
    );
    assert_eq!(gang_lines, obs.counter("gangs_packed"));
    assert_eq!(events, obs.summary().events);
}

#[test]
fn fault_runs_are_byte_deterministic() {
    let (a_report, a_trace) = run_faulted(11, lossy_plan(5), "a");
    let (b_report, b_trace) = run_faulted(11, lossy_plan(5), "b");
    assert!(!a_trace.is_empty());
    assert!(
        a_report.contains("\"migration_failures\":"),
        "report must carry the failure counter"
    );
    assert_eq!(a_report, b_report, "same plan+seed must replay identically");
    assert_eq!(a_trace, b_trace, "same plan+seed must replay identically");
}

#[test]
fn fault_seed_changes_outcomes() {
    let (a, _) = run_faulted(11, lossy_plan(5), "seed5");
    let (b, _) = run_faulted(11, lossy_plan(6), "seed6");
    assert_ne!(a, b, "different fault seeds should diverge");
}

/// The bugfix regression: a placement queued by an arrival callback races a
/// server failure that lands before the round boundary. The engine must
/// count it as stale AND hand it to the scheduler's retry path, which
/// re-places the job after its backoff — the job finishes on the surviving
/// server instead of being stranded pending forever.
#[test]
fn queued_decision_racing_a_failure_is_counted_and_retried() {
    let cluster = ClusterSpec::homogeneous(3, 4);
    let users = UserSpec::equal_users(1, 100);
    let model = Arc::new(ModelProfile::with_default_overheads("uni", vec![1.0]));
    // One job, placed on server 0 at t=0. Servers 0 AND 1 fail at the same
    // instant: the eviction callback for server 0 re-places the job onto
    // server 1 (still up in its view), then server 1's failure lands before
    // the round boundary applies the queued placement — the classic race.
    let trace = vec![JobSpec::new(
        JobId::new(0),
        UserId::new(0),
        model,
        1,
        7200.0,
        SimTime::ZERO,
    )];
    let obs: SharedObs = Arc::new(Obs::new());
    let at = SimTime::from_secs(3600);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default())
        .unwrap()
        .with_server_failure(ServerId::new(0), at)
        .with_server_failure(ServerId::new(1), at)
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(6 * 3600))
        .expect("clean run");
    assert_eq!(
        report.stale_migrations, 1,
        "the raced placement must be counted"
    );
    assert_eq!(
        report.finished_jobs(),
        1,
        "the retry path must re-place the raced job on the surviving server"
    );
    // The counter and the trace-derived counter agree.
    let summary = report.obs.as_ref().expect("obs attached");
    assert_eq!(
        summary
            .counters
            .get("stale_migrations")
            .copied()
            .unwrap_or(0),
        report.stale_migrations as u64
    );
    assert_eq!(summary.violations, 0);
}

/// A partition window freezes a server, then heals: entitlements re-sync,
/// a reconcile event fires, the auditor's heal-conservation check passes,
/// and final user shares land within a few percent of the no-fault run.
#[test]
fn partition_heal_restores_shares() {
    fn run(plan: Option<FaultPlan>) -> SimReport {
        let cluster = ClusterSpec::homogeneous(4, 4);
        let users = UserSpec::equal_users(4, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 64;
        params.jobs_per_hour = 240.0;
        params.median_service_mins = 600.0;
        params.gang_weights = [1.0, 0.0, 0.0, 0.0];
        let trace = TraceBuilder::new(params, 3).build(&users);
        // One shared obs so scheduler-side events (Reconcile) land in the
        // same summary as the engine-side partition events.
        let obs: SharedObs = Arc::new(Obs::new());
        let mut sim = Simulation::new(cluster, users, trace, SimConfig::default())
            .unwrap()
            .with_obs(Arc::clone(&obs));
        if let Some(plan) = plan {
            sim = sim.with_faults(plan);
        }
        let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
        sim.run_until(&mut sched, SimTime::from_secs(8 * 3600))
            .expect("clean run")
    }
    let partition = FaultPlan::none().with_partition(
        ServerId::new(1),
        SimTime::from_secs(2 * 3600),
        SimTime::from_secs(3 * 3600),
    );
    let faulted = run(Some(partition));
    let clean = run(None);
    let summary = faulted.obs.as_ref().expect("obs attached");
    assert_eq!(summary.violations, 0, "auditor must stay clean across heal");
    assert_eq!(summary.counters.get("partitions").copied(), Some(1));
    assert_eq!(summary.counters.get("partition_heals").copied(), Some(1));
    assert_eq!(summary.counters.get("reconciles").copied(), Some(1));
    // Saturated, symmetric workload: every user's final share should be
    // within a few percent of the no-fault run (the partitioned server kept
    // running its residents, so little service was actually lost).
    let total_f: f64 = faulted.user_gpu_secs.values().sum();
    let total_c: f64 = clean.user_gpu_secs.values().sum();
    for (user, &secs) in &clean.user_gpu_secs {
        let share_c = secs / total_c;
        let share_f = faulted.gpu_secs_of(*user) / total_f;
        assert!(
            (share_c - share_f).abs() < 0.05,
            "share of {user} drifted: clean {share_c:.3} vs faulted {share_f:.3}"
        );
    }
}

/// Retry exhaustion, per policy: with every checkpoint failing, every
/// policy gives up on each move after two retries and counts it, keeps the
/// auditor clean and finishes every job.
#[test]
fn retry_exhaustion_is_counted_for_every_policy() {
    for policy in PolicyId::ALL {
        let users = UserSpec::equal_users(4, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 40;
        params.jobs_per_hour = 120.0;
        params.median_service_mins = 30.0;
        let trace = TraceBuilder::new(params, 3).build(&users);
        let n_jobs = trace.len();
        let obs: SharedObs = Arc::new(Obs::new());
        let plan = FaultPlan::none()
            .with_seed(3)
            .with_migration_fail_rates(1.0, 0.0);
        let sim = Simulation::new(
            ClusterSpec::paper_testbed(),
            users,
            trace,
            SimConfig::default().with_seed(3),
        )
        .unwrap()
        .with_faults(plan)
        .with_obs(Arc::clone(&obs));
        let cfg = GfairConfig::default()
            .with_policy(policy)
            .with_migration_retries(2);
        let mut sched = build_policy(cfg, Arc::clone(&obs));
        let report = sim.run(sched.as_mut()).expect("clean run");
        let summary = report.obs.as_ref().expect("obs attached");
        assert_eq!(summary.violations, 0, "{policy}: auditor violations");
        assert!(
            report.migration_failures > 0,
            "{policy}: no migration failed"
        );
        assert_eq!(report.finished_jobs(), n_jobs, "{policy}: a job was lost");
        let abandoned = summary.counters.get("migration_retries_abandoned").copied();
        assert!(
            abandoned.unwrap_or(0) > 0,
            "{policy} never exhausted a retry"
        );
    }
}

/// The DESIGN.md fault-model table must enumerate exactly the fault types a
/// `FaultPlan` can construct — no missing rows, no phantom rows — so the
/// documentation cannot silently drift from `FaultKind::ALL`.
#[test]
fn design_doc_fault_table_matches_fault_kinds() {
    let design = include_str!("../DESIGN.md");
    let start = design
        .find("## Fault model & degraded mode")
        .expect("DESIGN.md must have a 'Fault model & degraded mode' section");
    let section = &design[start..];
    let end = section[2..]
        .find("\n## ")
        .map(|i| i + 2)
        .unwrap_or(section.len());
    let section = &section[..end];
    let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
    for kind in FaultKind::ALL {
        let cell = format!("| `{}` |", kind.name());
        assert!(
            rows.iter().any(|r| r.starts_with(&cell)),
            "fault kind {:?} ({}) has no row in the DESIGN.md fault table",
            kind,
            kind.name()
        );
    }
    assert_eq!(
        rows.len(),
        FaultKind::ALL.len(),
        "DESIGN.md fault table documents a fault kind that FaultPlan cannot construct: {rows:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fault plans — random failure/slowdown rates, a random
    /// partition window, a random flap — never break the online auditor:
    /// no job is lost or duplicated across failed migrations, tickets are
    /// conserved across partition heals, and accounting stays exact.
    #[test]
    fn random_fault_plans_keep_the_auditor_clean(
        seed in 0u64..400,
        ckpt_pct in 0u32..20,
        restore_pct in 0u32..20,
        slow_pct in 0u32..25,
        victim in 0u32..4,
        part_start_mins in 30u64..180,
        part_len_mins in 10u64..120,
        flap_victim in 0u32..4,
        flap_start_mins in 30u64..240,
    ) {
        let cluster = ClusterSpec::homogeneous(4, 4);
        let users = UserSpec::equal_users(3, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 30;
        params.jobs_per_hour = 90.0;
        params.median_service_mins = 30.0;
        params.service_clamp_mins = (2.0, 180.0);
        params.gang_weights = [0.7, 0.3, 0.0, 0.0];
        let trace = TraceBuilder::new(params, seed).build(&users);
        let part_start = SimTime::from_secs(part_start_mins * 60);
        let plan = FaultPlan::none()
            .with_seed(seed ^ 0x9e37)
            .with_migration_fail_rates(ckpt_pct as f64 / 100.0, restore_pct as f64 / 100.0)
            .with_slowdown(slow_pct as f64 / 100.0, 3.0)
            .with_partition(
                ServerId::new(victim),
                part_start,
                part_start + SimDuration::from_mins(part_len_mins),
            )
            .with_flap(
                ServerId::new(flap_victim),
                SimTime::from_secs(flap_start_mins * 60),
                SimDuration::from_mins(10),
                SimDuration::from_mins(20),
                2,
            );
        let sim = Simulation::new(
            cluster,
            users.clone(),
            trace,
            SimConfig::default().with_seed(seed),
        )
        .expect("valid setup")
        .with_faults(plan);
        let mut sched = GandivaFair::new(GfairConfig::default());
        // A violation aborts the run, so a clean Ok is the main assertion.
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(24 * 3600))
            .expect("no invariant violations under random fault plans");
        let summary = report.obs.as_ref().expect("obs attached");
        prop_assert_eq!(summary.violations, 0);
        // No job lost: every job either finished or is still active at the
        // horizon — and none finished more than once (JobRecord is keyed by
        // id, so a duplicate finish would have tripped the auditor).
        let user_sum: f64 = report.user_gpu_secs.values().sum();
        prop_assert!((user_sum - report.gpu_secs_used).abs() < 1e-6);
        prop_assert!(report.gpu_secs_used <= report.gpu_secs_capacity + 1e-6);
        // The failure counter agrees with the trace-derived counter.
        let traced = summary.counters.get("migration_failures").copied().unwrap_or(0);
        prop_assert_eq!(traced, report.migration_failures as u64);
    }
}
