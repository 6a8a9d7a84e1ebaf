//! Byte-determinism for the policy zoo: each policy behind the
//! `AllocPolicy` boundary must replay the same seed to a byte-identical
//! `SimReport` and JSONL trace, lazy plan settling (the default, traced or
//! not) must produce the same report and trace bytes as eager per-round
//! planning, and attaching a trace sink must not change the schedule (the
//! report apart from its observability summary). All runs are
//! fault-injected, so the degraded-mode paths are exercised too.

use gfair::prelude::*;
use std::sync::Arc;

/// One run's serialized report, the same report without its observability
/// summary, and the raw trace bytes (empty without a sink).
struct Run {
    report: String,
    schedule: String,
    trace: Vec<u8>,
}

/// Runs one seeded, fault-injected simulation of `policy` under `cfg`,
/// with a JSONL sink when `trace_tag` is set.
fn run(policy: PolicyId, seed: u64, cfg: GfairConfig, trace_tag: Option<&str>) -> Run {
    let path = trace_tag.map(|tag| {
        std::env::temp_dir().join(format!(
            "gfair-policy-det-{}-{}-{tag}.jsonl",
            policy.name(),
            std::process::id()
        ))
    });
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    if let Some(path) = &path {
        obs.jsonl(path).expect("trace file");
    }
    // Checkpoint/restore failures and a partition window on top of the
    // outage: a failed or undeliverable placement must flow through the
    // driver's round-plan re-placement path exactly once. (A queued
    // per-notice retry used to race that path and place an already-resident
    // job — a hard engine error, so any regression fails this test loudly.)
    let faults = FaultPlan::none()
        .with_seed(seed)
        .with_migration_fail_rates(0.05, 0.05)
        .with_partition(
            ServerId::new(1),
            SimTime::from_secs(3600),
            SimTime::from_secs(3 * 3600),
        );
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_server_failure(ServerId::new(2), SimTime::from_secs(2 * 3600))
        .with_server_recovery(ServerId::new(2), SimTime::from_secs(4 * 3600))
        .with_faults(faults)
        .with_obs(Arc::clone(&obs));
    let mut sched = build_policy(cfg.with_policy(policy), Arc::clone(&obs));
    let report = sim
        .run_until(sched.as_mut(), SimTime::from_secs(8 * 3600))
        .expect("clean run");
    let trace = path.map_or_else(Vec::new, |path| {
        let bytes = std::fs::read(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        bytes
    });
    let json = serde_json::to_string(&report).expect("serialize report");
    let mut schedule = report;
    schedule.obs = None;
    Run {
        report: json,
        schedule: serde_json::to_string(&schedule).expect("serialize report"),
        trace,
    }
}

/// Same-seed replay, lazy vs eager planning and traced vs untraced runs,
/// all byte-identical for one policy.
fn assert_policy_deterministic(policy: PolicyId, seed: u64) {
    let cfg = GfairConfig::default();
    let base = run(policy, seed, cfg, Some("a"));
    assert!(!base.trace.is_empty(), "{policy}: empty trace");
    let again = run(policy, seed, cfg, Some("b"));
    assert_eq!(
        base.report, again.report,
        "{policy}: same seed changed the report"
    );
    assert!(
        base.trace == again.trace,
        "{policy}: same seed changed the trace"
    );
    let eager = run(policy, seed, cfg.without_lazy_planning(), Some("e"));
    assert_eq!(
        base.report, eager.report,
        "{policy}: lazy settling changed the traced report"
    );
    assert!(
        base.trace == eager.trace,
        "{policy}: lazy settling changed the trace"
    );
    // Decision provenance is built only for a sink, so the observability
    // summary counts those events on the traced run alone; everything the
    // schedule produced must match.
    let untraced = run(policy, seed, cfg, None);
    assert_eq!(
        base.schedule, untraced.schedule,
        "{policy}: attaching a trace sink changed the schedule"
    );
}

#[test]
fn gfair_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::Gfair, 7);
}

#[test]
fn gavel_hetero_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::GavelHetero, 7);
}

#[test]
fn themis_ftf_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::ThemisFtf, 7);
}
