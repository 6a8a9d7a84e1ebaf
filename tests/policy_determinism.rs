//! Byte-determinism for the policy zoo: each policy behind the
//! `AllocPolicy` boundary must replay the same seed to a byte-identical
//! `SimReport` and JSONL trace, and lazy plan settling (the untraced
//! default) must produce the same report bytes as eager per-round planning.
//! All runs are fault-injected, so the degraded-mode paths are exercised
//! too.

use gfair::prelude::*;
use std::sync::Arc;

/// Runs one seeded, fault-injected simulation of `policy` under `cfg`,
/// with a JSONL sink when `trace_tag` is set; returns the serialized report
/// and the raw trace bytes (empty without a sink).
fn run(
    policy: PolicyId,
    seed: u64,
    cfg: GfairConfig,
    trace_tag: Option<&str>,
) -> (String, Vec<u8>) {
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
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = path.map_or_else(Vec::new, |path| {
        let bytes = std::fs::read(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        bytes
    });
    (json, bytes)
}

/// Same-seed replay, and lazy vs eager planning, all byte-identical for one
/// policy.
fn assert_policy_deterministic(policy: PolicyId, seed: u64) {
    let cfg = GfairConfig::default();
    let (base_report, base_trace) = run(policy, seed, cfg, Some("a"));
    assert!(!base_trace.is_empty(), "{policy}: empty trace");
    let (again_report, again_trace) = run(policy, seed, cfg, Some("b"));
    assert_eq!(
        base_report, again_report,
        "{policy}: same seed changed the report"
    );
    assert_eq!(
        base_trace, again_trace,
        "{policy}: same seed changed the trace"
    );
    let (lazy, _) = run(policy, seed, cfg, None);
    let (eager, _) = run(policy, seed, cfg.without_lazy_planning(), None);
    assert_eq!(lazy, eager, "{policy}: lazy settling changed the report");
}

#[test]
fn gavel_hetero_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::GavelHetero, 7);
}

#[test]
fn themis_ftf_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::ThemisFtf, 7);
}
