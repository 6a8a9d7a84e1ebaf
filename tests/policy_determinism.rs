//! Byte-determinism for the policy zoo: each policy behind the
//! `AllocPolicy` boundary must replay the same seed to a byte-identical
//! `SimReport` and JSONL trace, and with quiescence fast-forward on or off
//! the report must stay byte-identical while the trace may differ only in
//! the per-round scheduling records that skipping legitimately batches
//! (`round_planned` and `gang_packed` collapse into `rounds_skipped` — the
//! same convention as `tests/fast_forward.rs`). All runs are fault-injected, so the
//! degraded-mode paths are exercised too.

use gfair::prelude::*;
use std::sync::Arc;

/// Runs one seeded, fault-injected simulation of `policy` with the given
/// fast-forward setting; returns the serialized report and the raw trace
/// bytes.
fn run(policy: PolicyId, seed: u64, ff: bool, tag: &str) -> (String, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "gfair-policy-det-{}-{}-{tag}.jsonl",
        policy.name(),
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
    let mut cfg = GfairConfig::default().with_policy(policy);
    if !ff {
        cfg = cfg.without_fast_forward();
    }
    let mut sched = build_policy(cfg, Arc::clone(&obs));
    let report = sim
        .run_until(sched.as_mut(), SimTime::from_secs(8 * 3600))
        .expect("clean run");
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (json, bytes)
}

/// Trace lines minus the per-round scheduling records the fast-forward
/// path batches: `gang_packed` and `round_planned` (absent for replayed
/// rounds) and `rounds_skipped` (their single stand-in).
fn comparable_lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8(bytes.to_vec())
        .expect("utf8 trace")
        .lines()
        .filter(|l| {
            !l.starts_with("{\"kind\":\"gang_packed\"")
                && !l.starts_with("{\"kind\":\"round_planned\"")
                && !l.starts_with("{\"kind\":\"rounds_skipped\"")
        })
        .map(String::from)
        .collect()
}

/// Same-seed replay, and fast-forward on vs off, all byte-identical for one
/// policy.
fn assert_policy_deterministic(policy: PolicyId, seed: u64) {
    let (base_report, base_trace) = run(policy, seed, true, "ff");
    assert!(!base_trace.is_empty(), "{policy}: empty trace");
    let (again_report, again_trace) = run(policy, seed, true, "ff-again");
    assert_eq!(
        base_report, again_report,
        "{policy}: same seed changed the report"
    );
    assert_eq!(
        base_trace, again_trace,
        "{policy}: same seed changed the trace"
    );
    let (noff_report, noff_trace) = run(policy, seed, false, "noff");
    assert_eq!(
        base_report, noff_report,
        "{policy}: fast-forward changed the report"
    );
    assert_eq!(
        comparable_lines(&base_trace),
        comparable_lines(&noff_trace),
        "{policy}: fast-forward changed the trace beyond batched round records"
    );
}

#[test]
fn gavel_hetero_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::GavelHetero, 7);
}

#[test]
fn themis_ftf_is_byte_deterministic() {
    assert_policy_deterministic(PolicyId::ThemisFtf, 7);
}
