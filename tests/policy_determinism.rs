//! Byte-determinism for the policy zoo: each policy behind the
//! `AllocPolicy` boundary must replay the same seed to a byte-identical
//! `SimReport` and JSONL trace, lazy plan settling (the default, traced or
//! not) must produce the same report and trace bytes as eager per-round
//! planning, and attaching a trace sink of either tier must not change the
//! schedule (the report apart from its observability summary). A
//! full-provenance trace is the default-tier trace plus the lines only that
//! tier writes. All runs are fault-injected, so the degraded-mode paths are
//! exercised too.

use gfair::prelude::*;
use std::sync::Arc;

/// One run's serialized report, the same report without its observability
/// summary, and the raw trace bytes (empty without a sink).
struct Run {
    report: String,
    schedule: String,
    trace: Vec<u8>,
}

/// Which trace sink a run gets.
#[derive(Clone, Copy, PartialEq)]
enum Sink {
    None,
    /// The default tier (`Obs::jsonl`).
    Lean,
    /// The full-provenance tier (`Obs::jsonl_full`).
    Full,
}

/// Runs one seeded, fault-injected simulation of `policy` under `cfg`,
/// with a JSONL sink of tier `sink` tagged `trace_tag`.
fn run(policy: PolicyId, seed: u64, cfg: GfairConfig, sink: Sink, trace_tag: &str) -> Run {
    let path = (sink != Sink::None).then(|| {
        std::env::temp_dir().join(format!(
            "gfair-policy-det-{}-{}-{trace_tag}.jsonl",
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
    match (sink, &path) {
        (Sink::Lean, Some(path)) => obs.jsonl(path).expect("trace file"),
        (Sink::Full, Some(path)) => obs.jsonl_full(path).expect("trace file"),
        _ => {}
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

/// `trace` without the lines only the full-provenance tier writes: gang
/// grants and the decisions built only when `Obs::why` holds (placements,
/// retries, and the Gavel and Themis allocation rounds).
fn without_full_tier_lines(trace: &[u8]) -> Vec<u8> {
    let full_only = [
        "{\"kind\":\"gang_packed\",",
        "\"decision\":\"placement\",",
        "\"decision\":\"retry\",",
        "\"decision\":\"water-fill\",",
        "\"decision\":\"ftf-auction\",",
    ];
    let text = std::str::from_utf8(trace).expect("UTF-8 trace");
    text.split_inclusive('\n')
        .filter(|line| !full_only.iter().any(|kind| line.contains(kind)))
        .collect::<String>()
        .into_bytes()
}

/// Same-seed replay, lazy vs eager planning, traced vs untraced runs and
/// the two trace tiers, all byte-identical for one policy.
fn assert_policy_deterministic(policy: PolicyId, seed: u64) {
    let cfg = GfairConfig::default();
    let base = run(policy, seed, cfg, Sink::Lean, "a");
    assert!(!base.trace.is_empty(), "{policy}: empty trace");
    let again = run(policy, seed, cfg, Sink::Lean, "b");
    assert_eq!(
        base.report, again.report,
        "{policy}: same seed changed the report"
    );
    assert!(
        base.trace == again.trace,
        "{policy}: same seed changed the trace"
    );
    let eager = run(policy, seed, cfg.without_lazy_planning(), Sink::Lean, "e");
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
    let untraced = run(policy, seed, cfg, Sink::None, "");
    assert_eq!(
        base.schedule, untraced.schedule,
        "{policy}: attaching a trace sink changed the schedule"
    );
    // Servers are chosen the same way in every tier; the full tier only
    // adds provenance lines.
    let full = run(policy, seed, cfg, Sink::Full, "f");
    assert_eq!(
        full.schedule, untraced.schedule,
        "{policy}: full-provenance tracing changed the schedule"
    );
    let stripped = without_full_tier_lines(&full.trace);
    assert!(
        stripped.len() < full.trace.len(),
        "{policy}: the full tier wrote no lines of its own"
    );
    assert!(
        stripped == base.trace,
        "{policy}: the full-provenance trace is not the default trace plus full-tier lines"
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
