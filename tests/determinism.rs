//! Round planning is deterministic: the same seed replays to a byte-identical
//! `SimReport` and JSONL trace, and lazy settling (the default) produces
//! the same report bytes as eager per-round planning.

use gfair::prelude::*;
use std::sync::Arc;

/// Runs one seeded simulation with a JSONL sink; returns the serialized
/// report and the raw trace bytes.
fn run(seed: u64, tag: &str) -> (String, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "gfair-determinism-{}-{tag}.jsonl",
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
        .with_server_failure(ServerId::new(2), SimTime::from_secs(2 * 3600))
        .with_server_recovery(ServerId::new(2), SimTime::from_secs(4 * 3600))
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run");
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (json, bytes)
}

/// Runs one seeded, untraced simulation (faults included) with `cfg` and
/// returns the serialized report.
fn run_untraced(seed: u64, cfg: GfairConfig) -> String {
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_server_failure(ServerId::new(2), SimTime::from_secs(2 * 3600))
        .with_server_recovery(ServerId::new(2), SimTime::from_secs(4 * 3600));
    let mut sched = GandivaFair::new(cfg);
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run");
    serde_json::to_string(&report).expect("serialize report")
}

#[test]
fn lazy_planning_is_byte_identical_to_eager() {
    // Lazy settling reuses a server's cached selection only while all its
    // gangs fit and nothing touches it, so it must produce the same report
    // byte-for-byte — including across a failure/recovery cycle.
    let base = GfairConfig::default();
    let eager = run_untraced(7, base.without_lazy_planning());
    let lazy = run_untraced(7, base);
    assert_eq!(eager, lazy, "lazy settling changed the report");
}

#[test]
fn traced_runs_replay_byte_identically() {
    // Traced runs settle lazily, like untraced ones; a replay of the same
    // seed, failure/recovery cycle included, must match byte-for-byte.
    let (a_report, a_trace) = run(7, "a");
    let (b_report, b_trace) = run(7, "b");
    assert!(!a_trace.is_empty());
    assert_eq!(a_report, b_report, "same seed changed the report");
    assert_eq!(a_trace, b_trace, "same seed changed the trace");
}
