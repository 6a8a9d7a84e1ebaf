//! A trace replayed from disk schedules exactly like the trace generated in
//! memory: for each allocation policy on the fault-injected paper testbed,
//! the report of a generated trace is byte-identical to the report of the
//! same trace written with `save_trace` and read back with `load_trace`.

use gfair::prelude::*;
use gfair::workloads::{load_trace, save_trace};
use std::sync::Arc;

/// The report JSON of `policy` on the faulted paper testbed over `trace`.
fn report(policy: PolicyId, users: &[UserSpec], trace: Vec<JobSpec>) -> String {
    let plan = FaultPlan::from_json(include_str!("../examples/faults.json")).expect("example plan");
    let obs: SharedObs = Arc::new(Obs::new());
    let sim = Simulation::new(
        ClusterSpec::paper_testbed(),
        users.to_vec(),
        trace,
        SimConfig::default().with_seed(3),
    )
    .expect("valid trace")
    .with_faults(plan)
    .with_obs(Arc::clone(&obs));
    let mut sched = build_policy(GfairConfig::default().with_policy(policy), obs);
    let report = sim
        .run_until(sched.as_mut(), SimTime::from_secs(10 * 3600))
        .expect("clean run");
    serde_json::to_string_pretty(&report).expect("serialize report")
}

#[test]
fn a_replayed_trace_reports_the_same_bytes_as_the_generated_one() {
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 200;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, 3).build(&users);
    let path = std::env::temp_dir().join(format!("gfair-replay-{}.json", std::process::id()));
    save_trace(&path, &trace).expect("save trace");
    for policy in [PolicyId::Gfair, PolicyId::GavelHetero, PolicyId::ThemisFtf] {
        let loaded = load_trace(&path).expect("load trace");
        assert_eq!(
            report(policy, &users, trace.clone()),
            report(policy, &users, loaded),
            "{}: the replayed trace must report the same bytes",
            policy.name()
        );
    }
    let _ = std::fs::remove_file(&path);
}
