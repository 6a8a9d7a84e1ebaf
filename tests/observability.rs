//! Integration tests for the observability layer (`gfair-obs`): trace
//! determinism, the always-on invariant auditor across every built-in
//! scheduler, and end-to-end detection of a deliberately broken policy.

use gfair::obs::{TraceEvent, UserShare};
use gfair::prelude::*;
use gfair::sim::{Action, ClusterScheduler, RoundPlan, SimView};
use gfair::types::GfairError;
use std::sync::Arc;

fn setup(seed: u64) -> (ClusterSpec, Vec<UserSpec>, Vec<JobSpec>) {
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(4, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 80;
    params.jobs_per_hour = 50.0;
    params.median_service_mins = 45.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    (cluster, users, trace)
}

/// Runs one seeded simulation with a JSONL sink and returns the trace bytes.
fn traced_run(seed: u64, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "gfair-obs-trace-{}-{tag}.jsonl",
        std::process::id()
    ));
    let (cluster, users, trace) = setup(seed);
    let obs: SharedObs = Arc::new(Obs::new());
    obs.jsonl(&path).expect("trace file");
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    sim.run(&mut sched).expect("clean run");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn same_seed_byte_identical_jsonl_trace() {
    let a = traced_run(11, "a");
    let b = traced_run(11, "b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the trace byte-for-byte");
}

#[test]
fn trace_covers_the_event_taxonomy() {
    let (cluster, users, trace) = setup(3);
    let obs: SharedObs = Arc::new(Obs::new());
    let ring = obs.ring(200_000);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default())
        .unwrap()
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::new(GfairConfig::default()).with_obs(Arc::clone(&obs));
    sim.run(&mut sched).expect("clean run");
    let kinds: std::collections::BTreeSet<&'static str> =
        ring.events().iter().map(|e| e.kind()).collect();
    for kind in [
        "server_up",
        "job_arrive",
        "placement",
        "gang_packed",
        "round_planned",
        "migration",
        "profile_inferred",
        "job_finish",
    ] {
        assert!(kinds.contains(kind), "trace is missing {kind} events");
    }
}

/// The DESIGN.md event table and `TraceEvent::KINDS` must list exactly the
/// same kinds: documenting a new event (or retiring one) is part of adding
/// it. Rows may group related kinds with " / ".
#[test]
fn design_md_event_table_matches_the_event_taxonomy() {
    let design = include_str!("../DESIGN.md");
    let mut documented = std::collections::BTreeSet::new();
    let mut in_table = false;
    for line in design.lines() {
        if line.starts_with("| Kind | Emitted when |") {
            in_table = true;
            continue;
        }
        if in_table && !line.starts_with('|') {
            break;
        }
        if !in_table {
            continue;
        }
        // Table rows look like: | `kind_a` / `kind_b` | prose |
        let Some(first_cell) = line.strip_prefix("| `").and_then(|r| r.split('|').next()) else {
            continue;
        };
        for kind in first_cell.split(" / ") {
            let kind = kind.trim().trim_matches('`');
            if kind.chars().all(|c| c.is_ascii_lowercase() || c == '_') && !kind.is_empty() {
                documented.insert(kind.to_string());
            }
        }
    }
    let expected: std::collections::BTreeSet<String> =
        TraceEvent::KINDS.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        documented, expected,
        "DESIGN.md's event table and TraceEvent::KINDS have drifted"
    );
}

#[test]
fn auditor_is_clean_on_every_builtin_scheduler() {
    let (cluster, users, _) = setup(5);
    let mut scheds: Vec<Box<dyn ClusterScheduler>> = vec![
        Box::new(GandivaFair::new(GfairConfig::default())),
        Box::new(GandivaLike::new()),
        Box::new(StaticPartition::new(&cluster, &users)),
        Box::new(Drf::new()),
        Box::new(Fifo::new()),
        Box::new(LotteryGang::new(5)),
    ];
    for sched in &mut scheds {
        let (cluster, users, trace) = setup(5);
        let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
        let report = sim
            .run_until(sched.as_mut(), SimTime::from_secs(8 * 3600))
            .expect("invariant-clean run");
        let obs = report.obs.expect("report carries an obs summary");
        assert_eq!(
            obs.violations, 0,
            "{}: auditor found violations",
            report.scheduler
        );
        assert!(obs.events > 0);
    }
}

#[test]
fn obs_summary_agrees_with_the_report() {
    let (cluster, users, trace) = setup(7);
    let n_jobs = trace.len() as u64;
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::new(GfairConfig::default());
    let report = sim.run(&mut sched).expect("clean run");
    let obs = report.obs.as_ref().expect("obs summary");
    assert_eq!(obs.counters["jobs_arrived"], n_jobs);
    assert_eq!(obs.counters["jobs_finished"], report.finished_jobs() as u64);
    assert_eq!(obs.counters["rounds"], report.rounds);
    assert_eq!(
        obs.counters.get("migrations").copied().unwrap_or(0),
        u64::from(report.migrations)
    );
    assert_eq!(
        obs.counters.get("stale_migrations").copied().unwrap_or(0),
        u64::from(report.stale_migrations)
    );
    assert_eq!(
        obs.counters.get("profile_reports").copied().unwrap_or(0),
        report.profile_reports
    );
}

#[test]
fn auditor_survives_server_failure_and_recovery() {
    let (cluster, users, trace) = setup(9);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default())
        .unwrap()
        .with_server_failure(ServerId::new(0), SimTime::from_secs(3600))
        .with_server_recovery(ServerId::new(0), SimTime::from_secs(3 * 3600));
    let mut sched = GandivaFair::new(GfairConfig::default());
    let report = sim.run(&mut sched).expect("clean run through the outage");
    let obs = report.obs.expect("obs summary");
    assert_eq!(obs.violations, 0);
    assert_eq!(obs.counters["server_failures"], 1);
}

/// Behaves exactly like FIFO but reports a ticket economy that conjures
/// GPUs out of thin air. Only the auditor checks ticket conservation, so
/// this proves the auditor aborts runs the engine's inline validation
/// would accept.
struct TicketInflater(Fifo);

impl ClusterScheduler for TicketInflater {
    fn name(&self) -> &'static str {
        "ticket-inflater"
    }
    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.0.on_job_arrival(view, job)
    }
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        self.0.plan_round(view)
    }
    fn user_shares(&self, view: &SimView<'_>) -> Vec<UserShare> {
        vec![UserShare {
            user: UserId::new(0),
            tickets: view.cluster().total_gpus() as f64 * 2.0,
        }]
    }
}

#[test]
fn broken_scheduler_is_caught_by_the_auditor() {
    let (cluster, users, trace) = setup(13);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = TicketInflater(Fifo::new());
    let err = sim
        .run_until(&mut sched, SimTime::from_secs(4 * 3600))
        .expect_err("the auditor must abort the run");
    match err {
        GfairError::InvariantViolation(report) => {
            assert!(
                report.contains("ticket"),
                "violation report should name the broken invariant: {report}"
            );
            assert!(
                report.contains("round"),
                "violation report should carry the round trace: {report}"
            );
        }
        other => panic!("expected InvariantViolation, got {other}"),
    }
}
