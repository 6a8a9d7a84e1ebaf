//! Experiment F10 `migration_faults` — bounded retry under checkpoint and
//! restore failures (extension).
//!
//! Not a figure from the paper's evaluation: the paper's testbed had working
//! checkpoint/restore, but any production deployment sees both fail. The
//! claim pinned here is that the retry path (exponential backoff, bounded by
//! `max_migration_retries`) keeps the schedule intact: jobs still finish,
//! fairness holds, and abandonment stays rare even at failure rates far
//! above anything a real cluster should sustain.
//!
//! Scenario: the 200-GPU testbed under a 6-user Philly-like trace, sweeping
//! the per-attempt checkpoint+restore failure rate 0% → 20%, with retries on
//! (default config) and off (`max_migration_retries = 0`).
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f10_migration_faults [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config, testbed};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_faults::FaultPlan;
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::Table;
use gfair_obs::{Obs, SharedObs};
use gfair_sim::{SimReport, Simulation};
use gfair_types::{SimTime, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};
use std::sync::Arc;

fn run(fail_rate: f64, retries: u32, seed: u64) -> (SimReport, u64) {
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 300;
    params.jobs_per_hour = 100.0;
    params.median_service_mins = 120.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    let mut sim = exp_trace(
        Simulation::new(testbed(), users, trace, sim_config(seed))
            .expect("valid setup")
            .with_obs(Arc::clone(&obs)),
    );
    if fail_rate > 0.0 {
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_migration_fail_rates(fail_rate / 2.0, fail_rate / 2.0);
        sim = sim.with_faults(plan);
    }
    let cfg = GfairConfig::default().with_migration_retries(retries);
    let mut sched = GandivaFair::new(cfg).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("valid run");
    let abandoned = report
        .obs
        .as_ref()
        .and_then(|s| s.counters.get("migration_retries_abandoned").copied())
        .unwrap_or(0);
    (report, abandoned)
}

fn main() {
    let seed = seed_arg();
    banner(
        "F10 migration_faults (extension)",
        "bounded retry with backoff absorbs checkpoint/restore failures: jobs still finish, fairness holds, abandonment stays rare",
    );
    println!("200-GPU testbed; 6 users, 300 jobs, 8 h, seed {seed}; rate split evenly between checkpoint and restore\n");

    let users = UserSpec::equal_users(6, 100);
    let mut table = Table::new(vec![
        "fail rate",
        "retries",
        "finished",
        "jain(norm)",
        "migrations",
        "mig failures",
        "abandoned",
    ]);
    for rate_pct in [0u32, 5, 10, 20] {
        for retries in [3u32, 0] {
            if rate_pct == 0 && retries == 0 {
                continue; // no faults to retry: identical to the row above
            }
            let (report, abandoned) = run(rate_pct as f64 / 100.0, retries, seed);
            let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
            let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
            table.row(vec![
                format!("{rate_pct}%"),
                if retries == 0 { "off" } else { "3" }.to_string(),
                report.finished_jobs().to_string(),
                format!("{jain:.3}"),
                report.migrations.to_string(),
                report.migration_failures.to_string(),
                abandoned.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(a failed attempt is retried after 60 s, 120 s, 240 s; 'abandoned' counts jobs whose retries ran out)");
}
