//! Shared plumbing for the experiment binaries.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of the
//! reconstructed evaluation (see DESIGN.md for the index and EXPERIMENTS.md
//! for recorded outputs). All binaries accept `--seed <n>` and print
//! deterministic ASCII tables.

#![forbid(unsafe_code)]

use gfair_core::{GfairConfig, PolicyId};
use gfair_metrics::Table;
use gfair_obs::{Obs, SharedObs};
use gfair_policies::build_policy;
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, GenCatalog, JobSpec, ServerId, SimConfig, SimTime, UserSpec};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Parses `--seed <n>` from argv; defaults to 42.
pub fn seed_arg() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Parses a `--horizon-hours <n>` override; defaults to `default_hours`.
pub fn horizon_arg(default_hours: u64) -> SimTime {
    let args: Vec<String> = std::env::args().collect();
    let hours = args
        .iter()
        .position(|a| a == "--horizon-hours")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_hours);
    SimTime::from_secs(hours * 3600)
}

/// The paper-scale 200-GPU heterogeneous testbed.
pub fn testbed() -> ClusterSpec {
    ClusterSpec::paper_testbed()
}

/// A K80-heavy two-generation cluster where V100s are scarce — the trading
/// experiments' setting.
pub fn trading_cluster() -> ClusterSpec {
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 10, 8), ("V100", 3, 4)],
    )
}

/// Default simulator config for experiments (the paper's minute quantum).
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig::default().with_seed(seed)
}

/// Attaches a default-tier JSONL trace sink to the simulation when
/// `GFAIR_TRACE_DIR` is set, writing `<dir>/<binary>_<n>.jsonl` (`n`
/// counts simulations within the process, so a scheduler-comparison loop
/// gets one trace per configuration). `scripts/run_experiments.sh` sets
/// the variable and replays each experiment's flagship trace through
/// `gfair-trace fairness`. A no-op without the variable — experiments pay
/// nothing for observability they didn't ask for.
pub fn exp_trace(sim: Simulation) -> Simulation {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let Some(dir) = std::env::var_os("GFAIR_TRACE_DIR") else {
        return sim;
    };
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "exp".to_string());
    let path = std::path::Path::new(&dir).join(format!("{exe}_{n:02}.jsonl"));
    if let Err(e) = sim.obs().jsonl(&path) {
        eprintln!("exp_trace: cannot open {}: {e}", path.display());
    }
    sim
}

/// One optional fault for a [`policy_faceoff`] run: fail a server at an
/// hour, recover it at a later hour.
pub type FaceoffFault = (ServerId, u64, u64);

/// Runs every policy in [`PolicyId::ALL`] on the *same* cluster, trace,
/// seed and (optional) fault schedule, and renders the head-to-head
/// comparison table the P-family experiments share. All fairness columns
/// come from the trace-driven fairness ledger (`ObsSummary::ledger`), not
/// the report: cumulative Jain over entitlement-normalized service, Gini
/// over the ledger's per-user received totals, worst finish-time-fairness
/// ρ over finished jobs, and cluster GPU-hours integrated from per-round
/// received GPU-rounds.
pub fn policy_faceoff(
    cluster: &ClusterSpec,
    users: &[UserSpec],
    jobs: &[JobSpec],
    seed: u64,
    horizon: SimTime,
    fault: Option<FaceoffFault>,
) -> Table {
    let mut table = Table::new(vec![
        "policy",
        "jain",
        "gini",
        "worst rho",
        "gpu-hours",
        "finished",
        "util",
    ]);
    for policy in PolicyId::ALL {
        let obs: SharedObs = Arc::new(Obs::new());
        let mut sim = Simulation::new(
            cluster.clone(),
            users.to_vec(),
            jobs.to_vec(),
            sim_config(seed),
        )
        .expect("valid setup")
        .with_obs(Arc::clone(&obs));
        if let Some((server, down_h, up_h)) = fault {
            sim = sim
                .with_server_failure(server, SimTime::from_secs(down_h * 3600))
                .with_server_recovery(server, SimTime::from_secs(up_h * 3600));
        }
        let sim = exp_trace(sim);
        let mut sched = build_policy(GfairConfig::default().with_policy(policy), Arc::clone(&obs));
        let report = sim.run_until(sched.as_mut(), horizon).expect("valid run");
        let ledger = obs.summary().ledger;
        // Ledger rows carry GPU-rounds; one round is one quantum.
        let quantum_hours = sim_config(seed).quantum.as_secs_f64() / 3600.0;
        let gpu_hours: f64 = ledger
            .users
            .iter()
            .map(|row| row.received * quantum_hours)
            .sum();
        let worst_rho = ledger
            .users
            .iter()
            .map(|row| row.rho_max)
            .fold(ledger.rho.max, f64::max);
        // Run-level Gini over what each user received in total (the
        // ledger's own `gini` field is the *latest round's* spread, which
        // degenerates once the trace drains).
        let received: Vec<f64> = ledger.users.iter().map(|row| row.received).collect();
        let gini = gfair_metrics::fairness::gini(&received);
        table.row(vec![
            policy.name().to_string(),
            format!("{:.3}", ledger.jain),
            format!("{gini:.3}"),
            format!("{worst_rho:.2}"),
            format!("{gpu_hours:.1}"),
            format!("{}/{}", report.finished_jobs(), report.jobs.len()),
            format!("{:.1}%", report.utilization() * 100.0),
        ]);
    }
    table
}

/// Prints the standard experiment header.
pub fn banner(id: &str, claim: &str) {
    println!("== {id} ==");
    println!("claim: {claim}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_is_paper_scale() {
        assert_eq!(testbed().total_gpus(), 200);
    }

    #[test]
    fn default_seed_is_42() {
        assert_eq!(seed_arg(), 42);
    }

    #[test]
    fn trading_cluster_has_scarce_fast_gpus() {
        let c = trading_cluster();
        let per_gen = c.gpus_per_gen();
        let k80 = per_gen[&gfair_types::GenId::new(0)];
        let v100 = per_gen[&gfair_types::GenId::new(2)];
        assert!(k80 > 5 * v100, "V100s must be scarce: {k80} vs {v100}");
    }
}
