//! Experiment T1 `model_zoo` — variable marginal utility (paper Fig. 1 /
//! model table).
//!
//! For each zoo model: the ground-truth speedups and the speedups the
//! Gandiva_fair profiler *recovers* from noisy observations after running
//! the job on every generation, demonstrating that transparent profiling is
//! accurate enough to drive trading.
//!
//! Run: `cargo run -p gfair-bench --bin exp_t1_model_zoo [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, GenCatalog, GenId, JobId, JobSpec, SimTime, UserId, UserSpec};
use gfair_workloads::zoo;
use std::sync::Arc;

fn main() {
    let seed = seed_arg();
    banner(
        "T1 model_zoo",
        "V100-over-K80 speedup varies ~1.2x-5x across DLT models; the profiler recovers it from noisy observations",
    );

    // One long job per model on a small cluster with every generation; the
    // profiler's migration pass carries each job across generations.
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 4, 4), ("P100", 3, 4), ("V100", 3, 4)],
    );
    let entries = zoo();
    let users = UserSpec::equal_users(1, 100);
    let trace: Vec<JobSpec> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            JobSpec::new(
                JobId::new(i as u32),
                UserId::new(0),
                Arc::clone(&e.model),
                1,
                1_000_000.0,
                SimTime::ZERO,
            )
        })
        .collect();
    let sim =
        exp_trace(Simulation::new(cluster, users, trace, sim_config(seed)).expect("valid setup"));
    let mut sched = GandivaFair::new(GfairConfig::default());
    let _ = sim
        .run_until(&mut sched, SimTime::from_secs(12 * 3600))
        .expect("valid run");
    let profiler = sched.profiler().expect("profiler ran");

    let (p100, v100) = (GenId::new(1), GenId::new(2));
    let base = GenId::new(0);
    let mut table = Table::new(vec![
        "model",
        "class",
        "true P100x",
        "est P100x",
        "true V100x",
        "est V100x",
    ]);
    for e in &entries {
        let model = profiler
            .model_id(&e.model.name)
            .expect("zoo model in trace");
        let est = |g| {
            profiler
                .speedup(model, g, base)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into())
        };
        table.row(vec![
            e.model.name.clone(),
            format!("{:?}", e.class),
            format!("{:.2}", e.model.speedup(p100)),
            est(p100),
            format!("{:.2}", e.model.speedup(v100)),
            est(v100),
        ]);
    }
    println!("{}", table.render());

    let spread_lo = entries
        .iter()
        .map(|e| e.model.speedup(v100))
        .fold(f64::INFINITY, f64::min);
    let spread_hi = entries
        .iter()
        .map(|e| e.model.speedup(v100))
        .fold(0.0f64, f64::max);
    println!("V100/K80 speedup spread: {spread_lo:.2}x - {spread_hi:.2}x (paper: ~1.2x - ~5x)");
}
