//! `gfair` — command-line front end for the Gandiva_fair reproduction.
//!
//! ```text
//! gfair simulate [OPTIONS]   run a simulation and print a summary
//! gfair zoo                  print the model zoo (true per-generation speedups)
//! gfair help                 this text
//!
//! simulate options:
//!   --cluster <paper|trading|homogeneous:<servers>x<gpus>>   (default paper)
//!   --scheduler <gandiva-fair|gandiva-like|static|drf|fifo|lottery>
//!                                                            (default gandiva-fair)
//!   --policy <gfair|gavel-hetero|themis-ftf>   allocation policy for the
//!                            gfair machinery (overrides --scheduler; see
//!                            POLICIES.md)
//!   --users <n>              number of equal-ticket users    (default 4)
//!   --jobs <n>               trace length                    (default 200)
//!   --jobs-per-hour <x>      Poisson arrival rate            (default 60)
//!   --median-mins <x>        median job service demand       (default 60)
//!   --seed <n>               RNG seed                        (default 42)
//!   --horizon-hours <h>      stop after h simulated hours    (default: run to completion)
//!   --no-trading             disable the trading market (gandiva-fair and
//!                            --policy gfair only)
//!   --no-balancing           disable migration-based balancing (gandiva-fair
//!                            and every --policy)
//!   --save-trace <path>      write the generated trace as JSON
//!   --load-trace <path>      replay a trace saved earlier (overrides generation)
//!   --json <path>            write the full SimReport as JSON
//!   --trace <path.jsonl>     stream scheduler events as JSONL (lean tier)
//!   --trace-full <path.jsonl> full tier: adds per-placement decision
//!                            provenance and the per-gang packing stream
//!   --obs-summary            print per-phase wall-clock p50/p99, counters,
//!                            and auditor findings after the run
//!   --fail <s>@<h1>[-<h2>]   fail server s at hour h1 (recover at h2)
//!   --faults <plan.json>     inject faults from a FaultPlan file
//!                            (see examples/faults.json)
//!   --fault-seed <n>         override the plan's randomization seed
//! ```
//!
//! `simulate` exits 1 on an option it does not know and on a value option
//! given without a value.
//!
//! The online invariant auditor is always on: every run re-derives cluster
//! state from the decision stream and aborts on gang-atomicity, overcommit,
//! residency, or ticket-conservation violations.

use gfair::metrics::fairness::normalized_shares;
use gfair::metrics::mean_slowdown;
use gfair::prelude::*;
use gfair::sim::ClusterScheduler;
use gfair::workloads::{load_trace, save_trace};
use std::process::ExitCode;
use std::sync::Arc;

/// Options `simulate` reads with a value, and the ones it reads as bare
/// flags. Anything else starting with `--` is rejected, so a mistyped option
/// cannot silently run a different experiment.
const VALUE_OPTIONS: [&str; 17] = [
    "--cluster",
    "--scheduler",
    "--policy",
    "--users",
    "--jobs",
    "--jobs-per-hour",
    "--median-mins",
    "--seed",
    "--horizon-hours",
    "--save-trace",
    "--load-trace",
    "--json",
    "--trace",
    "--trace-full",
    "--fail",
    "--faults",
    "--fault-seed",
];
const FLAG_OPTIONS: [&str; 3] = ["--no-trading", "--no-balancing", "--obs-summary"];

/// Checked `simulate` options: each value option paired with its value (a
/// repeated option reads as its first occurrence), plus the flags given.
struct Args {
    values: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
}

impl Args {
    /// Parses the arguments after `simulate`. Fails on an option that is
    /// not in [`VALUE_OPTIONS`] or [`FLAG_OPTIONS`], on a stray argument,
    /// and on a value option with nothing after it. The word after a value
    /// option is always its value, so `--jobs-per-hour -3` reaches the
    /// option's own range check.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            values: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(&key) = VALUE_OPTIONS.iter().find(|&&k| k == arg) {
                let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
                args.values.push((key, value.clone()));
            } else if let Some(&key) = FLAG_OPTIONS.iter().find(|&&k| k == arg) {
                args.flags.push(key);
            } else if arg.starts_with("--") {
                return Err(format!("unknown option: {arg} (see gfair help)"));
            } else {
                return Err(format!("unexpected argument: {arg} (see gfair help)"));
            }
        }
        Ok(args)
    }

    fn value_of(&self, key: &str) -> Option<&str> {
        (self.values.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains(&key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value_of(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {key}: {v}")),
        }
    }

    /// Reads a number that must be finite and greater than zero.
    fn positive(&self, key: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.parsed(key, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{key} must be a finite number > 0, got {v}"))
        }
    }
}

/// Converts whole simulated hours to an instant, rejecting hour counts
/// whose microsecond value does not fit in a `SimTime`.
fn hours_to_time(hours: u64, key: &str) -> Result<SimTime, String> {
    hours
        .checked_mul(SimTime::from_secs(3600).as_micros())
        .map(SimTime::from_micros)
        .ok_or_else(|| format!("{key}: {hours} hours is out of range"))
}

fn parse_cluster(spec: &str) -> Result<ClusterSpec, String> {
    match spec {
        "paper" => Ok(ClusterSpec::paper_testbed()),
        "trading" => Ok(ClusterSpec::build(
            GenCatalog::k80_p100_v100(),
            &[("K80", 10, 8), ("V100", 3, 4)],
        )),
        other => {
            let rest = other
                .strip_prefix("homogeneous:")
                .ok_or_else(|| format!("unknown cluster spec: {other}"))?;
            let (servers, gpus) = rest
                .split_once('x')
                .ok_or_else(|| format!("expected homogeneous:<servers>x<gpus>, got {other}"))?;
            let servers: u32 = servers
                .parse()
                .map_err(|_| "bad server count".to_string())?;
            let gpus: u32 = gpus.parse().map_err(|_| "bad gpu count".to_string())?;
            if servers == 0 || gpus == 0 {
                return Err("cluster must have at least one server and GPU".into());
            }
            Ok(ClusterSpec::homogeneous(servers, gpus))
        }
    }
}

/// Parses `--fail <server>@<down-hours>[-<up-hours>]`, e.g. `0@2-5`.
fn parse_failure(spec: &str) -> Result<(ServerId, SimTime, Option<SimTime>), String> {
    let (server, when) = spec
        .split_once('@')
        .ok_or_else(|| format!("expected --fail <server>@<down-hours>[-<up-hours>], got {spec}"))?;
    let server: u32 = server
        .parse()
        .map_err(|_| format!("bad server id in --fail: {server}"))?;
    let (down, up) = match when.split_once('-') {
        Some((d, u)) => (d, Some(u)),
        None => (when, None),
    };
    let down: u64 = down
        .parse()
        .map_err(|_| format!("bad failure hour in --fail: {down}"))?;
    let up = match up {
        Some(u) => {
            let u: u64 = u
                .parse()
                .map_err(|_| format!("bad recovery hour in --fail: {u}"))?;
            if u <= down {
                return Err("--fail: recovery hour must be after failure hour".into());
            }
            Some(hours_to_time(u, "--fail")?)
        }
        None => None,
    };
    Ok((ServerId::new(server), hours_to_time(down, "--fail")?, up))
}

fn make_scheduler(
    name: &str,
    args: &Args,
    cluster: &ClusterSpec,
    users: &[UserSpec],
    seed: u64,
    obs: &SharedObs,
) -> Result<Box<dyn ClusterScheduler>, String> {
    let mut cfg = GfairConfig::default();
    if args.flag("--no-trading") {
        cfg = cfg.without_trading();
    }
    if args.flag("--no-balancing") {
        cfg = cfg.without_balancing();
    }
    // --policy selects an allocation policy behind the gfair machinery and
    // takes precedence over --scheduler (the baselines have no policy
    // boundary to plug into).
    if let Some(policy) = args.value_of("--policy") {
        let policy = PolicyId::parse(policy).ok_or_else(|| {
            format!(
                "unknown policy: {policy} (expected one of: {})",
                PolicyId::ALL.map(|p| p.name()).join("|")
            )
        })?;
        return Ok(build_policy(cfg.with_policy(policy), Arc::clone(obs)));
    }
    Ok(match name {
        "gandiva-fair" => Box::new(GandivaFair::new(cfg).with_obs(Arc::clone(obs))),
        "gandiva-like" => Box::new(GandivaLike::new()),
        "static" => Box::new(StaticPartition::new(cluster, users)),
        "drf" => Box::new(Drf::new()),
        "fifo" => Box::new(Fifo::new()),
        "lottery" => Box::new(LotteryGang::new(seed)),
        other => return Err(format!("unknown scheduler: {other}")),
    })
}

fn cmd_zoo() {
    let mut t = Table::new(vec![
        "model",
        "class",
        "K80",
        "P100",
        "V100",
        "ckpt+restore",
    ]);
    for e in gfair::workloads::zoo() {
        t.row(vec![
            e.model.name.clone(),
            format!("{:?}", e.class),
            "1.00".into(),
            format!("{:.2}", e.model.rates[1]),
            format!("{:.2}", e.model.rates[2]),
            format!("{:.0}s", e.model.migration_cost().as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let cluster = parse_cluster(args.value_of("--cluster").unwrap_or("paper"))?;
    let n_users: u32 = args.parsed("--users", 4)?;
    if n_users == 0 {
        return Err("--users must be at least 1".into());
    }
    let users = UserSpec::equal_users(n_users, 100);

    let trace = match args.value_of("--load-trace") {
        Some(path) => load_trace(path).map_err(|e| format!("loading trace: {e}"))?,
        None => {
            let mut params = PhillyParams::default();
            params.num_jobs = args.parsed("--jobs", 200usize)?;
            params.jobs_per_hour = args.positive("--jobs-per-hour", 60.0)?;
            params.median_service_mins = args.positive("--median-mins", 60.0)?;
            // Gangs must fit the widest server: zero out infeasible sizes.
            let max_gang = cluster.max_gang();
            for (i, size) in [1u32, 2, 4, 8].iter().enumerate() {
                if *size > max_gang {
                    params.gang_weights[i] = 0.0;
                }
            }
            TraceBuilder::new(params, seed).build(&users)
        }
    };
    if let Some(path) = args.value_of("--save-trace") {
        save_trace(path, &trace).map_err(|e| format!("saving trace: {e}"))?;
        eprintln!("trace written to {path}");
    }

    let obs: SharedObs = Arc::new(Obs::new());
    if let Some(path) = args.value_of("--trace-full") {
        obs.jsonl_full(path)
            .map_err(|e| format!("opening trace file {path}: {e}"))?;
    } else if let Some(path) = args.value_of("--trace") {
        obs.jsonl(path)
            .map_err(|e| format!("opening trace file {path}: {e}"))?;
    }

    let sched_name = args.value_of("--scheduler").unwrap_or("gandiva-fair");
    let mut scheduler = make_scheduler(sched_name, args, &cluster, &users, seed, &obs)?;
    let failure = match args.value_of("--fail") {
        Some(spec) => {
            let parsed = parse_failure(spec)?;
            if parsed.0.index() >= cluster.servers.len() {
                return Err(format!("--fail: unknown server {}", parsed.0));
            }
            Some(parsed)
        }
        None => None,
    };
    let faults = match args.value_of("--faults") {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("reading fault plan {path}: {e}"))?;
            let mut plan = FaultPlan::from_json(&json)
                .map_err(|e| format!("parsing fault plan {path}: {e}"))?;
            if let Some(seed) = args.value_of("--fault-seed") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("invalid value for --fault-seed: {seed}"))?;
            }
            let servers = plan
                .partitions
                .iter()
                .map(|p| ("partition", p.server))
                .chain(plan.flaps.iter().map(|f| ("flap", f.server)));
            for (what, server) in servers {
                if server.index() >= cluster.servers.len() {
                    return Err(format!(
                        "fault plan {path}: {what} of unknown server {server} (the cluster has {} servers)",
                        cluster.servers.len()
                    ));
                }
            }
            Some(plan)
        }
        None if args.value_of("--fault-seed").is_some() => {
            return Err("--fault-seed requires --faults <plan.json>".into());
        }
        None => None,
    };
    let horizon = match args.value_of("--horizon-hours") {
        Some(h) => {
            let hours: u64 = h.parse().map_err(|_| "bad --horizon-hours")?;
            Some(hours_to_time(hours, "--horizon-hours")?)
        }
        None => None,
    };
    let mut sim = Simulation::new(
        cluster,
        users.clone(),
        trace,
        SimConfig::default().with_seed(seed),
    )
    .map_err(|e| e.to_string())?
    .with_obs(Arc::clone(&obs));
    if let Some((server, down, up)) = failure {
        sim = sim.with_server_failure(server, down);
        if let Some(up) = up {
            sim = sim.with_server_recovery(server, up);
        }
    }
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    let report = match horizon {
        Some(t) => sim.run_until(scheduler.as_mut(), t),
        None => sim.run(scheduler.as_mut()),
    }
    .map_err(|e| e.to_string())?;

    println!("scheduler         : {}", report.scheduler);
    println!("simulated time    : {}", report.end);
    println!("rounds            : {}", report.rounds);
    println!(
        "jobs finished     : {} / {}",
        report.finished_jobs(),
        report.jobs.len()
    );
    println!("GPU utilization   : {:.1}%", report.utilization() * 100.0);
    println!(
        "effective service : {:.1} base-GPU-hours",
        report.total_base_secs() / 3600.0
    );
    println!("migrations        : {}", report.migrations);
    if report.migration_failures > 0 {
        println!("migration failures: {}", report.migration_failures);
    }
    if let Some(j) = JctStats::from_durations(&report.jcts()) {
        println!(
            "JCT               : mean {:.1} min, p50 {:.1}, p95 {:.1}",
            j.mean_secs / 60.0,
            j.p50_secs / 60.0,
            j.p95_secs / 60.0
        );
    }
    if let Some(s) = mean_slowdown(&report) {
        println!("mean slowdown     : {s:.2}x");
    }
    let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
    let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
    println!("fairness (Jain)   : {jain:.3}");
    println!();
    let mut t = Table::new(vec!["user", "gpu-hours", "share"]);
    let total: f64 = received.iter().sum();
    for (u, r) in users.iter().zip(&received) {
        t.row(vec![
            u.name.clone(),
            format!("{:.1}", r / 3600.0),
            format!("{:.1}%", 100.0 * r / total.max(1e-9)),
        ]);
    }
    println!("{}", t.render());

    if args.flag("--obs-summary") {
        print_obs_summary(&obs);
    }
    if let Some(path) = args.value_of("--trace-full") {
        eprintln!("full-provenance trace written to {path}");
    } else if let Some(path) = args.value_of("--trace") {
        eprintln!("trace written to {path}");
    }

    if let Some(path) = args.value_of("--json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

fn print_obs_summary(obs: &SharedObs) {
    let stats = obs.phase_stats();
    println!("observability");
    println!("-------------");
    if stats.is_empty() {
        println!("no instrumented phases ran (baseline schedulers time round planning only)");
    }
    if !stats.is_empty() {
        let mut t = Table::new(vec![
            "phase", "spans", "total ms", "p50 us", "p99 us", "max us",
        ]);
        // Name order, not instrumentation order: every section of this
        // summary sorts by name so runs diff cleanly.
        let mut stats = stats;
        stats.sort_by_key(|s| s.phase.name());
        for s in &stats {
            t.row(vec![
                s.phase.name().to_string(),
                s.count.to_string(),
                format!("{:.2}", s.total_ms),
                format!("{:.1}", s.p50_us),
                format!("{:.1}", s.p99_us),
                format!("{:.1}", s.max_us),
            ]);
        }
        println!("{}", t.render());
    }

    let summary = obs.summary();
    let mut t = Table::new(vec!["counter", "value"]);
    for (name, value) in &summary.counters {
        t.row(vec![name.clone(), value.to_string()]);
    }
    println!("{}", t.render());

    if !summary.gauges.is_empty() {
        let mut t = Table::new(vec!["gauge", "value"]);
        for (name, value) in &summary.gauges {
            t.row(vec![name.clone(), format!("{value:.3}")]);
        }
        println!("{}", t.render());
    }

    if !summary.histograms.is_empty() {
        let mut hists = summary.histograms.clone();
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        let mut t = Table::new(vec!["histogram", "count", "mean", "p50", "p99", "max"]);
        for h in &hists {
            t.row(vec![
                h.name.clone(),
                h.count.to_string(),
                format!("{:.2}", h.mean),
                format!("{:.2}", h.p50),
                format!("{:.2}", h.p99),
                format!("{:.2}", h.max),
            ]);
        }
        println!("{}", t.render());
    }

    let ledger = &summary.ledger;
    println!(
        "fairness ledger: rounds {} jain {:.4} gini {:.4} rho(n {} mean {:.3} p99 {:.3})",
        ledger.rounds, ledger.jain, ledger.gini, ledger.rho.count, ledger.rho.mean, ledger.rho.p99
    );
    if !ledger.users.is_empty() {
        let mut t = Table::new(vec!["user", "deserved", "received", "finished", "rho mean"]);
        for row in &ledger.users {
            t.row(vec![
                row.user.to_string(),
                format!("{:.1}", row.deserved),
                format!("{:.1}", row.received),
                row.finished.to_string(),
                format!("{:.3}", row.rho_mean),
            ]);
        }
        println!("{}", t.render());
    }

    if summary.violations == 0 {
        println!(
            "auditor: OK ({} events checked, {} warnings)",
            summary.events, summary.warnings
        );
    } else {
        println!("auditor: {} VIOLATIONS", summary.violations);
        for v in obs.violations() {
            println!("{v}");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "zoo" => {
            cmd_zoo();
            ExitCode::SUCCESS
        }
        "simulate" => match Args::parse(&argv[1..]).and_then(|args| cmd_simulate(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print!("{}", HELP);
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
gfair - Gandiva_fair (EuroSys 2020) reproduction

USAGE:
  gfair simulate [OPTIONS]   run a simulation and print a summary
  gfair zoo                  print the model zoo
  gfair help                 this text

SIMULATE OPTIONS:
  --cluster <paper|trading|homogeneous:<servers>x<gpus>>  (default paper)
  --scheduler <gandiva-fair|gandiva-like|static|drf|fifo|lottery>
  --policy <gfair|gavel-hetero|themis-ftf>  allocation policy for the
                        gfair machinery (overrides --scheduler; the
                        policy guide is POLICIES.md)
  --users <n>           equal-ticket users          (default 4)
  --jobs <n>            trace length                (default 200)
  --jobs-per-hour <x>   Poisson arrival rate        (default 60)
  --median-mins <x>     median job service demand   (default 60)
  --seed <n>            RNG seed                    (default 42)
  --horizon-hours <h>   stop after h simulated hours
  --no-trading          disable the trading market  (gandiva-fair and
                        --policy gfair only)
  --no-balancing        disable migration balancing (gandiva-fair and
                        every --policy)
  --save-trace <path>   write the generated trace as JSON
  --load-trace <path>   replay a previously saved trace
  --json <path>         write the full report as JSON
  --trace <path.jsonl>  stream scheduler events as JSONL (lean tier:
                        no per-placement provenance, no per-gang stream)
  --trace-full <path.jsonl>  full tier: every event plus decision
                        provenance for placements and retries
  --obs-summary         print phase p50/p99 timings, counters, and
                        auditor findings after the run
  --fail <s>@<h1>[-<h2>]  fail server s at hour h1 (recover at h2)
  --faults <plan.json>  inject faults from a FaultPlan file
                        (see examples/faults.json)
  --fault-seed <n>      override the fault plan's randomization seed

An unknown option, or a value option given without its value, is an
error (exit 1).

The invariant auditor always runs: gang atomicity, GPU overcommit,
residency, ticket conservation, migration lifecycle, and conservation
across partition heals are checked online and violations abort the run
with the offending round's trace.
";
