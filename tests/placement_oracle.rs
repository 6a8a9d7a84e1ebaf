//! Bursty placement on a homogeneous cluster, for every allocation policy.
//!
//! Hundreds of arrivals per round make every server of the generation take
//! a placement, so the least-loaded pick walks past this round's touched
//! servers; a few dozen per round leave the walk's start mid-order, where a
//! finish on a server beyond it must pull it back. Finishes, a server
//! failure and a partition window move resident loads between picks. In debug builds every untraced pick is
//! checked against a full scan of the same reachable servers (see
//! `Placer::choose_server` in `gfair-core`), so these runs fail loudly if
//! the index-backed pick ever chooses a different server.

use gfair::prelude::*;
use std::sync::Arc;

/// Runs `jobs` jobs arriving at `jobs_per_hour` on
/// `servers` eight-GPU servers under `policy`, with server 3 failing at
/// minute 2 and recovering at minute 9 and server 5 partitioned from
/// minute 1 to minute 6. Returns the number of finished jobs.
fn burst(policy: PolicyId, servers: u32, jobs: usize, jobs_per_hour: f64, minutes: u64) -> usize {
    let cluster = ClusterSpec::homogeneous(servers, 8);
    let users = UserSpec::equal_users(16, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = jobs;
    params.jobs_per_hour = jobs_per_hour;
    params.median_service_mins = 3.0;
    params.service_clamp_mins = (1.0, 60.0);
    let trace = TraceBuilder::new(params, 11).build(&users);
    let faults = FaultPlan::none().with_partition(
        ServerId::new(5),
        SimTime::from_secs(60),
        SimTime::from_secs(6 * 60),
    );
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(11))
        .expect("valid scenario")
        .with_server_failure(ServerId::new(3), SimTime::from_secs(2 * 60))
        .with_server_recovery(ServerId::new(3), SimTime::from_secs(9 * 60))
        .with_faults(faults);
    let obs: SharedObs = Arc::new(Obs::new());
    let mut sched = build_policy(GfairConfig::default().with_policy(policy), obs);
    let report = sim
        .run_until(sched.as_mut(), SimTime::from_secs(minutes * 60))
        .unwrap_or_else(|e| panic!("{policy}: {e}"));
    report.jobs.values().filter(|j| j.finish.is_some()).count()
}

#[test]
fn bursty_arrivals_place_like_a_full_scan() {
    for policy in PolicyId::ALL {
        // About 330 and about 20 arrivals per one-minute round on 48
        // servers.
        for (jobs, jobs_per_hour) in [(3000, 20_000.0), (1000, 1_200.0)] {
            let finished = burst(policy, 48, jobs, jobs_per_hour, 30);
            assert!(
                finished > 0,
                "{policy} at {jobs_per_hour}/h: no job finished"
            );
        }
    }
}

#[test]
fn a_burst_that_laps_the_residency_ring_places_like_a_full_scan() {
    // More placements land at one round boundary than the cluster index's
    // residency change ring holds (8192 entries at this size), so the
    // round's first pick finds its cursor lapped and takes the fallback
    // that re-keys every touched server. It comes right after the round
    // reset, so the walks already start at the front there.
    let finished = burst(PolicyId::Gfair, 32, 9000, 2_000_000.0, 4);
    assert!(finished > 0, "no job finished");
}
