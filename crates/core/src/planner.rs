//! The shared round planner: per-server stride planning behind any policy.
//!
//! Every policy in the zoo produces the same *kind* of output — per-user
//! weights per GPU generation — and hands it to this planner, which owns the
//! per-server [`LocalScheduler`]s, the per-generation weight cache and the
//! stale-weight snapshots for unreachable servers. Because the planner is
//! shared, every policy inherits the same guarantees for free:
//!
//! - **byte-determinism** — servers are planned one after another in id
//!   order on the calling thread, and the eager and lazy paths run the same
//!   per-server step ([`WeightCache::sync_and_plan`]);
//! - **graceful degradation** — a partitioned server keeps planning on the
//!   weights it last received until it heals.
//!
//! ## Lazy settling (O(touched-servers) planning)
//!
//! With `GfairConfig::lazy_planning` on (the default, traced or not), the
//! planner runs in an incremental mode: instead of syncing and
//! re-planning every server every round, it only *settles* — fast-forwards
//! the lagging stride state, syncs, re-plans — servers whose selection may
//! differ from the run set the engine keeps for them
//! ([`SimView::run_set`]). Selections are in job-id order, so the invariant
//! is simple: a server that was uncontended at its last settle (every gang
//! fit at once, [`LocalScheduler::fits_all`]) runs all its jobs every round
//! and reproduces its last selection until something touches it. The
//! round's plan is then the changes-only form of [`RoundPlan`]: it lists
//! the servers settled this round, each with its new selection (an empty
//! one included), and the engine keeps running every other server's last
//! set. The eager path sends the full form. A round settles:
//!
//! * servers whose residency changed since the last round, discovered from
//!   the sim index's bounded dirty ring ([`SimView::residency_dirty_since`]),
//!   or every server when the ring overflowed;
//! * servers whose weights changed: those of generations whose refreshed
//!   weight vector moved, and those that just dropped a stale snapshot;
//! * hosts of jobs departing this round (their selection must exclude
//!   them) and of jobs that departed last round (the exclusion is
//!   synthetic: if the action was skipped, the job stays resident without
//!   a dirty mark);
//! * servers that were contended at their last settle: their selection
//!   rotates with the passes, so they settle every round.
//!
//! A settle first fast-forwards the server's stride state over the rounds
//! it skipped. Those rounds ran every job on an uncontended server, and
//! each client's pass and the global pass are independent accumulators, so
//! the catch-up is exact for any lag. The settle list is deduplicated by
//! sorting, so servers still settle in id order.
//!
//! Nothing the trace records depends on the mode: lazily settled servers
//! hold stride passes that are stale between settles, and no pass leaves
//! the planner. The eager path stays as the reference the equivalence
//! gates compare against.

use crate::entitlement::Entitlements;
use crate::local::LocalScheduler;
use gfair_obs::{Phase, SharedObs};
use gfair_sim::{RoundPlan, SimView};
use gfair_types::{JobId, ServerId, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// Floor for a user's per-server stride weight. A user who traded away an
/// entire generation still gets a vanishing — but nonzero — weight there,
/// so stranded jobs cannot deadlock.
const MIN_WEIGHT: f64 = 1e-3;

/// Weight of `u` in an id-sorted per-server weight vec, if present.
pub(crate) fn weight_lookup(weights: &[(UserId, f64)], u: UserId) -> Option<f64> {
    weights
        .binary_search_by_key(&u, |&(user, _)| user)
        .ok()
        .map(|i| weights[i].1)
}

/// The weights every server plans on, kept apart from the local schedulers
/// so a round can read them while it mutates the schedulers.
#[derive(Debug, Default)]
struct WeightCache {
    /// Per-generation stride weight vectors derived from the current
    /// entitlements, indexed by `GenId::index()` and id-sorted per vector
    /// (entitlements iterate users in id order). Weights depend only on a
    /// server's generation, so the cache is rebuilt once per entitlement
    /// refresh — a few vectors — instead of once per server per round.
    gen: Vec<Vec<(UserId, f64)>>,
    /// Weight snapshots for servers that were unreachable at an entitlement
    /// refresh: an unreachable server cannot receive updates, so its local
    /// scheduler keeps running on the last weights it was sent until it is
    /// reachable again (graceful degradation). Entries are dropped the
    /// moment the server is reachable again.
    stale: BTreeMap<ServerId, Vec<(UserId, f64)>>,
    /// Which generations' weight vectors actually changed at the last
    /// [`RoundPlanner::refresh_weights`], by `GenId::index()`. Entitlements
    /// are re-derived every epoch but usually converge to the exact same
    /// values, so a refresh round only needs to re-sync the servers of
    /// generations whose vector really moved — bit-identical weights make
    /// every downstream weight application a no-op.
    changed_gens: Vec<bool>,
}

impl WeightCache {
    /// One server's round step, shared by the eager and lazy paths: sync
    /// `local` on the weights its server plans on, excluding `departing`
    /// (this round's departing jobs hosted there, id-sorted), then plan its
    /// selection. `refreshed` says whether the cache was rebuilt since the
    /// last round and `dropped` holds the servers whose stale snapshot was
    /// just dropped.
    fn sync_and_plan(
        &self,
        local: &mut LocalScheduler,
        view: &SimView<'_>,
        departing: &[JobId],
        refreshed: bool,
        dropped: &BTreeSet<ServerId>,
    ) -> Vec<JobId> {
        let server = local.server();
        let gen = view.cluster().server(server).gen.index();
        // Its stale snapshot while unreachable, the live per-gen vector
        // otherwise.
        let weights = (self.stale.get(&server))
            .or_else(|| self.gen.get(gen))
            .map_or(&[][..], Vec::as_slice);
        // Whether the server's effective weights may differ from what its
        // local scheduler last applied. Unchanged (bit-identical) vectors
        // make the weight refresh inside `sync` a no-op, so such servers
        // keep their version-check fast path even on refresh rounds.
        let weight_dirty = (refreshed && self.changed_gens.get(gen).copied().unwrap_or(true))
            || dropped.contains(&server);
        local.sync(
            view,
            departing,
            |u| weight_lookup(weights, u).unwrap_or(MIN_WEIGHT),
            weight_dirty,
        );
        local.plan()
    }
}

/// Per-server stride planning shared by every policy behind the
/// [`crate::policy::AllocPolicy`] boundary.
#[derive(Debug, Default)]
pub(crate) struct RoundPlanner {
    /// One local scheduler per server, indexed by `ServerId::index()`
    /// (cluster server ids are dense indices).
    locals: Vec<LocalScheduler>,
    /// The weights each server plans on.
    weights: WeightCache,
    /// Rounds planned so far (lazy mode only).
    cur_round: u64,
    /// Per-server `(settled_round, contended)` by `ServerId::index()` (lazy
    /// mode): the round the server's local state was last settled at, and
    /// whether its gangs overcommitted it then.
    meta: Vec<(u64, bool)>,
    /// Servers that must settle next round (lazy mode): those contended at
    /// this round's settle and hosts of this round's departing jobs.
    recheck: Vec<ServerId>,
    /// Servers to settle this round (lazy mode), reused across rounds.
    to_settle: Vec<ServerId>,
    /// Consumed position in the sim index's residency dirty ring.
    dirty_cursor: u64,
    /// This round's departing jobs that have a host, as id-sorted
    /// `(host, job)` pairs, and the same jobs in that order, so each
    /// server's share is one slice (reused across rounds).
    departing_hosts: Vec<(ServerId, JobId)>,
    departing_jobs: Vec<JobId>,
}

impl RoundPlanner {
    /// Creates an empty planner; call [`ensure_init`](Self::ensure_init)
    /// before the first round.
    pub fn new() -> Self {
        RoundPlanner::default()
    }

    /// Lazily builds the local schedulers from the cluster.
    pub fn ensure_init(&mut self, view: &SimView<'_>) {
        if self.locals.is_empty() {
            self.locals = (view.cluster().servers.iter().enumerate())
                .map(|(i, s)| {
                    debug_assert_eq!(s.id.index(), i, "server ids are dense indices");
                    LocalScheduler::new(s.id, s.num_gpus)
                })
                .collect();
            // Lazy-settling state: the first planned round settles every
            // server.
            self.meta = vec![(0, false); self.locals.len()];
            self.recheck = self.locals.iter().map(LocalScheduler::server).collect();
        }
    }

    /// Jobs the local scheduler of `server` currently believes are resident,
    /// for post-partition reconciliation diffs.
    pub fn jobs_on(&self, server: ServerId) -> BTreeSet<JobId> {
        self.locals
            .get(server.index())
            .map(|l| l.jobs().collect())
            .unwrap_or_default()
    }

    /// Rebuilds the per-generation weight cache from fresh entitlements,
    /// first snapshotting the pre-refresh weights for servers that are
    /// unreachable right now (they keep planning on what they last
    /// received).
    pub fn refresh_weights(&mut self, view: &SimView<'_>, ent: &Entitlements) {
        // Servers that cannot be reached right now keep the weights they
        // last received: snapshot those (the pre-refresh per-gen vectors)
        // before rebuilding the cache, unless an earlier refresh already
        // recorded a snapshot for them.
        let cache = &mut self.weights;
        for s in &view.cluster().servers {
            if !view.is_reachable(s.id) {
                let live = &cache.gen;
                (cache.stale.entry(s.id))
                    .or_insert_with(|| live.get(s.gen.index()).cloned().unwrap_or_default());
            }
        }
        let num_gens = view.cluster().catalog.ids().count();
        let mut gen_weights = vec![Vec::new(); num_gens];
        for gen in view.cluster().catalog.ids() {
            gen_weights[gen.index()] = ent
                .users()
                .map(|u| (u, ent.get(u, gen).max(MIN_WEIGHT)))
                .collect();
        }
        cache.changed_gens = gen_weights
            .iter()
            .enumerate()
            .map(|(i, w)| cache.gen.get(i) != Some(w))
            .collect();
        cache.gen = gen_weights;
    }

    /// Syncs local schedulers and plans this quantum's per-server run sets,
    /// excluding `departing` jobs (ones this round's actions move or
    /// place). `refreshed` says whether the weight cache was rebuilt since
    /// the last call; `lazy` is `GfairConfig::lazy_planning`, the same on
    /// every call of a run. The plan carries no actions.
    ///
    /// Eager mode touches every server and returns the full form; lazy mode
    /// (see the module docs) settles only the servers whose selection may
    /// have changed and returns the changes-only form, listing exactly
    /// those. Both leave the engine running the same sets: they run the
    /// same per-server step in server-id order, and a server is left out
    /// only while it runs all its jobs every round.
    pub fn plan_runs(
        &mut self,
        view: &SimView<'_>,
        departing: &BTreeSet<JobId>,
        refreshed: bool,
        lazy: bool,
        obs: &SharedObs,
    ) -> RoundPlan {
        // A reachable server always plans on the current per-gen weights;
        // any stale snapshot it held while unreachable is dropped the round
        // it comes back (entitlements are re-refreshed on heal, so it
        // converges to the live economy immediately). A dropped snapshot
        // changes that server's effective weights, so that server counts as
        // weight-dirty just like one whose generation vector moved.
        let mut dropped: BTreeSet<ServerId> = BTreeSet::new();
        self.weights.stale.retain(|s, _| {
            let keep = !view.is_reachable(*s);
            if !keep {
                dropped.insert(*s);
            }
            keep
        });
        // Group departing jobs by host. A job being *placed* this round has
        // no host yet; its target server turns dirty once the action
        // applies.
        let hosts = &mut self.departing_hosts;
        hosts.clear();
        hosts.extend((departing.iter()).filter_map(|&j| Some((view.job(j)?.server?, j))));
        hosts.sort_unstable();
        self.departing_jobs.clear();
        (self.departing_jobs).extend(hosts.iter().map(|&(_, j)| j));
        if lazy {
            return self.plan_runs_lazy(view, refreshed, &dropped, obs);
        }
        let mut run: BTreeMap<ServerId, Vec<JobId>> = BTreeMap::new();
        let (hosts, jobs) = (&self.departing_hosts, &self.departing_jobs);
        let locals = &mut self.locals;
        let weights = &self.weights;
        obs.time(Phase::GangPacking, || {
            for local in locals.iter_mut() {
                let server = local.server();
                let here = departing_on(hosts, jobs, server);
                let selected = weights.sync_and_plan(local, view, here, refreshed, &dropped);
                if !selected.is_empty() {
                    run.insert(server, selected);
                }
            }
        });
        RoundPlan {
            run,
            ..RoundPlan::default()
        }
    }

    /// The lazy-settling round: settle the servers the module docs list
    /// and return their selections as a changes-only plan. `refreshed` and
    /// `dropped` carry the weight-dirtiness inputs: generations whose
    /// refreshed vector really changed, and servers whose stale snapshot
    /// was just dropped.
    fn plan_runs_lazy(
        &mut self,
        view: &SimView<'_>,
        refreshed: bool,
        dropped: &BTreeSet<ServerId>,
        obs: &SharedObs,
    ) -> RoundPlan {
        let r = self.cur_round + 1;
        self.cur_round = r;
        let mut to_settle = std::mem::take(&mut self.to_settle);
        to_settle.clear();
        to_settle.append(&mut self.recheck);
        match view.residency_dirty_since(self.dirty_cursor) {
            Some(dirty) => to_settle.extend(dirty),
            None => to_settle.extend(view.cluster().servers.iter().map(|s| s.id)),
        }
        self.dirty_cursor = view.residency_dirty_seq();
        // Weight-dirty servers. Refreshes that converge to bit-identical
        // vectors (the common case at steady state) dirty nothing here.
        let changed_gens = &self.weights.changed_gens;
        if refreshed && changed_gens.iter().any(|&c| c) {
            to_settle.extend(
                (view.cluster().servers.iter())
                    .filter(|s| changed_gens.get(s.gen.index()).copied().unwrap_or(true))
                    .map(|s| s.id),
            );
        }
        to_settle.extend(dropped.iter().copied());
        // Hosts of departing jobs settle now and again next round.
        let (hosts, jobs) = (&self.departing_hosts, &self.departing_jobs);
        let recheck = &mut self.recheck;
        for &(server, _) in hosts {
            to_settle.push(server);
            recheck.push(server);
        }
        to_settle.sort_unstable();
        to_settle.dedup();
        let mut run: BTreeMap<ServerId, Vec<JobId>> = BTreeMap::new();
        let locals = &mut self.locals;
        let meta = &mut self.meta;
        let weights = &self.weights;
        obs.time(Phase::GangPacking, || {
            for &server in &to_settle {
                let (local, m) = (&mut locals[server.index()], &mut meta[server.index()]);
                // Catch up to the previous round: a server skipped since
                // its last settle ran every job in each round it skipped.
                let lag = (r - 1) - m.0;
                if lag > 0 {
                    local.fast_forward(lag);
                }
                let here = departing_on(hosts, jobs, server);
                let selected = weights.sync_and_plan(local, view, here, refreshed, dropped);
                *m = (r, !local.fits_all());
                if m.1 {
                    recheck.push(server);
                }
                run.insert(server, selected);
            }
        });
        self.to_settle = to_settle;
        // Oracle for the invariant: every server left unsettled holds its
        // resident jobs and the engine runs all of them, in id order, every
        // round.
        #[cfg(debug_assertions)]
        for (local, &(settled, contended)) in self.locals.iter().zip(&self.meta) {
            if settled < r {
                let server = local.server();
                assert!(!contended, "{server} is contended but was left unsettled");
                let jobs: Vec<JobId> = local.jobs().collect();
                let mut resident: Vec<JobId> = view.resident(server).collect();
                resident.sort_unstable();
                assert_eq!(
                    jobs, resident,
                    "{server} was left unsettled off its residency"
                );
                assert_eq!(view.run_set(server), jobs, "{server}'s run set is stale");
            }
        }
        RoundPlan {
            run,
            changes_only: true,
            ..RoundPlan::default()
        }
    }
}

/// `server`'s share of this round's departing jobs: the slice of `jobs`
/// whose pair in `hosts` (sorted, parallel to `jobs`) names it.
fn departing_on<'a>(
    hosts: &[(ServerId, JobId)],
    jobs: &'a [JobId],
    server: ServerId,
) -> &'a [JobId] {
    if hosts.is_empty() {
        return &[];
    }
    let lo = hosts.partition_point(|&(s, _)| s < server);
    let hi = lo + hosts[lo..].partition_point(|&(s, _)| s == server);
    &jobs[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_obs::Obs;
    use gfair_sim::{Action, ClusterScheduler, RoundPlan, Simulation};
    use gfair_types::{ClusterSpec, JobSpec, ModelProfile, SimConfig, SimTime, UserSpec};
    use std::sync::Arc;

    /// Places each job on the server its spec names and plans every round
    /// through a lazy planner, logging each round's engine run sets, the
    /// per-server `(settled_round, contended)` and the servers the plan
    /// listed. With `flip`, user 0's
    /// tickets double every other round, so every server's weights change
    /// every round.
    struct Lazy {
        planner: RoundPlanner,
        obs: SharedObs,
        hosts: Vec<ServerId>,
        tickets: Vec<u64>,
        flip: bool,
        log: Vec<Logged>,
    }

    /// One round of [`Lazy`]'s log: the engine's run sets as the round
    /// starts (what earlier plans installed), the planner's `meta` after
    /// planning, then the servers the changes-only plan listed.
    type Logged = (Vec<Vec<JobId>>, Vec<(u64, bool)>, Vec<ServerId>);

    impl ClusterScheduler for Lazy {
        fn name(&self) -> &'static str {
            "lazy-planner"
        }

        fn on_job_arrival(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
            let server = self.hosts[job.index()];
            vec![Action::Place { job, server }]
        }

        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            self.planner.ensure_init(view);
            let servers = view.cluster().servers.iter();
            let sets = servers.map(|s| view.run_set(s.id).to_vec()).collect();
            let round = self.log.len() as u64;
            let refresh = round == 0 || self.flip;
            if refresh {
                let split: Vec<(UserId, u64)> = (self.tickets.iter().enumerate())
                    .map(|(u, &t)| {
                        (
                            UserId::new(u as u32),
                            t << (u == 0 && round % 2 == 1) as u32,
                        )
                    })
                    .collect();
                let ent = Entitlements::base(&view.cluster().gpus_per_gen(), &split);
                self.planner.refresh_weights(view, &ent);
            }
            let plan = (self.planner).plan_runs(view, &BTreeSet::new(), refresh, true, &self.obs);
            assert!(
                plan.changes_only,
                "a lazy round sends the changes-only form"
            );
            let listed = plan.run.keys().copied().collect();
            self.log.push((sets, self.planner.meta.clone(), listed));
            plan
        }
    }

    /// Runs `jobs`, each `(user, gang width, service seconds, server)`, on
    /// three 8-GPU servers for two simulated hours, users holding
    /// `tickets`, with a JSONL sink on the shared pipeline when `traced`.
    fn run(jobs: &[(u32, u32, f64, u32)], tickets: &[u64], flip: bool, traced: bool) -> Lazy {
        let model = Arc::new(ModelProfile::with_default_overheads("m", vec![1.0]));
        let trace = (jobs.iter().enumerate())
            .map(|(j, &(user, width, service, _))| {
                let (job, user) = (JobId::new(j as u32), UserId::new(user));
                JobSpec::new(job, user, Arc::clone(&model), width, service, SimTime::ZERO)
            })
            .collect();
        let obs: SharedObs = Arc::new(Obs::new());
        let path = std::env::temp_dir().join(format!(
            "gfair-planner-lazy-{flip}-{traced}-{}.jsonl",
            std::process::id()
        ));
        if traced {
            obs.jsonl(&path).expect("trace file");
        }
        let users = UserSpec::equal_users(tickets.len() as u32, 100);
        let sim = Simulation::new(
            ClusterSpec::homogeneous(3, 8),
            users,
            trace,
            SimConfig::default(),
        )
        .unwrap()
        .with_obs(Arc::clone(&obs));
        let mut lazy = Lazy {
            planner: RoundPlanner::new(),
            obs,
            hosts: jobs.iter().map(|j| ServerId::new(j.3)).collect(),
            tickets: tickets.to_vec(),
            flip,
            log: Vec::new(),
        };
        sim.run_until(&mut lazy, SimTime::from_secs(2 * 3600))
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(lazy.obs.tracing(), traced);
        assert_eq!(lazy.planner.cur_round, lazy.log.len() as u64);
        lazy
    }

    #[test]
    fn uncontended_servers_settle_once_until_touched() {
        // Server 0 holds gangs of 1, 4 and 3 GPUs of users with 100, 300
        // and 200 tickets: all fit its 8 GPUs, and their passes start in
        // the order 1, 2, 0 and cross within the first rounds. Job 0
        // finishes after about an hour, touching the server once. Server 1
        // holds two 5-GPU gangs that cannot run together; server 2 is idle.
        let jobs = [
            (0, 1, 3000.0, 0),
            (1, 4, 1e6, 0),
            (2, 3, 1e6, 0),
            (0, 5, 1e6, 1),
            (1, 5, 1e6, 1),
        ];
        let lazy = run(&jobs, &[100, 300, 200], false, false);
        let (s0, s1, s2) = (ServerId::new(0), ServerId::new(1), ServerId::new(2));
        let mut settles = BTreeSet::new();
        let mut finished = false;
        // Round i's plan shows in the engine's sets as round i + 1 starts.
        let next_sets = lazy.log.iter().skip(1).map(|l| &l.0);
        for (i, ((_, meta, listed), run)) in lazy.log.iter().zip(next_sets).enumerate() {
            let round = i as u64 + 1;
            settles.insert(meta[0].0);
            assert!(!meta[0].1, "round {round}: server 0 flagged contended");
            let ids: Vec<u32> = run[s0.index()].iter().map(|j| j.raw()).collect();
            finished |= ids == [1, 2];
            let want: &[u32] = if finished { &[1, 2] } else { &[0, 1, 2] };
            assert_eq!(ids, want, "round {round}: server 0's run");
            assert_eq!(meta[1], (round, true), "round {round}: server 1");
            assert_eq!(
                run[s1.index()].len(),
                1,
                "round {round}: server 1 runs one gang"
            );
            assert_eq!(meta[2].0, 1, "round {round}: the idle server re-settled");
            assert!(run[s2.index()].is_empty());
            // The plan lists exactly the servers settled this round: all
            // three in the first round, the contended server 1 every round,
            // server 0 again only when job 0 finished.
            let settled: Vec<ServerId> = (meta.iter().enumerate())
                .filter(|(_, &(at, _))| at == round)
                .map(|(s, _)| ServerId::new(s as u32))
                .collect();
            assert_eq!(listed, &settled, "round {round}: the plan's servers");
            assert!(listed.contains(&s1), "round {round}: server 1 not listed");
        }
        assert!(finished, "job 0 never finished");
        assert!(lazy.log.len() > 100, "{} rounds", lazy.log.len());
        // The first round and the round job 0 finished: nothing else.
        assert_eq!(settles.len(), 2, "server 0 settled in rounds {settles:?}");
    }

    #[test]
    fn traced_runs_settle_lazily() {
        // A trace sink does not change the planning mode: the lazy
        // bookkeeping runs every round, and weights that change every round
        // settle every server every round.
        let jobs = [(0, 1, 1e6, 0), (1, 2, 1e6, 1)];
        let lazy = run(&jobs, &[100, 100], true, true);
        for (i, (_, meta, _)) in lazy.log.iter().enumerate() {
            let round = i as u64 + 1;
            assert!(
                meta.iter().all(|&(settled, _)| settled == round),
                "round {round}: {meta:?}"
            );
        }
    }
}
