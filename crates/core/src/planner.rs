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
//!   weights it last received until it heals;
//! - **quiescence fast-forward** — [`RoundPlanner::probe`] checks each
//!   local scheduler's replay horizon and [`RoundPlanner::commit`] advances
//!   stride state analytically.
//!
//! ## Lazy settling (O(dirty-servers) planning)
//!
//! When no trace sink is attached (and `GfairConfig::lazy_planning` is on),
//! the planner switches to an incremental mode: instead of syncing and
//! re-planning every server every round, it keeps the last selection per
//! server (`cached_run`) and only *settles* — fast-forwards the lagging
//! stride state, syncs, re-plans — servers that provably need it:
//!
//! * servers whose residency changed since the last round, discovered from
//!   the sim index's bounded dirty ring ([`SimView::residency_dirty_since`]);
//! * servers hosting a job departing this round (their selection must
//!   exclude it, and they re-settle next round because the exclusion is
//!   synthetic);
//! * servers whose *quiescence span* expired: at each settle the planner
//!   asks the local scheduler how many future rounds reproduce the fresh
//!   selection verbatim ([`LocalScheduler::quiescent_rounds`], capped at
//!   [`QUIESCENT_SPAN`]) and records `valid_until = round + span` in an
//!   expiry queue. A cached selection is only ever reused strictly within
//!   its span, so the replay is byte-identical to per-round planning — the
//!   same differential guarantee quiescence fast-forward rests on, applied
//!   per server instead of per cluster.
//!
//! Weight refreshes settle every server (the same cost the eager path pays
//! every round), and an overflowed dirty ring falls back to a full settle.
//! The span cap also bounds each settle's catch-up fast-forward, so no
//! single round pays more than `O(span)` per touched server.
//!
//! The per-round bookkeeping is tree-free. The servers to settle and the
//! departing hosts are collected into reused vectors, deduplicated by a
//! per-server round stamp, and the settle list is sorted once so servers
//! still settle in id order. The expiry queue is a lazily invalidated
//! min-heap of `(valid_until, server)`: a re-settle pushes a fresh entry
//! and leaves the old one in place, and an entry counts only while it
//! equals the server's current `valid_until`. Stale entries are dropped
//! when they reach the top, and the heap is rebuilt from the per-server
//! spans once it grows past [`EXPIRY_SLACK`] entries per server.
//!
//! Traced runs keep the eager path: `RoundPlanned` records each user's
//! *current* minimum stride pass every round, and lazily-settled servers
//! hold passes that are intentionally stale between settles.

use crate::entitlement::Entitlements;
use crate::local::LocalScheduler;
use gfair_obs::{Phase, SharedObs};
use gfair_sim::SimView;
use gfair_types::{JobId, ServerId, UserId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Cap on the per-settle quiescence probe, and therefore on how far any
/// server's stride state may lag behind the current round. Stable servers
/// (one client, or none) re-settle only this often — an O(span) float
/// replay amortizing to O(1) per round — while contended servers break the
/// probe early and settle at their natural reorder cadence.
const QUIESCENT_SPAN: u64 = 4096;

/// Floor for a user's per-server stride weight. A user who traded away an
/// entire generation still gets a vanishing — but nonzero — weight there,
/// so stranded jobs cannot deadlock.
const MIN_WEIGHT: f64 = 1e-3;

/// Floor for the adaptive per-settle probe budget (see
/// [`RoundPlanner::plan_runs_lazy`]). The probe replays the stride scan
/// round by round, so probing the full [`QUIESCENT_SPAN`] on a server that
/// an arrival will dirty ten rounds later wastes the whole span's work; the
/// planner instead probes about twice the server's observed settle-to-settle
/// gap, clamped to `[QUIESCENT_MIN, QUIESCENT_SPAN]`, which grows
/// geometrically on quiet servers and stays small on churning ones.
const QUIESCENT_MIN: u64 = 16;

/// Entries the lazy expiry heap may hold per server before it is rebuilt
/// from the live spans. Every re-settle leaves one stale entry behind, so
/// the rebuild's O(servers) cost is paid at most once per
/// `(EXPIRY_SLACK - 1) × servers` settles.
const EXPIRY_SLACK: usize = 4;

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
    /// `local` on the weights its server plans on, then plan its selection.
    /// `refreshed` says whether the cache was rebuilt since the last round
    /// and `dropped` holds the servers whose stale snapshot was just
    /// dropped.
    fn sync_and_plan(
        &self,
        local: &mut LocalScheduler,
        view: &SimView<'_>,
        departing: &BTreeSet<JobId>,
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
    /// Whether this planner runs the lazy-settling path, decided once at the
    /// first [`plan_runs`](Self::plan_runs) call (config allows it and no
    /// trace sink is attached). `None` until then.
    lazy: Option<bool>,
    /// Rounds planned and committed so far (lazy mode only): `plan_runs`
    /// advances it by one, [`commit`](Self::commit) by the fast-forward span.
    cur_round: u64,
    /// Per-server `(settled_round, valid_until)` by `ServerId::index()`
    /// (lazy mode): the round the server's local state was last settled at,
    /// and the last round its cached selection is proven to reproduce.
    meta: Vec<(u64, u64)>,
    /// `(valid_until, server)` min-heap over `meta` — the next round any
    /// server *must* settle is one past the smallest live entry. An entry is
    /// live while it equals `meta[server].1`; stale ones are skipped when
    /// they surface and the top is always live between rounds.
    expiry: BinaryHeap<Reverse<(u64, ServerId)>>,
    /// Servers to settle this round (lazy mode), reused across rounds.
    to_settle: Vec<ServerId>,
    /// Hosts of this round's departing jobs (lazy mode), reused across
    /// rounds.
    departing_hosts: Vec<ServerId>,
    /// Per-server round stamps deduplicating `to_settle` and
    /// `departing_hosts`, by `ServerId::index()`: a server is listed in
    /// round `r` iff its stamp is `r`.
    settle_stamp: Vec<u64>,
    host_stamp: Vec<u64>,
    /// Consumed position in the sim index's residency dirty ring.
    dirty_cursor: u64,
    /// Last settled selection per server, nonempty selections only — the run
    /// map lazy rounds return.
    cached_run: BTreeMap<ServerId, Vec<JobId>>,
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
            // Lazy-settling state: every server starts unsettled (valid
            // through round 0), so the first planned round settles them all.
            let len = self.locals.len();
            self.meta = vec![(0, 0); len];
            self.settle_stamp = vec![0; len];
            self.host_stamp = vec![0; len];
            self.rebuild_expiry();
        }
    }

    /// True before [`ensure_init`](Self::ensure_init) (or on an empty
    /// cluster): there is nothing to plan or fast-forward.
    pub fn is_empty(&self) -> bool {
        self.locals.is_empty()
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

    /// Syncs local schedulers and collects the per-server run sets for this
    /// quantum, excluding `departing` jobs (ones this round's actions move
    /// or place). `refreshed` says whether the weight cache was rebuilt
    /// since the last call; `lazy_cfg` is `GfairConfig::lazy_planning`.
    ///
    /// Eager mode touches every server; lazy mode (see the module docs)
    /// settles only dirty, departing-host and span-expired servers and
    /// serves the rest from `cached_run`. Both modes produce byte-identical
    /// run maps: they run the same per-server step in server-id order, and a
    /// cached selection is only reused strictly within its proven
    /// quiescence span.
    pub fn plan_runs(
        &mut self,
        view: &SimView<'_>,
        departing: &BTreeSet<JobId>,
        refreshed: bool,
        lazy_cfg: bool,
        obs: &SharedObs,
    ) -> BTreeMap<ServerId, Vec<JobId>> {
        // Decide the mode once: traced runs need exact per-round stride
        // passes in `RoundPlanned`, so they keep the eager path.
        let lazy = *self.lazy.get_or_insert(lazy_cfg && !obs.tracing());
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
        if lazy {
            return self.plan_runs_lazy(view, departing, refreshed, &dropped, obs);
        }
        let mut run: BTreeMap<ServerId, Vec<JobId>> = BTreeMap::new();
        let locals = &mut self.locals;
        let weights = &self.weights;
        obs.time(Phase::GangPacking, || {
            for local in locals.iter_mut() {
                let selected = weights.sync_and_plan(local, view, departing, refreshed, &dropped);
                if !selected.is_empty() {
                    run.insert(local.server(), selected);
                }
            }
        });
        run
    }

    /// The lazy-settling round: drain the residency dirty ring, settle the
    /// union of dirty, weight-changed, departing-host and span-expired
    /// servers (every server on ring overflow), and return the cached run
    /// map. `refreshed` and `dropped` carry the weight-dirtiness inputs:
    /// generations whose refreshed vector really changed, and servers whose
    /// stale snapshot was just dropped.
    fn plan_runs_lazy(
        &mut self,
        view: &SimView<'_>,
        departing: &BTreeSet<JobId>,
        refreshed: bool,
        dropped: &BTreeSet<ServerId>,
        obs: &SharedObs,
    ) -> BTreeMap<ServerId, Vec<JobId>> {
        let r = self.cur_round + 1;
        self.cur_round = r;
        let mut settle_all = false;
        let mut to_settle = std::mem::take(&mut self.to_settle);
        to_settle.clear();
        let settle_stamp = &mut self.settle_stamp;
        let mut mark = |server: ServerId| {
            let stamp = &mut settle_stamp[server.index()];
            if *stamp != r {
                *stamp = r;
                to_settle.push(server);
            }
        };
        match view.residency_dirty_since(self.dirty_cursor) {
            Some(dirty) => dirty.for_each(&mut mark),
            None => settle_all = true,
        }
        self.dirty_cursor = view.residency_dirty_seq();
        // Weight-dirty servers: every server of a generation whose refreshed
        // weight vector actually changed, plus healed servers that just
        // dropped a stale snapshot. Refreshes that converge to bit-identical
        // vectors (the common case at steady state) dirty nothing here.
        let changed_gens = &self.weights.changed_gens;
        if refreshed && changed_gens.iter().any(|&c| c) {
            for s in &view.cluster().servers {
                if changed_gens.get(s.gen.index()).copied().unwrap_or(true) {
                    mark(s.id);
                }
            }
        }
        dropped.iter().copied().for_each(&mut mark);
        // Hosts of departing jobs must exclude them from this round's
        // selection. (A job being *placed* this round has no host yet; its
        // target server turns dirty once the action applies.)
        let mut departing_hosts = std::mem::take(&mut self.departing_hosts);
        departing_hosts.clear();
        for &j in departing {
            if let Some(server) = view.job(j).and_then(|info| info.server) {
                let stamp = &mut self.host_stamp[server.index()];
                if *stamp != r {
                    *stamp = r;
                    departing_hosts.push(server);
                    mark(server);
                }
            }
        }
        // Expired spans. Popping stale entries on the way is harmless: they
        // no longer count.
        while let Some(&Reverse((vu, server))) = self.expiry.peek() {
            if vu >= r {
                break;
            }
            self.expiry.pop();
            if self.meta[server.index()].1 == vu {
                mark(server);
            }
        }
        to_settle.sort_unstable();
        let locals = &mut self.locals;
        let meta = &mut self.meta;
        let expiry = &mut self.expiry;
        let cached = &mut self.cached_run;
        let weights = &self.weights;
        obs.time(Phase::GangPacking, || {
            // Catch the local state up to the previous round (the cached
            // selection replays verbatim across the lag by the quiescence
            // guarantee), re-derive, and re-probe the new span.
            let mut settle = |local: &mut LocalScheduler| {
                let server = local.server();
                let m = &mut meta[server.index()];
                let lag = (r - 1).saturating_sub(m.0);
                if lag > 0 {
                    local.fast_forward(lag);
                }
                let selected = weights.sync_and_plan(local, view, departing, refreshed, dropped);
                // Adaptive probe budget: ~2x the settle-to-settle gap (see
                // `QUIESCENT_MIN`). The budget only decides how far ahead
                // the replay guarantee is *sought*, never how it is used, so
                // any budget schedule yields byte-identical plans.
                let gap = r.saturating_sub(m.0).max(1);
                let cap = (gap.saturating_mul(2)).clamp(QUIESCENT_MIN, QUIESCENT_SPAN);
                let span = local.quiescent_rounds(&selected, cap);
                let vu = r + span;
                expiry.push(Reverse((vu, server)));
                *m = (r, vu);
                if selected.is_empty() {
                    cached.remove(&server);
                } else {
                    cached.insert(server, selected);
                }
            };
            if settle_all {
                locals.iter_mut().for_each(&mut settle);
            } else {
                for &server in &to_settle {
                    if let Some(local) = locals.get_mut(server.index()) {
                        settle(local);
                    }
                }
            }
            // A departing job's exclusion is synthetic: if the action is
            // skipped (raced a fault), the job stays resident without a
            // dirty mark, so its host's fresh span must not outlive this
            // round — force a re-settle next round.
            for &server in &departing_hosts {
                let m = &mut meta[server.index()];
                if m.1 > r {
                    expiry.push(Reverse((r, server)));
                    m.1 = r;
                }
            }
        });
        self.to_settle = to_settle;
        self.departing_hosts = departing_hosts;
        // Keep the top live so `probe` can read the minimum as is, and bound
        // the stale entries.
        while let Some(&Reverse((vu, server))) = self.expiry.peek() {
            if self.meta[server.index()].1 == vu {
                break;
            }
            self.expiry.pop();
        }
        if self.expiry.len() > EXPIRY_SLACK * self.meta.len() {
            self.rebuild_expiry();
        }
        #[cfg(debug_assertions)]
        {
            let heap_min = self.expiry.peek().map(|&Reverse((vu, _))| vu);
            let meta_min = self.meta.iter().map(|m| m.1).min();
            debug_assert_eq!(heap_min, meta_min, "expiry heap diverged from meta");
        }
        self.cached_run.clone()
    }

    /// Rebuilds the expiry heap from `meta`: one live entry per server.
    fn rebuild_expiry(&mut self) {
        self.expiry = (self.meta.iter().enumerate())
            .map(|(i, m)| Reverse((m.1, ServerId::new(i as u32))))
            .collect();
    }

    /// All-or-nothing fast-forward probe across servers: the replayable
    /// horizon is the minimum over every local scheduler's differential
    /// check against the cached plan (absent servers must reproduce an empty
    /// selection). Must not mutate state.
    ///
    /// Lazy mode answers from the expiry heap in O(1): every cached
    /// selection is proven through its `valid_until` round, so the whole
    /// cluster replays through the earliest one (the heap's top, which each
    /// lazy round leaves live).
    pub fn probe(&self, run: &BTreeMap<ServerId, Vec<JobId>>, k: u64) -> u64 {
        if self.lazy == Some(true) {
            debug_assert_eq!(run, &self.cached_run, "probe against a stale plan");
            let min_vu = self
                .expiry
                .peek()
                .map(|&Reverse((vu, _))| vu)
                .unwrap_or(u64::MAX);
            return k.min(min_vu.saturating_sub(self.cur_round));
        }
        let mut j = k;
        for local in &self.locals {
            let expected = run.get(&local.server()).map(Vec::as_slice).unwrap_or(&[]);
            j = j.min(local.quiescent_rounds(expected, k));
            if j == 0 {
                return 0;
            }
        }
        j
    }

    /// Advances stride state by `j` quanta in one analytic step. Lazy mode
    /// only advances the round counter — each server's state catches up at
    /// its next settle (the lag replay), and the probe guaranteed `j` stays
    /// within every span.
    pub fn commit(&mut self, j: u64) {
        if self.lazy == Some(true) {
            self.cur_round += j;
            return;
        }
        for local in &mut self.locals {
            local.fast_forward(j);
        }
    }

    /// Folds the best (lowest) stride pass per user across all servers into
    /// `min_pass`, indexed by `UserId::index()` (`None` for a user with no
    /// job on any server), for [`gfair_sim::ClusterScheduler::user_shares`]
    /// reporting. One sequential walk over every server's jobs, with no
    /// per-user or per-job search. The caller reuses the vector across
    /// rounds, so the fold does not allocate.
    pub fn fold_min_passes(&self, min_pass: &mut Vec<Option<f64>>) {
        min_pass.clear();
        for local in &self.locals {
            local.for_each_job_pass(|u, p| {
                let i = u.index();
                if min_pass.len() <= i {
                    min_pass.resize(i + 1, None);
                }
                match &mut min_pass[i] {
                    Some(m) if !p.total_cmp(m).is_lt() => {}
                    slot => *slot = Some(p),
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_obs::Obs;
    use gfair_sim::{Action, ClusterScheduler, RoundPlan, Simulation};
    use gfair_types::{ClusterSpec, JobSpec, ModelProfile, SimConfig, SimTime, UserSpec};
    use std::sync::Arc;

    /// Places job `j` on server `j` and plans every round through a lazy
    /// planner, checking the expiry heap after each round. With
    /// `depart_all`, every job is reported departing every round: each host
    /// settles with a fresh span and has it cut back to the current round,
    /// so the span it settled with stays behind as a stale entry *above*
    /// the live minimum. Otherwise the weights flip between two ticket
    /// splits every round: every server re-settles with a span one round
    /// later than its last, so the stale entries sit *below* the live ones
    /// and surface at the top.
    struct Churn {
        planner: RoundPlanner,
        obs: SharedObs,
        depart_all: bool,
        rounds: u64,
        max_len: usize,
    }

    impl ClusterScheduler for Churn {
        fn name(&self) -> &'static str {
            "expiry-churn"
        }

        fn on_job_arrival(&mut self, _view: &SimView<'_>, job: JobId) -> Vec<Action> {
            let server = ServerId::new(job.raw());
            vec![Action::Place { job, server }]
        }

        fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
            self.planner.ensure_init(view);
            let refresh = self.rounds == 0 || !self.depart_all;
            if refresh {
                let split = [
                    (UserId::new(0), 100 + self.rounds % 2 * 100),
                    (UserId::new(1), 100),
                ];
                let ent = Entitlements::base(&view.cluster().gpus_per_gen(), &split);
                self.planner.refresh_weights(view, &ent);
            }
            self.rounds += 1;
            let departing: BTreeSet<JobId> = if self.depart_all {
                view.active_jobs().map(|j| j.id).collect()
            } else {
                BTreeSet::new()
            };
            let run = (self.planner).plan_runs(view, &departing, refresh, true, &self.obs);
            let expiry = &self.planner.expiry;
            let bound = EXPIRY_SLACK * view.cluster().servers.len();
            assert!(
                expiry.len() <= bound,
                "heap holds {}, bound {bound}",
                expiry.len()
            );
            let Some(&Reverse((vu, server))) = expiry.peek() else {
                panic!("empty expiry heap");
            };
            assert_eq!(self.planner.meta[server.index()].1, vu, "stale top");
            self.max_len = self.max_len.max(expiry.len());
            RoundPlan {
                run,
                actions: Vec::new(),
            }
        }
    }

    /// Runs [`Churn`] on four single-job servers for six simulated hours.
    fn churn(depart_all: bool) -> Churn {
        let servers = 4;
        let model = Arc::new(ModelProfile::with_default_overheads("m", vec![1.0]));
        let trace = (0..servers)
            .map(|j| {
                let user = UserId::new(j % 2);
                JobSpec::new(
                    JobId::new(j),
                    user,
                    Arc::clone(&model),
                    1,
                    1e6,
                    SimTime::ZERO,
                )
            })
            .collect();
        let sim = Simulation::new(
            ClusterSpec::homogeneous(servers, 4),
            UserSpec::equal_users(2, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let mut churn = Churn {
            planner: RoundPlanner::new(),
            obs: Arc::new(Obs::new()),
            depart_all,
            rounds: 0,
            max_len: 0,
        };
        sim.run_until(&mut churn, SimTime::from_secs(6 * 3600))
            .unwrap();
        assert_eq!(churn.planner.lazy, Some(true));
        assert!(churn.rounds > 10 * QUIESCENT_MIN, "{} rounds", churn.rounds);
        churn
    }

    #[test]
    fn expiry_heap_compacts_within_its_bound() {
        // Each round leaves one stale entry per server that lives for
        // `QUIESCENT_MIN` rounds, more than the heap may hold: it must have
        // been rebuilt to stay within the bound checked every round.
        assert!(QUIESCENT_MIN as usize > EXPIRY_SLACK);
        let churn = churn(true);
        assert!(
            churn.max_len > (EXPIRY_SLACK - 1) * 4,
            "heap never approached its bound (max {})",
            churn.max_len
        );
    }

    #[test]
    fn expiry_heap_top_stays_live_when_spans_grow() {
        // Every round's settles leave the previous spans below the new ones;
        // the round must pop them so the top (what `probe` reads) is live.
        let churn = churn(false);
        assert!(
            churn.max_len <= 4,
            "stale entries kept: max {}",
            churn.max_len
        );
    }
}
