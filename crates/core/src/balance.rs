//! Migration-based load balancing.
//!
//! Time slicing is enforced per server, so cluster-wide fairness needs
//! servers to carry comparable load — and trading only changes *numbers*
//! until jobs actually move to the generations their owners now own. The
//! balancer runs periodically and plans up to
//! [`gfair_types::SimConfig::max_migrations_per_tick`] migrations, in four
//! passes:
//!
//! 1. **Profiling migrations** — move one job of a model that lacks rate
//!    estimates on some generation to a server of that generation, so the
//!    profiler can learn the speedups trading needs. (Transparent
//!    profiling-by-migration, as in the paper.)
//! 2. **Entitlement realization** — users consuming more of a generation
//!    than their (post-trade) entitlement have jobs moved toward the
//!    generations where they hold unused entitlement, biggest jobs first.
//! 3. **Fairness spreading** — within a generation, a user whose jobs are
//!    concentrated on few servers cannot consume their share there (local
//!    stride divides each server among the users *present* on it); their
//!    surplus jobs move toward servers where they are under-represented.
//! 4. **Load spreading** — within each generation, move the biggest
//!    eligible job from the most- to the least-loaded server while the
//!    spread exceeds `LOAD_SPREAD` and the move strictly helps.
//!
//! Every pass honors the per-job migration cooldown and never plans two
//! moves for the same job in one tick.
//!
//! During a network partition the balancer degrades gracefully: partitioned
//! servers are excluded both as migration targets (a restore request cannot
//! be delivered) and as sources (jobs there cannot be checkpointed), so
//! balancing continues among the reachable remainder of the cluster.

use crate::entitlement::Entitlements;
use crate::placement::{load_order, score, ChoiceWhy, TIE_BREAK_LOAD};
use crate::profiler::Profiler;
use gfair_obs::{Candidate, Obs, Phase};
use gfair_sim::{Action, JobInfo, SimView};
use gfair_types::{GenId, JobId, ModelId, ServerId, SimTime, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// Load-spread threshold of pass 4: a generation is rebalanced only while
/// its most- and least-loaded servers differ by more than this.
const LOAD_SPREAD: f64 = 0.25;

/// One planned migration and the numbers that chose it. Kept for every
/// move; rendered into a `migration` decision only for a trace sink.
#[derive(Clone, Copy)]
struct Move {
    job: JobId,
    user: UserId,
    gang: u32,
    from: ServerId,
    to: ServerId,
    reason: Reason,
}

/// Which pass chose a [`Move`], with what it weighed.
#[derive(Clone, Copy)]
enum Reason {
    /// Passes 1 (`profiling`) and 2 (`realization`): the least-loaded
    /// reachable server of the generation that fits the job.
    Target(&'static str, GenId),
    /// Pass 3: the user's excess on the source and deficit on the target,
    /// among `servers` reachable servers of the generation.
    FairnessSpread {
        excess: f64,
        deficit: f64,
        servers: u32,
    },
    /// Pass 4: the source's (most) and target's (least) load, among
    /// `servers` reachable servers of the generation.
    LoadSpread { hi: f64, lo: f64, servers: u32 },
}

/// Plans this tick's migrations. Pure with respect to the view: the caller
/// applies the returned actions through the simulator.
pub fn plan_migrations(view: &SimView<'_>, ent: &Entitlements, profiler: &Profiler) -> Vec<Action> {
    actions(&plan(view, ent, profiler))
}

/// Runs the four passes.
fn plan(view: &SimView<'_>, ent: &Entitlements, profiler: &Profiler) -> Vec<Move> {
    let mut planner = Planner::new(view);
    planner.profiling_pass(profiler);
    planner.realization_pass(ent);
    planner.fairness_pass(ent);
    planner.spreading_pass();
    planner.moves
}

/// The moves as engine actions, in plan order.
fn actions(moves: &[Move]) -> Vec<Action> {
    (moves.iter())
        .map(|m| Action::Migrate {
            job: m.job,
            to: m.to,
        })
        .collect()
}

/// Observed [`plan_migrations`]: the whole search (all passes) is timed as
/// one [`Phase::MigrationSearch`] span, and with a trace sink every planned
/// move is emitted as a `migration` [`gfair_obs::TraceEvent::Decision`]
/// naming the pass that chose it and the alternatives it weighed. The
/// resulting `Migration` trace events are emitted by the engine when the
/// moves are actually applied.
pub fn plan_migrations_traced(
    obs: &Obs,
    view: &SimView<'_>,
    ent: &Entitlements,
    profiler: &Profiler,
) -> Vec<Action> {
    let moves = obs.time(Phase::MigrationSearch, || plan(view, ent, profiler));
    if obs.tracing() {
        explain(obs, view, &moves);
    }
    actions(&moves)
}

/// Emits one `migration` decision per move. The moves' load deltas are
/// replayed in plan order, so each target is scored under the loads it was
/// chosen at.
fn explain(obs: &Obs, view: &SimView<'_>, moves: &[Move]) {
    let mut replay = Planner::new(view);
    for m in moves {
        let (pass, tie_break, considered, candidates) = match m.reason {
            Reason::Target(pass, gen) => {
                let scored = score(view.reachable_servers_of_gen(gen), m.gang, |s| {
                    replay.load(s)
                });
                debug_assert_eq!(scored.best(), Some(m.to), "replayed {pass} target");
                (pass, TIE_BREAK_LOAD, scored.considered, scored.candidates())
            }
            Reason::FairnessSpread {
                excess,
                deficit,
                servers,
            } => (
                "fairness-spread",
                "largest per-server excess vs. deficit",
                servers,
                endpoints(
                    m,
                    "over-represented on",
                    excess,
                    "under-represented on",
                    deficit,
                ),
            ),
            Reason::LoadSpread { hi, lo, servers } => (
                "load-spread",
                "biggest eligible job, most- to least-loaded server",
                servers,
                endpoints(m, "most loaded", hi, "least loaded", lo),
            ),
        };
        let why = ChoiceWhy {
            chosen: format!(
                "server:{} -> server:{} ({pass} pass)",
                m.from.index(),
                m.to.index()
            ),
            tie_break,
            considered,
            candidates,
            rejected: Vec::new(),
        };
        obs.emit(why.event(view.now(), "migration", m.job, m.user));
        replay.shift(m);
    }
}

/// A spreading move's two candidates: its source and its target, each
/// labelled `<what> server:<id>` and scored.
fn endpoints(m: &Move, src: &str, src_score: f64, dst: &str, dst_score: f64) -> Vec<Candidate> {
    vec![
        Candidate {
            label: format!("{src} server:{}", m.from.index()),
            score: src_score,
        },
        Candidate {
            label: format!("{dst} server:{}", m.to.index()),
            score: dst_score,
        },
    ]
}

/// Working state for one balancing tick.
struct Planner<'a, 'v> {
    view: &'a SimView<'v>,
    now: SimTime,
    budget: u32,
    /// Jobs already scheduled to move this tick.
    moved: BTreeSet<JobId>,
    /// Per-server GPU-demand delta from the moves planned so far, overlaid
    /// on the view's live residency demand. Only touched servers carry an
    /// entry, so a tick starts O(1) instead of snapshotting every server.
    delta: BTreeMap<ServerId, i64>,
    moves: Vec<Move>,
}

impl<'a, 'v> Planner<'a, 'v> {
    fn new(view: &'a SimView<'v>) -> Self {
        Planner {
            view,
            now: view.now(),
            budget: view.config().max_migrations_per_tick,
            moved: BTreeSet::new(),
            delta: BTreeMap::new(),
            moves: Vec::new(),
        }
    }

    /// Projected GPU demand of a server after the moves planned so far.
    fn projected_demand(&self, server: ServerId) -> i64 {
        self.view.resident_demand(server) as i64 + self.delta.get(&server).copied().unwrap_or(0)
    }

    /// Projected load of a server (demand after planned moves / GPUs).
    fn load(&self, server: ServerId) -> f64 {
        let gpus = self.view.cluster().server(server).num_gpus;
        self.projected_demand(server) as f64 / gpus as f64
    }

    /// Whether a job may move this tick. A job on a partitioned server is
    /// frozen: the checkpoint request cannot be delivered, so the balancer
    /// leaves it alone until the partition heals.
    fn eligible(&self, job: &JobInfo) -> bool {
        if self.moved.contains(&job.id) || !job.state.is_schedulable() {
            return false;
        }
        if let Some(server) = job.server {
            if !self.view.is_reachable(server) {
                return false;
            }
        }
        match job.last_migration {
            Some(t) => t + self.view.config().migration_cooldown <= self.now,
            None => true,
        }
    }

    /// Extreme reachable server of `gen` able to host `gang` under the
    /// `(projected load ⟨total_cmp⟩, server id)` total order — the minimum
    /// (`most == false`, a migration target) or the maximum (`most == true`,
    /// a spreading source).
    ///
    /// Reads the sim's load index instead of scanning the generation: a
    /// server no planned move has touched carries no `delta` entry, so its
    /// projected load *is* its index key and the ordered walk can stop at
    /// the first fitting entry. Only the handful of delta-touched servers
    /// are then re-scored live. Selection is exactly the full scan's:
    /// untouched extreme vs. touched extremes under the same total order.
    fn extreme_in_gen(&self, gen: GenId, gang: u32, most: bool) -> Option<ServerId> {
        let view = self.view;
        let untouched = |s: &ServerId| {
            !self.delta.contains_key(s)
                && view.is_reachable(*s)
                && view.cluster().server(*s).num_gpus >= gang
        };
        let mut best: Option<(f64, ServerId)> = if most {
            view.servers_by_load(gen).rev().find(untouched)
        } else {
            view.servers_by_load(gen).find(untouched)
        }
        .map(|s| (self.load(s), s));
        for &s in self.delta.keys() {
            let spec = view.cluster().server(s);
            if spec.gen != gen || !view.is_reachable(s) || spec.num_gpus < gang {
                continue;
            }
            let pair = (self.load(s), s);
            let better = best.is_none_or(|b| {
                let ord = load_order(&pair, &b);
                if most {
                    ord.is_gt()
                } else {
                    ord.is_lt()
                }
            });
            if better {
                best = Some(pair);
            }
        }
        best.map(|(_, s)| s)
    }

    /// Least-loaded reachable server of `gen` that can host `gang`: a
    /// migration target. In debug builds checked against [`score`] over the
    /// generation's reachable servers.
    fn target(&self, gen: GenId, gang: u32) -> Option<ServerId> {
        let to = self.extreme_in_gen(gen, gang, false);
        debug_assert_eq!(
            to,
            score(self.view.reachable_servers_of_gen(gen), gang, |s| self
                .load(s))
            .best(),
            "balancer target diverged from the scorer over gen:{}",
            gen.index()
        );
        to
    }

    /// Most-loaded reachable server of `gen`: a spreading source. In debug
    /// builds checked against a full scan of the generation's reachable
    /// servers for the maximum under [`load_order`].
    fn source(&self, gen: GenId) -> Option<ServerId> {
        let from = self.extreme_in_gen(gen, 0, true);
        debug_assert_eq!(
            from,
            (self.view.reachable_servers_of_gen(gen))
                .map(|s| (self.load(s.id), s.id))
                .max_by(load_order)
                .map(|(_, s)| s),
            "balancer source diverged from the full scan over gen:{}",
            gen.index()
        );
        from
    }

    /// Applies a move's demand shift to the load projection.
    fn shift(&mut self, m: &Move) {
        *self.delta.entry(m.from).or_insert(0) -= m.gang as i64;
        *self.delta.entry(m.to).or_insert(0) += m.gang as i64;
    }

    /// Commits a planned move.
    fn push_move(&mut self, job: &JobInfo, to: ServerId, reason: Reason) {
        let m = Move {
            job: job.id,
            user: job.user,
            gang: job.gang,
            from: job.server.expect("resident job has a server"),
            to,
            reason,
        };
        self.shift(&m);
        self.moved.insert(job.id);
        self.budget -= 1;
        self.moves.push(m);
    }

    /// Pass 1: send jobs of unprofiled models to the generations the
    /// profiler is missing (at most two per tick — profiling is background
    /// work, not the main event).
    ///
    /// Walks the index's model → active-jobs map, so a model's missing
    /// generations are computed once per model instead of once per job and
    /// fully-profiled models (the steady state) cost one lookup each.
    /// The index's model → active-jobs map narrows the scan to jobs of
    /// still-unprofiled models: in the steady state (every model profiled)
    /// the pass costs one profiler lookup per active model and returns
    /// before touching any job. The candidate jobs are visited in id order,
    /// exactly as the former full active-job scan did.
    fn profiling_pass(&mut self, profiler: &Profiler) {
        let view = self.view;
        let mut missing_by_model: BTreeMap<ModelId, Vec<GenId>> = BTreeMap::new();
        let mut probe_jobs: BTreeSet<JobId> = BTreeSet::new();
        for (model, jobs) in view.active_models() {
            let unprofiled = profiler.unprofiled_gens(model);
            if !unprofiled.is_empty() {
                missing_by_model.insert(model, unprofiled);
                probe_jobs.extend(jobs.iter());
            }
        }
        if missing_by_model.is_empty() {
            return;
        }
        let mut sent_models: BTreeSet<ModelId> = BTreeSet::new();
        let mut sent = 0u32;
        for &id in &probe_jobs {
            if self.budget == 0 || sent >= 2 {
                return;
            }
            let Some(job) = view.job(id) else {
                continue;
            };
            if !self.eligible(job) || sent_models.contains(&job.model_id) {
                continue;
            }
            let Some(cur_server) = job.server else {
                continue;
            };
            let cur_gen = view.cluster().server(cur_server).gen;
            // Only consider gens this job could actually run on, and prefer
            // the fastest unprofiled one (most valuable information).
            let unprofiled = &missing_by_model[&job.model_id];
            let Some(&gen) = unprofiled.iter().rfind(|&&g| g != cur_gen) else {
                continue;
            };
            if let Some(to) = self.target(gen, job.gang) {
                sent_models.insert(job.model_id);
                self.push_move(job, to, Reason::Target("profiling", gen));
                sent += 1;
            }
        }
    }

    /// Pass 2: realize entitlements — move jobs of over-consuming users
    /// from generations where they exceed their allocation toward
    /// generations where they have slack, biggest jobs first.
    fn realization_pass(&mut self, ent: &Entitlements) {
        // Per (user, gen) GPUs consumed by placed jobs: read straight from
        // the engine's materialized index (exact integer sums) instead of
        // re-summing every active job each tick.
        let num_gens = ent.num_gens();
        let users: Vec<gfair_types::UserId> = ent.users().collect();
        for user in users {
            if self.budget == 0 {
                return;
            }
            // Find this user's most-overused and most-underused generation.
            let mut over: Option<(GenId, f64)> = None;
            let mut under: Option<(GenId, f64)> = None;
            for g in 0..num_gens {
                let gen = GenId::new(g as u32);
                let u = self.view.user_gen_assigned(user, gen) as f64;
                let a = ent.get(user, gen);
                let excess = u - a;
                if excess > 1.0 && over.map(|(_, e)| excess > e).unwrap_or(true) {
                    over = Some((gen, excess));
                }
                let slack = a - u;
                if slack > 1.0 && under.map(|(_, s)| slack > s).unwrap_or(true) {
                    under = Some((gen, slack));
                }
            }
            let (Some((over_gen, excess)), Some((under_gen, slack))) = (over, under) else {
                continue;
            };
            // Biggest eligible job that fits the imbalance on both sides.
            let limit = excess.min(slack) + 1.0;
            let candidate = self
                .view
                .jobs_of_user(user)
                .filter(|j| self.eligible(j))
                .filter(|j| {
                    j.server
                        .map(|s| self.view.cluster().server(s).gen == over_gen)
                        .unwrap_or(false)
                })
                .filter(|j| (j.gang as f64) <= limit)
                .max_by_key(|j| (j.gang, std::cmp::Reverse(j.id)));
            if let Some(job) = candidate {
                if let Some(to) = self.target(under_gen, job.gang) {
                    self.push_move(job, to, Reason::Target("realization", under_gen));
                }
            }
        }
    }

    /// Pass 3: spread each user's jobs across the servers of a generation
    /// in proportion to server size, so every user can actually consume
    /// their per-server stride share. Without this, a user whose jobs are
    /// piled on one server (e.g. after a failure re-placement burst) is
    /// capped at that server's split even though they own cluster-wide
    /// share.
    fn fairness_pass(&mut self, ent: &Entitlements) {
        let gens: Vec<GenId> = self.view.cluster().catalog.ids().collect();
        let users: Vec<gfair_types::UserId> = ent.users().collect();
        // Per-user placed demand — by server and totaled by generation —
        // comes from the engine's materialized index (exact integer sums),
        // so the pass never scans the active-job list.
        for gen in gens {
            if self.budget == 0 {
                return;
            }
            let servers: Vec<(ServerId, u32)> = self
                .view
                .reachable_servers_of_gen(gen)
                .map(|s| (s.id, s.num_gpus))
                .collect();
            if servers.len() < 2 {
                continue;
            }
            let gen_gpus: u32 = servers.iter().map(|&(_, g)| g).sum();
            // Size-ranked server list for the absence probe below: a server
            // the user is absent from has deficit proportional to its size,
            // so the best such candidate is the first entry of this list
            // (biggest, then lowest-id) the user has nothing placed on.
            let mut by_size: Vec<(ServerId, u32)> = servers.clone();
            by_size.sort_by_key(|&(s, g)| (std::cmp::Reverse(g), s));
            for &user in &users {
                if self.budget == 0 {
                    return;
                }
                // The user's entitlement on this generation, spread over its
                // servers in proportion to server size.
                let alloc = ent.get(user, gen);
                if alloc <= 0.0 {
                    continue;
                }
                // This user's placed demand on this generation.
                let total = self.view.user_gen_assigned(user, gen) as f64;
                if total <= 0.0 {
                    continue;
                }
                // A user cannot spread more demand than they have; target
                // per-server presence proportional to server size, capped by
                // total demand.
                let spreadable = total.min(alloc);
                // Folding every server of the generation collapses to two
                // sparse walks: servers the user is present on (the
                // per-user index range — excess and deficit can both arise
                // there) plus the single best absent server (`have == 0`,
                // deficit == target — every other absent server has a
                // smaller-or-equal deficit and a higher id). Ties keep the
                // lowest id, exactly as the dense first-strict-max fold did.
                let mut over: Option<(ServerId, f64)> = None;
                let mut under: Option<(ServerId, f64)> = None;
                let mut consider = |srv: ServerId, gpus: u32, have: f64| {
                    let target = spreadable * gpus as f64 / gen_gpus as f64;
                    let excess = have - target;
                    if excess > 0.5
                        && over
                            .map(|(s, e)| excess > e || (excess == e && srv < s))
                            .unwrap_or(true)
                    {
                        over = Some((srv, excess));
                    }
                    let deficit = target - have;
                    if deficit > 0.5
                        && under
                            .map(|(s, d)| deficit > d || (deficit == d && srv < s))
                            .unwrap_or(true)
                    {
                        under = Some((srv, deficit));
                    }
                };
                for (srv, have) in self.view.user_server_assignments(user) {
                    let spec = self.view.cluster().server(srv);
                    if spec.gen != gen || !self.view.is_reachable(srv) {
                        continue;
                    }
                    consider(srv, spec.num_gpus, have as f64);
                }
                for &(srv, gpus) in &by_size {
                    if self.view.user_server_assigned(user, srv) == 0 {
                        consider(srv, gpus, 0.0);
                        break;
                    }
                }
                let (Some((src, excess)), Some((dst, deficit))) = (over, under) else {
                    continue;
                };
                let limit = excess.min(deficit) + 0.5;
                let dst_gpus = self.view.cluster().server(dst).num_gpus;
                let candidate = self
                    .view
                    .resident(src)
                    .filter_map(|id| self.view.job(id))
                    .filter(|j| j.user == user && self.eligible(j))
                    .filter(|j| (j.gang as f64) <= limit && j.gang <= dst_gpus)
                    .max_by_key(|j| (j.gang, std::cmp::Reverse(j.id)));
                if let Some(job) = candidate {
                    let servers = servers.len() as u32;
                    let reason = Reason::FairnessSpread {
                        excess,
                        deficit,
                        servers,
                    };
                    self.push_move(job, dst, reason);
                }
            }
        }
    }

    /// Pass 4: flatten load within each generation, big jobs first.
    fn spreading_pass(&mut self) {
        let gens: Vec<GenId> = self.view.cluster().catalog.ids().collect();
        for gen in gens {
            // Reachability cannot change mid-tick, so the per-gen server
            // count is taken once per generation, not once per move.
            let servers = self.view.reachable_servers_of_gen(gen).count() as u32;
            if servers < 2 {
                continue;
            }
            loop {
                if self.budget == 0 {
                    return;
                }
                // Most- and least-loaded under the same (load, id) total
                // order the old dense max_by/min_by scans used, but read
                // from the load index plus the move-delta overlay instead
                // of re-scoring every server per move.
                let hi = self
                    .source(gen)
                    .expect("guard ensures ≥ 2 reachable servers");
                let lo = self
                    .target(gen, 0)
                    .expect("guard ensures ≥ 2 reachable servers");
                let (hi_load, lo_load) = (self.load(hi), self.load(lo));
                if hi_load - lo_load <= LOAD_SPREAD {
                    break;
                }
                // Biggest eligible job on `hi` whose move strictly helps:
                // the destination must not end up more loaded than the
                // source was.
                let hi_gpus = self.view.cluster().server(hi).num_gpus as f64;
                let lo_gpus = self.view.cluster().server(lo).num_gpus as f64;
                let candidate = self
                    .view
                    .resident(hi)
                    .filter_map(|id| self.view.job(id))
                    .filter(|j| self.eligible(j))
                    .filter(|j| j.gang as f64 <= lo_gpus)
                    .filter(|j| {
                        let new_lo = (self.projected_demand(lo) + j.gang as i64) as f64 / lo_gpus;
                        let old_hi = self.projected_demand(hi) as f64 / hi_gpus;
                        new_lo < old_hi
                    })
                    .max_by_key(|j| (j.gang, std::cmp::Reverse(j.id)));
                match candidate {
                    Some(job) => {
                        let reason = Reason::LoadSpread {
                            hi: hi_load,
                            lo: lo_load,
                            servers,
                        };
                        self.push_move(job, lo, reason);
                    }
                    None => break,
                }
            }
        }
    }
}
