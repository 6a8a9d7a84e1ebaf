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
use crate::profiler::Profiler;
use gfair_obs::{Candidate, Obs, Phase, TraceEvent};
use gfair_sim::{Action, JobInfo, SimView};
use gfair_types::{GenId, JobId, ServerId, SimTime, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// Tie-break rule for load-based target selection (passes 1 and 2).
const TIE_BREAK_LOAD: &str = "least projected load, then lowest server id";

/// Cap on the scored candidates carried in one migration decision.
const MAX_WHY_CANDIDATES: usize = 8;

/// Load-spread threshold of pass 4: a generation is rebalanced only while
/// its most- and least-loaded servers differ by more than this.
const LOAD_SPREAD: f64 = 0.25;

/// Provenance for one planned migration: which pass chose it, what the
/// endpoints were, and which alternatives were scored. Paired 1:1 with the
/// `Action::Migrate` pushed at the same time.
struct MoveWhy {
    job: JobId,
    user: UserId,
    pass: &'static str,
    from: ServerId,
    to: ServerId,
    tie_break: &'static str,
    considered: u32,
    candidates: Vec<Candidate>,
}

/// Plans this tick's migrations. Pure with respect to the view: the caller
/// applies the returned actions through the simulator.
pub fn plan_migrations(view: &SimView<'_>, ent: &Entitlements, profiler: &Profiler) -> Vec<Action> {
    plan_migrations_explained(view, ent, profiler, false).0
}

/// [`plan_migrations`] plus one [`MoveWhy`] provenance record per action.
/// With `want_why` false the provenance side is skipped entirely: no
/// candidate labels are formatted and `why` comes back empty, keeping the
/// untraced path allocation-free.
fn plan_migrations_explained(
    view: &SimView<'_>,
    ent: &Entitlements,
    profiler: &Profiler,
    want_why: bool,
) -> (Vec<Action>, Vec<MoveWhy>) {
    let mut planner = Planner::new(view, want_why);
    planner.profiling_pass(profiler);
    planner.realization_pass(ent);
    planner.fairness_pass(ent);
    planner.spreading_pass();
    (planner.actions, planner.why)
}

/// Observed [`plan_migrations`]: the whole search (all passes) is timed as
/// one [`Phase::MigrationSearch`] span, and every planned move is emitted
/// as a `migration` [`TraceEvent::Decision`] naming the pass that chose it
/// and the alternatives it scored. The resulting `Migration` trace events
/// are emitted by the engine when the moves are actually applied.
pub fn plan_migrations_traced(
    obs: &Obs,
    view: &SimView<'_>,
    ent: &Entitlements,
    profiler: &Profiler,
) -> Vec<Action> {
    let want_why = obs.tracing();
    let (actions, why) = obs.time(Phase::MigrationSearch, || {
        plan_migrations_explained(view, ent, profiler, want_why)
    });
    let now = view.now();
    for w in why {
        obs.emit(TraceEvent::Decision {
            t: now,
            decision: "migration".to_string(),
            job: Some(w.job),
            user: Some(w.user),
            chosen: format!(
                "server:{} -> server:{} ({} pass)",
                w.from.index(),
                w.to.index(),
                w.pass
            ),
            tie_break: w.tie_break.to_string(),
            considered: w.considered,
            candidates: w.candidates,
            rejected: Vec::new(),
        });
    }
    actions
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
    actions: Vec<Action>,
    /// Whether to record provenance at all (a trace sink is attached).
    want_why: bool,
    /// Provenance, one record per entry in `actions` when `want_why`.
    why: Vec<MoveWhy>,
}

impl<'a, 'v> Planner<'a, 'v> {
    fn new(view: &'a SimView<'v>, want_why: bool) -> Self {
        Planner {
            view,
            now: view.now(),
            budget: view.config().max_migrations_per_tick,
            moved: BTreeSet::new(),
            delta: BTreeMap::new(),
            actions: Vec::new(),
            want_why,
            why: Vec::new(),
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
            let load = self.load(s);
            let better = match best {
                None => true,
                Some((bl, bid)) => {
                    let ord = load.total_cmp(&bl).then(s.cmp(&bid));
                    if most {
                        ord.is_gt()
                    } else {
                        ord.is_lt()
                    }
                }
            };
            if better {
                best = Some((load, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Least-loaded reachable server of `gen` that can host `gang`, by
    /// projected load, plus the fitting-server count and scored candidates
    /// for decision provenance.
    fn target_in_gen(&self, gen: GenId, gang: u32) -> (Option<ServerId>, u32, Vec<Candidate>) {
        if !self.want_why {
            // Untraced: index-backed min, no allocation. The considered
            // count is only ever read into provenance, which this path
            // skips, so it is not tallied here.
            return (self.extreme_in_gen(gen, gang, false), 0, Vec::new());
        }
        // Scores stay as plain pairs until after truncation (see the same
        // pattern in the central scheduler): label formatting is deferred
        // to the few candidates that survive.
        let mut scored: Vec<(f64, ServerId)> = Vec::new();
        for s in self.view.reachable_servers_of_gen(gen) {
            if s.num_gpus < gang {
                continue;
            }
            scored.push((self.load(s.id), s.id));
        }
        let considered = scored.len() as u32;
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let best = scored.first().map(|&(_, id)| id);
        scored.truncate(MAX_WHY_CANDIDATES);
        let candidates = scored
            .into_iter()
            .map(|(load, id)| Candidate {
                label: format!("server:{}", id.index()),
                score: load,
            })
            .collect();
        (best, considered, candidates)
    }

    /// Commits a planned move, updating projections and recording its
    /// provenance.
    #[allow(clippy::too_many_arguments)]
    fn push_move(
        &mut self,
        job: &JobInfo,
        to: ServerId,
        pass: &'static str,
        tie_break: &'static str,
        considered: u32,
        candidates: Vec<Candidate>,
    ) {
        let from = job.server.expect("resident job has a server");
        *self.delta.entry(from).or_insert(0) -= job.gang as i64;
        *self.delta.entry(to).or_insert(0) += job.gang as i64;
        self.moved.insert(job.id);
        self.budget -= 1;
        self.actions.push(Action::Migrate { job: job.id, to });
        if self.want_why {
            self.why.push(MoveWhy {
                job: job.id,
                user: job.user,
                pass,
                from,
                to,
                tie_break,
                considered,
                candidates,
            });
        }
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
        let mut missing_by_model: BTreeMap<&std::sync::Arc<str>, Vec<GenId>> = BTreeMap::new();
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
        let mut sent_models: BTreeSet<&std::sync::Arc<str>> = BTreeSet::new();
        let mut sent = 0u32;
        for &id in &probe_jobs {
            if self.budget == 0 || sent >= 2 {
                return;
            }
            let Some(job) = view.job(id) else {
                continue;
            };
            if !self.eligible(job) || sent_models.contains(&job.model) {
                continue;
            }
            let Some(cur_server) = job.server else {
                continue;
            };
            let cur_gen = view.cluster().server(cur_server).gen;
            // Only consider gens this job could actually run on, and prefer
            // the fastest unprofiled one (most valuable information).
            let unprofiled = &missing_by_model[&job.model];
            let Some(&gen) = unprofiled.iter().rfind(|&&g| g != cur_gen) else {
                continue;
            };
            let (target, considered, candidates) = self.target_in_gen(gen, job.gang);
            if let Some(to) = target {
                sent_models.insert(&job.model);
                self.push_move(job, to, "profiling", TIE_BREAK_LOAD, considered, candidates);
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
                let (target, considered, candidates) = self.target_in_gen(under_gen, job.gang);
                if let Some(to) = target {
                    self.push_move(
                        job,
                        to,
                        "realization",
                        TIE_BREAK_LOAD,
                        considered,
                        candidates,
                    );
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
                    let candidates = if self.want_why {
                        vec![
                            Candidate {
                                label: format!("over-represented on server:{}", src.index()),
                                score: excess,
                            },
                            Candidate {
                                label: format!("under-represented on server:{}", dst.index()),
                                score: deficit,
                            },
                        ]
                    } else {
                        Vec::new()
                    };
                    self.push_move(
                        job,
                        dst,
                        "fairness-spread",
                        "largest per-server excess vs. deficit",
                        servers.len() as u32,
                        candidates,
                    );
                }
            }
        }
    }

    /// Pass 4: flatten load within each generation, big jobs first.
    fn spreading_pass(&mut self) {
        let gens: Vec<GenId> = self.view.cluster().catalog.ids().collect();
        for gen in gens {
            // Reachability cannot change mid-tick, so the per-gen server
            // list is collected once per generation, not once per move.
            let servers: Vec<ServerId> = self
                .view
                .reachable_servers_of_gen(gen)
                .map(|s| s.id)
                .collect();
            if servers.len() < 2 {
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
                    .extreme_in_gen(gen, 0, true)
                    .expect("guard ensures ≥ 2 reachable servers");
                let lo = self
                    .extreme_in_gen(gen, 0, false)
                    .expect("guard ensures ≥ 2 reachable servers");
                if self.load(hi) - self.load(lo) <= LOAD_SPREAD {
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
                        let candidates = if self.want_why {
                            vec![
                                Candidate {
                                    label: format!("most loaded server:{}", hi.index()),
                                    score: self.load(hi),
                                },
                                Candidate {
                                    label: format!("least loaded server:{}", lo.index()),
                                    score: self.load(lo),
                                },
                            ]
                        } else {
                            Vec::new()
                        };
                        self.push_move(
                            job,
                            lo,
                            "load-spread",
                            "biggest eligible job, most- to least-loaded server",
                            servers.len() as u32,
                            candidates,
                        );
                    }
                    None => break,
                }
            }
        }
    }
}
