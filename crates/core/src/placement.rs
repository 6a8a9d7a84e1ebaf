//! Shared server-selection logic for placements, retries and migrations.
//!
//! Every policy-side decision "which server should this gang land on?" goes
//! through [`Placer`]: an entitlement-slack-first generation choice followed
//! by least-projected-load selection among the reachable servers of that
//! generation, with a work-conserving fallback across the whole reachable
//! cluster. The placer also owns the *in-flight* demand book-keeping —
//! placements issued this round but not yet applied by the engine — so that
//! simultaneous arrivals do not pile onto one server.
//!
//! Every pick reads the residency index, traced or not. [`score`], the one
//! scan over a scope of servers, explains a pick on the side: it renders
//! the provenance a full-tier sink asks for and, in debug builds, is the
//! oracle each index-backed pick (the balancer's included) must match.

use crate::entitlement::Entitlements;
use gfair_obs::{Candidate, Rejection, TraceEvent};
use gfair_sim::SimView;
use gfair_types::{GenId, JobId, ServerId, ServerSpec, SimTime, UserId};
use std::cmp::Ordering;

/// Tie-break rule shared by every load-based server selection; quoted
/// verbatim in [`gfair_obs::TraceEvent::Decision`] provenance.
pub(crate) const TIE_BREAK_LOAD: &str = "least projected load, then lowest server id";

/// Cap on the scored candidates carried in one decision event. The full
/// candidate count is still reported via `considered`.
pub(crate) const MAX_WHY_CANDIDATES: usize = 8;

/// Provenance for one server choice: what was picked, how ties were
/// broken, and what was ruled out.
pub(crate) struct ChoiceWhy {
    /// Human-readable selected alternative (or `none (...)`).
    pub chosen: String,
    /// Tie-break rule applied among equally-scored candidates.
    pub tie_break: &'static str,
    /// Fitting servers that were scored.
    pub considered: u32,
    /// Best-scoring alternatives, winner first (bounded).
    pub candidates: Vec<Candidate>,
    /// Alternatives ruled out, grouped by reason.
    pub rejected: Vec<Rejection>,
}

impl ChoiceWhy {
    /// The `decision` trace event for this choice: `decision` names the
    /// site (`placement`, `retry`, `migration`), `job` of `user` the subject.
    pub fn event(self, t: SimTime, decision: &str, job: JobId, user: UserId) -> TraceEvent {
        TraceEvent::Decision {
            t,
            decision: decision.to_string(),
            job: Some(job),
            user: Some(user),
            chosen: self.chosen,
            tie_break: self.tie_break.to_string(),
            considered: self.considered,
            candidates: self.candidates,
            rejected: self.rejected,
        }
    }
}

/// The `(load ⟨total_cmp⟩, server id)` total order every load-based
/// selection ranks servers by.
pub(crate) fn load_order(a: &(f64, ServerId), b: &(f64, ServerId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A scope of servers scored by load for one gang.
pub(crate) struct Scored {
    /// Servers wide enough for the gang.
    pub considered: u32,
    /// Servers narrower than the gang.
    pub too_narrow: u32,
    /// The best `(load, id)` pairs under [`load_order`], winner first, at
    /// most [`MAX_WHY_CANDIDATES`].
    pub top: Vec<(f64, ServerId)>,
}

impl Scored {
    /// The winner: least load, then lowest id.
    pub fn best(&self) -> Option<ServerId> {
        self.top.first().map(|&(_, s)| s)
    }

    /// The top pairs as provenance candidates, labelled `server:<id>`.
    pub fn candidates(&self) -> Vec<Candidate> {
        (self.top.iter())
            .map(|&(load, id)| Candidate {
                label: format!("server:{}", id.index()),
                score: load,
            })
            .collect()
    }
}

/// Scores every server of `scope` that fits `gang` under `load`, keeping
/// the best [`MAX_WHY_CANDIDATES`] by [`load_order`]. Read-only; the placer
/// passes projected load, the balancer load after the tick's planned moves.
/// Used only to explain a pick (provenance for a sink) and, in debug
/// builds, as the oracle for the index-backed picks.
pub(crate) fn score<'a>(
    scope: impl Iterator<Item = &'a ServerSpec>,
    gang: u32,
    load: impl Fn(ServerId) -> f64,
) -> Scored {
    let mut scored = Scored {
        considered: 0,
        too_narrow: 0,
        top: Vec::with_capacity(MAX_WHY_CANDIDATES + 1),
    };
    for s in scope {
        if s.num_gpus < gang {
            scored.too_narrow += 1;
            continue;
        }
        scored.considered += 1;
        let pair = (load(s.id), s.id);
        let top = &mut scored.top;
        let at = top.partition_point(|p| load_order(p, &pair).is_lt());
        if at < MAX_WHY_CANDIDATES {
            top.insert(at, pair);
            top.truncate(MAX_WHY_CANDIDATES);
        }
    }
    scored
}

/// Appends a rejection row unless `count` is zero.
fn reject(rejected: &mut Vec<Rejection>, reason: &'static str, count: u32) {
    if count > 0 {
        rejected.push(Rejection {
            reason: reason.into(),
            count,
        });
    }
}

/// A [`ChoiceWhy`] for a least-load pick `chosen` from a scored scope;
/// servers too narrow for the gang join `rejected`.
fn ranked_why(chosen: String, scored: Scored, mut rejected: Vec<Rejection>) -> ChoiceWhy {
    reject(&mut rejected, "gang_too_wide_for_server", scored.too_narrow);
    ChoiceWhy {
        chosen,
        tie_break: TIE_BREAK_LOAD,
        considered: scored.considered,
        candidates: scored.candidates(),
        rejected,
    }
}

/// Where [`Placer::choose_server`] placed a gang and which route it took.
pub(crate) struct Choice {
    /// The chosen server; `None` when no reachable server fits.
    pub server: Option<ServerId>,
    /// The slack-first generation and the user's slack on it; `None` when
    /// the work-conserving fallback chose.
    pub slack_first: Option<(GenId, f64)>,
    /// Generations where the user had no allocation slack.
    pub gens_without_slack: u32,
}

/// Load-aware server picker with in-flight placement tracking.
#[derive(Debug, Default)]
pub(crate) struct Placer {
    /// GPU demand of placements issued this round but not yet applied by the
    /// engine (placement callbacks run before the round boundary). Indexed
    /// by `ServerId::index()` (server ids are dense) — this is read once per
    /// candidate server on every placement, the hottest lookup in the
    /// arrival path.
    inflight: Vec<u32>,
    /// Servers whose in-flight demand went `0 → nonzero` this round. Lets
    /// [`Self::reset`] clear only the entries that changed — O(placements
    /// this round), not O(servers).
    touched: Vec<ServerId>,
    /// The `(projected-load bits, id)` key each touched server currently
    /// holds in its generation's set below, by `ServerId::index()`. Only
    /// meaningful while `inflight > 0`.
    touched_key: Vec<u64>,
    /// Touched servers per generation, ordered by (projected load as
    /// non-negative f64 bits, id) — the same total order `f64::total_cmp`
    /// then id gives. Together with the residency index this answers
    /// "least projected load in gen" without scanning the generation: the
    /// index covers untouched servers (their projected load *is* their
    /// resident load), these sets cover the rest.
    touched_by_gen: Vec<std::collections::BTreeSet<(u64, ServerId)>>,
    /// Per generation, where the walk over the residency index's load
    /// order starts, as a `(load bits, id)` key: every `servers_by_load`
    /// entry of the generation below it belongs to a touched server, which
    /// the walk would only skip. Within a round servers only ever become
    /// touched, so the bound only moves forward, except when an untouched
    /// server's resident load drops below it (lowered by
    /// [`Self::drain_dirty`]); [`Self::reset`] and a lapped dirty ring move
    /// it back to the front.
    walk_from: Vec<(u64, ServerId)>,
    /// Consumed position in the sim index's residency dirty ring, used to
    /// re-key touched servers whose *resident* demand changed (a finish or
    /// migration mid-batch) so the set order stays equal to live projected
    /// load, and to lower `walk_from` below untouched servers that moved.
    dirty_cursor: u64,
}

/// The least `(load bits, id)` key: the front of a generation's load order.
const FRONT: (u64, ServerId) = (0, ServerId::new(0));

impl Placer {
    /// Creates an empty placer.
    pub fn new() -> Self {
        Placer::default()
    }

    /// Grows the in-flight table to cover the cluster's servers and the
    /// per-generation touched sets to cover its generations.
    pub fn ensure_capacity(&mut self, view: &SimView<'_>) {
        let servers = view.cluster().servers.len();
        if self.inflight.len() < servers {
            self.inflight.resize(servers, 0);
            self.touched_key.resize(servers, 0);
        }
        let gens = view.cluster().catalog.ids().count();
        if self.touched_by_gen.len() < gens {
            self.touched_by_gen
                .resize_with(gens, std::collections::BTreeSet::new);
            self.walk_from.resize(gens, FRONT);
        }
    }

    /// Clears the in-flight book (queued placements were applied by the
    /// engine before the round boundary). Call once per `plan_round`.
    /// O(servers that took a placement), not O(servers).
    pub fn reset(&mut self) {
        for s in self.touched.drain(..) {
            self.inflight[s.index()] = 0;
        }
        for set in &mut self.touched_by_gen {
            set.clear();
        }
        self.walk_from.fill(FRONT);
    }

    /// Re-computes `server`'s key in its generation set after its resident
    /// demand changed. No-op for servers with no in-flight placements (they
    /// are not in any set).
    fn rekey(&mut self, view: &SimView<'_>, server: ServerId) {
        if self
            .inflight
            .get(server.index())
            .is_none_or(|&pending| pending == 0)
        {
            return;
        }
        let gen = view.cluster().server(server).gen;
        let set = &mut self.touched_by_gen[gen.index()];
        set.remove(&(self.touched_key[server.index()], server));
        let key = self.projected_load(view, server).to_bits();
        self.touched_key[server.index()] = key;
        self.touched_by_gen[gen.index()].insert((key, server));
    }

    /// Catches the touched-set keys and the walk bounds up with residency
    /// changes (finishes and migrations land immediately, mid-batch) by
    /// draining the sim index's dirty ring: a touched server is re-keyed,
    /// an untouched one lowers its generation's bound to its new index
    /// entry if that fell below it. Amortized O(residency changes); on ring
    /// overflow every touched server is re-keyed and every walk restarts at
    /// the front.
    fn drain_dirty(&mut self, view: &SimView<'_>) {
        let seq = view.residency_dirty_seq();
        if seq == self.dirty_cursor {
            return;
        }
        match view.residency_dirty_since(self.dirty_cursor) {
            // The iterator borrows the view, not the placer.
            Some(dirty) => {
                for s in dirty {
                    if self.inflight[s.index()] > 0 {
                        self.rekey(view, s);
                    } else {
                        let gen = view.cluster().server(s).gen;
                        let from = &mut self.walk_from[gen.index()];
                        *from = (*from).min((view.server_load(s).to_bits(), s));
                    }
                }
            }
            None => {
                for i in 0..self.touched.len() {
                    self.rekey(view, self.touched[i]);
                }
                self.walk_from.fill(FRONT);
            }
        }
        self.dirty_cursor = seq;
    }

    /// Records a placement issued this round, so later picks in the same
    /// round see the projected demand.
    pub fn note_placement(&mut self, view: &SimView<'_>, server: ServerId, gang: u32) {
        let i = server.index();
        let gen = view.cluster().server(server).gen;
        if self.inflight[i] > 0 {
            self.touched_by_gen[gen.index()].remove(&(self.touched_key[i], server));
        } else {
            self.touched.push(server);
        }
        self.inflight[i] += gang;
        let key = self.projected_load(view, server).to_bits();
        self.touched_key[i] = key;
        self.touched_by_gen[gen.index()].insert((key, server));
    }

    /// Server load including placements issued this round but not yet
    /// applied by the engine.
    pub fn projected_load(&self, view: &SimView<'_>, server: ServerId) -> f64 {
        let gpus = view.cluster().server(server).num_gpus;
        let pending = self.inflight.get(server.index()).copied().unwrap_or(0);
        (view.resident_demand(server) + pending) as f64 / gpus as f64
    }

    /// Least-(projected load, id) reachable server of `gen` that fits
    /// `gang`, via the residency index instead of a generation scan.
    ///
    /// `SimView::servers_by_load` iterates `gen`'s servers in exactly the
    /// (resident load by `f64::total_cmp`, id) order, and a server with no
    /// in-flight placements has a projected load bit-identical to its index
    /// key — so the first reachable fitting server with an empty in-flight
    /// slot is the minimum over all such servers. The walk starts at the
    /// generation's `walk_from` bound, below which every entry is touched,
    /// and moves the bound up to the first untouched entry it meets, so a
    /// round's placements are not re-walked on every arrival. Touched
    /// servers are covered by their generation's key-ordered set (kept
    /// equal to live projected load by [`Self::drain_dirty`]), walked the
    /// same way. The winner is the minimum of the two — exactly [`score`]'s
    /// winner under projected load, in O(log touched + probe) instead of
    /// O(servers of the generation). Callers must `drain_dirty` first.
    fn pick_in_gen_indexed(
        &mut self,
        view: &SimView<'_>,
        gen: GenId,
        gang: u32,
    ) -> Option<(f64, ServerId)> {
        let mut best: Option<(f64, ServerId)> = None;
        let (key, id) = self.walk_from[gen.index()];
        let mut advancing = true;
        for (load, s) in view.servers_by_load_from(gen, f64::from_bits(key), id) {
            // Reachability and gang fit only skip an entry: the bound stops
            // at the first untouched one, whether or not it qualifies.
            let touched = self.inflight[s.index()] > 0;
            if advancing {
                self.walk_from[gen.index()] = (load.to_bits(), s);
                advancing = touched;
            }
            if touched || !view.is_reachable(s) || view.cluster().server(s).num_gpus < gang {
                continue; // a touched server is covered by the set below
            }
            best = Some((load, s));
            break;
        }
        if let Some(set) = self.touched_by_gen.get(gen.index()) {
            for &(key, s) in set {
                if !view.is_reachable(s) || view.cluster().server(s).num_gpus < gang {
                    continue;
                }
                let load = f64::from_bits(key);
                debug_assert_eq!(
                    load.to_bits(),
                    self.projected_load(view, s).to_bits(),
                    "stale touched key for {s}"
                );
                if best.is_none_or(|b| load_order(&(load, s), &b).is_lt()) {
                    best = Some((load, s));
                }
                break;
            }
        }
        best
    }

    /// [`score`] under projected load.
    fn score_projected<'a>(
        &self,
        view: &SimView<'_>,
        scope: impl Iterator<Item = &'a ServerSpec>,
        gang: u32,
    ) -> Scored {
        score(scope, gang, |s| self.projected_load(view, s))
    }

    /// Least-(projected load, id) reachable server of `gen` that fits
    /// `gang`, from the residency index: a slack-first placement or a
    /// migration retry target. In debug builds checked against [`score`]
    /// over the generation's reachable servers.
    pub fn pick_in_gen(&mut self, view: &SimView<'_>, gen: GenId, gang: u32) -> Option<ServerId> {
        // The index-backed pick reads the touched-set keys and the walk
        // bounds; bring them up to date with residency changes since the
        // last pick.
        self.drain_dirty(view);
        let pick = self.pick_in_gen_indexed(view, gen, gang).map(|(_, s)| s);
        debug_assert_eq!(
            pick,
            self.score_projected(view, view.reachable_servers_of_gen(gen), gang)
                .best(),
            "indexed pick diverged from the scorer over gen:{}",
            gen.index()
        );
        pick
    }

    /// Picks a server for an arriving or pending job: prefer the generation
    /// where the user has the most allocation slack under `ent`, then the
    /// least-loaded server of that generation that fits; fall back to
    /// least-loaded overall. Only reachable servers are considered — a
    /// placement sent to a partitioned server could not be delivered.
    ///
    /// Every pick comes from the residency index, whether or not a sink is
    /// attached; [`Self::explain`] renders the returned choice's provenance.
    pub fn choose_server(
        &mut self,
        view: &SimView<'_>,
        ent: Option<&Entitlements>,
        user: UserId,
        gang: u32,
    ) -> Choice {
        let (slack_first, gens_without_slack) =
            ent.map_or((None, 0), |ent| slack_first_gen(view, ent, user, gang));
        if let Some((gen, _)) = slack_first {
            if let Some(server) = self.pick_in_gen(view, gen, gang) {
                return Choice {
                    server: Some(server),
                    slack_first,
                    gens_without_slack,
                };
            }
        }
        // Work conservation fallback: the min over the per-generation
        // index-backed picks — same winner as a scan of the reachable
        // cluster, in O(gens + placements this round).
        self.drain_dirty(view);
        let mut best: Option<(f64, ServerId)> = None;
        for gen in view.cluster().catalog.ids() {
            if let Some(pick) = self.pick_in_gen_indexed(view, gen, gang) {
                if best.is_none_or(|b| load_order(&pick, &b).is_lt()) {
                    best = Some(pick);
                }
            }
        }
        let server = best.map(|(_, s)| s);
        debug_assert_eq!(
            server,
            self.score_projected(view, view.reachable_servers(), gang)
                .best(),
            "indexed fallback pick diverged from the scorer over the reachable cluster"
        );
        Choice {
            server,
            slack_first: None,
            gens_without_slack,
        }
    }

    /// Provenance for `choice` of a `gang`-wide job: [`score`]'s rows over
    /// the scope the choice was made in. Call before the choice's
    /// [`Self::note_placement`], which moves the projected loads.
    pub fn explain(&self, view: &SimView<'_>, gang: u32, choice: &Choice) -> ChoiceWhy {
        let mut rejected = Vec::new();
        reject(
            &mut rejected,
            "gen_without_slack",
            choice.gens_without_slack,
        );
        let (chosen, scored) = match (choice.slack_first, choice.server) {
            (Some((gen, slack)), Some(server)) => (
                format!(
                    "server:{} (gen:{} slack-first, slack {:.2})",
                    server.index(),
                    gen.index(),
                    slack
                ),
                self.score_projected(view, view.reachable_servers_of_gen(gen), gang),
            ),
            (_, server) => {
                let unreachable = view.cluster().servers.len() as u32 - view.reachable_count();
                reject(&mut rejected, "unreachable", unreachable);
                let chosen = match server {
                    Some(s) => format!("server:{} (work-conserving fallback)", s.index()),
                    None => "none (no reachable server fits)".to_string(),
                };
                (
                    chosen,
                    self.score_projected(view, view.reachable_servers(), gang),
                )
            }
        };
        ranked_why(chosen, scored, rejected)
    }

    /// Provenance for a `gang`-wide pick `chosen` among `gen`'s reachable
    /// servers (a migration retry target).
    pub fn explain_in_gen(
        &self,
        view: &SimView<'_>,
        gen: GenId,
        gang: u32,
        chosen: String,
    ) -> ChoiceWhy {
        let scored = self.score_projected(view, view.reachable_servers_of_gen(gen), gang);
        ranked_why(chosen, scored, Vec::new())
    }
}

/// The generation where `user` has the most allocation slack under `ent`
/// (first such generation on ties) among those with a reachable server wide
/// enough for `gang`, plus the number of generations without slack.
fn slack_first_gen(
    view: &SimView<'_>,
    ent: &Entitlements,
    user: UserId,
    gang: u32,
) -> (Option<(GenId, f64)>, u32) {
    let mut gens_without_slack = 0u32;
    let mut best_gen: Option<(GenId, f64)> = None;
    for gen in view.cluster().catalog.ids() {
        // The user's placed GPUs on this generation, from the residency
        // index (migrating jobs count toward their destination, same as a
        // scan over the user's jobs).
        let used = view.user_gen_assigned(user, gen) as f64;
        let slack = ent.get(user, gen) - used;
        if slack <= 0.0 {
            gens_without_slack += 1;
            continue;
        }
        // Only generations with an online server wide enough for the gang.
        // `servers_by_load` walks just this gen's servers (usually stopping
        // at the first), not the whole cluster.
        if best_gen.map(|(_, s)| slack > s).unwrap_or(true)
            && view
                .servers_by_load(gen)
                .any(|s| view.is_reachable(s) && view.cluster().server(s).num_gpus >= gang)
        {
            best_gen = Some((gen, slack));
        }
    }
    (best_gen, gens_without_slack)
}
