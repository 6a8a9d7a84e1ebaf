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
//! Extracted from the central Gandiva_fair scheduler so that every policy
//! behind the [`crate::policy::AllocPolicy`] boundary places jobs with the
//! same rules, the same provenance rows, and the same tie-breaks.

use crate::entitlement::Entitlements;
use gfair_obs::{Candidate, Rejection};
use gfair_sim::SimView;
use gfair_types::{GenId, ServerId, ServerSpec, UserId};

/// Tie-break rule shared by every load-based server selection; quoted
/// verbatim in [`gfair_obs::TraceEvent::Decision`] provenance.
pub(crate) const TIE_BREAK_LOAD: &str = "least projected load, then lowest server id";

/// Cap on the scored candidates carried in one decision event. The full
/// candidate count is still reported via `considered`.
pub(crate) const MAX_WHY_CANDIDATES: usize = 8;

/// Provenance for one server choice: what was picked, how ties were
/// broken, and what was ruled out. Rendered into a
/// [`gfair_obs::TraceEvent::Decision`] by the caller, which knows the
/// decision site.
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

    /// The (projected-load bits, id) ordering key of `server` given its
    /// current resident demand and in-flight placements.
    fn key_of(&self, view: &SimView<'_>, server: ServerId) -> u64 {
        let spec = view.cluster().server(server);
        let pending = self.inflight[server.index()];
        ((view.resident_demand(server) + pending) as f64 / spec.num_gpus as f64).to_bits()
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
        let key = self.key_of(view, server);
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
        let key = self.key_of(view, server);
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
    /// same way. The winner is the minimum of the two — exactly
    /// [`Self::pick_least_loaded`]'s selection, in O(log touched + probe)
    /// instead of O(servers of the generation). Callers must `drain_dirty`
    /// first.
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
                let better = match best {
                    None => true,
                    Some((bl, bid)) => load.total_cmp(&bl).then(s.cmp(&bid)).is_lt(),
                };
                if better {
                    best = Some((load, s));
                }
                break;
            }
        }
        best
    }

    /// Scores every server in `scope` that fits the gang by projected load
    /// and picks the minimum (ties to the lowest id). Returns the winner
    /// plus the provenance rows: fitting-server count, servers ruled out as
    /// too narrow, and the top-[`MAX_WHY_CANDIDATES`] candidates by score.
    pub fn pick_least_loaded<'a>(
        &self,
        view: &SimView<'_>,
        gang: u32,
        scope: impl Iterator<Item = &'a ServerSpec>,
        want_why: bool,
    ) -> (Option<ServerId>, u32, u32, Vec<Candidate>) {
        let mut too_narrow = 0u32;
        if !want_why {
            // Allocation-free fast path for untraced runs: the same
            // selection rule (least projected load, then lowest id), no
            // provenance materialized.
            let mut considered = 0u32;
            let mut best: Option<(f64, ServerId)> = None;
            for s in scope {
                if s.num_gpus < gang {
                    too_narrow += 1;
                    continue;
                }
                considered += 1;
                let load = self.projected_load(view, s.id);
                let better = match best {
                    None => true,
                    Some((bl, bid)) => load.total_cmp(&bl).then(s.id.cmp(&bid)).is_lt(),
                };
                if better {
                    best = Some((load, s.id));
                }
            }
            return (best.map(|(_, id)| id), considered, too_narrow, Vec::new());
        }
        // Scores stay as plain pairs until after truncation: formatting a
        // label per scanned server would put ~100 heap allocations on every
        // job arrival at the 1000-GPU scale.
        let mut scored: Vec<(f64, ServerId)> = Vec::new();
        for s in scope {
            if s.num_gpus < gang {
                too_narrow += 1;
                continue;
            }
            scored.push((self.projected_load(view, s.id), s.id));
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
        (best, considered, too_narrow, candidates)
    }

    /// Picks a server for an arriving job: prefer the generation where the
    /// user has the most allocation slack under `ent`, then the least-loaded
    /// server of that generation that fits; fall back to least-loaded
    /// overall. Only reachable servers are considered — a placement sent to
    /// a partitioned server could not be delivered.
    ///
    /// With `want_why`, also returns the [`ChoiceWhy`] provenance the
    /// caller renders into a [`gfair_obs::TraceEvent::Decision`], from full
    /// scans; without it, the same choice comes from the index-backed
    /// picks.
    pub fn choose_server_explained(
        &mut self,
        view: &SimView<'_>,
        ent: Option<&Entitlements>,
        user: UserId,
        gang: u32,
        want_why: bool,
    ) -> (Option<ServerId>, Option<ChoiceWhy>) {
        if !want_why {
            return (self.choose_server(view, ent, user, gang), None);
        }
        let mut rejected: Vec<Rejection> = Vec::new();
        if let Some(ent) = ent {
            let (best_gen, gens_without_slack) = slack_first_gen(view, ent, user, gang);
            if gens_without_slack > 0 {
                rejected.push(Rejection {
                    reason: "gen_without_slack".into(),
                    count: gens_without_slack,
                });
            }
            if let Some((gen, slack)) = best_gen {
                let (target, considered, too_narrow, candidates) =
                    self.pick_least_loaded(view, gang, view.reachable_servers_of_gen(gen), true);
                if let Some(server) = target {
                    if too_narrow > 0 {
                        rejected.push(Rejection {
                            reason: "gang_too_wide_for_server".into(),
                            count: too_narrow,
                        });
                    }
                    let why = ChoiceWhy {
                        chosen: format!(
                            "server:{} (gen:{} slack-first, slack {:.2})",
                            server.index(),
                            gen.index(),
                            slack
                        ),
                        tie_break: TIE_BREAK_LOAD,
                        considered,
                        candidates,
                        rejected,
                    };
                    return (Some(server), Some(why));
                }
            }
        }
        // Work conservation fallback: least-loaded fitting server anywhere.
        let total = view.cluster().servers.len() as u32;
        let reachable = view.reachable_count();
        if total > reachable {
            rejected.push(Rejection {
                reason: "unreachable".into(),
                count: total - reachable,
            });
        }
        let (target, considered, too_narrow, candidates) =
            self.pick_least_loaded(view, gang, view.reachable_servers(), true);
        if too_narrow > 0 {
            rejected.push(Rejection {
                reason: "gang_too_wide_for_server".into(),
                count: too_narrow,
            });
        }
        let why = ChoiceWhy {
            chosen: match target {
                Some(s) => format!("server:{} (work-conserving fallback)", s.index()),
                None => "none (no reachable server fits)".to_string(),
            },
            tie_break: TIE_BREAK_LOAD,
            considered,
            candidates,
            rejected,
        };
        (target, Some(why))
    }

    /// [`Self::choose_server_explained`]'s choice without provenance, from
    /// the index-backed picks instead of generation scans. In debug builds
    /// each pick is checked against [`Self::pick_least_loaded`] over the
    /// same reachable scope.
    fn choose_server(
        &mut self,
        view: &SimView<'_>,
        ent: Option<&Entitlements>,
        user: UserId,
        gang: u32,
    ) -> Option<ServerId> {
        // The index-backed picks read the touched-set keys and the walk
        // bounds; bring them up to date with residency changes since the
        // last pick.
        self.drain_dirty(view);
        if let Some((gen, _)) = ent.and_then(|ent| slack_first_gen(view, ent, user, gang).0) {
            let pick = self.pick_in_gen_indexed(view, gen, gang).map(|(_, s)| s);
            debug_assert_eq!(
                pick,
                self.pick_least_loaded(view, gang, view.reachable_servers_of_gen(gen), false)
                    .0,
                "indexed slack-first pick diverged from the scan of gen:{}",
                gen.index()
            );
            if pick.is_some() {
                return pick;
            }
        }
        // Work conservation fallback: the min over the per-generation
        // index-backed picks — same winner as a full reachable-cluster scan,
        // in O(gens + placements this round).
        let mut best: Option<(f64, ServerId)> = None;
        for gen in view.cluster().catalog.ids() {
            if let Some((load, s)) = self.pick_in_gen_indexed(view, gen, gang) {
                let better = match best {
                    None => true,
                    Some((bl, bid)) => load.total_cmp(&bl).then(s.cmp(&bid)).is_lt(),
                };
                if better {
                    best = Some((load, s));
                }
            }
        }
        let pick = best.map(|(_, s)| s);
        debug_assert_eq!(
            pick,
            self.pick_least_loaded(view, gang, view.reachable_servers(), false)
                .0,
            "indexed fallback pick diverged from the reachable-cluster scan"
        );
        pick
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
