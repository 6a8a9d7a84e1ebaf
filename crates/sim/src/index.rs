//! Materialized indexes over simulation state.
//!
//! Every [`crate::SimView`] query used to re-derive its answer by scanning
//! the full job table — including every job that finished hours of simulated
//! time ago — which makes long runs quadratic in trace length. The engine
//! instead maintains this index incrementally: each state transition
//! (arrival, placement, migration, finish, failure) updates the handful of
//! sets it affects, and the view answers queries in O(answer).
//!
//! ## Invariants
//!
//! With `J` the engine's job table and `R[s]` server `s`'s id-sorted
//! resident list. Users are indexed by `UserId::index()` and models by their
//! `ModelId`, the rank among the trace's distinct model names in `str` order
//! (`models[r]` is model `r`'s interned name), so every per-user or per-model
//! table below is a vector, not a tree:
//!
//! * `arrived` — jobs whose `Arrival` event has fired. Monotone; jobs with a
//!   future arrival are never present.
//! * `active` — `{ j ∈ arrived : J[j].state.is_active() }`.
//! * `pending` — `{ j ∈ arrived : J[j].state == Pending }`.
//! * `by_user[u]` — `{ j ∈ active : J[j].user == u }`; a user is active iff
//!   its set is non-empty.
//! * `demand[s]` — `Σ gang(j) for j ∈ R[s]`; every server has an entry.
//! * `user_demand[u]` — `Σ gang(j) for j ∈ by_user[u]`; zero exactly for
//!   inactive users, because every gang is at least 1.
//! * `user_model_gang[u]` — `(r, Σ gang(j))` over active jobs of user `u`
//!   running model `r`, sorted by id, with no zero entries.
//! * `model_active[r]` — active jobs running model `r`.
//! * `user_gen_assigned[u * num_gens + g]` / `user_server_assigned[u]` —
//!   `Σ gang(j)` over active jobs of `u` with `J[j].server` set, grouped by
//!   the server's generation / the server itself (the latter as a
//!   server-sorted `(server, gpus)` list with no zero entries). A migrating
//!   job counts toward its *destination* (its `server` field), mirroring
//!   what schedulers see.
//! * `gen_load[g]` — the servers of generation `g` ordered by
//!   (resident-load, id) ascending, where the load key is the exact f64
//!   bits of `demand/gpus` (non-negative f64 bits order like the values),
//!   so an ordered scan visits servers in the same order a least-loaded
//!   min-scan with `f64::total_cmp` would.
//!
//! Every job set here (`arrived`, `active`, `pending`, `by_user[u]`,
//! `model_active[r]`) is a [`JobSet`]: a bitset over `JobId::index()`, so
//! each arrival or finish updates its sets in O(1) and iteration yields
//! ids in increasing order, the order every `SimView` job query promises.
//!
//! [`ClusterIndex::verify`] re-derives all of this from scratch into
//! `BTreeSet`s and `BTreeMap`s keyed by id and model name, reads the dense
//! tables and job sets back into the same shape, and is the oracle for the
//! differential property tests.
//!
//! The index also keeps a bounded *dirty ring* of residency changes: every
//! demand bump appends the server to a fixed-capacity ring, and consumers
//! (the round planner) read the suffix since their last cursor to learn
//! which servers changed — or fall back to a full pass if the ring lapped
//! them. It records changes rather than deriving state, so `verify` has no
//! oracle for it (same as `res_version`).

use crate::job::JobTable;
use crate::jobset::JobSet;
use gfair_types::{ClusterSpec, GenId, JobId, JobState, ModelId, ServerId, UserId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The (load, id) ordering key for one server in [`ClusterIndex::gen_load`]:
/// non-negative f64 bit patterns sort identically to the values, so a
/// `BTreeSet` of these keys iterates in exactly `f64::total_cmp` order.
fn load_key(demand: u32, gpus: u32) -> u64 {
    debug_assert!(gpus > 0, "server with zero GPUs");
    (demand as f64 / gpus as f64).to_bits()
}

/// Adds `gpus` to `key`'s entry of a key-sorted table, inserting it if absent.
fn add_sorted<K: Ord + Copy>(table: &mut Vec<(K, u64)>, key: K, gpus: u64) {
    match table.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => table[i].1 += gpus,
        Err(i) => table.insert(i, (key, gpus)),
    }
}

/// Subtracts `gpus` from `key`'s entry of a key-sorted table, removing the
/// entry when it reaches zero.
fn sub_sorted<K: Ord + Copy>(table: &mut Vec<(K, u64)>, key: K, gpus: u64) {
    if let Ok(i) = table.binary_search_by_key(&key, |&(k, _)| k) {
        let d = &mut table[i].1;
        *d = d.saturating_sub(gpus);
        if *d == 0 {
            table.remove(i);
        }
    }
}

/// Incrementally maintained indexes over jobs and residency.
#[derive(Debug, Default)]
pub(crate) struct ClusterIndex {
    /// Jobs whose arrival event has fired, in id order.
    pub(crate) arrived: JobSet,
    /// Arrived jobs that are not finished (pending, resident or migrating).
    pub(crate) active: JobSet,
    /// Arrived jobs awaiting placement.
    pub(crate) pending: JobSet,
    /// Active jobs per user, indexed by `UserId::index()`; a user with no
    /// active job has an empty set.
    pub(crate) by_user: Vec<JobSet>,
    /// GPUs demanded by resident jobs, per server (sum of gang widths),
    /// indexed by `ServerId::index()` — server ids are dense, and this sits
    /// on the placement hot path where a tree lookup per candidate server
    /// dominates.
    pub(crate) demand: Vec<u32>,
    /// Per-server residency change counter, indexed by `ServerId::index()`:
    /// bumped every time a server's resident set changes (placement, finish,
    /// migration, eviction). Schedulers use it to skip per-round membership
    /// re-derivation for servers whose residency is unchanged. It counts
    /// changes rather than deriving state, so [`ClusterIndex::verify`] has
    /// no oracle for it.
    pub(crate) res_version: Vec<u64>,
    /// Total GPUs demanded per user over active jobs, indexed by
    /// `UserId::index()`.
    pub(crate) user_demand: Vec<u64>,
    /// The trace's distinct model names in `str` order; a model's position
    /// here is its rank, its [`ModelId`], which keys the per-model tables.
    /// Shared, so a scheduler can keep the table past the run.
    pub(crate) models: Arc<[Arc<str>]>,
    /// GPUs demanded per user over active jobs, split by model: one
    /// id-sorted `(model, gpus)` list per `UserId::index()`.
    pub(crate) user_model_gang: Vec<Vec<(ModelId, u64)>>,
    /// Active jobs per model, indexed by `ModelId::index()`.
    pub(crate) model_active: Vec<JobSet>,
    /// Number of generations: the row width of `user_gen_assigned`.
    pub(crate) num_gens: usize,
    /// GPUs of each user's placed jobs per generation (placed = `server`
    /// set, so a migrating job counts toward its destination's generation),
    /// flattened as `user.index() * num_gens + gen.index()`.
    pub(crate) user_gen_assigned: Vec<u64>,
    /// GPUs of each user's placed jobs per server: one server-sorted
    /// `(server, gpus)` list per `UserId::index()`.
    pub(crate) user_server_assigned: Vec<Vec<(ServerId, u64)>>,
    /// Servers of each generation ordered by (resident load, id), indexed
    /// by `GenId::index()`; each element is `(load_key, server)`.
    pub(crate) gen_load: Vec<BTreeSet<(u64, ServerId)>>,
    /// Each server's generation, indexed by `ServerId::index()`.
    pub(crate) server_gen: Vec<GenId>,
    /// Each server's GPU count, indexed by `ServerId::index()`.
    pub(crate) server_gpus: Vec<u32>,
    /// Bounded ring of servers whose residency changed, written at
    /// `dirty_seq % capacity`; consumers track their own cursor.
    pub(crate) dirty_ring: Vec<ServerId>,
    /// Total residency changes ever recorded (monotone ring write cursor).
    pub(crate) dirty_seq: u64,
}

impl ClusterIndex {
    /// Creates an empty index for `cluster`, `num_users` user slots (one
    /// past the largest user id) and the interned model names `models`,
    /// which must be in `str` order.
    pub(crate) fn new(cluster: &ClusterSpec, num_users: usize, models: Arc<[Arc<str>]>) -> Self {
        debug_assert!(models.is_sorted_by(|a, b| a < b), "models unsorted");
        let len = cluster
            .servers
            .iter()
            .map(|s| s.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut server_gen = vec![GenId::new(0); len];
        // Zero GPUs marks an id gap (server ids are normally dense).
        let mut server_gpus = vec![0u32; len];
        let num_gens = cluster.catalog.ids().count();
        let mut gen_load = vec![BTreeSet::new(); num_gens];
        for s in &cluster.servers {
            server_gen[s.id.index()] = s.gen;
            server_gpus[s.id.index()] = s.num_gpus;
            gen_load[s.gen.index()].insert((load_key(0, s.num_gpus), s.id));
        }
        ClusterIndex {
            by_user: vec![JobSet::new(); num_users],
            demand: vec![0; len],
            res_version: vec![0; len],
            user_demand: vec![0; num_users],
            user_model_gang: vec![Vec::new(); num_users],
            model_active: vec![JobSet::new(); models.len()],
            models,
            num_gens,
            user_gen_assigned: vec![0; num_users * num_gens],
            user_server_assigned: vec![Vec::new(); num_users],
            gen_load,
            server_gen,
            server_gpus,
            // Sized so the changes accumulating between two consecutive
            // planner drains (one round's worth of finishes plus applied
            // placements) fit without lapping the consumer even at
            // million-job arrival rates.
            dirty_ring: vec![ServerId::new(0); (len * 8).max(8192)],
            ..ClusterIndex::default()
        }
    }

    /// A job's arrival event fired: it becomes visible and starts pending.
    pub(crate) fn on_arrive(&mut self, job: JobId, user: UserId, gang: u32, model: ModelId) {
        self.arrived.insert(job);
        self.active.insert(job);
        self.pending.insert(job);
        let u = user.index();
        self.by_user[u].insert(job);
        self.user_demand[u] += u64::from(gang);
        add_sorted(&mut self.user_model_gang[u], model, u64::from(gang));
        self.model_active[model.index()].insert(job);
    }

    /// A job finished (from any active state; evicted jobs can finish while
    /// pending).
    pub(crate) fn on_finish(&mut self, job: JobId, user: UserId, gang: u32, model: ModelId) {
        self.active.remove(job);
        self.pending.remove(job);
        let u = user.index();
        self.by_user[u].remove(job);
        self.user_demand[u] = self.user_demand[u].saturating_sub(u64::from(gang));
        sub_sorted(&mut self.user_model_gang[u], model, u64::from(gang));
        self.model_active[model.index()].remove(job);
    }

    /// A pending job became resident on `server`.
    pub(crate) fn on_place(&mut self, job: JobId, server: ServerId, gang: u32) {
        self.pending.remove(job);
        self.add_demand(server, gang);
    }

    /// A resident or migrating job fell back to pending (eviction on server
    /// failure, or a migration stranded by a destination failure).
    pub(crate) fn on_evict(&mut self, job: JobId) {
        self.pending.insert(job);
    }

    /// A job's `server` field was set to `server` (placement, or a migration
    /// departure pointing it at the destination).
    pub(crate) fn assign(&mut self, user: UserId, server: ServerId, gang: u32) {
        let slot = user.index() * self.num_gens + self.server_gen[server.index()].index();
        self.user_gen_assigned[slot] += u64::from(gang);
        add_sorted(
            &mut self.user_server_assigned[user.index()],
            server,
            u64::from(gang),
        );
    }

    /// A job's `server` field stopped pointing at `server` (finish, eviction
    /// or migration departure).
    pub(crate) fn unassign(&mut self, user: UserId, server: ServerId, gang: u32) {
        let slot = user.index() * self.num_gens + self.server_gen[server.index()].index();
        self.user_gen_assigned[slot] = self.user_gen_assigned[slot].saturating_sub(u64::from(gang));
        sub_sorted(
            &mut self.user_server_assigned[user.index()],
            server,
            u64::from(gang),
        );
    }

    /// Records a residency change on `server` in the dirty ring.
    fn note_dirty(&mut self, server: ServerId) {
        let cap = self.dirty_ring.len();
        if cap > 0 {
            self.dirty_ring[(self.dirty_seq % cap as u64) as usize] = server;
        }
        self.dirty_seq += 1;
    }

    /// Moves `server` between load-ordered positions after a demand change.
    fn rekey_load(&mut self, server: ServerId, old: u32, new: u32) {
        let gpus = self.server_gpus[server.index()];
        let set = &mut self.gen_load[self.server_gen[server.index()].index()];
        set.remove(&(load_key(old, gpus), server));
        set.insert((load_key(new, gpus), server));
    }

    /// Adds a resident gang's GPUs to a server's demand.
    pub(crate) fn add_demand(&mut self, server: ServerId, gang: u32) {
        let old = self.demand[server.index()];
        self.demand[server.index()] = old + gang;
        self.res_version[server.index()] += 1;
        self.rekey_load(server, old, old + gang);
        self.note_dirty(server);
    }

    /// Removes a resident gang's GPUs from a server's demand.
    pub(crate) fn sub_demand(&mut self, server: ServerId, gang: u32) {
        let old = self.demand[server.index()];
        debug_assert!(old >= gang, "demand underflow on {server}");
        self.demand[server.index()] = old - gang;
        self.res_version[server.index()] += 1;
        self.rekey_load(server, old, old - gang);
        self.note_dirty(server);
    }

    /// A server failed and its residents were all evicted at once.
    pub(crate) fn clear_demand(&mut self, server: ServerId) {
        let old = self.demand[server.index()];
        self.demand[server.index()] = 0;
        self.res_version[server.index()] += 1;
        self.rekey_load(server, old, 0);
        self.note_dirty(server);
    }

    /// Recomputes every index from scratch and compares: the differential
    /// oracle. `arrived` is authoritative (only the event loop knows which
    /// arrivals fired), so it is sanity-checked against job metadata and the
    /// derived sets are recomputed relative to it. The naive side builds
    /// `BTreeMap`s keyed by id and model name; the dense tables are read
    /// back into the same shape, so a wrong rank, a stale zero entry or an
    /// unsorted list shows up as a divergence.
    pub(crate) fn verify(
        &self,
        now: gfair_types::SimTime,
        jobs: &JobTable,
        residents: &[Vec<JobId>],
    ) -> Result<(), String> {
        // Sanity: arrivals never fire early, and any job that has changed
        // state, run, or finished must have arrived.
        for (id, j) in jobs.iter() {
            if self.arrived.contains(id) {
                if j.info.arrival > now {
                    return Err(format!("job {id} marked arrived before its arrival time"));
                }
            } else if j.info.state != JobState::Pending || j.first_run.is_some() {
                return Err(format!("job {id} progressed without being arrived"));
            }
        }
        // Derived sets, recomputed naively.
        let mut active = BTreeSet::new();
        let mut pending = BTreeSet::new();
        let mut by_user: BTreeMap<UserId, BTreeSet<JobId>> = BTreeMap::new();
        let mut user_demand: BTreeMap<UserId, u64> = BTreeMap::new();
        let mut user_model_gang: BTreeMap<(UserId, Arc<str>), u64> = BTreeMap::new();
        let mut model_active: BTreeMap<Arc<str>, BTreeSet<JobId>> = BTreeMap::new();
        let mut user_gen_assigned: BTreeMap<(UserId, GenId), u64> = BTreeMap::new();
        let mut user_server_assigned: BTreeMap<(UserId, ServerId), u64> = BTreeMap::new();
        for id in self.arrived.iter() {
            let j = jobs.get(id).ok_or_else(|| format!("unknown job {id}"))?;
            let model: Arc<str> = Arc::from(j.spec.model.name.as_str());
            if self.models.get(j.info.model_id.index()) != Some(&model) {
                return Err(format!(
                    "job {id} model {model} has the wrong id {}",
                    j.info.model_id
                ));
            }
            if j.info.state.is_active() {
                active.insert(id);
                by_user.entry(j.info.user).or_default().insert(id);
                *user_demand.entry(j.info.user).or_insert(0) += u64::from(j.info.gang);
                *user_model_gang
                    .entry((j.info.user, Arc::clone(&model)))
                    .or_insert(0) += u64::from(j.info.gang);
                model_active.entry(model).or_default().insert(id);
                if let Some(s) = j.info.server {
                    let gen = self.server_gen[s.index()];
                    *user_gen_assigned.entry((j.info.user, gen)).or_insert(0) +=
                        u64::from(j.info.gang);
                    *user_server_assigned.entry((j.info.user, s)).or_insert(0) +=
                        u64::from(j.info.gang);
                }
            }
            if j.info.state == JobState::Pending {
                pending.insert(id);
            }
        }
        let dense_active: BTreeSet<JobId> = self.active.iter().collect();
        if active != dense_active {
            return Err(format!(
                "active index diverged: naive {active:?} vs index {dense_active:?}"
            ));
        }
        let dense_pending: BTreeSet<JobId> = self.pending.iter().collect();
        if pending != dense_pending {
            return Err(format!(
                "pending index diverged: naive {pending:?} vs index {dense_pending:?}"
            ));
        }
        // The dense tables, read back as maps.
        let user = |u: usize| UserId::new(u as u32);
        let dense_by_user: BTreeMap<UserId, BTreeSet<JobId>> = (self.by_user.iter().enumerate())
            .filter(|(_, set)| !set.is_empty())
            .map(|(u, set)| (user(u), set.iter().collect()))
            .collect();
        if by_user != dense_by_user {
            return Err(format!(
                "by_user index diverged: naive {by_user:?} vs index {dense_by_user:?}"
            ));
        }
        let dense_user_demand: BTreeMap<UserId, u64> = (self.user_demand.iter().enumerate())
            .filter(|(_, &d)| d > 0)
            .map(|(u, &d)| (user(u), d))
            .collect();
        if user_demand != dense_user_demand {
            return Err(format!(
                "user_demand index diverged: naive {user_demand:?} vs index {dense_user_demand:?}"
            ));
        }
        let mut dense_user_model_gang: BTreeMap<(UserId, Arc<str>), u64> = BTreeMap::new();
        for (u, table) in self.user_model_gang.iter().enumerate() {
            if !table.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(format!("user_model_gang of {} is not rank-sorted", user(u)));
            }
            for &(r, d) in table {
                let model = Arc::clone(&self.models[r.index()]);
                dense_user_model_gang.insert((user(u), model), d);
            }
        }
        if user_model_gang != dense_user_model_gang {
            return Err(format!(
                "user_model_gang index diverged: naive {user_model_gang:?} vs index {dense_user_model_gang:?}"
            ));
        }
        let dense_model_active: BTreeMap<Arc<str>, BTreeSet<JobId>> =
            (self.models.iter().zip(&self.model_active))
                .filter(|(_, set)| !set.is_empty())
                .map(|(m, set)| (Arc::clone(m), set.iter().collect()))
                .collect();
        if model_active != dense_model_active {
            return Err(format!(
                "model_active index diverged: naive {model_active:?} vs index {dense_model_active:?}"
            ));
        }
        let dense_user_gen_assigned: BTreeMap<(UserId, GenId), u64> =
            (self.user_gen_assigned.iter().enumerate())
                .filter(|(_, &d)| d > 0)
                .map(|(i, &d)| {
                    let gen = GenId::new((i % self.num_gens) as u32);
                    ((user(i / self.num_gens), gen), d)
                })
                .collect();
        if user_gen_assigned != dense_user_gen_assigned {
            return Err(format!(
                "user_gen_assigned index diverged: naive {user_gen_assigned:?} vs index {dense_user_gen_assigned:?}"
            ));
        }
        let mut dense_user_server_assigned: BTreeMap<(UserId, ServerId), u64> = BTreeMap::new();
        for (u, table) in self.user_server_assigned.iter().enumerate() {
            if !table.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(format!(
                    "user_server_assigned of {} is not server-sorted",
                    user(u)
                ));
            }
            for &(s, d) in table {
                dense_user_server_assigned.insert((user(u), s), d);
            }
        }
        if user_server_assigned != dense_user_server_assigned {
            return Err(format!(
                "user_server_assigned diverged: naive {user_server_assigned:?} vs index {dense_user_server_assigned:?}"
            ));
        }
        let mut demand = vec![0u32; self.demand.len()];
        for (s, list) in residents.iter().enumerate() {
            if !list.is_sorted_by(|a, b| a < b) {
                let s = ServerId::new(s as u32);
                return Err(format!("residents of server {s} are not id-sorted"));
            }
            demand[s] = list.iter().map(|&id| jobs[id].info.gang).sum::<u32>();
        }
        if demand != self.demand {
            return Err(format!(
                "demand index diverged: naive {demand:?} vs index {:?}",
                self.demand
            ));
        }
        // The load-ordered sets must hold every server exactly once, keyed
        // by its current demand.
        let total: usize = self.gen_load.iter().map(BTreeSet::len).sum();
        let real = self.server_gpus.iter().filter(|&&g| g > 0).count();
        if total != real {
            return Err(format!("gen_load holds {total} entries for {real} servers"));
        }
        for (i, &d) in demand.iter().enumerate() {
            if self.server_gpus[i] == 0 {
                continue;
            }
            let s = ServerId::new(i as u32);
            let key = (load_key(d, self.server_gpus[i]), s);
            if !self.gen_load[self.server_gen[i].index()].contains(&key) {
                return Err(format!("gen_load misses server {s} at demand {d}"));
            }
        }
        Ok(())
    }
}
