//! Read-only cluster view handed to schedulers.
//!
//! [`SimView`] exposes everything a real cluster scheduler could know —
//! topology, job metadata, residency, states — and nothing it couldn't
//! (ground-truth rates, exact remaining work).

use crate::index::ClusterIndex;
use crate::job::{JobInfo, JobTable};
use crate::jobset::JobSet;
use gfair_types::{
    ClusterSpec, GenId, JobId, ModelId, ServerId, ServerSpec, SimConfig, SimTime, UserId, UserSpec,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Read-only snapshot of simulation state at a callback.
///
/// Job- and residency-centric queries answer from the engine's materialized
/// cluster index in O(answer) — they never scan finished jobs or the full
/// job table.
pub struct SimView<'a> {
    pub(crate) now: SimTime,
    pub(crate) cluster: &'a ClusterSpec,
    pub(crate) users: &'a [UserSpec],
    pub(crate) jobs: &'a JobTable,
    /// Id-sorted resident jobs, indexed by `ServerId::index()`.
    pub(crate) residents: &'a [Vec<JobId>],
    /// The engine's run set per server, indexed by `ServerId::index()`.
    pub(crate) run_sets: &'a [Vec<JobId>],
    pub(crate) index: &'a ClusterIndex,
    pub(crate) down: &'a BTreeSet<ServerId>,
    pub(crate) partitioned: &'a BTreeSet<ServerId>,
    pub(crate) config: &'a SimConfig,
    /// Servers that are down or partitioned (|down ∪ partitioned|),
    /// maintained by the engine so `reachable_count` is O(1).
    pub(crate) unreachable: u32,
    /// Total GPUs on online servers, maintained by the engine.
    pub(crate) gpus_up: u32,
}

impl<'a> SimView<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cluster topology.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }

    /// All users, in id order.
    pub fn users(&self) -> &'a [UserSpec] {
        self.users
    }

    /// Simulation configuration (quantum, intervals, ...).
    pub fn config(&self) -> &'a SimConfig {
        self.config
    }

    /// True if `server` is currently online.
    pub fn is_up(&self, server: ServerId) -> bool {
        !self.down.contains(&server)
    }

    /// Online servers, in id order.
    pub fn up_servers(&self) -> impl Iterator<Item = &'a ServerSpec> + '_ {
        self.cluster
            .servers
            .iter()
            .filter(move |s| !self.down.contains(&s.id))
    }

    /// True if `server` is online *and* the central scheduler can reach its
    /// local scheduler (no active network partition).
    ///
    /// A partitioned server keeps running — its resident jobs make progress
    /// on its last-received stride state — but placements and migrations
    /// targeting it cannot be delivered, so schedulers should treat only
    /// reachable servers as decision targets.
    pub fn is_reachable(&self, server: ServerId) -> bool {
        !self.down.contains(&server) && !self.partitioned.contains(&server)
    }

    /// Online, reachable servers, in id order.
    pub fn reachable_servers(&self) -> impl Iterator<Item = &'a ServerSpec> + '_ {
        self.cluster
            .servers
            .iter()
            .filter(move |s| !self.down.contains(&s.id) && !self.partitioned.contains(&s.id))
    }

    /// Online, reachable servers of one generation, in id order.
    pub fn reachable_servers_of_gen(
        &self,
        gen: gfair_types::GenId,
    ) -> impl Iterator<Item = &'a ServerSpec> + '_ {
        self.reachable_servers().filter(move |s| s.gen == gen)
    }

    /// Metadata for a job, if known.
    pub fn job(&self, id: JobId) -> Option<&'a JobInfo> {
        self.jobs.get(id).map(|j| &j.info)
    }

    /// All jobs submitted so far, in id order.
    ///
    /// Jobs whose arrival event has not fired yet are invisible — a real
    /// scheduler cannot see tomorrow's submissions.
    pub fn jobs(&self) -> impl Iterator<Item = &'a JobInfo> + '_ {
        let jobs = self.jobs;
        self.index.arrived.iter().map(move |id| &jobs[id].info)
    }

    /// Jobs that have arrived and are not finished, in id order.
    pub fn active_jobs(&self) -> impl Iterator<Item = &'a JobInfo> + '_ {
        let jobs = self.jobs;
        self.index.active.iter().map(move |id| &jobs[id].info)
    }

    /// Arrived jobs awaiting placement, in id order.
    pub fn pending_jobs(&self) -> impl Iterator<Item = &'a JobInfo> + '_ {
        let jobs = self.jobs;
        self.index.pending.iter().map(move |id| &jobs[id].info)
    }

    /// Ids of jobs resident on `server`, in id order.
    pub fn resident(&self, server: ServerId) -> impl Iterator<Item = JobId> + '_ {
        self.residents
            .get(server.index())
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The set the engine runs on `server` every quantum until a plan
    /// installs another (see [`crate::RoundPlan`]); during a round's
    /// callbacks, the set it ran last round. Empty for an unknown server.
    pub fn run_set(&self, server: ServerId) -> &'a [JobId] {
        self.run_sets.get(server.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of GPUs demanded by jobs resident on `server` (sum of gangs).
    pub fn resident_demand(&self, server: ServerId) -> u32 {
        self.index.demand.get(server.index()).copied().unwrap_or(0)
    }

    /// Residency change counter for `server`: bumped on every change to the
    /// server's resident set. Two equal values bracket a span with no
    /// residency change, so a scheduler that cached state derived from the
    /// residency (local membership, say) can skip re-deriving it.
    pub fn residency_version(&self, server: ServerId) -> u64 {
        self.index
            .res_version
            .get(server.index())
            .copied()
            .unwrap_or(0)
    }

    /// Demand-to-capacity ratio of `server` (the paper's load signal for
    /// migration-based balancing).
    pub fn server_load(&self, server: ServerId) -> f64 {
        let gpus = self.cluster.server(server).num_gpus;
        self.resident_demand(server) as f64 / gpus as f64
    }

    /// Users that currently have at least one active job, in id order.
    pub fn active_users(&self) -> Vec<UserId> {
        (self.index.by_user.iter().enumerate())
            .filter(|(_, set)| !set.is_empty())
            .map(|(u, _)| UserId::new(u as u32))
            .collect()
    }

    /// Active jobs belonging to `user`, in id order.
    pub fn jobs_of_user(&self, user: UserId) -> impl Iterator<Item = &'a JobInfo> + '_ {
        let jobs = self.jobs;
        self.index
            .by_user
            .get(user.index())
            .into_iter()
            .flat_map(move |set| set.iter().map(move |id| &jobs[id].info))
    }

    /// Number of online, reachable servers, in O(1) (maintained by the
    /// engine across failure/recovery/partition events).
    pub fn reachable_count(&self) -> u32 {
        self.cluster.servers.len() as u32 - self.unreachable
    }

    /// Total GPUs on online servers, in O(1).
    pub fn gpus_up(&self) -> u32 {
        self.gpus_up
    }

    /// Per-user total GPU demand over active jobs, in user-id order. Users
    /// with no active job are absent.
    pub fn user_demands(&self) -> impl Iterator<Item = (UserId, u64)> + 'a {
        (self.index.user_demand.iter().enumerate())
            .filter(|(_, &d)| d > 0)
            .map(|(u, &d)| (UserId::new(u as u32), d))
    }

    /// Per-(user, model) GPU demand over active jobs, in (user-id, model)
    /// order. Zero entries are absent.
    pub fn user_model_demands(&self) -> impl Iterator<Item = (UserId, ModelId, u64)> + 'a {
        (self.index.user_model_gang.iter().enumerate()).flat_map(move |(u, table)| {
            (table.iter()).map(move |&(m, d)| (UserId::new(u as u32), m, d))
        })
    }

    /// The trace's distinct model names in `str` order, indexed by
    /// [`ModelId::index`]: the table every job's `model_id` points into.
    /// Shared, so a scheduler can keep it past the run.
    pub fn models(&self) -> &'a Arc<[Arc<str>]> {
        &self.index.models
    }

    /// The name of model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a model of this simulation's trace.
    pub fn model_name(&self, id: ModelId) -> &'a Arc<str> {
        &self.index.models[id.index()]
    }

    /// GPUs of `user`'s placed jobs (jobs with a server assigned, including
    /// in-flight migrations toward their destination) on generation `gen`.
    pub fn user_gen_assigned(&self, user: UserId, gen: GenId) -> u64 {
        let gens = self.index.num_gens;
        if gen.index() >= gens {
            return 0;
        }
        (self.index.user_gen_assigned)
            .get(user.index() * gens + gen.index())
            .copied()
            .unwrap_or(0)
    }

    /// GPUs of `user`'s placed jobs on `server`.
    pub fn user_server_assigned(&self, user: UserId, server: ServerId) -> u64 {
        let table = self.index.user_server_assigned.get(user.index());
        table
            .and_then(|t| {
                t.binary_search_by_key(&server, |&(s, _)| s)
                    .ok()
                    .map(|i| t[i].1)
            })
            .unwrap_or(0)
    }

    /// All `(server, gpus)` pairs where `user` has placed jobs, in ascending
    /// server order. Sparse companion to
    /// [`user_server_assigned`](Self::user_server_assigned): a user touches
    /// only a handful of servers, so scans over this beat scans over the
    /// cluster.
    pub fn user_server_assignments(
        &self,
        user: UserId,
    ) -> impl Iterator<Item = (ServerId, u64)> + 'a {
        (self.index.user_server_assigned)
            .get(user.index())
            .into_iter()
            .flat_map(|table| table.iter().copied())
    }

    /// Models with at least one active job and those jobs' ids, in model
    /// order.
    pub fn active_models(&self) -> impl Iterator<Item = (ModelId, &'a JobSet)> + 'a {
        (self.index.model_active.iter().enumerate())
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(m, jobs)| (ModelId::new(m as u32), jobs))
    }

    /// Servers of `gen` in ascending (resident load, id) order — the order a
    /// least-loaded scan with `f64::total_cmp` ties broken by lowest id
    /// would visit them. Reverse for a most-loaded-first scan.
    pub fn servers_by_load(&self, gen: GenId) -> impl DoubleEndedIterator<Item = ServerId> + 'a {
        self.index
            .gen_load
            .get(gen.index())
            .into_iter()
            .flat_map(|set| set.iter().map(|&(_, s)| s))
    }

    /// The suffix of [`servers_by_load`](Self::servers_by_load) from
    /// `(load, from)` on, inclusive, each server paired with its resident
    /// load: a range query, so a caller that knows every earlier server is
    /// of no interest starts mid-order instead of walking from the front.
    /// `load` must be non-negative, as every server load is.
    pub fn servers_by_load_from(
        &self,
        gen: GenId,
        load: f64,
        from: ServerId,
    ) -> impl Iterator<Item = (f64, ServerId)> + 'a {
        debug_assert!(load >= 0.0, "negative load bound {load}");
        self.index
            .gen_load
            .get(gen.index())
            .into_iter()
            .flat_map(move |set| set.range((load.to_bits(), from)..))
            .map(|&(key, s)| (f64::from_bits(key), s))
    }

    /// Monotone counter of residency changes across the whole cluster; pair
    /// with [`residency_dirty_since`](Self::residency_dirty_since) to learn
    /// which servers changed between two cursor values.
    pub fn residency_dirty_seq(&self) -> u64 {
        self.index.dirty_seq
    }

    /// Servers whose residency changed since `cursor` (a previously observed
    /// [`residency_dirty_seq`](Self::residency_dirty_seq) value), possibly
    /// with duplicates, in change order. Returns `None` when the bounded
    /// change ring has lapped the cursor — the caller must fall back to a
    /// full pass.
    pub fn residency_dirty_since(
        &self,
        cursor: u64,
    ) -> Option<impl Iterator<Item = ServerId> + 'a> {
        let seq = self.index.dirty_seq;
        let cap = self.index.dirty_ring.len() as u64;
        if seq.saturating_sub(cursor) > cap {
            return None;
        }
        let ring = &self.index.dirty_ring;
        Some((cursor..seq).map(move |i| ring[(i % cap) as usize]))
    }

    /// Re-derives every materialized index from the raw job/residency tables
    /// and compares, returning a description of the first divergence.
    ///
    /// This is the oracle for the differential property tests; it is not
    /// part of the scheduler-facing API.
    #[doc(hidden)]
    pub fn audit_indexes(&self) -> Result<(), String> {
        self.index.verify(self.now, self.jobs, self.residents)
    }
}
