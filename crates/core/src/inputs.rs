//! Dense, reusable policy inputs.
//!
//! Every allocation epoch the driver must hand the policy the active users'
//! demand, per-generation speedup estimates and (for finish-time-fairness
//! policies) ρ̂. The original implementation collected fresh `BTreeMap`s from
//! full index scans on every refresh — an allocation and `O(n log n)`
//! rebuild whose cost grew with the whole cluster. [`PolicyInputs`] replaces
//! those maps with dense `UserId`-indexed vectors filled straight from the
//! engine's materialized cluster-index aggregates
//! ([`SimView::user_demands`], [`SimView::user_model_demands`]) into reused
//! buffers: no allocation after the first epoch, O(active) refresh cost, and
//! round-stamped validity so nothing is ever cleared.
//!
//! ## Determinism
//!
//! Fills iterate the same id-ordered aggregates in the same order as the
//! retained `BTreeMap` builders, so every float accumulation sequence — the
//! demand-weighted speedup fold, the per-user ρ̂ max — is bit-identical to
//! the from-scratch path. [`PolicyInputs::audit`] *is* that from-scratch
//! path: it rebuilds the maps and compares them against the dense state
//! bit-for-bit; the driver runs it after every refresh in debug builds, so
//! the whole test suite doubles as the differential oracle.

use crate::profiler::Profiler;
use gfair_sim::{JobInfo, SimView};
use gfair_types::{GenId, UserId};
use std::collections::BTreeMap;

/// Dense per-user inputs to an allocation policy, refreshed once per epoch
/// from the cluster-index aggregates and reused across epochs.
///
/// All vectors are indexed by [`UserId::index`]; an entry is valid only if
/// its stamp matches the current refresh epoch, so stale values from
/// previous epochs are unreachable without any clearing pass.
#[derive(Debug, Default)]
pub struct PolicyInputs {
    /// Generation count, cached at init.
    num_gens: usize,
    /// Per-user tickets, re-synced from the user table on every signature
    /// read (tickets can change mid-run via scheduled priority events; the
    /// user *set* is fixed, so the sync is a linear slice copy).
    tickets: Vec<u64>,
    /// Refresh counter; `stamp[u] == epoch` marks `demand`/`speedup` rows
    /// valid for this epoch.
    epoch: u32,
    stamp: Vec<u32>,
    /// Per-user total GPU demand (sum of active gang sizes).
    demand: Vec<f64>,
    /// Per-(user, generation) speedup estimates, `num_gens` slots per user;
    /// NaN encodes "unprofiled".
    speedup: Vec<f64>,
    /// Scratch for the demand-weighted speedup fold (weights and weighted
    /// sums per (user, generation) slot, stamped like the outputs).
    fold_stamp: Vec<u32>,
    fold_weight: Vec<f64>,
    fold_sum: Vec<f64>,
    /// ρ̂ state, stamped separately (only maintained for policies that ask).
    rho_epoch: u32,
    rho_stamp: Vec<u32>,
    rho: Vec<f64>,
}

impl PolicyInputs {
    /// Creates an empty input set; sized lazily by
    /// [`ensure_init`](Self::ensure_init).
    pub fn new() -> Self {
        PolicyInputs::default()
    }

    /// Sizes the buffers from the cluster and the user table. Idempotent;
    /// call once per scheduler init.
    pub fn ensure_init(&mut self, view: &SimView<'_>) {
        if !self.tickets.is_empty() {
            return;
        }
        self.num_gens = view.cluster().catalog.len();
        let num_users = view
            .users()
            .iter()
            .map(|u| u.id.index() + 1)
            .max()
            .unwrap_or(0);
        self.tickets = vec![1; num_users];
        for u in view.users() {
            self.tickets[u.id.index()] = u.tickets;
        }
        self.stamp = vec![0; num_users];
        self.demand = vec![0.0; num_users];
        self.speedup = vec![f64::NAN; num_users * self.num_gens];
        self.fold_stamp = vec![0; num_users * self.num_gens];
        self.fold_weight = vec![0.0; num_users * self.num_gens];
        self.fold_sum = vec![0.0; num_users * self.num_gens];
        self.rho_stamp = vec![0; num_users];
        self.rho = vec![1.0; num_users];
    }

    /// Number of GPU generations covered.
    pub fn num_gens(&self) -> usize {
        self.num_gens
    }

    /// The user's configured tickets (1 for unknown users).
    pub fn tickets(&self, user: UserId) -> u64 {
        self.tickets.get(user.index()).copied().unwrap_or(1)
    }

    /// The active-user signature: (user, tickets) for users with active
    /// jobs, in user-id order, read off the cluster index and the dense
    /// ticket table (no per-round map rebuild). The ticket table is
    /// re-synced from the user specs first — a linear copy — because
    /// scheduled priority events can change a user's tickets mid-run.
    pub fn active_signature(&mut self, view: &SimView<'_>) -> Vec<(UserId, u64)> {
        for u in view.users() {
            self.tickets[u.id.index()] = u.tickets;
        }
        view.active_users()
            .into_iter()
            .map(|u| (u, self.tickets(u)))
            .collect()
    }

    /// Total GPU demand of `user`'s active jobs this epoch (0.0 if the user
    /// was inactive at the last refresh).
    pub fn demand(&self, user: UserId) -> f64 {
        let i = user.index();
        if self.stamp.get(i) == Some(&self.epoch) {
            self.demand[i]
        } else {
            0.0
        }
    }

    /// The user's estimated speedup on generation `gen` relative to the
    /// base generation: `Some(1.0)` for the base generation itself, `None`
    /// where no active job of the user is profiled on `gen` (or the user
    /// was inactive at the last refresh).
    pub fn speedup(&self, user: UserId, gen: usize) -> Option<f64> {
        let i = user.index();
        if self.stamp.get(i) != Some(&self.epoch) {
            return None;
        }
        let s = self.speedup[i * self.num_gens + gen];
        if s.is_nan() {
            None
        } else {
            Some(s)
        }
    }

    /// The user's online finish-time-fairness estimate ρ̂ (worst active
    /// job), defaulting to 1.0 where not maintained.
    pub fn rho(&self, user: UserId) -> f64 {
        let i = user.index();
        if self.rho_stamp.get(i) == Some(&self.rho_epoch) {
            self.rho[i]
        } else {
            1.0
        }
    }

    /// Refreshes demand and speedups for the current active set from the
    /// cluster-index aggregates. O(active users × generations + distinct
    /// (user, model) pairs × generations); allocation-free after init.
    pub fn refresh(&mut self, view: &SimView<'_>, profiler: &Profiler) {
        debug_assert!(!self.tickets.is_empty() || view.users().is_empty());
        self.epoch = self.epoch.wrapping_add(1);
        let epoch = self.epoch;
        let gens = self.num_gens;
        // Demand straight off the per-user index aggregate; stamping here
        // marks the user's speedup row valid too (the fill below writes
        // every slot of every stamped row).
        for (u, d) in view.user_demands() {
            let i = u.index();
            self.stamp[i] = epoch;
            self.demand[i] = d as f64;
        }
        // Demand-weighted speedup fold over the (user, model) aggregates —
        // the same iteration order as the from-scratch builder, so the
        // float accumulation sequence per (user, generation) is identical.
        let base = GenId::new(0);
        for (user, model, demand) in view.user_model_demands() {
            let row = user.index() * gens;
            for g in 0..gens {
                let gen = GenId::new(g as u32);
                if let Some(s) = profiler.speedup(model, gen, base) {
                    let slot = row + g;
                    if self.fold_stamp[slot] != epoch {
                        self.fold_stamp[slot] = epoch;
                        self.fold_weight[slot] = 0.0;
                        self.fold_sum[slot] = 0.0;
                    }
                    self.fold_weight[slot] += demand as f64;
                    self.fold_sum[slot] += s * demand as f64;
                }
            }
        }
        for u in view.active_users() {
            let i = u.index();
            self.stamp[i] = epoch;
            let row = i * gens;
            self.speedup[row] = 1.0;
            for g in 1..gens {
                let slot = row + g;
                self.speedup[slot] =
                    if self.fold_stamp[slot] == epoch && self.fold_weight[slot] > 0.0 {
                        self.fold_sum[slot] / self.fold_weight[slot]
                    } else {
                        f64::NAN
                    };
            }
        }
    }

    /// Refreshes the online ρ̂ estimates: the worst ratio of time-in-system
    /// to attained service over each user's active jobs, quantum-smoothed
    /// so brand-new jobs start at ρ̂ = 1. Attained service is the rounds the
    /// engine ran the job ([`gfair_sim::JobInfo::rounds_run`]) times the
    /// quantum.
    pub fn refresh_rho(&mut self, view: &SimView<'_>) {
        self.rho_epoch = self.rho_epoch.wrapping_add(1);
        let epoch = self.rho_epoch;
        for j in view.active_jobs() {
            let r = job_rho(view, j);
            let i = j.user.index();
            if self.rho_stamp[i] != epoch {
                self.rho_stamp[i] = epoch;
                self.rho[i] = r;
            } else if r > self.rho[i] {
                self.rho[i] = r;
            }
        }
    }

    /// From-scratch audit oracle: rebuilds the demand / speedup (and, when
    /// `check_rho` is set, ρ̂) maps the way the original collectors did —
    /// full index scans into fresh `BTreeMap`s — and compares them against
    /// the dense state *bit-for-bit*. The drivers call this after every
    /// refresh in debug builds, so every test run differential-checks the
    /// incremental path. Returns a description of the first divergence.
    #[doc(hidden)]
    pub fn audit(
        &self,
        view: &SimView<'_>,
        profiler: &Profiler,
        check_rho: bool,
    ) -> Result<(), String> {
        let demand_oracle = oracle_demands(view);
        let mut stamped = 0usize;
        for (i, &s) in self.stamp.iter().enumerate() {
            if s == self.epoch {
                stamped += 1;
                let u = UserId::new(i as u32);
                let want = demand_oracle
                    .get(&u)
                    .ok_or_else(|| format!("user {u}: stamped but absent from oracle"))?;
                if want.to_bits() != self.demand[i].to_bits() {
                    return Err(format!(
                        "user {u}: demand {} != oracle {want}",
                        self.demand[i]
                    ));
                }
            }
        }
        if stamped != demand_oracle.len() {
            return Err(format!(
                "stamped {stamped} users, oracle has {}",
                demand_oracle.len()
            ));
        }
        let speedup_oracle = oracle_user_speedups(profiler, view);
        for (u, row) in &speedup_oracle {
            for (g, want) in row.iter().enumerate() {
                let got = self.speedup(*u, g);
                let same = match (got, want) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                    _ => false,
                };
                if !same {
                    return Err(format!(
                        "user {u} gen {g}: speedup {got:?} != oracle {want:?}"
                    ));
                }
            }
        }
        if check_rho {
            let rho_oracle = oracle_rho(view);
            let mut rho_stamped = 0usize;
            for (i, &s) in self.rho_stamp.iter().enumerate() {
                if s == self.rho_epoch {
                    rho_stamped += 1;
                    let u = UserId::new(i as u32);
                    let want = rho_oracle
                        .get(&u)
                        .ok_or_else(|| format!("user {u}: rho stamped but absent from oracle"))?;
                    if want.to_bits() != self.rho[i].to_bits() {
                        return Err(format!("user {u}: rho {} != oracle {want}", self.rho[i]));
                    }
                }
            }
            if rho_stamped != rho_oracle.len() {
                return Err(format!(
                    "rho stamped {rho_stamped} users, oracle has {}",
                    rho_oracle.len()
                ));
            }
        }
        Ok(())
    }

    /// Builds inputs directly from explicit per-user maps. This is the unit
    /// tests' constructor (the market proptests feed synthetic instances);
    /// production code fills from the cluster index via
    /// [`refresh`](Self::refresh).
    #[doc(hidden)]
    pub fn from_maps(
        num_gens: usize,
        demands: &BTreeMap<UserId, f64>,
        speedups: &BTreeMap<UserId, Vec<Option<f64>>>,
        rho: &BTreeMap<UserId, f64>,
    ) -> Self {
        let num_users = demands
            .keys()
            .chain(speedups.keys())
            .chain(rho.keys())
            .map(|u| u.index() + 1)
            .max()
            .unwrap_or(0);
        let mut inputs = PolicyInputs {
            num_gens,
            tickets: vec![1; num_users],
            epoch: 1,
            stamp: vec![0; num_users],
            demand: vec![0.0; num_users],
            speedup: vec![f64::NAN; num_users * num_gens],
            fold_stamp: Vec::new(),
            fold_weight: Vec::new(),
            fold_sum: Vec::new(),
            rho_epoch: 1,
            rho_stamp: vec![0; num_users],
            rho: vec![1.0; num_users],
        };
        for (u, d) in demands {
            inputs.stamp[u.index()] = 1;
            inputs.demand[u.index()] = *d;
        }
        for (u, row) in speedups {
            inputs.stamp[u.index()] = 1;
            for (g, s) in row.iter().enumerate() {
                inputs.speedup[u.index() * num_gens + g] = s.unwrap_or(f64::NAN);
            }
        }
        for (u, r) in rho {
            inputs.rho_stamp[u.index()] = 1;
            inputs.rho[u.index()] = *r;
        }
        inputs
    }
}

/// From-scratch per-user demand map — the audit oracle's reference
/// implementation (this was the production collector before the dense
/// refresh).
pub(crate) fn oracle_demands(view: &SimView<'_>) -> BTreeMap<UserId, f64> {
    view.user_demands().map(|(u, d)| (u, d as f64)).collect()
}

/// From-scratch per-user, per-generation speedup map: the demand-weighted
/// mean of the profiled speedups of the user's active jobs' models, `None`
/// where no job of the user is profiled on that generation. The audit
/// oracle's reference implementation.
pub(crate) fn oracle_user_speedups(
    profiler: &Profiler,
    view: &SimView<'_>,
) -> BTreeMap<UserId, Vec<Option<f64>>> {
    let base = GenId::new(0);
    let num_gens = view.cluster().catalog.len();
    let mut weights: BTreeMap<(UserId, usize), f64> = BTreeMap::new();
    let mut sums: BTreeMap<(UserId, usize), f64> = BTreeMap::new();
    for (user, model, demand) in view.user_model_demands() {
        for g in 0..num_gens {
            let gen = GenId::new(g as u32);
            if let Some(s) = profiler.speedup(model, gen, base) {
                *weights.entry((user, g)).or_insert(0.0) += demand as f64;
                *sums.entry((user, g)).or_insert(0.0) += s * demand as f64;
            }
        }
    }
    let mut out: BTreeMap<UserId, Vec<Option<f64>>> = BTreeMap::new();
    for u in view.active_users() {
        let mut row = vec![None; num_gens];
        row[0] = Some(1.0);
        for (g, slot) in row.iter_mut().enumerate().skip(1) {
            if let (Some(&w), Some(&s)) = (weights.get(&(u, g)), sums.get(&(u, g))) {
                if w > 0.0 {
                    *slot = Some(s / w);
                }
            }
        }
        out.insert(u, row);
    }
    out
}

/// One job's finish-time-fairness ratio: time in system over attained
/// service, each plus one quantum. Attained service is the rounds the
/// engine ran the job ([`JobInfo::rounds_run`]) times the quantum; both
/// sides are integer microseconds, so the ratio is exact and replay-stable.
fn job_rho(view: &SimView<'_>, j: &JobInfo) -> f64 {
    let q = view.config().quantum.as_micros();
    let attained = u64::from(j.rounds_run) * q;
    let elapsed = (view.now().as_micros()).saturating_sub(j.arrival.as_micros());
    (elapsed + q) as f64 / (attained + q) as f64
}

/// From-scratch per-user ρ̂ map — the audit oracle's reference
/// implementation of the online finish-time-fairness estimate.
pub(crate) fn oracle_rho(view: &SimView<'_>) -> BTreeMap<UserId, f64> {
    let mut rho: BTreeMap<UserId, f64> = BTreeMap::new();
    for j in view.active_jobs() {
        let r = job_rho(view, j);
        rho.entry(j.user)
            .and_modify(|m| {
                if r > *m {
                    *m = r;
                }
            })
            .or_insert(r);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn from_maps_round_trips_accessors() {
        let demands = BTreeMap::from([(u(0), 4.0), (u(2), 7.0)]);
        let speedups = BTreeMap::from([
            (u(0), vec![Some(1.0), Some(2.5)]),
            (u(2), vec![Some(1.0), None]),
        ]);
        let rho = BTreeMap::from([(u(2), 3.5)]);
        let inputs = PolicyInputs::from_maps(2, &demands, &speedups, &rho);
        assert_eq!(inputs.demand(u(0)), 4.0);
        assert_eq!(inputs.demand(u(1)), 0.0, "unstamped user has no demand");
        assert_eq!(inputs.demand(u(2)), 7.0);
        assert_eq!(inputs.speedup(u(0), 1), Some(2.5));
        assert_eq!(inputs.speedup(u(2), 1), None, "unprofiled slot is None");
        assert_eq!(inputs.speedup(u(1), 0), None, "unknown user has no row");
        assert_eq!(inputs.rho(u(2)), 3.5);
        assert_eq!(inputs.rho(u(0)), 1.0, "rho defaults to 1.0");
    }

    #[test]
    fn stale_epochs_are_unreachable() {
        let demands = BTreeMap::from([(u(0), 4.0)]);
        let mut inputs = PolicyInputs::from_maps(1, &demands, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(inputs.demand(u(0)), 4.0);
        // A new epoch invalidates every row without clearing anything.
        inputs.epoch = inputs.epoch.wrapping_add(1);
        assert_eq!(inputs.demand(u(0)), 0.0);
        assert_eq!(inputs.speedup(u(0), 0), None);
    }
}
