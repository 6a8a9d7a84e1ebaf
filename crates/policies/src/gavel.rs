//! Gavel-style heterogeneity-aware max-min fairness.
//!
//! Reimplements the core idea of "Heterogeneity-Aware Cluster Scheduling
//! Policies for Deep Learning Workloads" (Narayanan et al., OSDI 2020,
//! arXiv 2008.09213): allocate GPU capacity so that the *minimum
//! ticket-normalized effective throughput* across users is maximized, using
//! each user's estimated per-generation speedups. Where Gavel solves an LP
//! per round, this implementation uses a deterministic discrete
//! water-filling solver, so allocations are integral, replayable and
//! byte-stable — a requirement of this workspace's determinism contract
//! that an off-the-shelf LP solver would not meet.
//!
//! ## The batched solver
//!
//! The reference formulation grants one GPU per iteration to the globally
//! poorest user — `O(total GPUs × users × generations)` per epoch, the last
//! per-round cost in the workspace that scaled with the whole cluster.
//! [`water_fill`] keeps those exact semantics (same grant order, bit-stable
//! `tput` accumulation) but runs level-batched: a min-heap keyed on
//! (ticket-normalized throughput, user id) yields the poorest user, who
//! then absorbs a whole run of grants — bounded by their remaining demand,
//! the capacity of their current best generation, and the throughput level
//! at which they would overtake the next-poorest user — before the heap is
//! touched again. Each grant still performs the same
//! `rates[g] / tickets` addition in the same order, so the allocation
//! matrix *and* the float throughputs are byte-identical to the one-at-a-
//! time loop, which is retained as [`water_fill_naive`] and differentially
//! checked in debug builds and under proptest.

use gfair_core::policy::{AllocPolicy, PolicyRound};
use gfair_core::Entitlements;
use gfair_obs::{Candidate, Rejection, TraceEvent};
use gfair_types::{SimConfig, SimDuration, UserId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One user's input to the water-filling solver.
#[derive(Debug, Clone)]
pub struct WfUser {
    /// The user being allocated.
    pub user: UserId,
    /// Configured tickets (throughput is normalized by this, so a
    /// two-ticket user is "poor" until they receive twice the throughput).
    pub tickets: u64,
    /// Total GPU demand (sum of active gang sizes): the saturation point
    /// beyond which the user receives nothing more.
    pub demand: u32,
    /// Estimated throughput rate per GPU generation relative to the base
    /// generation (1.0 where unprofiled), indexed by `GenId::index()`.
    pub rates: Vec<f64>,
}

/// A water-filling solution: the integral per-user, per-generation grant
/// matrix plus each user's final ticket-normalized effective throughput
/// (row order matches the `users` input).
#[derive(Debug, Clone, PartialEq)]
pub struct WfSolve {
    /// Integral grants: `alloc[user][gen]` GPUs of each generation.
    pub alloc: Vec<Vec<u32>>,
    /// Final accumulated ticket-normalized throughput per user, bit-stable
    /// across solver implementations (the accumulation order is part of the
    /// semantics).
    pub tput: Vec<f64>,
}

/// Heap key for the batched solver: (ticket-normalized throughput, user
/// index) under IEEE total order — exactly the comparison the reference
/// loop's argmin scan performs, with the index making every key distinct.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WfKey(f64, usize);

impl Eq for WfKey {}

impl Ord for WfKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for WfKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic discrete water-filling: semantically, repeatedly grant one
/// GPU to the user with the lowest ticket-normalized effective throughput
/// (ties to the lowest user id), who takes it from their highest-rate
/// generation with remaining capacity (ties to the lowest generation id),
/// until every user's demand is met or capacity runs out.
///
/// Runs level-batched (see the module docs): the poorest user is popped
/// from a min-heap once per *run* of grants instead of being re-discovered
/// by a full scan per GPU, so the cost is `O(batches × log users)` plus one
/// flop per grant rather than `O(total GPUs × users × generations)`. The
/// grant order — and therefore both the allocation matrix and the
/// bit-stable `tput` accumulation — is identical to the one-at-a-time
/// reference loop ([`water_fill_naive`]); debug builds assert this on every
/// call. `rates` must not contain NaN (profiler speedups never are).
///
/// Returns the integral grant matrix. The greedy is max-min fair in the
/// discrete sense: a granted GPU can never be re-assigned to an unsaturated
/// user without taking it from someone whose (last-grant-adjusted)
/// throughput is already no higher — the water-filling property test
/// asserts exactly this.
pub fn water_fill(capacity: &[u32], users: &[WfUser]) -> Vec<Vec<u32>> {
    water_fill_solve(capacity, users).alloc
}

/// [`water_fill`] returning the full [`WfSolve`] (grants plus final
/// throughputs) — the differential tests compare both fields against the
/// reference solver bit-for-bit.
pub fn water_fill_solve(capacity: &[u32], users: &[WfUser]) -> WfSolve {
    let num_gens = capacity.len();
    let mut cap = capacity.to_vec();
    let mut alloc = vec![vec![0u32; num_gens]; users.len()];
    let mut got = vec![0u32; users.len()];
    // Ticket-normalized effective throughput accumulated per user. Each
    // grant adds the same `rates[g] / tickets` term in the same order as
    // the reference loop, so the float results are bit-stable.
    let mut tput = vec![0.0f64; users.len()];
    // Per-user generation preference: highest rate first, ties to the
    // lowest generation id — the order the reference loop's strict-`>`
    // capacity scan realizes. Capacity only ever decreases, so a cursor
    // that advances past exhausted generations never has to back up.
    let pref: Vec<Vec<u32>> = users
        .iter()
        .map(|u| {
            debug_assert!(u.rates.iter().all(|r| !r.is_nan()), "NaN water-fill rate");
            let mut order: Vec<u32> = (0..num_gens as u32).collect();
            order.sort_by(|&a, &b| {
                u.rates[b as usize]
                    .total_cmp(&u.rates[a as usize])
                    .then(a.cmp(&b))
            });
            order
        })
        .collect();
    let mut cursor = vec![0usize; users.len()];
    // Min-heap over (tput, user). Keys are never stale: only the popped
    // user's throughput changes while they hold the floor.
    let mut heap: BinaryHeap<Reverse<WfKey>> = users
        .iter()
        .enumerate()
        .filter(|(_, u)| u.demand > 0)
        .map(|(i, _)| Reverse(WfKey(0.0, i)))
        .collect();
    'outer: while let Some(Reverse(WfKey(_, i))) = heap.pop() {
        // The level the next-poorest user sits at: this user keeps
        // absorbing grants while strictly below it (the reference argmin
        // would keep re-selecting them).
        let next = heap.peek().map(|&Reverse(k)| k);
        let u = &users[i];
        loop {
            if got[i] >= u.demand {
                break; // saturated: the user leaves the fill for good
            }
            // Best remaining generation for this user.
            while cursor[i] < num_gens && cap[pref[i][cursor[i]] as usize] == 0 {
                cursor[i] += 1;
            }
            if cursor[i] == num_gens {
                break 'outer; // cluster capacity exhausted
            }
            let g = pref[i][cursor[i]] as usize;
            cap[g] -= 1;
            alloc[i][g] += 1;
            got[i] += 1;
            tput[i] += u.rates[g] / u.tickets as f64;
            if let Some(next) = next {
                if WfKey(tput[i], i) >= next {
                    // No longer the poorest: back into the heap; the batch
                    // ends exactly where the reference loop would have
                    // switched users.
                    heap.push(Reverse(WfKey(tput[i], i)));
                    break;
                }
            }
        }
    }
    let solved = WfSolve { alloc, tput };
    #[cfg(debug_assertions)]
    {
        let oracle = water_fill_naive(capacity, users);
        debug_assert!(
            solved.alloc == oracle.alloc
                && solved.tput.len() == oracle.tput.len()
                && solved
                    .tput
                    .iter()
                    .zip(&oracle.tput)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "batched water-fill diverged from the reference loop"
        );
    }
    solved
}

/// The one-GPU-at-a-time reference water-filling loop, retained as the
/// differential oracle for the batched solver: full argmin scan over users
/// per grant, full capacity scan per pick. `O(total GPUs × users ×
/// generations)` — use [`water_fill`] everywhere except tests.
pub fn water_fill_naive(capacity: &[u32], users: &[WfUser]) -> WfSolve {
    let total_cap: u64 = capacity.iter().map(|&c| c as u64).sum();
    let mut cap = capacity.to_vec();
    let mut alloc = vec![vec![0u32; capacity.len()]; users.len()];
    let mut got = vec![0u32; users.len()];
    let mut tput = vec![0.0f64; users.len()];
    // Fixed iteration bound: every pass either grants exactly one GPU or
    // terminates the loop.
    for _ in 0..total_cap {
        let mut pick: Option<usize> = None;
        for (i, u) in users.iter().enumerate() {
            if got[i] >= u.demand {
                continue;
            }
            match pick {
                None => pick = Some(i),
                Some(p) => {
                    if tput[i].total_cmp(&tput[p]).is_lt() {
                        pick = Some(i);
                    }
                }
            }
        }
        let Some(i) = pick else {
            break; // every user saturated
        };
        let mut best: Option<usize> = None;
        for (g, &c) in cap.iter().enumerate() {
            if c == 0 {
                continue;
            }
            match best {
                None => best = Some(g),
                Some(b) => {
                    if users[i].rates[g] > users[i].rates[b] {
                        best = Some(g);
                    }
                }
            }
        }
        let Some(g) = best else {
            break; // capacity exhausted
        };
        cap[g] -= 1;
        alloc[i][g] += 1;
        got[i] += 1;
        tput[i] += users[i].rates[g] / users[i].tickets as f64;
    }
    WfSolve { alloc, tput }
}

/// Heterogeneity-aware max-min fairness via water-filling over estimated
/// per-generation throughput.
///
/// Degraded-mode handling: the solver only fills *reachable* capacity
/// (partitioned or failed servers cannot receive newly steered work), then
/// pads each generation's unfilled remainder back ticket-proportionally so
/// the entitlements conserve the cluster's static supply — the padding is
/// accounting-only (stride weights are relative per generation) and keeps
/// the trace auditor's ticket-conservation check meaningful.
#[derive(Debug, Default)]
pub struct GavelHetero {
    _private: (),
}

impl GavelHetero {
    /// Creates the policy (it has no knobs beyond the shared config).
    pub fn new() -> Self {
        GavelHetero::default()
    }
}

impl AllocPolicy for GavelHetero {
    fn name(&self) -> &'static str {
        "gavel-hetero"
    }

    fn allocate(&mut self, round: &PolicyRound<'_>) -> Entitlements {
        let view = round.view;
        let num_gens = view.cluster().catalog.len();
        let mut cap = vec![0u32; num_gens];
        for s in view.reachable_servers() {
            cap[s.gen.index()] += s.num_gpus;
        }
        let users: Vec<WfUser> = round
            .active
            .iter()
            .map(|&(user, tickets)| WfUser {
                user,
                tickets,
                demand: round.inputs.demand(user).round() as u32,
                rates: (0..num_gens)
                    .map(|g| round.inputs.speedup(user, g).unwrap_or(1.0))
                    .collect(),
            })
            .collect();
        let alloc = water_fill(&cap, &users);
        let mut rows: BTreeMap<UserId, Vec<f64>> = users
            .iter()
            .zip(&alloc)
            .map(|(u, row)| (u.user, row.iter().map(|&x| x as f64).collect()))
            .collect();
        // Conservation padding: capacity the solver could not place —
        // unreachable servers plus demand shortfall — is handed back
        // ticket-proportionally so per-generation totals equal the static
        // supply the auditor checks against.
        let static_gpus = view.cluster().gpus_per_gen();
        let total_tickets: u64 = round.active.iter().map(|&(_, t)| t).sum();
        if total_tickets > 0 {
            for (&gen, &gpus) in &static_gpus {
                let g = gen.index();
                let assigned: u64 = alloc.iter().map(|row| row[g] as u64).sum();
                let leftover = gpus as f64 - assigned as f64;
                if leftover > 0.0 {
                    for u in &users {
                        rows.get_mut(&u.user).expect("row per user")[g] +=
                            leftover * u.tickets as f64 / total_tickets as f64;
                    }
                }
            }
        }
        if round.obs.why() && !users.is_empty() {
            let granted: u64 = alloc.iter().flatten().map(|&x| x as u64).sum();
            let reachable: u64 = cap.iter().map(|&c| c as u64).sum();
            let static_total: u64 = static_gpus.values().map(|&c| c as u64).sum();
            // Final normalized throughputs, recomputed from the grants in
            // id order for the provenance row.
            let mut candidates: Vec<Candidate> = users
                .iter()
                .zip(&alloc)
                .map(|(u, row)| Candidate {
                    label: format!("user:{}", u.user.index()),
                    score: row
                        .iter()
                        .enumerate()
                        .map(|(g, &x)| x as f64 * u.rates[g] / u.tickets as f64)
                        .sum(),
                })
                .collect();
            candidates.truncate(8);
            let mut rejected = Vec::new();
            if static_total > reachable {
                rejected.push(Rejection {
                    reason: "unreachable_capacity".into(),
                    count: (static_total - reachable) as u32,
                });
            }
            round.obs.emit(TraceEvent::Decision {
                t: round.now,
                decision: "water-fill".to_string(),
                job: None,
                user: None,
                chosen: format!("{granted} GPUs granted across {} users", users.len()),
                tie_break: "lowest normalized throughput, then lowest user id".to_string(),
                considered: users.len() as u32,
                candidates,
                rejected,
            });
        }
        Entitlements::from_shares(num_gens, rows)
    }

    fn epoch(&self, config: &SimConfig) -> SimDuration {
        // Re-solve on the same cadence the gfair market refreshes, so
        // head-to-head runs recompute allocations equally often.
        config.trade_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(user: u32, tickets: u64, demand: u32, rates: Vec<f64>) -> WfUser {
        WfUser {
            user: UserId::new(user),
            tickets,
            demand,
            rates,
        }
    }

    #[test]
    fn equal_users_split_capacity() {
        let alloc = water_fill(&[4], &[u(0, 1, 10, vec![1.0]), u(1, 1, 10, vec![1.0])]);
        assert_eq!(alloc, vec![vec![2], vec![2]]);
    }

    #[test]
    fn fast_gen_goes_to_whoever_is_poorest() {
        // One fast generation (2x) and one slow; both users identical.
        // Whoever is behind takes the fast GPUs first, and the final
        // normalized throughputs stay within one grant of each other.
        let users = [u(0, 1, 10, vec![1.0, 2.0]), u(1, 1, 10, vec![1.0, 2.0])];
        let alloc = water_fill(&[4, 2], &users);
        let tput: Vec<f64> = alloc
            .iter()
            .zip(&users)
            .map(|(row, u)| {
                row.iter()
                    .enumerate()
                    .map(|(g, &x)| x as f64 * u.rates[g])
                    .sum()
            })
            .collect();
        assert!((tput[0] - tput[1]).abs() <= 2.0, "tputs {tput:?}");
        let total: u32 = alloc.iter().flatten().sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn demand_saturates_and_leftover_flows_on() {
        // User 0 wants only 1 GPU; user 1 soaks up the rest.
        let alloc = water_fill(&[5], &[u(0, 1, 1, vec![1.0]), u(1, 1, 10, vec![1.0])]);
        assert_eq!(alloc[0][0], 1);
        assert_eq!(alloc[1][0], 4);
    }

    #[test]
    fn tickets_weight_the_fill() {
        // A 3-ticket user's throughput is normalized by 3, so they stay
        // "poor" longer and end up with ~3x the GPUs.
        let alloc = water_fill(&[8], &[u(0, 3, 100, vec![1.0]), u(1, 1, 100, vec![1.0])]);
        assert_eq!(alloc[0][0], 6);
        assert_eq!(alloc[1][0], 2);
    }

    #[test]
    fn zero_capacity_and_zero_users_are_fine() {
        assert_eq!(
            water_fill(&[0, 0], &[u(0, 1, 5, vec![1.0, 1.0])]),
            vec![vec![0, 0]]
        );
        assert!(water_fill(&[4], &[]).is_empty());
    }
}
