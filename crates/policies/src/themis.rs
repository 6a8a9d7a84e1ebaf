//! Themis-style finish-time fairness.
//!
//! Reimplements the core idea of "Themis: Fair and Efficient GPU Cluster
//! Scheduling" (Mahajan et al., NSDI 2020, arXiv 1907.01484): track each
//! tenant's *finish-time fairness* ρ = T_shared / T_ideal online, and every
//! lease interval run a **partial-allocation auction** restricted to the
//! worst-off (highest-ρ) tenants. The partial-allocation discount — each
//! winner is scaled by the externality they impose on the other winners —
//! makes truthful bidding the dominant strategy in the original mechanism;
//! here it serves as a deterministic weighting that concentrates capacity
//! on the tenants furthest behind without starving anyone (losers keep a
//! vanishing floor weight, and stride renormalization redistributes the
//! remainder work-conservingly).
//!
//! See `POLICIES.md` for the documented divergences from the source paper
//! (user-granularity bids, ρ̂ as an attained-service proxy for T_ideal).

use gfair_core::policy::{AllocPolicy, PolicyRound};
use gfair_core::Entitlements;
use gfair_obs::{Candidate, Rejection, TraceEvent};
use gfair_types::{SimConfig, SimDuration, UserId};

/// Finish-time fairness via a worst-ρ̂ partial-allocation auction.
#[derive(Debug)]
pub struct ThemisFtf {
    lease: SimDuration,
    filter: f64,
    /// Scratch: (user, tickets, ρ̂) triples, reused across leases so the
    /// per-epoch auction allocates nothing after the first.
    scored: Vec<(UserId, u64, f64)>,
    /// Scratch: discounted winner weights, id-sorted.
    weights: Vec<(UserId, f64)>,
    /// Scratch: effective tickets handed to the entitlement computation.
    eff: Vec<(UserId, u64)>,
}

impl ThemisFtf {
    /// Creates the policy from the lease length (auction cadence) and the
    /// fraction of active users admitted to each auction, taken from the
    /// worst-ρ̂ end (clamped to at least one user).
    pub fn new(lease: SimDuration, filter: f64) -> Self {
        ThemisFtf {
            lease,
            filter,
            scored: Vec::new(),
            weights: Vec::new(),
            eff: Vec::new(),
        }
    }
}

/// Auction admission order: worst ρ̂ first, ties toward the lowest user id.
/// User ids are unique, so this is a strict total order — the top-`w` set
/// (and its sorted order) is unique, which is what lets the partial
/// selection below reproduce a full sort's prefix exactly.
fn rank(a: &(UserId, u64, f64), b: &(UserId, u64, f64)) -> std::cmp::Ordering {
    b.2.total_cmp(&a.2).then(a.0.cmp(&b.0))
}

impl AllocPolicy for ThemisFtf {
    fn name(&self) -> &'static str {
        "themis-ftf"
    }

    fn allocate(&mut self, round: &PolicyRound<'_>) -> Entitlements {
        let gpus = round.view.cluster().gpus_per_gen();
        if round.active.is_empty() {
            return Entitlements::base(&gpus, &[]);
        }
        let n = round.active.len();
        let w = ((self.filter * n as f64).ceil() as usize).clamp(1, n);
        // Rank users worst-ρ̂ first; ties break toward the lowest id so the
        // admitted set is deterministic. Deterministic partial selection:
        // `select_nth_unstable_by` puts the top-w set (unique under the
        // strict total order) in the prefix in O(n); only those w are then
        // sorted — same prefix a full sort would produce, without paying
        // O(n log n) for the users the filter rejects anyway.
        self.scored.clear();
        self.scored.extend(
            round
                .active
                .iter()
                .map(|&(u, t)| (u, t, round.inputs.rho(u))),
        );
        if w < n {
            self.scored.select_nth_unstable_by(w - 1, rank);
        }
        self.scored[..w].sort_unstable_by(rank);
        let winners = &self.scored[..w];
        // Partial-allocation discount: winner i's weight is their bid
        // (ρ̂ × tickets — how far behind they are, ticket-scaled) times
        // ((sum − bid_i) / sum)^(w−1), the share of the auction the others
        // could have claimed without them. With one winner the discount
        // degenerates to 1.
        let bid_sum: f64 = winners.iter().map(|&(_, t, r)| r * t as f64).sum();
        self.weights.clear();
        self.weights.extend(winners.iter().map(|&(u, t, r)| {
            let bid = r * t as f64;
            let discount = if w > 1 && bid_sum > 0.0 {
                ((bid_sum - bid) / bid_sum).powi((w - 1) as i32)
            } else {
                1.0
            };
            (u, bid * discount)
        }));
        let max_weight = self
            .weights
            .iter()
            .map(|&(_, x)| x)
            .fold(0.0f64, f64::max)
            .max(1.0);
        self.weights.sort_unstable_by_key(|&(u, _)| u);
        let weights = &self.weights;
        // Effective tickets: winners scaled to a fixed-point range, losers
        // held at the floor of 1 so nobody's stride weight vanishes
        // entirely. Entitlements::base renormalizes per generation, which
        // conserves static capacity by construction.
        self.eff.clear();
        self.eff.extend(round.active.iter().map(|&(u, _)| {
            let t = match weights.binary_search_by_key(&u, |&(w, _)| w) {
                Ok(i) => ((weights[i].1 / max_weight * 1e6).round() as u64).max(1),
                Err(_) => 1,
            };
            (u, t)
        }));
        if round.obs.why() {
            let mut candidates: Vec<Candidate> = winners
                .iter()
                .map(|&(u, _, r)| Candidate {
                    label: format!("user:{}", u.index()),
                    score: r,
                })
                .collect();
            candidates.truncate(8);
            let mut rejected = Vec::new();
            if n > w {
                rejected.push(Rejection {
                    reason: "below_rho_filter".into(),
                    count: (n - w) as u32,
                });
            }
            round.obs.emit(TraceEvent::Decision {
                t: round.now,
                decision: "ftf-auction".to_string(),
                job: None,
                user: None,
                chosen: format!("{w} of {n} users admitted to the auction"),
                tie_break: "highest rho-hat, then lowest user id".to_string(),
                considered: n as u32,
                candidates,
                rejected,
            });
        }
        Entitlements::base(&gpus, &self.eff)
    }

    fn epoch(&self, _config: &SimConfig) -> SimDuration {
        self.lease
    }

    fn wants_rho(&self) -> bool {
        true
    }
}
