//! The resource-trading market.
//!
//! Heterogeneity breaks naive fairness: giving every user a ticket share of
//! *each* generation wastes fast GPUs on jobs that barely benefit. The
//! market fixes this with Pareto-improving trades. For each fast generation
//! `f`, users are ranked by their profiled speedup `s_u = rate(f)/rate(base)`.
//! The lowest-speedup holder of fast entitlement (the *seller*) trades with
//! the highest-speedup user (the *buyer*): the seller gives `delta` fast GPUs
//! and receives `price * delta` base-generation GPUs from the buyer.
//!
//! With the paper's conservative [`PriceStrategy::MaxSpeedup`] the price is
//! the buyer's own speedup: the buyer's valuation is unchanged (pays exactly
//! what the fast GPUs are worth to them) while the seller strictly gains
//! (receives more base-GPU value than their fast share was worth to them).
//! Cluster efficiency strictly improves because fast GPUs move to the jobs
//! that extract the most from them. No participant ever ends below their
//! ticket entitlement — the fairness guarantee survives trading.
//!
//! Trades are bounded by what each side can *use*: a buyer only buys fast
//! capacity up to their jobs' GPU demand, a seller only accepts base-GPU
//! volume their jobs can consume, and both sides must hold the entitlement
//! they spend. Users without profiled speedups do not participate — the
//! market never trades on guesses.

use crate::entitlement::Entitlements;
use crate::inputs::PolicyInputs;
use gfair_obs::{Candidate, Obs, Phase, Rejection, TraceEvent};
use gfair_types::{GenId, PriceStrategy, SimTime, UserId};
use std::collections::BTreeMap;

/// Amounts below this are treated as zero (floating-point dust).
const EPS: f64 = 1e-9;

/// One executed trade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trade {
    /// User giving up fast-generation entitlement.
    pub seller: UserId,
    /// User acquiring fast-generation entitlement.
    pub buyer: UserId,
    /// The fast generation being traded (base GPUs flow the other way).
    pub gen: GenId,
    /// Fast GPUs transferred seller -> buyer.
    pub fast_gpus: f64,
    /// Base GPUs transferred buyer -> seller (`price * fast_gpus`).
    pub base_gpus: f64,
    /// Exchange rate in base GPUs per fast GPU.
    pub price: f64,
    /// Seller's profiled speedup on `gen` at trade time.
    pub seller_speedup: f64,
    /// Buyer's profiled speedup on `gen` at trade time.
    pub buyer_speedup: f64,
}

/// Runs the market over `ent`, mutating allocations in place.
///
/// * `inputs` — the dense per-user policy inputs:
///   [`PolicyInputs::speedup`] gives user `u`'s profiled speedup on a
///   generation relative to the base (`None` means unprofiled — the user
///   sits out for that generation) and [`PolicyInputs::demand`] the total
///   GPUs the user's active jobs can consume simultaneously (sum of gang
///   sizes).
/// * `margin` — minimum buyer-minus-seller speedup gap for a trade.
///
/// Returns the executed trades in execution order.
pub fn run_market(
    ent: &mut Entitlements,
    inputs: &PolicyInputs,
    strategy: PriceStrategy,
    margin: f64,
) -> Vec<Trade> {
    let base = GenId::new(0);
    let mut trades = Vec::new();
    // Fastest generation first: its misallocation costs the most.
    for gen_idx in (1..ent.num_gens()).rev() {
        let gen = GenId::new(gen_idx as u32);
        // Participants: active demand and a profiled speedup on `gen`.
        let mut ranked: Vec<(UserId, f64)> = ent
            .users()
            .filter(|&u| inputs.demand(u) > EPS)
            .filter_map(|u| Some((u, inputs.speedup(u, gen_idx)?)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        if ranked.len() < 2 {
            continue;
        }
        let (mut i, mut j) = (0usize, ranked.len() - 1);
        // Each iteration either executes a trade or retires one side, so
        // the loop terminates in O(n + trades).
        while i < j {
            let (seller, s_sell) = ranked[i];
            let (buyer, s_buy) = ranked[j];
            if s_buy - s_sell <= margin {
                break;
            }
            let price = match strategy {
                PriceStrategy::MaxSpeedup => s_buy,
                PriceStrategy::Midpoint => 0.5 * (s_buy + s_sell),
            };
            debug_assert!(price > 1.0, "fast GPUs always cost more than base");
            let seller_avail = ent.get(seller, gen);
            if seller_avail <= EPS {
                i += 1;
                continue;
            }
            let buyer_budget = ent.get(buyer, base) / price;
            let buyer_room = (inputs.demand(buyer) - ent.get(buyer, gen)).max(0.0);
            if buyer_budget <= EPS || buyer_room <= EPS {
                j -= 1;
                continue;
            }
            // The seller only accepts base-GPU volume their jobs can use:
            // after the swap their total grows by (price - 1) * delta.
            let seller_headroom = (inputs.demand(seller) - ent.gpus_of(seller)).max(0.0);
            let seller_room = seller_headroom / (price - 1.0);
            if seller_room <= EPS {
                i += 1;
                continue;
            }
            let delta = seller_avail
                .min(buyer_budget)
                .min(buyer_room)
                .min(seller_room);
            if delta <= EPS {
                // Dust: retire whichever side binds.
                if seller_avail <= buyer_budget.min(buyer_room) {
                    i += 1;
                } else {
                    j -= 1;
                }
                continue;
            }
            let base_gpus = price * delta;
            ent.adjust(seller, gen, -delta);
            ent.adjust(seller, base, base_gpus);
            ent.adjust(buyer, gen, delta);
            ent.adjust(buyer, base, -base_gpus);
            trades.push(Trade {
                seller,
                buyer,
                gen,
                fast_gpus: delta,
                base_gpus,
                price,
                seller_speedup: s_sell,
                buyer_speedup: s_buy,
            });
            // Whichever constraint bound, retire that side for this round.
            if (ent.get(seller, gen)).min(seller_room - delta) <= EPS {
                i += 1;
            }
            if (ent.get(buyer, base) / price).min(buyer_room - delta) <= EPS {
                j -= 1;
            }
        }
    }
    trades
}

/// Observed [`run_market`]: the matching pass is timed as a
/// [`Phase::TradeMatching`] span and every executed trade is emitted as a
/// [`TraceEvent::TradeExecuted`] stamped with `now`.
pub fn run_market_traced(
    obs: &Obs,
    now: SimTime,
    ent: &mut Entitlements,
    inputs: &PolicyInputs,
    strategy: PriceStrategy,
    margin: f64,
) -> Vec<Trade> {
    let trades = obs.time(Phase::TradeMatching, || {
        run_market(ent, inputs, strategy, margin)
    });
    // Provenance: per-generation participant counts, re-derived with the
    // market's own eligibility filter (active demand + profiled speedup).
    // The inputs are untouched by the matching pass, so these counts match
    // what the market ranked. Decision events are a trace-only product;
    // without a sink the `TradeExecuted` stream alone is emitted.
    let want_why = obs.tracing();
    let users_total = ent.users().count() as u32;
    let participants: BTreeMap<GenId, u32> = if want_why {
        (1..ent.num_gens())
            .map(|gen_idx| {
                let n = ent
                    .users()
                    .filter(|&u| inputs.demand(u) > EPS)
                    .filter(|&u| inputs.speedup(u, gen_idx).is_some())
                    .count() as u32;
                (GenId::new(gen_idx as u32), n)
            })
            .collect()
    } else {
        BTreeMap::new()
    };
    for t in &trades {
        obs.emit(TraceEvent::TradeExecuted {
            t: now,
            seller: t.seller,
            buyer: t.buyer,
            gen: t.gen,
            fast_gpus: t.fast_gpus,
            base_gpus: t.base_gpus,
            price: t.price,
        });
        if !want_why {
            continue;
        }
        let considered = participants.get(&t.gen).copied().unwrap_or(0);
        obs.emit(TraceEvent::Decision {
            t: now,
            decision: "trade".to_string(),
            job: None,
            user: Some(t.buyer),
            chosen: format!(
                "user:{} buys {:.3} gen:{} GPUs from user:{} at {:.3} base/fast",
                t.buyer.index(),
                t.fast_gpus,
                t.gen.index(),
                t.seller.index(),
                t.price
            ),
            tie_break: "widest speedup gap first, then lowest user id".to_string(),
            considered,
            candidates: vec![
                Candidate {
                    label: format!("buyer user:{}", t.buyer.index()),
                    score: t.buyer_speedup,
                },
                Candidate {
                    label: format!("seller user:{}", t.seller.index()),
                    score: t.seller_speedup,
                },
            ],
            rejected: if users_total > considered {
                vec![Rejection {
                    reason: "idle_or_unprofiled".into(),
                    count: users_total - considered,
                }]
            } else {
                Vec::new()
            },
        });
    }
    trades
}

/// Test-only adapter: packs explicit speedup/demand maps into the dense
/// [`PolicyInputs`] the market consumes (generation count inferred from the
/// widest speedup row).
#[cfg(test)]
fn market_inputs(
    speedups: &BTreeMap<UserId, Vec<Option<f64>>>,
    demand: &BTreeMap<UserId, f64>,
) -> PolicyInputs {
    let num_gens = speedups.values().map(|r| r.len()).max().unwrap_or(1);
    PolicyInputs::from_maps(num_gens, demand, speedups, &BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 16 K80 + 8 V100 cluster, two generations for clarity.
    fn two_gen_gpus() -> BTreeMap<GenId, u32> {
        BTreeMap::from([(GenId::new(0), 16), (GenId::new(1), 8)])
    }

    fn speedups(rows: &[(u32, Option<f64>)]) -> BTreeMap<UserId, Vec<Option<f64>>> {
        rows.iter()
            .map(|&(u, s)| (UserId::new(u), vec![Some(1.0), s]))
            .collect()
    }

    fn demands(rows: &[(u32, f64)]) -> BTreeMap<UserId, f64> {
        rows.iter().map(|&(u, d)| (UserId::new(u), d)).collect()
    }

    /// The canonical paper scenario: a VAE-like user (1.25x) and a
    /// ResNeXt-like user (5x) with equal tickets and plenty of demand.
    #[allow(clippy::type_complexity)]
    fn canonical() -> (
        Entitlements,
        BTreeMap<UserId, Vec<Option<f64>>>,
        BTreeMap<UserId, f64>,
    ) {
        let ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        (
            ent,
            speedups(&[(0, Some(1.25)), (1, Some(5.0))]),
            demands(&[(0, 100.0), (1, 100.0)]),
        )
    }

    #[test]
    fn low_speedup_user_sells_fast_gpus_to_high() {
        let (mut ent, sp, dm) = canonical();
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!(!trades.is_empty());
        let t = &trades[0];
        assert_eq!(t.seller, UserId::new(0));
        assert_eq!(t.buyer, UserId::new(1));
        assert_eq!(t.gen, GenId::new(1));
        assert!((t.price - 5.0).abs() < 1e-9);
        // Seller ends with no fast share; buyer holds all 8 V100s... but the
        // buyer's base budget (8 K80 / price 5 = 1.6) binds first.
        let sold: f64 = trades.iter().map(|t| t.fast_gpus).sum();
        assert!((sold - 1.6).abs() < 1e-6, "sold {sold}");
        assert!((ent.get(UserId::new(1), GenId::new(1)) - 5.6).abs() < 1e-6);
        assert!((ent.get(UserId::new(1), GenId::new(0)) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn physical_gpus_are_conserved() {
        let (mut ent, sp, dm) = canonical();
        let _ = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!((ent.total_of_gen(GenId::new(0)) - 16.0).abs() < 1e-6);
        assert!((ent.total_of_gen(GenId::new(1)) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn no_user_valued_below_entitlement() {
        let (mut ent, sp, dm) = canonical();
        let before: Vec<f64> = [0, 1]
            .iter()
            .map(|&u| ent.valuation(UserId::new(u), &[Some(1.0), sp[&UserId::new(u)][1]]))
            .collect();
        let _ = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        for (k, &u) in [0u32, 1].iter().enumerate() {
            let after = ent.valuation(UserId::new(u), &[Some(1.0), sp[&UserId::new(u)][1]]);
            assert!(
                after >= before[k] - 1e-6,
                "user {u} lost value: {} -> {after}",
                before[k]
            );
        }
    }

    #[test]
    fn seller_strictly_gains_under_max_price() {
        let (mut ent, sp, dm) = canonical();
        let before = ent.valuation(UserId::new(0), &[Some(1.0), Some(1.25)]);
        let _ = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        let after = ent.valuation(UserId::new(0), &[Some(1.0), Some(1.25)]);
        assert!(
            after > before + 1.0,
            "seller gain too small: {before} -> {after}"
        );
    }

    #[test]
    fn both_gain_under_midpoint_price() {
        let (mut ent, sp, dm) = canonical();
        let b0 = ent.valuation(UserId::new(0), &[Some(1.0), Some(1.25)]);
        let b1 = ent.valuation(UserId::new(1), &[Some(1.0), Some(5.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::Midpoint,
            0.2,
        );
        assert!(!trades.is_empty());
        assert!((trades[0].price - 3.125).abs() < 1e-9);
        let a0 = ent.valuation(UserId::new(0), &[Some(1.0), Some(1.25)]);
        let a1 = ent.valuation(UserId::new(1), &[Some(1.0), Some(5.0)]);
        assert!(a0 > b0 + 1e-6, "seller did not gain");
        assert!(a1 > b1 + 1e-6, "buyer did not gain");
    }

    #[test]
    fn cluster_efficiency_improves() {
        let (mut ent, sp, dm) = canonical();
        let total_before: f64 = [0u32, 1]
            .iter()
            .map(|&u| ent.valuation(UserId::new(u), &[Some(1.0), sp[&UserId::new(u)][1]]))
            .sum();
        let _ = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        let total_after: f64 = [0u32, 1]
            .iter()
            .map(|&u| ent.valuation(UserId::new(u), &[Some(1.0), sp[&UserId::new(u)][1]]))
            .sum();
        assert!(
            total_after > total_before + 1.0,
            "efficiency did not improve: {total_before} -> {total_after}"
        );
    }

    #[test]
    fn no_trade_without_profiles() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        let sp = speedups(&[(0, None), (1, Some(5.0))]);
        let dm = demands(&[(0, 100.0), (1, 100.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!(trades.is_empty());
    }

    #[test]
    fn no_trade_within_margin() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        let sp = speedups(&[(0, Some(2.0)), (1, Some(2.1))]);
        let dm = demands(&[(0, 100.0), (1, 100.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!(trades.is_empty());
    }

    #[test]
    fn idle_users_do_not_trade() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        let sp = speedups(&[(0, Some(1.25)), (1, Some(5.0))]);
        // The high-speedup user has no jobs: nothing to buy for.
        let dm = demands(&[(0, 100.0), (1, 0.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!(trades.is_empty());
    }

    #[test]
    fn buyer_demand_caps_the_purchase() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        let sp = speedups(&[(0, Some(1.25)), (1, Some(5.0))]);
        // Buyer can use at most 4.5 GPUs total; they already hold 4 fast.
        let dm = demands(&[(0, 100.0), (1, 4.5)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        let bought: f64 = trades.iter().map(|t| t.fast_gpus).sum();
        assert!(bought <= 0.5 + 1e-9, "bought {bought} beyond demand room");
    }

    #[test]
    fn seller_headroom_caps_the_sale() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[(UserId::new(0), 100), (UserId::new(1), 100)],
        );
        let sp = speedups(&[(0, Some(1.25)), (1, Some(5.0))]);
        // Seller's demand (13) barely exceeds their 12-GPU entitlement:
        // headroom 1 GPU, so at price 5 they accept at most 1/(5-1) fast.
        let dm = demands(&[(0, 13.0), (1, 100.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        let sold: f64 = trades.iter().map(|t| t.fast_gpus).sum();
        assert!(sold <= 0.25 + 1e-9, "sold {sold} beyond usable headroom");
    }

    #[test]
    fn three_generations_trade_fastest_first() {
        let gpus = BTreeMap::from([
            (GenId::new(0), 100),
            (GenId::new(1), 20),
            (GenId::new(2), 10),
        ]);
        let mut ent = Entitlements::base(&gpus, &[(UserId::new(0), 100), (UserId::new(1), 100)]);
        let sp: BTreeMap<UserId, Vec<Option<f64>>> = BTreeMap::from([
            (UserId::new(0), vec![Some(1.0), Some(1.1), Some(1.3)]),
            (UserId::new(1), vec![Some(1.0), Some(2.5), Some(5.0)]),
        ]);
        let dm = demands(&[(0, 200.0), (1, 200.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        // Both the V100 (gen 2) and P100 (gen 1) markets fire, fastest first.
        assert!(trades.iter().any(|t| t.gen == GenId::new(2)));
        assert!(trades.iter().any(|t| t.gen == GenId::new(1)));
        let first_gen = trades[0].gen;
        assert_eq!(first_gen, GenId::new(2));
        for g in [GenId::new(0), GenId::new(1), GenId::new(2)] {
            let expect = gpus[&g] as f64;
            assert!(
                (ent.total_of_gen(g) - expect).abs() < 1e-6,
                "gen {g} not conserved"
            );
        }
    }

    #[test]
    fn many_users_match_extremes_first() {
        let mut ent = Entitlements::base(
            &two_gen_gpus(),
            &[
                (UserId::new(0), 100),
                (UserId::new(1), 100),
                (UserId::new(2), 100),
                (UserId::new(3), 100),
            ],
        );
        let sp = speedups(&[
            (0, Some(1.2)),
            (1, Some(2.0)),
            (2, Some(3.0)),
            (3, Some(5.0)),
        ]);
        let dm = demands(&[(0, 100.0), (1, 100.0), (2, 100.0), (3, 100.0)]);
        let trades = run_market(
            &mut ent,
            &market_inputs(&sp, &dm),
            PriceStrategy::MaxSpeedup,
            0.2,
        );
        assert!(!trades.is_empty());
        // The first trade pairs the extreme speedups.
        assert_eq!(trades[0].seller, UserId::new(0));
        assert_eq!(trades[0].buyer, UserId::new(3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds market inputs from raw proptest vectors: up to 6 users with
    /// tickets, per-gen speedups (some unprofiled) and demands.
    #[allow(clippy::type_complexity)]
    fn build(
        rows: &[(u16, f64, f64, f64, bool)],
        gpus: (u32, u32, u32),
    ) -> (
        Entitlements,
        BTreeMap<UserId, Vec<Option<f64>>>,
        BTreeMap<UserId, f64>,
    ) {
        let gpu_map = BTreeMap::from([
            (GenId::new(0), gpus.0),
            (GenId::new(1), gpus.1),
            (GenId::new(2), gpus.2),
        ]);
        let active: Vec<(UserId, u64)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (UserId::new(i as u32), r.0 as u64 + 1))
            .collect();
        let ent = Entitlements::base(&gpu_map, &active);
        let speedups = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let s2 = 1.0 + r.1; // V100 speedup in [1, 6)
                let s1 = 1.0 + r.1 * 0.5;
                let profiled = r.4;
                (
                    UserId::new(i as u32),
                    vec![Some(1.0), profiled.then_some(s1), profiled.then_some(s2)],
                )
            })
            .collect();
        let demand = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (UserId::new(i as u32), r.2 * 100.0 + r.3))
            .collect();
        (ent, speedups, demand)
    }

    proptest! {
        /// Physical GPUs are conserved per generation by any trade sequence.
        #[test]
        fn market_conserves_physical_gpus(
            rows in proptest::collection::vec(
                (0u16..500, 0.0f64..5.0, 0.0f64..2.0, 0.0f64..50.0, proptest::bool::ANY),
                1..6,
            ),
            gpus in (1u32..200, 1u32..64, 1u32..32),
            midpoint in proptest::bool::ANY,
        ) {
            let (mut ent, speedups, demand) = build(&rows, gpus);
            let strategy = if midpoint {
                PriceStrategy::Midpoint
            } else {
                PriceStrategy::MaxSpeedup
            };
            let before: Vec<f64> = (0..3)
                .map(|g| ent.total_of_gen(GenId::new(g)))
                .collect();
            let _ = run_market(&mut ent, &market_inputs(&speedups, &demand), strategy, 0.2);
            for g in 0..3u32 {
                let after = ent.total_of_gen(GenId::new(g));
                prop_assert!(
                    (after - before[g as usize]).abs() < 1e-6,
                    "gen {g}: {} -> {after}",
                    before[g as usize]
                );
            }
        }

        /// No participant's valuation (at their own profiled speedups) drops
        /// below their pre-trade entitlement value.
        #[test]
        fn market_never_hurts_anyone(
            rows in proptest::collection::vec(
                (0u16..500, 0.0f64..5.0, 0.0f64..2.0, 0.0f64..50.0, proptest::bool::ANY),
                2..6,
            ),
            gpus in (1u32..200, 1u32..64, 1u32..32),
            midpoint in proptest::bool::ANY,
        ) {
            let (mut ent, speedups, demand) = build(&rows, gpus);
            let strategy = if midpoint {
                PriceStrategy::Midpoint
            } else {
                PriceStrategy::MaxSpeedup
            };
            let users: Vec<UserId> = ent.users().collect();
            let before: Vec<f64> = users
                .iter()
                .map(|&u| ent.valuation(u, &speedups[&u]))
                .collect();
            let trades = run_market(&mut ent, &market_inputs(&speedups, &demand), strategy, 0.2);
            for (i, &u) in users.iter().enumerate() {
                let after = ent.valuation(u, &speedups[&u]);
                prop_assert!(
                    after >= before[i] - 1e-6,
                    "user {u} lost value {} -> {after} (trades {trades:?})",
                    before[i]
                );
            }
        }

        /// Fast GPUs only ever flow from lower-speedup to higher-speedup
        /// users, at a price between (or at) their speedups, and total
        /// valuation (efficiency) never decreases.
        #[test]
        fn market_trades_are_sensible(
            rows in proptest::collection::vec(
                (0u16..500, 0.0f64..5.0, 0.5f64..2.0, 0.0f64..50.0, proptest::bool::ANY),
                2..6,
            ),
            gpus in (8u32..200, 1u32..64, 1u32..32),
        ) {
            let (mut ent, speedups, demand) = build(&rows, gpus);
            let users: Vec<UserId> = ent.users().collect();
            let total_before: f64 = users
                .iter()
                .map(|&u| ent.valuation(u, &speedups[&u]))
                .sum();
            let trades = run_market(
                &mut ent,
                &market_inputs(&speedups, &demand),
                PriceStrategy::MaxSpeedup,
                0.2,
            );
            for t in &trades {
                prop_assert!(t.buyer_speedup > t.seller_speedup + 0.2 - 1e-9);
                prop_assert!(t.price >= t.seller_speedup - 1e-9);
                prop_assert!(t.price <= t.buyer_speedup + 1e-9);
                prop_assert!(t.fast_gpus > 0.0);
                prop_assert!((t.base_gpus - t.price * t.fast_gpus).abs() < 1e-6);
            }
            let total_after: f64 = users
                .iter()
                .map(|&u| ent.valuation(u, &speedups[&u]))
                .sum();
            prop_assert!(total_after >= total_before - 1e-6);
        }
    }
}
