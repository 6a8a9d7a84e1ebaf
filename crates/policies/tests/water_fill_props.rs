//! Differential properties of the Gavel water-filling solver: for random
//! capacities, demands, tickets and rate matrices, the greedy's output is
//! feasible, work-conserving and max-min fair in the discrete sense, and
//! the level-batched solver is byte-identical to the one-GPU-at-a-time
//! reference loop it replaced.

use gfair_policies::{water_fill, water_fill_naive, water_fill_solve, WfUser};
use gfair_types::UserId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_instance(seed: u64, num_gens: usize, num_users: usize) -> (Vec<u32>, Vec<WfUser>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let capacity: Vec<u32> = (0..num_gens).map(|_| rng.gen_range(0u32..12)).collect();
    let users = (0..num_users)
        .map(|i| WfUser {
            user: UserId::new(i as u32),
            tickets: rng.gen_range(1u64..5),
            demand: rng.gen_range(0u32..20),
            rates: (0..num_gens)
                .map(|_| rng.gen_range(1u32..50) as f64 / 10.0)
                .collect(),
        })
        .collect();
    (capacity, users)
}

/// Larger instances with deliberately coarse rates: equal rates (and equal
/// tickets) force ties everywhere, which degenerates the batched solver to
/// one-grant batches — the worst case for order-equivalence with the naive
/// loop.
fn tie_heavy_instance(seed: u64, num_gens: usize, num_users: usize) -> (Vec<u32>, Vec<WfUser>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let capacity: Vec<u32> = (0..num_gens).map(|_| rng.gen_range(0u32..64)).collect();
    let users = (0..num_users)
        .map(|i| WfUser {
            user: UserId::new(i as u32),
            tickets: rng.gen_range(1u64..3),
            demand: rng.gen_range(0u32..100),
            rates: (0..num_gens)
                .map(|_| rng.gen_range(1u32..4) as f64)
                .collect(),
        })
        .collect();
    (capacity, users)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasibility and work conservation: the grant matrix respects
    /// per-generation capacity and per-user demand, and grants exactly
    /// min(total capacity, total demand) GPUs (rates are strictly positive,
    /// so nothing is left on the table while anyone is unsaturated).
    #[test]
    fn water_fill_is_feasible_and_work_conserving(
        seed in 0u64..10_000,
        num_gens in 1usize..4,
        num_users in 1usize..7,
    ) {
        let (capacity, users) = random_instance(seed, num_gens, num_users);
        let alloc = water_fill(&capacity, &users);
        prop_assert_eq!(alloc.len(), users.len());
        for (g, &cap) in capacity.iter().enumerate() {
            let granted: u32 = alloc.iter().map(|row| row[g]).sum();
            prop_assert!(granted <= cap, "gen {g}: granted {granted} > cap {cap}");
        }
        let mut total_granted = 0u64;
        for (row, u) in alloc.iter().zip(&users) {
            let got: u32 = row.iter().sum();
            prop_assert!(got <= u.demand, "user {} got {got} > demand {}", u.user, u.demand);
            total_granted += got as u64;
        }
        let total_cap: u64 = capacity.iter().map(|&c| c as u64).sum();
        let total_demand: u64 = users.iter().map(|u| u.demand as u64).sum();
        prop_assert_eq!(total_granted, total_cap.min(total_demand));
    }

    /// Discrete max-min fairness: no granted GPU can be handed to an
    /// unsaturated user without taking it from someone whose
    /// ticket-normalized throughput, net of their *cheapest held* grant, is
    /// already no higher. Formally, for every unsaturated user `u` and
    /// every user `v` holding at least one GPU:
    /// `tput(v) - min_{g: alloc[v][g] > 0} rate[v][g]/tickets(v) <= tput(u)`.
    ///
    /// (Proof sketch for the greedy: at `v`'s final grant, `v` was the
    /// argmin among unsaturated users — including `u` — and `u`'s
    /// throughput never decreases afterwards.)
    #[test]
    fn water_fill_is_max_min(
        seed in 0u64..10_000,
        num_gens in 1usize..4,
        num_users in 2usize..7,
    ) {
        let (capacity, users) = random_instance(seed, num_gens, num_users);
        let alloc = water_fill(&capacity, &users);
        let tput: Vec<f64> = alloc
            .iter()
            .zip(&users)
            .map(|(row, u)| {
                row.iter()
                    .enumerate()
                    .map(|(g, &x)| x as f64 * u.rates[g] / u.tickets as f64)
                    .sum()
            })
            .collect();
        for (i, u) in users.iter().enumerate() {
            let got: u32 = alloc[i].iter().sum();
            if got >= u.demand {
                continue; // saturated users have no claim
            }
            for (v, row) in alloc.iter().enumerate() {
                let min_held: Option<f64> = row
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| x > 0)
                    .map(|(g, _)| users[v].rates[g] / users[v].tickets as f64)
                    .min_by(|a, b| a.total_cmp(b));
                if let Some(m) = min_held {
                    prop_assert!(
                        tput[v] - m <= tput[i] + 1e-9,
                        "user {} (tput {}) could yield a grant to unsaturated \
                         user {} (tput {}) and still be no worse off",
                        users[v].user, tput[v], u.user, tput[i]
                    );
                }
            }
        }
    }

    /// Determinism: the solver is a pure function of its inputs.
    #[test]
    fn water_fill_is_deterministic(
        seed in 0u64..10_000,
        num_gens in 1usize..4,
        num_users in 1usize..7,
    ) {
        let (capacity, users) = random_instance(seed, num_gens, num_users);
        prop_assert_eq!(water_fill(&capacity, &users), water_fill(&capacity, &users));
    }

    /// Differential oracle: the level-batched solver reproduces the
    /// one-GPU-at-a-time reference loop exactly — the same allocation
    /// matrix AND bit-identical `tput` floats (the accumulation order is
    /// part of the byte-determinism contract, so approximate equality is
    /// not good enough). Runs both on fine-rate and tie-heavy instances;
    /// the latter degenerates batches to single grants.
    #[test]
    fn batched_water_fill_matches_naive_oracle(
        seed in 0u64..10_000,
        num_gens in 1usize..5,
        num_users in 1usize..17,
        ties in proptest::bool::ANY,
    ) {
        let (capacity, users) = if ties {
            tie_heavy_instance(seed, num_gens, num_users)
        } else {
            random_instance(seed, num_gens, num_users)
        };
        let batched = water_fill_solve(&capacity, &users);
        let naive = water_fill_naive(&capacity, &users);
        prop_assert_eq!(&batched.alloc, &naive.alloc, "allocation matrices differ");
        prop_assert_eq!(batched.tput.len(), naive.tput.len());
        for (i, (a, b)) in batched.tput.iter().zip(&naive.tput).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "user {} tput not bit-identical: batched {} vs naive {}", i, a, b
            );
        }
    }

    /// Batching never weakens the max-min transfer property: the batched
    /// solver's output (including its returned throughputs) satisfies the
    /// same discrete max-min condition the reference greedy guarantees —
    /// no granted GPU can move to an unsaturated user without leaving its
    /// holder no better off.
    #[test]
    fn batching_preserves_max_min_transfer(
        seed in 0u64..10_000,
        num_gens in 1usize..4,
        num_users in 2usize..10,
        ties in proptest::bool::ANY,
    ) {
        let (capacity, users) = if ties {
            tie_heavy_instance(seed, num_gens, num_users)
        } else {
            random_instance(seed, num_gens, num_users)
        };
        let solved = water_fill_solve(&capacity, &users);
        for (i, u) in users.iter().enumerate() {
            let got: u32 = solved.alloc[i].iter().sum();
            if got >= u.demand {
                continue; // saturated users have no claim
            }
            for (v, row) in solved.alloc.iter().enumerate() {
                let min_held: Option<f64> = row
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| x > 0)
                    .map(|(g, _)| users[v].rates[g] / users[v].tickets as f64)
                    .min_by(|a, b| a.total_cmp(b));
                if let Some(m) = min_held {
                    prop_assert!(
                        solved.tput[v] - m <= solved.tput[i] + 1e-9,
                        "user {} (tput {}) could yield a grant to unsaturated \
                         user {} (tput {}) and still be no worse off",
                        users[v].user, solved.tput[v], u.user, solved.tput[i]
                    );
                }
            }
        }
    }
}
