//! Lottery scheduling over gangs.
//!
//! Lottery scheduling (Waldspurger & Weihl, 1994) is the randomized
//! predecessor of stride scheduling: each quantum a ticket is drawn uniformly
//! at random and the holding client wins. It is proportional *in
//! expectation* but has O(sqrt(n)) variance, which is why Gandiva_fair uses
//! stride; we keep a gang-capable lottery as a baseline so experiments can
//! show the variance gap.
//!
//! The gang variant fills a server each round by repeatedly drawing among
//! the clients whose gangs still fit the remaining GPUs.

use rand::Rng;
use std::collections::BTreeMap;

/// Per-client lottery state.
#[derive(Debug, Clone, Copy)]
struct Entrant {
    tickets: f64,
    width: u32,
}

/// A randomized proportional-share gang scheduler.
///
/// Determinism note: all randomness comes from the `Rng` handed to
/// [`draw_round`](Self::draw_round), so runs are reproducible given a seeded
/// generator.
#[derive(Debug, Clone)]
pub struct LotteryScheduler<K> {
    capacity: u32,
    clients: BTreeMap<K, Entrant>,
}

impl<K: Copy + Ord> LotteryScheduler<K> {
    /// Creates a lottery scheduler for a server with `capacity` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be at least one GPU");
        LotteryScheduler {
            capacity,
            clients: BTreeMap::new(),
        }
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns true if no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Registers a gang of `width` GPUs holding `tickets` tickets.
    ///
    /// # Panics
    ///
    /// Panics on invalid tickets/width or double registration.
    pub fn join(&mut self, k: K, tickets: f64, width: u32) {
        assert!(
            tickets.is_finite() && tickets > 0.0,
            "tickets must be positive and finite, got {tickets}"
        );
        assert!(width > 0, "gang width must be at least 1");
        assert!(
            width <= self.capacity,
            "gang width {width} exceeds capacity {}",
            self.capacity
        );
        let prev = self.clients.insert(k, Entrant { tickets, width });
        assert!(prev.is_none(), "client joined twice");
    }

    /// Removes a client. Returns true if it was registered.
    pub fn leave(&mut self, k: K) -> bool {
        self.clients.remove(&k).is_some()
    }

    /// Gang width of a client, if registered.
    pub fn width_of(&self, k: K) -> Option<u32> {
        self.clients.get(&k).map(|c| c.width)
    }

    /// Draws one round of winners: repeatedly holds a ticket lottery among
    /// not-yet-selected clients whose gangs fit the remaining
    /// GPUs, until nothing fits.
    pub fn draw_round<R: Rng>(&mut self, rng: &mut R) -> Vec<K> {
        let mut free = self.capacity;
        let mut selected: Vec<K> = Vec::new();
        loop {
            let pool: Vec<(K, f64, u32)> = self
                .clients
                .iter()
                .filter(|(k, c)| c.width <= free && !selected.contains(k))
                .map(|(k, c)| (*k, c.tickets, c.width))
                .collect();
            if pool.is_empty() {
                break;
            }
            let total: f64 = pool.iter().map(|(_, t, _)| t).sum();
            let mut draw = rng.gen_range(0.0..total);
            let mut winner = pool[pool.len() - 1];
            for &(k, t, w) in &pool {
                if draw < t {
                    winner = (k, t, w);
                    break;
                }
                draw -= t;
            }
            selected.push(winner.0);
            free -= winner.2;
            if free == 0 {
                break;
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn expectation_is_ticket_proportional() {
        let mut l = LotteryScheduler::new(1);
        l.join(0, 100.0, 1);
        l.join(1, 300.0, 1);
        let mut rng = rng();
        let mut wins: HashMap<u32, u32> = HashMap::new();
        for _ in 0..4000 {
            for k in l.draw_round(&mut rng) {
                *wins.entry(k).or_insert(0) += 1;
            }
        }
        let ratio = wins[&1] as f64 / wins[&0] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.4,
            "expected ~3x wins for 3x tickets, got {ratio}"
        );
    }

    #[test]
    fn round_fills_capacity_with_singles() {
        let mut l = LotteryScheduler::new(4);
        for id in 0..8 {
            l.join(id, 100.0, 1);
        }
        let mut rng = rng();
        let sel = l.draw_round(&mut rng);
        assert_eq!(sel.len(), 4);
        // No duplicates.
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn gangs_only_win_when_they_fit() {
        let mut l = LotteryScheduler::new(4);
        l.join(0, 100.0, 3);
        l.join(1, 100.0, 3);
        let mut rng = rng();
        for _ in 0..100 {
            let sel = l.draw_round(&mut rng);
            // Two width-3 gangs can never run together on 4 GPUs.
            assert_eq!(sel.len(), 1);
        }
    }

    #[test]
    fn lottery_variance_exceeds_stride() {
        // The motivating comparison: over short windows, lottery shares
        // fluctuate while stride pins them. Measure per-window share stddev.
        let windows = 50;
        let per_window = 20;
        let mut l = LotteryScheduler::new(1);
        l.join(0, 100.0, 1);
        l.join(1, 100.0, 1);
        let mut rng = rng();
        let mut lottery_shares = Vec::new();
        for _ in 0..windows {
            let mut wins0 = 0;
            for _ in 0..per_window {
                if l.draw_round(&mut rng) == vec![0] {
                    wins0 += 1;
                }
            }
            lottery_shares.push(wins0 as f64 / per_window as f64);
        }
        let mean: f64 = lottery_shares.iter().sum::<f64>() / windows as f64;
        let var: f64 = lottery_shares
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / windows as f64;

        // Width-1 clients on a 1-GPU server: classic stride.
        let mut s = crate::GangScheduler::new(1, crate::GangPolicy::GangAware);
        s.join(0u32, 100.0, 1);
        s.join(1u32, 100.0, 1);
        let mut stride_shares = Vec::new();
        for _ in 0..windows {
            let mut wins0 = 0;
            for _ in 0..per_window {
                if s.plan_round().selected == vec![0] {
                    wins0 += 1;
                }
            }
            stride_shares.push(wins0 as f64 / per_window as f64);
        }
        let smean: f64 = stride_shares.iter().sum::<f64>() / windows as f64;
        let svar: f64 = stride_shares
            .iter()
            .map(|s| (s - smean) * (s - smean))
            .sum::<f64>()
            / windows as f64;
        assert!(
            var > svar * 4.0,
            "lottery variance {var} should dwarf stride variance {svar}"
        );
    }

    #[test]
    fn leave_and_rejoin() {
        let mut l = LotteryScheduler::new(1);
        l.join(0, 100.0, 1);
        assert!(l.leave(0));
        assert!(!l.leave(0));
        assert!(l.is_empty());
        l.join(0, 100.0, 1);
        assert_eq!(l.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_gang_panics() {
        let mut l = LotteryScheduler::new(2);
        l.join(0, 100.0, 3);
    }

    #[test]
    fn empty_draw_returns_nothing() {
        let mut l = LotteryScheduler::<u32>::new(2);
        let mut rng = rng();
        assert!(l.draw_round(&mut rng).is_empty());
    }
}
