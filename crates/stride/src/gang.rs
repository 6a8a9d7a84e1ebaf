//! Gang-aware stride scheduling — the paper's core local scheduler.
//!
//! Deep-learning jobs are *gangs*: a job with gang width `w` needs `w` GPUs
//! simultaneously for a whole quantum, or nothing. Applying stride scheduling
//! naively to gangs fails in one of two ways, which the paper motivates
//! against and this module reproduces as baselines:
//!
//! * **Job-level stride** ([`GangPolicy::JobLevelStride`]) advances a job's
//!   pass by one quantum per *round* it runs, regardless of width. A
//!   gang-of-8 then receives 8x the GPU-time of a gang-of-1 at equal
//!   tickets — resource-unfair.
//! * **Strict stride** ([`GangPolicy::StrictNoBackfill`]) refuses to run any
//!   job ahead of the minimum-pass job. When the min-pass gang is wide the
//!   server idles GPUs that smaller jobs could use — work-non-conserving.
//!
//! The **gang-aware** policy ([`GangPolicy::GangAware`]) fixes both: each
//! round, jobs are scanned in pass order and packed greedily into the
//! server's GPUs; a scheduled job's pass advances by
//! `stride x width` (GPU-time, not job-time); a *skipped* job's pass does not
//! advance, so it sinks to the minimum and — because the scan starts with the
//! full server free — is guaranteed the first slot within a bounded number of
//! rounds. The result is ticket-proportional *GPU-time* with bounded lag and
//! no starvation, while still backfilling smaller jobs.

use crate::STRIDE1;

/// Pass value as a totally ordered key (`f64::total_cmp` semantics), so
/// clients can be kept sorted by `(pass, key)` — the exact order
/// [`GangScheduler::plan_round`] scans in.
#[derive(Debug, Clone, Copy)]
struct Pass(f64);

impl PartialEq for Pass {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

impl Eq for Pass {}

impl PartialOrd for Pass {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pass {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// How the scheduler handles gangs that do not fit the remaining capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GangPolicy {
    /// Pass-order scan with greedy packing; pass advances by GPU-time.
    /// This is Gandiva_fair's gang-aware stride.
    #[default]
    GangAware,
    /// Pass-order scan with greedy packing, but pass advances by one quantum
    /// per scheduled round regardless of gang width (job-level fairness —
    /// wide gangs hoard GPU-time).
    JobLevelStride,
    /// Serve strictly in pass order: when the minimum-pass job does
    /// not fit the remaining GPUs, stop and idle the rest (fair but
    /// work-non-conserving).
    StrictNoBackfill,
}

impl GangPolicy {
    /// Quanta a scheduled round adds to the pass of a client `width` GPUs
    /// wide, in units of its stride.
    fn quanta(self, width: u32) -> f64 {
        match self {
            GangPolicy::JobLevelStride => 1.0,
            GangPolicy::GangAware | GangPolicy::StrictNoBackfill => width as f64,
        }
    }
}

/// Per-client gang bookkeeping.
#[derive(Debug, Clone, Copy)]
struct GangClient {
    tickets: f64,
    width: u32,
    pass: f64,
}

impl GangClient {
    fn stride(&self) -> f64 {
        STRIDE1 / self.tickets
    }
}

/// Index of client `k` in the key-sorted client table (`Err` holds the
/// insertion point).
fn slot<K: Ord>(clients: &[(K, GangClient)], k: K) -> Result<usize, usize> {
    clients.binary_search_by(|(c, _)| c.cmp(&k))
}

/// Outcome of planning one scheduling round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOutcome<K> {
    /// Clients selected to run this quantum, in selection order.
    pub selected: Vec<K>,
    /// GPUs used by the selected gangs.
    pub gpus_used: u32,
    /// GPUs left idle this quantum.
    pub gpus_idle: u32,
}

/// A gang scheduler over a server with a fixed number of GPUs.
///
/// # Examples
///
/// ```
/// use gfair_stride::{GangScheduler, GangPolicy};
///
/// // An 8-GPU server with a gang-of-8 and two gang-of-4 jobs, equal tickets.
/// let mut g = GangScheduler::new(8, GangPolicy::GangAware);
/// g.join("big", 100.0, 8);
/// g.join("mid1", 100.0, 4);
/// g.join("mid2", 100.0, 4);
/// let mut gpu_time = std::collections::HashMap::new();
/// for _ in 0..300 {
///     for k in g.plan_round().selected {
///         *gpu_time.entry(k).or_insert(0u64) += g.width_of(k).unwrap() as u64;
///     }
/// }
/// // Equal tickets => equal accumulated GPU-time despite different widths.
/// let big = gpu_time[&"big"] as f64;
/// let mid = gpu_time[&"mid1"] as f64;
/// assert!((big - mid).abs() / big < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct GangScheduler<K> {
    capacity: u32,
    policy: GangPolicy,
    /// Registered clients, sorted by key and found by binary search. A
    /// server holds a handful of jobs, so a join or leave is a memmove over
    /// a few entries rather than a walk over tree nodes.
    clients: Vec<(K, GangClient)>,
    /// Every client sorted by `(pass, key)` — the scan order of
    /// [`plan_round`](Self::plan_round), kept in lockstep with `clients`.
    /// A round reads the order off this table and re-keys only the clients
    /// whose pass advanced, instead of re-sorting the full client set.
    order: Vec<(Pass, K)>,
    global_pass: f64,
    total_tickets: f64,
}

impl<K: Copy + Ord> GangScheduler<K> {
    /// Creates a gang scheduler for a server with `capacity` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32, policy: GangPolicy) -> Self {
        assert!(capacity > 0, "capacity must be at least one GPU");
        GangScheduler {
            capacity,
            policy,
            clients: Vec::new(),
            order: Vec::new(),
            global_pass: 0.0,
            total_tickets: 0.0,
        }
    }

    /// Server GPU capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The policy this scheduler was built with.
    pub fn policy(&self) -> GangPolicy {
        self.policy
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns true if no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    fn client(&self, k: K) -> Option<&GangClient> {
        slot(&self.clients, k).ok().map(|i| &self.clients[i].1)
    }

    /// Gang width of a client, if registered.
    pub fn width_of(&self, k: K) -> Option<u32> {
        self.client(k).map(|c| c.width)
    }

    /// Pass value of a client, if registered.
    pub fn pass_of(&self, k: K) -> Option<f64> {
        self.client(k).map(|c| c.pass)
    }

    /// Tickets of a client, if registered.
    pub fn tickets_of(&self, k: K) -> Option<f64> {
        self.client(k).map(|c| c.tickets)
    }

    /// Inserts client `k` into the scan order under `pass`.
    fn order_insert(&mut self, pass: f64, k: K) {
        let i = self
            .order
            .binary_search(&(Pass(pass), k))
            .expect_err("client ordered twice");
        self.order.insert(i, (Pass(pass), k));
    }

    /// Removes client `k`, ordered under `pass`, from the scan order.
    fn order_remove(&mut self, pass: f64, k: K) {
        let i = self
            .order
            .binary_search(&(Pass(pass), k))
            .expect("client is ordered");
        self.order.remove(i);
    }

    /// Total tickets across registered clients.
    pub fn total_tickets(&self) -> f64 {
        self.total_tickets
    }

    /// Registers a gang of `width` GPUs with the given tickets.
    ///
    /// # Panics
    ///
    /// Panics if the gang is wider than the server, tickets are invalid, or
    /// the client is already registered.
    pub fn join(&mut self, k: K, tickets: f64, width: u32) {
        assert!(
            tickets.is_finite() && tickets > 0.0,
            "tickets must be positive and finite, got {tickets}"
        );
        assert!(width > 0, "gang width must be at least 1");
        assert!(
            width <= self.capacity,
            "gang width {width} exceeds server capacity {}",
            self.capacity
        );
        let pass = self.global_pass + STRIDE1 / tickets;
        let Err(i) = slot(&self.clients, k) else {
            panic!("client joined twice");
        };
        let client = GangClient {
            tickets,
            width,
            pass,
        };
        self.clients.insert(i, (k, client));
        self.order_insert(pass, k);
        self.total_tickets += tickets;
    }

    /// Removes a client. Returns true if it was registered.
    pub fn leave(&mut self, k: K) -> bool {
        let Ok(i) = slot(&self.clients, k) else {
            return false;
        };
        let (_, c) = self.clients.remove(i);
        self.order_remove(c.pass, k);
        self.total_tickets -= c.tickets;
        if self.clients.is_empty() {
            self.total_tickets = 0.0;
        }
        true
    }

    /// Changes a client's tickets, rescaling its pending pass debt so the
    /// change takes effect smoothly (Waldspurger's ticket modulation).
    ///
    /// # Panics
    ///
    /// Panics if the client is unknown or tickets are invalid.
    pub fn set_tickets(&mut self, k: K, tickets: f64) {
        assert!(
            tickets.is_finite() && tickets > 0.0,
            "tickets must be positive and finite, got {tickets}"
        );
        let global = self.global_pass;
        let i = slot(&self.clients, k).expect("unknown client");
        let c = &mut self.clients[i].1;
        if tickets == c.tickets {
            // An unchanged ticket count must be a true no-op: re-deriving the
            // pass through `global + (pass - global)` is not an f64 identity
            // and would drift the pass on every refresh.
            return;
        }
        let remain = c.pass - global;
        let scaled = remain * (c.tickets / tickets);
        self.total_tickets += tickets - c.tickets;
        c.tickets = tickets;
        let old_pass = c.pass;
        c.pass = global + scaled;
        let new_pass = c.pass;
        self.order_remove(old_pass, k);
        self.order_insert(new_pass, k);
    }

    /// Plans one quantum: selects the gangs to run and advances pass values.
    ///
    /// Selection depends on the policy; see the module docs. Returns the
    /// selected clients (in selection order) and GPU usage for the round.
    pub fn plan_round(&mut self) -> RoundOutcome<K> {
        // Scan the pass-ordered index — already sorted by (pass, key), the
        // exact order the former full sort produced. The scan touches only
        // the clients up to the stop condition; nothing is re-sorted.
        let mut free = self.capacity;
        let mut selected = Vec::new();
        for &(_, k) in &self.order {
            let width = self.client(k).expect("ordered client exists").width;
            if width <= free {
                selected.push(k);
                free -= width;
                if free == 0 {
                    break;
                }
            } else if self.policy == GangPolicy::StrictNoBackfill {
                // Nothing may run ahead of the min-pass job.
                break;
            }
            // GangAware / JobLevelStride: skip and keep scanning (backfill);
            // the skipped client's pass does not advance, so it sinks toward
            // the minimum and will head the scan of a future round.
        }

        // Advance passes for the scheduled clients, re-keying only them in
        // the order index (a skipped client's pass — and key — is unchanged).
        let mut used = 0u32;
        for &k in &selected {
            let i = slot(&self.clients, k).expect("selected client exists");
            let c = &mut self.clients[i].1;
            let old_pass = c.pass;
            c.pass += c.stride() * self.policy.quanta(c.width);
            let new_pass = c.pass;
            used += c.width;
            self.order_remove(old_pass, k);
            self.order_insert(new_pass, k);
        }
        // Advance global virtual time by the GPU-quanta actually dispensed.
        if self.total_tickets > 0.0 && used > 0 {
            self.global_pass += STRIDE1 * used as f64 / self.total_tickets;
        }

        RoundOutcome {
            selected,
            gpus_used: used,
            gpus_idle: self.capacity - used,
        }
    }

    /// Returns true when every client fits the server at once. Every round
    /// then selects all of them, whatever their passes, until membership or
    /// tickets change; this is the precondition of
    /// [`fast_forward`](Self::fast_forward).
    pub fn fits_all(&self) -> bool {
        let width: u64 = self.clients.iter().map(|(_, c)| u64::from(c.width)).sum();
        width <= u64::from(self.capacity)
    }

    /// Replays `j` rounds in one step.
    ///
    /// The caller must have checked [`fits_all`](Self::fits_all). Under that
    /// precondition the post-call state (client passes, order index, global
    /// pass) is bit-identical to calling [`plan_round`](Self::plan_round) `j`
    /// times: every round selects every client, each client's pass
    /// is an independent accumulator receiving the same `j` additions of the
    /// same delta, and the global pass receives the same `j` additions
    /// because every round dispenses the same GPU-quanta. Passes may cross
    /// on the way, so the scan order is re-sorted once at the end.
    pub fn fast_forward(&mut self, j: u64) {
        debug_assert!(self.fits_all(), "fast_forward on a contended server");
        if j == 0 || self.order.is_empty() {
            return;
        }
        let mut used = 0u32;
        for e in self.order.iter_mut() {
            let i = slot(&self.clients, e.1).expect("ordered client exists");
            let c = &mut self.clients[i].1;
            let delta = c.stride() * self.policy.quanta(c.width);
            for _ in 0..j {
                c.pass += delta;
            }
            e.0 = Pass(c.pass);
            used += c.width;
        }
        self.order.sort_unstable();
        if self.total_tickets > 0.0 && used > 0 {
            let delta = STRIDE1 * used as f64 / self.total_tickets;
            for _ in 0..j {
                self.global_pass += delta;
            }
        }
    }

    /// Iterates over `(client, tickets, width, pass)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, f64, u32, f64)> + '_ {
        self.clients
            .iter()
            .map(|&(k, c)| (k, c.tickets, c.width, c.pass))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Runs `rounds` rounds and returns accumulated GPU-quanta per client.
    fn gpu_time(g: &mut GangScheduler<u32>, rounds: usize) -> HashMap<u32, u64> {
        let mut acc = HashMap::new();
        for _ in 0..rounds {
            let out = g.plan_round();
            for k in out.selected {
                *acc.entry(k).or_insert(0) += g.width_of(k).unwrap() as u64;
            }
        }
        acc
    }

    #[test]
    fn gang_aware_equalizes_gpu_time_across_widths() {
        // 8-GPU server: a gang-of-8 versus two gangs-of-4, equal tickets.
        // Rounds are either {8} or {4, 4}, so every client fully contends and
        // exact GPU-time equality is feasible; stride must deliver it.
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        for (id, w) in [(0, 8), (1, 4), (2, 4)] {
            g.join(id, 100.0, w);
        }
        let acc = gpu_time(&mut g, 900);
        let total: u64 = acc.values().sum();
        for (&id, &t) in &acc {
            let share = t as f64 / total as f64;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.02,
                "client {id} got share {share}, expected ~1/3 ({acc:?})"
            );
        }
    }

    #[test]
    fn mixed_widths_avoid_starvation_and_stay_utilized() {
        // Widths {8, 4, 2, 1, 1} cannot all be equalized (packing makes it
        // infeasible: when the 8-gang runs, nothing else can). The algorithm
        // must still (a) starve nobody, (b) keep utilization high, and
        // (c) treat identical clients identically.
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        for (id, w) in [(0, 8), (1, 4), (2, 2), (3, 1), (4, 1)] {
            g.join(id, 100.0, w);
        }
        let rounds = 2000usize;
        let mut used_total = 0u64;
        let mut acc: HashMap<u32, u64> = HashMap::new();
        for _ in 0..rounds {
            let out = g.plan_round();
            used_total += out.gpus_used as u64;
            for k in out.selected {
                *acc.entry(k).or_insert(0) += g.width_of(k).unwrap() as u64;
            }
        }
        let total: u64 = acc.values().sum();
        for id in 0..5u32 {
            let share = *acc.get(&id).unwrap_or(&0) as f64 / total as f64;
            assert!(share > 0.08, "client {id} starved: share {share} ({acc:?})");
        }
        // Identical width-1, equal-ticket clients must get ~equal service.
        let (a, b) = (acc[&3] as f64, acc[&4] as f64);
        assert!((a - b).abs() / a < 0.05, "twins diverged: {a} vs {b}");
        // Work conservation: utilization stays high despite the wide gang.
        let util = used_total as f64 / (rounds as f64 * 8.0);
        assert!(util > 0.85, "utilization collapsed: {util}");
    }

    #[test]
    fn job_level_stride_lets_wide_gangs_hoard() {
        let mut g = GangScheduler::new(8, GangPolicy::JobLevelStride);
        g.join(0, 100.0, 8);
        g.join(1, 100.0, 1);
        let acc = gpu_time(&mut g, 400);
        // Both run every other round (or together when they fit — they
        // don't, 8+1>8), so GPU-time ratio approaches the width ratio 8:1.
        let ratio = acc[&0] as f64 / acc[&1] as f64;
        assert!(
            ratio > 4.0,
            "expected wide gang to hoard GPU-time, ratio {ratio} ({acc:?})"
        );
    }

    #[test]
    fn strict_policy_idles_gpus() {
        let mut g = GangScheduler::new(8, GangPolicy::StrictNoBackfill);
        g.join(0, 100.0, 5);
        g.join(1, 100.0, 5);
        // Only one width-5 gang fits; the strict policy must not backfill the
        // other, idling 3 GPUs every round.
        let out = g.plan_round();
        assert_eq!(out.selected.len(), 1);
        assert_eq!(out.gpus_idle, 3);
    }

    #[test]
    fn gang_aware_backfills_what_fits() {
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        g.join(0, 100.0, 5);
        g.join(1, 100.0, 5);
        g.join(2, 100.0, 3);
        // Whichever 5-gang is selected first, the 3-gang fits alongside.
        let out = g.plan_round();
        assert_eq!(out.gpus_used, 8);
        assert!(out.selected.contains(&2));
    }

    #[test]
    fn no_starvation_of_full_width_gang() {
        // A full-width gang among many singles must still run regularly.
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(0, 100.0, 4);
        for id in 1..=4 {
            g.join(id, 100.0, 1);
        }
        let acc = gpu_time(&mut g, 500);
        let total: u64 = acc.values().sum();
        let share = acc[&0] as f64 / total as f64;
        assert!(
            (share - 0.2).abs() < 0.05,
            "full-width gang share {share}, expected ~0.2"
        );
    }

    #[test]
    fn tickets_weight_gpu_time() {
        // Capacity 2 with two width-2 gangs: exactly one runs per round, so
        // tickets fully determine the round split.
        let mut g = GangScheduler::new(2, GangPolicy::GangAware);
        g.join(0, 300.0, 2);
        g.join(1, 100.0, 2);
        let acc = gpu_time(&mut g, 400);
        let ratio = acc[&0] as f64 / acc[&1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.2,
            "expected 3x GPU-time for 3x tickets, got {ratio}"
        );
    }

    #[test]
    fn work_conserving_when_demand_suffices() {
        // With plenty of single-GPU jobs the server must never idle.
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        for id in 0..10 {
            g.join(id, 100.0, 1);
        }
        for _ in 0..50 {
            let out = g.plan_round();
            assert_eq!(out.gpus_idle, 0);
        }
    }

    #[test]
    fn packing_gap_smaller_than_any_skipped_gang() {
        // Work-conservation invariant of the packer: after planning, the
        // free GPUs cannot fit any job that was skipped.
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        for (id, w) in [(0, 3), (1, 3), (2, 4), (3, 6), (4, 2)] {
            g.join(id, 100.0, w);
        }
        for _ in 0..100 {
            let out = g.plan_round();
            let skipped_min_width = g
                .iter()
                .filter(|(k, _, _, _)| !out.selected.contains(k))
                .map(|(_, _, w, _)| w)
                .min();
            if let Some(minw) = skipped_min_width {
                assert!(out.gpus_idle < minw);
            }
        }
    }

    #[test]
    fn leave_frees_tickets() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(0, 100.0, 2);
        g.join(1, 100.0, 2);
        assert!(g.leave(0));
        assert!(!g.leave(0));
        assert_eq!(g.total_tickets(), 100.0);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn set_tickets_shifts_share() {
        // Capacity 2 forces the two width-2 gangs to alternate.
        let mut g = GangScheduler::new(2, GangPolicy::GangAware);
        g.join(0, 100.0, 2);
        g.join(1, 100.0, 2);
        let _ = gpu_time(&mut g, 100);
        g.set_tickets(0, 300.0);
        let acc = gpu_time(&mut g, 600);
        let ratio = acc[&0] as f64 / acc[&1] as f64;
        assert!(
            ratio > 2.4,
            "after modulation client 0 should get ~3x, got {ratio}"
        );
    }

    #[test]
    fn empty_round_is_harmless() {
        let mut g = GangScheduler::<u32>::new(4, GangPolicy::GangAware);
        let out = g.plan_round();
        assert!(out.selected.is_empty());
        assert_eq!(out.gpus_idle, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds server capacity")]
    fn oversized_gang_panics() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(0, 100.0, 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least one GPU")]
    fn zero_capacity_panics() {
        let _ = GangScheduler::<u32>::new(0, GangPolicy::GangAware);
    }

    #[test]
    #[should_panic(expected = "client joined twice")]
    fn double_join_panics() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(1, 100.0, 1);
        g.join(1, 100.0, 1);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_tickets_panics() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(1, 0.0, 1);
    }

    #[test]
    fn ticket_modulation_rescales_debt() {
        let mut g = GangScheduler::new(1, GangPolicy::GangAware);
        g.join(1, 100.0, 1);
        let remain_before = g.pass_of(1).unwrap() - g.global_pass;
        g.set_tickets(1, 200.0);
        let remain_after = g.pass_of(1).unwrap() - g.global_pass;
        // Doubling tickets halves the stride and thus halves pending debt.
        assert!((remain_after - remain_before / 2.0).abs() < 1e-6);
    }

    #[test]
    fn lag_is_bounded_by_one_quantum() {
        // Width-1 clients on a 1-GPU server are classic stride, which
        // guarantees |service - entitlement| <= 1 quantum.
        let mut g = GangScheduler::new(1, GangPolicy::GangAware);
        g.join(1, 300.0, 1);
        g.join(2, 100.0, 1);
        let mut got1 = 0usize;
        for round in 1..=400usize {
            let out = g.plan_round();
            assert_eq!(out.selected.len(), 1);
            if out.selected[0] == 1 {
                got1 += 1;
            }
            let e1 = round as f64 * 0.75;
            assert!(
                (got1 as f64 - e1).abs() <= 1.0 + 1e-9,
                "lag exceeded at round {round}: got {got1}, expected {e1}"
            );
        }
    }

    #[test]
    fn ties_break_deterministically_by_key() {
        let mut g = GangScheduler::new(1, GangPolicy::GangAware);
        g.join(5, 100.0, 1);
        g.join(3, 100.0, 1);
        // Both start with identical pass; the smaller key must win.
        assert_eq!(g.plan_round().selected, vec![3]);
    }

    #[test]
    fn late_joiner_integrates_smoothly() {
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        g.join(0, 100.0, 4);
        g.join(1, 100.0, 4);
        let _ = gpu_time(&mut g, 200);
        g.join(2, 100.0, 4);
        let acc = gpu_time(&mut g, 600);
        let total: u64 = acc.values().sum();
        let share2 = acc[&2] as f64 / total as f64;
        // Three equal-ticket clients from here on: newcomer gets ~1/3.
        assert!(
            (share2 - 1.0 / 3.0).abs() < 0.05,
            "late joiner share {share2}"
        );
    }

    #[test]
    fn set_tickets_with_unchanged_count_is_a_true_noop() {
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        g.join(0, 100.0, 2);
        g.join(1, 50.0, 3);
        for _ in 0..7 {
            g.plan_round();
        }
        let before: Vec<_> = g
            .iter()
            .map(|(k, t, w, p)| (k, t, w, p.to_bits()))
            .collect();
        g.set_tickets(0, 100.0);
        g.set_tickets(1, 50.0);
        let after: Vec<_> = g
            .iter()
            .map(|(k, t, w, p)| (k, t, w, p.to_bits()))
            .collect();
        assert_eq!(before, after, "unchanged tickets must not drift passes");
    }

    /// Asserts the two schedulers hold bit-identical state.
    fn assert_state_eq(a: &GangScheduler<u32>, b: &GangScheduler<u32>) {
        let sa: Vec<_> = a
            .iter()
            .map(|(k, t, w, p)| (k, t.to_bits(), w, p.to_bits()))
            .collect();
        let sb: Vec<_> = b
            .iter()
            .map(|(k, t, w, p)| (k, t.to_bits(), w, p.to_bits()))
            .collect();
        assert_eq!(sa, sb, "client state diverged");
        assert_eq!(
            a.global_pass.to_bits(),
            b.global_pass.to_bits(),
            "global pass diverged: {} vs {}",
            a.global_pass,
            b.global_pass
        );
        let oa: Vec<_> = a
            .order
            .iter()
            .map(|&(Pass(p), k)| (p.to_bits(), k))
            .collect();
        let ob: Vec<_> = b
            .order
            .iter()
            .map(|&(Pass(p), k)| (p.to_bits(), k))
            .collect();
        assert_eq!(oa, ob, "order index diverged");
    }

    /// Steps `g` through `j` rounds, checking that each selects every
    /// client (compared as sets: the scan order may rotate), and
    /// returns how many rounds rotated the scan order.
    fn step_selecting_all(g: &mut GangScheduler<u32>, j: u64) -> u64 {
        let scan = |g: &GangScheduler<u32>| g.order.iter().map(|&(_, k)| k).collect::<Vec<_>>();
        let mut all = scan(g);
        all.sort_unstable();
        let mut rotations = 0;
        for _ in 0..j {
            let before = scan(g);
            let mut got = g.plan_round().selected;
            got.sort_unstable();
            assert_eq!(got, all, "a round left a fitting client out");
            rotations += u64::from(scan(g) != before);
        }
        rotations
    }

    #[test]
    fn fast_forward_matches_stepping_for_all_policies() {
        for policy in [
            GangPolicy::GangAware,
            GangPolicy::JobLevelStride,
            GangPolicy::StrictNoBackfill,
        ] {
            // All gangs fit at once (2+4+2+3+1 = 12 <= 16). The clients join
            // at staggered rounds, so their passes start apart; under every
            // policy they cross five times, from a few rounds to (under
            // job-level stride) thousands of rounds after the last join.
            let mut a = GangScheduler::new(16, policy);
            let mut round = 0;
            for (id, (t, w, at)) in [
                (40.0, 2u32, 0u64),
                (100.0, 4, 50),
                (70.0, 2, 200),
                (130.0, 3, 300),
                (55.5, 1, 300),
            ]
            .into_iter()
            .enumerate()
            {
                step_selecting_all(&mut a, at - round);
                round = at;
                a.join(id as u32, t, w);
            }
            let mut b = a.clone();
            let mut rotations = 0;
            for j in [1, 2, 7, 50, 333, 2999] {
                assert!(a.fits_all(), "{policy:?}");
                a.fast_forward(j);
                rotations += step_selecting_all(&mut b, j);
                assert_state_eq(&a, &b);
            }
            assert!(
                rotations >= 3,
                "{policy:?}: the scan order rotated only {rotations} times"
            );
        }
    }

    #[test]
    fn fits_all_sums_every_gang_width() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        assert!(g.fits_all(), "an empty server");
        g.join(0, 100.0, 3);
        assert!(g.fits_all());
        g.join(1, 100.0, 3);
        assert!(!g.fits_all(), "3 + 3 GPUs on a 4-GPU server");
        assert!(g.leave(0));
        assert!(g.fits_all());
    }

    #[test]
    fn fast_forward_on_an_empty_server_changes_nothing() {
        let mut g = GangScheduler::<u32>::new(4, GangPolicy::GangAware);
        let before = g.clone();
        g.fast_forward(42);
        assert_state_eq(&g, &before);
        assert!(g.plan_round().selected.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// With capacity equal to the (uniform) gang width, exactly one gang
        /// runs per round and gang-aware stride degenerates to classic
        /// stride: service must be ticket-proportional with bounded lag.
        #[test]
        fn contended_same_width_clients_are_ticket_proportional(
            width in 1u32..5,
            tickets in proptest::collection::vec(1u32..20, 2..5),
        ) {
            let capacity = width;
            let mut g = GangScheduler::new(capacity, GangPolicy::GangAware);
            for (i, &t) in tickets.iter().enumerate() {
                g.join(i as u32, t as f64 * 10.0, width);
            }
            let rounds = 2000usize;
            let mut acc: HashMap<u32, u64> = HashMap::new();
            for _ in 0..rounds {
                for k in g.plan_round().selected {
                    *acc.entry(k).or_insert(0) += width as u64;
                }
            }
            let total_t: f64 = tickets.iter().map(|&t| t as f64).sum();
            let total_g: u64 = acc.values().sum();
            for (i, &t) in tickets.iter().enumerate() {
                let expected = total_g as f64 * t as f64 / total_t;
                let got = *acc.get(&(i as u32)).unwrap_or(&0) as f64;
                // Bounded lag: deviation stays within a few gang-quanta of
                // the proportional share over a long horizon.
                prop_assert!(
                    (got - expected).abs() <= (width as f64) * (tickets.len() as f64 + 2.0),
                    "client {i}: got {got}, expected {expected} (acc {acc:?})"
                );
            }
        }

        /// The plan never overcommits the server and never leaves a gap any
        /// skipped client could fill (gang-aware policy).
        #[test]
        fn plan_is_feasible_and_gap_free(
            widths in proptest::collection::vec(1u32..8, 1..10),
            capacity in 8u32..16,
            rounds in 1usize..200,
        ) {
            let mut g = GangScheduler::new(capacity, GangPolicy::GangAware);
            for (i, &w) in widths.iter().enumerate() {
                g.join(i as u32, 100.0, w.min(capacity));
            }
            for _ in 0..rounds {
                let out = g.plan_round();
                prop_assert!(out.gpus_used <= capacity);
                prop_assert_eq!(out.gpus_used + out.gpus_idle, capacity);
                let min_skipped = g
                    .iter()
                    .filter(|(k, _, _, _)| !out.selected.contains(k))
                    .map(|(_, _, w, _)| w)
                    .min();
                if let Some(minw) = min_skipped {
                    prop_assert!(out.gpus_idle < minw, "gap {} fits skipped width {}", out.gpus_idle, minw);
                }
            }
        }

        /// The minimum-pass client is always selected (the scan
        /// starts with the whole server free, so the head of the pass order
        /// always fits) — this is the gang-aware no-starvation guarantee.
        #[test]
        fn min_pass_client_is_always_selected(
            widths in proptest::collection::vec(1u32..8, 2..8),
            rounds in 1usize..300,
        ) {
            let mut g = GangScheduler::new(8, GangPolicy::GangAware);
            for (i, &w) in widths.iter().enumerate() {
                g.join(i as u32, 100.0, w);
            }
            for _ in 0..rounds {
                let head = g
                    .iter()
                    .min_by(|a, b| a.3.total_cmp(&b.3).then(a.0.cmp(&b.0)))
                    .map(|(k, _, _, _)| k)
                    .unwrap();
                let out = g.plan_round();
                prop_assert!(
                    out.selected.contains(&head),
                    "min-pass client {head} skipped (selected {:?})",
                    out.selected
                );
            }
        }

        /// No client starves: with equal tickets, every client runs at least
        /// once every few stride cycles over a long horizon.
        #[test]
        fn no_client_starves(
            widths in proptest::collection::vec(1u32..8, 2..8),
        ) {
            let mut g = GangScheduler::new(8, GangPolicy::GangAware);
            for (i, &w) in widths.iter().enumerate() {
                g.join(i as u32, 100.0, w);
            }
            let rounds = 2000usize;
            let mut runs: HashMap<u32, usize> = HashMap::new();
            for _ in 0..rounds {
                for k in g.plan_round().selected {
                    *runs.entry(k).or_insert(0) += 1;
                }
            }
            for i in 0..widths.len() as u32 {
                let r = *runs.get(&i).unwrap_or(&0);
                prop_assert!(
                    r >= rounds / 20,
                    "client {i} (width {}) ran only {r}/{rounds} rounds",
                    widths[i as usize]
                );
            }
        }

        /// Differential oracle: whenever every client fits,
        /// `fast_forward(j)` must land on the bit-identical state that `j`
        /// naive rounds produce, for every policy and random population.
        /// Clients join at random warm-up rounds, so their passes start
        /// apart and may cross anywhere in the span.
        #[test]
        fn fast_forward_is_byte_identical_to_stepping(
            pop in proptest::collection::vec((1u32..500, 1u32..6, 0u64..400), 1..8),
            spare in 0u32..8,
            j in 1u64..3000,
            policy_ix in 0usize..3,
        ) {
            let policy = [
                GangPolicy::GangAware,
                GangPolicy::JobLevelStride,
                GangPolicy::StrictNoBackfill,
            ][policy_ix];
            let capacity = pop.iter().map(|&(_, w, _)| w).sum::<u32>() + spare;
            let mut a = GangScheduler::new(capacity, policy);
            let warmup = pop.iter().map(|&(_, _, at)| at).max().unwrap_or(0);
            for round in 0..=warmup {
                for (i, &(t, w, at)) in pop.iter().enumerate() {
                    if at == round {
                        a.join(i as u32, t as f64 + 0.25, w);
                    }
                }
                let _ = a.plan_round();
            }
            prop_assert!(a.fits_all());
            let mut b = a.clone();
            a.fast_forward(j);
            let all: Vec<u32> = (0..pop.len() as u32).collect();
            for _ in 0..j {
                let mut got = b.plan_round().selected;
                got.sort_unstable();
                prop_assert_eq!(&got, &all);
            }
            let sa: Vec<_> = a.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
            let sb: Vec<_> = b.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(a.global_pass.to_bits(), b.global_pass.to_bits());
            let oa: Vec<_> = a.order.iter().map(|&(Pass(p), c)| (p.to_bits(), c)).collect();
            let ob: Vec<_> = b.order.iter().map(|&(Pass(p), c)| (p.to_bits(), c)).collect();
            prop_assert_eq!(oa, ob);
            // And the next naive round agrees on both sides, in scan order.
            prop_assert_eq!(a.plan_round().selected, b.plan_round().selected);
        }

        /// Differential oracle for the sorted tables: random join, leave,
        /// ticket, planning and fast-forward sequences must select in the
        /// same order (the same set, over a fast-forward of a server whose
        /// clients all fit), and leave bit-identical
        /// passes, as a reference that re-sorts every client by
        /// `(pass, key)` each round.
        #[test]
        fn sorted_tables_match_a_resorting_reference(
            ops in proptest::collection::vec(
                (0u32..9, 0u32..8, 1u32..500, 1u32..9, 0u64..400),
                1..120,
            ),
            capacity in 1u32..12,
            policy_ix in 0usize..3,
        ) {
            let policy = [
                GangPolicy::GangAware,
                GangPolicy::JobLevelStride,
                GangPolicy::StrictNoBackfill,
            ][policy_ix];
            let mut g = GangScheduler::new(capacity, policy);
            let mut r = Reference { capacity, policy, clients: Vec::new(), global_pass: 0.0, total_tickets: 0.0 };
            for (step, &(kind, key, tickets, width, k)) in ops.iter().enumerate() {
                let known = r.clients.iter().any(|c| c.0 == key);
                let tickets = tickets as f64 + 0.5;
                match kind {
                    0 if !known => {
                        let width = width.min(capacity);
                        g.join(key, tickets, width);
                        r.join(key, tickets, width);
                    }
                    1 => prop_assert_eq!(g.leave(key), r.leave(key)),
                    2 if known => {
                        g.set_tickets(key, tickets);
                        r.set_tickets(key, tickets);
                    }
                    3..=5 => {
                        let got = g.plan_round().selected;
                        prop_assert_eq!(&got, &r.plan_round(), "step {}", step);
                    }
                    6..=8 if g.fits_all() => {
                        g.fast_forward(k);
                        let mut all: Vec<u32> = r.scan_order().iter().map(|&i| r.clients[i].0).collect();
                        all.sort_unstable();
                        for _ in 0..k {
                            let mut got = r.plan_round();
                            got.sort_unstable();
                            prop_assert_eq!(&got, &all, "step {}", step);
                        }
                    }
                    _ => {}
                }
                let got: Vec<_> = g.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
                let want: Vec<_> = r.clients.iter().map(|&(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!(g.global_pass.to_bits(), r.global_pass.to_bits(), "step {}", step);
                prop_assert_eq!(g.total_tickets.to_bits(), r.total_tickets.to_bits(), "step {}", step);
                let order: Vec<_> = g.order.iter().map(|&(Pass(p), c)| (p.to_bits(), c)).collect();
                let want: Vec<_> = r.scan_order().iter().map(|&i| (r.clients[i].3.to_bits(), r.clients[i].0)).collect();
                prop_assert_eq!(order, want, "step {}", step);
            }
        }
    }

    /// The gang scheduler restated without sorted tables: clients in a
    /// key-sorted list of `(key, tickets, width, pass)`, and every round
    /// re-sorts them by `(pass, key)`. Float operations
    /// are written out in the same sequence as [`GangScheduler`]'s.
    struct Reference {
        capacity: u32,
        policy: GangPolicy,
        clients: Vec<(u32, f64, u32, f64)>,
        global_pass: f64,
        total_tickets: f64,
    }

    impl Reference {
        fn at(&self, key: u32) -> Option<usize> {
            self.clients.iter().position(|c| c.0 == key)
        }

        fn join(&mut self, key: u32, tickets: f64, width: u32) {
            let pass = self.global_pass + STRIDE1 / tickets;
            self.clients.push((key, tickets, width, pass));
            self.clients.sort_by_key(|c| c.0);
            self.total_tickets += tickets;
        }

        fn leave(&mut self, key: u32) -> bool {
            let Some(i) = self.at(key) else {
                return false;
            };
            let c = self.clients.remove(i);
            self.total_tickets -= c.1;
            if self.clients.is_empty() {
                self.total_tickets = 0.0;
            }
            true
        }

        fn set_tickets(&mut self, key: u32, tickets: f64) {
            let global = self.global_pass;
            let i = self.at(key).unwrap();
            let c = &mut self.clients[i];
            if tickets == c.1 {
                return;
            }
            let scaled = (c.3 - global) * (c.1 / tickets);
            self.total_tickets += tickets - c.1;
            c.1 = tickets;
            c.3 = global + scaled;
        }

        /// Indices of the clients in `(pass, key)` order.
        fn scan_order(&self) -> Vec<usize> {
            let mut ix: Vec<usize> = (0..self.clients.len()).collect();
            ix.sort_by(|&a, &b| {
                let (ca, cb) = (self.clients[a], self.clients[b]);
                ca.3.total_cmp(&cb.3).then(ca.0.cmp(&cb.0))
            });
            ix
        }

        fn plan_round(&mut self) -> Vec<u32> {
            let mut free = self.capacity;
            let mut picked = Vec::new();
            for i in self.scan_order() {
                let width = self.clients[i].2;
                if width <= free {
                    picked.push(i);
                    free -= width;
                    if free == 0 {
                        break;
                    }
                } else if self.policy == GangPolicy::StrictNoBackfill {
                    break;
                }
            }
            let mut used = 0u32;
            for &i in &picked {
                let c = &mut self.clients[i];
                c.3 += STRIDE1 / c.1 * self.policy.quanta(c.2);
                used += c.2;
            }
            if self.total_tickets > 0.0 && used > 0 {
                self.global_pass += STRIDE1 * used as f64 / self.total_tickets;
            }
            picked.iter().map(|&i| self.clients[i].0).collect()
        }
    }
}
