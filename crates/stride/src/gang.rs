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
//! round, runnable jobs are scanned in pass order and packed greedily into
//! the server's GPUs; a scheduled job's pass advances by
//! `stride x width` (GPU-time, not job-time); a *skipped* job's pass does not
//! advance, so it sinks to the minimum and — because the scan starts with the
//! full server free — is guaranteed the first slot within a bounded number of
//! rounds. The result is ticket-proportional *GPU-time* with bounded lag and
//! no starvation, while still backfilling smaller jobs.

use crate::STRIDE1;

/// Pass value as a totally ordered key (`f64::total_cmp` semantics), so
/// runnable clients can be kept sorted by `(pass, key)` — the exact order
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
    /// Serve strictly in pass order: when the minimum-pass runnable job does
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
    runnable: bool,
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
    /// Runnable clients sorted by `(pass, key)` — the scan order of
    /// [`plan_round`](Self::plan_round). Kept in lockstep with `clients`:
    /// contains exactly the runnable ones, under their current pass. A round
    /// then reads the order off this table and re-keys only the clients
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

    /// Every client's key and pass, in key order.
    pub fn passes(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        self.clients.iter().map(|(k, c)| (*k, c.pass))
    }

    /// Pass value of a client, if registered.
    pub fn pass_of(&self, k: K) -> Option<f64> {
        self.client(k).map(|c| c.pass)
    }

    /// Tickets of a client, if registered.
    pub fn tickets_of(&self, k: K) -> Option<f64> {
        self.client(k).map(|c| c.tickets)
    }

    /// Inserts runnable client `k` into the scan order under `pass`.
    fn order_insert(&mut self, pass: f64, k: K) {
        let i = self
            .order
            .binary_search(&(Pass(pass), k))
            .expect_err("client ordered twice");
        self.order.insert(i, (Pass(pass), k));
    }

    /// Removes runnable client `k`, ordered under `pass`, from the scan order.
    fn order_remove(&mut self, pass: f64, k: K) {
        let i = self
            .order
            .binary_search(&(Pass(pass), k))
            .expect("runnable client is ordered");
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
            runnable: true,
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
        if c.runnable {
            self.order_remove(c.pass, k);
        }
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
        let (old_pass, runnable) = (c.pass, c.runnable);
        c.pass = global + scaled;
        let new_pass = c.pass;
        if runnable {
            self.order_remove(old_pass, k);
            self.order_insert(new_pass, k);
        }
    }

    /// Marks a client runnable or not (e.g. suspended for migration).
    /// Non-runnable clients are skipped by [`plan_round`](Self::plan_round)
    /// and their pass does not advance.
    ///
    /// # Panics
    ///
    /// Panics if the client is unknown.
    pub fn set_runnable(&mut self, k: K, runnable: bool) {
        let i = slot(&self.clients, k).expect("unknown client");
        let c = &mut self.clients[i].1;
        if c.runnable == runnable {
            return;
        }
        c.runnable = runnable;
        let pass = c.pass;
        if runnable {
            self.order_insert(pass, k);
        } else {
            self.order_remove(pass, k);
        }
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

    /// Returns how many consecutive rounds (at most `k`) the next calls to
    /// [`plan_round`](Self::plan_round) would select exactly `expected`, in
    /// that order. Does not mutate any state.
    ///
    /// Quiescence requires every runnable client to fit the server at once
    /// (then the selection *set* is trivially stable) and the `(pass, key)`
    /// scan order to survive each round's pass advance. Order matters, not
    /// just membership: the selection order fixes the exact sequence of
    /// float operations a caller performs per selected client, so an order
    /// rotation ends the replayable span even though the same clients run.
    ///
    /// The returned `j` is the guarantee backing
    /// [`fast_forward`](Self::fast_forward): `fast_forward(j)` then leaves
    /// the scheduler byte-identical to `j` calls of `plan_round`.
    pub fn quiescent_rounds(&self, expected: &[K], k: u64) -> u64 {
        if k == 0 {
            return 0;
        }
        if self.order.is_empty() {
            // Nothing runnable: every round selects nothing and changes
            // nothing, so any horizon replays trivially.
            return if expected.is_empty() { k } else { 0 };
        }
        if self.order.len() != expected.len() {
            return 0;
        }
        // Scratch copies of (pass, per-round delta, key) in scan order. The
        // delta `stride() * quanta` is recomputed identically by every naive
        // round (tickets and width are untouched between rounds), so
        // repeated `pass += delta` reproduces the naive float sequence
        // bit-for-bit.
        let mut entries: Vec<(f64, f64, K)> = Vec::with_capacity(expected.len());
        let mut width = 0u64;
        for (&(Pass(pass), key), &exp) in self.order.iter().zip(expected.iter()) {
            if key != exp {
                return 0;
            }
            let c = self.client(key).expect("ordered client exists");
            width += c.width as u64;
            entries.push((pass, c.stride() * self.policy.quanta(c.width), key));
        }
        if width > self.capacity as u64 {
            // Contended server: skipped clients sink toward the minimum and
            // reshape the selection, so no round is safely replayable.
            return 0;
        }
        // Round 1 replays `expected` as-is; each further round requires the
        // advanced passes to preserve the strict (pass, key) scan order.
        let mut j = 1u64;
        'span: while j < k {
            for e in entries.iter_mut() {
                e.0 += e.1;
            }
            for w in entries.windows(2) {
                let (pa, _, ka) = w[0];
                let (pb, _, kb) = w[1];
                if pa.total_cmp(&pb).then(ka.cmp(&kb)) != std::cmp::Ordering::Less {
                    break 'span;
                }
            }
            j += 1;
        }
        j
    }

    /// Replays `j` quiescent rounds in one step.
    ///
    /// The caller must have verified `j <=`
    /// [`quiescent_rounds`](Self::quiescent_rounds) for the current state.
    /// Under that precondition the post-call state (client passes, order
    /// index, global pass) is byte-identical to calling
    /// [`plan_round`](Self::plan_round) `j` times: each client's pass is an
    /// independent accumulator receiving the same `j` additions of the same
    /// delta, and the global pass receives the same `j` additions because
    /// the GPU-quanta dispensed per round are identical across the span.
    pub fn fast_forward(&mut self, j: u64) {
        if j == 0 || self.order.is_empty() {
            return;
        }
        // Advance every runnable client in place. Within a granted span the
        // scan order survives each round, so the table stays sorted; the
        // sort only restores the invariant if the caller broke the
        // precondition, and is a linear check otherwise.
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
        // free GPUs cannot fit any runnable job that was skipped.
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
    fn suspended_clients_are_not_scheduled() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(0, 100.0, 2);
        g.join(1, 100.0, 2);
        g.set_runnable(0, false);
        for _ in 0..10 {
            let out = g.plan_round();
            assert_eq!(out.selected, vec![1]);
        }
        g.set_runnable(0, true);
        // After resuming, client 0 catches up (its pass lagged behind).
        let out = g.plan_round();
        assert!(out.selected.contains(&0));
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

    #[test]
    fn fast_forward_matches_stepping_for_all_policies() {
        for policy in [
            GangPolicy::GangAware,
            GangPolicy::JobLevelStride,
            GangPolicy::StrictNoBackfill,
        ] {
            // All gangs fit at once (3+2+4+1 = 10 <= 16), so rounds are
            // quiescent until the scan order rotates.
            let mut a = GangScheduler::new(16, policy);
            for (id, (t, w)) in [(130.0, 3u32), (70.0, 2), (100.0, 4), (55.5, 1)]
                .into_iter()
                .enumerate()
            {
                a.join(id as u32, t, w);
            }
            let mut b = a.clone();
            let mut ff_total = 0u64;
            for _ in 0..30 {
                // A naive round yields the cached plan each span replays;
                // when the scan order rotated, the probe returns 0 and the
                // next naive round re-caches — exactly the engine's loop.
                let cached = a.plan_round().selected;
                assert_eq!(b.plan_round().selected, cached, "{policy:?}");
                let j = a.quiescent_rounds(&cached, 50);
                assert!(j <= 50);
                a.fast_forward(j);
                for _ in 0..j {
                    assert_eq!(b.plan_round().selected, cached, "{policy:?}");
                }
                assert_state_eq(&a, &b);
                ff_total += j;
            }
            // All gangs fit, so deltas are constant and pairwise pass gaps
            // are monotonic: the order settles after finitely many swaps and
            // long spans must have been granted.
            assert!(
                ff_total >= 100,
                "spans too short to exercise batching ({policy:?}: {ff_total})"
            );
        }
    }

    #[test]
    fn quiescent_rounds_declines_contended_servers() {
        let mut g = GangScheduler::new(4, GangPolicy::GangAware);
        g.join(0, 100.0, 3);
        g.join(1, 100.0, 3);
        let cached = g.plan_round().selected;
        assert_eq!(g.quiescent_rounds(&cached, 100), 0);
    }

    #[test]
    fn quiescent_rounds_declines_mismatched_plans() {
        let mut g = GangScheduler::new(8, GangPolicy::GangAware);
        g.join(0, 100.0, 2);
        g.join(1, 100.0, 2);
        let _ = g.plan_round();
        assert_eq!(g.quiescent_rounds(&[1, 0], 10), 0, "wrong order");
        assert_eq!(g.quiescent_rounds(&[0], 10), 0, "wrong membership");
        assert_eq!(g.quiescent_rounds(&[], 10), 0, "empty vs runnable");
    }

    #[test]
    fn empty_scheduler_is_quiescent_forever() {
        let mut g = GangScheduler::<u32>::new(4, GangPolicy::GangAware);
        assert_eq!(g.quiescent_rounds(&[], 42), 42);
        g.fast_forward(42);
        assert!(g.plan_round().selected.is_empty());
        // Suspended-only populations behave like empty ones.
        g.join(0, 100.0, 1);
        g.set_runnable(0, false);
        let before = g.pass_of(0).unwrap().to_bits();
        assert_eq!(g.quiescent_rounds(&[], 7), 7);
        g.fast_forward(7);
        assert_eq!(g.pass_of(0).unwrap().to_bits(), before);
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
        /// skipped runnable client could fill (gang-aware policy).
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

        /// The minimum-pass runnable client is always selected (the scan
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

        /// Differential oracle: wherever `quiescent_rounds` grants a span,
        /// `fast_forward` must land on the byte-identical state that naive
        /// stepping produces, for every policy and random population.
        #[test]
        fn fast_forward_is_byte_identical_to_stepping(
            pop in proptest::collection::vec((1u32..500, 1u32..6), 1..8),
            capacity in 4u32..32,
            warmup in 0usize..10,
            k in 1u64..200,
            policy_ix in 0usize..3,
        ) {
            let policy = [
                GangPolicy::GangAware,
                GangPolicy::JobLevelStride,
                GangPolicy::StrictNoBackfill,
            ][policy_ix];
            let mut a = GangScheduler::new(capacity, policy);
            for (i, &(t, w)) in pop.iter().enumerate() {
                a.join(i as u32, t as f64 + 0.25, w.min(capacity));
            }
            let mut b = a.clone();
            for _ in 0..warmup {
                let _ = a.plan_round();
                let _ = b.plan_round();
            }
            let cached = a.plan_round().selected;
            prop_assert_eq!(&b.plan_round().selected, &cached);
            let j = a.quiescent_rounds(&cached, k);
            prop_assert!(j <= k);
            a.fast_forward(j);
            for _ in 0..j {
                prop_assert_eq!(&b.plan_round().selected, &cached);
            }
            let sa: Vec<_> = a.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
            let sb: Vec<_> = b.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(a.global_pass.to_bits(), b.global_pass.to_bits());
            // And the next naive round agrees on both sides.
            prop_assert_eq!(a.plan_round().selected, b.plan_round().selected);
        }

        /// Differential oracle for the sorted tables: random join, leave,
        /// ticket, runnability, planning and fast-forward sequences must
        /// select in the same order, and leave bit-identical passes, as a
        /// reference that re-sorts every client by `(pass, key)` each round.
        #[test]
        fn sorted_tables_match_a_resorting_reference(
            ops in proptest::collection::vec(
                (0u32..10, 0u32..8, 1u32..500, 1u32..9, proptest::bool::ANY, 0u64..40),
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
            let mut cached: Vec<u32> = Vec::new();
            for (step, &(kind, key, tickets, width, flag, k)) in ops.iter().enumerate() {
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
                    3 if known => {
                        g.set_runnable(key, flag);
                        r.set_runnable(key, flag);
                    }
                    4..=6 => {
                        cached = g.plan_round().selected;
                        prop_assert_eq!(&cached, &r.plan_round(), "step {}", step);
                    }
                    7..=9 => {
                        let j = g.quiescent_rounds(&cached, k);
                        prop_assert!(j <= k);
                        g.fast_forward(j);
                        for _ in 0..j {
                            prop_assert_eq!(&r.plan_round(), &cached, "step {}", step);
                        }
                    }
                    _ => {}
                }
                let got: Vec<_> = g.iter().map(|(c, t, w, p)| (c, t.to_bits(), w, p.to_bits())).collect();
                let want: Vec<_> = r.clients.iter().map(|&(c, t, w, p, _)| (c, t.to_bits(), w, p.to_bits())).collect();
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
    /// key-sorted list of `(key, tickets, width, pass, runnable)`, and every
    /// round re-sorts the runnable ones by `(pass, key)`. Float operations
    /// are written out in the same sequence as [`GangScheduler`]'s.
    struct Reference {
        capacity: u32,
        policy: GangPolicy,
        clients: Vec<(u32, f64, u32, f64, bool)>,
        global_pass: f64,
        total_tickets: f64,
    }

    impl Reference {
        fn at(&self, key: u32) -> Option<usize> {
            self.clients.iter().position(|c| c.0 == key)
        }

        fn join(&mut self, key: u32, tickets: f64, width: u32) {
            let pass = self.global_pass + STRIDE1 / tickets;
            self.clients.push((key, tickets, width, pass, true));
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

        fn set_runnable(&mut self, key: u32, runnable: bool) {
            let i = self.at(key).unwrap();
            self.clients[i].4 = runnable;
        }

        /// Indices of the runnable clients in `(pass, key)` order.
        fn scan_order(&self) -> Vec<usize> {
            let mut ix: Vec<usize> = (0..self.clients.len())
                .filter(|&i| self.clients[i].4)
                .collect();
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
