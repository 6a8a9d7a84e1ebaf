//! Split (hierarchical) stride scheduling.
//!
//! Gandiva_fair enforces fairness **between users**, not between jobs: a user
//! who submits six jobs must not receive six times the share of a user with
//! one job. Split stride achieves this with a two-level ticket currency:
//! each user's weight is exchanged into job tickets, divided equally among
//! the user's current jobs on the server. Because gang-aware stride delivers
//! GPU-time proportional to tickets, the sum of a user's job shares equals
//! the user's weight share regardless of how many jobs carry it.
//!
//! Ticket exchange is recomputed on every membership or weight change, using
//! the underlying scheduler's debt-rescaling ticket modulation so changes
//! take effect smoothly.

use crate::gang::{GangPolicy, GangScheduler, RoundOutcome};

#[derive(Debug, Clone)]
struct UserEntry<J> {
    weight: f64,
    /// The user's jobs here, sorted.
    jobs: Vec<J>,
}

/// A two-level proportional-share gang scheduler: users, then jobs.
///
/// # Examples
///
/// ```
/// use gfair_stride::{SplitStride, GangPolicy};
///
/// let mut s = SplitStride::new(4, GangPolicy::GangAware);
/// s.set_user_weight("alice", 100.0);
/// s.set_user_weight("bob", 100.0);
/// // Alice floods the server with four jobs; Bob has one.
/// for j in 0..4 {
///     s.add_job("alice", j, 1);
/// }
/// s.add_job("bob", 99, 2);
/// let mut user_time = std::collections::HashMap::new();
/// for _ in 0..1000 {
///     for j in s.plan_round().selected {
///         let u = s.user_of(j).unwrap();
///         *user_time.entry(u).or_insert(0u64) += s.width_of(j).unwrap() as u64;
///     }
/// }
/// // Equal weights => equal user GPU-time despite 4-vs-1 job counts.
/// let a = user_time[&"alice"] as f64;
/// let b = user_time[&"bob"] as f64;
/// assert!((a - b).abs() / a < 0.05, "alice {a} bob {b}");
/// ```
#[derive(Debug, Clone)]
pub struct SplitStride<U, J> {
    inner: GangScheduler<J>,
    /// Users with a weight, sorted by key and found by binary search. A
    /// user keeps its entry (and its last weight) after its last job here
    /// leaves.
    users: Vec<(U, UserEntry<J>)>,
    /// Owning user of every registered job, sorted by job key.
    job_user: Vec<(J, U)>,
}

impl<U: Copy + Ord, J: Copy + Ord> SplitStride<U, J> {
    /// Creates a split-stride scheduler for a server with `capacity` GPUs.
    pub fn new(capacity: u32, policy: GangPolicy) -> Self {
        SplitStride {
            inner: GangScheduler::new(capacity, policy),
            users: Vec::new(),
            job_user: Vec::new(),
        }
    }

    /// Index of user `u` in the user table (`Err` holds the insertion point).
    fn user_slot(&self, u: U) -> Result<usize, usize> {
        self.users.binary_search_by(|(k, _)| k.cmp(&u))
    }

    /// Index of job `j` in the job table (`Err` holds the insertion point).
    fn job_slot(&self, j: J) -> Result<usize, usize> {
        self.job_user.binary_search_by(|(k, _)| k.cmp(&j))
    }

    /// Server GPU capacity.
    pub fn capacity(&self) -> u32 {
        self.inner.capacity()
    }

    /// Number of jobs currently registered.
    pub fn num_jobs(&self) -> usize {
        self.job_user.len()
    }

    /// Number of users with at least one job or an explicit weight.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Sets (or creates) a user's weight. Job tickets of that user are
    /// re-exchanged immediately.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive and finite.
    pub fn set_user_weight(&mut self, u: U, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "user weight must be positive and finite, got {weight}"
        );
        let i = match self.user_slot(u) {
            // Re-applying the current weight re-derives the same per-job
            // share, so the exchange is a no-op; skip the per-job ticket
            // refresh entirely.
            Ok(i) if self.users[i].1.weight == weight => return,
            Ok(i) => i,
            Err(i) => {
                let entry = UserEntry {
                    weight,
                    jobs: Vec::new(),
                };
                self.users.insert(i, (u, entry));
                i
            }
        };
        self.users[i].1.weight = weight;
        self.reexchange(i);
    }

    /// Current weight of a user, if known. A user without jobs here keeps
    /// the weight it last held, which callers may leave stale until it adds
    /// a job again.
    pub fn user_weight(&self, u: U) -> Option<f64> {
        self.user_slot(u).ok().map(|i| self.users[i].1.weight)
    }

    /// Adds a job of `width` GPUs for user `u`.
    ///
    /// The user must have been given a weight first.
    ///
    /// # Panics
    ///
    /// Panics if the user has no weight, the job is already present, or the
    /// gang does not fit the server.
    pub fn add_job(&mut self, u: U, j: J, width: u32) {
        let Ok(ui) = self.user_slot(u) else {
            panic!("set_user_weight must be called before add_job");
        };
        let Err(ji) = self.job_slot(j) else {
            panic!("job added twice to split stride");
        };
        let entry = &mut self.users[ui].1;
        let at = entry
            .jobs
            .binary_search(&j)
            .expect_err("a new job is not listed yet");
        entry.jobs.insert(at, j);
        let share = entry.weight / entry.jobs.len() as f64;
        self.inner.join(j, share, width);
        self.job_user.insert(ji, (j, u));
        self.reexchange(ui);
    }

    /// Removes a job. Returns true if it was present. The owning user's
    /// remaining jobs absorb its tickets; a user left with no jobs keeps its
    /// weight and simply stops competing (work conservation).
    pub fn remove_job(&mut self, j: J) -> bool {
        let Ok(ji) = self.job_slot(j) else {
            return false;
        };
        let (_, u) = self.job_user.remove(ji);
        self.inner.leave(j);
        let ui = self.user_slot(u).expect("job owner has an entry");
        let jobs = &mut self.users[ui].1.jobs;
        let at = jobs.binary_search(&j).expect("job listed under its owner");
        jobs.remove(at);
        self.reexchange(ui);
        true
    }

    /// Removes a user and all of their jobs. Returns the number of jobs
    /// removed.
    pub fn remove_user(&mut self, u: U) -> usize {
        let Ok(ui) = self.user_slot(u) else {
            return 0;
        };
        let (_, entry) = self.users.remove(ui);
        for &j in &entry.jobs {
            self.inner.leave(j);
            let ji = self.job_slot(j).expect("listed job is registered");
            self.job_user.remove(ji);
        }
        entry.jobs.len()
    }

    /// Marks a job runnable or suspended.
    ///
    /// # Panics
    ///
    /// Panics if the job is unknown.
    pub fn set_job_runnable(&mut self, j: J, runnable: bool) {
        self.inner.set_runnable(j, runnable);
    }

    /// The user owning job `j`, if registered.
    pub fn user_of(&self, j: J) -> Option<U> {
        self.job_slot(j).ok().map(|i| self.job_user[i].1)
    }

    /// Gang width of job `j`, if registered.
    pub fn width_of(&self, j: J) -> Option<u32> {
        self.inner.width_of(j)
    }

    /// Effective job-level tickets of `j` after the currency exchange.
    pub fn job_tickets(&self, j: J) -> Option<f64> {
        self.inner.tickets_of(j)
    }

    /// Stride pass of job `j`, if registered.
    pub fn job_pass(&self, j: J) -> Option<f64> {
        self.inner.pass_of(j)
    }

    /// The user's effective stride pass on this server: the minimum pass
    /// among their registered jobs (lower pass runs sooner). `None` for
    /// unknown users or users with no jobs here.
    pub fn user_pass(&self, u: U) -> Option<f64> {
        let i = self.user_slot(u).ok()?;
        self.min_pass(&self.users[i].1)
    }

    /// Minimum pass among `entry`'s jobs, `None` when it has none.
    fn min_pass(&self, entry: &UserEntry<J>) -> Option<f64> {
        entry
            .jobs
            .iter()
            .filter_map(|&j| self.inner.pass_of(j))
            .min_by(f64::total_cmp)
    }

    /// Calls `f(owner, pass)` for every registered job, in job order. The
    /// minimum over a user's calls is its [`user_pass`](Self::user_pass).
    /// The job table and the inner scheduler's client table hold the same
    /// keys in the same order, so this is one sequential walk over both,
    /// with no per-job search.
    pub fn for_each_job_pass(&self, mut f: impl FnMut(U, f64)) {
        for (&(j, u), (k, pass)) in self.job_user.iter().zip(self.inner.passes()) {
            debug_assert!(j == k, "job table and client table diverged");
            f(u, pass);
        }
    }

    /// Plans one quantum (see [`GangScheduler::plan_round`]).
    pub fn plan_round(&mut self) -> RoundOutcome<J> {
        self.inner.plan_round()
    }

    /// Returns how many consecutive rounds (at most `k`) the next calls to
    /// [`plan_round`](Self::plan_round) would select exactly `expected`, in
    /// that order (see [`GangScheduler::quiescent_rounds`]). The user-level
    /// currency is only touched by membership and weight changes, never by
    /// planning, so quiescence is decided entirely by the inner gang
    /// scheduler.
    pub fn quiescent_rounds(&self, expected: &[J], k: u64) -> u64 {
        self.inner.quiescent_rounds(expected, k)
    }

    /// Replays `j` quiescent rounds in one step (see
    /// [`GangScheduler::fast_forward`]).
    pub fn fast_forward(&mut self, j: u64) {
        self.inner.fast_forward(j)
    }

    /// All registered jobs, in key order.
    pub fn jobs(&self) -> impl Iterator<Item = J> + '_ {
        self.job_user.iter().map(|&(j, _)| j)
    }

    /// Users with at least one registered job, in key order.
    pub fn active_users(&self) -> impl Iterator<Item = U> + '_ {
        self.users
            .iter()
            .filter(|(_, e)| !e.jobs.is_empty())
            .map(|&(u, _)| u)
    }

    /// Re-divides the weight of the user at table index `ui` equally among
    /// their current jobs.
    fn reexchange(&mut self, ui: usize) {
        let entry = &self.users[ui].1;
        if entry.jobs.is_empty() {
            return;
        }
        let share = entry.weight / entry.jobs.len() as f64;
        for &j in &entry.jobs {
            self.inner.set_tickets(j, share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Accumulates per-user GPU-quanta over `rounds`.
    fn user_gpu_time(s: &mut SplitStride<u32, u32>, rounds: usize) -> HashMap<u32, u64> {
        let mut acc = HashMap::new();
        for _ in 0..rounds {
            for j in s.plan_round().selected {
                let u = s.user_of(j).unwrap();
                *acc.entry(u).or_insert(0) += s.width_of(j).unwrap() as u64;
            }
        }
        acc
    }

    #[test]
    fn user_pass_is_the_min_over_the_users_jobs() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 2, 1);
        assert_eq!(s.user_pass(9), None, "unknown user has no pass");
        let u = s.user_pass(0).expect("registered user");
        let min_job = [1, 2]
            .iter()
            .filter_map(|&j| s.job_pass(j))
            .min_by(f64::total_cmp)
            .unwrap();
        assert_eq!(u, min_job);
        // After some rounds the invariant still holds.
        for _ in 0..5 {
            s.plan_round();
        }
        let u = s.user_pass(0).expect("registered user");
        let min_job = [1, 2]
            .iter()
            .filter_map(|&j| s.job_pass(j))
            .min_by(f64::total_cmp)
            .unwrap();
        assert_eq!(u, min_job);
    }

    #[test]
    fn job_passes_fold_to_user_passes() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 300.0);
        // Job keys interleave the two users, so a fold must merge them.
        s.add_job(1, 5, 1);
        s.add_job(0, 3, 2);
        s.add_job(0, 8, 1);
        s.add_job(1, 1, 1);
        for _ in 0..7 {
            s.plan_round();
            let mut jobs = Vec::new();
            let mut min: HashMap<u32, f64> = HashMap::new();
            s.for_each_job_pass(|u, p| {
                jobs.push(p);
                let m = min.entry(u).or_insert(p);
                *m = m.min(p);
            });
            let expected: Vec<f64> = [1, 3, 5, 8].iter().filter_map(|&j| s.job_pass(j)).collect();
            assert_eq!(jobs, expected, "one call per job, in job order");
            for u in [0, 1] {
                assert_eq!(Some(min[&u]), s.user_pass(u));
            }
        }
    }

    #[test]
    fn job_count_does_not_inflate_user_share() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        for j in 0..6 {
            s.add_job(0, j, 1);
        }
        s.add_job(1, 100, 1);
        let acc = user_gpu_time(&mut s, 1000);
        // User 1's single job can consume at most 1 GPU/round = 1000; its
        // fair half of 4 GPUs (2000) is infeasible, so the correct outcome
        // is user 1 maxed at ~1000 and user 0 taking the surplus.
        assert!(acc[&1] as f64 > 950.0, "single-job user starved: {acc:?}");
        assert!(
            acc[&0] as f64 > 2900.0,
            "surplus not redistributed: {acc:?}"
        );
    }

    #[test]
    fn equal_weights_equal_user_time_when_feasible() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        for j in 0..4 {
            s.add_job(0, j, 1);
        }
        s.add_job(1, 100, 2);
        let acc = user_gpu_time(&mut s, 1000);
        let a = acc[&0] as f64;
        let b = acc[&1] as f64;
        assert!((a - b).abs() / a < 0.05, "user shares diverged: {a} vs {b}");
    }

    #[test]
    fn weights_skew_user_time() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 300.0);
        s.set_user_weight(1, 100.0);
        for j in 0..3 {
            s.add_job(0, j, 1);
        }
        for j in 10..13 {
            s.add_job(1, j, 1);
        }
        let acc = user_gpu_time(&mut s, 1000);
        let ratio = acc[&0] as f64 / acc[&1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.3,
            "expected 3x for 3x weight, got {ratio}"
        );
    }

    #[test]
    fn job_tickets_are_weight_divided_by_count() {
        let mut s = SplitStride::new(8, GangPolicy::GangAware);
        s.set_user_weight(0, 120.0);
        s.add_job(0, 1, 1);
        assert_eq!(s.job_tickets(1), Some(120.0));
        s.add_job(0, 2, 1);
        s.add_job(0, 3, 1);
        assert_eq!(s.job_tickets(1), Some(40.0));
        assert_eq!(s.job_tickets(3), Some(40.0));
        s.remove_job(2);
        assert_eq!(s.job_tickets(1), Some(60.0));
    }

    #[test]
    fn removing_last_job_keeps_user() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.add_job(0, 1, 1);
        assert!(s.remove_job(1));
        assert_eq!(s.num_jobs(), 0);
        assert_eq!(s.num_users(), 1);
        assert_eq!(s.user_weight(0), Some(100.0));
        // The user can come back without resetting the weight.
        s.add_job(0, 2, 1);
        assert_eq!(s.job_tickets(2), Some(100.0));
    }

    #[test]
    fn jobless_user_readding_a_job_uses_the_new_weight() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(1, 2, 1);
        assert!(s.remove_job(1));
        assert_eq!(s.active_users().collect::<Vec<_>>(), vec![1]);
        // Weights move while user 0 has no job here: a caller refreshes only
        // users with jobs, so user 0 keeps its stale weight...
        s.set_user_weight(1, 40.0);
        assert_eq!(s.user_weight(0), Some(100.0));
        // ...until it adds a job again, which applies the current weight.
        s.set_user_weight(0, 250.0);
        s.add_job(0, 3, 1);
        s.add_job(0, 4, 1);
        assert_eq!(s.job_tickets(3), Some(125.0));
        assert_eq!(s.job_tickets(4), Some(125.0));
        assert_eq!(s.job_tickets(2), Some(40.0));
        assert_eq!(s.active_users().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn remove_user_drops_all_jobs() {
        let mut s = SplitStride::new(8, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 2, 1);
        s.add_job(1, 3, 1);
        assert_eq!(s.remove_user(0), 2);
        assert_eq!(s.num_jobs(), 1);
        assert_eq!(s.user_of(1), None);
        assert_eq!(s.user_of(3), Some(1));
    }

    #[test]
    fn idle_user_capacity_is_redistributed() {
        // User 1 has weight but no jobs: user 0 gets everything.
        let mut s = SplitStride::new(2, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 2, 1);
        let acc = user_gpu_time(&mut s, 100);
        assert_eq!(acc[&0], 200);
    }

    #[test]
    fn weight_change_applies_to_existing_jobs() {
        let mut s = SplitStride::new(2, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.set_user_weight(1, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(1, 2, 1);
        let _ = user_gpu_time(&mut s, 100);
        s.set_user_weight(0, 300.0);
        assert_eq!(s.job_tickets(1), Some(300.0));
        // Both jobs are single-GPU on a 2-GPU server: both always run, so
        // shares only diverge under contention; check tickets instead.
        assert_eq!(s.job_tickets(2), Some(100.0));
    }

    #[test]
    fn suspended_job_yields_to_siblings() {
        let mut s = SplitStride::new(1, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 2, 1);
        s.set_job_runnable(1, false);
        for _ in 0..10 {
            assert_eq!(s.plan_round().selected, vec![2]);
        }
    }

    #[test]
    #[should_panic(expected = "set_user_weight must be called")]
    fn job_without_user_weight_panics() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.add_job(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_job_panics() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 1, 1);
    }

    #[test]
    fn reapplying_a_weight_does_not_drift_job_passes() {
        let mut s = SplitStride::new(4, GangPolicy::GangAware);
        s.set_user_weight(0, 100.0);
        s.add_job(0, 1, 1);
        s.add_job(0, 2, 2);
        for _ in 0..9 {
            s.plan_round();
        }
        let before: Vec<_> = [1, 2]
            .iter()
            .map(|&j| (s.job_tickets(j).unwrap(), s.job_pass(j).unwrap().to_bits()))
            .collect();
        // Same weight, over and over — the round-by-round refresh pattern.
        for _ in 0..5 {
            s.set_user_weight(0, 100.0);
        }
        let after: Vec<_> = [1, 2]
            .iter()
            .map(|&j| (s.job_tickets(j).unwrap(), s.job_pass(j).unwrap().to_bits()))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn fast_forward_delegates_to_inner_scheduler() {
        let mut a = SplitStride::new(8, GangPolicy::GangAware);
        a.set_user_weight(0, 100.0);
        a.set_user_weight(1, 60.0);
        a.add_job(0, 1, 2);
        a.add_job(0, 2, 1);
        a.add_job(1, 3, 3);
        let mut b = a.clone();
        let mut ff_total = 0u64;
        for _ in 0..20 {
            let cached = a.plan_round().selected;
            assert_eq!(b.plan_round().selected, cached);
            let j = a.quiescent_rounds(&cached, 40);
            a.fast_forward(j);
            for _ in 0..j {
                assert_eq!(b.plan_round().selected, cached);
            }
            for jid in [1, 2, 3] {
                assert_eq!(
                    a.job_pass(jid).unwrap().to_bits(),
                    b.job_pass(jid).unwrap().to_bits(),
                    "job {jid} pass diverged"
                );
            }
            ff_total += j;
        }
        assert!(ff_total >= 1, "all jobs fit: some span must be granted");
    }

    #[test]
    fn remove_unknown_job_returns_false() {
        let mut s = SplitStride::<u32, u32>::new(4, GangPolicy::GangAware);
        assert!(!s.remove_job(9));
        assert_eq!(s.remove_user(9), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Users with equal weights and single-GPU jobs receive equal
        /// GPU-time regardless of how many jobs each submits, as long as
        /// every user can feasibly consume its share.
        #[test]
        fn equal_weight_users_equal_time(
            job_counts in proptest::collection::vec(1usize..5, 2..4),
        ) {
            // Capacity chosen so each user's share <= their narrowest
            // feasible consumption (every user has >= 1 job and capacity =
            // number of users means share = 1 GPU per user per round).
            let capacity = job_counts.len() as u32;
            let mut s = SplitStride::new(capacity, GangPolicy::GangAware);
            let mut next_job = 0u32;
            for (u, &n) in job_counts.iter().enumerate() {
                s.set_user_weight(u as u32, 100.0);
                for _ in 0..n {
                    s.add_job(u as u32, next_job, 1);
                    next_job += 1;
                }
            }
            let rounds = 1500usize;
            let mut acc: HashMap<u32, u64> = HashMap::new();
            for _ in 0..rounds {
                for j in s.plan_round().selected {
                    let u = s.user_of(j).unwrap();
                    *acc.entry(u).or_insert(0) += 1;
                }
            }
            let expected = rounds as f64; // 1 GPU per round per user
            for u in 0..job_counts.len() as u32 {
                let got = *acc.get(&u).unwrap_or(&0) as f64;
                prop_assert!(
                    (got - expected).abs() / expected < 0.05,
                    "user {u}: got {got}, expected {expected} (jobs {job_counts:?})"
                );
            }
        }
    }
}
