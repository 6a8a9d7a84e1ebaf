//! The fairness ledger: per-round, per-user deserved-vs-received accounting.
//!
//! Every scheduling round, each user *deserves* a GPU-share equal to their
//! ticket entitlement (for Gandiva_fair: the post-trade, generation-summed
//! GPU entitlement carried by [`RoundPlanned`](crate::TraceEvent::RoundPlanned)
//! user shares) and *receives* the GPUs the gang packer actually granted.
//! The ledger integrates both over the run and derives:
//!
//! - **cumulative Jain's index** over entitlement-normalized service
//!   (`received / deserved` per user),
//! - **instantaneous Gini** over the latest round's per-user received GPUs,
//! - an online **finish-time-fairness ρ** estimate per job
//!   (Themis, arXiv 1907.01484): `(finish − arrival) / service_secs`, the
//!   ratio of observed turnaround to the job's ideal isolated runtime on the
//!   base generation. ρ ≈ 1 means the job ran as if it had its entitlement
//!   to itself; large ρ means it queued or was starved.
//!
//! # Segment-coalesced accrual
//!
//! The ledger is a pure function of the trace-event stream. Consecutive
//! rounds with the same (tickets, received) key extend an open segment's
//! round count, and a segment is settled with one multiply per user
//! (`tickets × rounds`, `gpus × rounds`) when the key changes, so a steady
//! stretch of rounds costs one comparison per round. Settle boundaries fix
//! the floating-point order of the sums.

use crate::event::TraceEvent;
use crate::metrics::FixedHistogram;
use gfair_types::fairness::{gini, jain_index};
use serde::{Deserialize, Serialize};

/// Bucket upper bounds for the ρ histogram. ρ clusters around 1.0 for fair
/// runs; the tail buckets catch starved jobs.
const RHO_BOUNDS: [f64; 16] = [
    0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0,
];

/// Per-user totals in a [`LedgerSummary`], ascending by user id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerUserRow {
    /// The user's index.
    pub user: u32,
    /// Ticket-weighted GPU-rounds the user was entitled to.
    pub deserved: f64,
    /// GPU-rounds the gang packer actually granted.
    pub received: f64,
    /// Jobs of this user that finished.
    pub finished: u64,
    /// Mean finish-time-fairness ρ over finished jobs (0.0 when none).
    pub rho_mean: f64,
    /// Worst (largest) ρ over finished jobs (0.0 when none).
    pub rho_max: f64,
}

/// Distribution of finish-time-fairness ρ over all finished jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RhoSummary {
    /// Finished jobs with a defined ρ.
    pub count: u64,
    /// Mean ρ.
    pub mean: f64,
    /// Median ρ (fixed-bucket estimate).
    pub p50: f64,
    /// 99th-percentile ρ (fixed-bucket estimate).
    pub p99: f64,
    /// Largest ρ.
    pub max: f64,
}

impl Default for RhoSummary {
    fn default() -> Self {
        RhoSummary {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }
}

/// Deterministic snapshot of the fairness ledger, embedded in
/// [`ObsSummary`](crate::ObsSummary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Scheduling rounds accounted.
    pub rounds: u64,
    /// Cumulative Jain index over per-user `received / deserved`. Falls back
    /// to raw received GPU-rounds for schedulers without a ticket economy.
    /// 1.0 when no user has received anything yet.
    pub jain: f64,
    /// Gini coefficient of the latest round's per-user received GPUs
    /// (0.0 = perfectly equal, → 1.0 = one user holds everything).
    pub gini: f64,
    /// Distribution of finish-time fairness over finished jobs.
    pub rho: RhoSummary,
    /// Per-user totals, ascending by user id.
    pub users: Vec<LedgerUserRow>,
}

impl Default for LedgerSummary {
    fn default() -> Self {
        LedgerSummary {
            rounds: 0,
            jain: 1.0,
            gini: 0.0,
            rho: RhoSummary::default(),
            users: Vec::new(),
        }
    }
}

/// Streaming deserved-vs-received accounting over a trace-event stream.
///
/// Feed every event to [`ingest`](FairnessLedger::ingest) in emission order;
/// [`summary`](FairnessLedger::summary) is cheap and can be taken at any
/// point. The same implementation backs the live [`Obs`](crate::Obs)
/// pipeline and offline JSONL replay in `gfair-trace`, so the two can never
/// disagree about what a trace means.
#[derive(Debug, Clone)]
pub struct FairnessLedger {
    // Per-job facts captured at arrival, dense by job index.
    job_user: Vec<u32>,
    job_arrival_us: Vec<u64>,
    job_service_secs: Vec<f64>,
    // Settled per-user totals, dense by user index.
    deserved: Vec<f64>,
    received: Vec<f64>,
    rho_sum: Vec<f64>,
    rho_max: Vec<f64>,
    finished: Vec<u64>,
    rho_hist: FixedHistogram,
    rounds: u64,
    // Open segment: consecutive rounds sharing one (tickets, gpus) key.
    seg_tickets: Vec<(u32, f64)>,
    seg_gpus: Vec<(u32, u32)>,
    seg_count: u64,
}

impl Default for FairnessLedger {
    fn default() -> Self {
        FairnessLedger {
            job_user: Vec::new(),
            job_arrival_us: Vec::new(),
            job_service_secs: Vec::new(),
            deserved: Vec::new(),
            received: Vec::new(),
            rho_sum: Vec::new(),
            rho_max: Vec::new(),
            finished: Vec::new(),
            rho_hist: FixedHistogram::new(&RHO_BOUNDS),
            rounds: 0,
            seg_tickets: Vec::new(),
            seg_gpus: Vec::new(),
            seg_count: 0,
        }
    }
}

fn grow_to<T: Clone + Default>(v: &mut Vec<T>, index: usize) {
    if v.len() <= index {
        v.resize(index + 1, T::default());
    }
}

impl FairnessLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        FairnessLedger::default()
    }

    /// Feeds one trace event, in emission order.
    pub fn ingest(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::JobArrive {
                t,
                job,
                user,
                service_secs,
                ..
            } => {
                let j = job.index();
                grow_to(&mut self.job_user, j);
                grow_to(&mut self.job_arrival_us, j);
                grow_to(&mut self.job_service_secs, j);
                self.job_user[j] = user.index() as u32;
                self.job_arrival_us[j] = t.as_micros();
                self.job_service_secs[j] = *service_secs;
            }
            TraceEvent::JobFinish { t, job, user } => {
                let j = job.index();
                let service = self.job_service_secs.get(j).copied().unwrap_or(0.0);
                if service > 0.0 {
                    let arrival = self.job_arrival_us.get(j).copied().unwrap_or(0);
                    let turnaround = (t.as_micros().saturating_sub(arrival)) as f64 / 1e6;
                    let rho = turnaround / service;
                    let u = user.index();
                    grow_to(&mut self.rho_sum, u);
                    grow_to(&mut self.rho_max, u);
                    grow_to(&mut self.finished, u);
                    self.rho_sum[u] += rho;
                    if rho > self.rho_max[u] {
                        self.rho_max[u] = rho;
                    }
                    self.finished[u] += 1;
                    self.rho_hist.observe(rho);
                }
            }
            TraceEvent::RoundPlanned {
                users, user_gpus, ..
            } => {
                // Received share comes from the round's per-user aggregate,
                // not the per-gang `GangPacked` stream: the ledger replays
                // identically from traces that filter the gang firehose out.
                let mut tickets: Vec<(u32, f64)> = users
                    .iter()
                    .map(|s| (s.user.index() as u32, s.tickets))
                    .collect();
                tickets.sort_unstable_by_key(|&(u, _)| u);
                let mut grants: Vec<(u32, u32)> = user_gpus
                    .iter()
                    .map(|g| (g.user.index() as u32, g.gpus))
                    .collect();
                grants.sort_unstable_by_key(|&(u, _)| u);
                self.extend_segment(tickets, grants);
            }
            _ => {}
        }
    }

    /// Extends the open segment by one round of the given key, settling the
    /// previous segment first if the key changed.
    fn extend_segment(&mut self, tickets: Vec<(u32, f64)>, gpus: Vec<(u32, u32)>) {
        if self.seg_count > 0 && self.seg_tickets == tickets && self.seg_gpus == gpus {
            self.seg_count += 1;
        } else {
            self.settle();
            self.seg_tickets = tickets;
            self.seg_gpus = gpus;
            self.seg_count = 1;
        }
        self.rounds += 1;
    }

    /// Settles the open segment into the per-user totals: one multiply per
    /// user.
    fn settle(&mut self) {
        if self.seg_count == 0 {
            return;
        }
        let n = self.seg_count as f64;
        for &(u, t) in &self.seg_tickets {
            let u = u as usize;
            grow_to(&mut self.deserved, u);
            self.deserved[u] += t * n;
        }
        for &(u, g) in &self.seg_gpus {
            let u = u as usize;
            grow_to(&mut self.received, u);
            // Exact: both factors are integers and the product stays far
            // below 2^53.
            self.received[u] += (u64::from(g) * self.seg_count) as f64;
        }
        self.seg_count = 0;
    }

    /// Deserved/received totals for one user, including the open segment.
    fn totals_for(&self, u: usize) -> (f64, f64) {
        let mut deserved = self.deserved.get(u).copied().unwrap_or(0.0);
        let mut received = self.received.get(u).copied().unwrap_or(0.0);
        if self.seg_count > 0 {
            let n = self.seg_count as f64;
            if let Ok(i) = self
                .seg_tickets
                .binary_search_by_key(&(u as u32), |&(x, _)| x)
            {
                deserved += self.seg_tickets[i].1 * n;
            }
            if let Ok(i) = self.seg_gpus.binary_search_by_key(&(u as u32), |&(x, _)| x) {
                received += (u64::from(self.seg_gpus[i].1) * self.seg_count) as f64;
            }
        }
        (deserved, received)
    }

    /// Snapshot of the ledger. Does not mutate accrual state, so it can be
    /// taken mid-run (the open segment is folded in arithmetically).
    pub fn summary(&self) -> LedgerSummary {
        let n_users = self
            .deserved
            .len()
            .max(self.received.len())
            .max(self.finished.len())
            .max(self.seg_tickets.last().map_or(0, |&(u, _)| u as usize + 1))
            .max(self.seg_gpus.last().map_or(0, |&(u, _)| u as usize + 1));
        let mut users = Vec::new();
        for u in 0..n_users {
            let (deserved, received) = self.totals_for(u);
            let finished = self.finished.get(u).copied().unwrap_or(0);
            if deserved == 0.0 && received == 0.0 && finished == 0 {
                continue;
            }
            users.push(LedgerUserRow {
                user: u as u32,
                deserved,
                received,
                finished,
                rho_mean: if finished > 0 {
                    self.rho_sum[u] / finished as f64
                } else {
                    0.0
                },
                rho_max: self.rho_max.get(u).copied().unwrap_or(0.0),
            });
        }
        // Jain over entitlement-normalized service; raw received for
        // schedulers that expose no tickets (baselines).
        let normalized: Vec<f64> = if users.iter().any(|r| r.deserved > 0.0) {
            users
                .iter()
                .filter(|r| r.deserved > 0.0)
                .map(|r| r.received / r.deserved)
                .collect()
        } else {
            users.iter().map(|r| r.received).collect()
        };
        // Instantaneous Gini over the latest round's grants: every user the
        // open segment knows about, zero-filled for ticket-holders who
        // received nothing.
        let mut latest: Vec<f64> = Vec::with_capacity(self.seg_tickets.len());
        for &(u, _) in &self.seg_tickets {
            let g = self
                .seg_gpus
                .binary_search_by_key(&u, |&(x, _)| x)
                .map_or(0u32, |i| self.seg_gpus[i].1);
            latest.push(f64::from(g));
        }
        if self.seg_tickets.is_empty() {
            latest.extend(self.seg_gpus.iter().map(|&(_, g)| f64::from(g)));
        }
        LedgerSummary {
            rounds: self.rounds,
            jain: jain_index(&normalized),
            gini: gini(&latest),
            rho: RhoSummary {
                count: self.rho_hist.count(),
                mean: self.rho_hist.mean().unwrap_or(0.0),
                p50: self.rho_hist.quantile(0.5).unwrap_or(0.0),
                p99: self.rho_hist.quantile(0.99).unwrap_or(0.0),
                max: self.rho_hist.max().unwrap_or(0.0),
            },
            users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{UserGrant, UserShare};
    use gfair_types::{JobId, ServerId, SimTime, UserId};

    fn share(user: u32, tickets: f64) -> UserShare {
        UserShare {
            user: UserId::new(user),
            tickets,
        }
    }

    fn packed(round: u64, user: u32, width: u32) -> TraceEvent {
        TraceEvent::GangPacked {
            t: SimTime::from_secs(round * 60),
            round,
            server: ServerId::new(0),
            job: JobId::new(user),
            user: UserId::new(user),
            width,
            gang: width,
        }
    }

    fn grant(user: u32, gpus: u32) -> UserGrant {
        UserGrant {
            user: UserId::new(user),
            gpus,
        }
    }

    fn planned(round: u64, users: Vec<UserShare>, user_gpus: Vec<UserGrant>) -> TraceEvent {
        TraceEvent::RoundPlanned {
            t: SimTime::from_secs(round * 60),
            round,
            scheduled: 2,
            gpus_used: 6,
            gpus_up: 8,
            pending: 0,
            tickets_total: 8.0,
            users,
            user_gpus,
        }
    }

    #[test]
    fn accrues_deserved_and_received_per_round() {
        let mut l = FairnessLedger::new();
        for r in 1..=3u64 {
            // The per-gang stream must not double-count: received comes from
            // the round summary's aggregate alone.
            l.ingest(&packed(r, 0, 4));
            l.ingest(&packed(r, 1, 2));
            l.ingest(&planned(
                r,
                vec![share(0, 5.0), share(1, 3.0)],
                vec![grant(0, 4), grant(1, 2)],
            ));
        }
        let s = l.summary();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.users.len(), 2);
        assert_eq!(s.users[0].deserved, 15.0);
        assert_eq!(s.users[0].received, 12.0);
        assert_eq!(s.users[1].deserved, 9.0);
        assert_eq!(s.users[1].received, 6.0);
        assert!(s.jain > 0.99, "jain {}", s.jain);
    }

    #[test]
    fn rho_tracks_finish_time_fairness() {
        let mut l = FairnessLedger::new();
        l.ingest(&TraceEvent::JobArrive {
            t: SimTime::ZERO,
            job: JobId::new(0),
            user: UserId::new(0),
            gang: 1,
            service_secs: 100.0,
        });
        l.ingest(&TraceEvent::JobFinish {
            t: SimTime::from_secs(250),
            job: JobId::new(0),
            user: UserId::new(0),
        });
        let s = l.summary();
        assert_eq!(s.rho.count, 1);
        assert!((s.rho.mean - 2.5).abs() < 1e-9);
        assert!((s.rho.max - 2.5).abs() < 1e-9);
        assert_eq!(s.users.len(), 1);
        assert_eq!(s.users[0].finished, 1);
        assert!((s.users[0].rho_mean - 2.5).abs() < 1e-9);
    }

    #[test]
    fn jain_falls_back_to_raw_received_without_tickets() {
        let mut l = FairnessLedger::new();
        l.ingest(&planned(1, vec![], vec![grant(0, 6), grant(1, 2)]));
        let s = l.summary();
        // x = [6, 2]: jain = 64 / (2 * 40) = 0.8.
        assert!((s.jain - 0.8).abs() < 1e-9, "jain {}", s.jain);
    }

    #[test]
    fn gini_reflects_latest_round_spread() {
        let mut l = FairnessLedger::new();
        let both = || vec![share(0, 4.0), share(1, 4.0)];
        l.ingest(&planned(1, both(), vec![grant(0, 4), grant(1, 4)]));
        assert_eq!(l.summary().gini, 0.0);
        // Next round: user 0 hoards everything.
        l.ingest(&planned(2, both(), vec![grant(0, 8)]));
        let g = l.summary().gini;
        assert!((g - 0.5).abs() < 1e-9, "gini {g}");
    }

    #[test]
    fn summary_is_stable_across_snapshots() {
        let mut l = FairnessLedger::new();
        l.ingest(&planned(1, vec![share(0, 4.0)], vec![grant(0, 4)]));
        let first = l.summary();
        // Taking a summary must not disturb accrual state.
        assert_eq!(first, l.summary());
    }

    #[test]
    fn gini_helper_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5.0]), 0.0);
        assert_eq!(gini(&[3.0, 3.0, 3.0]), 0.0);
        // One of two holds everything: G = 0.5.
        assert!((gini(&[0.0, 8.0]) - 0.5).abs() < 1e-9);
        // All-zero input.
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }
}
