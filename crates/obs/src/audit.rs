//! The online invariant auditor.
//!
//! Consumes the trace-event stream *during* the run and checks what no
//! single engine check can see: properties that span several events or
//! rest on the scheduler's own accounting. It keeps its own residency
//! state, built purely from events — it never peeks at engine internals —
//! so a bug in the decision path or in event emission surfaces as a
//! violation instead of silently skewing results.
//!
//! Run sets are not checked here. The engine checks each set before it
//! emits the set's grants (server up, no job listed twice, every job
//! known and resident there, no overcommit) and grants every job its
//! whole gang, so the auditor ignores `GangPacked` (and `ServerUp`).
//!
//! ## Invariants
//!
//! Fatal (abort the run):
//! * **Ticket conservation** — when the scheduler reports per-user tickets
//!   (post-trade entitlements), they sum to the cluster's physical GPU
//!   supply: trading may move entitlement between users and generations but
//!   can never mint or destroy it.
//! * **Migration lifecycle** — across a failed migration no job is lost or
//!   duplicated: every `Migration` resolves to exactly one `Placement` or
//!   `MigrationFailed`, a failed job is either still resident or back in
//!   the queue, and an in-flight job can neither start a second migration
//!   nor finish.
//! * **Heal conservation** — ticket conservation specifically re-checked at
//!   the first planned round after a partition heals (stale partition-era
//!   entitlements must not leak into the healed economy). Reported as its
//!   own violation kind so fault experiments can tell the phases apart.
//!
//! Warn-only (counted, not fatal):
//! * **Work conservation** — a round that grants no GPUs while resident
//!   jobs exist. The deliberately naive `StrictNoBackfill` gang policy can
//!   do this legitimately, so it warns rather than aborts.
//!
//! ## Violation context
//!
//! A violation carries the JSONL lines of its round's non-grant events so
//! far (at most the last 256), rendered only when it fires. The
//! round-boundary event (`RoundPlanned`) clears the context, so it is
//! added to it only when it is the one that fails.

use crate::event::TraceEvent;
use gfair_types::{JobId, ServerId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// How many of the current round's events are attached to a violation.
const CONTEXT_CAP: usize = 256;

/// Relative tolerance for floating-point conservation checks.
const TICKET_TOL: f64 = 1e-6;

/// The specific invariant an offending event broke.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// Per-user tickets do not sum to the cluster's GPU supply.
    TicketConservation {
        /// Expected total (physical GPUs).
        expected: f64,
        /// Actual sum of reported user tickets.
        actual: f64,
    },
    /// A job was lost or duplicated across a migration or migration
    /// failure.
    MigrationLifecycle {
        /// Offending job.
        job: JobId,
    },
    /// Ticket conservation failed at the first round after a partition
    /// healed.
    HealConservation {
        /// Expected total (physical GPUs).
        expected: f64,
        /// Actual sum of reported user tickets.
        actual: f64,
    },
}

/// One detected invariant violation, with the offending round's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The round of a conservation violation; for a lifecycle violation,
    /// the last round planned before it (0 before the first round).
    pub round: u64,
    /// What was violated.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub message: String,
    /// JSONL lines of the offending round's events, oldest first.
    pub context: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant violated in round {}: {}",
            self.round, self.message
        )?;
        writeln!(f, "offending round trace ({} events):", self.context.len())?;
        for line in &self.context {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Online checker over the trace-event stream.
///
/// The per-job tables are dense vectors indexed by `JobId::index()` rather
/// than maps: ids in this workspace are dense by construction.
#[derive(Debug, Default)]
pub struct Auditor {
    /// Declared gang size per arrived job (0 = job unknown), indexed by
    /// `JobId::index()`.
    gang_of: Vec<u32>,
    /// Server each job is resident on, if any; indexed by `JobId::index()`.
    residency: Vec<Option<ServerId>>,
    /// Number of `Some` entries in `residency`.
    resident_count: usize,
    /// Migrations that have started but not yet resolved to a `Placement`
    /// or a `MigrationFailed`, keyed by job → (source, destination).
    in_flight: BTreeMap<JobId, (ServerId, ServerId)>,
    /// A partition healed since the last planned round; the next ticket
    /// conservation check reports as [`ViolationKind::HealConservation`].
    heal_pending: bool,
    /// Non-grant events since the last round boundary (violation
    /// context), at most `CONTEXT_CAP`. Rendered to JSONL only when a
    /// violation actually fires: serializing every event eagerly would put
    /// a `format!` on the hot path of clean runs, which are the
    /// overwhelmingly common case.
    round_events: VecDeque<TraceEvent>,
    current_round: u64,
    violations: Vec<Violation>,
    /// Index of the next violation [`Auditor::take_fatal`] will hand out.
    next_fatal: usize,
    warnings: u64,
}

impl Auditor {
    /// Creates an auditor with no knowledge of the cluster.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Grows `v` so index `i` exists, then hands out the slot.
    fn slot<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut T {
        if v.len() <= i {
            v.resize(i + 1, T::default());
        }
        &mut v[i]
    }

    /// Server `job` is resident on, if any.
    fn resident_on(&self, job: JobId) -> Option<ServerId> {
        self.residency.get(job.index()).copied().flatten()
    }

    /// Clears `job`'s residency, keeping `resident_count` consistent.
    fn unplace(&mut self, job: JobId) {
        if let Some(slot) = self.residency.get_mut(job.index()) {
            if slot.take().is_some() {
                self.resident_count -= 1;
            }
        }
    }

    /// All violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Warn-level findings so far.
    pub fn warnings(&self) -> u64 {
        self.warnings
    }

    /// Migrations currently in flight (started, not yet landed or failed).
    /// Zero at the end of a clean run: every migration resolved to exactly
    /// one `Placement` or `MigrationFailed`.
    pub fn open_migrations(&self) -> usize {
        self.in_flight.len()
    }

    /// Hands out the next not-yet-taken violation, if any. The engine polls
    /// this after each round to abort the run.
    pub fn take_fatal(&mut self) -> Option<Violation> {
        let v = self.violations.get(self.next_fatal).cloned();
        if v.is_some() {
            self.next_fatal += 1;
        }
        v
    }

    fn fail(&mut self, kind: ViolationKind, message: String) {
        self.violations.push(Violation {
            round: self.current_round,
            kind,
            message,
            context: self
                .round_events
                .iter()
                .map(TraceEvent::to_json_line)
                .collect(),
        });
    }

    /// Appends to the violation context, dropping its oldest entry at the
    /// cap.
    fn remember(&mut self, event: &TraceEvent) {
        if self.round_events.len() == CONTEXT_CAP {
            self.round_events.pop_front();
        }
        self.round_events.push_back(event.clone());
    }

    /// Feeds one event through every applicable check.
    pub fn process(&mut self, event: &TraceEvent) {
        if !matches!(
            event,
            TraceEvent::GangPacked { .. } | TraceEvent::RoundPlanned { .. }
        ) {
            self.remember(event);
        }

        match event {
            TraceEvent::ServerDown { server, .. } => {
                // The failure evicts every resident job.
                for slot in self.residency.iter_mut() {
                    if *slot == Some(*server) {
                        *slot = None;
                        self.resident_count -= 1;
                    }
                }
            }
            TraceEvent::JobArrive { job, gang, .. } => {
                *Self::slot(&mut self.gang_of, job.index()) = *gang;
            }
            TraceEvent::JobFinish { job, .. } => {
                if self.in_flight.remove(job).is_some() {
                    self.fail(
                        ViolationKind::MigrationLifecycle { job: *job },
                        format!("job {job} finished while its migration was still in flight"),
                    );
                }
                self.unplace(*job);
                *Self::slot(&mut self.gang_of, job.index()) = 0;
            }
            TraceEvent::Placement { job, server, .. } => {
                if let Some((_, to)) = self.in_flight.remove(job) {
                    if to != *server {
                        self.fail(
                            ViolationKind::MigrationLifecycle { job: *job },
                            format!(
                                "job {job} landed on server {server} but its migration targeted {to}"
                            ),
                        );
                    }
                }
                let slot = Self::slot(&mut self.residency, job.index());
                if slot.is_none() {
                    self.resident_count += 1;
                }
                *slot = Some(*server);
            }
            TraceEvent::Migration { job, from, to, .. } => {
                // In flight: not resident anywhere until it lands (a
                // `Placement` event at the destination) or fails (a
                // `MigrationFailed` event).
                if self.in_flight.insert(*job, (*from, *to)).is_some() {
                    self.fail(
                        ViolationKind::MigrationLifecycle { job: *job },
                        format!("job {job} started a second migration while one was in flight"),
                    );
                }
                self.unplace(*job);
            }
            TraceEvent::MigrationFailed { job, reason, .. } => {
                let was_in_flight = self.in_flight.remove(job).is_some();
                // A failed migration must leave the job accounted for; what
                // that means depends on the failure stage.
                match reason {
                    gfair_types::MigrationFailReason::Checkpoint => {
                        // The checkpoint failed on the source, so the job
                        // never left: it must still be resident there.
                        let known = self.gang_of.get(job.index()).copied().unwrap_or(0) != 0;
                        if self.resident_on(*job).is_none() && known {
                            self.fail(
                                ViolationKind::MigrationLifecycle { job: *job },
                                format!(
                                    "job {job} lost across a checkpoint failure: it should have stayed resident at its source"
                                ),
                            );
                        }
                    }
                    gfair_types::MigrationFailReason::Restore => {
                        // A restore can only fail after the transfer
                        // started, i.e. for an in-flight job.
                        if !was_in_flight {
                            self.fail(
                                ViolationKind::MigrationLifecycle { job: *job },
                                format!(
                                    "restore failure reported for job {job}, which was not in flight"
                                ),
                            );
                        }
                    }
                    gfair_types::MigrationFailReason::TargetDown
                    | gfair_types::MigrationFailReason::Unreachable => {
                        // Either a mid-flight strand (resolves the in-flight
                        // record) or an undeliverable decision that left the
                        // job untouched (resident or pending); both are
                        // consistent.
                    }
                }
            }
            TraceEvent::PartitionEnd { .. } => {
                self.heal_pending = true;
            }
            TraceEvent::RoundPlanned {
                round,
                gpus_used,
                tickets_total,
                users,
                ..
            } => {
                self.current_round = *round;
                if !users.is_empty() {
                    let actual: f64 = users.iter().map(|u| u.tickets).sum();
                    let expected = *tickets_total;
                    let tol = TICKET_TOL * expected.abs().max(1.0);
                    if (actual - expected).abs() > tol {
                        self.remember(event);
                        if self.heal_pending {
                            self.fail(
                                ViolationKind::HealConservation { expected, actual },
                                format!(
                                    "heal conservation: first round after a partition heal has user entitlements summing to {actual} but the cluster supplies {expected} GPUs"
                                ),
                            );
                        } else {
                            self.fail(
                                ViolationKind::TicketConservation { expected, actual },
                                format!(
                                    "ticket conservation: user entitlements sum to {actual} but the cluster supplies {expected} GPUs"
                                ),
                            );
                        }
                    }
                    // The scheduler reported a full economy this round; any
                    // pending heal check has now been performed.
                    self.heal_pending = false;
                }
                if *gpus_used == 0 && self.resident_count > 0 {
                    self.warnings += 1;
                }
                self.round_events.clear();
            }
            TraceEvent::ServerUp { .. }
            | TraceEvent::GangPacked { .. }
            | TraceEvent::PartitionStart { .. }
            | TraceEvent::Reconcile { .. }
            | TraceEvent::Decision { .. }
            | TraceEvent::TradeExecuted { .. }
            | TraceEvent::ProfileInferred { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_types::{GenId, SimTime, UserId};

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn setup() -> Auditor {
        let mut a = Auditor::new();
        a.process(&TraceEvent::ServerUp {
            t: t0(),
            server: ServerId::new(0),
            gen: GenId::new(0),
            gpus: 4,
        });
        a.process(&TraceEvent::JobArrive {
            t: t0(),
            job: JobId::new(1),
            user: UserId::new(0),
            gang: 4,
            service_secs: 100.0,
        });
        a.process(&TraceEvent::Placement {
            t: t0(),
            job: JobId::new(1),
            server: ServerId::new(0),
            gang: 4,
        });
        a
    }

    #[test]
    fn healthy_round_has_no_violations() {
        let mut a = setup();
        a.process(&TraceEvent::GangPacked {
            t: t0(),
            round: 1,
            server: ServerId::new(0),
            job: JobId::new(1),
            user: UserId::new(0),
            width: 4,
            gang: 4,
        });
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 1,
            gpus_used: 4,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![],
            user_gpus: vec![],
        });
        assert!(a.violations().is_empty());
        assert_eq!(a.warnings(), 0);
        assert!(a.take_fatal().is_none());
    }

    #[test]
    fn ticket_conservation_is_checked() {
        use crate::event::UserShare;
        let mut a = setup();
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 0,
            gpus_used: 4,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![
                UserShare {
                    user: UserId::new(0),
                    tickets: 3.0,
                },
                UserShare {
                    user: UserId::new(1),
                    tickets: 2.0,
                },
            ],
            user_gpus: vec![],
        });
        let v = a.take_fatal().expect("violation");
        assert_eq!(
            v.kind,
            ViolationKind::TicketConservation {
                expected: 4.0,
                actual: 5.0
            }
        );
    }

    #[test]
    fn conserving_tickets_pass_within_tolerance() {
        use crate::event::UserShare;
        let mut a = setup();
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 0,
            gpus_used: 4,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![
                UserShare {
                    user: UserId::new(0),
                    tickets: 1.0 + 1e-9,
                },
                UserShare {
                    user: UserId::new(1),
                    tickets: 3.0 - 1e-9,
                },
            ],
            user_gpus: vec![],
        });
        assert!(a.violations().is_empty());
    }

    #[test]
    fn idle_round_with_resident_jobs_warns() {
        let mut a = setup();
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 0,
            gpus_used: 0,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![],
            user_gpus: vec![],
        });
        assert!(a.violations().is_empty(), "work conservation is warn-only");
        assert_eq!(a.warnings(), 1);
    }

    #[test]
    fn down_server_eviction_clears_residency() {
        let mut a = setup();
        a.process(&TraceEvent::ServerDown {
            t: t0(),
            server: ServerId::new(0),
            evicted: 1,
        });
        // The evicted job is no longer resident, so an idle round is not
        // a work-conservation lapse.
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 0,
            gpus_used: 0,
            gpus_up: 0,
            pending: 1,
            tickets_total: 4.0,
            users: vec![],
            user_gpus: vec![],
        });
        assert!(a.violations().is_empty());
        assert_eq!(a.warnings(), 0);
    }

    fn migration(job: u32, from: u32, to: u32) -> TraceEvent {
        TraceEvent::Migration {
            t: t0(),
            job: JobId::new(job),
            from: ServerId::new(from),
            to: ServerId::new(to),
            outage_secs: 30.0,
        }
    }

    fn failed(
        job: u32,
        from: u32,
        to: u32,
        reason: gfair_types::MigrationFailReason,
    ) -> TraceEvent {
        TraceEvent::MigrationFailed {
            t: t0(),
            job: JobId::new(job),
            from: ServerId::new(from),
            to: ServerId::new(to),
            reason,
            attempt: 1,
        }
    }

    #[test]
    fn failed_migration_of_in_flight_job_is_clean() {
        use gfair_types::MigrationFailReason;
        let mut a = setup();
        a.process(&migration(1, 0, 1));
        a.process(&failed(1, 0, 1, MigrationFailReason::Restore));
        assert!(a.violations().is_empty());
        // The job can be re-placed afterwards without complaint.
        a.process(&TraceEvent::Placement {
            t: t0(),
            job: JobId::new(1),
            server: ServerId::new(0),
            gang: 4,
        });
        assert!(a.violations().is_empty());
    }

    #[test]
    fn checkpoint_failure_of_resident_job_is_clean() {
        use gfair_types::MigrationFailReason;
        let mut a = setup();
        // No Migration event: the checkpoint failed, the job never left.
        a.process(&failed(1, 0, 1, MigrationFailReason::Checkpoint));
        assert!(a.violations().is_empty());
    }

    #[test]
    fn lost_job_across_failed_migration_is_detected() {
        use gfair_types::MigrationFailReason;
        let mut a = setup();
        a.process(&migration(1, 0, 1));
        // A buggy engine reports the restore failure twice: the second
        // report finds the job not in flight — it was silently dropped.
        a.process(&failed(1, 0, 1, MigrationFailReason::Restore));
        assert!(a.violations().is_empty());
        a.process(&failed(1, 0, 1, MigrationFailReason::Restore));
        let v = a.take_fatal().expect("violation");
        assert_eq!(
            v.kind,
            ViolationKind::MigrationLifecycle { job: JobId::new(1) }
        );
        assert!(v.message.contains("not in flight"));
        assert_eq!(a.open_migrations(), 0);
    }

    #[test]
    fn checkpoint_failure_of_missing_job_is_detected() {
        use gfair_types::MigrationFailReason;
        let mut a = setup();
        // Take the job off its server (in flight), then claim a checkpoint
        // failure: a checkpoint failure means it never left, contradiction.
        a.process(&migration(1, 0, 1));
        a.process(&failed(1, 0, 1, MigrationFailReason::Checkpoint));
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::MigrationLifecycle { .. }));
        assert!(v.message.contains("checkpoint"));
    }

    #[test]
    fn undeliverable_decisions_for_pending_jobs_are_clean() {
        use gfair_types::MigrationFailReason;
        let mut a = Auditor::new();
        a.process(&TraceEvent::ServerUp {
            t: t0(),
            server: ServerId::new(0),
            gen: GenId::new(0),
            gpus: 4,
        });
        a.process(&TraceEvent::JobArrive {
            t: t0(),
            job: JobId::new(1),
            user: UserId::new(0),
            gang: 4,
            service_secs: 100.0,
        });
        // A queued placement raced a server failure: the job is pending,
        // was never in flight, and that is fine.
        a.process(&failed(1, 0, 0, MigrationFailReason::TargetDown));
        a.process(&failed(1, 0, 0, MigrationFailReason::Unreachable));
        assert!(a.violations().is_empty());
    }

    #[test]
    fn duplicated_migration_and_wrong_landing_are_detected() {
        let mut a = setup();
        a.process(&migration(1, 0, 1));
        a.process(&migration(1, 0, 2));
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::MigrationLifecycle { .. }));
        assert!(v.message.contains("second migration"));
        // The surviving in-flight record targets server 2; landing on 3 is
        // a lifecycle violation too.
        a.process(&TraceEvent::Placement {
            t: t0(),
            job: JobId::new(1),
            server: ServerId::new(3),
            gang: 4,
        });
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::MigrationLifecycle { .. }));
        assert!(v.message.contains("targeted"));
    }

    #[test]
    fn finish_while_in_flight_is_detected() {
        let mut a = setup();
        a.process(&migration(1, 0, 1));
        a.process(&TraceEvent::JobFinish {
            t: t0(),
            job: JobId::new(1),
            user: UserId::new(0),
        });
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::MigrationLifecycle { .. }));
        assert!(v.message.contains("finished"));
    }

    #[test]
    fn heal_conservation_has_its_own_kind() {
        use crate::event::UserShare;
        let mut a = setup();
        a.process(&TraceEvent::PartitionStart {
            t: t0(),
            server: ServerId::new(0),
        });
        a.process(&TraceEvent::PartitionEnd {
            t: t0(),
            server: ServerId::new(0),
        });
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 1,
            scheduled: 0,
            gpus_used: 4,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![UserShare {
                user: UserId::new(0),
                tickets: 5.0,
            }],
            user_gpus: vec![],
        });
        let v = a.take_fatal().expect("violation");
        assert_eq!(
            v.kind,
            ViolationKind::HealConservation {
                expected: 4.0,
                actual: 5.0
            }
        );
        // The flag clears after the first reported round: a later mismatch
        // is ordinary ticket conservation again.
        a.process(&TraceEvent::RoundPlanned {
            t: t0(),
            round: 2,
            scheduled: 0,
            gpus_used: 4,
            gpus_up: 4,
            pending: 0,
            tickets_total: 4.0,
            users: vec![UserShare {
                user: UserId::new(0),
                tickets: 5.0,
            }],
            user_gpus: vec![],
        });
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::TicketConservation { .. }));
    }
}
