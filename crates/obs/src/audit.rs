//! The online invariant auditor.
//!
//! Consumes the trace-event stream *during* the run and independently
//! re-derives the properties the scheduler claims to enforce. It keeps its
//! own residency and capacity state built purely from events — it never
//! peeks at engine internals — so a bug anywhere in the decision path
//! (scheduler, engine bookkeeping, or event emission) surfaces as a
//! violation instead of silently skewing results.
//!
//! ## Invariants
//!
//! Fatal (abort the run):
//! * **Gang atomicity** — a `GangPacked` grant's `width` equals the job's
//!   declared gang size; partial gangs are never acceptable.
//! * **No GPU overcommit** — per round, the gang widths granted on a server
//!   sum to at most its GPU count.
//! * **Residency** — a job runs only on the server it is resident on, and a
//!   job is granted GPUs at most once per round.
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
//! A violation carries the JSONL lines of its round's events so far (at
//! most the last 256), rendered only when it fires. Until then the auditor
//! keeps grants as compact [`PackedGang`] records and other events as
//! clones; the round-boundary event (`RoundPlanned`) clears the context,
//! so it is added to it only when it is the one that fails.

use crate::event::{PackedGang, TraceEvent};
use gfair_types::{JobId, ServerId, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// How many of the current round's events are attached to a violation.
const CONTEXT_CAP: usize = 256;

/// Relative tolerance for floating-point conservation checks.
const TICKET_TOL: f64 = 1e-6;

/// The specific invariant an offending event broke.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// A gang was granted fewer (or more) GPUs than its declared size.
    PartialGang {
        /// Offending job.
        job: JobId,
        /// GPUs granted.
        width: u32,
        /// GPUs the gang requires.
        gang: u32,
    },
    /// A server's granted widths exceed its GPU count.
    Overcommit {
        /// Offending server.
        server: ServerId,
        /// Sum of granted widths.
        requested: u32,
        /// GPUs installed.
        gpus: u32,
    },
    /// A job was granted GPUs on a server it is not resident on.
    NotResident {
        /// Offending job.
        job: JobId,
        /// Server that granted it GPUs.
        server: ServerId,
    },
    /// A job was granted GPUs more than once in one round.
    DuplicateJob {
        /// Offending job.
        job: JobId,
    },
    /// GPUs were granted on a server that is down.
    PackedOnDownServer {
        /// Offending server.
        server: ServerId,
    },
    /// An event referenced a job that never arrived.
    UnknownJob {
        /// Offending job.
        job: JobId,
    },
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
    /// The round in which the violation occurred (0 before the first round).
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

/// One event of the round being assembled, kept for violation context.
#[derive(Debug)]
enum Recent {
    Event(TraceEvent),
    Grant(SimTime, u64, PackedGang),
}

impl Recent {
    fn to_json_line(&self) -> String {
        match self {
            Recent::Event(event) => event.to_json_line(),
            Recent::Grant(t, round, grant) => grant.event(*t, *round).to_json_line(),
        }
    }
}

/// Online checker over the trace-event stream.
///
/// The per-job and per-server tables are dense vectors indexed by
/// `JobId::index()` / `ServerId::index()` rather than maps: the auditor
/// sits on the `emit` hot path and re-checks every `GangPacked` grant, and
/// ids in this workspace are dense by construction, so a handful of tree
/// lookups per grant would dominate clean runs.
#[derive(Debug, Default)]
pub struct Auditor {
    /// GPU count per server, learned from `ServerUp` events; indexed by
    /// `ServerId::index()`.
    capacity: Vec<u32>,
    /// Whether each server is currently online.
    up: Vec<bool>,
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
    /// GPUs granted per server in the round being assembled, indexed by
    /// `ServerId::index()`; reset at each round boundary.
    packed: Vec<u32>,
    /// Round-stamp per job marking a grant in the round being assembled
    /// (stamp == `round_serial`); stamping replaces a per-round set clear.
    packed_stamp: Vec<u64>,
    /// Serial of the round being assembled; bumped at each round boundary
    /// so stale `packed_stamp` entries expire without being cleared.
    round_serial: u64,
    /// Events since the last round boundary (violation context), at most
    /// `CONTEXT_CAP`. Rendered to JSONL only when a violation actually
    /// fires: serializing every event eagerly would put a `format!` on the
    /// hot path of clean runs, which are the overwhelmingly common case.
    round_events: VecDeque<Recent>,
    current_round: u64,
    violations: Vec<Violation>,
    /// Index of the next violation [`Auditor::take_fatal`] will hand out.
    next_fatal: usize,
    warnings: u64,
}

impl Auditor {
    /// Creates an auditor with no knowledge of the cluster; capacities are
    /// learned from the event stream's `ServerUp` events.
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
            context: self.round_events.iter().map(Recent::to_json_line).collect(),
        });
    }

    /// Appends to the violation context, dropping its oldest entry at the
    /// cap.
    fn remember(&mut self, recent: Recent) {
        if self.round_events.len() == CONTEXT_CAP {
            self.round_events.pop_front();
        }
        self.round_events.push_back(recent);
    }

    /// Feeds one event through every applicable check.
    pub fn process(&mut self, event: &TraceEvent) {
        // A grant is remembered as a compact record by `process_packed`.
        if !matches!(
            event,
            TraceEvent::GangPacked { .. } | TraceEvent::RoundPlanned { .. }
        ) {
            self.remember(Recent::Event(event.clone()));
        }

        match event {
            TraceEvent::ServerUp { server, gpus, .. } => {
                *Self::slot(&mut self.capacity, server.index()) = *gpus;
                *Self::slot(&mut self.up, server.index()) = true;
            }
            TraceEvent::ServerDown { server, .. } => {
                *Self::slot(&mut self.up, server.index()) = false;
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
            TraceEvent::PartitionStart { .. } | TraceEvent::Reconcile { .. } => {}
            TraceEvent::PartitionEnd { .. } => {
                self.heal_pending = true;
            }
            &TraceEvent::GangPacked {
                t,
                round,
                server,
                job,
                user,
                width,
                gang,
            } => {
                let grant = PackedGang {
                    server,
                    job,
                    user,
                    width,
                    gang,
                };
                self.process_packed(t, round, &[grant]);
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
                        self.remember(Recent::Event(event.clone()));
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
                // Round boundary: bump the serial (expiring the per-round
                // grant stamps in place) and reset the rest.
                self.round_serial += 1;
                self.packed.fill(0);
                self.round_events.clear();
            }
            TraceEvent::Decision { .. }
            | TraceEvent::TradeExecuted { .. }
            | TraceEvent::ProfileInferred { .. } => {}
        }
    }
    /// Feeds one round's gang grants, in grant order, through the
    /// `GangPacked` checks: the same as processing each grant's event.
    pub(crate) fn process_packed(&mut self, t: SimTime, round: u64, grants: &[PackedGang]) {
        for grant in grants {
            self.remember(Recent::Grant(t, round, *grant));
            self.check_grant(round, grant);
        }
    }

    fn check_grant(&mut self, round: u64, grant: &PackedGang) {
        let PackedGang {
            server, job, width, ..
        } = *grant;
        self.current_round = round;
        let declared = match self.gang_of.get(job.index()).copied() {
            Some(g) if g != 0 => g,
            _ => {
                self.fail(
                    ViolationKind::UnknownJob { job },
                    format!("job {job} was granted GPUs but never arrived"),
                );
                width
            }
        };
        if width != declared {
            self.fail(
                ViolationKind::PartialGang {
                    job,
                    width,
                    gang: declared,
                },
                format!(
                    "gang atomicity: job {job} granted {width} GPUs but its gang needs {declared}"
                ),
            );
        }
        // Stamps carry `round_serial + 1` so the vector's default of
        // zero can never read as "granted in serial 0".
        let stamp = self.round_serial + 1;
        let slot = Self::slot(&mut self.packed_stamp, job.index());
        let duplicate = *slot == stamp;
        *slot = stamp;
        if duplicate {
            self.fail(
                ViolationKind::DuplicateJob { job },
                format!("job {job} granted GPUs twice in round {round}"),
            );
        }
        if self.resident_on(job) != Some(server) {
            self.fail(
                ViolationKind::NotResident { job, server },
                format!("job {job} ran on server {server} where it is not resident"),
            );
        }
        if !self.up.get(server.index()).copied().unwrap_or(false) {
            self.fail(
                ViolationKind::PackedOnDownServer { server },
                format!("server {server} is down but was granted work"),
            );
        }
        let used = Self::slot(&mut self.packed, server.index());
        *used += width;
        let requested = *used;
        let gpus = self.capacity.get(server.index()).copied().unwrap_or(0);
        if requested > gpus {
            self.fail(
                ViolationKind::Overcommit {
                    server,
                    requested,
                    gpus,
                },
                format!("overcommit: server {server} granted {requested} GPUs but has {gpus}"),
            );
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

    fn packed(job: u32, width: u32, gang: u32) -> TraceEvent {
        TraceEvent::GangPacked {
            t: t0(),
            round: 1,
            server: ServerId::new(0),
            job: JobId::new(job),
            user: UserId::new(0),
            width,
            gang,
        }
    }

    #[test]
    fn healthy_round_has_no_violations() {
        let mut a = setup();
        a.process(&packed(1, 4, 4));
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
    fn partial_gang_is_detected_with_round_context() {
        let mut a = setup();
        a.process(&packed(1, 2, 4));
        let v = a.take_fatal().expect("violation");
        assert_eq!(
            v.kind,
            ViolationKind::PartialGang {
                job: JobId::new(1),
                width: 2,
                gang: 4
            }
        );
        assert_eq!(v.round, 1);
        assert!(!v.context.is_empty(), "offending round trace attached");
        assert!(v.to_string().contains("gang atomicity"));
        // The same violation is not handed out twice.
        assert!(a.take_fatal().is_none());
    }

    #[test]
    fn overcommit_is_detected() {
        let mut a = setup();
        a.process(&TraceEvent::JobArrive {
            t: t0(),
            job: JobId::new(2),
            user: UserId::new(1),
            gang: 2,
            service_secs: 50.0,
        });
        a.process(&TraceEvent::Placement {
            t: t0(),
            job: JobId::new(2),
            server: ServerId::new(0),
            gang: 2,
        });
        a.process(&packed(1, 4, 4));
        a.process(&packed(2, 2, 2));
        let v = a.take_fatal().expect("violation");
        assert_eq!(
            v.kind,
            ViolationKind::Overcommit {
                server: ServerId::new(0),
                requested: 6,
                gpus: 4
            }
        );
    }

    #[test]
    fn non_resident_job_is_detected() {
        let mut a = setup();
        // Job 1 migrates away and has not landed.
        a.process(&TraceEvent::Migration {
            t: t0(),
            job: JobId::new(1),
            from: ServerId::new(0),
            to: ServerId::new(1),
            outage_secs: 30.0,
        });
        a.process(&packed(1, 4, 4));
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::NotResident { .. }));
    }

    #[test]
    fn duplicate_grant_is_detected() {
        let mut a = setup();
        a.process(&packed(1, 4, 4));
        a.process(&packed(1, 4, 4));
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::DuplicateJob { .. }));
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
        a.process(&packed(1, 4, 4));
        // Both not-resident and down-server fire.
        let kinds: Vec<_> = a.violations().iter().map(|v| &v.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::NotResident { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::PackedOnDownServer { .. })));
    }

    #[test]
    fn unknown_job_is_detected() {
        let mut a = Auditor::new();
        a.process(&TraceEvent::ServerUp {
            t: t0(),
            server: ServerId::new(0),
            gen: GenId::new(0),
            gpus: 8,
        });
        a.process(&packed(99, 1, 1));
        let v = a.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::UnknownJob { .. }));
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

    #[test]
    fn per_round_state_resets_at_round_boundary() {
        let mut a = setup();
        a.process(&packed(1, 4, 4));
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
        // Same grant next round: no duplicate, no overcommit.
        a.process(&packed(1, 4, 4));
        assert!(a.violations().is_empty());
    }
}
