//! The structured trace-event model.
//!
//! Every scheduler decision the engine applies is narrated as a
//! [`TraceEvent`] and pushed through the installed [`crate::Tracer`] sinks
//! and the [`crate::Auditor`]. Events carry *simulated* time only — never
//! wall-clock readings — so two runs with the same seed serialize to
//! byte-identical JSONL.
//!
//! The JSONL encoding is hand-rolled rather than derived: field order is
//! frozen (stable across compiler and shim versions), floats are written at
//! six decimals by integer arithmetic (see `push_f64`), and the `kind`
//! discriminator always comes first so line-oriented tools can dispatch
//! without a full parse.

use gfair_types::{GenId, JobId, MigrationFailReason, ServerId, SimTime, UserId};
use serde_json::JsonValue;
use std::fmt::Write as _;

/// One user's scheduling state inside a [`TraceEvent::RoundPlanned`] event.
#[derive(Debug, Clone, PartialEq)]
pub struct UserShare {
    /// The user.
    pub user: UserId,
    /// Tickets backing the user this round (for Gandiva_fair: the user's
    /// post-trade GPU entitlement summed over generations).
    pub tickets: f64,
}

/// One user's granted GPUs in a [`TraceEvent::RoundPlanned`] round.
#[derive(Debug, Clone, PartialEq)]
pub struct UserGrant {
    /// The user.
    pub user: UserId,
    /// GPUs granted to the user's jobs in the round.
    pub gpus: u32,
}

/// One gang grant inside a round's batch (see [`crate::Obs::emit_packed`]):
/// a [`TraceEvent::GangPacked`] without the time and round number that
/// every grant of the batch shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGang {
    /// The server.
    pub server: ServerId,
    /// The job.
    pub job: JobId,
    /// The job's owner.
    pub user: UserId,
    /// GPUs granted this quantum.
    pub width: u32,
    /// GPUs the job's gang requires.
    pub gang: u32,
}

impl PackedGang {
    /// The time, round and grant of a `GangPacked` event; `None` for any
    /// other kind.
    pub fn of(event: &TraceEvent) -> Option<(SimTime, u64, PackedGang)> {
        match *event {
            TraceEvent::GangPacked {
                t,
                round,
                server,
                job,
                user,
                width,
                gang,
            } => Some((
                t,
                round,
                PackedGang {
                    server,
                    job,
                    user,
                    width,
                    gang,
                },
            )),
            _ => None,
        }
    }

    /// The `GangPacked` event this grant stands for.
    pub fn event(&self, t: SimTime, round: u64) -> TraceEvent {
        TraceEvent::GangPacked {
            t,
            round,
            server: self.server,
            job: self.job,
            user: self.user,
            width: self.width,
            gang: self.gang,
        }
    }
}

/// One alternative a scheduler decision evaluated, inside a
/// [`TraceEvent::Decision`] event. Lower scores are better (scores are
/// projected loads, slacks, or prices depending on the decision site).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Human-readable label, e.g. `server:12` or `gen:1`.
    pub label: String,
    /// The candidate's score under the decision's objective.
    pub score: f64,
}

/// A group of alternatives a decision ruled out, with the shared reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Why the alternatives were not eligible, e.g. `unreachable` or
    /// `does_not_fit`. A `Cow` so the (fixed) vocabulary of reason strings
    /// can be borrowed `'static` literals — hot rejection paths then never
    /// allocate — while deserialized traces still own their strings.
    pub reason: std::borrow::Cow<'static, str>,
    /// How many alternatives were rejected for this reason.
    pub count: u32,
}

/// A structured record of one scheduler decision or cluster incident.
///
/// The `t` field is simulated time. `ServerUp` is also emitted once per
/// server at simulation start so a trace is self-describing: the auditor
/// reconstructs cluster capacity from the stream alone.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A server came online (or was online at simulation start).
    ServerUp {
        /// Simulated time.
        t: SimTime,
        /// The server.
        server: ServerId,
        /// The server's GPU generation.
        gen: GenId,
        /// GPUs installed.
        gpus: u32,
    },
    /// A server failed; resident jobs were evicted.
    ServerDown {
        /// Simulated time.
        t: SimTime,
        /// The server.
        server: ServerId,
        /// Number of jobs evicted by the failure.
        evicted: u32,
    },
    /// A job entered the system.
    JobArrive {
        /// Simulated time.
        t: SimTime,
        /// The job.
        job: JobId,
        /// Its owner.
        user: UserId,
        /// Gang size (GPUs required, all-or-nothing).
        gang: u32,
        /// Service demand in base-generation GPU-seconds.
        service_secs: f64,
    },
    /// A job completed its service demand.
    JobFinish {
        /// Simulated time.
        t: SimTime,
        /// The job.
        job: JobId,
        /// Its owner.
        user: UserId,
    },
    /// A job became resident on a server (initial placement or migration
    /// landing).
    Placement {
        /// Simulated time.
        t: SimTime,
        /// The job.
        job: JobId,
        /// Where it now resides.
        server: ServerId,
        /// Gang size.
        gang: u32,
    },
    /// A job started a checkpoint/restore move between servers.
    Migration {
        /// Simulated time.
        t: SimTime,
        /// The job.
        job: JobId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
        /// Checkpoint/restore outage in seconds.
        outage_secs: f64,
    },
    /// A migration (or undeliverable placement decision) failed; the job is
    /// either still at its source (`checkpoint`), re-queued (`restore`,
    /// `target_down`), or untouched because the decision never reached the
    /// server (`unreachable`).
    MigrationFailed {
        /// Simulated time.
        t: SimTime,
        /// The job.
        job: JobId,
        /// Where the job was when the attempt started (equal to `to` for
        /// failed initial placements, which have no source).
        from: ServerId,
        /// The intended destination.
        to: ServerId,
        /// What went wrong.
        reason: MigrationFailReason,
        /// Which attempt this was (1 = the job's first migration ever).
        attempt: u32,
    },
    /// The central scheduler lost contact with a server's local scheduler.
    /// The server keeps running its last-received stride state.
    PartitionStart {
        /// Simulated time.
        t: SimTime,
        /// The unreachable server.
        server: ServerId,
    },
    /// Connectivity to a partitioned server was restored.
    PartitionEnd {
        /// Simulated time.
        t: SimTime,
        /// The healed server.
        server: ServerId,
    },
    /// After a partition healed, the central scheduler re-synced state with
    /// the server's local scheduler.
    Reconcile {
        /// Simulated time.
        t: SimTime,
        /// The healed server.
        server: ServerId,
        /// Users whose entitlements were re-synced cluster-wide.
        users_resynced: u32,
        /// Jobs found resident on the server and re-validated.
        jobs_revalidated: u32,
        /// Jobs whose residency diverged from the central scheduler's
        /// last-known view during the partition.
        drift: u32,
    },
    /// One job was granted its gang on a server for the coming quantum.
    ///
    /// `width` is the allocation actually granted and `gang` the job's
    /// declared requirement; the auditor flags any mismatch (partial gang).
    GangPacked {
        /// Simulated time.
        t: SimTime,
        /// Scheduling round number (1-based).
        round: u64,
        /// The server.
        server: ServerId,
        /// The job.
        job: JobId,
        /// The job's owner.
        user: UserId,
        /// GPUs granted this quantum.
        width: u32,
        /// GPUs the job's gang requires.
        gang: u32,
    },
    /// Summary of one scheduling round, emitted after its `GangPacked`
    /// events.
    RoundPlanned {
        /// Simulated time.
        t: SimTime,
        /// Scheduling round number (1-based).
        round: u64,
        /// Jobs granted GPUs this quantum.
        scheduled: u32,
        /// GPUs in use this quantum.
        gpus_used: u32,
        /// GPUs currently online.
        gpus_up: u32,
        /// Jobs waiting for a placement.
        pending: u32,
        /// Cluster-wide ticket supply (total physical GPUs, the quantity
        /// per-user entitlements must sum to under ticket conservation).
        tickets_total: f64,
        /// Per-user tickets, when the scheduler exposes them (empty for
        /// baselines without a ticket economy).
        users: Vec<UserShare>,
        /// GPUs granted per user this round, ascending by user. The
        /// fairness ledger accrues received share from this aggregate, so
        /// traces stay replayable even when the per-gang `GangPacked`
        /// stream is filtered out of the sink.
        user_gpus: Vec<UserGrant>,
    },
    /// Structured provenance for one scheduler decision: what was chosen,
    /// what else was considered, which rule broke ties, and why the
    /// alternatives lost. Emitted by the central scheduler (placements,
    /// retries), the trade matcher, the migration planner, and the engine's
    /// failure path (evictions).
    Decision {
        /// Simulated time.
        t: SimTime,
        /// Decision site: `placement`, `retry`, `migration`, `trade`, or
        /// `eviction`.
        decision: String,
        /// The job the decision concerns, if any.
        job: Option<JobId>,
        /// The user the decision concerns, if any.
        user: Option<UserId>,
        /// The selected alternative (e.g. `server:12`), or `none` when the
        /// decision could not be satisfied.
        chosen: String,
        /// The rule that broke ties among equally-scored candidates.
        tie_break: String,
        /// Total alternatives evaluated (may exceed `candidates.len()`,
        /// which is bounded).
        considered: u32,
        /// The best-scoring alternatives evaluated, winner first.
        candidates: Vec<Candidate>,
        /// Alternatives ruled out, grouped by reason.
        rejected: Vec<Rejection>,
    },
    /// The trading market matched a seller and a buyer.
    TradeExecuted {
        /// Simulated time.
        t: SimTime,
        /// User selling fast-GPU entitlement.
        seller: UserId,
        /// User buying fast-GPU entitlement.
        buyer: UserId,
        /// The fast generation traded.
        gen: GenId,
        /// Fast GPUs moved from seller to buyer.
        fast_gpus: f64,
        /// Base GPUs moved from buyer to seller in payment.
        base_gpus: f64,
        /// Price in base GPUs per fast GPU.
        price: f64,
    },
    /// A (model, generation) throughput estimate crossed the sample
    /// threshold and is now trusted by the trading market.
    ProfileInferred {
        /// Simulated time.
        t: SimTime,
        /// Model name.
        model: String,
        /// The generation profiled.
        gen: GenId,
        /// Mean observed rate on that generation.
        rate: f64,
        /// Observations aggregated so far.
        samples: u64,
    },
}

impl TraceEvent {
    /// Every `kind` discriminator, in variant declaration order. The
    /// DESIGN.md event table and the golden-trace fixture are cross-checked
    /// against this list by tests, so adding a variant without documenting
    /// it fails the suite.
    pub const KINDS: [&'static str; 15] = [
        "server_up",
        "server_down",
        "job_arrive",
        "job_finish",
        "placement",
        "migration",
        "migration_failed",
        "partition_start",
        "partition_end",
        "reconcile",
        "gang_packed",
        "round_planned",
        "decision",
        "trade_executed",
        "profile_inferred",
    ];

    /// The event's `kind` discriminator as it appears in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ServerUp { .. } => "server_up",
            TraceEvent::ServerDown { .. } => "server_down",
            TraceEvent::JobArrive { .. } => "job_arrive",
            TraceEvent::JobFinish { .. } => "job_finish",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::MigrationFailed { .. } => "migration_failed",
            TraceEvent::PartitionStart { .. } => "partition_start",
            TraceEvent::PartitionEnd { .. } => "partition_end",
            TraceEvent::Reconcile { .. } => "reconcile",
            TraceEvent::GangPacked { .. } => "gang_packed",
            TraceEvent::RoundPlanned { .. } => "round_planned",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::TradeExecuted { .. } => "trade_executed",
            TraceEvent::ProfileInferred { .. } => "profile_inferred",
        }
    }

    /// The event's simulated time.
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::ServerUp { t, .. }
            | TraceEvent::ServerDown { t, .. }
            | TraceEvent::JobArrive { t, .. }
            | TraceEvent::JobFinish { t, .. }
            | TraceEvent::Placement { t, .. }
            | TraceEvent::Migration { t, .. }
            | TraceEvent::MigrationFailed { t, .. }
            | TraceEvent::PartitionStart { t, .. }
            | TraceEvent::PartitionEnd { t, .. }
            | TraceEvent::Reconcile { t, .. }
            | TraceEvent::GangPacked { t, .. }
            | TraceEvent::RoundPlanned { t, .. }
            | TraceEvent::Decision { t, .. }
            | TraceEvent::TradeExecuted { t, .. }
            | TraceEvent::ProfileInferred { t, .. } => *t,
        }
    }

    /// Renders the event as one JSON line (no trailing newline).
    ///
    /// Times serialize as integer microseconds (`t_us`) so encoding never
    /// loses precision; every id is a bare integer.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_json_line(&mut s);
        s
    }

    /// Appends the event's JSON line (no trailing newline) to `s`.
    ///
    /// This is the zero-allocation path sinks use with a reused buffer:
    /// high-frequency variants format integers with a hand-rolled itoa instead of
    /// the `core::fmt` machinery, which matters at hundreds of thousands of
    /// events per simulated hour.
    pub fn write_json_line(&self, s: &mut String) {
        s.push_str("{\"kind\":\"");
        s.push_str(self.kind());
        s.push_str("\",\"t_us\":");
        push_u64(s, self.time().as_micros());
        match self {
            TraceEvent::ServerUp {
                server, gen, gpus, ..
            } => {
                let _ = write!(
                    s,
                    ",\"server\":{},\"gen\":{},\"gpus\":{gpus}",
                    server.index(),
                    gen.index()
                );
            }
            TraceEvent::ServerDown {
                server, evicted, ..
            } => {
                let _ = write!(s, ",\"server\":{},\"evicted\":{evicted}", server.index());
            }
            TraceEvent::JobArrive {
                job,
                user,
                gang,
                service_secs,
                ..
            } => {
                s.push_str(",\"job\":");
                push_u64(s, job.index() as u64);
                s.push_str(",\"user\":");
                push_u64(s, user.index() as u64);
                s.push_str(",\"gang\":");
                push_u64(s, u64::from(*gang));
                s.push_str(",\"service_secs\":");
                push_f64(s, *service_secs);
            }
            TraceEvent::JobFinish { job, user, .. } => {
                s.push_str(",\"job\":");
                push_u64(s, job.index() as u64);
                s.push_str(",\"user\":");
                push_u64(s, user.index() as u64);
            }
            TraceEvent::Placement {
                job, server, gang, ..
            } => {
                s.push_str(",\"job\":");
                push_u64(s, job.index() as u64);
                s.push_str(",\"server\":");
                push_u64(s, server.index() as u64);
                s.push_str(",\"gang\":");
                push_u64(s, u64::from(*gang));
            }
            TraceEvent::Migration {
                job,
                from,
                to,
                outage_secs,
                ..
            } => {
                s.push_str(",\"job\":");
                push_u64(s, job.index() as u64);
                s.push_str(",\"from\":");
                push_u64(s, from.index() as u64);
                s.push_str(",\"to\":");
                push_u64(s, to.index() as u64);
                s.push_str(",\"outage_secs\":");
                push_f64(s, *outage_secs);
            }
            TraceEvent::MigrationFailed {
                job,
                from,
                to,
                reason,
                attempt,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"from\":{},\"to\":{},\"reason\":\"{}\",\"attempt\":{attempt}",
                    job.index(),
                    from.index(),
                    to.index(),
                    reason.as_str()
                );
            }
            TraceEvent::PartitionStart { server, .. } | TraceEvent::PartitionEnd { server, .. } => {
                let _ = write!(s, ",\"server\":{}", server.index());
            }
            TraceEvent::Reconcile {
                server,
                users_resynced,
                jobs_revalidated,
                drift,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"server\":{},\"users_resynced\":{users_resynced},\"jobs_revalidated\":{jobs_revalidated},\"drift\":{drift}",
                    server.index()
                );
            }
            TraceEvent::GangPacked {
                round,
                server,
                job,
                user,
                width,
                gang,
                ..
            } => {
                s.push_str(",\"round\":");
                push_u64(s, *round);
                s.push_str(",\"server\":");
                push_u64(s, server.index() as u64);
                s.push_str(",\"job\":");
                push_u64(s, job.index() as u64);
                s.push_str(",\"user\":");
                push_u64(s, user.index() as u64);
                s.push_str(",\"width\":");
                push_u64(s, u64::from(*width));
                s.push_str(",\"gang\":");
                push_u64(s, u64::from(*gang));
            }
            TraceEvent::RoundPlanned {
                round,
                scheduled,
                gpus_used,
                gpus_up,
                pending,
                tickets_total,
                users,
                user_gpus,
                ..
            } => {
                s.push_str(",\"round\":");
                push_u64(s, *round);
                s.push_str(",\"scheduled\":");
                push_u64(s, u64::from(*scheduled));
                s.push_str(",\"gpus_used\":");
                push_u64(s, u64::from(*gpus_used));
                s.push_str(",\"gpus_up\":");
                push_u64(s, u64::from(*gpus_up));
                s.push_str(",\"pending\":");
                push_u64(s, u64::from(*pending));
                s.push_str(",\"tickets_total\":");
                push_f64(s, *tickets_total);
                s.push_str(",\"users\":[");
                push_user_shares(s, users);
                s.push_str("],\"user_gpus\":[");
                push_user_grants(s, user_gpus);
                s.push(']');
            }
            TraceEvent::Decision {
                decision,
                job,
                user,
                chosen,
                tie_break,
                considered,
                candidates,
                rejected,
                ..
            } => {
                s.push_str(",\"decision\":\"");
                push_escaped(s, decision);
                s.push_str("\",\"job\":");
                match job {
                    Some(j) => push_u64(s, j.index() as u64),
                    None => s.push_str("null"),
                }
                s.push_str(",\"user\":");
                match user {
                    Some(u) => push_u64(s, u.index() as u64),
                    None => s.push_str("null"),
                }
                s.push_str(",\"chosen\":\"");
                push_escaped(s, chosen);
                s.push_str("\",\"tie_break\":\"");
                push_escaped(s, tie_break);
                s.push_str("\",\"considered\":");
                push_u64(s, u64::from(*considered));
                s.push_str(",\"candidates\":[");
                for (i, c) in candidates.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"label\":\"");
                    push_escaped(s, &c.label);
                    s.push_str("\",\"score\":");
                    push_f64(s, c.score);
                    s.push('}');
                }
                s.push_str("],\"rejected\":[");
                for (i, r) in rejected.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"reason\":\"");
                    push_escaped(s, &r.reason);
                    s.push_str("\",\"count\":");
                    push_u64(s, u64::from(r.count));
                    s.push('}');
                }
                s.push(']');
            }
            TraceEvent::TradeExecuted {
                seller,
                buyer,
                gen,
                fast_gpus,
                base_gpus,
                price,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"seller\":{},\"buyer\":{},\"gen\":{},\"fast_gpus\":{},\"base_gpus\":{},\"price\":{}",
                    seller.index(),
                    buyer.index(),
                    gen.index(),
                    fmt_f64(*fast_gpus),
                    fmt_f64(*base_gpus),
                    fmt_f64(*price)
                );
            }
            TraceEvent::ProfileInferred {
                model,
                gen,
                rate,
                samples,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"model\":\"{}\",\"gen\":{},\"rate\":{},\"samples\":{samples}",
                    escape_json(model),
                    gen.index(),
                    fmt_f64(*rate)
                );
            }
        }
        s.push('}');
    }

    /// Parses one JSONL trace line back into an event — the inverse of
    /// [`to_json_line`](Self::to_json_line). This is the contract
    /// `gfair-trace` and the golden-trace schema test are built on: renaming
    /// or dropping a field fails here with a message naming the event kind
    /// and the missing field.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: invalid JSON, an
    /// unknown `kind`, or a missing/mistyped field.
    pub fn from_json_line(line: &str) -> Result<TraceEvent, String> {
        let v = serde_json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = field(&v, "<event>", "kind")?
            .as_str()
            .ok_or_else(|| "field `kind` must be a string".to_string())?
            .to_string();
        let k = kind.as_str();
        let t = SimTime::from_micros(get_u64(&v, k, "t_us")?);
        match k {
            "server_up" => Ok(TraceEvent::ServerUp {
                t,
                server: ServerId::new(get_u32(&v, k, "server")?),
                gen: GenId::new(get_u32(&v, k, "gen")?),
                gpus: get_u32(&v, k, "gpus")?,
            }),
            "server_down" => Ok(TraceEvent::ServerDown {
                t,
                server: ServerId::new(get_u32(&v, k, "server")?),
                evicted: get_u32(&v, k, "evicted")?,
            }),
            "job_arrive" => Ok(TraceEvent::JobArrive {
                t,
                job: JobId::new(get_u32(&v, k, "job")?),
                user: UserId::new(get_u32(&v, k, "user")?),
                gang: get_u32(&v, k, "gang")?,
                service_secs: get_f64(&v, k, "service_secs")?,
            }),
            "job_finish" => Ok(TraceEvent::JobFinish {
                t,
                job: JobId::new(get_u32(&v, k, "job")?),
                user: UserId::new(get_u32(&v, k, "user")?),
            }),
            "placement" => Ok(TraceEvent::Placement {
                t,
                job: JobId::new(get_u32(&v, k, "job")?),
                server: ServerId::new(get_u32(&v, k, "server")?),
                gang: get_u32(&v, k, "gang")?,
            }),
            "migration" => Ok(TraceEvent::Migration {
                t,
                job: JobId::new(get_u32(&v, k, "job")?),
                from: ServerId::new(get_u32(&v, k, "from")?),
                to: ServerId::new(get_u32(&v, k, "to")?),
                outage_secs: get_f64(&v, k, "outage_secs")?,
            }),
            "migration_failed" => {
                let reason_str = get_str(&v, k, "reason")?;
                let reason = MigrationFailReason::parse(&reason_str).ok_or_else(|| {
                    format!("{k}: unknown migration failure reason `{reason_str}`")
                })?;
                Ok(TraceEvent::MigrationFailed {
                    t,
                    job: JobId::new(get_u32(&v, k, "job")?),
                    from: ServerId::new(get_u32(&v, k, "from")?),
                    to: ServerId::new(get_u32(&v, k, "to")?),
                    reason,
                    attempt: get_u32(&v, k, "attempt")?,
                })
            }
            "partition_start" => Ok(TraceEvent::PartitionStart {
                t,
                server: ServerId::new(get_u32(&v, k, "server")?),
            }),
            "partition_end" => Ok(TraceEvent::PartitionEnd {
                t,
                server: ServerId::new(get_u32(&v, k, "server")?),
            }),
            "reconcile" => Ok(TraceEvent::Reconcile {
                t,
                server: ServerId::new(get_u32(&v, k, "server")?),
                users_resynced: get_u32(&v, k, "users_resynced")?,
                jobs_revalidated: get_u32(&v, k, "jobs_revalidated")?,
                drift: get_u32(&v, k, "drift")?,
            }),
            "gang_packed" => Ok(TraceEvent::GangPacked {
                t,
                round: get_u64(&v, k, "round")?,
                server: ServerId::new(get_u32(&v, k, "server")?),
                job: JobId::new(get_u32(&v, k, "job")?),
                user: UserId::new(get_u32(&v, k, "user")?),
                width: get_u32(&v, k, "width")?,
                gang: get_u32(&v, k, "gang")?,
            }),
            "round_planned" => Ok(TraceEvent::RoundPlanned {
                t,
                round: get_u64(&v, k, "round")?,
                scheduled: get_u32(&v, k, "scheduled")?,
                gpus_used: get_u32(&v, k, "gpus_used")?,
                gpus_up: get_u32(&v, k, "gpus_up")?,
                pending: get_u32(&v, k, "pending")?,
                tickets_total: get_f64(&v, k, "tickets_total")?,
                users: get_user_shares(&v, k)?,
                user_gpus: get_user_gpus(&v, k)?,
            }),
            "decision" => {
                let candidates = field(&v, k, "candidates")?
                    .as_array()
                    .ok_or_else(|| format!("{k}: field `candidates` must be an array"))?
                    .iter()
                    .map(|c| {
                        Ok(Candidate {
                            label: get_str(c, k, "label")?,
                            score: get_f64(c, k, "score")?,
                        })
                    })
                    .collect::<Result<Vec<Candidate>, String>>()?;
                let rejected = field(&v, k, "rejected")?
                    .as_array()
                    .ok_or_else(|| format!("{k}: field `rejected` must be an array"))?
                    .iter()
                    .map(|r| {
                        Ok(Rejection {
                            reason: get_str(r, k, "reason")?.into(),
                            count: get_u32(r, k, "count")?,
                        })
                    })
                    .collect::<Result<Vec<Rejection>, String>>()?;
                Ok(TraceEvent::Decision {
                    t,
                    decision: get_str(&v, k, "decision")?,
                    job: get_opt_u32(&v, k, "job")?.map(JobId::new),
                    user: get_opt_u32(&v, k, "user")?.map(UserId::new),
                    chosen: get_str(&v, k, "chosen")?,
                    tie_break: get_str(&v, k, "tie_break")?,
                    considered: get_u32(&v, k, "considered")?,
                    candidates,
                    rejected,
                })
            }
            "trade_executed" => Ok(TraceEvent::TradeExecuted {
                t,
                seller: UserId::new(get_u32(&v, k, "seller")?),
                buyer: UserId::new(get_u32(&v, k, "buyer")?),
                gen: GenId::new(get_u32(&v, k, "gen")?),
                fast_gpus: get_f64(&v, k, "fast_gpus")?,
                base_gpus: get_f64(&v, k, "base_gpus")?,
                price: get_f64(&v, k, "price")?,
            }),
            "profile_inferred" => Ok(TraceEvent::ProfileInferred {
                t,
                model: get_str(&v, k, "model")?,
                gen: GenId::new(get_u32(&v, k, "gen")?),
                rate: get_f64(&v, k, "rate")?,
                samples: get_u64(&v, k, "samples")?,
            }),
            other => Err(format!(
                "unknown event kind `{other}` (known kinds: {})",
                TraceEvent::KINDS.join(", ")
            )),
        }
    }
}

// --- from_json_line field accessors -----------------------------------------
//
// Every accessor names the event kind and the field in its error so schema
// drift (a renamed or dropped field) fails tests and tooling with an
// actionable message instead of a silent misparse.

fn field<'v>(v: &'v JsonValue, kind: &str, name: &str) -> Result<&'v JsonValue, String> {
    v.get(name)
        .ok_or_else(|| format!("{kind}: missing field `{name}`"))
}

fn get_u64(v: &JsonValue, kind: &str, name: &str) -> Result<u64, String> {
    field(v, kind, name)?
        .as_u64()
        .ok_or_else(|| format!("{kind}: field `{name}` must be a non-negative integer"))
}

fn get_u32(v: &JsonValue, kind: &str, name: &str) -> Result<u32, String> {
    Ok(get_u64(v, kind, name)? as u32)
}

fn get_opt_u32(v: &JsonValue, kind: &str, name: &str) -> Result<Option<u32>, String> {
    match field(v, kind, name)? {
        JsonValue::Null => Ok(None),
        val => val
            .as_u64()
            .map(|x| Some(x as u32))
            .ok_or_else(|| format!("{kind}: field `{name}` must be an integer or null")),
    }
}

fn get_f64(v: &JsonValue, kind: &str, name: &str) -> Result<f64, String> {
    field(v, kind, name)?
        .as_f64()
        .ok_or_else(|| format!("{kind}: field `{name}` must be a number"))
}

fn get_str(v: &JsonValue, kind: &str, name: &str) -> Result<String, String> {
    field(v, kind, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{kind}: field `{name}` must be a string"))
}

fn get_user_shares(v: &JsonValue, kind: &str) -> Result<Vec<UserShare>, String> {
    field(v, kind, "users")?
        .as_array()
        .ok_or_else(|| format!("{kind}: field `users` must be an array"))?
        .iter()
        .map(|u| {
            Ok(UserShare {
                user: UserId::new(get_u32(u, kind, "user")?),
                tickets: get_f64(u, kind, "tickets")?,
            })
        })
        .collect()
}

fn get_user_gpus(v: &JsonValue, kind: &str) -> Result<Vec<UserGrant>, String> {
    field(v, kind, "user_gpus")?
        .as_array()
        .ok_or_else(|| format!("{kind}: field `user_gpus` must be an array"))?
        .iter()
        .map(|g| {
            Ok(UserGrant {
                user: UserId::new(get_u32(g, kind, "user")?),
                gpus: get_u32(g, kind, "gpus")?,
            })
        })
        .collect()
}

/// Two ASCII digits for each value 0..100, so [`push_u64`] emits two
/// digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends a decimal integer without going through `core::fmt` — the
/// serialization hot path for id- and count-heavy event variants.
fn push_u64(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ASCII"));
}

/// Appends a `users` array body (no brackets) of [`UserShare`] objects.
fn push_user_shares(s: &mut String, users: &[UserShare]) {
    for (i, u) in users.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"user\":");
        push_u64(s, u.user.index() as u64);
        s.push_str(",\"tickets\":");
        push_f64(s, u.tickets);
        s.push('}');
    }
}

/// Appends a `user_gpus` array body (no brackets) of [`UserGrant`] objects.
fn push_user_grants(s: &mut String, grants: &[UserGrant]) {
    for (i, g) in grants.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"user\":");
        push_u64(s, g.user.index() as u64);
        s.push_str(",\"gpus\":");
        push_u64(s, u64::from(g.gpus));
        s.push('}');
    }
}

/// Appends the trace representation of `x`: integers as `N.0` via
/// [`push_u64`], fractions at six decimals with trailing zeros trimmed.
///
/// Six decimals is microsecond resolution on second-scale durations and
/// far below scheduling significance for loads, demands, and prices. Every
/// finite value below 2^53 is written by integer arithmetic, never by the
/// float formatter, whose fixed-precision path falls back to bignum
/// arithmetic for large magnitudes:
///
/// - below 9e12, `x` is scaled to micro-units with one multiply and
///   rounded. Above 2^53 / 1e6 (about 9.007e9) that product is no longer
///   exact, so the last digit can differ from `{x:.6}`: 8796093022208.002
///   is written `8796093022208.002048` where `{:.6}` gives
///   `8796093022208.001953`. This path is kept as is because it keeps
///   traces byte-stable; making it exact moves trace digests and belongs
///   in a change of its own.
/// - from 9e12 to 2^53, the integer and fractional parts are split. The
///   fraction is then a multiple of 2^-9, so scaling it by 1e6 is exact,
///   and rounding ties to even gives exactly the digits of `{x:.6}`.
/// - from 2^53 up, every float is an integer; the rare value that is not
///   written as `N.0` above goes through `{x:.6}`.
fn push_f64(s: &mut String, x: f64) {
    /// 2^53: every float at or above it is an integer.
    const EXACT_INT: f64 = 9_007_199_254_740_992.0;
    if !x.is_finite() {
        // Traces never carry non-finite values; clamp rather than emit
        // invalid JSON if an upstream bug produces one.
        s.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 1e15 {
        if x.is_sign_negative() && x != 0.0 {
            s.push('-');
        }
        push_u64(s, x.abs() as u64);
        s.push_str(".0");
        return;
    }
    let ax = x.abs();
    if ax < 9e12 {
        let scaled = (ax * 1e6).round() as u64;
        if x.is_sign_negative() && scaled > 0 {
            s.push('-');
        }
        push_fixed6(s, scaled / 1_000_000, scaled % 1_000_000);
        return;
    }
    if ax < EXACT_INT {
        let int = ax.trunc();
        // Both the subtraction and the scaling are exact here.
        let micros = ((ax - int) * 1e6).round_ties_even() as u64;
        if x.is_sign_negative() {
            s.push('-');
        }
        push_fixed6(s, int as u64 + micros / 1_000_000, micros % 1_000_000);
        return;
    }
    let _ = write!(s, "{x:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
}

/// Appends `int.frac` where `frac` counts micro-units (< 1e6), with the
/// fraction's trailing zeros trimmed down to one digit.
fn push_fixed6(s: &mut String, int: u64, mut frac: u64) {
    push_u64(s, int);
    s.push('.');
    if frac == 0 {
        s.push('0');
        return;
    }
    let mut digits = [b'0'; 6];
    for d in digits.iter_mut().rev() {
        *d = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    let mut end = digits.len();
    while end > 1 && digits[end - 1] == b'0' {
        end -= 1;
    }
    s.push_str(std::str::from_utf8(&digits[..end]).expect("ascii digits"));
}

fn fmt_f64(x: f64) -> String {
    let mut s = String::with_capacity(24);
    push_f64(&mut s, x);
    s
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `input` to `out` with JSON string escaping, allocation-free for
/// the overwhelmingly common clean case.
fn push_escaped(out: &mut String, input: &str) {
    if !input.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(input);
        return;
    }
    for c in input.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_are_stable() {
        let ev = TraceEvent::JobArrive {
            t: SimTime::from_secs(1),
            job: JobId::new(7),
            user: UserId::new(2),
            gang: 4,
            service_secs: 3600.0,
        };
        assert_eq!(ev.kind(), "job_arrive");
        assert_eq!(ev.time(), SimTime::from_secs(1));
    }

    #[test]
    fn json_lines_have_kind_first_and_integer_times() {
        let ev = TraceEvent::Migration {
            t: SimTime::from_secs(60),
            job: JobId::new(3),
            from: ServerId::new(0),
            to: ServerId::new(5),
            outage_secs: 42.5,
        };
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"kind\":\"migration\",\"t_us\":60000000,"));
        assert!(line.contains("\"outage_secs\":42.5"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn round_planned_renders_user_list() {
        let ev = TraceEvent::RoundPlanned {
            t: SimTime::ZERO,
            round: 9,
            scheduled: 2,
            gpus_used: 6,
            gpus_up: 8,
            pending: 1,
            tickets_total: 8.0,
            users: vec![
                UserShare {
                    user: UserId::new(0),
                    tickets: 5.0,
                },
                UserShare {
                    user: UserId::new(1),
                    tickets: 3.0,
                },
            ],
            user_gpus: vec![],
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"users\":[{\"user\":0,\"tickets\":5.0},"));
        assert!(line.contains("{\"user\":1,\"tickets\":3.0}]"));
    }

    #[test]
    fn round_planned_lines_with_a_stride_pass_still_parse() {
        // Traces written before `UserShare` lost its `pass` field carry one
        // per user; it is ignored, and the event re-renders without it.
        let old = "{\"kind\":\"round_planned\",\"t_us\":60000000,\"round\":1,\
                   \"scheduled\":2,\"gpus_used\":3,\"gpus_up\":8,\"pending\":0,\
                   \"tickets_total\":8.0,\"users\":[{\"user\":0,\"tickets\":5.0,\
                   \"pass\":1.25},{\"user\":1,\"tickets\":3.0,\"pass\":0.0}],\
                   \"user_gpus\":[{\"user\":0,\"gpus\":2},{\"user\":1,\"gpus\":1}]}";
        let ev = TraceEvent::from_json_line(old).expect("pre-change line parses");
        let TraceEvent::RoundPlanned { users, .. } = &ev else {
            panic!("parsed as {}", ev.kind());
        };
        let expected = [(0, 5.0), (1, 3.0)].map(|(user, tickets)| UserShare {
            user: UserId::new(user),
            tickets,
        });
        assert_eq!(users[..], expected);
        assert_eq!(
            ev.to_json_line(),
            old.replace(",\"pass\":1.25", "")
                .replace(",\"pass\":0.0", "")
        );
    }

    #[test]
    fn model_names_are_escaped() {
        let ev = TraceEvent::ProfileInferred {
            t: SimTime::ZERO,
            model: "we\"ird\\name".to_string(),
            gen: GenId::new(1),
            rate: 2.0,
            samples: 3,
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"model\":\"we\\\"ird\\\\name\""));
    }

    #[test]
    fn fault_events_render_stable_lines() {
        let ev = TraceEvent::MigrationFailed {
            t: SimTime::from_secs(10),
            job: JobId::new(4),
            from: ServerId::new(1),
            to: ServerId::new(2),
            reason: MigrationFailReason::Restore,
            attempt: 2,
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"kind\":\"migration_failed\",\"t_us\":10000000,\"job\":4,\"from\":1,\"to\":2,\"reason\":\"restore\",\"attempt\":2}"
        );
        let ev = TraceEvent::PartitionStart {
            t: SimTime::from_secs(5),
            server: ServerId::new(3),
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"kind\":\"partition_start\",\"t_us\":5000000,\"server\":3}"
        );
        let ev = TraceEvent::Reconcile {
            t: SimTime::from_secs(6),
            server: ServerId::new(3),
            users_resynced: 4,
            jobs_revalidated: 7,
            drift: 1,
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"kind\":\"reconcile\",\"t_us\":6000000,\"server\":3,\"users_resynced\":4,\"jobs_revalidated\":7,\"drift\":1}"
        );
        assert_eq!(
            TraceEvent::PartitionEnd {
                t: SimTime::ZERO,
                server: ServerId::new(0)
            }
            .kind(),
            "partition_end"
        );
    }

    #[test]
    fn decision_renders_stable_line() {
        let ev = TraceEvent::Decision {
            t: SimTime::from_secs(30),
            decision: "placement".to_string(),
            job: Some(JobId::new(7)),
            user: Some(UserId::new(1)),
            chosen: "server:12".to_string(),
            tie_break: "lowest server id".to_string(),
            considered: 5,
            candidates: vec![
                Candidate {
                    label: "server:12".to_string(),
                    score: 0.25,
                },
                Candidate {
                    label: "server:3".to_string(),
                    score: 0.5,
                },
            ],
            rejected: vec![Rejection {
                reason: "does_not_fit".into(),
                count: 2,
            }],
        };
        assert_eq!(ev.kind(), "decision");
        assert_eq!(
            ev.to_json_line(),
            "{\"kind\":\"decision\",\"t_us\":30000000,\"decision\":\"placement\",\"job\":7,\"user\":1,\"chosen\":\"server:12\",\"tie_break\":\"lowest server id\",\"considered\":5,\"candidates\":[{\"label\":\"server:12\",\"score\":0.25},{\"label\":\"server:3\",\"score\":0.5}],\"rejected\":[{\"reason\":\"does_not_fit\",\"count\":2}]}"
        );
        // Absent job/user serialize as null and parse back to None.
        let ev = TraceEvent::Decision {
            t: SimTime::ZERO,
            decision: "eviction".to_string(),
            job: None,
            user: None,
            chosen: "none".to_string(),
            tie_break: "none".to_string(),
            considered: 0,
            candidates: vec![],
            rejected: vec![],
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"job\":null,\"user\":null"));
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), ev);
    }

    /// One exemplar of every variant, used by the round-trip test below and
    /// kept in `KINDS` order.
    fn exemplars() -> Vec<TraceEvent> {
        let t = SimTime::from_secs(9);
        vec![
            TraceEvent::ServerUp {
                t,
                server: ServerId::new(1),
                gen: GenId::new(2),
                gpus: 8,
            },
            TraceEvent::ServerDown {
                t,
                server: ServerId::new(1),
                evicted: 3,
            },
            TraceEvent::JobArrive {
                t,
                job: JobId::new(4),
                user: UserId::new(2),
                gang: 2,
                service_secs: 1800.5,
            },
            TraceEvent::JobFinish {
                t,
                job: JobId::new(4),
                user: UserId::new(2),
            },
            TraceEvent::Placement {
                t,
                job: JobId::new(4),
                server: ServerId::new(1),
                gang: 2,
            },
            TraceEvent::Migration {
                t,
                job: JobId::new(4),
                from: ServerId::new(1),
                to: ServerId::new(2),
                outage_secs: 30.0,
            },
            TraceEvent::MigrationFailed {
                t,
                job: JobId::new(4),
                from: ServerId::new(1),
                to: ServerId::new(2),
                reason: MigrationFailReason::TargetDown,
                attempt: 2,
            },
            TraceEvent::PartitionStart {
                t,
                server: ServerId::new(3),
            },
            TraceEvent::PartitionEnd {
                t,
                server: ServerId::new(3),
            },
            TraceEvent::Reconcile {
                t,
                server: ServerId::new(3),
                users_resynced: 2,
                jobs_revalidated: 5,
                drift: 1,
            },
            TraceEvent::GangPacked {
                t,
                round: 12,
                server: ServerId::new(1),
                job: JobId::new(4),
                user: UserId::new(2),
                width: 2,
                gang: 2,
            },
            TraceEvent::RoundPlanned {
                t,
                round: 12,
                scheduled: 1,
                gpus_used: 2,
                gpus_up: 8,
                pending: 0,
                tickets_total: 8.0,
                users: vec![UserShare {
                    user: UserId::new(2),
                    tickets: 8.0,
                }],
                user_gpus: vec![UserGrant {
                    user: UserId::new(2),
                    gpus: 2,
                }],
            },
            TraceEvent::Decision {
                t,
                decision: "migration".to_string(),
                job: Some(JobId::new(4)),
                user: Some(UserId::new(2)),
                chosen: "server:2".to_string(),
                tie_break: "least load, lowest server id".to_string(),
                considered: 3,
                candidates: vec![Candidate {
                    label: "server:2".to_string(),
                    score: 0.125,
                }],
                rejected: vec![Rejection {
                    reason: "unreachable".into(),
                    count: 1,
                }],
            },
            TraceEvent::TradeExecuted {
                t,
                seller: UserId::new(0),
                buyer: UserId::new(2),
                gen: GenId::new(1),
                fast_gpus: 1.5,
                base_gpus: 3.0,
                price: 2.0,
            },
            TraceEvent::ProfileInferred {
                t,
                model: "resnet50".to_string(),
                gen: GenId::new(1),
                rate: 2.25,
                samples: 6,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let all = exemplars();
        assert_eq!(all.len(), TraceEvent::KINDS.len());
        for (ev, &kind) in all.iter().zip(TraceEvent::KINDS.iter()) {
            assert_eq!(ev.kind(), kind, "exemplar order must match KINDS");
            let line = ev.to_json_line();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("{kind} failed to parse: {e}\nline: {line}"));
            assert_eq!(&back, ev, "{kind} did not round-trip");
            // And the re-rendered line is byte-identical.
            assert_eq!(back.to_json_line(), line, "{kind} re-render differs");
        }
    }

    #[test]
    fn from_json_line_reports_schema_drift_clearly() {
        // Unknown kind.
        let err = TraceEvent::from_json_line("{\"kind\":\"teleport\",\"t_us\":0}").unwrap_err();
        assert!(err.contains("unknown event kind `teleport`"), "{err}");
        // A dropped field names the kind and the field.
        let err = TraceEvent::from_json_line("{\"kind\":\"job_finish\",\"t_us\":0,\"job\":1}")
            .unwrap_err();
        assert!(
            err.contains("job_finish") && err.contains("`user`"),
            "unhelpful error: {err}"
        );
        // A mistyped field is caught too.
        let err = TraceEvent::from_json_line(
            "{\"kind\":\"job_finish\",\"t_us\":0,\"job\":\"one\",\"user\":0}",
        )
        .unwrap_err();
        assert!(
            err.contains("`job`") && err.contains("integer"),
            "unhelpful error: {err}"
        );
        // Garbage is invalid JSON.
        assert!(TraceEvent::from_json_line("not json").is_err());
    }

    #[test]
    fn floats_keep_json_float_shape() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(-3.0), "-3.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    fn fmt_u64(v: u64) -> String {
        let mut s = String::new();
        push_u64(&mut s, v);
        s
    }

    #[test]
    fn integers_use_the_digit_table_at_every_width() {
        for v in [
            0,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            12_345,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(fmt_u64(v), v.to_string());
        }
        for p in 0..20 {
            let v = 10u64.pow(p);
            assert_eq!(fmt_u64(v - 1), (v - 1).to_string());
            assert_eq!(fmt_u64(v), v.to_string());
        }
    }

    /// `{x:.6}` with trailing zeros trimmed down to one fractional digit:
    /// the reference for the large-magnitude branch of [`push_f64`].
    fn reference_f64(x: f64) -> String {
        let mut s = format!("{x:.6}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.push('0');
        }
        s
    }

    #[test]
    fn large_fractions_match_the_float_formatter_exactly() {
        const EXACT_INT: f64 = 9_007_199_254_740_992.0;
        let check = |x: f64| {
            assert_eq!(fmt_f64(x), reference_f64(x), "value {x:?}");
            assert_eq!(fmt_f64(-x), reference_f64(-x), "value {:?}", -x);
        };
        // Every k/1024 offset, ties included, on integer parts spanning
        // the branch; the addition rounds each to the nearest float.
        for base in [
            9e12,
            9e12 + 1.0,
            2f64.powi(44) - 1.0,
            2f64.powi(44),
            1e15,
            2f64.powi(52),
        ] {
            for k in 0..1024 {
                check(base + f64::from(k) / 1024.0);
            }
        }
        // Random magnitudes over [9e12, 2^53).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            let x = 9e12 + unit * (EXACT_INT - 9e12);
            if x < EXACT_INT {
                check(x);
            }
        }
        check(EXACT_INT - 0.5);
        check(EXACT_INT - 1.0);
    }

    #[test]
    fn micro_unit_path_keeps_its_inexact_last_digit() {
        // Above 2^53 / 1e6, scaling to micro-units rounds; the trace keeps
        // that rounding so existing traces stay byte-stable.
        let x = 8_796_093_022_208.002;
        assert_eq!(fmt_f64(x), "8796093022208.002048");
        assert_eq!(reference_f64(x), "8796093022208.001953");
    }
}
