//! The structured trace-event model.
//!
//! Every scheduler decision the engine applies is narrated as a
//! [`TraceEvent`] and pushed through the installed [`crate::Tracer`] sinks
//! and the [`crate::Auditor`]. Events carry *simulated* time only — never
//! wall-clock readings — so two runs with the same seed serialize to
//! byte-identical JSONL.
//!
//! Each kind is declared in one place: its entry in the `trace_events!`
//! table below gives its variant, its `kind` string and its fields with
//! their docs, in wire order. The table generates the enum,
//! [`TraceEvent::KINDS`], `kind()`, `time()`, the JSONL writer and the
//! reader. To add a kind, add a table entry (and a line to DESIGN.md's
//! event table), then refreeze the golden trace with
//! `GOLDEN_REGEN=1 cargo test -p gfair-obs --test golden_trace`.
//!
//! Each field type writes and reads itself through the private `Codec`
//! trait. The codecs are the number and string formats the golden trace
//! freezes: integers and ids as bare decimals, floats at six decimals by
//! integer arithmetic (see `push_f64`), strings JSON-escaped, absent ids as
//! `null`. The `kind` discriminator always comes first and `t_us` second, so
//! line-oriented tools can dispatch without a full parse. The reader pulls
//! each field straight from the `serde_json` shim's `Deserializer`, in any
//! key order.

use gfair_types::{GenId, JobId, MigrationFailReason, ServerId, SimTime, UserId};
use serde::Deserialize as _;
use serde_json::{Deserializer, JsonValue};
use std::borrow::Cow;
use std::fmt::Write as _;

/// How one field type is written to and read from a trace line.
trait Codec: Sized {
    /// Appends the value's JSON text to `s`.
    fn encode(&self, s: &mut String);
    /// Reads the value of field `name` of a `kind` event from `d`.
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String>;
}

fn invalid(e: serde_json::Error) -> String {
    format!("invalid JSON: {e}")
}

/// Reads the next value, which a scalar field's codec then checks.
fn scalar(d: &mut Deserializer<'_>) -> Result<JsonValue, String> {
    JsonValue::deserialize(d).map_err(invalid)
}

/// Opens the object an event or row is read from; returns whether an entry
/// follows. A value that is not an object is skipped and reads as one with
/// no entries, so the first field it lacks is the error.
fn open(d: &mut Deserializer<'_>) -> Result<bool, String> {
    if d.peek() == Some(b'{') {
        d.begin_object("event").map_err(invalid)
    } else {
        d.skip_value().map_err(invalid).map(|()| false)
    }
}

/// Reads the object at `d`, decoding each key named by a slot (an
/// `Option` variable) into that slot and skipping every other key.
macro_rules! decode_fields {
    ($d:ident, $kind:expr, $($slot:ident),*) => {
        let mut more = open($d)?;
        while more {
            match $d.key().map_err(invalid)? {
                $( stringify!($slot) => decode_once(&mut $slot, $d, $kind, stringify!($slot))?, )*
                _ => $d.skip_value().map_err(invalid)?,
            }
            more = $d.next_entry().map_err(invalid)?;
        }
    };
}

/// Decodes field `name` into `slot`; a repeated key keeps its first value.
fn decode_once<T: Codec>(
    slot: &mut Option<T>,
    d: &mut Deserializer<'_>,
    kind: &str,
    name: &str,
) -> Result<(), String> {
    if slot.is_some() {
        return d.skip_value().map_err(invalid);
    }
    *slot = Some(T::decode(d, kind, name)?);
    Ok(())
}

/// The value of field `name` of a `kind` event (or of one of its rows).
/// Every error names the kind and the field, so schema drift (a renamed or
/// dropped field) fails tests and tooling with an actionable message
/// instead of a silent misparse.
fn require<T>(slot: Option<T>, kind: &str, name: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("{kind}: missing field `{name}`"))
}

/// The `kind` of a trace line, read ahead of its other fields. A line this
/// module wrote has it first, so only a hand-made line costs a second pass.
fn line_kind(line: &str) -> Result<String, String> {
    let d = &mut Deserializer::from_slice(line.as_bytes());
    let mut more = open(d)?;
    while more {
        if d.key().map_err(invalid)? == "kind" {
            return match scalar(d)? {
                JsonValue::Str(kind) => Ok(kind),
                _ => Err("field `kind` must be a string".into()),
            };
        }
        d.skip_value().map_err(invalid)?;
        more = d.next_entry().map_err(invalid)?;
    }
    d.end(Ok(())).map_err(invalid)?;
    Err("<event>: missing field `kind`".into())
}

fn mistyped(kind: &str, name: &str, expected: &str) -> String {
    format!("{kind}: field `{name}` must be {expected}")
}

/// Narrows a decoded integer to `u32`, refusing (not truncating) one that
/// does not fit.
fn narrow(x: u64, kind: &str, name: &str) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| format!("{kind}: field `{name}` is {x}, beyond u32"))
}

impl Codec for u64 {
    fn encode(&self, s: &mut String) {
        push_u64(s, *self);
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        (scalar(d)?.as_u64()).ok_or_else(|| mistyped(kind, name, "a non-negative integer"))
    }
}

impl Codec for u32 {
    fn encode(&self, s: &mut String) {
        push_u64(s, u64::from(*self));
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        narrow(u64::decode(d, kind, name)?, kind, name)
    }
}

impl Codec for f64 {
    fn encode(&self, s: &mut String) {
        push_f64(s, *self);
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        (scalar(d)?.as_f64()).ok_or_else(|| mistyped(kind, name, "a number"))
    }
}

impl Codec for String {
    fn encode(&self, s: &mut String) {
        push_escaped(s, self);
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        match scalar(d)? {
            JsonValue::Str(x) => Ok(x),
            _ => Err(mistyped(kind, name, "a string")),
        }
    }
}

impl Codec for Cow<'static, str> {
    fn encode(&self, s: &mut String) {
        push_escaped(s, self);
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        String::decode(d, kind, name).map(Cow::Owned)
    }
}

impl Codec for MigrationFailReason {
    fn encode(&self, s: &mut String) {
        push_escaped(s, self.as_str());
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        let reason = String::decode(d, kind, name)?;
        MigrationFailReason::parse(&reason)
            .ok_or_else(|| format!("{kind}: unknown migration failure reason `{reason}`"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, s: &mut String) {
        s.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            x.encode(s);
        }
        s.push(']');
    }
    fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
        if d.peek() != Some(b'[') {
            return Err(mistyped(kind, name, "an array"));
        }
        let mut items = Vec::new();
        let mut more = d.begin_array(name).map_err(invalid)?;
        while more {
            items.push(T::decode(d, kind, name)?);
            more = d.next_element().map_err(invalid)?;
        }
        Ok(items)
    }
}

/// Ids travel as bare integers, and an absent id as `null`.
macro_rules! id_codecs {
    ($($id:ident),*) => {$(
        impl Codec for $id {
            fn encode(&self, s: &mut String) {
                push_u64(s, self.index() as u64);
            }
            fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
                u32::decode(d, kind, name).map($id::new)
            }
        }

        impl Codec for Option<$id> {
            fn encode(&self, s: &mut String) {
                match self {
                    Some(id) => id.encode(s),
                    None => s.push_str("null"),
                }
            }
            fn decode(d: &mut Deserializer<'_>, kind: &str, name: &str) -> Result<Self, String> {
                let v = scalar(d)?;
                if let JsonValue::Null = v {
                    return Ok(None);
                }
                let x = v.as_u64().ok_or_else(|| mistyped(kind, name, "an integer or null"))?;
                narrow(x, kind, name).map(|x| Some($id::new(x)))
            }
        }
    )*};
}

id_codecs!(JobId, UserId, ServerId, GenId);

/// Declares the row types events carry in arrays. Each row travels as a
/// JSON object of its fields in declaration order.
macro_rules! trace_rows {
    ($(
        $(#[$meta:meta])*
        pub struct $row:ident {
            $(#[$meta0:meta])* pub $field0:ident: $ty0:ty,
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $row {
            $(#[$meta0])* pub $field0: $ty0,
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Codec for $row {
            fn encode(&self, s: &mut String) {
                s.push_str(concat!("{\"", stringify!($field0), "\":"));
                self.$field0.encode(s);
                $(
                    s.push_str(concat!(",\"", stringify!($field), "\":"));
                    self.$field.encode(s);
                )*
                s.push('}');
            }
            fn decode(d: &mut Deserializer<'_>, kind: &str, _: &str) -> Result<Self, String> {
                let mut $field0 = None;
                $( let mut $field = None; )*
                decode_fields!(d, kind, $field0 $(, $field)*);
                Ok($row {
                    $field0: require($field0, kind, stringify!($field0))?,
                    $( $field: require($field, kind, stringify!($field))?, )*
                })
            }
        }
    )*};
}

trace_rows! {
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
        pub reason: Cow<'static, str>,
        /// How many alternatives were rejected for this reason.
        pub count: u32,
    }
}

/// One gang grant inside a round's batch (see [`crate::Obs::emit_packed`]):
/// a [`TraceEvent::GangPacked`] without the time and round number that
/// every grant of the batch shares. A grant is always the whole gang, so
/// the event's `width` is `gang`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGang {
    /// The server.
    pub server: ServerId,
    /// The job.
    pub job: JobId,
    /// The job's owner.
    pub user: UserId,
    /// GPUs the job's gang requires, all granted this quantum.
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
                gang,
                ..
            } => Some((
                t,
                round,
                PackedGang {
                    server,
                    job,
                    user,
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
            width: self.gang,
            gang: self.gang,
        }
    }
}

/// Declares the event kinds. Each entry is a variant, its `kind` string
/// and its fields in wire order; every variant also gets a leading
/// `t: SimTime`, written as `t_us`.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    /// Simulated time.
                    t: SimTime,
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
        }

        impl $name {
            /// Every `kind` discriminator, in variant declaration order. The
            /// DESIGN.md event table and the golden-trace fixture are
            /// cross-checked against this list by tests, so adding a variant
            /// without documenting it fails the suite.
            pub const KINDS: [&'static str; [$($kind),*].len()] = [$($kind),*];

            /// The event's `kind` discriminator as it appears in JSONL.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $kind, )*
                }
            }

            /// The event's simulated time.
            pub fn time(&self) -> SimTime {
                match self {
                    $( $name::$variant { t, .. } )|* => *t,
                }
            }

            /// Appends the event's JSON line (no trailing newline) to `s`:
            /// `kind`, `t_us`, then the fields in declaration order.
            ///
            /// This is the zero-allocation path sinks use with a reused
            /// buffer: integers go through a hand-rolled itoa instead of the
            /// `core::fmt` machinery, which matters at hundreds of thousands
            /// of events per simulated hour.
            pub fn write_json_line(&self, s: &mut String) {
                match self {
                    $( $name::$variant { t, $($field,)* } => {
                        s.push_str(concat!("{\"kind\":\"", $kind, "\",\"t_us\":"));
                        push_u64(s, t.as_micros());
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.encode(s);
                        )*
                    } )*
                }
                s.push('}');
            }

            /// Parses one JSONL trace line back into an event — the inverse
            /// of [`to_json_line`](Self::to_json_line). This is the contract
            /// `gfair-trace` and the golden-trace schema test are built on:
            /// renaming or dropping a field fails here with a message naming
            /// the event kind and the missing field.
            ///
            /// # Errors
            ///
            /// Returns a description of the first problem found: invalid
            /// JSON, an unknown `kind`, a missing or mistyped field, or an
            /// integer too large for its field.
            pub fn from_json_line(line: &str) -> Result<$name, String> {
                let kind = line_kind(line)?;
                let kind = kind.as_str();
                let d = &mut Deserializer::from_slice(line.as_bytes());
                match kind {
                    $( $kind => {
                        let mut t_us = None;
                        $( let mut $field = None; )*
                        decode_fields!(d, kind, t_us $(, $field)*);
                        d.end(Ok(())).map_err(invalid)?;
                        Ok($name::$variant {
                            t: SimTime::from_micros(require(t_us, kind, "t_us")?),
                            $( $field: require($field, kind, stringify!($field))?, )*
                        })
                    } )*
                    other => Err(format!(
                        "unknown event kind `{other}` (known kinds: {})",
                        $name::KINDS.join(", ")
                    )),
                }
            }
        }
    };
}

trace_events! {
    /// A structured record of one scheduler decision or cluster incident.
    ///
    /// The `t` field is simulated time. `ServerUp` is also emitted once per
    /// server at simulation start so a trace is self-describing: the auditor
    /// reconstructs cluster capacity from the stream alone.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A server came online (or was online at simulation start).
        ServerUp = "server_up" {
            /// The server.
            server: ServerId,
            /// The server's GPU generation.
            gen: GenId,
            /// GPUs installed.
            gpus: u32,
        },
        /// A server failed; resident jobs were evicted.
        ServerDown = "server_down" {
            /// The server.
            server: ServerId,
            /// Number of jobs evicted by the failure.
            evicted: u32,
        },
        /// A job entered the system.
        JobArrive = "job_arrive" {
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
        JobFinish = "job_finish" {
            /// The job.
            job: JobId,
            /// Its owner.
            user: UserId,
        },
        /// A job became resident on a server (initial placement or migration
        /// landing).
        Placement = "placement" {
            /// The job.
            job: JobId,
            /// Where it now resides.
            server: ServerId,
            /// Gang size.
            gang: u32,
        },
        /// A job started a checkpoint/restore move between servers.
        Migration = "migration" {
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
        MigrationFailed = "migration_failed" {
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
        PartitionStart = "partition_start" {
            /// The unreachable server.
            server: ServerId,
        },
        /// Connectivity to a partitioned server was restored.
        PartitionEnd = "partition_end" {
            /// The healed server.
            server: ServerId,
        },
        /// After a partition healed, the central scheduler re-synced state with
        /// the server's local scheduler.
        Reconcile = "reconcile" {
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
        /// `width` is the allocation granted and `gang` the job's declared
        /// requirement; the engine grants only whole gangs, so the two agree.
        GangPacked = "gang_packed" {
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
        RoundPlanned = "round_planned" {
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
        Decision = "decision" {
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
        TradeExecuted = "trade_executed" {
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
        ProfileInferred = "profile_inferred" {
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
}

impl TraceEvent {
    /// Renders the event as one JSON line (no trailing newline).
    ///
    /// Times serialize as integer microseconds (`t_us`) so encoding never
    /// loses precision; every id is a bare integer.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_json_line(&mut s);
        s
    }
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

/// Appends `input` as a JSON string literal, quotes included,
/// allocation-free for the overwhelmingly common clean case.
fn push_escaped(out: &mut String, input: &str) {
    out.push('"');
    if !input.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(input);
    } else {
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
    out.push('"');
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
        // An id beyond u32 is refused, not truncated to job 1.
        let err = TraceEvent::from_json_line(
            "{\"kind\":\"job_finish\",\"t_us\":0,\"job\":4294967297,\"user\":0}",
        )
        .unwrap_err();
        assert!(
            err.contains("job_finish") && err.contains("`job`"),
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

    fn fmt_f64(x: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, x);
        s
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
