//! Fault plans: what can break, when, and how often.
//!
//! A [`FaultPlan`] is a declarative, fully deterministic description of the
//! faults a simulation run should experience. It combines *randomized*
//! faults (per-migration failure probabilities drawn from a seeded hash, so
//! the draw for a given job/attempt never depends on event interleaving)
//! with *scripted* faults (exact job/attempt pairs) and *windowed* faults
//! (network partitions and server flapping on a fixed timeline).

use gfair_types::{JobId, ServerId, SimDuration, SimTime};
use serde::{Deserialize as _, Value};
use serde_json::Deserializer;
use std::fmt::Write as _;

/// Every category of fault a [`FaultPlan`] can construct.
///
/// The DESIGN.md fault-model table must enumerate exactly these variants;
/// a test cross-checks the doc against [`FaultKind::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Checkpoint write fails on the source server: the migration aborts
    /// and the job keeps running where it was.
    CheckpointFail,
    /// Restore fails on the destination server: the job's GPU time on the
    /// wire is lost and it re-enters the pending queue.
    RestoreFail,
    /// Checkpoint/restore runs but is transiently slow: the migration
    /// outage is multiplied by the plan's slowdown factor.
    MigrationSlowdown,
    /// Network partition: for a time window the central scheduler cannot
    /// reach one server's local scheduler (the server keeps running).
    Partition,
    /// Server flapping: a server repeatedly fails and recovers on a cycle.
    ServerFlap,
}

impl FaultKind {
    /// All constructible fault kinds, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::CheckpointFail,
        FaultKind::RestoreFail,
        FaultKind::MigrationSlowdown,
        FaultKind::Partition,
        FaultKind::ServerFlap,
    ];

    /// Stable snake_case name used in plan files and documentation.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CheckpointFail => "checkpoint_fail",
            FaultKind::RestoreFail => "restore_fail",
            FaultKind::MigrationSlowdown => "migration_slowdown",
            FaultKind::Partition => "partition",
            FaultKind::ServerFlap => "server_flap",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// True for kinds that describe a single migration attempt (and are
    /// therefore valid in [`ScriptedFault`]); partition and flap faults are
    /// windowed and configured separately.
    pub fn is_migration_stage(self) -> bool {
        matches!(
            self,
            FaultKind::CheckpointFail | FaultKind::RestoreFail | FaultKind::MigrationSlowdown
        )
    }
}

/// A window during which the central scheduler cannot reach `server`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The unreachable server.
    pub server: ServerId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive) — the heal instant.
    pub until: SimTime,
}

/// A scripted fail/recover cycle for one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSpec {
    /// The flapping server.
    pub server: ServerId,
    /// Time of the first failure.
    pub first_fail: SimTime,
    /// How long each outage lasts.
    pub down: SimDuration,
    /// How long the server stays up between outages.
    pub up: SimDuration,
    /// Number of fail/recover cycles.
    pub cycles: u32,
}

impl FlapSpec {
    /// The instant the last cycle recovers, `first_fail + cycles · down +
    /// (cycles − 1) · up`; `None` if that overflows.
    pub fn last_recovery(&self) -> Option<SimTime> {
        let cycles = u64::from(self.cycles);
        let down = self.down.as_micros().checked_mul(cycles)?;
        let up = self.up.as_micros().checked_mul(cycles.saturating_sub(1))?;
        let micros = (self.first_fail.as_micros().checked_add(down)?).checked_add(up)?;
        Some(SimTime::from_micros(micros))
    }

    /// The flap's outages as `(failure, recovery)` instants, in time order:
    /// cycle `k` fails at `first_fail + k · (down + up)`. Times saturate
    /// instead of overflowing.
    pub fn outages(&self) -> impl Iterator<Item = (SimTime, SimTime)> {
        let start = self.first_fail.as_micros();
        let down = self.down.as_micros();
        let period = down.saturating_add(self.up.as_micros());
        (0..u64::from(self.cycles)).map(move |k| {
            let fail = start.saturating_add(k.saturating_mul(period));
            let recover = fail.saturating_add(down);
            (SimTime::from_micros(fail), SimTime::from_micros(recover))
        })
    }
}

/// The most flap cycles, summed over its flaps, a plan may hold. Each cycle
/// queues a failure and a recovery event when the run starts, so this
/// bounds the up-front event queue at two hundred thousand events.
const MAX_FLAP_CYCLES: u64 = 100_000;

/// An exact fault pinned to one migration attempt of one job.
///
/// Scripted faults override the randomized draw for that (job, attempt)
/// pair; `kind` must be a migration-stage kind (see
/// [`FaultKind::is_migration_stage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// The job whose migration is targeted.
    pub job: JobId,
    /// Which attempt fails (1 = the job's first migration attempt ever).
    pub attempt: u32,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Declarative, seedable description of every fault a run should see.
///
/// The default plan injects nothing; builders opt into each fault class.
/// Randomized migration faults are drawn per (job, attempt) from a
/// counter-based hash of `seed`, so the outcome of any given attempt is
/// independent of event ordering and thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the randomized per-migration draws.
    pub seed: u64,
    /// Probability a migration fails at the checkpoint stage.
    pub checkpoint_fail_rate: f64,
    /// Probability a migration fails at the restore stage.
    pub restore_fail_rate: f64,
    /// Probability a migration is slowed down (but succeeds).
    pub slowdown_rate: f64,
    /// Outage multiplier applied by a slowdown fault (≥ 1).
    pub slowdown_factor: f64,
    /// Network-partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Server fail/recover cycles.
    pub flaps: Vec<FlapSpec>,
    /// Exact faults pinned to specific (job, attempt) pairs.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            checkpoint_fail_rate: 0.0,
            restore_fail_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 3.0,
            partitions: Vec::new(),
            flaps: Vec::new(),
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the seed for randomized draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the checkpoint- and restore-stage failure probabilities.
    pub fn with_migration_fail_rates(mut self, checkpoint: f64, restore: f64) -> Self {
        self.checkpoint_fail_rate = checkpoint;
        self.restore_fail_rate = restore;
        self
    }

    /// Sets the slowdown probability and outage multiplier.
    pub fn with_slowdown(mut self, rate: f64, factor: f64) -> Self {
        self.slowdown_rate = rate;
        self.slowdown_factor = factor;
        self
    }

    /// Adds a partition window for `server` over `[from, until)`.
    pub fn with_partition(mut self, server: ServerId, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(PartitionWindow {
            server,
            from,
            until,
        });
        self
    }

    /// Adds a fail/recover flap cycle for one server.
    pub fn with_flap(
        mut self,
        server: ServerId,
        first_fail: SimTime,
        down: SimDuration,
        up: SimDuration,
        cycles: u32,
    ) -> Self {
        self.flaps.push(FlapSpec {
            server,
            first_fail,
            down,
            up,
            cycles,
        });
        self
    }

    /// Pins `kind` to `job`'s `attempt`-th migration attempt.
    pub fn with_scripted(mut self, job: JobId, attempt: u32, kind: FaultKind) -> Self {
        self.scripted.push(ScriptedFault { job, attempt, kind });
        self
    }

    /// True when the plan injects nothing at all (the engine skips the
    /// fault path entirely for such plans).
    pub fn is_noop(&self) -> bool {
        self.checkpoint_fail_rate == 0.0
            && self.restore_fail_rate == 0.0
            && self.slowdown_rate == 0.0
            && self.partitions.is_empty()
            && self.flaps.is_empty()
            && self.scripted.is_empty()
    }

    /// One message per failure or recovery in `events` that overlaps or
    /// touches a flap outage of its server. `events` are scheduled outside
    /// the plan, as `(time, server, is_failure)`, and may overlap each
    /// other. A failure's outage lasts until its server's first recovery in
    /// `events` at or after it (for ever if none); a recovery is an
    /// instant. The engine keeps a server's down state as a flag, so the
    /// first recovery from either source would end both outages. Assumes
    /// the plan passed [`validate`](Self::validate).
    pub fn outage_clashes(&self, events: &[(SimTime, ServerId, bool)]) -> Vec<String> {
        let recovery = |server, at| {
            (events.iter())
                .filter(|&&(t, s, is_failure)| s == server && !is_failure && t >= at)
                .map(|e| e.0)
                .min()
        };
        (events.iter())
            .filter_map(|&(from, server, is_failure)| {
                let until = match is_failure {
                    true => recovery(server, from).unwrap_or(SimTime::MAX),
                    false => from,
                };
                let flaps = self.flap_outages().filter(|w| w.0 == server);
                let outside = (server, from, until, Label::Outside);
                clashes(flaps.chain([outside]).collect()).pop()
            })
            .collect()
    }

    /// Every flap outage of the plan as a window.
    fn flap_outages(&self) -> impl Iterator<Item = Window> + '_ {
        (self.flaps.iter().enumerate()).flat_map(|(i, f)| {
            (f.outages().enumerate())
                .map(move |(k, (from, until))| (f.server, from, until, Label::Outage(i, k)))
        })
    }

    /// Validates internal consistency, returning one message per problem.
    ///
    /// An empty result means the plan is well-formed. Server ids are
    /// validated against the cluster by the engine, which knows the
    /// topology.
    ///
    /// Two partition windows on one server, or two flap outages on one
    /// server (of one flap or of two), must neither overlap nor touch: the
    /// engine keeps a server's partitioned and down states as flags, so
    /// the first heal or recovery would end both windows. A partition may
    /// overlap an outage.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for (name, rate) in [
            ("checkpoint_fail_rate", self.checkpoint_fail_rate),
            ("restore_fail_rate", self.restore_fail_rate),
            ("slowdown_rate", self.slowdown_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                errs.push(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        let sum = self.checkpoint_fail_rate + self.restore_fail_rate + self.slowdown_rate;
        if sum > 1.0 + 1e-9 {
            errs.push(format!(
                "fault rates must sum to at most 1 (a migration has one outcome), got {sum}"
            ));
        }
        if !self.slowdown_factor.is_finite() || self.slowdown_factor < 1.0 {
            errs.push(format!(
                "slowdown_factor must be a finite value ≥ 1, got {}",
                self.slowdown_factor
            ));
        }
        for p in &self.partitions {
            if p.until <= p.from {
                errs.push(format!(
                    "partition window for {} must end after it starts ({} ≤ {})",
                    p.server,
                    p.until.as_secs(),
                    p.from.as_secs()
                ));
            }
        }
        let mut cycles = 0u64;
        for (i, f) in self.flaps.iter().enumerate() {
            let before = cycles;
            cycles += u64::from(f.cycles);
            if before <= MAX_FLAP_CYCLES && cycles > MAX_FLAP_CYCLES {
                errs.push(format!(
                    "flap {i} (server {}) brings the plan to {cycles} flap cycles, more than the \
                     {MAX_FLAP_CYCLES} a plan may hold",
                    f.server
                ));
            }
            if f.cycles == 0 {
                errs.push(format!("flap for {} has zero cycles", f.server));
            }
            if f.down.is_zero() {
                errs.push(format!("flap for {} has a zero-length outage", f.server));
            }
            if f.up.is_zero() && f.cycles > 1 {
                errs.push(format!(
                    "flap for {} has zero up-time between {} outages",
                    f.server, f.cycles
                ));
            }
        }
        let partitions = (self.partitions.iter().enumerate())
            .map(|(i, p)| (p.server, p.from, p.until, Label::Partition(i)));
        errs.extend(clashes(partitions.collect()));
        // Listing every outage of a plan over the cycle cap could take any
        // amount of memory; that plan is refused above.
        if cycles <= MAX_FLAP_CYCLES {
            errs.extend(clashes(self.flap_outages().collect()));
        }
        for s in &self.scripted {
            if !s.kind.is_migration_stage() {
                errs.push(format!(
                    "scripted fault for {} attempt {} has kind {:?}; only migration-stage kinds \
                     (checkpoint_fail, restore_fail, migration_slowdown) can be scripted",
                    s.job,
                    s.attempt,
                    s.kind.name()
                ));
            }
            if s.attempt == 0 {
                errs.push(format!(
                    "scripted fault for {} targets attempt 0; attempts are numbered from 1",
                    s.job
                ));
            }
        }
        errs
    }

    /// Serializes the plan to a stable, human-editable JSON document.
    ///
    /// Times and durations are expressed in whole seconds.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            s,
            "  \"checkpoint_fail_rate\": {},",
            fmt_rate(self.checkpoint_fail_rate)
        );
        let _ = writeln!(
            s,
            "  \"restore_fail_rate\": {},",
            fmt_rate(self.restore_fail_rate)
        );
        let _ = writeln!(s, "  \"slowdown_rate\": {},", fmt_rate(self.slowdown_rate));
        let _ = writeln!(
            s,
            "  \"slowdown_factor\": {},",
            fmt_rate(self.slowdown_factor)
        );
        s.push_str("  \"partitions\": [");
        for (i, p) in self.partitions.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"server\": {}, \"from_secs\": {}, \"until_secs\": {}}}",
                p.server.raw(),
                p.from.as_secs(),
                p.until.as_secs()
            );
        }
        s.push_str(if self.partitions.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"flaps\": [");
        for (i, f) in self.flaps.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"server\": {}, \"first_fail_secs\": {}, \"down_secs\": {}, \
                 \"up_secs\": {}, \"cycles\": {}}}",
                f.server.raw(),
                f.first_fail.as_secs(),
                f.down.as_secs(),
                f.up.as_secs(),
                f.cycles
            );
        }
        s.push_str(if self.flaps.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"scripted\": [");
        for (i, f) in self.scripted.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"job\": {}, \"attempt\": {}, \"kind\": \"{}\"}}",
                f.job.raw(),
                f.attempt,
                f.kind.name()
            );
        }
        s.push_str(if self.scripted.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push('}');
        s
    }

    /// Parses a plan from JSON. Missing fields take their defaults, so
    /// minimal plans stay minimal. An unknown key, at the top level or in a
    /// `partitions`, `flaps` or `scripted` entry, is an error that names
    /// the key and lists the known ones: a misspelt key must not silently
    /// turn a fault off.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let d = &mut Deserializer::from_slice(text.as_bytes());
        if d.peek() != Some(b'{') {
            let v = value(d)?;
            d.end(Ok(())).map_err(invalid)?;
            return Err(format!(
                "fault plan must be a JSON object, got {}",
                v.kind()
            ));
        }
        let mut plan = FaultPlan::default();
        let mut more = d.begin_object("fault plan").map_err(invalid)?;
        while more {
            match d.key().map_err(invalid)? {
                "seed" => plan.seed = need_u64(&value(d)?, "seed")?,
                "checkpoint_fail_rate" => {
                    plan.checkpoint_fail_rate = need_f64(&value(d)?, "checkpoint_fail_rate")?
                }
                "restore_fail_rate" => {
                    plan.restore_fail_rate = need_f64(&value(d)?, "restore_fail_rate")?
                }
                "slowdown_rate" => plan.slowdown_rate = need_f64(&value(d)?, "slowdown_rate")?,
                "slowdown_factor" => {
                    plan.slowdown_factor = need_f64(&value(d)?, "slowdown_factor")?
                }
                "partitions" => read_entries(d, "partitions", &PARTITION_KEYS, |e| {
                    plan.partitions.push(parse_partition(e)?);
                    Ok(())
                })?,
                "flaps" => read_entries(d, "flaps", &FLAP_KEYS, |e| {
                    plan.flaps.push(parse_flap(e)?);
                    Ok(())
                })?,
                "scripted" => read_entries(d, "scripted", &SCRIPTED_KEYS, |e| {
                    plan.scripted.push(parse_scripted(e)?);
                    Ok(())
                })?,
                unknown => return Err(unknown_key(unknown, "the fault plan", &PLAN_KEYS)),
            }
            more = d.next_entry().map_err(invalid)?;
        }
        d.end(Ok(())).map_err(invalid)?;
        let errs = plan.validate();
        if errs.is_empty() {
            Ok(plan)
        } else {
            Err(errs.join("; "))
        }
    }
}

/// Top-level keys of a JSON fault plan.
const PLAN_KEYS: [&str; 8] = [
    "seed",
    "checkpoint_fail_rate",
    "restore_fail_rate",
    "slowdown_rate",
    "slowdown_factor",
    "partitions",
    "flaps",
    "scripted",
];

fn unknown_key(key: &str, what: &str, known: &[&str]) -> String {
    format!(
        "unknown key {key:?} in {what} (known keys: {})",
        known.join(", ")
    )
}

const PARTITION_KEYS: [&str; 3] = ["server", "from_secs", "until_secs"];
const FLAP_KEYS: [&str; 5] = [
    "server",
    "first_fail_secs",
    "down_secs",
    "up_secs",
    "cycles",
];
const SCRIPTED_KEYS: [&str; 3] = ["job", "attempt", "kind"];

fn invalid(e: serde_json::Error) -> String {
    format!("invalid JSON: {e}")
}

/// Reads the next value of the plan.
fn value(d: &mut Deserializer<'_>) -> Result<Value, String> {
    Value::deserialize(d).map_err(invalid)
}

/// One entry of a plan array, `what[i]`: the values of its keys, each one
/// of the entry's known keys.
struct Entry {
    what: &'static str,
    i: usize,
    fields: Vec<(&'static str, Value)>,
}

impl Entry {
    fn get(&self, name: &str) -> Result<&Value, String> {
        (self.fields.iter().find(|(k, _)| *k == name))
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{}[{}] is missing field {name}", self.what, self.i))
    }
}

/// Reads the array field `what`, handing each entry to `each`. An entry
/// key not in `known` is an error naming it; a repeated key keeps its first
/// value, and an entry that is not an object has no keys.
fn read_entries(
    d: &mut Deserializer<'_>,
    what: &'static str,
    known: &[&'static str],
    mut each: impl FnMut(&Entry) -> Result<(), String>,
) -> Result<(), String> {
    if d.peek() != Some(b'[') {
        let got = value(d)?;
        return Err(format!("field {what} must be an array, got {}", got.kind()));
    }
    let mut more = d.begin_array(what).map_err(invalid)?;
    let mut i = 0;
    while more {
        let mut entry = Entry {
            what,
            i,
            fields: Vec::new(),
        };
        if d.peek() == Some(b'{') {
            let mut field = d.begin_object(what).map_err(invalid)?;
            while field {
                let key = d.key().map_err(invalid)?;
                let Some(&name) = known.iter().find(|&&k| k == key) else {
                    return Err(unknown_key(key, &format!("{what}[{i}]"), known));
                };
                let v = value(d)?;
                if entry.get(name).is_err() {
                    entry.fields.push((name, v));
                }
                field = d.next_entry().map_err(invalid)?;
            }
        } else {
            value(d)?;
        }
        each(&entry)?;
        i += 1;
        more = d.next_element().map_err(invalid)?;
    }
    Ok(())
}

fn fmt_rate(x: f64) -> String {
    if x == x.trunc() && x.is_finite() {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// What a fault window is, to name it in a message.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Label {
    /// The plan's `i`-th partition.
    Partition(usize),
    /// Cycle `k` of the plan's `i`-th flap.
    Outage(usize, usize),
    /// A failure or recovery scheduled outside the plan.
    Outside,
}

/// A fault window: `(server, from, until, label)`.
type Window = (ServerId, SimTime, SimTime, Label);

/// One message per server on which two of `windows` overlap or touch,
/// naming the first such pair in time order.
fn clashes(mut windows: Vec<Window>) -> Vec<String> {
    let name = |(server, from, until, label): Window| {
        let (from_s, until_s) = (from.as_secs(), until.as_secs());
        match label {
            Label::Partition(i) => format!("partition {i} of {server} ({from_s}-{until_s} s)"),
            Label::Outage(i, k) => {
                format!("flap {i} outage {k} of {server} ({from_s}-{until_s} s)")
            }
            Label::Outside if from == until => format!("recovery of {server} at {from_s} s"),
            Label::Outside if until == SimTime::MAX => {
                format!("outage of {server} from {from_s} s on")
            }
            Label::Outside => format!("outage of {server} ({from_s}-{until_s} s)"),
        }
    };
    windows.sort_unstable();
    let mut errs: Vec<(ServerId, String)> = Vec::new();
    // The window reaching furthest so far on the current server.
    let mut reach: Option<Window> = None;
    for w in windows {
        match reach {
            Some(r) if r.0 == w.0 && w.1 <= r.2 => {
                if errs.last().map(|(s, _)| *s) != Some(w.0) {
                    let (first, second) = (name(r), name(w));
                    let msg = format!(
                        "{first} and {second} overlap or touch (one ending would end both)"
                    );
                    errs.push((w.0, msg));
                }
                if w.2 > r.2 {
                    reach = Some(w);
                }
            }
            _ => reach = Some(w),
        }
    }
    errs.into_iter().map(|(_, msg)| msg).collect()
}

fn need_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| {
        let got = match v {
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => {
                serde_json::to_string(v).unwrap_or_else(|_| v.kind().to_string())
            }
            _ => v.kind().to_string(),
        };
        format!("field {field} must be a non-negative integer, got {got}")
    })
}

fn need_u32(v: &Value, field: &str) -> Result<u32, String> {
    let raw = need_u64(v, field)?;
    u32::try_from(raw).map_err(|_| format!("field {field} does not fit in u32: {raw}"))
}

/// Reads whole seconds as an instant; seconds whose microsecond count
/// does not fit in a `u64` are an error naming the field.
fn need_time(v: &Value, field: &str) -> Result<SimTime, String> {
    let secs = need_u64(v, field)?;
    SimTime::checked_from_secs(secs).ok_or_else(|| secs_out_of_range(field, secs))
}

/// Reads whole seconds as a duration, as [`need_time`] reads an instant.
fn need_duration(v: &Value, field: &str) -> Result<SimDuration, String> {
    let secs = need_u64(v, field)?;
    SimDuration::checked_from_secs(secs).ok_or_else(|| secs_out_of_range(field, secs))
}

fn secs_out_of_range(field: &str, secs: u64) -> String {
    format!("field {field}: {secs} s does not fit in the simulator's microsecond clock")
}

fn need_f64(v: &Value, field: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("field {field} must be a number, got {}", v.kind()))
}

fn parse_partition(e: &Entry) -> Result<PartitionWindow, String> {
    Ok(PartitionWindow {
        server: ServerId::new(need_u32(e.get("server")?, "server")?),
        from: need_time(e.get("from_secs")?, "from_secs")?,
        until: need_time(e.get("until_secs")?, "until_secs")?,
    })
}

fn parse_flap(e: &Entry) -> Result<FlapSpec, String> {
    Ok(FlapSpec {
        server: ServerId::new(need_u32(e.get("server")?, "server")?),
        first_fail: need_time(e.get("first_fail_secs")?, "first_fail_secs")?,
        down: need_duration(e.get("down_secs")?, "down_secs")?,
        up: need_duration(e.get("up_secs")?, "up_secs")?,
        cycles: need_u32(e.get("cycles")?, "cycles")?,
    })
}

fn parse_scripted(e: &Entry) -> Result<ScriptedFault, String> {
    let i = e.i;
    let kind_name =
        (e.get("kind")?.as_str()).ok_or_else(|| format!("scripted[{i}].kind must be a string"))?;
    let kind = FaultKind::from_name(kind_name).ok_or_else(|| {
        format!(
            "scripted[{i}].kind {kind_name:?} is not a fault kind (expected one of: {})",
            FaultKind::ALL.map(|k| k.name()).join(", ")
        )
    })?;
    Ok(ScriptedFault {
        job: JobId::new(need_u32(e.get("job")?, "job")?),
        attempt: need_u32(e.get("attempt")?, "attempt")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(plan.validate().is_empty());
    }

    #[test]
    fn validate_catches_bad_rates_and_windows() {
        let plan = FaultPlan::default().with_migration_fail_rates(0.7, 0.6);
        assert!(plan.validate().iter().any(|e| e.contains("sum")));
        let plan = FaultPlan::default().with_migration_fail_rates(-0.1, 0.0);
        assert!(!plan.validate().is_empty());
        let plan = FaultPlan::default().with_slowdown(0.1, 0.5);
        assert!(plan
            .validate()
            .iter()
            .any(|e| e.contains("slowdown_factor")));
        let plan = FaultPlan::default().with_partition(
            ServerId::new(0),
            SimTime::from_secs(100),
            SimTime::from_secs(50),
        );
        assert!(plan.validate().iter().any(|e| e.contains("partition")));
        let plan = FaultPlan::default().with_scripted(JobId::new(1), 1, FaultKind::Partition);
        assert!(plan.validate().iter().any(|e| e.contains("scripted")));
    }

    #[test]
    fn flap_cycles_are_capped_over_the_whole_plan() {
        let flap = |plan: FaultPlan, server: u32, cycles: u32| {
            let (t, d) = (SimTime::from_secs(60), SimDuration::from_secs(1));
            plan.with_flap(ServerId::new(server), t, d, d, cycles)
        };
        let cap = MAX_FLAP_CYCLES as u32;
        let at_cap = flap(flap(FaultPlan::default(), 0, cap - 10), 3, 10);
        assert!(at_cap.validate().is_empty(), "{:?}", at_cap.validate());
        let over = flap(flap(FaultPlan::default(), 0, cap - 10), 3, 11);
        let errs = over.validate();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with("flap 1 (server S3) brings the plan to 100001 flap cycles"),
            "{errs:?}"
        );
        // Only the flap that crosses the cap is named.
        assert_eq!(flap(over, 1, 5).validate(), errs);
    }

    #[test]
    fn same_kind_windows_on_one_server_must_not_overlap_or_touch() {
        let (s1, s2) = (ServerId::new(1), ServerId::new(2));
        let t = SimTime::from_secs;
        let d = SimDuration::from_secs;
        let errs = |plan: FaultPlan| plan.validate();
        // (a) A partition inside another, and (b) two touching ones.
        let nested = FaultPlan::none()
            .with_partition(s2, t(100), t(3600))
            .with_partition(s2, t(200), t(300));
        assert_eq!(
            errs(nested),
            ["partition 0 of S2 (100-3600 s) and partition 1 of S2 (200-300 s) overlap or touch \
              (one ending would end both)"]
        );
        let touching = FaultPlan::none()
            .with_partition(s2, t(300), t(3600))
            .with_partition(s2, t(100), t(300));
        assert_eq!(
            errs(touching),
            ["partition 1 of S2 (100-300 s) and partition 0 of S2 (300-3600 s) overlap or touch \
              (one ending would end both)"]
        );
        // (c) Outages of two flaps, and two cycles of one flap.
        let flaps = FaultPlan::none()
            .with_flap(s1, t(100), d(5000), d(60), 1)
            .with_flap(s1, t(200), d(100), d(60), 1);
        assert_eq!(
            errs(flaps),
            [
                "flap 0 outage 0 of S1 (100-5100 s) and flap 1 outage 0 of S1 (200-300 s) overlap \
              or touch (one ending would end both)"
            ]
        );
        let interleaved = FaultPlan::none()
            .with_flap(s1, t(100), d(10), d(90), 3)
            .with_flap(s1, t(300), d(10), d(90), 1);
        let e = errs(interleaved);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(
            e[0].starts_with("flap 0 outage 2 of S1 (300-310 s) and flap 1 outage 0 of S1"),
            "{e:?}"
        );
        // Disjoint windows, other servers and a partition during an outage
        // are all fine.
        let fine = FaultPlan::none()
            .with_partition(s2, t(100), t(200))
            .with_partition(s2, t(201), t(300))
            .with_partition(s1, t(100), t(300))
            .with_flap(s1, t(150), d(10), d(90), 2)
            .with_flap(s1, t(351), d(10), d(90), 1)
            .with_flap(s2, t(150), d(10), d(90), 1);
        assert!(errs(fine.clone()).is_empty(), "{:?}", errs(fine));
    }

    #[test]
    fn outages_outside_the_plan_must_not_overlap_or_touch_its_flaps() {
        let (s0, s1) = (ServerId::new(0), ServerId::new(1));
        let t = SimTime::from_secs;
        let plan = FaultPlan::none().with_flap(
            s1,
            t(7200),
            SimDuration::from_secs(600),
            SimDuration::from_secs(60),
            1,
        );
        let flap = "flap 0 outage 0 of S1 (7200-7800 s)";
        // (d) A failure that never recovers, one that starts as the flap
        // recovers, and a recovery inside the outage.
        for (events, msg) in [
            (
                vec![(t(3600), s1, true)],
                format!("outage of S1 from 3600 s on and {flap}"),
            ),
            (
                vec![(t(7800), s1, true), (t(8000), s1, false)],
                format!("{flap} and outage of S1 (7800-8000 s)"),
            ),
            (
                vec![(t(7500), s1, false)],
                format!("{flap} and recovery of S1 at 7500 s"),
            ),
        ] {
            let errs = plan.outage_clashes(&events);
            assert_eq!(
                errs,
                [format!(
                    "{msg} overlap or touch (one ending would end both)"
                )]
            );
        }
        // Outages that overlap each other but not the flap, and another
        // server's, are fine.
        let fine = [
            (t(60), s1, true),
            (t(120), s1, true),
            (t(300), s1, false),
            (t(7801), s1, false),
            (t(7500), s0, true),
        ];
        assert!(
            plan.outage_clashes(&fine).is_empty(),
            "{:?}",
            plan.outage_clashes(&fine)
        );
    }

    #[test]
    fn a_bad_integer_field_names_the_value_it_got() {
        let partition = |from: &str| {
            let json = format!(
                "{{\"partitions\": [{{\"server\": 1, \"from_secs\": {from}, \"until_secs\": 9}}]}}"
            );
            FaultPlan::from_json(&json).expect_err(from)
        };
        for (from, got) in [
            ("-5", "got -5"),
            ("1.5", "got 1.5"),
            ("\"x\"", "got string"),
        ] {
            let err = partition(from);
            assert!(
                err.contains("from_secs must be a non-negative integer") && err.ends_with(got),
                "{from}: {err}"
            );
        }
    }

    #[test]
    fn seconds_that_overflow_the_clock_name_their_field() {
        // 18446744073710 s is the first whole second past u64::MAX µs.
        let big = 18_446_744_073_710u64;
        let partition = |from: u64, until: u64| {
            format!(
                "{{\"partitions\": [{{\"server\": 1, \"from_secs\": {from}, \"until_secs\": {until}}}]}}"
            )
        };
        let flap = |first: u64, down: u64, up: u64| {
            format!(
                "{{\"flaps\": [{{\"server\": 1, \"first_fail_secs\": {first}, \"down_secs\": {down}, \"up_secs\": {up}, \"cycles\": 1}}]}}"
            )
        };
        let cases = [
            ("from_secs", partition(big, big + 1)),
            ("until_secs", partition(1, big)),
            ("first_fail_secs", flap(big, 1, 1)),
            ("down_secs", flap(1, big, 1)),
            ("up_secs", flap(1, 1, big)),
        ];
        for (name, json) in cases {
            let err = FaultPlan::from_json(&json).expect_err(name);
            assert!(
                err.contains(&format!("field {name}: {big} s does not fit")),
                "{name}: {err}"
            );
        }
        let last = big - 1;
        assert!(FaultPlan::from_json(&partition(last - 1, last)).is_ok());
    }

    #[test]
    fn json_round_trip_preserves_plan() {
        let plan = FaultPlan::default()
            .with_seed(42)
            .with_migration_fail_rates(0.05, 0.05)
            .with_slowdown(0.1, 3.5)
            .with_partition(
                ServerId::new(2),
                SimTime::from_secs(3600),
                SimTime::from_secs(7200),
            )
            .with_flap(
                ServerId::new(1),
                SimTime::from_secs(600),
                SimDuration::from_secs(120),
                SimDuration::from_secs(1800),
                3,
            )
            .with_scripted(JobId::new(7), 1, FaultKind::RestoreFail);
        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let plan = FaultPlan::from_json("{\"checkpoint_fail_rate\": 0.1}").expect("minimal plan");
        assert_eq!(plan.checkpoint_fail_rate, 0.1);
        assert_eq!(plan.slowdown_factor, 3.0);
        assert!(plan.partitions.is_empty());
        assert!(FaultPlan::from_json("[1, 2]").is_err());
        assert!(FaultPlan::from_json("{\"checkpoint_fail_rate\": 2.0}").is_err());
    }

    #[test]
    fn unknown_keys_are_errors_that_name_the_key() {
        let err = FaultPlan::from_json("{\"seed\": 1, \"checkpoint_fail_rte\": 0.5}")
            .expect_err("misspelt top-level key");
        assert!(err.contains("\"checkpoint_fail_rte\""), "{err}");
        assert!(
            err.contains("checkpoint_fail_rate, restore_fail_rate"),
            "{err}"
        );
        let cases = [
            (
                "{\"partitions\": [{\"server\": 2, \"from_secs\": 1, \"until_secs\": 2, \"srv\": 3}]}",
                "partitions[0]",
                "\"srv\"",
            ),
            (
                "{\"flaps\": [{\"server\": 5, \"first_fail_secs\": 1, \"down_secs\": 1, \"up_secs\": 1, \"cycles\": 1, \"cycle\": 2}]}",
                "flaps[0]",
                "\"cycle\"",
            ),
            (
                "{\"scripted\": [{\"job\": 3, \"attempt\": 1, \"kind\": \"checkpoint_fail\"}, {\"job\": 4, \"attempts\": 1, \"kind\": \"checkpoint_fail\"}]}",
                "scripted[1]",
                "\"attempts\"",
            ),
        ];
        for (json, what, key) in cases {
            let err = FaultPlan::from_json(json).expect_err(what);
            assert!(err.contains(what) && err.contains(key), "{err}");
            assert!(err.contains("known keys"), "{err}");
        }
    }

    #[test]
    fn example_plan_uses_only_known_keys() {
        let text = include_str!("../../../examples/faults.json");
        let plan = FaultPlan::from_json(text).expect("example plan parses");
        assert!(!plan.is_noop());
    }

    #[test]
    fn every_strict_prefix_of_the_example_plan_is_an_error() {
        let text = include_str!("../../../examples/faults.json").trim_end();
        for len in (0..text.len()).filter(|&n| text.is_char_boundary(n)) {
            assert!(FaultPlan::from_json(&text[..len]).is_err(), "{len} bytes");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        assert!(FaultPlan::from_json(&deep).is_err());
        let deep_field = format!("{{\"partitions\": {deep}}}");
        assert!(FaultPlan::from_json(&deep_field).is_err());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }
}
