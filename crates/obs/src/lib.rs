//! # gfair-obs — observability for the Gandiva_fair reproduction
//!
//! Zero-dependency structured tracing, metrics, self-profiling, and an
//! online invariant auditor for the scheduler stack. One [`Obs`] instance
//! accompanies a simulation run; every scheduler decision is emitted as a
//! [`TraceEvent`] through [`Obs::emit`], which fans the event out to:
//!
//! 1. **Sinks** ([`Tracer`]) — a JSONL file ([`JsonlSink`], backing
//!    `gfair simulate --trace`) and/or an in-memory ring ([`RingSink`]) for
//!    tests. Traces are byte-deterministic: same seed ⇒ identical file.
//! 2. **Metrics** ([`MetricsRegistry`]) — counters/gauges/histograms
//!    derived from the events themselves, snapshotted into the
//!    deterministic [`ObsSummary`] embedded in `SimReport`.
//! 3. **The auditor** ([`Auditor`]) — checks ticket conservation,
//!    conservation across partition heals and the migration lifecycle (no
//!    job lost or duplicated across a failed migration) online, and warns
//!    on rounds that break work conservation. The engine polls
//!    [`Obs::take_fatal`] each round and aborts the run on a violation,
//!    printing the offending round's trace. Run sets are checked once, by
//!    the engine, before their grants are emitted.
//!
//! Gang grants, the bulk of all events, take one call per round (per
//! 1024 grants on very large rounds): the engine hands a round's grants to
//! [`Obs::emit_packed`] as compact [`PackedGang`] records. Under one lock
//! that counts them and passes the batch to every sink through
//! [`Tracer::record_packed`], which hands each grant to sinks that do not
//! override it as its own `GangPacked` event; the lean [`JsonlSink`]
//! drops the batch at once. The auditor and the ledger ignore grants.
//! Metrics and every sink's output are the same as emitting each grant on
//! its own with `emit(GangPacked)`.
//!
//! Wall-clock self-profiling ([`Obs::time`], [`PhaseStats`]) is kept apart
//! from all of the above: timings never enter the trace or the report, so
//! determinism guarantees survive instrumentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod event;
mod ledger;
mod metrics;
mod sink;
mod spans;

pub use audit::{Auditor, Violation, ViolationKind};
pub use event::{Candidate, PackedGang, Rejection, TraceEvent, UserGrant, UserShare};
pub use ledger::{FairnessLedger, LedgerSummary, LedgerUserRow, RhoSummary};
pub use metrics::{FixedHistogram, Histogram, HistogramSummary, MetricsRegistry, ObsSummary};
pub use sink::{JsonlSink, RingHandle, RingSink, Tracer};
pub use spans::{Phase, PhaseStats, SpanStats, PHASES};

use gfair_types::SimTime;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared observability handle, cloned into the engine and scheduler.
pub type SharedObs = Arc<Obs>;

#[derive(Default)]
struct ObsInner {
    sinks: Vec<Box<dyn Tracer>>,
    metrics: MetricsRegistry,
    auditor: Auditor,
    ledger: FairnessLedger,
    spans: SpanStats,
    events: u64,
}

/// One run's observability pipeline: sinks + metrics + auditor + spans.
///
/// Interior-mutable behind a mutex so the engine and the scheduler can share
/// one instance through [`SharedObs`]. The auditor is always on.
#[derive(Default)]
pub struct Obs {
    inner: Mutex<ObsInner>,
    /// Lock-free mirror of `!inner.sinks.is_empty()`, so hot paths can ask
    /// [`Obs::tracing`] without taking the mutex.
    has_sink: AtomicBool,
    /// Opt-in full-provenance tier; see [`Obs::why`].
    want_why: AtomicBool,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Obs")
            .field("events", &inner.events)
            .field("sinks", &inner.sinks.len())
            .field("violations", &inner.auditor.violations().len())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// Creates an observability pipeline with no sinks (events still feed
    /// metrics and the auditor).
    pub fn new() -> Self {
        Obs::default()
    }

    /// Installs a trace sink; every subsequent event is forwarded to it.
    pub fn add_sink(&self, sink: Box<dyn Tracer>) {
        self.lock().sinks.push(sink);
        self.has_sink.store(true, Ordering::Relaxed);
    }

    /// Whether any trace sink is attached.
    ///
    /// Decision-provenance emitters check this before *building* their
    /// allocation-heavy [`TraceEvent::Decision`] events: provenance is a
    /// trace-only product, so untraced runs skip the cost entirely (and
    /// their `decisions*` counters stay at zero). Everything else — trace
    /// events proper, metrics, the auditor, the fairness ledger — is fed
    /// unconditionally, so attaching a sink never changes scheduling and
    /// never changes any other `SimReport` field.
    pub fn tracing(&self) -> bool {
        self.has_sink.load(Ordering::Relaxed)
    }

    /// Whether per-placement decision provenance is wanted (the
    /// full-provenance tier).
    ///
    /// Tracing has two tiers. The default tier ([`Obs::tracing`]) is a
    /// flight recorder: arrivals, finishes, placements, migrations, round
    /// summaries, plus decision provenance for the *rare* events — trades,
    /// balancer migrations, evictions. The full tier adds a
    /// [`TraceEvent::Decision`] with the scored candidate set for every
    /// placement and retry, which at cluster scale means one provenance
    /// construction per scheduled job — too hot for always-on use. Enable
    /// it with [`Obs::enable_why`] (the CLI's `--trace-full`) when a trace
    /// must answer `gfair-trace why --job` for placements.
    pub fn why(&self) -> bool {
        self.has_sink.load(Ordering::Relaxed) && self.want_why.load(Ordering::Relaxed)
    }

    /// Opts this pipeline into the full-provenance tier; see [`Obs::why`].
    pub fn enable_why(&self) {
        self.want_why.store(true, Ordering::Relaxed);
    }

    /// Convenience: install a [`JsonlSink`] writing to `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.add_sink(Box::new(JsonlSink::create(path)?));
        Ok(())
    }

    /// Convenience: install a full-fidelity [`JsonlSink`] (per-gang stream
    /// included) and enable the full-provenance tier ([`Obs::enable_why`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn jsonl_full(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.add_sink(Box::new(JsonlSink::full_fidelity(path)?));
        self.enable_why();
        Ok(())
    }

    /// Convenience: install a [`RingSink`] and return its read handle.
    pub fn ring(&self, capacity: usize) -> RingHandle {
        let sink = RingSink::new(capacity);
        let handle = sink.handle();
        self.add_sink(Box::new(sink));
        handle
    }

    /// Emits one event: updates metrics, feeds the auditor, forwards to
    /// every sink. A `GangPacked` event has the same effect as a batch of
    /// one through [`Obs::emit_packed`].
    pub fn emit(&self, event: TraceEvent) {
        let mut inner = self.lock();
        inner.events += 1;
        update_metrics(&mut inner.metrics, &event);
        inner.ledger.ingest(&event);
        inner.auditor.process(&event);
        for sink in &mut inner.sinks {
            sink.record(&event);
        }
    }

    /// Emits gang grants of one round, in grant order, under one lock: the
    /// same metrics and sink records as emitting each grant's
    /// [`TraceEvent::GangPacked`] event, whichever way a round's grants are
    /// split into batches. An empty batch changes nothing.
    pub fn emit_packed(&self, t: SimTime, round: u64, grants: &[PackedGang]) {
        if grants.is_empty() {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.events += grants.len() as u64;
        count_grants(&mut inner.metrics, grants.iter().map(|g| g.gang));
        for sink in &mut inner.sinks {
            sink.record_packed(t, round, grants);
        }
    }

    /// Increments a counter directly, for sim-driven quantities that have
    /// no corresponding trace event (e.g. stale migrations the engine
    /// skips). Still deterministic — callers are driven by simulated state.
    pub fn inc(&self, name: &'static str, by: u64) {
        self.lock().metrics.inc(name, by);
    }

    /// Times `f` as one span of `phase`. The lock is *not* held while `f`
    /// runs, so `f` may emit events through this same handle.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.observe_phase(phase, start.elapsed());
        out
    }

    /// Records an externally measured span of `phase`.
    pub fn observe_phase(&self, phase: Phase, dur: Duration) {
        self.lock().spans.observe(phase, dur);
    }

    /// Next not-yet-taken auditor violation, if any. The engine polls this
    /// after each round and turns it into a run-aborting error.
    pub fn take_fatal(&self) -> Option<Violation> {
        self.lock().auditor.take_fatal()
    }

    /// Every auditor violation detected so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.lock().auditor.violations().to_vec()
    }

    /// Warn-level audit findings so far.
    pub fn warnings(&self) -> u64 {
        self.lock().auditor.warnings()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().metrics.counter(name)
    }

    /// Deterministic snapshot for embedding in `SimReport`.
    pub fn summary(&self) -> ObsSummary {
        let inner = self.lock();
        let (counters, gauges, histograms) = inner.metrics.snapshot();
        ObsSummary {
            events: inner.events,
            counters,
            gauges,
            histograms,
            ledger: inner.ledger.summary(),
            violations: inner.auditor.violations().len() as u64,
            warnings: inner.auditor.warnings(),
        }
    }

    /// Snapshot of the fairness ledger alone (also embedded in
    /// [`Obs::summary`]).
    pub fn ledger(&self) -> LedgerSummary {
        self.lock().ledger.summary()
    }

    /// Wall-clock p50/p99 per instrumented phase (phases with ≥1 span).
    pub fn phase_stats(&self) -> Vec<PhaseStats> {
        self.lock().spans.stats()
    }

    /// Flushes every sink. Call at end of run.
    pub fn flush(&self) {
        for sink in &mut self.lock().sinks {
            sink.flush();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ObsInner> {
        self.inner.lock().expect("obs lock poisoned")
    }
}

/// Counts one round's gang grants: `gangs_packed` and one `gang_width`
/// observation per grant, in order. Creates no metric for an empty round.
fn count_grants(m: &mut MetricsRegistry, gangs: impl ExactSizeIterator<Item = u32>) {
    if gangs.len() == 0 {
        return;
    }
    m.inc("gangs_packed", gangs.len() as u64);
    m.observe_all("gang_width", gangs.map(f64::from));
}

/// Derives metric updates from one event. Keeping this a pure function of
/// the stream means a trace and its run's metrics can never disagree.
fn update_metrics(m: &mut MetricsRegistry, event: &TraceEvent) {
    match event {
        TraceEvent::ServerUp { .. } => m.inc("server_up_events", 1),
        TraceEvent::ServerDown { evicted, .. } => {
            m.inc("server_failures", 1);
            m.inc("jobs_evicted", u64::from(*evicted));
        }
        TraceEvent::JobArrive { .. } => m.inc("jobs_arrived", 1),
        TraceEvent::JobFinish { .. } => m.inc("jobs_finished", 1),
        TraceEvent::Placement { .. } => m.inc("placements", 1),
        TraceEvent::Migration { outage_secs, .. } => {
            m.inc("migrations", 1);
            m.observe("migration_outage_secs", *outage_secs);
        }
        TraceEvent::MigrationFailed { .. } => m.inc("migration_failures", 1),
        TraceEvent::PartitionStart { .. } => m.inc("partitions", 1),
        TraceEvent::PartitionEnd { .. } => m.inc("partition_heals", 1),
        TraceEvent::Reconcile { drift, .. } => {
            m.inc("reconciles", 1);
            m.inc("reconcile_drift", u64::from(*drift));
        }
        TraceEvent::GangPacked { gang, .. } => count_grants(m, std::iter::once(*gang)),
        TraceEvent::RoundPlanned {
            scheduled,
            gpus_used,
            gpus_up,
            pending,
            ..
        } => {
            m.inc("rounds", 1);
            m.set_gauge("queue_depth", f64::from(*pending));
            m.observe("round_jobs_scheduled", f64::from(*scheduled));
            m.observe("round_gpus_used", f64::from(*gpus_used));
            if *gpus_up > 0 {
                m.observe(
                    "round_utilization",
                    f64::from(*gpus_used) / f64::from(*gpus_up),
                );
            }
        }
        TraceEvent::Decision { decision, .. } => {
            m.inc("decisions", 1);
            // Per-site counters keyed on the stable decision vocabulary.
            let per_site = match decision.as_str() {
                "placement" => "decisions_placement",
                "retry" => "decisions_retry",
                "migration" => "decisions_migration",
                "trade" => "decisions_trade",
                "eviction" => "decisions_eviction",
                _ => "decisions_other",
            };
            m.inc(per_site, 1);
        }
        TraceEvent::TradeExecuted {
            fast_gpus, price, ..
        } => {
            m.inc("trades", 1);
            m.add_gauge("trade_gpu_volume", *fast_gpus);
            m.observe("trade_price", *price);
        }
        TraceEvent::ProfileInferred { rate, .. } => {
            m.inc("profiles_inferred", 1);
            m.observe("profiled_rate", *rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_types::{GenId, JobId, ServerId, SimTime, UserId};

    fn sample_run(obs: &Obs) {
        obs.emit(TraceEvent::ServerUp {
            t: SimTime::ZERO,
            server: ServerId::new(0),
            gen: GenId::new(0),
            gpus: 2,
        });
        obs.emit(TraceEvent::JobArrive {
            t: SimTime::ZERO,
            job: JobId::new(1),
            user: UserId::new(0),
            gang: 2,
            service_secs: 60.0,
        });
        obs.emit(TraceEvent::Placement {
            t: SimTime::ZERO,
            job: JobId::new(1),
            server: ServerId::new(0),
            gang: 2,
        });
        obs.emit(TraceEvent::GangPacked {
            t: SimTime::ZERO,
            round: 1,
            server: ServerId::new(0),
            job: JobId::new(1),
            user: UserId::new(0),
            width: 2,
            gang: 2,
        });
        obs.emit(TraceEvent::RoundPlanned {
            t: SimTime::ZERO,
            round: 1,
            scheduled: 1,
            gpus_used: 2,
            gpus_up: 2,
            pending: 0,
            tickets_total: 2.0,
            users: vec![],
            user_gpus: vec![],
        });
    }

    #[test]
    fn emit_feeds_metrics_auditor_and_sinks() {
        let obs = Obs::new();
        let ring = obs.ring(16);
        sample_run(&obs);
        assert_eq!(ring.len(), 5);
        let s = obs.summary();
        assert_eq!(s.events, 5);
        assert_eq!(s.counters["rounds"], 1);
        assert_eq!(s.counters["gangs_packed"], 1);
        assert_eq!(s.violations, 0);
        assert!(obs.take_fatal().is_none());
    }

    #[test]
    fn fatal_violation_is_surfaced_once() {
        let obs = Obs::new();
        sample_run(&obs);
        obs.emit(TraceEvent::RoundPlanned {
            t: SimTime::ZERO,
            round: 2,
            scheduled: 1,
            gpus_used: 2,
            gpus_up: 2,
            pending: 0,
            tickets_total: 2.0,
            users: vec![UserShare {
                user: UserId::new(0),
                tickets: 3.0, // one GPU minted
            }],
            user_gpus: vec![],
        });
        let v = obs.take_fatal().expect("violation");
        assert!(matches!(v.kind, ViolationKind::TicketConservation { .. }));
        assert!(obs.take_fatal().is_none());
        assert_eq!(obs.summary().violations, 1);
    }

    #[test]
    fn time_records_phase_spans_without_deadlock() {
        let obs = Obs::new();
        let out = obs.time(Phase::RoundPlanning, || {
            // Emitting inside a timed span must not deadlock.
            sample_run(&obs);
            42
        });
        assert_eq!(out, 42);
        let stats = obs.phase_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].phase, Phase::RoundPlanning);
        assert_eq!(stats[0].count, 1);
    }

    #[test]
    fn direct_counters_land_in_summary() {
        let obs = Obs::new();
        obs.inc("stale_migrations", 3);
        assert_eq!(obs.counter("stale_migrations"), 3);
        assert_eq!(obs.summary().counters["stale_migrations"], 3);
    }

    #[test]
    fn summary_is_deterministic_for_same_events() {
        let run = || {
            let obs = Obs::new();
            sample_run(&obs);
            obs.summary()
        };
        assert_eq!(run(), run());
    }
}
