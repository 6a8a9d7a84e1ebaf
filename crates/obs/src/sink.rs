//! Trace sinks: where emitted events go.
//!
//! A [`Tracer`] receives every [`TraceEvent`] in emission order. A round's
//! gang grants arrive as one batch through [`Tracer::record_packed`], whose
//! default hands each grant to [`Tracer::record`] as its own `GangPacked`
//! event, so a sink that does not override it sees exactly the per-event
//! stream. Two sinks ship with the crate: [`JsonlSink`] appends one JSON
//! line per event to a file (the `gfair simulate --trace` backend), and
//! [`RingSink`] keeps the last N events in memory for tests.

use crate::event::{PackedGang, TraceEvent};
use gfair_types::SimTime;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Consumes trace events in emission order.
pub trait Tracer: Send {
    /// Receives one event. Sinks must not reorder or drop events silently
    /// (bounded sinks like the ring buffer document their retention).
    fn record(&mut self, event: &TraceEvent);

    /// Receives one round's gang grants, in grant order. The default
    /// records each as its [`TraceEvent::GangPacked`] event; a sink that
    /// drops grants overrides it to skip building those events.
    fn record_packed(&mut self, t: SimTime, round: u64, grants: &[PackedGang]) {
        for g in grants {
            self.record(&g.event(t, round));
        }
    }

    /// Flushes any buffered output. Called at end of run.
    fn flush(&mut self) {}
}

/// Appends events to a file as JSON Lines.
///
/// By default the per-gang `GangPacked` firehose is filtered out: it is
/// O(running jobs) per round (roughly three quarters of all events and
/// bytes at cluster scale), and everything downstream — the fairness
/// ledger, `gfair-trace why`/`fairness`/`diff` — works from the per-round
/// `RoundPlanned` aggregates instead. The in-process pipeline (auditor,
/// metrics, ledger) always sees every event regardless of sink filtering.
/// Use [`JsonlSink::full_fidelity`] to write the per-gang stream too. The
/// default sink returns from [`Tracer::record_packed`] at once, so the
/// grants it filters out are never built as events.
///
/// Each line is built in a reused buffer and pushed through a 4 MiB
/// [`BufWriter`], so the steady-state cost per event is one serialization
/// and a buffered copy — no allocation.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    line: String,
    gang_packed: bool,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`, with the default
    /// event filter (no `GangPacked`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::with_capacity(4 << 20, File::create(path)?),
            line: String::with_capacity(256),
            gang_packed: false,
        })
    }

    /// Creates (truncating) the trace file at `path`, writing every event
    /// including the per-gang `GangPacked` stream.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn full_fidelity(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut sink = JsonlSink::create(path)?;
        sink.gang_packed = true;
        Ok(sink)
    }
}

impl Tracer for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        if !self.gang_packed && matches!(event, TraceEvent::GangPacked { .. }) {
            return;
        }
        self.line.clear();
        event.write_json_line(&mut self.line);
        self.line.push('\n');
        // A full disk mid-run surfaces at flush; per-event error plumbing
        // would force Result through every scheduler hot path.
        let _ = self.out.write_all(self.line.as_bytes());
    }

    fn record_packed(&mut self, t: SimTime, round: u64, grants: &[PackedGang]) {
        if self.gang_packed {
            for g in grants {
                self.record(&g.event(t, round));
            }
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Shared handle to the events retained by a [`RingSink`].
#[derive(Debug, Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
}

impl RingHandle {
    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring lock").len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug)]
pub struct RingSink {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
}

impl RingSink {
    /// Creates a ring retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
        }
    }

    /// A handle for reading retained events after the sink is installed.
    pub fn handle(&self) -> RingHandle {
        RingHandle {
            buf: Arc::clone(&self.buf),
        }
    }
}

impl Tracer for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_types::{JobId, SimTime, UserId};

    fn finish(n: u32) -> TraceEvent {
        TraceEvent::JobFinish {
            t: SimTime::from_secs(n as u64),
            job: JobId::new(n),
            user: UserId::new(0),
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut sink = RingSink::new(3);
        let handle = sink.handle();
        for n in 0..5 {
            sink.record(&finish(n));
        }
        let kept = handle.events();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0], finish(2));
        assert_eq!(kept[2], finish(4));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("gfair-obs-sink-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(&finish(1));
            sink.record(&finish(2));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"job_finish\""));
        assert!(lines[1].contains("\"job\":2"));
    }
}
