//! Query engine behind the `gfair-trace` binary.
//!
//! Simulation runs stream [`TraceEvent`]s as JSONL (one event per line,
//! schema frozen by the golden-trace test in `gfair-obs`). This crate turns
//! those files back into answers:
//!
//! * [`why_job`] — reconstructs one job's life: arrival, every scheduler
//!   decision that touched it (with the candidate set, scores, and
//!   tie-break rule), placements, migrations, failures, finish.
//! * [`fairness_report`] — replays the trace through the
//!   [`FairnessLedger`] and renders deserved vs. received shares, Jain's
//!   index, Gini, and finish-time-fairness ρ — optionally with an ASCII
//!   Jain-over-time plot.
//! * [`diff_traces`] — compares two traces: per-kind event counts, the
//!   first divergent line, and final fairness posture side by side.
//!
//! Everything here works on in-memory event slices so it is directly
//! testable; [`load_events`] is the only filesystem touchpoint.

#![forbid(unsafe_code)]

use gfair_obs::{FairnessLedger, LedgerSummary, TraceEvent};
use gfair_types::{JobId, UserId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Parses a JSONL trace from text, reporting the 1-based line number of the
/// first malformed line.
pub fn parse_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event =
            TraceEvent::from_json_line(line).map_err(|e| format!("line {}: {}", i + 1, e))?;
        events.push(event);
    }
    Ok(events)
}

/// Loads a JSONL trace file, prefixing parse errors with the path.
pub fn load_events(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?;
    parse_events(&text).map_err(|e| format!("{}: {}", path.display(), e))
}

/// Renders a simulated-time prefix like `[   123.400s]`.
fn stamp(t: gfair_types::SimTime) -> String {
    format!("[{:>12.3}s]", t.as_micros() as f64 / 1e6)
}

/// The job an event concerns, if any. Decision events may concern a job
/// without being "about" it structurally, so they carry their own option.
fn event_job(event: &TraceEvent) -> Option<JobId> {
    match event {
        TraceEvent::JobArrive { job, .. }
        | TraceEvent::JobFinish { job, .. }
        | TraceEvent::Placement { job, .. }
        | TraceEvent::Migration { job, .. }
        | TraceEvent::MigrationFailed { job, .. } => Some(*job),
        TraceEvent::Decision { job, .. } => *job,
        _ => None,
    }
}

/// Reconstructs one job's story from a trace: every event that names the
/// job, chronologically, with decision provenance expanded (candidate set,
/// scores, tie-break rule, rejected alternatives).
///
/// Returns human-readable lines; empty means the job never appears.
pub fn why_job(events: &[TraceEvent], job: JobId) -> Vec<String> {
    let mut out = Vec::new();
    for event in events {
        if event_job(event) != Some(job) {
            continue;
        }
        match event {
            TraceEvent::JobArrive {
                t,
                user,
                gang,
                service_secs,
                ..
            } => out.push(format!(
                "{} arrive   user:{} gang:{} service:{:.1}s",
                stamp(*t),
                user.index(),
                gang,
                service_secs
            )),
            TraceEvent::JobFinish { t, user, .. } => {
                out.push(format!("{} finish   user:{}", stamp(*t), user.index()));
            }
            TraceEvent::Placement {
                t, server, gang, ..
            } => out.push(format!(
                "{} resident server:{} gang:{}",
                stamp(*t),
                server.index(),
                gang
            )),
            TraceEvent::Migration {
                t,
                from,
                to,
                outage_secs,
                ..
            } => out.push(format!(
                "{} migrate  server:{} -> server:{} (outage {:.1}s)",
                stamp(*t),
                from.index(),
                to.index(),
                outage_secs
            )),
            TraceEvent::MigrationFailed {
                t,
                from,
                to,
                reason,
                attempt,
                ..
            } => out.push(format!(
                "{} failed   server:{} -> server:{} ({}, attempt {})",
                stamp(*t),
                from.index(),
                to.index(),
                reason.as_str(),
                attempt
            )),
            TraceEvent::Decision {
                t,
                decision,
                chosen,
                tie_break,
                considered,
                candidates,
                rejected,
                ..
            } => {
                out.push(format!(
                    "{} decide   {} -> {} ({} considered, tie-break: {})",
                    stamp(*t),
                    decision,
                    chosen,
                    considered,
                    tie_break
                ));
                for c in candidates {
                    out.push(format!(
                        "{:15}   candidate {} score {:.4}",
                        "", c.label, c.score
                    ));
                }
                for r in rejected {
                    out.push(format!("{:15}   rejected {}x: {}", "", r.count, r.reason));
                }
            }
            _ => {}
        }
    }
    out
}

/// Replays a trace through the fairness ledger, returning the final
/// [`LedgerSummary`] plus a Jain-over-time series sampled at every
/// round boundary (one point per `RoundPlanned` record).
pub fn replay_ledger(events: &[TraceEvent]) -> (LedgerSummary, Vec<f64>) {
    let mut ledger = FairnessLedger::new();
    let mut jain_series = Vec::new();
    for event in events {
        ledger.ingest(event);
        if matches!(event, TraceEvent::RoundPlanned { .. }) {
            jain_series.push(ledger.summary().jain);
        }
    }
    (ledger.summary(), jain_series)
}

/// Renders `series` as a `width` x `height` ASCII plot with a y-axis label
/// per row; long series are downsampled by bucket means.
pub fn ascii_plot(series: &[f64], width: usize, height: usize) -> String {
    if series.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    // Downsample to at most `width` points: mean of each bucket.
    let cols: Vec<f64> = if series.len() <= width {
        series.to_vec()
    } else {
        (0..width)
            .map(|c| {
                let lo = c * series.len() / width;
                let hi = (((c + 1) * series.len()) / width).max(lo + 1);
                series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let min = cols.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = cols.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if max > min { max - min } else { 1.0 };
    let mut out = String::new();
    for row in 0..height {
        // Top row = max value.
        let level = height - 1 - row;
        let y = min + span * level as f64 / (height - 1).max(1) as f64;
        let _ = write!(out, "{:6.3} |", y);
        for &v in &cols {
            let cell = ((v - min) / span * (height - 1) as f64).round() as usize;
            out.push(if cell >= level { '#' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = writeln!(out, "       +{}", "-".repeat(cols.len()));
    out
}

/// Renders a fairness report for a trace: per-user deserved vs. received
/// GPU-rounds, Jain, Gini, and ρ stats. `user` restricts the per-user table
/// to one user; `plot` appends the ASCII Jain-over-time plot.
pub fn fairness_report(events: &[TraceEvent], user: Option<UserId>, plot: bool) -> String {
    let (summary, jain_series) = replay_ledger(events);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rounds {}  jain {:.4}  gini {:.4}",
        summary.rounds, summary.jain, summary.gini
    );
    let _ = writeln!(
        out,
        "finish-time fairness rho: n={} mean {:.3} p50 {:.3} p99 {:.3} max {:.3}",
        summary.rho.count, summary.rho.mean, summary.rho.p50, summary.rho.p99, summary.rho.max
    );
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>8} {:>9} {:>9} {:>9}",
        "user", "deserved", "received", "ratio", "finished", "rho_mean", "rho_max"
    );
    for row in &summary.users {
        if let Some(u) = user {
            if row.user != u.raw() {
                continue;
            }
        }
        let ratio = if row.deserved > 0.0 {
            row.received / row.deserved
        } else {
            f64::NAN
        };
        let _ = writeln!(
            out,
            "{:>6} {:>14.1} {:>14.1} {:>8.3} {:>9} {:>9.3} {:>9.3}",
            row.user, row.deserved, row.received, ratio, row.finished, row.rho_mean, row.rho_max
        );
    }
    if plot && !jain_series.is_empty() {
        let _ = writeln!(out, "jain index over rounds:");
        out.push_str(&ascii_plot(&jain_series, 64, 10));
    }
    out
}

/// Per-kind event counts, in [`TraceEvent::KINDS`] order (zero-count kinds
/// included so diffs line up).
pub fn kind_counts(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for kind in TraceEvent::KINDS {
        counts.insert(kind, 0);
    }
    for event in events {
        *counts.entry(event.kind()).or_insert(0) += 1;
    }
    counts
}

/// Compares two traces: per-kind count deltas, the first line where the
/// serialized events diverge, and the final fairness posture side by side.
pub fn diff_traces(a: &[TraceEvent], b: &[TraceEvent]) -> String {
    let mut out = String::new();
    let (ca, cb) = (kind_counts(a), kind_counts(b));
    let _ = writeln!(out, "{:>16} {:>10} {:>10} {:>8}", "kind", "a", "b", "delta");
    for kind in TraceEvent::KINDS {
        let (na, nb) = (ca[kind], cb[kind]);
        if na == 0 && nb == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>16} {:>10} {:>10} {:>+8}",
            kind,
            na,
            nb,
            nb as i64 - na as i64
        );
    }
    let divergence =
        a.iter()
            .zip(b.iter())
            .position(|(ea, eb)| ea != eb)
            .or(if a.len() != b.len() {
                Some(a.len().min(b.len()))
            } else {
                None
            });
    match divergence {
        None => {
            let _ = writeln!(out, "traces are identical ({} events)", a.len());
        }
        Some(i) => {
            let _ = writeln!(out, "first divergence at event {} (0-based):", i);
            let _ = writeln!(
                out,
                "  a: {}",
                a.get(i)
                    .map(TraceEvent::to_json_line)
                    .unwrap_or_else(|| "<end of trace>".into())
            );
            let _ = writeln!(
                out,
                "  b: {}",
                b.get(i)
                    .map(TraceEvent::to_json_line)
                    .unwrap_or_else(|| "<end of trace>".into())
            );
        }
    }
    let (sa, _) = replay_ledger(a);
    let (sb, _) = replay_ledger(b);
    let _ = writeln!(
        out,
        "fairness: a jain {:.4} gini {:.4} | b jain {:.4} gini {:.4}",
        sa.jain, sa.gini, sb.jain, sb.gini
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_obs::{Candidate, Rejection};
    use gfair_types::{ServerId, SimTime};

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobArrive {
                t: SimTime::from_secs(1),
                job: JobId::new(7),
                user: UserId::new(3),
                gang: 2,
                service_secs: 100.0,
            },
            TraceEvent::Decision {
                t: SimTime::from_secs(1),
                decision: "placement".to_string(),
                job: Some(JobId::new(7)),
                user: Some(UserId::new(3)),
                chosen: "server:5 (work-conserving fallback)".to_string(),
                tie_break: "least projected load, then lowest server id".to_string(),
                considered: 4,
                candidates: vec![Candidate {
                    label: "server:5".to_string(),
                    score: 0.25,
                }],
                rejected: vec![Rejection {
                    reason: "gang_too_wide_for_server".into(),
                    count: 2,
                }],
            },
            TraceEvent::Placement {
                t: SimTime::from_secs(2),
                job: JobId::new(7),
                server: ServerId::new(5),
                gang: 2,
            },
            TraceEvent::JobFinish {
                t: SimTime::from_secs(301),
                job: JobId::new(7),
                user: UserId::new(3),
            },
        ]
    }

    #[test]
    fn why_job_reconstructs_the_story_in_order() {
        let lines = why_job(&sample_trace(), JobId::new(7));
        assert_eq!(
            lines.len(),
            6,
            "arrive, decide + 2 detail rows, place, finish"
        );
        assert!(lines[0].contains("arrive"));
        assert!(lines[1].contains("placement -> server:5"));
        assert!(lines[1].contains("tie-break: least projected load"));
        assert!(lines[2].contains("candidate server:5 score 0.2500"));
        assert!(lines[3].contains("rejected 2x: gang_too_wide_for_server"));
        assert!(lines[4].contains("resident server:5"));
        assert!(lines[5].contains("finish"));
    }

    #[test]
    fn why_job_of_unknown_job_is_empty() {
        assert!(why_job(&sample_trace(), JobId::new(999)).is_empty());
    }

    #[test]
    fn parse_events_reports_the_failing_line() {
        let text = "{\"kind\":\"job_finish\",\"t_us\":1,\"job\":1,\"user\":0}\nnot json\n";
        let err = parse_events(text).unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn parse_events_skips_blank_lines() {
        let text = "\n{\"kind\":\"job_finish\",\"t_us\":1,\"job\":1,\"user\":0}\n\n";
        assert_eq!(parse_events(text).unwrap().len(), 1);
    }

    #[test]
    fn fairness_report_names_every_metric() {
        let report = fairness_report(&sample_trace(), None, false);
        assert!(report.contains("jain"));
        assert!(report.contains("gini"));
        assert!(report.contains("rho"));
    }

    #[test]
    fn fairness_report_filters_to_one_user() {
        let mut events = sample_trace();
        events.push(TraceEvent::JobArrive {
            t: SimTime::from_secs(1),
            job: JobId::new(8),
            user: UserId::new(9),
            gang: 1,
            service_secs: 10.0,
        });
        events.push(TraceEvent::JobFinish {
            t: SimTime::from_secs(2),
            job: JobId::new(8),
            user: UserId::new(9),
        });
        let all = fairness_report(&events, None, false);
        let one = fairness_report(&events, Some(UserId::new(3)), false);
        assert!(all.lines().count() > one.lines().count());
        assert!(one.contains("\n     3 "));
        assert!(!one.contains("\n     9 "));
    }

    #[test]
    fn diff_identical_traces_reports_identical() {
        let t = sample_trace();
        let out = diff_traces(&t, &t);
        assert!(out.contains("traces are identical"), "got: {out}");
    }

    #[test]
    fn diff_divergent_traces_pins_the_first_difference() {
        let a = sample_trace();
        let mut b = sample_trace();
        b[2] = TraceEvent::Placement {
            t: SimTime::from_secs(2),
            job: JobId::new(7),
            server: ServerId::new(6),
            gang: 2,
        };
        let out = diff_traces(&a, &b);
        assert!(out.contains("first divergence at event 2"), "got: {out}");
        assert!(out.contains("\"server\":5"));
        assert!(out.contains("\"server\":6"));
    }

    #[test]
    fn diff_length_mismatch_diverges_at_the_shorter_end() {
        let a = sample_trace();
        let b = &a[..3];
        let out = diff_traces(&a, b);
        assert!(out.contains("first divergence at event 3"), "got: {out}");
        assert!(out.contains("<end of trace>"));
    }

    #[test]
    fn ascii_plot_is_bounded_and_monotone_axis() {
        let series: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let plot = ascii_plot(&series, 40, 8);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 9, "8 rows + axis");
        for line in &lines[..8] {
            assert!(line.len() <= 40 + 8);
        }
        // Rising series: the top row's marks sit to the right of the
        // bottom row's first mark.
        let top = lines[0].find('#').unwrap();
        let bottom = lines[7].find('#').unwrap();
        assert!(top > bottom);
    }

    #[test]
    fn kind_counts_cover_every_kind() {
        let counts = kind_counts(&sample_trace());
        assert_eq!(counts.len(), TraceEvent::KINDS.len());
        assert_eq!(counts["job_arrive"], 1);
        assert_eq!(counts["decision"], 1);
        assert_eq!(counts["server_up"], 0);
    }
}
