//! A round's gang grants emitted in batches ([`Obs::emit_packed`]) must
//! be indistinguishable from emitting each grant's `GangPacked` event on
//! its own: same summary (events, counters, histograms, ledger), same ring
//! contents, same full-fidelity and lean JSONL bytes, and the same auditor
//! violations. Violation context is checked against lines rendered straight
//! from the input stream, not read back from the pipeline.

use gfair_obs::{
    JsonlSink, Obs, PackedGang, RingHandle, TraceEvent, UserGrant, UserShare, ViolationKind,
};
use gfair_types::{GenId, JobId, ServerId, SimTime, UserId};

const SERVERS: u32 = 40;
const GPUS: u32 = 8;
/// Gang sizes of the jobs resident on each server; they fill it exactly.
const GANGS: [u32; 7] = [1, 1, 1, 1, 1, 1, 2];
const USERS: u32 = 3;
const ROUNDS: u64 = 20;
/// The round whose summary breaks ticket conservation. Each of its grants
/// follows a profile report, so it holds more non-grant events than a
/// violation's context keeps.
const TICKET_ROUND: u64 = 9;
/// How many of a round's events a violation carries.
const CONTEXT_CAP: usize = 256;

/// A synthetic run, plus the index of the event that must fail.
struct Stream {
    events: Vec<TraceEvent>,
    ticket_at: usize,
}

fn stream() -> Stream {
    let t0 = SimTime::ZERO;
    let mut events = Vec::new();
    let mut jobs = Vec::new();
    for s in 0..SERVERS {
        let server = ServerId::new(s);
        events.push(TraceEvent::ServerUp {
            t: t0,
            server,
            gen: GenId::new(s % 3),
            gpus: GPUS,
        });
        for gang in GANGS {
            let job = JobId::new(jobs.len() as u32);
            let user = UserId::new(job.raw() % USERS);
            events.push(TraceEvent::JobArrive {
                t: t0,
                job,
                user,
                gang,
                service_secs: 3600.5,
            });
            events.push(TraceEvent::Placement {
                t: t0,
                job,
                server,
                gang,
            });
            jobs.push(PackedGang {
                server,
                job,
                user,
                gang,
            });
        }
    }
    let total = f64::from(SERVERS * GPUS);
    let mut ticket_at = 0;
    for round in 1..=ROUNDS {
        let t = SimTime::from_secs(60 * round);
        // Vary the grant set (and so the width sequence) round by round.
        let granted: Vec<PackedGang> = jobs
            .iter()
            .filter(|g| {
                !(u64::from(g.job.raw()) + round).is_multiple_of(4) || round == TICKET_ROUND
            })
            .copied()
            .collect();
        let mut user_gpus = vec![0u32; USERS as usize];
        for g in &granted {
            if round == TICKET_ROUND {
                events.push(TraceEvent::ProfileInferred {
                    t,
                    model: "ResNet-50".into(),
                    gen: GenId::new(1),
                    rate: 1.25,
                    samples: u64::from(g.job.raw()),
                });
            }
            user_gpus[g.user.index()] += g.gang;
            events.push(g.event(t, round));
        }
        let gpus_used: u32 = user_gpus.iter().sum();
        let minted = if round == TICKET_ROUND { 5.0 } else { 0.0 };
        if round == TICKET_ROUND {
            ticket_at = events.len();
        }
        events.push(TraceEvent::RoundPlanned {
            t,
            round,
            scheduled: granted.len() as u32,
            gpus_used,
            gpus_up: SERVERS * GPUS,
            pending: 0,
            tickets_total: total,
            users: (0..USERS)
                .map(|u| UserShare {
                    user: UserId::new(u),
                    tickets: total / f64::from(USERS) + if u == 0 { minted } else { 0.0 },
                })
                .collect(),
            user_gpus: user_gpus
                .iter()
                .enumerate()
                .map(|(u, &gpus)| UserGrant {
                    user: UserId::new(u as u32),
                    gpus,
                })
                .collect(),
        });
    }
    Stream { events, ticket_at }
}

/// An `Obs` with a ring, a lean and a full-fidelity JSONL sink; the two
/// trace paths come back for reading after [`Obs::flush`].
fn pipeline(tag: &str) -> (Obs, RingHandle, [String; 2]) {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let lean = format!("{dir}/grant_batch_{tag}_lean.jsonl");
    let full = format!("{dir}/grant_batch_{tag}_full.jsonl");
    let obs = Obs::new();
    let ring = obs.ring(1 << 16);
    obs.add_sink(Box::new(JsonlSink::create(&lean).expect("lean sink")));
    obs.add_sink(Box::new(
        JsonlSink::full_fidelity(&full).expect("full sink"),
    ));
    (obs, ring, [lean, full])
}

/// Emits `events` with each run of same-round grants in batches of at
/// most `BATCH`, so rounds span several batches, as large rounds do.
fn emit_batched(obs: &Obs, events: &[TraceEvent]) {
    const BATCH: usize = 100;
    let mut batch: Vec<PackedGang> = Vec::new();
    let mut at = (SimTime::ZERO, 0);
    for event in events {
        if let Some((t, round, grant)) = PackedGang::of(event) {
            if (t, round) != at || batch.len() == BATCH {
                obs.emit_packed(at.0, at.1, &batch);
                batch.clear();
                at = (t, round);
            }
            batch.push(grant);
        } else {
            obs.emit_packed(at.0, at.1, &batch);
            batch.clear();
            obs.emit(event.clone());
        }
    }
    obs.emit_packed(at.0, at.1, &batch);
}

/// The context a violation raised by `events[failing]` must carry: the
/// lines of its round's non-grant events up to and including it, at most
/// the last `CONTEXT_CAP`.
fn expected_context(events: &[TraceEvent], failing: usize) -> Vec<String> {
    let start = events[..failing]
        .iter()
        .rposition(|e| matches!(e, TraceEvent::RoundPlanned { .. }))
        .map_or(0, |i| i + 1);
    let lines: Vec<String> = events[start..=failing]
        .iter()
        .filter(|e| !matches!(e, TraceEvent::GangPacked { .. }))
        .map(TraceEvent::to_json_line)
        .collect();
    lines[lines.len().saturating_sub(CONTEXT_CAP)..].to_vec()
}

#[test]
fn batched_grants_match_per_event_emission() {
    let Stream { events, ticket_at } = stream();

    let (single, single_ring, single_paths) = pipeline("single");
    for event in &events {
        single.emit(event.clone());
    }
    single.flush();
    let (batched, batched_ring, batched_paths) = pipeline("batched");
    emit_batched(&batched, &events);
    batched.flush();

    let summary = single.summary();
    assert_eq!(summary, batched.summary());
    assert_eq!(summary.events, events.len() as u64);
    let grants = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GangPacked { .. }))
        .count() as u64;
    assert_eq!(summary.counters["gangs_packed"], grants);
    assert!(grants > 4096, "the gang_width histogram must decimate");

    assert_eq!(single_ring.events(), events);
    assert_eq!(batched_ring.events(), events);
    for (a, b) in single_paths.iter().zip(&batched_paths) {
        let (a, b) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert!(!a.is_empty());
        assert!(a == b, "trace bytes differ");
    }
    let full = std::fs::read_to_string(&single_paths[1]).unwrap();
    let lean = std::fs::read_to_string(&single_paths[0]).unwrap();
    let full_grants = full
        .lines()
        .filter(|l| l.contains("\"gang_packed\""))
        .count();
    assert_eq!(full_grants as u64, grants);
    assert_eq!(lean.lines().count() as u64, events.len() as u64 - grants);

    let violations = batched.violations();
    assert_eq!(violations, single.violations());
    assert_eq!(violations.len(), 1, "{violations:#?}");
    let ticket = &violations[0];
    assert_eq!(ticket.round, TICKET_ROUND);
    assert!(matches!(
        ticket.kind,
        ViolationKind::TicketConservation { .. }
    ));
    assert_eq!(ticket.context.len(), CONTEXT_CAP);
    assert_eq!(ticket.context, expected_context(&events, ticket_at));
    assert!(ticket.context[0].contains("\"profile_inferred\""));
    assert!(ticket.context[CONTEXT_CAP - 1].contains("\"round_planned\""));
}
