//! Golden-trace schema stability: the checked-in fixture freezes the JSONL
//! wire format.
//!
//! `golden_trace.jsonl` holds one representative line per [`TraceEvent`]
//! kind. The tests parse every fixture line and re-serialize it, asserting
//! byte identity both ways. Renaming or dropping a field, changing the
//! field order, or changing a number format breaks one of these tests with
//! an error naming the kind and field — that is the point: the fixture is a
//! contract with every external consumer of `gfair simulate --trace` output
//! (first among them `gfair-trace`), so schema changes must be deliberate.
//!
//! To regenerate after an *intentional* schema change, run:
//! `GOLDEN_REGEN=1 cargo test -p gfair-obs --test golden_trace`
//! and commit the diff.

use gfair_obs::{Candidate, Rejection, TraceEvent, UserGrant, UserShare};
use gfair_types::{GenId, JobId, MigrationFailReason, ServerId, SimTime, UserId};

const FIXTURE: &str = include_str!("golden_trace.jsonl");
const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace.jsonl");

/// One representative event per kind, in [`TraceEvent::KINDS`] order.
/// Values exercise the interesting format cases: fractional and
/// integer-valued floats, escapes-free strings, empty and populated arrays,
/// `null`able ids.
fn golden_events() -> Vec<TraceEvent> {
    let t = SimTime::from_secs(3600);
    vec![
        TraceEvent::ServerUp {
            t,
            server: ServerId::new(3),
            gen: GenId::new(1),
            gpus: 8,
        },
        TraceEvent::ServerDown {
            t,
            server: ServerId::new(3),
            evicted: 2,
        },
        TraceEvent::JobArrive {
            t,
            job: JobId::new(17),
            user: UserId::new(4),
            gang: 2,
            service_secs: 5400.25,
        },
        TraceEvent::JobFinish {
            t,
            job: JobId::new(17),
            user: UserId::new(4),
        },
        TraceEvent::Placement {
            t,
            job: JobId::new(17),
            server: ServerId::new(3),
            gang: 2,
        },
        TraceEvent::Migration {
            t,
            job: JobId::new(17),
            from: ServerId::new(3),
            to: ServerId::new(9),
            outage_secs: 30.5,
        },
        TraceEvent::MigrationFailed {
            t,
            job: JobId::new(17),
            from: ServerId::new(3),
            to: ServerId::new(9),
            reason: MigrationFailReason::Restore,
            attempt: 2,
        },
        TraceEvent::PartitionStart {
            t,
            server: ServerId::new(5),
        },
        TraceEvent::PartitionEnd {
            t,
            server: ServerId::new(5),
        },
        TraceEvent::Reconcile {
            t,
            server: ServerId::new(5),
            users_resynced: 4,
            jobs_revalidated: 11,
            drift: 1,
        },
        TraceEvent::GangPacked {
            t,
            round: 120,
            server: ServerId::new(3),
            job: JobId::new(17),
            user: UserId::new(4),
            width: 2,
            gang: 2,
        },
        TraceEvent::RoundPlanned {
            t,
            round: 120,
            scheduled: 40,
            gpus_used: 96,
            gpus_up: 100,
            pending: 3,
            tickets_total: 100.0,
            users: vec![
                UserShare {
                    user: UserId::new(0),
                    tickets: 50.0,
                },
                UserShare {
                    user: UserId::new(4),
                    tickets: 50.0,
                },
            ],
            user_gpus: vec![
                UserGrant {
                    user: UserId::new(0),
                    gpus: 48,
                },
                UserGrant {
                    user: UserId::new(4),
                    gpus: 48,
                },
            ],
        },
        TraceEvent::Decision {
            t,
            decision: "placement".to_string(),
            job: Some(JobId::new(17)),
            user: Some(UserId::new(4)),
            chosen: "server:3".to_string(),
            tie_break: "least projected load, then lowest server id".to_string(),
            considered: 12,
            candidates: vec![
                Candidate {
                    label: "server:3".to_string(),
                    score: 0.25,
                },
                Candidate {
                    label: "server:9".to_string(),
                    score: 0.5,
                },
            ],
            rejected: vec![Rejection {
                reason: "gang_too_wide_for_server".into(),
                count: 4,
            }],
        },
        TraceEvent::TradeExecuted {
            t,
            seller: UserId::new(0),
            buyer: UserId::new(4),
            gen: GenId::new(2),
            fast_gpus: 2.0,
            base_gpus: 5.0,
            price: 2.5,
        },
        TraceEvent::ProfileInferred {
            t,
            model: "resnet50".to_string(),
            gen: GenId::new(2),
            rate: 1.8125,
            samples: 32,
        },
    ]
}

/// Optionally rewrites the fixture, then returns it. Regeneration is
/// explicit (`GOLDEN_REGEN=1`) so an accidental schema change cannot
/// silently re-freeze itself.
fn fixture() -> String {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let mut out = String::new();
        for e in golden_events() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        std::fs::write(FIXTURE_PATH, &out).expect("rewrite golden fixture");
        out
    } else {
        FIXTURE.to_string()
    }
}

#[test]
fn fixture_covers_every_event_kind_in_order() {
    let kinds: Vec<&str> = fixture()
        .lines()
        .map(|l| {
            TraceEvent::from_json_line(l)
                .expect("fixture line parses")
                .kind()
        })
        .collect();
    assert_eq!(
        kinds,
        TraceEvent::KINDS,
        "fixture must hold exactly one line per kind, in KINDS order"
    );
}

#[test]
fn serializing_golden_events_reproduces_the_fixture_bytes() {
    let expected = fixture();
    let mut got = String::new();
    for e in golden_events() {
        got.push_str(&e.to_json_line());
        got.push('\n');
    }
    assert_eq!(
        got, expected,
        "serialized events diverge from the checked-in fixture; if the \
         schema change is intentional, regenerate with GOLDEN_REGEN=1 and \
         note it in DESIGN.md"
    );
}

#[test]
fn fixture_round_trips_through_parse_and_reserialize() {
    for line in fixture().lines() {
        let event = TraceEvent::from_json_line(line)
            .unwrap_or_else(|e| panic!("fixture line no longer parses: {e}\n  line: {line}"));
        assert_eq!(
            event.to_json_line(),
            line,
            "parse→serialize must reproduce the exact fixture line"
        );
    }
}

#[test]
fn dropping_a_field_fails_with_an_error_naming_kind_and_field() {
    // Simulate a consumer reading a trace written by a future gfair that
    // renamed `gang` — the parse error must say what is missing and where.
    let line = r#"{"kind":"placement","t_us":1,"job":1,"server":0,"gangs":2}"#;
    let err = TraceEvent::from_json_line(line).expect_err("missing field must fail");
    assert!(
        err.contains("placement") && err.contains("gang"),
        "error should name the kind and the missing field, got: {err}"
    );
}

#[test]
fn every_strict_prefix_of_a_line_is_an_error() {
    // A trace cut short mid-line (a full disk, a killed run) must fail to
    // parse, never panic or yield an event.
    for line in fixture().lines() {
        for len in (0..line.len()).filter(|&n| line.is_char_boundary(n)) {
            let prefix = &line[..len];
            assert!(TraceEvent::from_json_line(prefix).is_err(), "{prefix}");
        }
    }
}

#[test]
fn keys_in_any_order_read_the_same_event() {
    let line = r#"{"gang":2,"server":0,"job":1,"t_us":5,"kind":"placement"}"#;
    let event = TraceEvent::from_json_line(line).expect("reordered line parses");
    assert_eq!(
        event.to_json_line(),
        r#"{"kind":"placement","t_us":5,"job":1,"server":0,"gang":2}"#
    );
}
