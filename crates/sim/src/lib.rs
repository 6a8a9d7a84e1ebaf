//! Deterministic discrete-event simulator for heterogeneous GPU clusters.
//!
//! The Gandiva_fair paper evaluates on a physical 200-GPU cluster running
//! real deep-learning training jobs; this crate is the substitute substrate:
//! it simulates servers of mixed GPU generations, *gang-scheduled* jobs that
//! are time-sliced with a fixed quantum (the paper's minute-granularity
//! suspend/resume), checkpoint/restore migration between servers, and
//! transparent job profiling with observation noise.
//!
//! Schedulers plug in through the [`ClusterScheduler`] trait and are driven
//! by the engine: they receive job arrival/finish callbacks and, once per
//! quantum, produce a [`RoundPlan`] saying which resident jobs run on each
//! server. The engine validates every decision (gang fit, residency, GPU
//! overcommit) and returns hard errors for invalid plans so scheduler bugs
//! fail tests instead of silently corrupting results.
//!
//! ## Information hiding
//!
//! The simulator knows each job's true per-generation training rate (its
//! [`gfair_types::ModelProfile`]); schedulers do **not**. They see only
//! [`JobInfo`] (gang size, user, model name, migration cost) and learn rates
//! through [`ProfileReport`]s — noisy observations emitted after a job has
//! accumulated enough runtime on a generation, exactly as the paper's
//! profiler measures jobs transparently in production.
//!
//! ## Determinism
//!
//! Time is integer microseconds; events at equal times are ordered by a
//! fixed kind priority then sequence number; all randomness flows from the
//! seed in [`gfair_types::SimConfig`]. Two runs with the same inputs produce
//! byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
mod index;
pub mod job;
pub mod jobset;
pub mod report;
pub mod sched;
pub mod view;

pub use engine::{latest_event_time, Simulation};
pub use job::{JobInfo, JobRecord};
pub use jobset::JobSet;
pub use report::{SimReport, WindowSample};
pub use sched::{Action, ClusterScheduler, ProfileReport, RoundPlan};
pub use view::SimView;
