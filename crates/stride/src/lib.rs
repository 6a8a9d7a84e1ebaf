//! Proportional-share scheduling primitives for `gfair`.
//!
//! This crate implements the algorithmic heart of the Gandiva_fair
//! reproduction:
//!
//! * [`lottery`] — randomized lottery scheduling, the probabilistic cousin of
//!   stride, used as a fairness-variance baseline.
//! * [`gang`] — **gang-aware stride scheduling**, the paper's core local
//!   scheduler: gangs (multi-GPU jobs) are packed onto a server's GPUs in
//!   pass order each quantum, and a client's pass advances in proportion to
//!   the *GPU-time* it consumed (gang width × quantum / tickets), yielding
//!   ticket-proportional GPU-time across gangs of different widths. With
//!   width-1 clients on a 1-GPU server it is textbook stride scheduling
//!   (Waldspurger & Weihl), ticket modulation included. Two deliberately
//!   naive variants ([`gang::GangPolicy::JobLevelStride`] and
//!   [`gang::GangPolicy::StrictNoBackfill`]) reproduce the failure modes the
//!   paper motivates against.
//! * [`split`] — split (hierarchical) stride: user-level fairness first, then
//!   job-level within each user, so a user cannot inflate their share by
//!   submitting more jobs.
//!
//! The schedulers are generic over the client key so they can arbitrate jobs,
//! users, or anything `Copy + Ord`.

pub mod gang;
pub mod lottery;
pub mod split;

pub use gang::{GangPolicy, GangScheduler, RoundOutcome};
pub use lottery::LotteryScheduler;
pub use split::SplitStride;

/// The canonical stride constant: strides are `STRIDE1 / tickets`.
///
/// Chosen large enough that per-quantum pass increments retain precision for
/// realistic ticket counts while staying well inside `f64`'s exact-integer
/// range for simulation-length runs.
pub const STRIDE1: f64 = (1u64 << 20) as f64;
