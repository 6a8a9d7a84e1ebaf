//! The Gandiva_fair scheduler — the paper's primary contribution.
//!
//! [`GandivaFair`] is a cluster-wide, ticket-based fair-share scheduler for
//! gang-scheduled deep-learning jobs on heterogeneous GPU clusters. It
//! combines four mechanisms, each in its own module:
//!
//! * [`local`] — a per-server **split stride** scheduler (user-level
//!   fairness, then job-level) running gang-aware stride over the server's
//!   GPUs every quantum.
//! * [`profiler`] — transparent **throughput profiling**: noisy rate
//!   observations from the simulator are aggregated per model and
//!   generation, yielding the speedup estimates trading relies on.
//! * [`trade`] — the **resource trading** market: users whose jobs gain
//!   little from fast GPUs sell their fast-GPU entitlement for a larger
//!   slow-GPU entitlement at a price that leaves no participant worse off,
//!   raising cluster efficiency without weakening any fairness guarantee.
//! * [`balance`] — **migration-based load balancing**: jobs move (big jobs
//!   first) from overloaded to underloaded servers, realize trade outcomes
//!   by relocating jobs to the generations their owners are entitled to,
//!   and visit unprofiled generations so the profiler can learn.
//!
//! The generic [`PolicyScheduler`] driver in [`policy`] wires these into
//! the [`gfair_sim::ClusterScheduler`] interface; [`GandivaFair::new`] (in
//! [`central`]) builds it around the paper's allocation rule.
//!
//! ## The policy boundary
//!
//! The machinery above is policy-agnostic: placement, per-server stride
//! planning, balancing and migration retry live behind
//! [`policy::AllocPolicy`] — a per-epoch allocation rule — driven by the
//! generic [`PolicyScheduler`]. [`GandivaFair`] is that driver running the
//! paper's entitlement + trading rule ([`TicketTrading`]);
//! alternative fairness formulations (Gavel-style water-filling,
//! Themis-style finish-time fairness) plug in from the `gfair-policies`
//! crate. See `POLICIES.md` at the repo root for the catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod central;
pub mod config;
pub mod entitlement;
pub mod inputs;
pub mod local;
mod placement;
mod planner;
pub mod policy;
pub mod profiler;
pub mod trade;

pub use central::GandivaFair;
pub use config::{GfairConfig, PolicyId};
pub use entitlement::Entitlements;
pub use inputs::PolicyInputs;
pub use policy::{AllocPolicy, PolicyRound, PolicyScheduler, TicketTrading};
pub use profiler::Profiler;
pub use trade::{run_market, Trade};
