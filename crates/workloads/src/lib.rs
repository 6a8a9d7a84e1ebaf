//! Synthetic workloads for the Gandiva_fair reproduction.
//!
//! The paper drives its 200-GPU testbed with multi-user workloads derived
//! from Microsoft's production (Philly) traces: Poisson job arrivals,
//! power-of-two gang sizes skewed toward single-GPU jobs, heavy-tailed
//! durations, and a mix of models whose speedup on newer GPUs varies from
//! ~1.2x to ~5x. We have no access to the proprietary traces, so this crate
//! generates synthetic traces with those published shape characteristics
//! (see DESIGN.md for the substitution rationale).
//!
//! * [`models`] — the model zoo with per-generation ground-truth speedups.
//! * [`philly`] — the trace generator (Poisson arrivals, lognormal service,
//!   configurable gang mix).
//! * [`population`] — user classes (low/high speedup preference) used by the
//!   trading experiments.

#![forbid(unsafe_code)]

pub mod models;
pub mod philly;
pub mod population;
pub mod trace_io;

pub use models::{zoo, zoo_by_name, ModelClass};
pub use philly::{PhillyParams, TraceBuilder};
pub use population::{UserClass, UserPopulation};
pub use trace_io::{load_trace, save_trace};
