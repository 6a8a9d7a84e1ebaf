//! Shared vocabulary types for the `gfair` workspace.
//!
//! This crate defines the domain model used by every other crate in the
//! reproduction of *Gandiva_fair* (EuroSys 2020): strongly-typed identifiers,
//! deterministic simulated time, GPU generations, deep-learning model
//! profiles, job and user specifications, cluster topologies, and scheduler
//! configuration.
//!
//! The crate is deliberately free of scheduling logic: it only captures the
//! *nouns* of the system so that the simulator (`gfair-sim`), the scheduling
//! primitives (`gfair-stride`) and the Gandiva_fair scheduler itself
//! (`gfair-core`) can interoperate without depending on each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod ids;
pub mod job;
pub mod model;
pub mod time;
pub mod user;

pub use cluster::{ClusterSpec, ServerSpec};
pub use config::{PriceStrategy, SimConfig};
pub use error::GfairError;
pub use fault::MigrationFailReason;
pub use gpu::{GenCatalog, GpuGeneration};
pub use ids::{GenId, JobId, ServerId, UserId};
pub use job::{JobSpec, JobState};
pub use model::ModelProfile;
pub use time::{SimDuration, SimTime};
pub use user::UserSpec;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, GfairError>;
