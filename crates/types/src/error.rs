//! Workspace error type.
//!
//! Scheduling decisions returned to the simulator are validated before being
//! applied; invalid decisions (placing a gang that does not fit, scheduling a
//! non-resident job, overcommitting a server's GPUs) are reported through
//! [`GfairError`] rather than silently ignored, so scheduler bugs surface in
//! tests immediately.

use crate::ids::{JobId, ServerId};
use std::error::Error;
use std::fmt;

/// Errors produced while validating or applying scheduling decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfairError {
    /// A decision referenced a job the simulator does not know about.
    UnknownJob(JobId),
    /// A decision referenced a server outside the cluster.
    UnknownServer(ServerId),
    /// A gang was placed on a server with fewer GPUs than the gang size.
    GangDoesNotFit {
        /// Offending job.
        job: JobId,
        /// Target server.
        server: ServerId,
        /// Gang size requested.
        gang: u32,
        /// GPUs available on the server.
        gpus: u32,
    },
    /// A round plan scheduled more GPUs than the server has.
    ServerOvercommitted {
        /// Offending server.
        server: ServerId,
        /// Sum of gang sizes in the plan.
        requested: u32,
        /// GPUs available.
        gpus: u32,
    },
    /// A round plan included a job that is not resident on that server.
    JobNotResident {
        /// Offending job.
        job: JobId,
        /// Server whose plan listed it.
        server: ServerId,
    },
    /// A job appeared more than once in a single round plan.
    DuplicateJobInPlan(JobId),
    /// A migration was requested for a job that cannot move (pending,
    /// already migrating, or finished).
    NotMigratable(JobId),
    /// Configuration failed validation.
    InvalidConfig(String),
    /// The simulation exceeded its round-count safety limit (usually a
    /// scheduler that never places pending jobs).
    RoundLimitExceeded(u64),
    /// A decision targeted a server that is currently failed.
    ServerDown(ServerId),
    /// Liveness: a job ran for productive time in a round, gained no
    /// progress and is not finishing, so it would be granted forever.
    JobStalled {
        /// The stalled job.
        job: JobId,
        /// Server it was granted on.
        server: ServerId,
    },
    /// The online auditor detected a scheduler invariant violation that has
    /// no dedicated variant (e.g. a partial gang or non-conserved tickets).
    /// The payload carries the auditor's report, including the offending
    /// round's trace.
    InvariantViolation(String),
}

impl fmt::Display for GfairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfairError::UnknownJob(j) => write!(f, "unknown job {j}"),
            GfairError::UnknownServer(s) => write!(f, "unknown server {s}"),
            GfairError::GangDoesNotFit {
                job,
                server,
                gang,
                gpus,
            } => write!(
                f,
                "job {job} (gang {gang}) does not fit on server {server} ({gpus} GPUs)"
            ),
            GfairError::ServerOvercommitted {
                server,
                requested,
                gpus,
            } => write!(
                f,
                "round plan for {server} requests {requested} GPUs but only {gpus} exist"
            ),
            GfairError::JobNotResident { job, server } => {
                write!(f, "job {job} is not resident on server {server}")
            }
            GfairError::DuplicateJobInPlan(j) => {
                write!(f, "job {j} appears more than once in a round plan")
            }
            GfairError::NotMigratable(j) => write!(f, "job {j} cannot be migrated"),
            GfairError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GfairError::RoundLimitExceeded(n) => {
                write!(f, "simulation exceeded the round safety limit of {n}")
            }
            GfairError::ServerDown(s) => write!(f, "server {s} is down"),
            GfairError::JobStalled { job, server } => write!(
                f,
                "job {job} ran on server {server} without progress and is not finishing"
            ),
            GfairError::InvariantViolation(report) => {
                write!(f, "scheduler invariant violated: {report}")
            }
        }
    }
}

impl Error for GfairError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_have_readable_messages() {
        let e = GfairError::GangDoesNotFit {
            job: JobId::new(3),
            server: ServerId::new(1),
            gang: 8,
            gpus: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("J3"));
        assert!(msg.contains("S1"));
        assert!(msg.contains("8"));
        assert!(msg.contains("4"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&GfairError::UnknownJob(JobId::new(0)));
    }

    #[test]
    fn overcommit_message_mentions_counts() {
        let e = GfairError::ServerOvercommitted {
            server: ServerId::new(2),
            requested: 12,
            gpus: 8,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("8"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GfairError::UnknownJob(JobId::new(1)),
            GfairError::UnknownJob(JobId::new(1))
        );
        assert_ne!(
            GfairError::UnknownJob(JobId::new(1)),
            GfairError::NotMigratable(JobId::new(1))
        );
    }
}
