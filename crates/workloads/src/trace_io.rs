//! Trace persistence: save and reload generated traces as JSON.
//!
//! Experiments are reproducible from seeds alone, but persisting the exact
//! trace lets results be audited, shared, and replayed against modified
//! schedulers without depending on the generator's sampling internals
//! staying stable across versions.

use gfair_types::JobSpec;
use std::fs;
use std::io;
use std::path::Path;

/// Serializes a trace to pretty-printed JSON at `path`.
///
/// # Errors
///
/// Propagates filesystem errors; serialization itself cannot fail for valid
/// specs.
pub fn save_trace<P: AsRef<Path>>(path: P, trace: &[JobSpec]) -> io::Result<()> {
    let json = serde_json::to_string_pretty(trace).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Loads a trace previously written by [`save_trace`].
///
/// # Errors
///
/// Propagates filesystem errors and malformed JSON.
pub fn load_trace<P: AsRef<Path>>(path: P) -> io::Result<Vec<JobSpec>> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhillyParams, TraceBuilder};
    use gfair_types::UserSpec;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "gfair-trace-test-{}-{name}.json",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_a_generated_trace() {
        let users = UserSpec::equal_users(3, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 25;
        let trace = TraceBuilder::new(params, 5).build(&users);
        let path = tmp("roundtrip");
        save_trace(&path, &trace).unwrap();
        let back = load_trace(&path).unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.user, b.user);
            assert_eq!(a.gang, b.gang);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.service_secs.to_bits(), b.service_secs.to_bits());
            assert_eq!(a.model.name, b.model.name);
            assert_eq!(a.model.rates, b.model.rates);
        }
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_trace("/nonexistent/gfair-trace.json").is_err());
    }

    #[test]
    fn load_malformed_json_errors() {
        let path = tmp("malformed");
        fs::write(&path, "{not json").unwrap();
        let res = load_trace(&path);
        fs::remove_file(&path).ok();
        assert!(res.is_err());
    }

    #[test]
    fn load_hostile_nesting_errors() {
        let path = tmp("nesting");
        fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
        let res = load_trace(&path);
        fs::remove_file(&path).ok();
        assert!(res.is_err());
    }
}
