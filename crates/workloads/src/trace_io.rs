//! Trace persistence: save and reload generated traces as JSON.
//!
//! Experiments are reproducible from seeds alone, but persisting the exact
//! trace lets results be audited, shared, and replayed against modified
//! schedulers without depending on the generator's sampling internals
//! staying stable across versions.
//!
//! A trace file is a JSON array of jobs, each carrying its model's full
//! profile. [`load_trace`] streams it: it pulls one job at a time from the
//! file through the `serde_json` shim's `Deserializer`, so memory holds the
//! jobs and one read buffer, never the file's text or a tree of it. Jobs
//! naming one model share one `Arc<ModelProfile>`, as a generated trace's
//! jobs do.

use gfair_types::{JobId, JobSpec, ModelProfile};
use serde::{DeError, Deserialize};
use serde_json::Deserializer;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

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
/// Propagates filesystem errors and malformed JSON. A model name that
/// comes with two different profiles is an error naming the model and the
/// two jobs: the simulator knows a model by its name alone.
pub fn load_trace<P: AsRef<Path>>(path: P) -> io::Result<Vec<JobSpec>> {
    read_trace(File::open(path)?).map_err(io::Error::other)
}

/// Reads a trace in [`save_trace`]'s format from a byte stream.
fn read_trace(r: impl Read) -> Result<Vec<JobSpec>, DeError> {
    let d = &mut Deserializer::from_reader(r);
    let trace = read_jobs(d);
    d.end(trace)
}

/// Reads the array of jobs, handing out one profile `Arc` per model.
fn read_jobs(d: &mut Deserializer<'_>) -> Result<Vec<JobSpec>, DeError> {
    let mut trace: Vec<JobSpec> = Vec::new();
    // Each model's shared profile and the first job that carried it.
    let mut models: HashMap<String, (Arc<ModelProfile>, JobId)> = HashMap::new();
    let mut more = d.begin_array("trace")?;
    while more {
        let mut job = JobSpec::deserialize(d)
            .map_err(|e| DeError::msg(format!("trace entry {}: {e}", trace.len())))?;
        match models.get(&job.model.name) {
            Some((shared, _)) if **shared == *job.model => job.model = Arc::clone(shared),
            Some((_, first)) => {
                return Err(DeError::msg(format!(
                    "model {} has two different profiles, in jobs {first} and {}",
                    job.model.name, job.id
                )))
            }
            None => {
                let first = (Arc::clone(&job.model), job.id);
                models.insert(job.model.name.clone(), first);
            }
        }
        trace.push(job);
        more = d.next_element()?;
    }
    Ok(trace)
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
    fn jobs_of_one_model_share_one_profile() {
        let users = UserSpec::equal_users(3, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 60;
        let trace = TraceBuilder::new(params, 5).build(&users);
        let json = serde_json::to_string_pretty(&trace).unwrap();
        let back = read_trace(json.as_bytes()).unwrap();
        for (i, a) in back.iter().enumerate() {
            for b in &back[..i] {
                let same_name = a.model.name == b.model.name;
                assert_eq!(
                    Arc::ptr_eq(&a.model, &b.model),
                    same_name,
                    "{} {}",
                    a.id,
                    b.id
                );
            }
        }
    }

    /// A one-job trace: `model` is the job's model object.
    fn one_job(id: &str, user: &str, model: &str, gang: &str) -> String {
        format!(
            r#"{{"id": {id}, "user": {user}, "model": {model}, "gang": {gang}, "service_secs": 600.0, "arrival": 0}}"#
        )
    }

    fn resnet(rates: &str) -> String {
        format!(
            r#"{{"name": "ResNet-50", "rates": {rates}, "checkpoint": 1000000, "restore": 1000000}}"#
        )
    }

    #[test]
    fn a_model_name_with_two_profiles_is_refused() {
        // A hand edit gave job 7's copy of ResNet-50 another speedup on the
        // fastest generation; the simulator would pool both under one name.
        let json = format!(
            "[{}, {}, {}]",
            one_job("3", "0", &resnet("[1.0, 2.0, 3.0]"), "1"),
            one_job("5", "1", &resnet("[1.0, 2.0, 3.0]"), "1"),
            one_job("7", "1", &resnet("[1.0, 2.0, 3.5]"), "2"),
        );
        let err = read_trace(json.as_bytes()).unwrap_err().to_string();
        assert_eq!(
            err,
            "model ResNet-50 has two different profiles, in jobs J3 and J7"
        );
    }

    #[test]
    fn integers_beyond_u32_name_their_field() {
        let model = resnet("[1.0, 2.0, 3.0]");
        let big = "4294967296";
        for (field, json) in [
            ("id", one_job(big, "0", &model, "1")),
            ("user", one_job("0", big, &model, "1")),
            ("gang", one_job("0", "0", &model, big)),
        ] {
            let err = read_trace(format!("[{json}]").as_bytes())
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("field `{field}` of JobSpec"))
                    && err.contains("4294967296 out of range for u32"),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn every_strict_prefix_of_a_trace_is_an_error() {
        let users = UserSpec::equal_users(2, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 3;
        let trace = TraceBuilder::new(params, 5).build(&users);
        let json = serde_json::to_string_pretty(&trace).unwrap();
        assert_eq!(read_trace(json.as_bytes()).unwrap().len(), 3);
        for len in 0..json.len() {
            assert!(
                read_trace(&json.as_bytes()[..len]).is_err(),
                "prefix of {len} bytes"
            );
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
