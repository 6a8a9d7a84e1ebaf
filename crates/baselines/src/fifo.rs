//! Global FIFO with run-to-completion.
//!
//! The classic HPC default: jobs start in arrival order as soon as any
//! server has enough free GPUs, hold those GPUs until they finish, and are
//! never time-sliced or migrated. Head-of-line blocking by large gangs and
//! total indifference to users make it the natural "neither fair nor
//! efficient" anchor for the comparison experiments.

use crate::util::free_gpus;
use gfair_sim::{Action, ClusterScheduler, RoundPlan, SimView};
use gfair_types::JobId;
use gfair_types::ServerId;
use std::collections::{BTreeMap, VecDeque};

/// Global FIFO queue, run-to-completion, no time slicing.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: VecDeque<JobId>,
    inflight: BTreeMap<ServerId, u32>,
}

impl Fifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts queued jobs in strict FIFO order while the head fits.
    fn drain(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        while let Some(&job) = self.queue.front() {
            let gang = view.job(job).expect("queued job is known").gang;
            let target = view
                .cluster()
                .servers
                .iter()
                .find(|s| free_gpus(view, &self.inflight, s.id) >= gang)
                .map(|s| s.id);
            match target {
                Some(server) => {
                    *self.inflight.entry(server).or_insert(0) += gang;
                    self.queue.pop_front();
                    actions.push(Action::Place { job, server });
                }
                // Strict FIFO: the head blocks everything behind it.
                None => break,
            }
        }
        actions
    }
}

impl ClusterScheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.queue.push_back(job);
        self.drain(view)
    }

    fn on_job_finish(&mut self, view: &SimView<'_>, _job: JobId) -> Vec<Action> {
        self.drain(view)
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        self.inflight.clear();
        let mut plan = RoundPlan::empty();
        plan.actions = self.drain(view);
        for server in &view.cluster().servers {
            for job in view.resident(server.id) {
                plan.run_on(server.id, job);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfair_sim::Simulation;
    use gfair_types::{ClusterSpec, JobSpec, ModelProfile, SimConfig, SimTime, UserId, UserSpec};
    use std::sync::Arc;

    fn model() -> Arc<ModelProfile> {
        Arc::new(ModelProfile::with_default_overheads("m", vec![1.0]))
    }

    fn job(id: u32, gang: u32, service: f64, at: u64) -> JobSpec {
        JobSpec::new(
            gfair_types::JobId::new(id),
            UserId::new(0),
            model(),
            gang,
            service,
            SimTime::from_secs(at),
        )
    }

    #[test]
    fn jobs_run_in_arrival_order() {
        let trace = vec![
            job(0, 4, 300.0, 0),
            job(1, 4, 300.0, 0),
            job(2, 4, 300.0, 0),
        ];
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            UserSpec::equal_users(1, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let report = sim.run(&mut Fifo::new()).unwrap();
        let f: Vec<u64> = (0..3)
            .map(|i| {
                report.jobs[&gfair_types::JobId::new(i)]
                    .finish
                    .unwrap()
                    .as_secs()
            })
            .collect();
        assert_eq!(f, vec![300, 600, 900]);
    }

    #[test]
    fn head_of_line_blocking_by_wide_gang() {
        // A gang of 4 at the head blocks two 1-GPU jobs even though 3 GPUs
        // are free.
        let trace = vec![
            job(0, 1, 10_000.0, 0),
            job(1, 4, 300.0, 10),
            job(2, 1, 300.0, 20),
        ];
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            UserSpec::equal_users(1, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let report = sim
            .run_until(&mut Fifo::new(), SimTime::from_secs(3600))
            .unwrap();
        // Job 2 cannot start while job 1 waits for job 0's GPU.
        assert_eq!(report.jobs[&gfair_types::JobId::new(1)].first_run, None);
        assert_eq!(report.jobs[&gfair_types::JobId::new(2)].first_run, None);
        // Utilization collapses to 1/4.
        assert!(report.utilization() < 0.3);
    }

    #[test]
    fn parallel_start_when_capacity_allows() {
        let trace = vec![job(0, 2, 300.0, 0), job(1, 2, 300.0, 0)];
        let sim = Simulation::new(
            ClusterSpec::homogeneous(1, 4),
            UserSpec::equal_users(1, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap();
        let report = sim.run(&mut Fifo::new()).unwrap();
        assert_eq!(
            report.jobs[&gfair_types::JobId::new(1)].finish,
            Some(SimTime::from_secs(300))
        );
    }
}
