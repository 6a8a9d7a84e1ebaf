//! Cluster topology: servers and their GPUs.
//!
//! A cluster is a flat list of servers; each server carries a number of GPUs
//! of a single generation (as in the paper's testbed, where servers are
//! homogeneous internally but the cluster mixes K80/P100/V100 machines).
//! Gangs must fit within a single server, mirroring Gandiva_fair's placement
//! constraint for time-sliced jobs.

use crate::gpu::GenCatalog;
use crate::ids::{GenId, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A physical server hosting `num_gpus` GPUs of one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Unique server identifier (index into [`ClusterSpec::servers`]).
    pub id: ServerId,
    /// GPU generation installed in this server.
    pub gen: GenId,
    /// Number of GPUs (typically 4 or 8).
    pub num_gpus: u32,
}

/// Static description of a GPU cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Generations present in the cluster.
    pub catalog: GenCatalog,
    /// All servers, indexed by [`ServerId`].
    pub servers: Vec<ServerSpec>,
}

impl ClusterSpec {
    /// Builds a cluster from `(generation name, server count, gpus/server)`
    /// rows against a catalog.
    ///
    /// # Panics
    ///
    /// Panics if a row names an unknown generation, if a server would have
    /// zero GPUs, or if no servers are specified.
    pub fn build(catalog: GenCatalog, rows: &[(&str, u32, u32)]) -> Self {
        let mut servers = Vec::new();
        for &(name, count, gpus) in rows {
            let gen = catalog
                .by_name(name)
                .unwrap_or_else(|| panic!("unknown generation {name}"))
                .id;
            assert!(gpus > 0, "servers must have at least one GPU");
            for _ in 0..count {
                servers.push(ServerSpec {
                    id: ServerId::new(servers.len() as u32),
                    gen,
                    num_gpus: gpus,
                });
            }
        }
        assert!(!servers.is_empty(), "cluster must have at least one server");
        ClusterSpec { catalog, servers }
    }

    /// A homogeneous cluster: `servers` machines with `gpus_per_server` GPUs
    /// of a single generation.
    pub fn homogeneous(servers: u32, gpus_per_server: u32) -> Self {
        let catalog = GenCatalog::homogeneous("P100");
        Self::build(catalog, &[("P100", servers, gpus_per_server)])
    }

    /// The paper-scale heterogeneous testbed: 200 GPUs as a K80/P100/V100
    /// mix (128 K80 + 48 P100 + 24 V100, grouped 8/4/4 GPUs per server).
    ///
    /// The exact composition of the paper's cluster is not in the abstract;
    /// this preset preserves the properties that matter: ~200 GPUs, three
    /// generations, most capacity in the oldest generation (the situation
    /// that motivates trading).
    pub fn paper_testbed() -> Self {
        Self::build(
            GenCatalog::k80_p100_v100(),
            &[("K80", 16, 8), ("P100", 12, 4), ("V100", 6, 4)],
        )
    }

    /// Total GPUs in the cluster, or `None` when the count does not fit in
    /// a `u32`.
    pub fn checked_total_gpus(&self) -> Option<u32> {
        self.servers
            .iter()
            .try_fold(0u32, |sum, s| sum.checked_add(s.num_gpus))
    }

    /// Total GPUs in the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the count does not fit in a `u32`; `Simulation::new`
    /// rejects such clusters.
    pub fn total_gpus(&self) -> u32 {
        self.checked_total_gpus()
            .expect("cluster GPU total overflows u32")
    }

    /// GPUs per generation, keyed by generation id.
    ///
    /// # Panics
    ///
    /// Panics if a generation's count does not fit in a `u32`, which can
    /// only happen when [`total_gpus`](Self::total_gpus) panics too.
    pub fn gpus_per_gen(&self) -> BTreeMap<GenId, u32> {
        let mut m = BTreeMap::new();
        for s in &self.servers {
            let n: &mut u32 = m.entry(s.gen).or_insert(0);
            *n = n
                .checked_add(s.num_gpus)
                .expect("cluster GPU total overflows u32");
        }
        m
    }

    /// Servers of a given generation.
    pub fn servers_of_gen(&self, gen: GenId) -> impl Iterator<Item = &ServerSpec> {
        self.servers.iter().filter(move |s| s.gen == gen)
    }

    /// Looks up a server by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server(&self, id: ServerId) -> &ServerSpec {
        &self.servers[id.index()]
    }

    /// Largest gang the cluster can host (the widest single server).
    pub fn max_gang(&self) -> u32 {
        self.servers.iter().map(|s| s.num_gpus).max().unwrap_or(0)
    }

    /// Total cluster capacity in base-generation GPU units, using nominal
    /// generation speeds (an upper bound used for utilization reporting).
    pub fn nominal_capacity(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.num_gpus as f64 * self.catalog.get(s.gen).nominal_speed)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_200_gpus() {
        let c = ClusterSpec::paper_testbed();
        assert_eq!(c.total_gpus(), 200);
        let per_gen = c.gpus_per_gen();
        assert_eq!(per_gen[&GenId::new(0)], 128); // K80
        assert_eq!(per_gen[&GenId::new(1)], 48); // P100
        assert_eq!(per_gen[&GenId::new(2)], 24); // V100
    }

    #[test]
    fn server_ids_are_dense_indices() {
        let c = ClusterSpec::paper_testbed();
        for (i, s) in c.servers.iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
        assert_eq!(c.server(ServerId::new(0)).gen, GenId::new(0));
    }

    #[test]
    fn homogeneous_cluster() {
        let c = ClusterSpec::homogeneous(3, 8);
        assert_eq!(c.total_gpus(), 24);
        assert_eq!(c.max_gang(), 8);
        assert!(c.catalog.is_homogeneous());
    }

    #[test]
    fn servers_of_gen_filters() {
        let c = ClusterSpec::paper_testbed();
        let v100_servers: Vec<_> = c.servers_of_gen(GenId::new(2)).collect();
        assert_eq!(v100_servers.len(), 6);
        assert!(v100_servers.iter().all(|s| s.num_gpus == 4));
    }

    #[test]
    fn nominal_capacity_weighs_generations() {
        let c = ClusterSpec::build(
            GenCatalog::k80_p100_v100(),
            &[("K80", 1, 2), ("V100", 1, 2)],
        );
        // 2 * 1.0 + 2 * 3.5 = 9.0 base-GPU units.
        assert!((c.nominal_capacity() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown generation")]
    fn unknown_generation_panics() {
        let _ = ClusterSpec::build(GenCatalog::k80_p100_v100(), &[("A100", 1, 8)]);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_server_panics() {
        let _ = ClusterSpec::build(GenCatalog::k80_p100_v100(), &[("K80", 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_panics() {
        let _ = ClusterSpec::build(GenCatalog::k80_p100_v100(), &[]);
    }
}
