//! The policy zoo: alternative allocation policies behind the shared
//! [`AllocPolicy`](gfair_core::AllocPolicy) boundary.
//!
//! The `gfair-core` crate owns the boundary and the paper's own policy
//! (ticket-proportional entitlements plus the trading market); this crate
//! holds the head-to-head competitors and the one constructor —
//! [`build_policy`] — that maps a [`PolicyId`] to a ready-to-run
//! [`ClusterScheduler`]:
//!
//! * [`GavelHetero`] — Gavel-style heterogeneity-aware max-min fairness via
//!   deterministic discrete water-filling ([`water_fill`]).
//! * [`ThemisFtf`] — Themis-style finish-time fairness: online ρ̂ tracking
//!   with a partial-allocation auction among the worst-off users.
//!
//! Every policy here satisfies the determinism obligations documented on
//! [`gfair_core::policy`]: byte-identical same-seed replays, with
//! fast-forward on or off (asserted by
//! `tests/policy_determinism.rs` at the repo root). `POLICIES.md` documents
//! each policy's model, guarantees, knobs and divergences from its source
//! paper; its table is cross-checked against [`REGISTRY`] by a test in this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gavel;
mod themis;

pub use gavel::{water_fill, water_fill_naive, water_fill_solve, GavelHetero, WfSolve, WfUser};
pub use themis::ThemisFtf;

use gfair_core::{GandivaFair, GfairConfig, PolicyId, PolicyScheduler};
use gfair_obs::SharedObs;
use gfair_sim::ClusterScheduler;

/// One row of the policy catalogue.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInfo {
    /// The selectable id (CLI name via `id.name()`).
    pub id: PolicyId,
    /// One-line summary, shown by `--help` and mirrored in `POLICIES.md`.
    pub summary: &'static str,
}

/// The policy catalogue, in CLI-listing order. Kept in sync with
/// [`PolicyId::ALL`] and the `POLICIES.md` table by tests.
pub const REGISTRY: [PolicyInfo; 3] = [
    PolicyInfo {
        id: PolicyId::Gfair,
        summary: "ticket-proportional entitlements + big/small trading market (the paper)",
    },
    PolicyInfo {
        id: PolicyId::GavelHetero,
        summary: "heterogeneity-aware max-min fairness via deterministic water-filling",
    },
    PolicyInfo {
        id: PolicyId::ThemisFtf,
        summary: "finish-time fairness: worst-rho partial-allocation auction per lease",
    },
];

/// Builds the scheduler selected by `cfg.policy`, attached to the given
/// observability pipeline. Pass the same `obs` to `Simulation::with_obs`
/// so scheduler-side and engine-side events land in one ordered trace.
pub fn build_policy(cfg: GfairConfig, obs: SharedObs) -> Box<dyn ClusterScheduler> {
    match cfg.policy {
        PolicyId::Gfair => Box::new(GandivaFair::new(cfg).with_obs(obs)),
        PolicyId::GavelHetero => {
            Box::new(PolicyScheduler::new(GavelHetero::new(), cfg).with_obs(obs))
        }
        PolicyId::ThemisFtf => Box::new(
            PolicyScheduler::new(ThemisFtf::new(cfg.themis_lease, cfg.themis_filter), cfg)
                .with_obs(obs),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_policy_id() {
        assert_eq!(REGISTRY.len(), PolicyId::ALL.len());
        for (info, id) in REGISTRY.iter().zip(PolicyId::ALL) {
            assert_eq!(info.id, id, "registry order must match PolicyId::ALL");
        }
    }

    #[test]
    fn build_policy_reports_the_selected_name() {
        for id in PolicyId::ALL {
            let cfg = GfairConfig::default().with_policy(id);
            let sched = build_policy(cfg, std::sync::Arc::new(gfair_obs::Obs::new()));
            // The gfair policy reports the historical scheduler name.
            let expected = match id {
                PolicyId::Gfair => "gandiva-fair",
                _ => id.name(),
            };
            assert_eq!(sched.name(), expected);
        }
    }

    #[test]
    fn policies_doc_table_matches_registry() {
        // Same pattern as the FaultKind table test: POLICIES.md must carry
        // one summary-table row per registered policy, so the guide cannot
        // silently drift from the code.
        let doc = include_str!("../../../POLICIES.md");
        let start = doc
            .find("## Policy table")
            .expect("POLICIES.md must have a '## Policy table' section");
        let section = &doc[start..];
        let end = section[3..]
            .find("\n## ")
            .map(|i| i + 3)
            .unwrap_or(section.len());
        let rows: Vec<&str> = section[..end]
            .lines()
            .filter(|l| l.starts_with("| `"))
            .collect();
        for info in REGISTRY {
            let cell = format!("| `{}` |", info.id.name());
            assert!(
                rows.iter().any(|r| r.starts_with(&cell)),
                "POLICIES.md policy table is missing a row for {}",
                info.id.name()
            );
        }
        assert_eq!(
            rows.len(),
            REGISTRY.len(),
            "POLICIES.md policy table has extra rows"
        );
    }
}
