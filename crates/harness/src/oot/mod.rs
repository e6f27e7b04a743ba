//! The OOT (Optimization Opportunities Testing) benchmark (§5): six
//! experiments probing for database-style optimizations, each run on
//! Value-only data to isolate the probed effect, plus — beyond the paper —
//! an "Optimized" series per experiment showing what the corresponding
//! optimization buys. Every such series is a `SimSystem` call under the
//! Optimized profile; what that system does differently is decided in
//! `ssbench-systems` (and the engine), never here.

pub mod find_replace;
pub mod incremental;
pub mod layout;
pub mod redundant;
pub mod shared;

pub use find_replace::fig9_find_replace;
pub use incremental::{fig13_incremental, fig14_multi_instance};
pub use layout::fig10_layout;
pub use redundant::fig12_redundant;
pub use shared::fig11_shared;

use crate::config::RunConfig;
use crate::series::ExperimentResult;
use crate::{run_selected, Experiment};

/// The six OOT experiments by figure id, in presentation order.
pub const EXPERIMENTS: [(&str, Experiment); 6] = [
    ("fig9", fig9_find_replace),
    ("fig10", fig10_layout),
    ("fig11", fig11_shared),
    ("fig12", fig12_redundant),
    ("fig13", fig13_incremental),
    ("fig14", fig14_multi_instance),
];

/// Runs all six OOT experiments.
pub fn run_all(cfg: &RunConfig) -> Vec<ExperimentResult> {
    run_selected(cfg, &EXPERIMENTS, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_quick_produces_six_figures() {
        let cfg = RunConfig::quick();
        let results = run_all(&cfg);
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["fig9", "fig10", "fig11", "fig12", "fig13", "fig14"]);
        assert_eq!(ids, EXPERIMENTS.map(|(id, _)| id), "each experiment is filed under its id");
        for r in &results {
            assert!(!r.series.is_empty(), "{} has series", r.id);
            for s in &r.series {
                assert!(!s.points.is_empty(), "{}/{}", r.id, s.label);
            }
        }
    }
}
