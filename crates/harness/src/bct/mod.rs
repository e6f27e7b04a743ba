//! The BCT (Basic Complexity Testing) benchmark (§4): seven experiments,
//! one per figure, each sweeping dataset sizes for every system and — for
//! all but VLOOKUP — both dataset variants.

pub mod cond_format;
pub mod countif;
pub mod filter;
pub mod open;
pub mod pivot;
pub mod sort;
pub mod vlookup;

pub use cond_format::fig4_cond_format;
pub use countif::fig7_countif;
pub use filter::fig5_filter;
pub use open::fig2_open;
pub use pivot::fig6_pivot;
pub use sort::fig3_sort;
pub use vlookup::fig8_vlookup;

use ssbench_engine::prelude::Sheet;
use ssbench_engine::trace;
use ssbench_systems::{OpClass, SimSystem, SystemKind, INTERACTIVITY_BOUND_MS};
use ssbench_workload::Variant;

use crate::config::RunConfig;
use crate::grow::GrowingSheet;
use crate::series::{ExperimentResult, Series};
use crate::{run_selected, Experiment};

/// The seven BCT experiments by figure id, in presentation order.
pub const EXPERIMENTS: [(&str, Experiment); 7] = [
    ("fig2", fig2_open),
    ("fig3", fig3_sort),
    ("fig4", fig4_cond_format),
    ("fig5", fig5_filter),
    ("fig6", fig6_pivot),
    ("fig7", fig7_countif),
    ("fig8", fig8_vlookup),
];

/// Runs all seven BCT experiments.
pub fn run_all(cfg: &RunConfig) -> Vec<ExperimentResult> {
    run_selected(cfg, &EXPERIMENTS, |_| true)
}

/// Series label in the paper's style: `"Excel (F)"`.
pub fn series_label(kind: SystemKind, variant: Variant) -> String {
    format!("{} ({})", kind.name(), variant.label())
}

/// The shared sweep: for every system and requested variant, grow a
/// weather sheet through the size grid (clipped to the system's quota for
/// `op`), measure `run_op` under the trial protocol, and record the
/// series. Honors `cfg.stop_after_violation`.
pub fn sweep(
    result: &mut ExperimentResult,
    cfg: &RunConfig,
    op: OpClass,
    variants: &[Variant],
    trial_cap: usize,
    run_op: &mut dyn FnMut(&SimSystem, &mut Sheet, u32) -> f64,
) {
    let protocol = cfg.protocol.capped(trial_cap);
    for kind in cfg.systems() {
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let sizes = cfg.sizes(sys.max_rows(op));
        for &variant in variants {
            let mut grow = GrowingSheet::new(variant, cfg.seed);
            let mut series = Series::new(series_label(kind, variant), kind);
            let mut sizes_past_violation = 0usize;
            for &rows in &sizes {
                let sheet = grow.ensure(rows);
                let label = series.label.as_str();
                let span =
                    trace::Span::open(trace::Category::Point, || format!("point:{label}:{rows}"));
                let ms = protocol.measure(|| run_op(&sys, sheet, rows));
                span.set_sim_ms(ms);
                span.finish();
                series.push(rows, ms);
                if ms > INTERACTIVITY_BOUND_MS {
                    sizes_past_violation += 1;
                    if let Some(k) = cfg.stop_after_violation {
                        if sizes_past_violation > k {
                            break;
                        }
                    }
                }
            }
            result.series.push(series);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(series_label(SystemKind::Excel, Variant::FormulaValue), "Excel (F)");
        assert_eq!(series_label(SystemKind::GSheets, Variant::ValueOnly), "Google Sheets (V)");
    }

    #[test]
    fn run_all_quick_produces_seven_figures() {
        let cfg = RunConfig::quick();
        let results = run_all(&cfg);
        assert_eq!(results.len(), 7);
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]);
        assert_eq!(ids, EXPERIMENTS.map(|(id, _)| id), "each experiment is filed under its id");
        for r in &results {
            assert!(!r.series.is_empty(), "{} has series", r.id);
            for s in &r.series {
                assert!(!s.points.is_empty(), "{}/{} has points", r.id, s.label);
                assert!(
                    s.points.windows(2).all(|w| w[0].x < w[1].x),
                    "{}/{} sizes ascend",
                    r.id,
                    s.label
                );
            }
        }
    }

    /// A selection runs what it names and nothing else: one figure's
    /// experiment, whose span is the only one the trace records.
    #[test]
    fn a_selection_runs_one_experiment() {
        let cfg = RunConfig::quick();
        trace::clear();
        trace::enable(trace::DEFAULT_CAPACITY);
        let results = run_selected(&cfg, &EXPERIMENTS, |id| id == "fig5");
        let experiments: Vec<String> = trace::drain()
            .iter()
            .map(|s| s.name.clone())
            .filter(|name| name.starts_with("experiment:"))
            .collect();
        trace::disable();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["fig5"]);
        assert_eq!(experiments, ["experiment:fig5"]);
    }
}
