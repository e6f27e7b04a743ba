//! Figure 12 — redundant computation (§5.4): five identical instances of
//! `COUNTIF(J1:Jm,1)` cost ≈5× a single instance in every commercial
//! system — no formula-equality detection. The fourth (Optimized) system
//! has none either, so its five instances still cost five evaluations; its
//! indexed evaluation makes each one flat in m.

use ssbench_engine::meter::Primitive;
use ssbench_engine::prelude::*;
use ssbench_systems::{OpClass, SimSystem};
use ssbench_workload::schema::MEASURE_COL;
use ssbench_workload::Variant;

use crate::config::RunConfig;
use crate::grow::GrowingSheet;
use crate::series::{ExperimentResult, Series};

/// Number of identical instances (§5.4 uses five).
pub const INSTANCES: usize = 5;

fn countif_expr(rows: u32) -> Expr {
    let range = Range::column_segment(MEASURE_COL, 0, rows - 1);
    parse(&format!("COUNTIF({},1)", range.to_a1())).expect("static formula")
}

/// Runs the Figure 12 experiment.
pub fn fig12_redundant(cfg: &RunConfig) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig12", "Redundant computation: 5 identical COUNTIFs (§5.4)");
    let protocol = cfg.protocol.capped(3);
    for kind in cfg.systems() {
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let sizes = cfg.sizes(sys.max_rows(OpClass::Aggregate));
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut single = Series::new(format!("{} Single formula", kind.name()), kind);
        let mut multiple =
            Series::new(format!("{} Multiple formulae (5)", kind.name()), kind);
        for &rows in &sizes {
            let sheet = grow.ensure(rows);
            let expr = countif_expr(rows);
            let ms_single = protocol.measure(|| {
                sys.measure(sheet, OpClass::Aggregate, |s| {
                    s.meter().tick(Primitive::FormulaEval);
                    s.eval_expr(&expr)
                })
                .1
            });
            let ms_multi = protocol.measure(|| {
                sys.measure(sheet, OpClass::Aggregate, |s| {
                    for _ in 0..INSTANCES {
                        s.meter().tick(Primitive::FormulaEval);
                        s.eval_expr(&expr);
                    }
                })
                .1
            });
            single.push(rows, ms_single);
            multiple.push(rows, ms_multi);
        }
        result.series.push(single);
        result.series.push(multiple);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_instances_cost_five_times_one() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.05;
        let r = fig12_redundant(&cfg);
        for kind in ["Excel", "Calc"] {
            let one = r.expect_series(&format!("{kind} Single formula")).expect_last();
            let five =
                r.expect_series(&format!("{kind} Multiple formulae (5)")).expect_last();
            let ratio = five.ms / one.ms;
            assert!(
                (3.5..5.5).contains(&ratio),
                "{kind}: 5 instances ≈ 5×, got ×{ratio:.2}"
            );
        }
        // Indexed: five probed instances, far below five scans.
        let one = r.expect_series("Excel Single formula").expect_last();
        let five = r.expect_series("Excel Multiple formulae (5)").expect_last();
        let opt = r.expect_series("Optimized Multiple formulae (5)").expect_last();
        assert!(opt.ms < five.ms / 2.0, "indexed {} ≪ scanned {}", opt.ms, five.ms);
        assert!(opt.ms < one.ms * 2.0);
    }
}
