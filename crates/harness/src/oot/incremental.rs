//! Figures 13 & 14 — incremental updates (§5.5).
//!
//! Figure 13: a single `COUNTIF(J1:Jm,1)` is installed; the value of `J2`
//! is flipped and the recomputation is timed — O(m) from scratch in every
//! commercial system. The fourth (Optimized) system makes the same
//! `SimSystem::update_cell` call, but its maintained column index keeps up
//! with the write and answers the recomputed COUNTIF in probes, so its
//! series is O(1) — flat.
//!
//! Figure 14: N identical instances (N = 1, 100, …, 1000) of the same
//! COUNTIF; one cell edit triggers N full recomputations, freezing the
//! sheet at ~100 instances. The Optimized system recomputes all N too,
//! each in three probes: O(N), independent of m.

use ssbench_engine::prelude::*;
use ssbench_systems::{OpClass, SimSystem, SystemKind};
use ssbench_workload::schema::MEASURE_COL;
use ssbench_workload::Variant;

use crate::config::RunConfig;
use crate::grow::GrowingSheet;
use crate::series::{ExperimentResult, Series};

/// The edited cell: J2 (row index 1), per §5.5 ("we change the value of
/// the cell J2").
fn edited_cell() -> CellAddr {
    CellAddr::new(1, MEASURE_COL)
}

/// Column where formula instances are installed (outside the dataset).
const FORMULA_AREA_COL: u32 = 20;

fn countif_src(rows: u32) -> String {
    let range = Range::column_segment(MEASURE_COL, 0, rows - 1);
    format!("=COUNTIF({},1)", range.to_a1())
}

/// The next flip value for the edited cell (alternates 1 ↔ 0 so every
/// trial performs a real change).
fn flip(sheet: &Sheet) -> Value {
    if sheet.value(edited_cell()) == Value::Number(1.0) {
        Value::Number(0.0)
    } else {
        Value::Number(1.0)
    }
}

/// Runs the Figure 13 experiment.
pub fn fig13_incremental(cfg: &RunConfig) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig13", "Recomputation after a single-cell update (§5.5)");
    let protocol = cfg.protocol.capped(5);
    for kind in cfg.systems() {
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let sizes = cfg.sizes(sys.max_rows(OpClass::Update));
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut series = Series::new(kind.name().to_owned(), kind);
        for &rows in &sizes {
            let sheet = grow.ensure(rows);
            sheet
                .set_formula_str(CellAddr::new(0, FORMULA_AREA_COL), &countif_src(rows))
                .expect("formula parses");
            recalc::recalc_all(sheet);
            sheet.meter().reset();
            // `update_cell` recomputes the COUNTIF: a scan of m cells, or —
            // when the profile maintains column indexes — three probes; the
            // difference is the whole point of the figure.
            let ms = protocol.measure(|| {
                let v = flip(sheet);
                sys.update_cell(sheet, edited_cell(), v)
            });
            series.push(rows, ms);
        }
        result.series.push(series);
    }
    result
}

/// The instance counts of Figure 14: 1, 100, 200, …, 1000.
pub fn instance_counts(cfg: &RunConfig) -> Vec<u32> {
    let mut out = vec![1u32];
    out.extend((1..=10u32).map(|i| i * 100));
    if cfg.scale < 1.0 {
        // Scale the sweep like the sizes, with a floor of 1.
        out = out
            .into_iter()
            .map(|n| ((f64::from(n) * cfg.scale.max(0.01)).round() as u32).max(1))
            .collect();
        out.dedup();
    }
    out
}

/// Dataset size for Figure 14: 500k for the desktop systems (and the
/// Optimized system, which has no quota), 90k for Sheets ("we use the
/// 500k Value-only dataset for the desktop-based spreadsheets and 90k …
/// for Google Sheets").
pub fn fig14_rows(kind: SystemKind) -> u32 {
    match kind {
        SystemKind::Excel | SystemKind::Calc | SystemKind::Optimized => 500_000,
        SystemKind::GSheets => 90_000,
    }
}

/// Runs the Figure 14 experiment.
pub fn fig14_multi_instance(cfg: &RunConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig14",
        "Single-cell update with N identical COUNTIF instances (§5.5)",
    );
    result.x_unit = "instances".to_owned();
    let protocol = cfg.protocol.capped(2);
    let counts = instance_counts(cfg);
    for kind in cfg.systems() {
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let rows = cfg.scaled(fig14_rows(kind));
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut series = Series::new(kind.name().to_owned(), kind);
        let mut installed = 0u32;
        {
            let sheet = grow.ensure(rows);
            sheet.meter().reset();
            let _ = sheet;
        }
        for &n in &counts {
            let sheet = grow.sheet_mut();
            let src = countif_src(rows);
            for i in installed..n {
                sheet
                    .set_formula_str(CellAddr::new(i, FORMULA_AREA_COL), &src)
                    .expect("formula parses");
            }
            installed = installed.max(n);
            recalc::recalc_all(sheet);
            sheet.meter().reset();
            let ms = protocol.measure(|| {
                let v = flip(sheet);
                sys.update_cell(sheet, edited_cell(), v)
            });
            series.push(n, ms);
        }
        result.series.push(series);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_update_costs_scale_with_data_not_delta() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.05;
        let r = fig13_incremental(&cfg);
        // Calc's per-row update cost dwarfs its fixed cost, so the
        // recompute-from-scratch growth is clearest there.
        let calc = r.expect_series("Calc");
        let growth = calc.expect_last().ms / calc.points[0].ms.max(1e-9);
        assert!(growth > 5.0, "recompute-from-scratch grows with m: ×{growth:.1}");
        let excel = r.expect_series("Excel");
        assert!(excel.expect_last().ms > excel.points[0].ms);
        // The incremental series is flat.
        let opt = r.expect_series("Optimized");
        let flat = opt.expect_last().ms / opt.points[0].ms.max(1e-9);
        assert!(flat < 1.5, "indexed recompute is O(1): ×{flat:.2}");
        assert!(opt.expect_last().ms < excel.expect_last().ms);
    }

    #[test]
    fn multi_instance_scales_linearly_in_n() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.02; // rows: 10k; N: 1..20
        let r = fig14_multi_instance(&cfg);
        assert_eq!(r.x_unit, "instances");
        let excel = r.expect_series("Excel");
        let first = excel.points.first().expect("series has at least one point");
        let last = excel.expect_last();
        let n_ratio = f64::from(last.x) / f64::from(first.x);
        let t_ratio = last.ms / first.ms;
        assert!(
            t_ratio > n_ratio * 0.5 && t_ratio < n_ratio * 2.0,
            "linear in N: time ×{t_ratio:.1} for N ×{n_ratio:.1}"
        );
        let opt = r.expect_series("Optimized");
        assert!(opt.expect_last().ms < last.ms / 5.0);
    }

    #[test]
    fn fig14_rows_covers_every_system() {
        for kind in ssbench_systems::all_kinds() {
            assert!(fig14_rows(kind) > 0);
        }
        assert_eq!(fig14_rows(SystemKind::Optimized), 500_000);
    }

    #[test]
    fn instance_counts_full_scale() {
        let counts = instance_counts(&RunConfig::full());
        assert_eq!(counts, vec![1, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
    }
}
