//! Figure 10 — in-memory data layout (§5.2): sequential vs random
//! scripted access to one column. In all three systems the two patterns
//! cost the same (per-cell API overhead dominates — no columnar layout).
//! The two extra `(wall-clock)` series time the engine's own typed
//! columnar chunks through the public API — a single-column range scan
//! against point reads in shuffled order — where sequential locality
//! genuinely wins.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssbench_engine::prelude::*;
use ssbench_systems::SystemKind;
use ssbench_workload::schema::KEY_COL;
use ssbench_workload::Variant;

use crate::config::RunConfig;
use crate::grow::GrowingSheet;
use crate::series::{ExperimentResult, Series};

/// The paper's row counts: 100k/300k/500k for the desktop systems (and
/// the Optimized system), 20k/50k/80k for Google Sheets.
pub fn sizes_for(kind: SystemKind) -> [u32; 3] {
    match kind {
        SystemKind::Excel | SystemKind::Calc | SystemKind::Optimized => {
            [100_000, 300_000, 500_000]
        }
        SystemKind::GSheets => [20_000, 50_000, 80_000],
    }
}

/// Runs the Figure 10 experiment.
pub fn fig10_layout(cfg: &RunConfig) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig10", "Sequential vs random column access (§5.2)");
    let protocol = cfg.protocol.capped(3);
    for kind in cfg.systems() {
        let sys = ssbench_systems::SimSystem::with_seed(kind, cfg.seed);
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut seq = Series::new(format!("{} Sequential", kind.name()), kind);
        let mut rnd = Series::new(format!("{} Random", kind.name()), kind);
        for (i, &rows) in sizes_for(kind).iter().enumerate() {
            let rows = cfg.scaled(rows);
            let sheet = grow.ensure(rows);
            let ms_seq = protocol.measure(|| sys.sequential_access(sheet, KEY_COL, rows));
            let ms_rnd = protocol
                .measure(|| sys.random_access(sheet, KEY_COL, rows, cfg.seed ^ i as u64));
            seq.push(rows, ms_seq);
            rnd.push(rows, ms_rnd);
        }
        result.series.push(seq);
        result.series.push(rnd);
    }
    // Beyond the paper: real wall-clock reads of the grid's typed
    // columnar chunks — the layout the systems lack. Sequential is the
    // single-column typed-scan path; random is one point read per row.
    let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
    let mut seq = Series::new("Columnar Sequential (wall-clock)", SystemKind::Excel);
    let mut rnd = Series::new("Columnar Random (wall-clock)", SystemKind::Excel);
    for &rows in &sizes_for(SystemKind::Excel) {
        let rows = cfg.scaled(rows);
        let sheet = &*grow.ensure(rows);
        let column = Range::column_segment(KEY_COL, 0, rows - 1);
        let mut order: Vec<u32> = (0..rows).collect();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        // Repeat the scan enough to rise above timer resolution.
        let reps = 32;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            sheet.visit_range(column, &mut |_, v, _| acc += v.as_number().unwrap_or(0.0));
        }
        let ms_seq = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        let t1 = Instant::now();
        for _ in 0..reps {
            for &r in &order {
                acc += sheet.value(CellAddr::new(r, KEY_COL)).as_number().unwrap_or(0.0);
            }
        }
        let ms_rnd = t1.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        assert!(acc.is_finite());
        seq.push(rows, ms_seq);
        rnd.push(rows, ms_rnd);
    }
    result.series.push(seq);
    result.series.push(rnd);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systems_show_no_layout_benefit() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.05;
        let r = fig10_layout(&cfg);
        // Scripted per-cell access shows no layout effect anywhere — even
        // the Optimized profile pays per read; only the columnar block
        // below exercises real locality.
        for kind in ["Excel", "Calc", "Google Sheets", "Optimized"] {
            let s = r.expect_series(&format!("{kind} Sequential")).expect_last();
            let d = r.expect_series(&format!("{kind} Random")).expect_last();
            let ratio = d.ms / s.ms;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{kind}: sequential ≈ random, got ×{ratio:.2}"
            );
        }
        // The columnar series exist and are orders of magnitude below the
        // scripted-access times.
        let col_seq = r.expect_series("Columnar Sequential (wall-clock)").expect_last();
        let excel_seq = r.expect_series("Excel Sequential").expect_last();
        assert!(col_seq.ms < excel_seq.ms);
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(sizes_for(SystemKind::Calc), [100_000, 300_000, 500_000]);
        assert_eq!(sizes_for(SystemKind::GSheets), [20_000, 50_000, 80_000]);
        assert_eq!(sizes_for(SystemKind::Optimized), [100_000, 300_000, 500_000]);
    }
}
