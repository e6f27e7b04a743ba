//! Figure 9 — find-and-replace (§5.1.2): search one needle planted in
//! ~1 % of the rows of one column (Present) and one that does not exist
//! (Absent). Linear in both cases for all three commercial systems — "an
//! expected trend in the absence of indexes". The fourth (Optimized)
//! system maintains an inverted token index and rewrites only the
//! postings, so its Present series is proportional to the hit count and
//! its Absent series is a single probe.

use ssbench_engine::prelude::*;
use ssbench_systems::{OpClass, SimSystem, SystemKind};
use ssbench_workload::schema::EVENT_COL_START;
use ssbench_workload::Variant;

use crate::config::RunConfig;
use crate::grow::GrowingSheet;
use crate::series::{ExperimentResult, Series};

/// The planted needle and its replacement.
pub const NEEDLE: &str = "FINDME";
const REPLACEMENT: &str = "FOUNDX";
const ABSENT: &str = "NOSUCHTOKEN";

/// Rows that carry the needle: every 97th.
fn is_needle_row(row: u32) -> bool {
    row.is_multiple_of(97)
}

/// Plants the needle in column C of rows `[from, to)`.
fn plant_needles(sheet: &mut Sheet, from: u32, to: u32) {
    for r in from..to {
        if is_needle_row(r) {
            sheet.set_value(CellAddr::new(r, EVENT_COL_START), NEEDLE);
        }
    }
}

/// The per-system row caps of §5.1.2 ("we run the experiments up to 110k,
/// 60k, and 30k rows, respectively"). The Optimized system has no
/// timeout-driven cap and runs the full 500k grid.
pub fn row_cap(kind: SystemKind) -> u32 {
    match kind {
        SystemKind::Excel => 110_000,
        SystemKind::Calc => 60_000,
        SystemKind::GSheets => 30_000,
        SystemKind::Optimized => 500_000,
    }
}

/// Runs the Figure 9 experiment.
pub fn fig9_find_replace(cfg: &RunConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig9", "Find and replace (§5.1.2)");
    let protocol = cfg.protocol.capped(3);
    for kind in cfg.systems() {
        if kind == SystemKind::Optimized {
            // Handled below: the indexed path, not the linear scan.
            continue;
        }
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let cap = row_cap(kind).min(sys.max_rows(OpClass::FindReplace).unwrap_or(u32::MAX));
        let sizes = cfg.sizes(Some(cap));
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut planted = 0u32;
        let mut present = Series::new(format!("{} Present", kind.name()), kind);
        let mut absent = Series::new(format!("{} Absent", kind.name()), kind);
        for &rows in &sizes {
            {
                let sheet = grow.ensure(rows);
                plant_needles(sheet, planted, rows);
            }
            planted = rows;
            let sheet = grow.sheet_mut();
            let ms_present = protocol.measure(|| {
                let (_, ms) = sys.find_replace(sheet, NEEDLE, REPLACEMENT);
                // Restore outside the measured region so the next trial
                // finds the needle again.
                if let Some(range) = sheet.used_range() {
                    let op = Op::FindReplace {
                        range,
                        needle: REPLACEMENT.to_owned(),
                        replacement: NEEDLE.to_owned(),
                    };
                    sheet.apply(op).expect("find_replace is infallible");
                }
                ms
            });
            let ms_absent = protocol.measure(|| sys.find_replace(sheet, ABSENT, "x").1);
            present.push(rows, ms_present);
            absent.push(rows, ms_absent);
        }
        result.series.push(present);
        result.series.push(absent);
    }
    // The fourth system (§6): find-and-replace through the maintained
    // inverted token index. Present rewrites only the postings; Absent is
    // one failed probe. Both run under the Optimized profile's own cost
    // model — no counterfactual accounting.
    if cfg.runs(SystemKind::Optimized) {
        let kind = SystemKind::Optimized;
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let sizes = cfg.sizes(Some(row_cap(kind)));
        let mut grow = GrowingSheet::new(Variant::ValueOnly, cfg.seed);
        let mut planted = 0u32;
        let mut present = Series::new(format!("{} Present", kind.name()), kind);
        let mut absent = Series::new(format!("{} Absent", kind.name()), kind);
        for &rows in &sizes {
            {
                let sheet = grow.ensure(rows);
                plant_needles(sheet, planted, rows);
            }
            planted = rows;
            let sheet = grow.sheet_mut();
            // Index maintenance is amortized across the edit stream, like
            // the engine's column indexes: the build is not measured.
            let mut index = sys.token_index(sheet);
            let ms_present = protocol.measure(|| {
                let (changed, ms) =
                    sys.find_replace_indexed(sheet, &mut index, NEEDLE, REPLACEMENT);
                assert!(changed > 0);
                // Restore outside the measured region.
                index.find_replace(sheet, REPLACEMENT, NEEDLE);
                ms
            });
            let ms_absent = protocol.measure(|| {
                let (changed, ms) = sys.find_replace_indexed(sheet, &mut index, ABSENT, "x");
                assert_eq!(changed, 0);
                ms
            });
            present.push(rows, ms_present);
            absent.push(rows, ms_absent);
        }
        result.series.push(present);
        result.series.push(absent);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_scans_and_indexed_constant() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.1;
        let r = fig9_find_replace(&cfg);
        // 4 systems × {Present, Absent}.
        assert_eq!(r.series.len(), 8);
        // Present and absent both grow linearly for Excel; absent is not
        // more expensive than present.
        let p = r.expect_series("Excel Present");
        let a = r.expect_series("Excel Absent");
        assert!(p.expect_last().ms > p.points[0].ms * 3.0, "linear growth");
        assert!(a.expect_last().ms <= p.expect_last().ms * 1.1);
        // Sheets: present ≈ absent (§5.1.2 "takes the same time for both").
        let gp = r.expect_series("Google Sheets Present").expect_last();
        let ga = r.expect_series("Google Sheets Absent").expect_last();
        assert!((gp.ms - ga.ms).abs() / ga.ms < 0.25);
        // The indexed system touches only the postings: far cheaper than
        // Excel's scan at Excel's top size, and its Absent series is a
        // single probe — essentially flat.
        let o = r.expect_series("Optimized Present");
        let excel_top = p.expect_last();
        let o_at = o
            .points
            .iter()
            .find(|pt| pt.x >= excel_top.x)
            .expect("optimized sweep covers Excel's cap");
        assert!(o_at.ms < excel_top.ms / 10.0, "{} vs {}", o_at.ms, excel_top.ms);
        let oa = r.expect_series("Optimized Absent");
        let spread = oa.expect_last().ms / oa.points[0].ms;
        assert!(spread < 1.5, "absent probe is flat, spread {spread}");
    }

    #[test]
    fn caps_match_paper() {
        assert_eq!(row_cap(SystemKind::Excel), 110_000);
        assert_eq!(row_cap(SystemKind::Calc), 60_000);
        assert_eq!(row_cap(SystemKind::GSheets), 30_000);
        assert_eq!(row_cap(SystemKind::Optimized), 500_000);
    }
}
