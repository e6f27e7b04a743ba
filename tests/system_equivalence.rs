//! Cross-system semantic equivalence: every registered simulated system
//! (the paper trio plus Optimized) must compute identical *results* for
//! every operation — they differ only in which extra work they perform
//! and what it costs. Also covers determinism and quota behaviour.

use ssbench::engine::prelude::*;
use ssbench::systems::{all_kinds, OpClass, SimSystem, SystemKind};
use ssbench::workload::schema::*;
use ssbench::workload::{build_sheet, Variant};

const ROWS: u32 = 3_000;

#[test]
fn sort_results_identical_across_systems() {
    let mut sheets: Vec<Sheet> = Vec::new();
    for kind in all_kinds() {
        let sys = SimSystem::new(kind);
        let mut sheet = build_sheet(ROWS, Variant::FormulaValue);
        // Shuffle determinism: sort by state (non-unique keys exercise
        // stability), then by key.
        sys.sort(&mut sheet, STATE_COL);
        sys.sort(&mut sheet, KEY_COL);
        sheets.push(sheet);
    }
    for r in 0..ROWS {
        for c in 0..NUM_COLS {
            let addr = CellAddr::new(r, c);
            let v0 = sheets[0].value(addr);
            for other in &sheets[1..] {
                assert_eq!(v0, other.value(addr), "cell {addr}");
            }
        }
    }
}

#[test]
fn filter_and_pivot_results_identical() {
    let crit = Criterion::parse(&Value::text(FILTER_STATE));
    let mut visibles = Vec::new();
    let mut pivots = Vec::new();
    for kind in all_kinds() {
        let sys = SimSystem::new(kind);
        let mut sheet = build_sheet(ROWS, Variant::ValueOnly);
        let (visible, _) = sys.filter(&mut sheet, STATE_COL, &crit);
        visibles.push(visible);
        let (pivot, _) = sys.pivot(&mut sheet, STATE_COL, MEASURE_COL);
        pivots.push(pivot);
    }
    for v in &visibles[1..] {
        assert_eq!(&visibles[0], v);
    }
    for p in &pivots[1..] {
        assert_eq!(pivots[0].groups, p.groups);
    }
    assert_eq!(pivots[0].len(), 50, "one group per state");
}

#[test]
fn aggregate_results_identical_and_match_ground_truth() {
    let mut counts = Vec::new();
    for kind in all_kinds() {
        let sys = SimSystem::new(kind);
        let mut sheet = build_sheet(ROWS, Variant::ValueOnly);
        let (v, _) = sys.countif(&mut sheet, FORMULA_COL_START, ROWS, "1");
        counts.push(v.as_number().unwrap());
    }
    for &c in &counts[1..] {
        assert_eq!(counts[0], c);
    }
    // Ground truth from the generator.
    let expected = (0..ROWS)
        .filter(|&r| {
            ssbench::workload::generate_row(ssbench::workload::DEFAULT_SEED, r).formula_result(0)
                == 1
        })
        .count() as f64;
    assert_eq!(counts[0], expected);
}

#[test]
fn open_results_identical_for_desktop_systems() {
    let doc = ssbench::workload::build_doc(500, Variant::FormulaValue);
    let (excel_sheet, _) = SimSystem::new(SystemKind::Excel).open_doc(&doc);
    let (calc_sheet, _) = SimSystem::new(SystemKind::Calc).open_doc(&doc);
    // The Optimized open builds column indexes along the way — the
    // resulting values must still be bit-identical.
    let (opt_sheet, _) = SimSystem::new(SystemKind::Optimized).open_doc(&doc);
    for r in 0..500 {
        for c in 0..NUM_COLS {
            let addr = CellAddr::new(r, c);
            assert_eq!(excel_sheet.value(addr), calc_sheet.value(addr), "cell {addr}");
            assert_eq!(excel_sheet.value(addr), opt_sheet.value(addr), "cell {addr}");
        }
    }
}

#[test]
fn simulated_times_are_deterministic_per_seed() {
    for kind in all_kinds() {
        let run = |seed: u64| {
            let sys = SimSystem::with_seed(kind, seed);
            let mut sheet = build_sheet(2_000, Variant::ValueOnly);
            vec![
                sys.countif(&mut sheet, FORMULA_COL_START, 2_000, "1").1,
                sys.sort(&mut sheet, KEY_COL),
                sys.vlookup(&mut sheet, 1_500.0, 2_000, 1, true).1,
            ]
        };
        assert_eq!(run(42), run(42), "{kind} deterministic under one seed");
    }
    // Sheets noise: different seeds give different times.
    let g1 = {
        let sys = SimSystem::with_seed(SystemKind::GSheets, 1);
        let mut sheet = build_sheet(2_000, Variant::ValueOnly);
        sys.countif(&mut sheet, FORMULA_COL_START, 2_000, "1").1
    };
    let g2 = {
        let sys = SimSystem::with_seed(SystemKind::GSheets, 2);
        let mut sheet = build_sheet(2_000, Variant::ValueOnly);
        sys.countif(&mut sheet, FORMULA_COL_START, 2_000, "1").1
    };
    assert_ne!(g1, g2, "noise varies across seeds");
    // …but stays within the documented bound.
    let base = 150.0 + 270.0 + 2_000.0 * 0.01 + 0.0011; // rtt + base + reads + eval
    for g in [g1, g2] {
        assert!((g - base).abs() / base < 0.04, "noise ≤ 3%: {g} vs {base}");
    }
}

#[test]
fn quotas_only_constrain_google_sheets() {
    for kind in all_kinds() {
        let sys = SimSystem::new(kind);
        match kind {
            SystemKind::GSheets => {
                assert_eq!(sys.max_rows(OpClass::Aggregate), Some(90_000));
                assert_eq!(sys.max_rows(OpClass::Sort), Some(50_000));
                assert_eq!(sys.max_rows(OpClass::FindReplace), Some(30_000));
                assert_eq!(sys.max_rows(OpClass::Shared), Some(30_000));
            }
            _ => {
                for op in ssbench::systems::ALL_OPS {
                    assert_eq!(sys.max_rows(op), None, "{kind} unlimited for {op}");
                }
            }
        }
    }
}

#[test]
fn recalc_policies_change_work_not_values() {
    // Conditional formatting with and without the recalc trigger yields
    // identical sheets; only the meter differs.
    let crit = Criterion::parse(&Value::Number(1.0));
    let mut excel_sheet = build_sheet(ROWS, Variant::FormulaValue);
    let mut calc_sheet = build_sheet(ROWS, Variant::FormulaValue);
    SimSystem::new(SystemKind::Excel).conditional_format(&mut excel_sheet, FORMULA_COL_START, &crit);
    SimSystem::new(SystemKind::Calc).conditional_format(&mut calc_sheet, FORMULA_COL_START, &crit);
    for r in 0..ROWS {
        for c in 0..NUM_COLS {
            let addr = CellAddr::new(r, c);
            assert_eq!(excel_sheet.value(addr), calc_sheet.value(addr));
            assert_eq!(excel_sheet.fill(addr), calc_sheet.fill(addr), "fill at {addr}");
        }
    }
}
