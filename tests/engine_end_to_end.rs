//! End-to-end engine scenarios: realistic multi-feature workflows a
//! downstream adopter would run, combining formulas, named ranges,
//! structural edits, operations, and persistence.

use ssbench::engine::io;
use ssbench::engine::prelude::*;

fn a(s: &str) -> CellAddr {
    CellAddr::parse(s).unwrap()
}

/// A small sales ledger used by several scenarios.
fn ledger() -> Sheet {
    let mut s = Sheet::new();
    for (i, (region, product, units, price)) in [
        ("east", "apple", 12, 1.5),
        ("west", "apple", 7, 1.5),
        ("east", "pear", 4, 2.0),
        ("south", "apple", 9, 1.4),
        ("west", "pear", 11, 2.1),
        ("east", "apple", 3, 1.6),
    ]
    .iter()
    .enumerate()
    {
        let r = i as u32;
        s.set_value(CellAddr::new(r, 0), *region);
        s.set_value(CellAddr::new(r, 1), *product);
        s.set_value(CellAddr::new(r, 2), *units as i64);
        s.set_value(CellAddr::new(r, 3), *price);
        s.set_formula_str(CellAddr::new(r, 4), &format!("=C{n}*D{n}", n = r + 1)).unwrap();
    }
    recalc::recalc_all(&mut s);
    s
}

#[test]
fn ledger_analysis_with_names_and_multi_criteria() {
    let mut s = ledger();
    s.define_name("Regions", Range::parse("A1:A6").unwrap()).unwrap();
    s.define_name("Products", Range::parse("B1:B6").unwrap()).unwrap();
    s.define_name("Revenue", Range::parse("E1:E6").unwrap()).unwrap();
    let east_apple = s
        .eval_str("=SUMIFS(Revenue,Regions,\"east\",Products,\"apple\")")
        .unwrap();
    assert_eq!(east_apple, Value::Number(12.0 * 1.5 + 3.0 * 1.6));
    let count = s.eval_str("=COUNTIFS(Regions,\"west\",Products,\"pear\")").unwrap();
    assert_eq!(count, Value::Number(1.0));
    let top = s.eval_str("=LARGE(Revenue,1)").unwrap();
    assert_eq!(top, Value::Number(23.1)); // west pear 11×2.1
}

#[test]
fn structural_edit_then_sort_then_totals_stay_consistent() {
    let mut s = ledger();
    s.set_formula_str(a("G1"), "=SUM(E1:E6)").unwrap();
    recalc::recalc_all(&mut s);
    let total_before = s.value(a("G1"));

    // Insert a new row in the middle and fill it in.
    s.apply(Op::InsertRows { at: 3, count: 1 }).unwrap();
    assert_eq!(s.input_text(a("G1")), "=SUM(E1:E7)");
    s.set_value(a("A4"), "north");
    s.set_value(a("B4"), "plum");
    s.set_value(a("C4"), 2);
    s.set_value(a("D4"), 3.0);
    s.set_formula_str(a("E4"), "=C4*D4").unwrap();
    recalc::recalc_all(&mut s);
    assert_eq!(
        s.value(a("G1")),
        Value::Number(total_before.as_number().unwrap() + 6.0)
    );

    // Sort by units; per-row revenue formulas move with their rows and
    // stay correct.
    s.apply(Op::Sort { keys: vec![SortKey::desc(2)] }).unwrap();
    recalc::recalc_all(&mut s);
    for r in 0..7u32 {
        let units = s.value(CellAddr::new(r, 2)).as_number().unwrap();
        let price = s.value(CellAddr::new(r, 3)).as_number().unwrap();
        let revenue = s.value(CellAddr::new(r, 4)).as_number().unwrap();
        assert!((revenue - units * price).abs() < 1e-9, "row {r}");
    }
    // The grand total is invariant under sorting.
    assert_eq!(
        s.value(a("G1")).as_number().unwrap(),
        total_before.as_number().unwrap() + 6.0
    );
}

#[test]
fn filter_pivot_and_clear_interplay() {
    let mut s = ledger();
    let criterion = Criterion::parse(&Value::text("east"));
    assert_eq!(s.apply(Op::Filter { col: 0, criterion }), Ok(OpOutcome::Filtered { visible: 3 }));
    // Pivot ignores the filter (as in the real systems: pivots read source
    // data, not the view).
    let p = pivot(&s, 0, 2, PivotAgg::Sum);
    assert_eq!(p.value_for(&Value::text("west")), Some(18.0));
    s.apply(Op::ClearFilter).unwrap();
    assert_eq!(s.visible_rows(), 6);
}

#[test]
fn workbook_save_load_preserves_cross_feature_state() {
    let mut data_sheet = ledger();
    data_sheet
        .apply(Op::CondFormat {
            range: Range::parse("C1:C6").unwrap(),
            criterion: Criterion::parse(&Value::text(">=9")),
            fill: Color::GREEN,
        })
        .unwrap();
    let mut summary = Sheet::new();
    summary.set_formula_str(a("A1"), "=1+1").unwrap();

    // Each sheet is saved as a document, written out as CSV, read back and
    // opened — the file formats of §3.3, one file per sheet.
    let restore = |sheet: &Sheet| {
        let csv = io::to_csv(&io::save(sheet));
        let mut back = io::open(&io::from_csv(&csv).unwrap(), Layout::RowMajor).unwrap();
        recalc::open_recalc(&mut back);
        back
    };
    let sheet = restore(&data_sheet);
    // Values and formulas round-trip (styles live outside SheetData — the
    // document model matches the paper's file formats, which the harness
    // re-applies formatting to).
    assert_eq!(sheet.value(a("E5")), Value::Number(23.1));
    assert!(sheet.is_formula(a("E5")));
    assert_eq!(restore(&summary).value(a("A1")), Value::Number(2.0));
}

#[test]
fn csv_export_import_round_trip_preserves_analysis() {
    let s = ledger();
    let csv = io::to_csv(&io::save(&s));
    let back = io::open(&io::from_csv(&csv).unwrap(), Layout::RowMajor).unwrap();
    let mut back = back;
    recalc::open_recalc(&mut back);
    assert_eq!(
        back.eval_str("=SUM(E1:E6)").unwrap(),
        s.eval_str("=SUM(E1:E6)").unwrap()
    );
}

#[test]
fn dates_and_lookups_compose() {
    let mut s = Sheet::new();
    // A schedule: serial dates and an XLOOKUP over them.
    for (i, day) in [1, 8, 15, 22].iter().enumerate() {
        s.set_formula_str(
            CellAddr::new(i as u32, 0),
            &format!("=DATE(2021,3,{day})"),
        )
        .unwrap();
        s.set_value(CellAddr::new(i as u32, 1), format!("week{}", i + 1));
    }
    recalc::recalc_all(&mut s);
    let v = s
        .eval_str("=XLOOKUP(DATE(2021,3,15),A1:A4,B1:B4)")
        .unwrap();
    assert_eq!(v, Value::text("week3"));
    // Approximate: a mid-week date falls back to the week's start.
    let v = s.eval_str("=XLOOKUP(DATE(2021,3,17),A1:A4,B1:B4,\"?\",-1)").unwrap();
    assert_eq!(v, Value::text("week3"));
    assert_eq!(s.eval_str("=WEEKDAY(A1)").unwrap(), Value::Number(2.0)); // 2021-03-01 Monday
}
