//! Differential test of the in-place structural edit against the rebuild
//! it replaced: read every cell out of the sheet, build a fresh sheet, and
//! replay every cell through the public setters, and every fill by its
//! address. The rebuild survives only here, as the reference.

use rand::Rng;

use super::{shift_coord, shift_expr, shift_range, Axis};
use crate::addr::{CellAddr, CellRef, Range};
use crate::cell::Cell;
use crate::formula::ast::RangeRef;
use crate::meter::Primitive;
use crate::ops::{Op, SortKey};
use crate::sheet::Sheet;
use crate::style::Color;
use crate::testing::cases;
use crate::value::{Criterion, Value};
use crate::{analyze, audit, recalc};

pub(crate) const BUDGET: usize = 32 * 1024;

/// The reference: what `restructure` did before it worked in place.
fn rebuilt(old: &Sheet, axis: Axis, at: u32, count: u32, insert: bool) -> Sheet {
    let (nrows, ncols) = (old.nrows(), old.ncols());
    let survivors = |extent: u32| {
        if insert {
            extent + count
        } else {
            extent - count.min(extent.saturating_sub(at))
        }
    };
    let (new_rows, new_cols) = match axis {
        Axis::Row => (survivors(nrows), ncols),
        Axis::Col => (nrows, survivors(ncols)),
    };
    let mut fresh = Sheet::with_size(new_rows, new_cols);
    fresh.ensure_size(new_rows.max(1), new_cols.max(1)).unwrap();
    fresh.set_lookup_strategy(old.lookup_strategy());
    fresh.set_now_serial(old.now_serial());
    fresh.set_grid_budget(old.grid_budget());
    fresh.set_auto_index(old.auto_index());
    let shift_row = |r: u32| match axis {
        Axis::Row => shift_coord(r, at, count, insert),
        Axis::Col => Some(r),
    };
    let shift_col = |c: u32| match axis {
        Axis::Row => Some(c),
        Axis::Col => shift_coord(c, at, count, insert),
    };
    // An auto-indexed sheet has every column registered once it has been
    // recalculated; the replay below drops the formula columns again.
    if old.auto_index() {
        (0..ncols).filter_map(shift_col).for_each(|c| fresh.register_index(c));
    }
    for r in (0..nrows).filter(|&r| old.is_row_hidden(r)) {
        if let Some(r) = shift_row(r) {
            fresh.set_row_hidden(r, true);
        }
    }
    for name in old.names() {
        let range = old.name_range(name).expect("listed name resolves");
        let range = RangeRef {
            start: CellRef::absolute(range.start),
            end: CellRef::absolute(range.end),
        };
        if let Some(moved) = shift_range(range, axis, at, count, insert) {
            fresh.define_name(name, moved.range()).expect("existing name stays valid");
        }
    }
    fresh.meter().absorb(&old.meter().snapshot());
    for r in 0..nrows {
        for c in 0..ncols {
            let (Some(nr), Some(nc)) = (shift_row(r), shift_col(c)) else { continue };
            let (from, to) = (CellAddr::new(r, c), CellAddr::new(nr, nc));
            if let Some(fill) = old.fill(from) {
                fresh.grid_store_mut().restyle(to.col, to.row, to.row, |_, _| Some(fill));
            }
            let cell = old.cell(from).expect("inside the extent");
            if cell.is_vacant() && from == to {
                continue;
            }
            fresh.meter().tick(Primitive::CellMove);
            match cell.into_cell() {
                Cell::Formula(mut f) => {
                    shift_expr(&mut f.expr, axis, at, count, insert);
                    fresh.set_formula(to, f.expr).unwrap();
                    fresh.store_formula_result(to, f.cached);
                }
                Cell::Value(v) => {
                    if !v.is_empty() {
                        fresh.set_value(to, v);
                    }
                }
            }
        }
    }
    fresh
}

/// A sheet whose columns cover every segment kind over three chunks, with
/// fills, an active filter, named ranges and a live auto-index.
pub(crate) fn build(budget: Option<usize>) -> Sheet {
    const ROWS: u32 = 2600;
    let mut s = Sheet::new();
    s.set_grid_budget(budget);
    for r in 0..ROWS {
        if r % 97 != 13 {
            s.set_value(CellAddr::new(r, 0), f64::from(r) * 0.5); // A: numbers, with holes
        }
        if r % 89 != 7 {
            s.set_value(CellAddr::new(r, 1), format!("t{}", r % 13)); // B: text, with holes
        }
        s.set_value(CellAddr::new(r, 2), i64::from(r % 5)); // C: the filter column
        match r / 1024 {
            // D: a number chunk, a text chunk, a chunk of bools.
            0 => s.set_value(CellAddr::new(r, 3), i64::from(r)),
            1 => s.set_value(CellAddr::new(r, 3), format!("d{r}")),
            _ => s.set_value(CellAddr::new(r, 3), r % 2 == 0),
        }
    }
    // E: a dense chunk of fill-down formulas running on into a sparse one.
    for r in 0..1200 {
        s.set_formula_str(CellAddr::new(r, 4), &format!("=A{}*2", r + 1)).unwrap();
    }
    s.define_name("Data", Range::parse("A1:A2600").unwrap()).unwrap();
    s.define_name("Tail", Range::parse("B2000:B2100").unwrap()).unwrap();
    s.define_name("Spot", Range::parse("C1025").unwrap()).unwrap();
    // F: a handful of scattered formulas of every reference shape. The
    // last three sit at the edges a program binding must not outlive: an
    // absolute row every insert above it renumbers, a far-away relative
    // window that stays before an edit which moves its formula, and a
    // previous-row reference on the last row, which the descending sort
    // carries to row 1 and off the sheet (`#REF!`).
    for (row, src) in [
        (0, "=SUM($A$1:$A$2600)"),
        (1, "=COUNTIF(C1:C2600,3)"),
        (2, "=SUM(A1000:A1100)"),
        (3, "=$B$1025"),
        (4, "=VLOOKUP(3,C1:D2600,2,FALSE)"),
        (1030, "=A1031+C1"),
        (2000, "=SUM(Data)+Spot"),
        (5, "=$A$2000*2"),
        (2500, "=A3*2"),
        (2599, "=A2599+1"),
    ] {
        s.set_formula_str(CellAddr::new(row, 5), src).unwrap();
    }
    // Fills: over the tail of A (its chunks stay typed) and on one cell
    // with no content.
    s.apply(Op::CondFormat {
        range: Range::parse("A1:A2600").unwrap(),
        criterion: Criterion::parse(&Value::text(">1280")),
        fill: Color::GREEN,
    })
    .unwrap();
    s.grid_store_mut().restyle(5, 1500, 1500, |_, _| Some(Color::GREEN));
    s.apply(Op::Filter { col: 2, criterion: Criterion::parse(&Value::Number(3.0)) }).unwrap();
    s.set_auto_index(true);
    recalc::recalc_all(&mut s);
    s
}

/// Everything observable about the two sheets must agree, and the sheet
/// edited in place must satisfy every invariant checker.
pub(crate) fn compare(got: &Sheet, want: &Sheet, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{}: extent", what);
    for r in 0..got.nrows() {
        assert_eq!(got.is_row_hidden(r), want.is_row_hidden(r), "{}: hidden flag {}", what, r);
        for c in 0..got.ncols() {
            let addr = CellAddr::new(r, c);
            let (g, w) = (got.cell(addr).unwrap(), want.cell(addr).unwrap());
            // Content covers the value, the formula and its cached result.
            assert_eq!(&*g, &*w, "{}: cell {}", what, addr);
            assert_eq!(got.fill(addr), want.fill(addr), "{}: fill {}", what, addr);
            assert_eq!(got.value(addr), want.value(addr), "{}: value {}", what, addr);
            if g.is_formula() {
                assert_eq!(got.input_text(addr), want.input_text(addr), "{}: {}", what, addr);
            }
        }
    }
    assert_eq!(got.visible_rows(), want.visible_rows(), "{}: visible rows", what);
    assert_eq!(got.names(), want.names(), "{}: names", what);
    for name in got.names() {
        assert_eq!(got.name_range(name), want.name_range(name), "{}: name {}", what, name);
    }
    assert_eq!(got.formula_count(), want.formula_count(), "{}: formulas", what);
    assert_eq!(got.meter().snapshot(), want.meter().snapshot(), "{}: meter", what);
    assert_eq!(
        got.index_store().built_count(),
        want.index_store().built_count(),
        "{}: built indexes",
        what
    );
    got.validate_grid();
    if let Err(e) = audit::check_all(got) {
        panic!("{what}: audit: {e}");
    }
    if let Err(e) = analyze::check_sheet(got) {
        panic!("{what}: analyze: {e}");
    }
    if let Some(budget) = got.grid_budget() {
        assert!(got.grid_resident_bytes() <= budget, "{}: resident over budget", what);
    }
}

/// Sequences of structural edits, each checked against the rebuild of the
/// sheet as it stood just before the edit: `at` at the start, mid chunk,
/// around the first chunk boundary, on the last line and past the extent;
/// counts that carry slots zero, one and many chunks.
#[test]
fn in_place_edits_match_the_rebuild() {
    cases(|rng| {
        let (capped, sort_first): (bool, bool) = (rng.random(), rng.random());
        let mut sheet = build(capped.then_some(BUDGET));
        if capped {
            assert!(sheet.grid_spill_stats().spills > 0, "the capped sheet must spill");
        }
        if sort_first {
            // Reverse the rows, so the edits below meet formulas a sort has
            // moved: bindings that rode it, and the ones it had to clear.
            sheet.apply(Op::Sort { keys: vec![SortKey::desc(0)] }).unwrap();
            assert_eq!(sheet.input_text(CellAddr::new(0, 5)), "=#REF!+1");
            if let Err(e) = analyze::check_sheet(&sheet) {
                panic!("capped={capped} sort: {e}");
            }
            recalc::recalc_all(&mut sheet);
        }
        for _ in 0..rng.random_range(1..4) {
            // Wide sheets make the cell-by-cell reference crawl.
            if sheet.ncols() > 64 {
                break;
            }
            let (on_rows, insert): (bool, bool) = (rng.random(), rng.random());
            let (axis, extent) = if on_rows {
                (Axis::Row, sheet.nrows())
            } else {
                (Axis::Col, sheet.ncols())
            };
            let at = [0, extent / 2, 1023, 1024, 1025, extent - 1, extent + 40]
                [rng.random_range(0..7usize)];
            let count = [1, 1023, 1024, 1025][rng.random_range(0..4usize)];
            let op = match (axis, insert) {
                (Axis::Row, true) => Op::InsertRows { at, count },
                (Axis::Row, false) => Op::DeleteRows { at, count },
                (Axis::Col, true) => Op::InsertCols { at, count },
                (Axis::Col, false) => Op::DeleteCols { at, count },
            };
            let what = format!("capped={capped} {op:?}");
            let mut want = rebuilt(&sheet, axis, at, count, insert);
            sheet.apply(op).unwrap();
            compare(&sheet, &want, &what);
            // The next recalculation rebuilds the demoted indexes and
            // rebinds the formulas whose binding the edit cleared: same
            // values, same charges.
            recalc::recalc_all(&mut sheet);
            recalc::recalc_all(&mut want);
            compare(&sheet, &want, &format!("{what}, recalculated"));
        }
    });
}
