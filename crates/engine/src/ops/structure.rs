//! Structural edits: inserting and deleting whole rows or columns, with
//! the reference-rewriting semantics of the real systems (references at or
//! past the insertion point shift; references *into* a deleted row/column
//! become `#REF!`).
//!
//! These are the edits §6 warns make naive indexes fragile: "indexing may
//! be problematic if it explicitly uses or encodes the row or column
//! number, because a single change (adding a row) can lead to an update of
//! the entire index."

use crate::addr::{CellAddr, CellRef};
use crate::error::{CellError, EngineError};
use crate::formula::ast::{Expr, RangeRef};
use crate::formula::r1c1::{RangeSpec, RefSpec};
use crate::grid::{MAX_COLS, MAX_ROWS};
use crate::meter::Primitive;
use crate::ops::OpOutcome;
use crate::sheet::Sheet;

/// Which axis a structural edit operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Row,
    Col,
}

/// How one coordinate responds to an insertion/deletion at `at`. The
/// arithmetic saturates: a reference may name a line far past the engine
/// limits, and `count` is unchecked on deletes.
pub(crate) fn shift_coord(coord: u32, at: u32, count: u32, insert: bool) -> Option<u32> {
    if insert {
        Some(if coord >= at { coord.saturating_add(count) } else { coord })
    } else if coord < at {
        Some(coord)
    } else if coord < at.saturating_add(count) {
        None // inside the deleted band
    } else {
        Some(coord - count)
    }
}

/// Rewrites one reference for a structural edit; `None` = `#REF!`.
fn shift_ref(r: CellRef, axis: Axis, at: u32, count: u32, insert: bool) -> Option<CellRef> {
    let addr = match axis {
        Axis::Row => CellAddr::new(shift_coord(r.addr.row, at, count, insert)?, r.addr.col),
        Axis::Col => CellAddr::new(r.addr.row, shift_coord(r.addr.col, at, count, insert)?),
    };
    Some(CellRef { addr, ..r })
}

/// Rewrites a range reference. A range whose endpoints both die is
/// `#REF!`; a range clipped on one side shrinks to the surviving part
/// (the real systems' behaviour).
fn shift_range(r: RangeRef, axis: Axis, at: u32, count: u32, insert: bool) -> Option<RangeRef> {
    let start = shift_ref(r.start, axis, at, count, insert);
    let end = shift_ref(r.end, axis, at, count, insert);
    match (start, end) {
        (Some(s), Some(e)) => Some(RangeRef { start: s, end: e }),
        (None, None) => None,
        // Clip the dead endpoint to the edge of the deleted band.
        (Some(s), None) => {
            let mut e = r.end;
            match axis {
                Axis::Row => e.addr.row = at.saturating_sub(1).max(s.addr.row),
                Axis::Col => e.addr.col = at.saturating_sub(1).max(s.addr.col),
            }
            let e = shift_ref(e, axis, at, count, insert)?;
            Some(RangeRef { start: s, end: e })
        }
        (None, Some(e)) => {
            let mut s = r.start;
            let band_end = at.saturating_add(count);
            match axis {
                Axis::Row => s.addr.row = band_end.min(e.addr.row.saturating_add(count)),
                Axis::Col => s.addr.col = band_end.min(e.addr.col.saturating_add(count)),
            }
            let s = shift_ref(s, axis, at, count, insert)?;
            Some(RangeRef { start: s, end: e })
        }
    }
}

/// Rewrites every reference of the formula at `old`, which the edit moves
/// to `new`, in place. Returns whether the rewrite changed the formula's
/// template key: a reference died, or its R1C1 spelling at `new` is not
/// the one it had at `old`. A reference before `at` is left as it is.
fn shift_expr(
    expr: &mut Expr,
    old: CellAddr,
    new: CellAddr,
    axis: Axis,
    at: u32,
    count: u32,
    insert: bool,
) -> bool {
    let shift = |e: &mut Expr| shift_expr(e, old, new, axis, at, count, insert);
    match expr {
        Expr::Ref(r) => match shift_ref(*r, axis, at, count, insert) {
            Some(adj) => {
                let changed = RefSpec::from_ref(*r, old) != RefSpec::from_ref(adj, new);
                *r = adj;
                changed
            }
            None => {
                *expr = Expr::Error(CellError::Ref);
                true
            }
        },
        Expr::RangeRef(r) => match shift_range(*r, axis, at, count, insert) {
            Some(adj) => {
                let changed = RangeSpec::from_range(r, old) != RangeSpec::from_range(&adj, new);
                *r = adj;
                changed
            }
            None => {
                *expr = Expr::Error(CellError::Ref);
                true
            }
        },
        Expr::Unary(_, e) => shift(e),
        Expr::Binary(_, a, b) => shift(a) | shift(b),
        Expr::Call(_, args) => args.iter_mut().fold(false, |changed, arg| shift(arg) | changed),
        Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::Error(_) => false,
    }
}

/// Applies a structural edit to the whole sheet, in place: the grid shifts
/// its typed chunks, and everything else the sheet keys by coordinate —
/// formula references and program bindings, named ranges, filter flags,
/// column indexes, the dependency graph — follows.
///
/// The meter is charged what moving the sheet cell by cell costs: one
/// `CellMove` per relocated slot (occupied or not) and per occupied cell
/// that stays put, one `CellWrite` per occupied cell that survives —
/// exactly the O(total cells) cost that makes row-number-encoding indexes
/// expensive to maintain (§6).
///
/// An insert that would push the extent past the engine limits is
/// [`EngineError::OutOfBounds`], decided before anything is touched.
pub(crate) fn restructure(
    sheet: &mut Sheet,
    axis: Axis,
    at: u32,
    count: u32,
    insert: bool,
) -> Result<OpOutcome, EngineError> {
    let (nrows, ncols) = (sheet.nrows(), sheet.ncols());
    if count == 0 || nrows == 0 || ncols == 0 {
        return Ok(OpOutcome::Restructured);
    }
    if insert {
        let (rows, cols) = match axis {
            Axis::Row => (nrows.saturating_add(count), ncols),
            Axis::Col => (nrows, ncols.saturating_add(count)),
        };
        if rows > MAX_ROWS || cols > MAX_COLS {
            return Err(EngineError::OutOfBounds { rows, cols });
        }
    }

    // Formulas, still at their old addresses: rewrite the references, and
    // clear the program binding exactly when that changed the template
    // key. The grid shift below then carries expression and binding to
    // the new address together.
    let formulas: Vec<CellAddr> = sheet.deps().formula_addrs().collect();
    for old in formulas {
        let Some(new) = shift_ref(CellRef::absolute(old), axis, at, count, insert).map(|r| r.addr)
        else {
            continue; // deleted with its line
        };
        let formula =
            sheet.grid_store_mut().formula_mut(old).expect("registered formula is in the grid");
        if shift_expr(&mut formula.expr, old, new, axis, at, count, insert) {
            formula.unbind();
        }
    }

    // Column indexes move with their lines instead of being rebuilt: a
    // row edit shifts every built index's postings, a column edit re-keys
    // the indexes with their columns. The cell moves charged below price
    // the remap.
    match axis {
        Axis::Row => sheet.shift_index_rows(at, count, insert),
        Axis::Col => sheet.remap_index_cols(|col| shift_coord(col, at, count, insert)),
    }

    let grid = sheet.grid_store_mut();
    let counts = match (axis, insert) {
        (Axis::Row, true) => grid.insert_rows(at, count),
        (Axis::Row, false) => grid.delete_rows(at, count),
        (Axis::Col, true) => grid.insert_cols(at, count),
        (Axis::Col, false) => grid.delete_cols(at, count),
    };
    // Deleting every line still leaves a 1 × 1 sheet.
    sheet.ensure_size(1, 1)?;

    // An active filter rides the edit like the cells do: row edits shift
    // the flags past the band (inserted rows are visible, deleted rows
    // take their flags with them), column edits leave them alone. Rows
    // past the last flag read as visible, so an edit at or beyond it —
    // every edit of an unfiltered sheet — leaves the vector untouched.
    let hidden = sheet.hidden_flags_mut();
    let lo = at as usize;
    if axis == Axis::Row && lo < hidden.len() {
        if insert {
            hidden.splice(lo..lo, std::iter::repeat_n(false, count as usize));
        } else {
            hidden.drain(lo..lo.saturating_add(count as usize).min(hidden.len()));
        }
    }
    // Named ranges move like absolute references do: shifted, clipped, and
    // gone once their whole range is deleted.
    sheet.remap_names(|range| {
        let range = RangeRef {
            start: CellRef::absolute(range.start),
            end: CellRef::absolute(range.end),
        };
        shift_range(range, axis, at, count, insert).map(|r| r.range())
    });
    sheet.rebuild_deps();

    let band_end = if insert { at } else { at.saturating_add(count) };
    let (lines, width) = match axis {
        Axis::Row => (nrows, ncols),
        Axis::Col => (ncols, nrows),
    };
    let relocated = u64::from(lines.saturating_sub(band_end)) * u64::from(width);
    sheet.meter().bump(Primitive::CellMove, counts.kept + relocated);
    sheet.meter().bump(Primitive::CellWrite, counts.kept + counts.moved);
    Ok(OpOutcome::Restructured)
}

#[cfg(test)]
pub(crate) mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::recalc;
    use crate::value::Value;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn sample() -> Sheet {
        let mut s = Sheet::new();
        for i in 0..5u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1)); // A: 1..5
        }
        s.set_formula_str(a("B1"), "=SUM(A1:A5)").unwrap();
        s.set_formula_str(a("B2"), "=A3*10").unwrap();
        s.set_formula_str(a("B5"), "=$A$5").unwrap();
        recalc::recalc_all(&mut s);
        s
    }

    #[test]
    fn insert_rows_shifts_data_and_references() {
        let mut s = sample();
        s.apply(Op::InsertRows { at: 2, count: 1 }).unwrap(); // blank row before row 3
        assert_eq!(s.value(a("A2")), Value::Number(2.0));
        assert_eq!(s.value(a("A3")), Value::Empty); // the new blank row
        assert_eq!(s.value(a("A4")), Value::Number(3.0));
        // SUM(A1:A5) widened to A1:A6; A3*10 became A4*10; the absolute
        // formula moved from B5 to B6 with its reference shifted.
        assert_eq!(s.input_text(a("B1")), "=SUM(A1:A6)");
        assert_eq!(s.input_text(a("B2")), "=A4*10");
        assert_eq!(s.input_text(a("B6")), "=$A$6");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("B1")), Value::Number(15.0));
        assert_eq!(s.value(a("B2")), Value::Number(30.0));
        assert_eq!(s.value(a("B6")), Value::Number(5.0));
    }

    #[test]
    fn delete_row_clips_ranges_and_breaks_direct_refs() {
        let mut s = sample();
        s.apply(Op::DeleteRows { at: 2, count: 1 }).unwrap(); // delete row 3 (value 3)
        assert_eq!(s.value(a("A3")), Value::Number(4.0));
        assert_eq!(s.nrows(), 4);
        // The range shrinks; the direct reference to the deleted row dies.
        assert_eq!(s.input_text(a("B1")), "=SUM(A1:A4)");
        assert_eq!(s.input_text(a("B2")), "=#REF!*10");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("B1")), Value::Number(12.0)); // 1+2+4+5
        assert_eq!(s.value(a("B2")), Value::Error(CellError::Ref));
        // The absolute formula moved up from B5 to B4, reference shifted.
        assert_eq!(s.input_text(a("B4")), "=$A$4");
        assert_eq!(s.value(a("B4")), Value::Number(5.0));
    }

    #[test]
    fn delete_rows_containing_formulas_removes_them() {
        let mut s = sample();
        let before = s.formula_count();
        s.apply(Op::DeleteRows { at: 0, count: 2 }).unwrap(); // rows 1–2 hold B1 and B2
        assert_eq!(s.formula_count(), before - 2);
        assert!(s.is_formula(a("B3"))); // old B5 moved up two rows
        assert_eq!(s.input_text(a("B3")), "=$A$3");
    }

    #[test]
    fn insert_cols_shifts_columns() {
        let mut s = sample();
        s.apply(Op::InsertCols { at: 0, count: 2 }).unwrap();
        assert_eq!(s.value(a("C1")), Value::Number(1.0));
        assert_eq!(s.input_text(a("D1")), "=SUM(C1:C5)");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("D1")), Value::Number(15.0));
    }

    #[test]
    fn delete_col_kills_dependent_formulas() {
        let mut s = sample();
        s.apply(Op::DeleteCols { at: 0, count: 1 }).unwrap(); // delete column A
        // Formulas moved into column A; everything referenced A → #REF!.
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("A1")), Value::Error(CellError::Ref));
        assert_eq!(s.value(a("A2")), Value::Error(CellError::Ref));
        assert_eq!(s.ncols(), 1);
    }

    #[test]
    fn range_clipped_from_the_top() {
        let mut s = Sheet::new();
        for i in 0..4u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.set_formula_str(a("C1"), "=SUM(A2:A4)").unwrap();
        s.apply(Op::DeleteRows { at: 1, count: 1 }).unwrap(); // delete row 2, the range's first row
        assert_eq!(s.input_text(a("C1")), "=SUM(A2:A3)");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C1")), Value::Number(7.0)); // 3+4
    }

    #[test]
    fn whole_range_deleted_is_ref_error() {
        let mut s = Sheet::new();
        s.set_value(a("A2"), 5);
        s.set_formula_str(a("C1"), "=SUM(A2:A2)").unwrap();
        s.apply(Op::DeleteRows { at: 1, count: 1 }).unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn structural_edit_charges_cell_moves() {
        let mut s = sample();
        let before = s.meter().snapshot();
        s.apply(Op::InsertRows { at: 0, count: 1 }).unwrap();
        let d = s.meter().snapshot().since(&before);
        // Every non-vacant cell relocated — the §6 index-maintenance cost.
        assert!(d.get(Primitive::CellMove) >= 8);
    }

    #[test]
    fn noop_edits() {
        let mut s = sample();
        let snapshot = crate::io::save(&s);
        s.apply(Op::InsertRows { at: 3, count: 0 }).unwrap();
        s.apply(Op::DeleteRows { at: 99, count: 1 }).unwrap();
        assert_eq!(crate::io::save(&s), snapshot);
    }

    #[test]
    fn oversized_inserts_are_rejected_with_the_sheet_unchanged() {
        use crate::grid::{MAX_COLS, MAX_ROWS};

        let mut s = sample();
        s.define_name("Data", crate::addr::Range::parse("A1:A5").unwrap()).unwrap();
        s.set_row_hidden(1, true);
        let saved = crate::io::save(&s);
        let meter = s.meter().snapshot();
        for op in [
            Op::InsertRows { at: 0, count: MAX_ROWS },
            Op::InsertRows { at: 2, count: u32::MAX },
            Op::InsertRows { at: 99, count: MAX_ROWS - 4 },
            Op::InsertCols { at: 0, count: MAX_COLS },
            Op::InsertCols { at: 1, count: u32::MAX },
            Op::InsertCols { at: 99, count: MAX_COLS - 1 },
        ] {
            let err = s.apply(op.clone()).unwrap_err();
            assert!(matches!(err, EngineError::OutOfBounds { .. }), "{op:?}: {err:?}");
            assert_eq!(crate::io::save(&s), saved, "{op:?} touched the sheet");
            assert_eq!((s.nrows(), s.ncols()), (5, 2), "{op:?}");
            assert_eq!(s.formula_count(), 3, "{op:?}");
            assert!(s.is_row_hidden(1), "{op:?}");
            assert_eq!(s.meter().snapshot(), meter, "{op:?} charged the meter");
        }
        assert_eq!(s.eval_str("=SUM(Data)").unwrap(), Value::Number(15.0));
        // The largest inserts that fit are fine, and deletes of any count
        // only clamp.
        s.apply(Op::InsertRows { at: 5, count: MAX_ROWS - 5 }).unwrap();
        s.apply(Op::InsertCols { at: 2, count: MAX_COLS - 2 }).unwrap();
        assert_eq!((s.nrows(), s.ncols()), (MAX_ROWS, MAX_COLS));
        s.apply(Op::DeleteRows { at: 5, count: u32::MAX }).unwrap();
        s.apply(Op::DeleteCols { at: 2, count: u32::MAX }).unwrap();
        assert_eq!((s.nrows(), s.ncols()), (5, 2));
        assert_eq!(crate::io::save(&s), saved);
    }

    #[test]
    fn named_ranges_move_with_structural_edits() {
        let range = |s: &str| crate::addr::Range::parse(s).unwrap();
        // Rows: `Data` = A1:A5 over 1..5.
        let named = || {
            let mut s = sample();
            s.define_name("Data", range("A1:A5")).unwrap();
            s
        };
        let mut s = named();
        s.apply(Op::InsertRows { at: 0, count: 2 }).unwrap();
        assert_eq!(s.name_range("Data"), Some(range("A3:A7")));
        assert_eq!(s.eval_str("=SUM(Data)").unwrap(), Value::Number(15.0));
        s.apply(Op::InsertRows { at: 4, count: 1 }).unwrap(); // inside: the name widens
        assert_eq!(s.name_range("Data"), Some(range("A3:A8")));
        assert_eq!(s.eval_str("=SUM(Data)").unwrap(), Value::Number(15.0));

        let mut s = named();
        s.apply(Op::DeleteRows { at: 3, count: 5 }).unwrap(); // clips the tail: 4 and 5 die
        assert_eq!(s.name_range("Data"), Some(range("A1:A3")));
        assert_eq!(s.eval_str("=SUM(Data)").unwrap(), Value::Number(6.0));
        s.apply(Op::DeleteRows { at: 0, count: 1 }).unwrap(); // clips the head
        assert_eq!(s.name_range("Data"), Some(range("A1:A2")));
        assert_eq!(s.eval_str("=SUM(Data)").unwrap(), Value::Number(5.0));

        let mut s = named();
        s.apply(Op::DeleteRows { at: 0, count: 5 }).unwrap(); // the whole range dies
        assert_eq!(s.name_range("Data"), None);
        assert!(s.names().is_empty());
        assert!(s.eval_str("=SUM(Data)").is_err());

        // Columns: `Wide` = B1:D1 over 2, 3, 4.
        let named = || {
            let mut s = Sheet::new();
            for c in 0..5u32 {
                s.set_value(CellAddr::new(0, c), i64::from(c + 1));
            }
            s.define_name("Wide", range("B1:D1")).unwrap();
            s
        };
        let mut s = named();
        s.apply(Op::InsertCols { at: 1, count: 3 }).unwrap();
        assert_eq!(s.name_range("Wide"), Some(range("E1:G1")));
        assert_eq!(s.eval_str("=SUM(Wide)").unwrap(), Value::Number(9.0));

        let mut s = named();
        s.apply(Op::DeleteCols { at: 0, count: 2 }).unwrap(); // A and B: clips the head
        assert_eq!(s.name_range("Wide"), Some(range("A1:B1")));
        assert_eq!(s.eval_str("=SUM(Wide)").unwrap(), Value::Number(7.0));

        let mut s = named();
        s.apply(Op::DeleteCols { at: 1, count: 3 }).unwrap();
        assert_eq!(s.name_range("Wide"), None);
        assert!(s.eval_str("=SUM(Wide)").is_err());
    }

    #[test]
    fn restructure_preserves_options() {
        use crate::eval::LookupStrategy;

        let mut s = Sheet::new();
        let lookup = LookupStrategy::StopEarly;
        s.set_lookup_strategy(lookup);
        s.set_now_serial(44_000.5);
        for i in 0..4u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.set_formula_str(a("B1"), "=SUM(A1:A4)").unwrap();
        s.define_name("Data", crate::addr::Range::parse("A1:A4").unwrap()).unwrap();
        s.set_row_hidden(0, true);

        for (i, edit) in [
            Op::InsertRows { at: 1, count: 2 },
            Op::DeleteRows { at: 1, count: 1 },
            Op::InsertCols { at: 0, count: 1 },
            Op::DeleteCols { at: 0, count: 1 },
        ]
        .into_iter()
        .enumerate()
        {
            s.apply(edit).unwrap();
            assert_eq!(s.lookup_strategy(), lookup, "edit #{i} reset the lookup strategy");
            assert_eq!(s.now_serial(), 44_000.5, "edit #{i} reset the clock");
            assert!(s.name_range("Data").is_some(), "edit #{i} dropped named ranges");
            assert!(s.is_row_hidden(0), "edit #{i} cleared the filter");
            assert_eq!(s.visible_rows(), s.nrows() - 1, "edit #{i} changed the filter");
        }
        recalc::recalc_all(&mut s);
        // The formula rode along: row edits at row 2 left B1 in place, and
        // the column insert/delete pair cancelled out.
        assert_eq!(s.value(a("B1")), Value::Number(10.0)); // 1+2+3+4 intact
    }

    #[test]
    fn structural_edits_keep_an_active_filter() {
        use crate::value::Criterion;

        // A: 1..6; the filter keeps the even rows (2, 4, 6) visible.
        let filtered = || {
            let mut s = Sheet::new();
            for i in 0..6u32 {
                s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
                s.set_value(CellAddr::new(i, 1), i64::from(i % 2));
            }
            let criterion = Criterion::parse(&Value::Number(1.0));
            s.apply(Op::Filter { col: 1, criterion }).unwrap();
            assert_eq!(s.visible_rows(), 3);
            s
        };
        let hidden_values = |s: &Sheet, col: u32| -> Vec<Value> {
            (0..s.nrows())
                .filter(|&r| s.is_row_hidden(r))
                .map(|r| s.value(CellAddr::new(r, col)))
                .collect()
        };
        let odd: Vec<Value> = [1, 3, 5].map(|n| Value::Number(f64::from(n))).to_vec();

        // Column edits keep the flags verbatim.
        let mut s = filtered();
        s.apply(Op::InsertCols { at: 1, count: 1 }).unwrap();
        assert_eq!(s.visible_rows(), 3);
        assert_eq!(hidden_values(&s, 0), odd);
        s.apply(Op::DeleteCols { at: 1, count: 1 }).unwrap();
        assert_eq!(s.visible_rows(), 3);
        assert_eq!(hidden_values(&s, 0), odd);

        // Inserted rows are visible; flags past the band shift with their rows.
        let mut s = filtered();
        s.apply(Op::InsertRows { at: 2, count: 2 }).unwrap();
        assert_eq!((s.nrows(), s.visible_rows()), (8, 5));
        assert_eq!(hidden_values(&s, 0), odd);
        // At the tail nothing shifts.
        s.apply(Op::InsertRows { at: 8, count: 1 }).unwrap();
        assert_eq!((s.nrows(), s.visible_rows()), (9, 6));
        assert_eq!(hidden_values(&s, 0), odd);

        // A deleted band takes its flags with it: rows 2–3 (values 2, 3) die.
        let mut s = filtered();
        s.apply(Op::DeleteRows { at: 1, count: 2 }).unwrap();
        assert_eq!((s.nrows(), s.visible_rows()), (4, 2));
        assert_eq!(hidden_values(&s, 0), [Value::Number(1.0), Value::Number(5.0)]);
        // A band running off the end is clamped like the rows are.
        s.apply(Op::DeleteRows { at: 3, count: 10 }).unwrap();
        assert_eq!((s.nrows(), s.visible_rows()), (3, 1));

        // No filter, no flags: unfiltered edits leave the vector empty.
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.apply(Op::InsertRows { at: 0, count: 1 }).unwrap();
        assert!(s.hidden_flags_mut().is_empty());
    }

    /// Builds 6 values in column A plus `C1 = SUM(A2:A5)`, deletes
    /// `count` rows at `at`, and returns the rewritten formula text and
    /// its recalculated value.
    fn delete_against_sum(at: u32, count: u32) -> (String, Value) {
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1)); // A: 1..6
        }
        s.set_formula_str(a("C1"), "=SUM(A2:A5)").unwrap(); // 2+3+4+5 = 14
        s.apply(Op::DeleteRows { at, count }).unwrap();
        recalc::recalc_all(&mut s);
        (s.input_text(a("C1")), s.value(a("C1")))
    }

    #[test]
    fn multi_row_delete_straddling_range_start() {
        // Rows 1–3 (A1..A3) die: the range loses A2, A3 and slides up.
        // The formula sits at C6 so it survives the band and moves to C3.
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.set_formula_str(a("C6"), "=SUM(A2:A5)").unwrap();
        s.apply(Op::DeleteRows { at: 0, count: 3 }).unwrap();
        assert_eq!(s.input_text(a("C3")), "=SUM(A1:A2)"); // the surviving 4, 5
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C3")), Value::Number(9.0));
    }

    #[test]
    fn multi_row_delete_straddling_range_end() {
        // Rows 4–6 (A4..A6) die: the range keeps A2, A3.
        let (text, v) = delete_against_sum(3, 3);
        assert_eq!(text, "=SUM(A2:A3)");
        assert_eq!(v, Value::Number(5.0));
    }

    #[test]
    fn multi_row_delete_interior_shrinks_range() {
        // Rows 3–4 (A3, A4) die from the middle of A2:A5.
        let (text, v) = delete_against_sum(2, 2);
        assert_eq!(text, "=SUM(A2:A3)"); // survivors 2, 5
        assert_eq!(v, Value::Number(7.0));
    }

    #[test]
    fn multi_row_delete_covering_whole_range_is_ref() {
        // Rows 2–5 (A2..A5) die: the entire range is gone.
        let (text, v) = delete_against_sum(1, 4);
        assert_eq!(text, "=SUM(#REF!)");
        assert_eq!(v, Value::Error(CellError::Ref));
    }

    #[test]
    fn multi_row_delete_superset_of_range_is_ref() {
        // Rows 1–6 would delete the formula too; delete 2–6 instead: the
        // deleted band strictly contains the range plus a margin.
        let (text, v) = delete_against_sum(1, 5);
        assert_eq!(text, "=SUM(#REF!)");
        assert_eq!(v, Value::Error(CellError::Ref));
    }

    #[test]
    fn delete_at_row_zero_clips_range_start() {
        // `at = 0` exercises the `at.saturating_sub(1)` clip edge.
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.set_formula_str(a("C6"), "=SUM(A1:A4)").unwrap();
        s.apply(Op::DeleteRows { at: 0, count: 2 }).unwrap(); // rows 1–2 die; range becomes A1:A2
        assert_eq!(s.input_text(a("C4")), "=SUM(A1:A2)");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C4")), Value::Number(7.0)); // 3+4
    }

    #[test]
    fn multi_col_delete_clips_column_ranges() {
        // Mirror of the row cases on the column axis: SUM(B1:E1) with
        // columns C–D deleted shrinks to the surviving B, E.
        let mut s = Sheet::new();
        for c in 0..6u32 {
            s.set_value(CellAddr::new(0, c), i64::from(c + 1)); // A1..F1: 1..6
        }
        s.set_formula_str(a("A3"), "=SUM(B1:E1)").unwrap(); // 2+3+4+5
        s.apply(Op::DeleteCols { at: 2, count: 2 }).unwrap(); // delete C, D
        assert_eq!(s.input_text(a("A3")), "=SUM(B1:C1)");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("A3")), Value::Number(7.0)); // 2+5
    }

    /// A fill-down fixture for the binding-retention tests:
    /// values in A, `B{r} = A{r}*2` down the column, plus one absolute
    /// formula and one whole-column aggregate.
    fn compiled_filldown(n: u32) -> Sheet {
        let mut s = Sheet::new();
        for r in 0..n {
            s.set_value(CellAddr::new(r, 0), i64::from(r + 1));
            s.set_formula_str(CellAddr::new(r, 1), &format!("=A{}*2", r + 1)).unwrap();
        }
        recalc::recalc_all(&mut s);
        s
    }

    #[test]
    fn insert_rows_retains_memo_outside_the_band() {
        let mut s = compiled_filldown(6);
        s.set_formula_str(a("C1"), "=SUM($A$1:$A$2)").unwrap(); // windows before the band
        s.set_formula_str(a("C5"), "=$A$6").unwrap(); // absolute ref past the band
        recalc::recalc_all(&mut s);
        let (lookups, misses) = (s.program_cache().lookups(), s.program_cache().misses());

        s.apply(Op::InsertRows { at: 3, count: 1 }).unwrap();
        // B1–B3 are unmoved with windows before row 4; B4–B6 moved down
        // with relative same-row windows; C1's absolute windows sit before
        // the band. Only C5 drops: its absolute row coordinate is
        // renumbered by the shift, which changes the template key.
        recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups + 1, "7 of 8 bindings ride the insert");
        // Every other binding survived, so the renumbered absolute
        // template is the only compile.
        assert_eq!(
            s.program_cache().misses(),
            misses + 1,
            "only the renumbered template recompiles"
        );
        assert_eq!(s.value(a("B2")), Value::Number(4.0));
        assert_eq!(s.value(a("B5")), Value::Number(8.0)); // old B4, shifted
        assert_eq!(s.value(a("C1")), Value::Number(3.0));
        assert_eq!(s.value(a("C6")), Value::Number(6.0)); // =$A$7
    }

    #[test]
    fn delete_rows_retains_memo_and_drops_straddlers() {
        let mut s = compiled_filldown(8);
        s.set_formula_str(a("C8"), "=SUM(A1:A8)").unwrap(); // straddles any interior band
        recalc::recalc_all(&mut s);
        let (lookups, misses) = (s.program_cache().lookups(), s.program_cache().misses());

        s.apply(Op::DeleteRows { at: 3, count: 2 }).unwrap(); // rows 4–5 die
        // B1–B3 unmoved (windows before row 4); old B6–B8 moved up with
        // same-row windows past the band; the two in-band bindings die
        // with their cells; the straddling SUM's window overlaps the band
        // (its refs get clipped), so it must drop.
        assert_eq!(s.formula_count(), 7);
        recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups + 1, "6 of 9 bindings ride the delete");
        // Only the clipped aggregate's rewritten template needs a compile.
        assert_eq!(
            s.program_cache().misses(),
            misses + 1,
            "only the clipped aggregate recompiles"
        );
        assert_eq!(s.value(a("B4")), Value::Number(12.0)); // old B6
        assert_eq!(s.value(a("C6")), Value::Number(1.0 + 2.0 + 3.0 + 6.0 + 7.0 + 8.0));
    }

    #[test]
    fn col_edits_retain_memo_symmetrically() {
        // The row predicates mirrored onto the column axis: D1 = C1*2
        // (window before nothing — same column, past the band once
        // shifted), A3 = SUM(A1:A2) (window in column A, before the band).
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_value(a("A2"), 2);
        s.set_value(a("C1"), 5);
        s.set_formula_str(a("A3"), "=SUM(A1:A2)").unwrap();
        s.set_formula_str(a("D1"), "=C1*2").unwrap();
        recalc::recalc_all(&mut s);
        let lookups = s.program_cache().lookups();

        s.apply(Op::InsertCols { at: 1, count: 1 }).unwrap(); // new blank column B
        // A3 stays (windows in column 0, before the band); D1 moves to E1
        // with its relative window riding along.
        recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups, "2 of 2 bindings ride the insert");
        assert_eq!(s.value(a("A3")), Value::Number(3.0));
        assert_eq!(s.value(a("E1")), Value::Number(10.0));
    }

    /// The rule is exact: a binding survives an edit that leaves its
    /// template key as it was — an absolute reference before the edit
    /// point, an `OFFSET` whose relative reference moved with it — and
    /// only then.
    #[test]
    fn a_moved_formula_keeps_its_program_exactly_when_its_key_is_unchanged() {
        // The edit, where B5, C5 and D5 land, and which of them rebind.
        for (op, landed, rebinds) in [
            (Op::InsertRows { at: 2, count: 2 }, ["B7", "C7", "D7"], [false, false, true]),
            (Op::DeleteRows { at: 1, count: 2 }, ["B3", "C3", "D3"], [false, false, true]),
            (Op::InsertCols { at: 0, count: 1 }, ["C5", "D5", "E5"], [true, false, false]),
        ] {
            let mut s = Sheet::new();
            for r in 0..10u32 {
                s.set_value(CellAddr::new(r, 0), i64::from(r + 1));
            }
            s.set_formula_str(a("B5"), "=$A$1*2").unwrap();
            s.set_formula_str(a("C5"), "=OFFSET(A5,0,0)").unwrap();
            s.set_formula_str(a("D5"), "=A1*2").unwrap();
            recalc::recalc_all(&mut s);
            let lookups = s.program_cache().lookups();

            s.apply(op.clone()).unwrap();
            for (cell, rebinds) in landed.into_iter().zip(rebinds) {
                let bound = s.formula_at(a(cell)).unwrap().program().is_some();
                assert_eq!(bound, !rebinds, "{op:?}: {cell}");
            }
            if let Err(e) = crate::analyze::check_sheet(&s) {
                panic!("{op:?}: {e}");
            }
            recalc::recalc_all(&mut s);
            assert_eq!(s.program_cache().lookups(), lookups + 1, "{op:?}: one key changed");
            let values = landed.map(|cell| s.value(a(cell)));
            assert_eq!(values, [2.0, 5.0, 2.0].map(Value::Number), "{op:?}");
        }
    }

    #[test]
    fn column_indexes_ride_structural_edits() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for i in 0..20u32 {
            s.set_value(CellAddr::new(i, 1), i64::from(i % 4)); // column B: 0..3 cycling
        }
        s.set_formula_str(a("D1"), "=COUNTIF(B1:B20,2)").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("D1")), Value::Number(5.0));
        assert!(s.index_store().has_built(1), "column B indexed after recalc");

        // Insert a column before B: the built index moves with the data
        // and answers at the new coordinate at once.
        s.apply(Op::InsertCols { at: 0, count: 1 }).unwrap();
        assert!(s.index_store().has_built(2), "the index moved with its column");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("E1")), Value::Number(5.0));
        assert!(s.index_store().has_built(2), "index still built on the shifted column");

        // Delete the indexed column: its index dies with it, and the
        // empty column that moves into its place brings its own empty
        // index (no stale postings at the old coordinate); the rewritten
        // `COUNTIF(#REF!,2)` counts nothing — not the stale 5 a surviving
        // index would report.
        s.apply(Op::DeleteCols { at: 2, count: 1 }).unwrap();
        let moved_in = s.index_store().built(2).expect("the next column's index moved in");
        assert!(moved_in.is_empty(), "the deleted column's index died with it");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("D1")), Value::Number(0.0));

        // Row edits keep the index in its column, postings shifted.
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for i in 0..20u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i % 4));
        }
        s.set_formula_str(a("C1"), "=COUNTIF(A1:A20,3)").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C1")), Value::Number(5.0));
        s.apply(Op::InsertRows { at: 5, count: 2 }).unwrap();
        assert!(s.index_store().has_built(0), "index kept built through the row insert");
        recalc::recalc_all(&mut s);
        // The range widened to A1:A22 over the same 20 values + 2 blanks.
        assert_eq!(s.value(a("C1")), Value::Number(5.0));
        crate::audit::check_indexes(&s).unwrap();
    }

    /// §6's hazard answered: a sort, a row edit and a column edit each
    /// leave every built index built, moved with its rows, so the next
    /// recalculation rebuilds nothing. With no formula on the sheet that
    /// probes an index, that pass charges no `IndexProbe` at all (a
    /// rebuild charges one per indexed cell).
    #[test]
    fn sorts_and_structural_edits_keep_every_index_built() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for r in 0..300u32 {
            s.set_value(CellAddr::new(r, 0), f64::from((r * 37) % 101)); // A: numbers
            s.set_value(CellAddr::new(r, 1), format!("k{}", r % 7)); // B: text
            if r % 3 == 0 {
                s.set_value(CellAddr::new(r, 2), -0.0); // C: signed zeros among numbers
            } else {
                s.set_value(CellAddr::new(r, 2), f64::from(r % 4));
            }
        }
        s.set_formula_str(a("D1"), "=A1*2").unwrap(); // a formula that probes nothing
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 3, "A, B and C are indexed; D holds a formula");
        for op in [
            Op::Sort { keys: vec![crate::ops::SortKey::asc(0)] },
            Op::InsertRows { at: 40, count: 25 },
            Op::DeleteRows { at: 10, count: 60 },
            Op::InsertCols { at: 1, count: 2 },
            Op::Sort { keys: vec![crate::ops::SortKey::desc(3)] },
        ] {
            // The recalculation after an insert builds the new (empty)
            // columns too, charging nothing for them.
            let built = s.index_store().built_count();
            s.apply(op.clone()).unwrap();
            assert_eq!(s.index_store().built_count(), built, "{op:?}: an index was demoted");
            crate::audit::check_indexes(&s).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            let before = s.meter().snapshot().get(Primitive::IndexProbe);
            recalc::recalc_all(&mut s);
            let probes = s.meter().snapshot().get(Primitive::IndexProbe) - before;
            assert_eq!(probes, 0, "{op:?}: the next recalc rebuilt an index");
        }
    }

    #[test]
    fn hash_index_survives_via_rebuild_semantics() {
        // Demonstrates the §6 hazard: a row insertion renumbers every
        // row past it, which an index keyed by row number must follow;
        // the grid stays consistent, and a query after the edit counts
        // the shifted column.
        let mut s = Sheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i % 3));
        }
        s.apply(Op::InsertRows { at: 5, count: 1 }).unwrap();
        let count = s.eval_str("=COUNTIF(A1:A11,0)").unwrap();
        assert_eq!(count, Value::Number(4.0));
    }
}
