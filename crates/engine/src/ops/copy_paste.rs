//! Copy-paste with reference adjustment: relative references shift by the
//! paste delta, absolute references stay pinned (the semantics that make
//! the §6 sort-recomputation analysis meaningful). The fills go with the
//! cells: each destination cell takes its source's fill, or loses its own.

use crate::addr::{CellAddr, Range};
use crate::cell::Cell;
use crate::error::EngineError;
use crate::grid::{MAX_COLS, MAX_ROWS};
use crate::meter::Primitive;
use crate::sheet::Sheet;

/// Copies `src` to the block of the same shape starting at `dst_start`.
/// Overlapping copy is supported (the source is snapshotted first, as real
/// systems do via the clipboard). Returns the destination range, or
/// [`EngineError::OutOfBounds`] — decided before anything is read or
/// written — when the block would reach past the engine limits.
pub(crate) fn copy_paste_impl(
    sheet: &mut Sheet,
    src: Range,
    dst_start: CellAddr,
) -> Result<Range, EngineError> {
    let rows = src.rows();
    let cols = src.cols();
    // The extent the block needs, saturating so that no `dst_start` near
    // `u32::MAX` wraps back inside the limits.
    let (end_rows, end_cols) =
        (dst_start.row.saturating_add(rows), dst_start.col.saturating_add(cols));
    if end_rows > MAX_ROWS || end_cols > MAX_COLS {
        return Err(EngineError::OutOfBounds { rows: end_rows, cols: end_cols });
    }
    // Snapshot the source block ("clipboard"), row by row, and its fills.
    let mut clipboard: Vec<(CellAddr, Cell)> = Vec::with_capacity((rows * cols) as usize);
    let mut fills = Vec::with_capacity(clipboard.capacity());
    for addr in src.iter() {
        sheet.meter().tick(Primitive::CellRead);
        let cell = sheet.cell(addr).map(|c| c.into_cell()).unwrap_or_else(Cell::empty);
        clipboard.push((addr, cell));
        fills.push(sheet.fill(addr));
    }
    // Paste with adjustment.
    for (src_addr, cell) in clipboard {
        let d_row = src_addr.row - src.start.row;
        let d_col = src_addr.col - src.start.col;
        let dst = CellAddr::new(dst_start.row + d_row, dst_start.col + d_col);
        sheet.meter().tick(Primitive::CellWrite);
        match cell {
            Cell::Formula(f) => sheet.set_formula(dst, f.expr.adjusted(src_addr, dst))?,
            Cell::Value(v) => sheet.set_value(dst, v),
        }
    }
    // Then the fills, one restyle per destination column.
    let (r0, r1) = (dst_start.row, end_rows - 1);
    for d_col in 0..cols {
        let fill_of = |row: u32| fills[((row - r0) * cols + d_col) as usize];
        sheet.grid_store_mut().restyle(dst_start.col + d_col, r0, r1, |row, _| fill_of(row));
    }
    Ok(Range::new(dst_start, CellAddr::new(end_rows - 1, end_cols - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CellError;
    use crate::ops::{Op, OpOutcome};
    use crate::recalc;
    use crate::style::Color;
    use crate::value::{Criterion, Value};

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn paste(src: &str, dst: &str) -> Op {
        Op::CopyPaste { src: Range::parse(src).unwrap(), dst: a(dst) }
    }

    /// Fills `range` green where its cells are not empty.
    fn fill_green(s: &mut Sheet, range: &str) {
        let range = Range::parse(range).unwrap();
        let criterion = Criterion::parse(&Value::text("<>"));
        s.apply(Op::CondFormat { range, criterion, fill: Color::GREEN }).unwrap();
    }

    #[test]
    fn copies_values_and_fills() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 7);
        fill_green(&mut s, "A1");
        s.apply(paste("A1", "C3")).unwrap();
        assert_eq!(s.value(a("C3")), Value::Number(7.0));
        assert_eq!(s.fill(a("C3")), Some(Color::GREEN));
    }

    /// A plain paste is a run of typed writes: the destination chunks stay
    /// typed, as the source's are, and as compact.
    #[test]
    fn plain_numeric_paste_leaves_the_destination_typed() {
        let mut s = Sheet::new();
        for r in 0..2048u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r) * 0.5);
        }
        let one_column = s.grid_heap_bytes();
        s.apply(paste("A1:A2048", "C1")).unwrap();
        assert_eq!(s.grid_store().chunk_kinds(0), ["num", "num"]);
        assert_eq!(s.grid_store().chunk_kinds(2), ["num", "num"]);
        assert!(s.grid_heap_bytes() <= one_column * 2 + one_column / 4, "{one_column}");
        assert_eq!(s.value(a("C2048")), Value::Number(1023.5));
    }

    #[test]
    fn plain_source_clears_the_fill_it_lands_on() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 7);
        s.set_value(a("C3"), 1);
        fill_green(&mut s, "C3");
        // A filled cell with no content, too.
        s.ensure_size(4, 3).unwrap();
        let (range, criterion) = (Range::parse("C4").unwrap(), Criterion::parse(&Value::Empty));
        s.apply(Op::CondFormat { range, criterion, fill: Color::GREEN }).unwrap();
        assert_eq!(s.fill(a("C4")), Some(Color::GREEN));
        s.apply(paste("A1:A2", "C3")).unwrap();
        assert_eq!(s.value(a("C3")), Value::Number(7.0));
        assert_eq!((s.fill(a("C3")), s.fill(a("C4"))), (None, None));
        assert!(s.cell(a("C4")).unwrap().is_vacant());
    }

    #[test]
    fn relative_references_shift() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_value(a("A2"), 2);
        s.set_formula_str(a("B1"), "=A1*10").unwrap();
        s.apply(paste("B1", "B2")).unwrap();
        assert_eq!(s.input_text(a("B2")), "=A2*10");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("B2")), Value::Number(20.0));
    }

    #[test]
    fn absolute_references_pin() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 5);
        s.set_formula_str(a("B1"), "=$A$1+A1").unwrap();
        s.apply(paste("B1", "C5")).unwrap();
        assert_eq!(s.input_text(a("C5")), "=$A$1+B5");
    }

    #[test]
    fn off_sheet_adjustment_becomes_ref_error() {
        let mut s = Sheet::new();
        s.set_value(a("B2"), 1);
        s.set_formula_str(a("B3"), "=B2").unwrap();
        // Pasting B3 at A1 would need the reference to move to row 0.
        s.apply(paste("B3", "A1")).unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("A1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn block_copy_shape() {
        let mut s = Sheet::new();
        for r in 0..2u32 {
            for c in 0..2u32 {
                s.set_value(CellAddr::new(r, c), i64::from(r * 10 + c));
            }
        }
        let out = s.apply(paste("A1:B2", "D4"));
        assert_eq!(out, Ok(OpOutcome::Pasted { dst: Range::parse("D4:E5").unwrap() }));
        assert_eq!(s.value(a("E5")), Value::Number(11.0));
    }

    #[test]
    fn overlapping_copy_uses_snapshot() {
        let mut s = Sheet::new();
        for i in 0..4u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i));
        }
        // Shift the block down by one over itself.
        s.apply(paste("A1:A4", "A2")).unwrap();
        let col: Vec<f64> =
            (0..5).map(|r| s.value(CellAddr::new(r, 0)).as_number().unwrap()).collect();
        assert_eq!(col, vec![0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_paste_past_the_engine_limits_is_out_of_bounds() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_value(a("A2"), 2);
        s.set_formula_str(a("B1"), "=A1+A2").unwrap();
        recalc::recalc_all(&mut s);
        let (saved, meter) = (crate::io::save(&s), s.meter().snapshot());
        for (src, dst) in [
            ("A1:A2", CellAddr::new(MAX_ROWS - 1, 0)),
            ("A1:A2", CellAddr::new(u32::MAX, 0)),
            ("A1:B1", CellAddr::new(0, MAX_COLS - 1)),
            ("A1:B1", CellAddr::new(0, u32::MAX)),
        ] {
            let err = s.apply(Op::CopyPaste { src: Range::parse(src).unwrap(), dst }).unwrap_err();
            assert!(matches!(err, EngineError::OutOfBounds { .. }), "{src} at {dst:?}: {err:?}");
            assert_eq!((s.nrows(), s.ncols()), (2, 2), "{src} at {dst:?}");
            assert_eq!(crate::io::save(&s), saved, "{src} at {dst:?} touched the sheet");
            assert_eq!(s.meter().snapshot(), meter, "{src} at {dst:?} charged the meter");
        }
        // The lowest paste that fits is fine.
        let dst = CellAddr::new(MAX_ROWS - 2, 0);
        s.apply(Op::CopyPaste { src: Range::parse("A1:A2").unwrap(), dst }).unwrap();
        assert_eq!(s.nrows(), MAX_ROWS);
        assert_eq!(s.value(CellAddr::new(MAX_ROWS - 1, 0)), Value::Number(2.0));
    }

    #[test]
    fn charges_reads_and_writes() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        let before = s.meter().snapshot();
        s.apply(paste("A1:B2", "D1")).unwrap();
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 4);
        // 4 pastes; set_value/set_formula tick CellWrite again internally.
        assert!(d.get(Primitive::CellWrite) >= 4);
    }
}
