//! Conditional formatting (§4.2.2): scans an input range and updates the
//! style of the cells that satisfy a condition — the paper's experiment
//! colors a cell green when it contains the value 1.

use crate::addr::{CellAddr, Range};
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::style::Color;
use crate::value::Criterion;

/// Applies `fill` to every cell of `range` matching `criterion`; cells
/// that no longer match lose the fill (re-evaluation semantics, as when a
/// rule is re-applied). Returns the number of cells now filled.
pub(crate) fn conditional_format_impl(
    sheet: &mut Sheet,
    range: Range,
    criterion: &Criterion,
    fill: Color,
) -> u32 {
    let (nrows, ncols) = (sheet.nrows(), sheet.ncols());
    if nrows == 0 || ncols == 0 {
        return 0;
    }
    let r1 = range.end.row.min(nrows - 1);
    let c1 = range.end.col.min(ncols - 1);
    let mut formatted = 0u32;
    for row in range.start.row..=r1 {
        for col in range.start.col..=c1 {
            let addr = CellAddr::new(row, col);
            sheet.meter().tick(Primitive::CellRead);
            let matches = criterion.matches(&sheet.value(addr));
            // Peek at the fill read-only and materialize the cell only on
            // an actual style change: `cell_mut` on a typed chunk degrades
            // the whole chunk to cell form, so an unconditional call here
            // would wreck the columnar layout of every scanned range.
            let fill_now = sheet.cell(addr).and_then(|c| c.style.fill);
            if matches {
                if fill_now != Some(fill) {
                    let cell = sheet.cell_mut(addr);
                    cell.style = cell.style.with_fill(fill);
                    sheet.meter().tick(Primitive::StyleUpdate);
                }
                formatted += 1;
            } else if fill_now == Some(fill) {
                sheet.cell_mut(addr).style.fill = None;
                sheet.meter().tick(Primitive::StyleUpdate);
            }
        }
    }
    formatted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, OpOutcome};
    use crate::value::Value;

    /// The paper's rule: fill K1:K6 green where the cell holds 1.
    fn green_ones() -> Op {
        Op::CondFormat {
            range: Range::column_segment(10, 0, 5),
            criterion: Criterion::parse(&Value::Number(1.0)),
            fill: Color::GREEN,
        }
    }

    fn ones_sheet() -> Sheet {
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 10), i64::from(i % 2)); // column K: 0,1,0,1,...
        }
        s
    }

    #[test]
    fn formats_matching_cells_green() {
        let mut s = ones_sheet();
        assert_eq!(s.apply(green_ones()), Ok(OpOutcome::Formatted { cells: 3 }));
        assert_eq!(s.cell(CellAddr::new(1, 10)).unwrap().style.fill, Some(Color::GREEN));
        assert_eq!(s.cell(CellAddr::new(0, 10)).unwrap().style.fill, None);
    }

    #[test]
    fn reapplication_clears_stale_fills() {
        let mut s = ones_sheet();
        s.apply(green_ones()).unwrap();
        s.set_value(CellAddr::new(1, 10), 0);
        s.apply(green_ones()).unwrap();
        assert_eq!(s.cell(CellAddr::new(1, 10)).unwrap().style.fill, None);
    }

    #[test]
    fn charges_scan_plus_updates() {
        let mut s = ones_sheet();
        let before = s.meter().snapshot();
        s.apply(green_ones()).unwrap();
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 6);
        assert_eq!(d.get(Primitive::StyleUpdate), 3);
        // Idempotent re-run updates nothing.
        let before = s.meter().snapshot();
        s.apply(green_ones()).unwrap();
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::StyleUpdate), 0);
    }
}
