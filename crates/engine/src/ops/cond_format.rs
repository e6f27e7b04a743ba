//! Conditional formatting (§4.2.2): scans an input range and updates the
//! fill of the cells that satisfy a condition — the paper's experiment
//! colors a cell green when it contains the value 1.
//!
//! The pass is a read of the values and a write of the fills, and the two
//! never meet (DESIGN.md §18). Each column's share of the range is read as
//! the slices the formula kernels read (`GridStore::scan_range`) — a typed
//! chunk as its `f64`s or interner ids, a spilled one through the fault
//! cache — and then the column's fill runs are restyled once over the
//! share (`GridStore::restyle`). No slot is written, so a typed chunk stays
//! typed and a spilled one stays on its page whatever the pass matches.

use crate::addr::Range;
use crate::grid::{IdMemo, ScanSlice};
use crate::meter::Primitive;
use crate::ops::clipped_cells;
use crate::sheet::Sheet;
use crate::style::Color;
use crate::value::{Criterion, Matcher};

/// Applies `fill` to every cell of `range` matching `criterion`; cells
/// that no longer match lose the fill (re-evaluation semantics, as when a
/// rule is re-applied). Returns the number of cells now filled.
pub(crate) fn conditional_format_impl(
    sheet: &mut Sheet,
    range: Range,
    criterion: &Criterion,
    fill: Color,
) -> u32 {
    let cells = clipped_cells(sheet, range);
    sheet.meter().bump(Primitive::CellRead, cells);
    let Some(window) = range.clip_to(sheet.nrows(), sheet.ncols()) else { return 0 };
    let (r0, r1) = (window.start.row, window.end.row);
    let matcher = Matcher::new(criterion.clone());
    let empty_matches = matcher.matches_empty();
    let mut memo = IdMemo::for_cells(cells);
    let (mut formatted, mut updates) = (0u32, 0u64);
    // Whether each row of the column's share matches, top to bottom.
    let mut hits: Vec<bool> = Vec::with_capacity(window.rows() as usize);
    for col in window.start.col..=window.end.col {
        hits.clear();
        let share = Range::column_segment(col, r0, r1);
        sheet.grid_store().scan_range(share, &mut |slice| match slice {
            ScanSlice::Nums(vals) => hits.extend(vals.iter().map(|&n| matcher.matches_num(n))),
            ScanSlice::Texts(ids, interner) => hits.extend(
                ids.iter().map(|&id| memo.get(id, || matcher.matches(interner.value(id)))),
            ),
            ScanSlice::Cells(cells) => {
                hits.extend(cells.iter().map(|cell| matcher.matches(cell.display_value())))
            }
            ScanSlice::Empty(n) => hits.extend(std::iter::repeat_n(empty_matches, n)),
        });
        formatted += hits.iter().filter(|&&hit| hit).count() as u32;
        updates += sheet.grid_store_mut().restyle(col, r0, r1, |row, old| {
            if hits[(row - r0) as usize] {
                Some(fill)
            } else if old == Some(fill) {
                None
            } else {
                old
            }
        });
    }
    sheet.meter().bump(Primitive::StyleUpdate, updates);
    formatted
}

/// What [`conditional_format_impl`] did before it read slices and restyled
/// runs: a `Sheet::value` and a `Sheet::fill` per position, and on a
/// change a one-row restyle of that position's fill, by address. Kept as
/// the reference the differential test compares the pass against.
#[cfg(test)]
pub(crate) fn conditional_format_reference(
    sheet: &mut Sheet,
    range: Range,
    criterion: &Criterion,
    fill: Color,
) -> u32 {
    use crate::addr::CellAddr;
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
            let fill_now = sheet.fill(addr);
            let new = if matches {
                formatted += 1;
                Some(fill)
            } else if fill_now == Some(fill) {
                None
            } else {
                continue;
            };
            if new != fill_now {
                sheet.grid_store_mut().restyle(col, row, row, |_, _| new);
                sheet.meter().tick(Primitive::StyleUpdate);
            }
        }
    }
    formatted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
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
        assert_eq!(s.fill(CellAddr::new(1, 10)), Some(Color::GREEN));
        assert_eq!(s.fill(CellAddr::new(0, 10)), None);
    }

    #[test]
    fn reapplication_clears_stale_fills() {
        let mut s = ones_sheet();
        s.apply(green_ones()).unwrap();
        s.set_value(CellAddr::new(1, 10), 0);
        s.apply(green_ones()).unwrap();
        assert_eq!(s.fill(CellAddr::new(1, 10)), None);
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
