//! Conditional formatting (§4.2.2): scans an input range and updates the
//! style of the cells that satisfy a condition — the paper's experiment
//! colors a cell green when it contains the value 1.
//!
//! The pass restyles chunks where they are stored (DESIGN.md §18). Typed
//! chunks hold no styled cell, so one with no match in it has nothing to
//! gain or to lose and is left as it is — typed, and on its page if
//! spilled — after a read of its slices; one with a match is turned into
//! general cells once and restyled as a `&mut [Cell]`. General chunks are
//! restyled in place, and vacant positions are visited only under a
//! criterion that an empty cell satisfies.

use crate::addr::Range;
use crate::cell::Cell;
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
    let matcher = Matcher::new(criterion.clone());
    let empty_matches = matcher.matches_empty();
    let mut memo = IdMemo::for_cells(cells);
    let (mut formatted, mut updates) = (0u32, 0u64);
    let mut restyle = |_row: u32, cell: &mut Cell| {
        if matcher.matches(cell.display_value()) {
            if cell.style.fill != Some(fill) {
                cell.style = cell.style.with_fill(fill);
                updates += 1;
            }
            formatted += 1;
        } else if cell.style.fill == Some(fill) {
            cell.style.fill = None;
            updates += 1;
        }
    };
    sheet.grid_store_mut().for_each_chunk_mut(range, &mut |chunk| {
        let typed = chunk.is_typed();
        if typed {
            let mut hit = false;
            chunk.scan(&mut |slice| {
                hit = hit
                    || match slice {
                        ScanSlice::Nums(vals) => vals.iter().any(|&n| matcher.matches_num(n)),
                        ScanSlice::Texts(ids, interner) => ids
                            .iter()
                            .any(|&id| memo.get(id, || matcher.matches(interner.value(id)))),
                        ScanSlice::Empty(_) => empty_matches,
                        ScanSlice::Cells(cells) => {
                            cells.iter().any(|cell| matcher.matches(cell.display_value()))
                        }
                    };
            });
            if !hit {
                return;
            }
        }
        if typed || empty_matches {
            chunk.all_cells_mut(&mut restyle);
        } else {
            chunk.stored_cells_mut(&mut restyle);
        }
    });
    sheet.meter().bump(Primitive::CellRead, cells);
    sheet.meter().bump(Primitive::StyleUpdate, updates);
    formatted
}

/// What [`conditional_format_impl`] did before it restyled chunks in
/// place: a `Sheet::value`, a `Sheet::cell` and, on a change, a
/// `Sheet::cell_mut` per position. Kept as the reference the differential
/// test compares the chunk pass against.
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
