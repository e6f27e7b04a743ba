//! Filter: hides the rows that do not satisfy a condition on one column
//! (§4.3.1 — "Filter operations in spreadsheets hide the rows that do not
//! satisfy the filtering condition"). A full scan of the column, as in all
//! three benchmarked systems — over the grid's typed slices (DESIGN.md
//! §18): numbers as `&[f64]`, text as interner ids decided once per
//! distinct string, vacant runs with one precomputed answer.

use crate::addr::Range;
use crate::grid::{IdMemo, ScanSlice};
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::value::{Criterion, Matcher};

/// Applies a filter on `col`: rows whose cell does not match `criterion`
/// are hidden. Returns the number of visible (matching) rows.
pub(crate) fn filter_rows_impl(sheet: &mut Sheet, col: u32, criterion: &Criterion) -> u32 {
    let m = sheet.nrows();
    if m == 0 {
        return 0;
    }
    // The flags leave the sheet for the scan, which borrows its grid.
    let mut hidden = std::mem::take(sheet.hidden_flags_mut());
    if hidden.len() < m as usize {
        hidden.resize(m as usize, false);
    }
    let matcher = Matcher::new(criterion.clone());
    // What the scan does not emit — a vacant run, a column past the
    // extent — reads as empty.
    hidden[..m as usize].fill(!matcher.matches_empty());
    let mut memo = IdMemo::for_cells(u64::from(m));
    let mut row = 0usize;
    let column = Range::column_segment(col, 0, m - 1);
    sheet.grid_store().scan_range(column, &mut |slice| match slice {
        ScanSlice::Nums(vals) => {
            for (flag, &n) in hidden[row..].iter_mut().zip(vals) {
                *flag = !matcher.matches_num(n);
            }
            row += vals.len();
        }
        ScanSlice::Texts(ids, interner) => {
            for (flag, &id) in hidden[row..].iter_mut().zip(ids) {
                *flag = !memo.get(id, || matcher.matches(interner.value(id)));
            }
            row += ids.len();
        }
        ScanSlice::Cells(cells) => {
            for (flag, cell) in hidden[row..].iter_mut().zip(cells) {
                *flag = !matcher.matches(cell.display_value());
            }
            row += cells.len();
        }
        ScanSlice::Empty(n) => row += n,
    });
    let toggled = hidden[..m as usize].iter().filter(|&&h| h).count() as u32;
    *sheet.hidden_flags_mut() = hidden;
    sheet.meter().bump(Primitive::CellRead, u64::from(m));
    sheet.meter().bump(Primitive::RowToggle, u64::from(toggled));
    m - toggled
}

/// What [`filter_rows_impl`] did before it read slices: one `Sheet::value`
/// and one `set_row_hidden` per row. Kept as the reference the differential
/// test compares the scan against.
#[cfg(test)]
pub(crate) fn filter_rows_reference(sheet: &mut Sheet, col: u32, criterion: &Criterion) -> u32 {
    use crate::addr::CellAddr;
    let m = sheet.nrows();
    let mut visible = 0u32;
    for row in 0..m {
        sheet.meter().tick(Primitive::CellRead);
        let v = sheet.value(CellAddr::new(row, col));
        let keep = criterion.matches(&v);
        if keep {
            visible += 1;
        } else {
            sheet.meter().tick(Primitive::RowToggle);
        }
        sheet.set_row_hidden(row, !keep);
    }
    visible
}

/// Clears the filter, unhiding every row.
pub(crate) fn clear_filter_impl(sheet: &mut Sheet) {
    let hidden = u64::from(sheet.nrows() - sheet.visible_rows());
    sheet.meter().bump(Primitive::RowToggle, hidden);
    sheet.unhide_all_rows();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
    use crate::ops::{Op, OpOutcome};
    use crate::value::Value;

    fn filter(col: u32, criterion: &str) -> Op {
        Op::Filter { col, criterion: Criterion::parse(&Value::text(criterion)) }
    }

    fn states() -> Sheet {
        let mut s = Sheet::new();
        for (i, st) in ["SD", "IL", "SD", "CA", "SD"].iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 1), *st);
        }
        s
    }

    #[test]
    fn filters_by_state() {
        // The paper's experiment: filter by state = SD.
        let mut s = states();
        assert_eq!(s.apply(filter(1, "SD")), Ok(OpOutcome::Filtered { visible: 3 }));
        assert!(!s.is_row_hidden(0));
        assert!(s.is_row_hidden(1));
        assert!(s.is_row_hidden(3));
        assert_eq!(s.visible_rows(), 3);
    }

    #[test]
    fn refilter_replaces_previous() {
        let mut s = states();
        s.apply(filter(1, "SD")).unwrap();
        assert_eq!(s.apply(filter(1, "IL")), Ok(OpOutcome::Filtered { visible: 1 }));
        assert!(s.is_row_hidden(0));
        assert!(!s.is_row_hidden(1));
    }

    #[test]
    fn clear_restores_all() {
        let mut s = states();
        s.apply(filter(1, "CA")).unwrap();
        assert_eq!(s.visible_rows(), 1);
        assert_eq!(s.apply(Op::ClearFilter), Ok(OpOutcome::FilterCleared));
        assert_eq!(s.visible_rows(), 5);
    }

    #[test]
    fn charges_full_scan() {
        let mut s = states();
        let before = s.meter().snapshot();
        s.apply(filter(1, "SD")).unwrap();
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 5);
        assert_eq!(d.get(Primitive::RowToggle), 2);
    }

    #[test]
    fn numeric_criteria() {
        let mut s = Sheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i, 0), i);
        }
        assert_eq!(s.apply(filter(0, ">=5")), Ok(OpOutcome::Filtered { visible: 5 }));
    }
}
