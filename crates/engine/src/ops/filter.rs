//! Filter: hides the rows that do not satisfy a condition on one column
//! (§4.3.1 — "Filter operations in spreadsheets hide the rows that do not
//! satisfy the filtering condition"). A full scan of the column, as in all
//! three benchmarked systems.

use crate::addr::CellAddr;
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::value::Criterion;

/// Applies a filter on `col`: rows whose cell does not match `criterion`
/// are hidden. Returns the number of visible (matching) rows.
pub(crate) fn filter_rows_impl(sheet: &mut Sheet, col: u32, criterion: &Criterion) -> u32 {
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
