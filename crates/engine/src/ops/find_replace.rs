//! Find-and-replace (§5.1.2): scans the input range one cell at a time,
//! replacing occurrences of `X` with `Y`. Linear in the data size — "an
//! expected trend in the absence of indexes". The inverted-index
//! alternative lives in `ssbench-systems` (`SimSystem::find_replace_indexed`).

use crate::addr::{CellAddr, Range};
use crate::cell::CellContent;
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::trace;
use crate::value::Value;

/// Scans `range` for cells whose text contains `needle` (case-sensitive
/// substring, as in the systems' default find). Returns matching addresses.
/// Even an absent needle costs a full scan (§5.1.2: "even when searching a
/// non-existent value, the search time increases linearly").
///
/// A `&Sheet` query: it opens its own `op:find_all` span since it cannot
/// route through [`Sheet::apply`](crate::sheet::Sheet::apply).
pub fn find_all(sheet: &Sheet, range: Range, needle: &str) -> Vec<CellAddr> {
    trace::with_op_span("find_all", sheet.meter(), || find_all_impl(sheet, range, needle))
}

pub(crate) fn find_all_impl(sheet: &Sheet, range: Range, needle: &str) -> Vec<CellAddr> {
    let mut hits = Vec::new();
    let (nrows, ncols) = (sheet.nrows(), sheet.ncols());
    if nrows == 0 || ncols == 0 {
        return hits;
    }
    let r1 = range.end.row.min(nrows - 1);
    let c1 = range.end.col.min(ncols - 1);
    for row in range.start.row..=r1 {
        for col in range.start.col..=c1 {
            sheet.meter().tick(Primitive::CellRead);
            let addr = CellAddr::new(row, col);
            if cell_text_contains(sheet, addr, needle) {
                hits.push(addr);
            }
        }
    }
    hits
}

/// Replaces every occurrence of `needle` inside matching cells of `range`
/// with `replacement`. Returns the number of cells changed.
pub(crate) fn find_replace_impl(
    sheet: &mut Sheet,
    range: Range,
    needle: &str,
    replacement: &str,
) -> u32 {
    if needle.is_empty() {
        return 0;
    }
    let hits = find_all_impl(sheet, range, needle);
    let mut changed = 0u32;
    for addr in hits {
        let new_text = {
            let Some(cell) = sheet.cell(addr) else { continue };
            match &cell.content {
                CellContent::Value(Value::Text(s)) => s.replace(needle, replacement),
                _ => continue, // formulas and non-text values are not rewritten
            }
        };
        sheet.set_value(addr, Value::text(new_text));
        changed += 1;
    }
    changed
}

/// Whether the displayed text of `addr` contains `needle`.
fn cell_text_contains(sheet: &Sheet, addr: CellAddr, needle: &str) -> bool {
    match sheet.cell(addr) {
        Some(c) => matches!(c.display_value(), Value::Text(s) if s.contains(needle)),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, OpOutcome};

    fn sheet() -> Sheet {
        let mut s = Sheet::new();
        for (i, txt) in ["STORM", "calm", "STORMY", "hail", "storm"].iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 2), *txt);
        }
        s
    }

    fn full(s: &Sheet) -> Range {
        s.used_range().unwrap()
    }

    fn replace(s: &Sheet, needle: &str, replacement: &str) -> Op {
        Op::FindReplace { range: full(s), needle: needle.into(), replacement: replacement.into() }
    }

    #[test]
    fn finds_substring_matches_case_sensitively() {
        let s = sheet();
        let hits = find_all(&s, full(&s), "STORM");
        assert_eq!(hits.len(), 2); // STORM and STORMY, not lowercase storm
    }

    #[test]
    fn absent_needle_scans_everything() {
        let s = sheet();
        let before = s.meter().snapshot();
        let hits = find_all(&s, full(&s), "TORNADO");
        let d = s.meter().snapshot().since(&before);
        assert!(hits.is_empty());
        assert_eq!(d.get(Primitive::CellRead), 15); // 5 rows × 3 cols
    }

    #[test]
    fn replace_rewrites_only_matches() {
        let mut s = sheet();
        let op = replace(&s, "STORM", "WIND");
        assert_eq!(s.apply(op), Ok(OpOutcome::Replaced { cells: 2 }));
        assert_eq!(s.value(CellAddr::new(0, 2)), Value::text("WIND"));
        assert_eq!(s.value(CellAddr::new(2, 2)), Value::text("WINDY"));
        assert_eq!(s.value(CellAddr::new(4, 2)), Value::text("storm"));
    }

    #[test]
    fn replace_absent_changes_nothing() {
        let mut s = sheet();
        let op = replace(&s, "TORNADO", "X");
        assert_eq!(s.apply(op), Ok(OpOutcome::Replaced { cells: 0 }));
    }

    #[test]
    fn empty_needle_is_noop() {
        let mut s = sheet();
        let op = replace(&s, "", "X");
        assert_eq!(s.apply(op), Ok(OpOutcome::Replaced { cells: 0 }));
    }

    #[test]
    fn numbers_are_not_text_matched() {
        let mut s = Sheet::new();
        s.set_value(CellAddr::new(0, 0), 112);
        let range = s.used_range().unwrap();
        assert!(find_all(&s, range, "1").is_empty());
    }
}
