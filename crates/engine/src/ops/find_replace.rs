//! Find-and-replace (§5.1.2): scans the input range for occurrences of
//! `X` and replaces them with `Y`. Linear in the data size — "an expected
//! trend in the absence of indexes". The inverted-index alternative lives
//! in `ssbench-systems` (`SimSystem::find_replace_indexed`).
//!
//! Both halves work on the grid's chunks (DESIGN.md §18). The search reads
//! a column at a time as typed slices: numbers are skipped by the run, and
//! whether a text contains the needle is decided once per distinct string
//! and looked up per interner id. The replace rewrites where the cells are
//! stored: a text chunk has the ids of its hits exchanged for the ids of
//! their replacements (a spilled one is loaded only if it holds a hit),
//! general cells have their content rewritten under their style, and each
//! rewritten cell is reported to the sheet, which keeps the column's index
//! in step.

use crate::addr::{CellAddr, Range};
use crate::cell::CellContent;
use crate::grid::{IdMemo, ScanSlice};
use crate::meter::Primitive;
use crate::ops::clipped_cells;
use crate::sheet::Sheet;
use crate::trace;
use crate::value::Value;

/// Scans `range` for cells whose text contains `needle` (case-sensitive
/// substring, as in the systems' default find). Returns matching addresses
/// in row-major order. Even an absent needle costs a full scan (§5.1.2:
/// "even when searching a non-existent value, the search time increases
/// linearly").
///
/// A `&Sheet` query: it opens its own `op:find_all` span since it cannot
/// route through [`Sheet::apply`](crate::sheet::Sheet::apply).
pub fn find_all(sheet: &Sheet, range: Range, needle: &str) -> Vec<CellAddr> {
    trace::with_op_span("find_all", sheet.meter(), || find_all_impl(sheet, range, needle))
}

pub(crate) fn find_all_impl(sheet: &Sheet, range: Range, needle: &str) -> Vec<CellAddr> {
    let cells = clipped_cells(sheet, range);
    sheet.meter().bump(Primitive::CellRead, cells);
    let mut hits = Vec::new();
    if cells == 0 {
        return hits;
    }
    let contains = |v: &Value| matches!(v, Value::Text(s) if s.contains(needle));
    let mut memo = IdMemo::for_cells(cells);
    let last_col = range.end.col.min(sheet.ncols() - 1);
    for col in range.start.col..=last_col {
        let mut row = range.start.row;
        let column = Range::column_segment(col, row, range.end.row);
        sheet.grid_store().scan_range(column, &mut |slice| match slice {
            ScanSlice::Texts(ids, interner) => {
                for &id in ids {
                    if memo.get(id, || contains(interner.value(id))) {
                        hits.push(CellAddr::new(row, col));
                    }
                    row += 1;
                }
            }
            // A formula is found by the text it displays.
            ScanSlice::Cells(cells) => {
                for cell in cells {
                    if contains(cell.display_value()) {
                        hits.push(CellAddr::new(row, col));
                    }
                    row += 1;
                }
            }
            ScanSlice::Nums(vals) => row += vals.len() as u32,
            ScanSlice::Empty(n) => row += n as u32,
        });
    }
    if last_col > range.start.col {
        // Column by column above; the result is row by row.
        hits.sort_unstable();
    }
    hits
}

/// Replaces every occurrence of `needle` inside matching cells of `range`
/// with `replacement`. Returns the number of cells changed. Formulas and
/// non-text values are not rewritten.
pub(crate) fn find_replace_impl(
    sheet: &mut Sheet,
    range: Range,
    needle: &str,
    replacement: &str,
) -> u32 {
    if needle.is_empty() {
        return 0;
    }
    let cells = clipped_cells(sheet, range);
    sheet.meter().bump(Primitive::CellRead, cells);
    // Per text id, the id of what the text becomes (`None`: no needle in
    // it) — the replacement string is built and interned once per distinct
    // hit.
    let mut memo: IdMemo<Option<u32>> = IdMemo::for_cells(cells);
    let mut changed = 0u32;
    sheet.edit_chunks(range, &mut |chunk, wrote| {
        let col = chunk.col();
        chunk.rewrite_texts(
            &mut |id, interner| {
                memo.get(id, || {
                    let replaced = match interner.value(id) {
                        Value::Text(s) if s.contains(needle) => s.replace(needle, replacement),
                        _ => return None,
                    };
                    Some(interner.intern_str(&replaced))
                })
            },
            &mut |row, old, new| {
                changed += 1;
                wrote(CellAddr::new(row, col), old, new);
            },
        );
        chunk.stored_cells_mut(&mut |row, cell| {
            let CellContent::Value(old @ Value::Text(s)) = &cell.content else { return };
            if !s.contains(needle) {
                return;
            }
            let new = Value::text(s.replace(needle, replacement));
            changed += 1;
            wrote(CellAddr::new(row, col), old, &new);
            cell.content = CellContent::Value(new);
        });
    });
    changed
}

/// What [`find_all_impl`] did before it read slices: one `Sheet::cell` per
/// position, row by row. Kept as the reference the differential test
/// compares the scan against.
#[cfg(test)]
pub(crate) fn find_all_reference(sheet: &Sheet, range: Range, needle: &str) -> Vec<CellAddr> {
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
            let found = match sheet.cell(addr) {
                Some(c) => matches!(c.display_value(), Value::Text(s) if s.contains(needle)),
                None => false,
            };
            if found {
                hits.push(addr);
            }
        }
    }
    hits
}

/// What [`find_replace_impl`] did before it edited chunks in place: the
/// hit list of a full search, then a `Sheet::cell` and a `Sheet::set_value`
/// per hit. Kept as the reference the differential test compares the
/// in-place rewrite against.
#[cfg(test)]
pub(crate) fn find_replace_reference(
    sheet: &mut Sheet,
    range: Range,
    needle: &str,
    replacement: &str,
) -> u32 {
    if needle.is_empty() {
        return 0;
    }
    let hits = find_all_reference(sheet, range, needle);
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
