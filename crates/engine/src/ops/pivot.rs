//! Pivot table (§4.3.2): "similar to group-by queries in databases; it
//! computes summary statistics of groups of data". The paper's experiment
//! builds the sum of storms per state into a new worksheet.
//!
//! The scan walks the two columns a 1 024-row band at a time over the
//! grid's typed slices (DESIGN.md §18): the band's share of the dimension
//! column becomes a group slot per row, then the band's share of the
//! measure column is folded into those slots. A group's identity — the
//! lower-cased display text of its key — is worked out once per distinct
//! key, not once per row.

use std::collections::HashMap;

#[cfg(test)]
use crate::addr::CellAddr;
use crate::addr::Range;
use crate::grid::{IdMemo, ScanSlice, CHUNK_ROWS};
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::trace;
use crate::value::Value;

/// Aggregation applied to the measure column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotAgg {
    Sum,
    Count,
    Average,
    Min,
    Max,
}

/// A computed pivot table: one row per group, sorted by group key.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotTable {
    pub agg: PivotAgg,
    /// `(group key, aggregate value, group row count)`.
    pub groups: Vec<(Value, f64, u64)>,
}

impl PivotTable {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The aggregate for a given group key.
    pub fn value_for(&self, key: &Value) -> Option<f64> {
        self.groups.iter().find(|(k, _, _)| k.sheet_eq(key)).map(|(_, v, _)| *v)
    }
}

/// Builds a pivot of `agg(measure_col)` grouped by `dim_col`, scanning
/// every row once (the expected O(m) of Table 1).
///
/// A `&Sheet` query: it opens its own `op:pivot` span since it cannot
/// route through [`Sheet::apply`]; the `Op::Pivot` command dispatches to
/// the same implementation.
pub fn pivot(sheet: &Sheet, dim_col: u32, measure_col: u32, agg: PivotAgg) -> PivotTable {
    trace::with_op_span("pivot", sheet.meter(), || pivot_impl(sheet, dim_col, measure_col, agg))
}

pub(crate) fn pivot_impl(sheet: &Sheet, dim_col: u32, measure_col: u32, agg: PivotAgg) -> PivotTable {
    let m = sheet.nrows();
    sheet.meter().bump(Primitive::CellRead, 2 * u64::from(m));
    let grid = sheet.grid_store();
    let mut groups = Groups::default();
    // Which group a key was found to belong to, so its identity text is
    // built once per distinct key: per interner id for text, per bit
    // pattern for numbers (the same bits display the same).
    let mut by_text = IdMemo::for_cells(u64::from(m));
    let mut by_number: HashMap<u64, u32> = HashMap::new();
    // One band of one column is one chunk: a spilled one faults once, and
    // the only per-row state is this band's group slots.
    let mut slots = [NO_GROUP; CHUNK_ROWS as usize];
    for top in (0..m).step_by(CHUNK_ROWS as usize) {
        let bottom = (top + (CHUNK_ROWS - 1)).min(m - 1);
        // What a scan does not emit — a vacant run, a column past the
        // extent — is an empty key, or a measure that is not a number.
        slots.fill(NO_GROUP);
        let mut i = 0;
        grid.scan_range(Range::column_segment(dim_col, top, bottom), &mut |slice| match slice {
            ScanSlice::Nums(vals) => {
                for (slot, &n) in slots[i..].iter_mut().zip(vals) {
                    *slot = *by_number
                        .entry(n.to_bits())
                        .or_insert_with(|| groups.of(&Value::Number(n)));
                }
                i += vals.len();
            }
            ScanSlice::Texts(ids, interner) => {
                for (slot, &id) in slots[i..].iter_mut().zip(ids) {
                    *slot = by_text.get(id, || groups.of(interner.value(id)));
                }
                i += ids.len();
            }
            ScanSlice::Cells(cells) => {
                for (slot, cell) in slots[i..].iter_mut().zip(cells) {
                    *slot = groups.of(cell.display_value());
                }
                i += cells.len();
            }
            ScanSlice::Empty(n) => i += n,
        });
        // Ascending row order, band after band: every group's sum adds its
        // measures in the order a row-at-a-time walk would.
        let mut i = 0;
        grid.scan_range(Range::column_segment(measure_col, top, bottom), &mut |slice| match slice {
            ScanSlice::Nums(vals) => {
                for (&slot, &n) in slots[i..].iter().zip(vals) {
                    groups.add(slot, n);
                }
                i += vals.len();
            }
            ScanSlice::Cells(cells) => {
                for (&slot, cell) in slots[i..].iter().zip(cells) {
                    if let Value::Number(n) = cell.display_value() {
                        groups.add(slot, *n);
                    }
                }
                i += cells.len();
            }
            ScanSlice::Texts(ids, _) => i += ids.len(),
            ScanSlice::Empty(n) => i += n,
        });
    }
    groups.into_table(agg)
}

/// The slot of a row whose key is empty: it belongs to no group.
const NO_GROUP: u32 = u32::MAX;

#[derive(Default)]
struct Acc {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

/// The groups met so far, in first-seen order. A group's identity is the
/// lower-cased display text of its key — `"SD"` and `"sd"`, `1` and `"1"`
/// are one group — and whichever key came first represents it.
#[derive(Default)]
struct Groups {
    accs: Vec<(Value, Acc)>,
    by_identity: HashMap<String, u32>,
}

impl Groups {
    /// The slot of `key`'s group, opening the group if `key` is its first.
    fn of(&mut self, key: &Value) -> u32 {
        if key.is_empty() {
            return NO_GROUP;
        }
        let accs = &mut self.accs;
        *self.by_identity.entry(key.display().to_lowercase()).or_insert_with(|| {
            accs.push((key.clone(), Acc::default()));
            (accs.len() - 1) as u32
        })
    }

    #[inline]
    fn add(&mut self, slot: u32, n: f64) {
        if let Some((_, acc)) = self.accs.get_mut(slot as usize) {
            acc.add(n);
        }
    }

    fn into_table(self, agg: PivotAgg) -> PivotTable {
        let mut groups: Vec<(Value, f64, u64)> =
            self.accs.into_iter().map(|(key, acc)| (key, acc.value(agg), acc.count)).collect();
        groups.sort_by(|(a, _, _), (b, _, _)| a.sheet_cmp(b));
        PivotTable { agg, groups }
    }
}

impl Acc {
    fn add(&mut self, n: f64) {
        if self.count == 0 {
            self.min = n;
            self.max = n;
        } else {
            self.min = self.min.min(n);
            self.max = self.max.max(n);
        }
        self.sum += n;
        self.count += 1;
    }

    fn value(&self, agg: PivotAgg) -> f64 {
        match agg {
            PivotAgg::Sum => self.sum,
            PivotAgg::Count => self.count as f64,
            PivotAgg::Average => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
            PivotAgg::Min => self.min,
            PivotAgg::Max => self.max,
        }
    }
}

/// What [`pivot_impl`] did before it read slices: two `Sheet::value`s and
/// a lower-cased key `String` per row. Kept as the reference the
/// differential test compares the band walk against.
#[cfg(test)]
pub(crate) fn pivot_reference(sheet: &Sheet, dim_col: u32, measure_col: u32, agg: PivotAgg) -> PivotTable {
    let mut groups: HashMap<String, (Value, Acc)> = HashMap::new();
    let m = sheet.nrows();
    for row in 0..m {
        sheet.meter().bump(Primitive::CellRead, 2);
        let key = sheet.value(CellAddr::new(row, dim_col));
        if key.is_empty() {
            continue;
        }
        let measure = sheet.value(CellAddr::new(row, measure_col));
        let key_norm = key.display().to_lowercase();
        let entry = groups.entry(key_norm).or_insert_with(|| (key.clone(), Acc::default()));
        if let Value::Number(n) = measure {
            entry.1.add(n);
        }
    }
    let mut rows: Vec<(Value, f64, u64)> =
        groups.into_values().map(|(key, acc)| (key, acc.value(agg), acc.count)).collect();
    rows.sort_by(|(a, _, _), (b, _, _)| a.sheet_cmp(b));
    PivotTable { agg, groups: rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weather() -> Sheet {
        // state in col B (1), storms count in col J (9)
        let mut s = Sheet::new();
        let rows = [("SD", 2), ("IL", 1), ("SD", 3), ("CA", 0), ("IL", 4)];
        for (i, (state, storms)) in rows.iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 1), *state);
            s.set_value(CellAddr::new(i as u32, 9), *storms as i64);
        }
        s
    }

    #[test]
    fn sums_per_group() {
        let p = pivot(&weather(), 1, 9, PivotAgg::Sum);
        assert_eq!(p.len(), 3);
        assert_eq!(p.value_for(&Value::text("SD")), Some(5.0));
        assert_eq!(p.value_for(&Value::text("IL")), Some(5.0));
        assert_eq!(p.value_for(&Value::text("CA")), Some(0.0));
    }

    #[test]
    fn other_aggregates() {
        let s = weather();
        assert_eq!(pivot(&s, 1, 9, PivotAgg::Count).value_for(&Value::text("SD")), Some(2.0));
        assert_eq!(pivot(&s, 1, 9, PivotAgg::Average).value_for(&Value::text("IL")), Some(2.5));
        assert_eq!(pivot(&s, 1, 9, PivotAgg::Min).value_for(&Value::text("SD")), Some(2.0));
        assert_eq!(pivot(&s, 1, 9, PivotAgg::Max).value_for(&Value::text("IL")), Some(4.0));
    }

    #[test]
    fn groups_sorted_by_key() {
        let p = pivot(&weather(), 1, 9, PivotAgg::Sum);
        let keys: Vec<String> = p.groups.iter().map(|(k, _, _)| k.display()).collect();
        assert_eq!(keys, ["CA", "IL", "SD"]);
    }

    #[test]
    fn case_insensitive_grouping() {
        let mut s = weather();
        s.set_value(CellAddr::new(5, 1), "sd");
        s.set_value(CellAddr::new(5, 9), 10);
        let p = pivot(&s, 1, 9, PivotAgg::Sum);
        assert_eq!(p.len(), 3);
        assert_eq!(p.value_for(&Value::text("SD")), Some(15.0));
    }

    #[test]
    fn scan_cost_is_two_reads_per_row() {
        let s = weather();
        let before = s.meter().snapshot();
        pivot(&s, 1, 9, PivotAgg::Sum);
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 10);
    }

    #[test]
    fn empty_sheet_yields_empty_pivot() {
        let s = Sheet::new();
        assert!(pivot(&s, 0, 1, PivotAgg::Sum).is_empty());
    }
}
