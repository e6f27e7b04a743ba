//! Pivot table (§4.3.2): "similar to group-by queries in databases; it
//! computes summary statistics of groups of data". The paper's experiment
//! builds the sum of storms per state into a new worksheet.

use std::collections::HashMap;

use crate::addr::CellAddr;
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

    /// Writes the table into `target` starting at `at`: key in the first
    /// column, aggregate in the second — the "new worksheet" of the
    /// experiment.
    pub fn write_to(&self, target: &mut Sheet, at: CellAddr) {
        for (i, (key, value, _)) in self.groups.iter().enumerate() {
            target.meter().tick(Primitive::GroupWrite);
            target.set_value(CellAddr::new(at.row + i as u32, at.col), key.clone());
            target.set_value(CellAddr::new(at.row + i as u32, at.col + 1), *value);
        }
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
    #[derive(Default)]
    struct Acc {
        sum: f64,
        count: u64,
        min: f64,
        max: f64,
    }
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
            let acc = &mut entry.1;
            if acc.count == 0 {
                acc.min = n;
                acc.max = n;
            } else {
                acc.min = acc.min.min(n);
                acc.max = acc.max.max(n);
            }
            acc.sum += n;
            acc.count += 1;
        }
    }
    let mut rows: Vec<(Value, f64, u64)> = groups
        .into_values()
        .map(|(key, acc)| {
            let v = match agg {
                PivotAgg::Sum => acc.sum,
                PivotAgg::Count => acc.count as f64,
                PivotAgg::Average => {
                    if acc.count == 0 {
                        0.0
                    } else {
                        acc.sum / acc.count as f64
                    }
                }
                PivotAgg::Min => acc.min,
                PivotAgg::Max => acc.max,
            };
            (key, v, acc.count)
        })
        .collect();
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
    fn write_to_target_sheet() {
        let p = pivot(&weather(), 1, 9, PivotAgg::Sum);
        let mut out = Sheet::new();
        p.write_to(&mut out, CellAddr::new(0, 0));
        assert_eq!(out.value(CellAddr::new(0, 0)), Value::text("CA"));
        assert_eq!(out.value(CellAddr::new(0, 1)), Value::Number(0.0));
        assert_eq!(out.nrows(), 3);
        assert_eq!(out.meter().snapshot().get(Primitive::GroupWrite), 3);
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
