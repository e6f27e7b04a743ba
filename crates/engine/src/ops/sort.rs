//! Sort: reorders all rows of the sheet by one or more key columns
//! (§4.2.1). The expected complexity is O(m log m) comparisons plus
//! O(m·n) cell moves; both are charged to the meter from the *actual*
//! comparison and move counts.

use std::cell::Cell as StdCell;

use crate::addr::CellAddr;
use crate::error::EngineError;
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::value::Value;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    #[default]
    Ascending,
    Descending,
}

/// One sort key: a column and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: u32,
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending key on `col`.
    pub fn asc(col: u32) -> Self {
        SortKey { col, order: SortOrder::Ascending }
    }

    /// Descending key on `col`.
    pub fn desc(col: u32) -> Self {
        SortKey { col, order: SortOrder::Descending }
    }
}

/// Stable-sorts every row of the sheet by the given keys. Returns the
/// permutation that was applied (new row `i` was old row `perm[i]`).
pub(crate) fn sort_rows_impl(sheet: &mut Sheet, keys: &[SortKey]) -> Result<Vec<u32>, EngineError> {
    let m = sheet.nrows();
    let n = sheet.ncols();
    if m == 0 || keys.is_empty() {
        return Ok(Vec::new());
    }

    // Stable sort with an exact comparison counter. Comparison *decisions*
    // are identical across the paths below, so the counter (and therefore
    // the CmpRead charge) does not depend on which representation holds the
    // keys.
    let comparisons = StdCell::new(0u64);
    let mut perm: Vec<u32> = (0..m).collect();

    if let [key] = keys {
        // Single-key sort: extract a flat key vector (one metered read per
        // row), and when the column is purely numeric/empty compare raw
        // `f64`s instead of `Value`s — at millions of rows the per-row
        // `Vec<Value>` of the general path dominates peak memory.
        let mut vals: Vec<Value> = Vec::with_capacity(m as usize);
        for row in 0..m {
            sheet.meter().tick(Primitive::CellRead);
            vals.push(sheet.value(CellAddr::new(row, key.col)));
        }
        if vals.iter().all(|v| matches!(v, Value::Number(_) | Value::Empty)) {
            // `sheet_cmp` ranks Empty below every number, and the grid
            // never stores a non-finite number, so NEG_INFINITY is a safe
            // stand-in for Empty and `partial_cmp` never sees NaN.
            let nums: Vec<f64> = vals
                .iter()
                .map(|v| match v {
                    Value::Number(x) => *x,
                    _ => f64::NEG_INFINITY,
                })
                .collect();
            drop(vals);
            perm.sort_by(|&a, &b| {
                comparisons.set(comparisons.get() + 1);
                let ord = nums[a as usize]
                    .partial_cmp(&nums[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal);
                match key.order {
                    SortOrder::Ascending => ord,
                    SortOrder::Descending => ord.reverse(),
                }
            });
        } else {
            perm.sort_by(|&a, &b| {
                comparisons.set(comparisons.get() + 1);
                let ord = vals[a as usize].sheet_cmp(&vals[b as usize]);
                match key.order {
                    SortOrder::Ascending => ord,
                    SortOrder::Descending => ord.reverse(),
                }
            });
        }
    } else {
        // Extract key values once per row (one metered read per key cell).
        let mut key_values: Vec<Vec<Value>> = Vec::with_capacity(m as usize);
        for row in 0..m {
            let mut ks = Vec::with_capacity(keys.len());
            for key in keys {
                sheet.meter().tick(Primitive::CellRead);
                ks.push(sheet.value(CellAddr::new(row, key.col)));
            }
            key_values.push(ks);
        }
        perm.sort_by(|&a, &b| {
            comparisons.set(comparisons.get() + 1);
            let ka = &key_values[a as usize];
            let kb = &key_values[b as usize];
            for (i, key) in keys.iter().enumerate() {
                let ord = ka[i].sheet_cmp(&kb[i]);
                let ord = match key.order {
                    SortOrder::Ascending => ord,
                    SortOrder::Descending => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    sheet.meter().bump(Primitive::CmpRead, comparisons.get());

    // Physically move every cell of every row.
    sheet.meter().bump(Primitive::CellMove, u64::from(m) * u64::from(n));
    sheet.permute_rows(&perm)?;
    Ok(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, OpOutcome};
    use crate::meter::Primitive;

    fn sheet_with_col(values: &[i64]) -> Sheet {
        let mut s = Sheet::new();
        for (i, &v) in values.iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 0), v);
            s.set_value(CellAddr::new(i as u32, 1), format!("row{i}"));
        }
        s
    }

    fn col_a(s: &Sheet) -> Vec<f64> {
        (0..s.nrows()).map(|r| s.value(CellAddr::new(r, 0)).as_number().unwrap()).collect()
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let mut s = sheet_with_col(&[3, 1, 2]);
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        assert_eq!(col_a(&s), vec![1.0, 2.0, 3.0]);
        s.apply(Op::Sort { keys: vec![SortKey::desc(0)] }).unwrap();
        assert_eq!(col_a(&s), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn rows_move_together() {
        let mut s = sheet_with_col(&[3, 1, 2]);
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        assert_eq!(s.value(CellAddr::new(0, 1)), Value::text("row1"));
        assert_eq!(s.value(CellAddr::new(2, 1)), Value::text("row0"));
    }

    #[test]
    fn stable_on_ties() {
        let mut s = Sheet::new();
        for (i, (k, tag)) in [(1, "a"), (0, "b"), (1, "c"), (0, "d")].iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 0), *k as i64);
            s.set_value(CellAddr::new(i as u32, 1), *tag);
        }
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        let tags: Vec<String> =
            (0..4).map(|r| s.value(CellAddr::new(r, 1)).display()).collect();
        assert_eq!(tags, ["b", "d", "a", "c"]);
    }

    #[test]
    fn multi_key_sort() {
        let mut s = Sheet::new();
        let rows = [(2, 1), (1, 2), (2, 0), (1, 1)];
        for (i, (a, b)) in rows.iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 0), *a as i64);
            s.set_value(CellAddr::new(i as u32, 1), *b as i64);
        }
        s.apply(Op::Sort { keys: vec![SortKey::asc(0), SortKey::desc(1)] }).unwrap();
        let pairs: Vec<(f64, f64)> = (0..4)
            .map(|r| {
                (
                    s.value(CellAddr::new(r, 0)).as_number().unwrap(),
                    s.value(CellAddr::new(r, 1)).as_number().unwrap(),
                )
            })
            .collect();
        assert_eq!(pairs, vec![(1.0, 2.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0)]);
    }

    #[test]
    fn charges_moves_and_comparisons() {
        let mut s = sheet_with_col(&[5, 4, 3, 2, 1]);
        let before = s.meter().snapshot();
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellMove), 10); // 5 rows × 2 cols
        assert_eq!(d.get(Primitive::CellRead), 5); // one key read per row
        assert!(d.get(Primitive::CmpRead) >= 4, "at least m-1 comparisons");
    }

    /// Volatile (`NOW`) and unbounded-read (`OFFSET`) templates are as
    /// much functions of their R1C1 key as any other: a sort must not make
    /// the next recalculation compile them again.
    #[test]
    fn sort_recompiles_neither_volatile_nor_unbounded_templates() {
        let mut s = sheet_with_col(&[3, 1, 2]);
        s.set_now_serial(100.0);
        for r in 0..3u32 {
            s.set_formula_str(CellAddr::new(r, 2), &format!("=NOW()+A{}", r + 1)).unwrap();
            s.set_formula_str(CellAddr::new(r, 3), &format!("=OFFSET(A{},0,0)", r + 1)).unwrap();
        }
        crate::recalc::recalc_all(&mut s);
        assert_eq!((s.program_cache().len(), s.program_cache().misses()), (2, 2));
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        crate::recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().misses(), 2, "the sort evicted a template");
        for r in 0..3u32 {
            let n = f64::from(r + 1);
            assert_eq!(s.value(CellAddr::new(r, 2)), Value::Number(100.0 + n));
            assert_eq!(s.value(CellAddr::new(r, 3)), Value::Number(n));
        }
    }

    #[test]
    fn empty_sheet_is_noop() {
        let mut s = Sheet::new();
        let out = s.apply(Op::Sort { keys: vec![SortKey::asc(0)] });
        assert_eq!(out, Ok(OpOutcome::Sorted { permutation: vec![] }));
    }

    #[test]
    fn returns_applied_permutation() {
        let mut s = sheet_with_col(&[30, 10, 20]);
        let out = s.apply(Op::Sort { keys: vec![SortKey::asc(0)] });
        assert_eq!(out, Ok(OpOutcome::Sorted { permutation: vec![1, 2, 0] }));
    }
}
