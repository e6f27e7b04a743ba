//! Sort: reorders all rows of the sheet by one or more key columns
//! (§4.2.1). The expected complexity is O(m log m) comparisons plus
//! O(m·n) cell moves; both are charged to the meter from the *actual*
//! comparison and move counts.
//!
//! Four phases. **Keys**: each key column is read once through the
//! single-column range visit over the grid's slice scan (one chunk resolve,
//! and under a budget at most one page read, per 1 024 rows) into a flat
//! vector — raw `f64`s while every key is a finite number or blank,
//! `Value`s from the first key that is not. **Order**: a stable sort of
//! row indices over those vectors, counting comparisons. **Grid** and
//! **formulas**: [`Sheet::permute_rows`] moves the chunks (DESIGN.md §14),
//! rewrites the moved formulas' references where they landed and rebuilds
//! the dependency graph.

use std::cell::Cell as StdCell;
use std::cmp::Ordering;

use crate::addr::{CellAddr, Range};
use crate::error::EngineError;
use crate::eval::CellSource;
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

impl SortOrder {
    /// An ascending comparison's outcome, in this direction.
    fn direct(self, ord: Ordering) -> Ordering {
        match self {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        }
    }
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

/// The displayed values of one key column, one per row.
enum KeyColumn {
    /// Every key is a finite number or blank. [`Value::sheet_cmp`] ranks
    /// `Empty` below every number, so `NEG_INFINITY` stands in for it and
    /// `partial_cmp` decides every pair exactly as `sheet_cmp` would.
    Nums(Vec<f64>),
    /// Anything else: text, booleans, errors — and the `±inf` and `NaN` a
    /// `SUM` fold can still cache (ROADMAP item 12), which only
    /// `sheet_cmp` orders totally.
    Values(Vec<Value>),
}

/// The stand-in for a blank key in [`KeyColumn::Nums`].
const BLANK: f64 = f64::NEG_INFINITY;

impl KeyColumn {
    /// Reads rows `0..m` of `col` through the sheet's single-column range
    /// visit, which walks the grid's slice scan. At millions of rows a
    /// 24-byte `Value` per row is the sort's peak-memory term, so the `f64`
    /// vector is filled directly and converted only when a key turns up
    /// that does not fit it.
    fn read(sheet: &Sheet, col: u32, m: u32) -> KeyColumn {
        let mut keys = KeyColumn::Nums(Vec::with_capacity(m as usize));
        let range = Range::new(CellAddr::new(0, col), CellAddr::new(m - 1, col));
        sheet.visit_range(range, &mut |_, v, _| keys.push(v));
        // A key column past the extent reads as blank, as `Sheet::value` does.
        match &mut keys {
            KeyColumn::Nums(nums) => nums.resize(m as usize, BLANK),
            KeyColumn::Values(vals) => vals.resize(m as usize, Value::Empty),
        }
        keys
    }

    /// Appends one key. The first that is neither a finite number nor
    /// blank moves what was read so far over to `Values` (every `BLANK`
    /// among it is a blank: `-inf` itself would have been that first key).
    fn push(&mut self, v: &Value) {
        if let KeyColumn::Nums(nums) = self {
            match v {
                Value::Number(n) if n.is_finite() => return nums.push(*n),
                Value::Empty => return nums.push(BLANK),
                _ => {}
            }
            let mut vals = Vec::with_capacity(nums.capacity());
            vals.extend(nums.iter().map(|&n| {
                if n == BLANK {
                    Value::Empty
                } else {
                    Value::Number(n)
                }
            }));
            *self = KeyColumn::Values(vals);
        }
        if let KeyColumn::Values(vals) = self {
            vals.push(v.clone());
        }
    }

    /// How rows `a` and `b` compare on this key, ascending.
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        match self {
            KeyColumn::Nums(k) => cmp_nums(k, a, b),
            KeyColumn::Values(k) => k[a as usize].sheet_cmp(&k[b as usize]),
        }
    }
}

/// How rows `a` and `b` compare on a [`KeyColumn::Nums`] key. Its keys are
/// finite or `BLANK`, never NaN, so `partial_cmp` decides every pair as
/// `sheet_cmp` does and the `Equal` fallback is never taken; equal keys —
/// `0` and `-0` among them — tie. (`total_cmp` would put `-0` first, and
/// change what the stable sort does with them.)
fn cmp_nums(keys: &[f64], a: u32, b: u32) -> Ordering {
    keys[a as usize].partial_cmp(&keys[b as usize]).unwrap_or(Ordering::Equal)
}

/// Stable-sorts `perm` by `cmp` and returns the exact number of
/// comparisons the sort made.
fn sort_counting(perm: &mut [u32], cmp: impl Fn(u32, u32) -> Ordering) -> u64 {
    let comparisons = StdCell::new(0u64);
    perm.sort_by(|&a, &b| {
        comparisons.set(comparisons.get() + 1);
        cmp(a, b)
    });
    comparisons.get()
}

/// Stable-sorts every row of the sheet by the given keys. Returns the
/// permutation that was applied (new row `i` was old row `perm[i]`).
pub(crate) fn sort_rows_impl(sheet: &mut Sheet, keys: &[SortKey]) -> Result<Vec<u32>, EngineError> {
    let m = sheet.nrows();
    let n = sheet.ncols();
    if m == 0 || keys.is_empty() {
        return Ok(Vec::new());
    }

    // One metered read per key cell.
    let columns: Vec<(KeyColumn, SortOrder)> =
        keys.iter().map(|key| (KeyColumn::read(sheet, key.col, m), key.order)).collect();
    sheet.meter().bump(Primitive::CellRead, u64::from(m) * keys.len() as u64);

    // Comparison *decisions* do not depend on which representation holds a
    // key column, so neither does their count (the CmpRead charge). The
    // common sort, one numeric key, gets a comparator with nothing between
    // the sort and the two `f64`s: the sort phase runs a fifth faster than
    // through the general one.
    let mut perm: Vec<u32> = (0..m).collect();
    let comparisons = match columns.as_slice() {
        [(KeyColumn::Nums(keys), order)] => {
            sort_counting(&mut perm, |a, b| order.direct(cmp_nums(keys, a, b)))
        }
        _ => sort_counting(&mut perm, |a, b| {
            columns
                .iter()
                .map(|(column, order)| order.direct(column.cmp(a, b)))
                .find(|ord| !ord.is_eq())
                .unwrap_or(Ordering::Equal)
        }),
    };
    // The keys are dead weight while the grid moves.
    drop(columns);
    sheet.meter().bump(Primitive::CmpRead, comparisons);

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

    /// An overflowing operator stores `#NUM!`, but a `SUM` fold does not:
    /// `=SUM(-1E308,-1E308)` caches `-inf` and the sum of that and `+inf`
    /// caches `NaN`. Standing
    /// `NEG_INFINITY` in for blanks interleaved the former with them, and
    /// `partial_cmp(..).unwrap_or(Equal)` made the latter equal to
    /// everything — not a total order.
    #[test]
    fn non_finite_keys_sort_in_sheet_cmp_order() {
        let mut s = Sheet::new();
        for r in 0..200u32 {
            let at = CellAddr::new(r, 0);
            match r % 4 {
                0 => s.set_formula_str(at, "=SUM(-1E308,-1E308)").unwrap(),
                1 => s.set_formula_str(at, "=SUM(SUM(1E308,1E308),SUM(-1E308,-1E308))").unwrap(),
                2 => s.set_value(at, i64::from(r % 7) - 3),
                _ => {}
            }
            s.set_value(CellAddr::new(r, 1), r);
        }
        crate::recalc::recalc_all(&mut s);
        assert_eq!(s.value(CellAddr::new(0, 0)), Value::Number(f64::NEG_INFINITY));
        assert!(matches!(s.value(CellAddr::new(1, 0)), Value::Number(n) if n.is_nan()));

        let keys = |s: &Sheet| (0..200).map(|r| s.value(CellAddr::new(r, 0))).collect::<Vec<_>>();
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        let sorted = keys(&s);
        for (r, pair) in sorted.windows(2).enumerate() {
            assert!(pair[0].sheet_cmp(&pair[1]).is_le(), "rows {r} and {}: {pair:?}", r + 1);
        }
        assert!(sorted[..50].iter().all(Value::is_empty), "blanks first");
        assert!(sorted[50..100].iter().all(|v| *v == Value::Number(f64::NEG_INFINITY)));
        assert!(sorted[150..].iter().all(|v| matches!(v, Value::Number(n) if n.is_nan())));

        s.apply(Op::Sort { keys: vec![SortKey::desc(0)] }).unwrap();
        for (r, pair) in keys(&s).windows(2).enumerate() {
            assert!(pair[0].sheet_cmp(&pair[1]).is_ge(), "rows {r} and {}: {pair:?}", r + 1);
        }
    }

    /// `0` and `-0` are equal keys: a column of them, interleaved, keeps
    /// its input order under a stable ascending sort.
    #[test]
    fn signed_zero_keys_tie() {
        let mut s = Sheet::new();
        for r in 0..64u32 {
            let zero = if r % 2 == 0 { 0.0 } else { -0.0 };
            s.set_value(CellAddr::new(r, 0), Value::Number(zero));
            s.set_value(CellAddr::new(r, 1), r);
        }
        assert!(matches!(s.value(CellAddr::new(1, 0)), Value::Number(z) if z.is_sign_negative()));
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        for r in 0..64u32 {
            assert_eq!(s.value(CellAddr::new(r, 1)), Value::Number(f64::from(r)), "row {r}");
            let Value::Number(key) = s.value(CellAddr::new(r, 0)) else { panic!("row {r}") };
            assert_eq!(key.is_sign_negative(), r % 2 == 1, "row {r}");
        }
    }

    /// A key column that starts numeric and turns to text half way down,
    /// an all-numeric one, one past the extent, and multi-key sorts mixing
    /// the two representations: the order, and the charges, of comparing
    /// `Sheet::value`s row by row.
    #[test]
    fn key_vectors_agree_with_per_row_values() {
        for keys in [
            vec![SortKey::asc(0)],
            vec![SortKey::desc(1)],
            vec![SortKey::desc(1), SortKey::asc(0)],
            vec![SortKey::asc(7), SortKey::desc(0)],
        ] {
            let mut s = Sheet::new();
            for r in 0..3000u32 {
                let a = CellAddr::new(r, 0);
                match r {
                    0..=1499 if r % 9 != 4 => s.set_value(a, i64::from((r * 7919) % 13)),
                    1500..=2999 if r % 5 != 1 => s.set_value(a, format!("k{}", (r * 31) % 17)),
                    _ => {}
                }
                s.set_value(CellAddr::new(r, 1), i64::from((r * 104_729) % 11));
            }
            let value = |row: u32, key: &SortKey| s.value(CellAddr::new(row, key.col));
            let mut compared = 0u64;
            let mut want: Vec<u32> = (0..s.nrows()).collect();
            want.sort_by(|&x, &y| {
                compared += 1;
                keys.iter()
                    .map(|key| match key.order {
                        SortOrder::Ascending => value(x, key).sheet_cmp(&value(y, key)),
                        SortOrder::Descending => value(x, key).sheet_cmp(&value(y, key)).reverse(),
                    })
                    .find(|ord| !ord.is_eq())
                    .unwrap_or(Ordering::Equal)
            });
            let before = s.meter().snapshot();
            let out = s.apply(Op::Sort { keys: keys.clone() });
            assert_eq!(out, Ok(OpOutcome::Sorted { permutation: want }), "{keys:?}");
            let d = s.meter().snapshot().since(&before);
            assert_eq!(d.get(Primitive::CellRead), 3000 * keys.len() as u64, "{keys:?}");
            assert_eq!(d.get(Primitive::CmpRead), compared, "{keys:?}");
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
