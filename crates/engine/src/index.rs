//! Maintained column indexes: the database-style optimization the paper
//! finds missing from all three benchmarked systems (§OOT, Figs 9–14).
//!
//! An [`IndexStore`] lives on the `Sheet` and holds, per built column, a
//! hash index: value key → sorted row postings. `COUNTIF`/`SUMIF`/
//! `AVERAGEIF`/`VLOOKUP`/`MATCH` evaluation consults the store through
//! [`crate::eval::EvalCtx::indexes`] and answers eligible queries with
//! O(1)/O(log m) probes instead of the O(m) scans the real systems
//! perform. Every probe charges [`Primitive::IndexProbe`] so the cost
//! model prices indexed evaluation honestly; values are bit-identical to
//! the scan path (proven by the §9 oracle's `indexed` dimension and the
//! equivalence tests).
//!
//! # Lifecycle
//!
//! Under auto-indexing (`Sheet::set_auto_index`) every recalculation entry
//! point runs `Sheet::ensure_indexes`, which builds each materialized
//! column that is not built and holds no formula.
//!
//! * **No formulas.** An indexed column contains only literal cells: a
//!   formula's displayed value changes during recalculation without
//!   passing through `Sheet::set_value`, so a column index over formulas
//!   could go stale invisibly. Whether a column holds a formula is the
//!   dependency graph's count of the formulas registered in it
//!   (`DepGraph::holds_formula_in`), which every write, sort and
//!   structural edit already keeps; the store keeps no record of its own.
//!   `set_formula` into a built column drops its index at once, so no
//!   probe reads the column before the formula is computed; once the
//!   column's last formula is overwritten or deleted, the next
//!   `ensure_indexes` builds it like any new column.
//! * **Single write channel.** Every literal-content mutation in the
//!   engine funnels through `Sheet::set_value`/`set_formula`, or is
//!   reported by `Sheet::edit_chunks` (find-and-replace's in-place
//!   rewrite), so `on_write` sees every edit of an indexed column with the
//!   old value still in hand.
//! * **Structural edits move with their rows.** A built index follows
//!   the cells it describes instead of being rebuilt from the grid (§6:
//!   an index that "encodes the row or column number" must not be redone
//!   wholesale for "a single change"): a sort maps every posting through
//!   the permutation (`IndexStore::permute`), a row edit shifts the
//!   postings past the band and drops the ones inside it
//!   (`IndexStore::shift_rows`), a column edit re-keys the built indexes
//!   with their columns (`IndexStore::remap_cols`).
//!   None of this is charged to the meter: the edit's `CellMove`s already
//!   price the rows moving. The oracle's `audit::check_indexes` holds
//!   every built index to a fresh build after every op.
//!
//! # Eligibility
//!
//! Probes answer only what the postings can answer with the scan path's
//! exact semantics (`sheet_eq` / `Criterion::matches`): an `Eq` or `Ne`
//! criterion, or an exact lookup, over one column of a built index.
//! Keys must be `Number` or `Text` without COUNTIF wildcards — text keys
//! are normalized with `to_ascii_lowercase`, the same equivalence as
//! `sheet_eq`'s `eq_ignore_ascii_case`; `-0.0` normalizes to `0.0`
//! because `sheet_eq` uses IEEE `==`. Everything else (ordered criteria,
//! wildcards, booleans, errors, multi-column ranges, approximate lookups)
//! returns `None` and the caller scans.

use std::collections::HashMap;

use crate::addr::{CellAddr, Range};
use crate::eval::EvalCtx;
use crate::meter::{Meter, Primitive};
use crate::value::{Criterion, Value};

/// A hash key for a cell value, defined exactly on the values `sheet_eq`
/// can equate structurally: numbers (bitwise, with `-0.0` folded into
/// `0.0`) and ASCII-case-folded text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    Num(u64),
    Text(String),
}

impl IndexKey {
    fn of(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Number(n) => {
                // sheet_eq uses IEEE ==, under which -0.0 == 0.0.
                let n = if *n == 0.0 { 0.0 } else { *n };
                Some(IndexKey::Num(n.to_bits()))
            }
            Value::Text(s) => Some(IndexKey::Text(s.to_ascii_lowercase())),
            _ => None,
        }
    }
}

/// One column's index: value key → rows holding it, ascending. Every
/// list is non-empty.
#[derive(Debug, Default, PartialEq)]
pub struct ColumnIndex {
    hash: HashMap<IndexKey, Vec<u32>>,
}

impl ColumnIndex {
    /// Appends one cell to a build (`Sheet::scan_index`), charging one
    /// `IndexProbe` when it is indexed, so a build is priced as real work.
    /// Rows must arrive in ascending order: builds walk the column top to
    /// bottom.
    pub(crate) fn push(&mut self, meter: &Meter, row: u32, v: &Value) {
        let Some(key) = IndexKey::of(v) else { return };
        meter.tick(Primitive::IndexProbe);
        self.hash.entry(key).or_default().push(row);
    }

    /// Moves every posting with its row through a sort: new row `i` was
    /// old row `perm[i]`. The result is each posting mapped through the
    /// inverse permutation and its list re-sorted; it is assembled by one
    /// walk down the new rows, which appends each to its list in ascending
    /// order.
    fn permute(&mut self, perm: &[u32]) {
        let mut lists: Vec<&mut Vec<u32>> = self.hash.values_mut().collect();
        // The list each old row posts to (`u32::MAX`: none).
        let mut list_of = vec![u32::MAX; perm.len()];
        for (k, rows) in lists.iter_mut().enumerate() {
            for &row in rows.iter() {
                list_of[row as usize] = k as u32;
            }
            rows.clear();
        }
        for (new, &old) in perm.iter().enumerate() {
            if let Some(rows) = lists.get_mut(list_of[old as usize] as usize) {
                rows.push(new as u32);
            }
        }
    }

    /// Opens `count` vacant rows before row `at`: later postings shift.
    fn insert_rows(&mut self, at: u32, count: u32) {
        for rows in self.hash.values_mut() {
            let i = rows.partition_point(|&r| r < at);
            rows[i..].iter_mut().for_each(|r| *r += count);
        }
    }

    /// Removes rows `at..at + count`: their postings go (and a list they
    /// empty with them), later ones shift up.
    fn delete_rows(&mut self, at: u32, count: u32) {
        let end = at.saturating_add(count);
        self.hash.retain(|_, rows| {
            let a = rows.partition_point(|&r| r < at);
            let b = rows.partition_point(|&r| r < end);
            rows.drain(a..b);
            rows[a..].iter_mut().for_each(|r| *r -= count);
            !rows.is_empty()
        });
    }

    /// Incremental insert (single-cell edit path).
    fn insert(&mut self, row: u32, v: &Value) {
        if let Some(key) = IndexKey::of(v) {
            let rows = self.hash.entry(key).or_default();
            let i = rows.partition_point(|&r| r < row);
            rows.insert(i, row);
        }
    }

    /// Incremental remove; `v` must be the value previously indexed at
    /// `row` (the caller reads it from the grid before overwriting).
    fn remove(&mut self, row: u32, v: &Value) {
        let Some(key) = IndexKey::of(v) else { return };
        if let Some(rows) = self.hash.get_mut(&key) {
            let i = rows.partition_point(|&r| r < row);
            if rows.get(i) == Some(&row) {
                rows.remove(i);
            }
            if rows.is_empty() {
                self.hash.remove(&key);
            }
        }
    }

    /// Number of indexed cells: the postings, summed.
    pub fn len(&self) -> usize {
        self.hash.values().map(Vec::len).sum()
    }

    /// True when no cell is indexed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.hash.is_empty()
    }

    /// Rows in `[lo, hi]` whose value equals `key`; the slice is ascending.
    /// One probe for the bucket, one per partition point.
    fn eq_rows_in(&self, meter: &Meter, key: &IndexKey, lo: u32, hi: u32) -> &[u32] {
        meter.tick(Primitive::IndexProbe);
        let rows = self.hash.get(key).map(Vec::as_slice).unwrap_or(&[]);
        meter.tick(Primitive::IndexProbe);
        let a = rows.partition_point(|&r| r < lo);
        meter.tick(Primitive::IndexProbe);
        let b = rows.partition_point(|&r| r <= hi);
        &rows[a..b]
    }
}

/// The sheet's column indexes.
#[derive(Debug, Default)]
pub struct IndexStore {
    /// Live indexes, maintained through every literal write and moved
    /// with their rows and columns by every sort and structural edit.
    built: HashMap<u32, ColumnIndex>,
    /// Auto-indexing (`Sheet::set_auto_index`): every formula-free column
    /// is built, and the engine charges what its own shortcuts save —
    /// a slid aggregate window its slide, a find its distinct texts.
    auto: bool,
}

impl IndexStore {
    /// Whether auto-indexing is on.
    pub(crate) fn auto(&self) -> bool {
        self.auto
    }

    pub(crate) fn set_auto(&mut self, on: bool) {
        self.auto = on;
    }

    /// Installs a build of `col`.
    pub(crate) fn install(&mut self, col: u32, ix: ColumnIndex) {
        self.built.insert(col, ix);
    }

    /// A formula was written into `col`: a built index of it goes.
    pub(crate) fn drop_built(&mut self, col: u32) {
        self.built.remove(&col);
    }

    /// The live index for `col`, if built.
    pub fn built(&self, col: u32) -> Option<&ColumnIndex> {
        self.built.get(&col)
    }

    /// Every live index with its column, ascending (the audit's walk).
    pub(crate) fn built_cols(&self) -> Vec<(u32, &ColumnIndex)> {
        let mut out: Vec<(u32, &ColumnIndex)> = self.built.iter().map(|(&c, ix)| (c, ix)).collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }

    /// Whether `col` has a live index (the `set_value` fast-path check).
    pub(crate) fn has_built(&self, col: u32) -> bool {
        self.built.contains_key(&col)
    }

    /// Number of live (built) column indexes.
    pub fn built_count(&self) -> usize {
        self.built.len()
    }

    /// Maintains a built column through one literal write. Charges one
    /// `IndexProbe` for the O(log m) posting update.
    pub(crate) fn on_write(&mut self, meter: &Meter, addr: CellAddr, old: &Value, new: &Value) {
        if let Some(ix) = self.built.get_mut(&addr.col) {
            meter.tick(Primitive::IndexProbe);
            ix.remove(addr.row, old);
            ix.insert(addr.row, new);
        }
    }

    /// A sort: every built index moves its postings with their rows (new
    /// row `i` was old row `perm[i]`, a bijection of the extent).
    pub(crate) fn permute(&mut self, perm: &[u32]) {
        self.built.values_mut().for_each(|ix| ix.permute(perm));
    }

    /// A row edit at `at` (`count` rows inserted or deleted): every built
    /// index shifts its postings with the rows.
    pub(crate) fn shift_rows(&mut self, at: u32, count: u32, insert: bool) {
        for ix in self.built.values_mut() {
            if insert {
                ix.insert_rows(at, count);
            } else {
                ix.delete_rows(at, count);
            }
        }
    }

    /// Structural column edit: built indexes move with their columns
    /// (`None` = the column was deleted, and its index with it). A
    /// column's rows are untouched, so a built index stays built.
    pub(crate) fn remap_cols(&mut self, map: impl Fn(u32) -> Option<u32>) {
        self.built = std::mem::take(&mut self.built)
            .into_iter()
            .filter_map(|(col, ix)| map(col).map(|col| (col, ix)))
            .collect();
    }
}

// ---------------------------------------------------------------------
// Probe helpers consulted by the evaluators (interpreter and VM).
// ---------------------------------------------------------------------

/// A clipped single-column window `[lo, hi]` of `range`, clipped exactly
/// as a scan of it is: `None` when the range spans columns or starts
/// beyond the materialized extent (where a scan would visit nothing and
/// the caller must keep scan behaviour).
fn col_window(ctx: &EvalCtx<'_>, range: Range) -> Option<(u32, u32, u32)> {
    if range.start.col != range.end.col {
        return None;
    }
    let (nrows, ncols) = ctx.cells.bounds();
    let window = range.clip_to(nrows, ncols)?;
    Some((window.start.col, window.start.row, window.end.row))
}

/// The equality key of a criterion eligible for hash probing: `Eq` over a
/// number or wildcard-free text.
fn eq_key(criterion: &Criterion) -> Option<(&Value, IndexKey)> {
    let Criterion::Eq(target) = criterion else { return None };
    if let Value::Text(pat) = target {
        if pat.contains('*') || pat.contains('?') {
            return None;
        }
    }
    IndexKey::of(target).map(|k| (target, k))
}

/// Indexed `COUNTIF(range, criterion)`. `None` → caller scans.
pub(crate) fn countif_probe(
    ctx: &EvalCtx<'_>,
    range: Range,
    criterion: &Criterion,
) -> Option<f64> {
    let store = ctx.indexes?;
    let (col, lo, hi) = col_window(ctx, range)?;
    let ix = store.built(col)?;
    let count: u64 = match criterion {
        Criterion::Eq(_) => {
            let (_, key) = eq_key(criterion)?;
            ix.eq_rows_in(ctx.meter, &key, lo, hi).len() as u64
        }
        Criterion::Ne(target) => {
            // A scan counts every visited cell not sheet_eq to the target,
            // Empty included: window size minus the equal postings.
            let key = IndexKey::of(target)?;
            let eq = ix.eq_rows_in(ctx.meter, &key, lo, hi).len() as u64;
            u64::from(hi - lo + 1) - eq
        }
        _ => return None,
    };
    // The range past the extent holds empty cells, as the scan counts them.
    let past_extent = range.len() - u64::from(hi - lo + 1);
    let tail = if criterion.matches(&Value::Empty) { past_extent } else { 0 };
    Some((count + tail) as f64)
}

/// Indexed `SUMIF`/`AVERAGEIF` fold: `(total, matched_number_count)` with
/// bit-identical accumulation to the scan. `None` → caller scans.
///
/// Without a sum range, an equality match on a number key contributes the
/// key itself per match (all matching cells are IEEE-equal to the key, and
/// a running total can never be `-0.0`, so repeated addition of the key
/// reproduces the scan's folds bit-for-bit); text keys match only text
/// cells, which contribute nothing. With a sum range, the aligned target
/// cells are read through the context in the scan's ascending row order.
pub(crate) fn sumif_probe(
    ctx: &EvalCtx<'_>,
    crit_range: Range,
    sum_range: Option<Range>,
    criterion: &Criterion,
) -> Option<(f64, u64)> {
    let store = ctx.indexes?;
    let (col, lo, hi) = col_window(ctx, crit_range)?;
    let ix = store.built(col)?;
    let (target, key) = eq_key(criterion)?;
    match sum_range {
        None => match target {
            Value::Number(k) => {
                let count = ix.eq_rows_in(ctx.meter, &key, lo, hi).len() as u64;
                let mut total = 0.0;
                for _ in 0..count {
                    total += k;
                }
                Some((total, count))
            }
            _ => {
                // Text keys match only text cells; the scan skips them in
                // the numeric fold but still probes — charge the lookup.
                let _ = ix.eq_rows_in(ctx.meter, &key, lo, hi);
                Some((0.0, 0))
            }
        },
        Some(sr) => {
            let rows: Vec<u32> = ix.eq_rows_in(ctx.meter, &key, lo, hi).to_vec();
            let mut total = 0.0;
            let mut count = 0u64;
            for row in rows {
                let dr = row - crit_range.start.row;
                if let Some(target) = sr.start.offset(i64::from(dr), 0) {
                    if let Value::Number(n) = ctx.read(target) {
                        total += n;
                        count += 1;
                    }
                }
            }
            Some((total, count))
        }
    }
}

/// Indexed exact-match lookup down `col` restricted to the (pre-clipped)
/// `range`: `Some(hit)` when the index answered, `None` → caller scans.
/// The hit, when present, is the first matching absolute row — identical
/// to the scan's first-match-in-row-order result regardless of the
/// early-exit strategy.
pub(crate) fn lookup_probe(
    ctx: &EvalCtx<'_>,
    range: Range,
    col: u32,
    needle: &Value,
) -> Option<Option<u32>> {
    let store = ctx.indexes?;
    let ix = store.built(col)?;
    let key = IndexKey::of(needle)?;
    let rows = ix.eq_rows_in(ctx.meter, &key, range.start.row, range.end.row);
    Some(rows.first().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ValueMatrix;
    use crate::recalc;
    use crate::sheet::Sheet;

    fn built(values: &[Value]) -> ColumnIndex {
        let meter = Meter::new();
        let mut ix = ColumnIndex::default();
        for (row, v) in values.iter().enumerate() {
            ix.push(&meter, row as u32, v);
        }
        ix
    }

    fn nums(ns: &[f64]) -> Vec<Value> {
        ns.iter().map(|&n| Value::Number(n)).collect()
    }

    #[test]
    fn key_folds_negative_zero_and_ascii_case() {
        assert_eq!(IndexKey::of(&Value::Number(-0.0)), IndexKey::of(&Value::Number(0.0)));
        assert_eq!(IndexKey::of(&Value::text("STORM")), IndexKey::of(&Value::text("storm")));
        assert_ne!(IndexKey::of(&Value::Number(1.0)), IndexKey::of(&Value::Number(2.0)));
        assert_eq!(IndexKey::of(&Value::Bool(true)), None);
        assert_eq!(IndexKey::of(&Value::Empty), None);
    }

    #[test]
    fn eq_postings_window() {
        let ix = built(&nums(&[5.0, 3.0, 5.0, 5.0, 1.0]));
        let meter = Meter::new();
        let key = IndexKey::of(&Value::Number(5.0)).unwrap();
        assert_eq!(ix.eq_rows_in(&meter, &key, 0, 4), &[0, 2, 3]);
        assert_eq!(ix.eq_rows_in(&meter, &key, 1, 2), &[2]);
        assert_eq!(ix.eq_rows_in(&meter, &key, 4, 4), &[] as &[u32]);
        assert!(meter.snapshot().get(Primitive::IndexProbe) > 0);
    }

    /// An ordered criterion over a whole indexed column takes the scan
    /// path: the same count as on an unindexed sheet, charged the same
    /// `CellRead`s and no `IndexProbe`.
    #[test]
    fn an_ordered_whole_column_countif_scans_an_indexed_column() {
        let query = "=COUNTIF(A1:A6,\">=3\")";
        let answer = |indexed: bool| {
            let mut s = Sheet::new();
            s.set_auto_index(indexed);
            for (row, v) in [1.0, 3.0, 5.0, 2.0, 3.0].into_iter().enumerate() {
                s.set_value(CellAddr::new(row as u32, 0), v);
            }
            s.set_value(CellAddr::new(5, 0), "9");
            recalc::recalc_all(&mut s);
            assert_eq!(s.index_store().built_count(), usize::from(indexed));
            let before = s.meter().snapshot();
            let got = s.eval_str(query).unwrap();
            let after = s.meter().snapshot();
            let charged = |p| after.get(p) - before.get(p);
            (got, charged(Primitive::CellRead), charged(Primitive::IndexProbe))
        };
        assert_eq!(answer(false), (Value::Number(3.0), 6, 0));
        assert_eq!(answer(true), answer(false));
    }

    #[test]
    fn incremental_insert_remove_roundtrip() {
        let mut ix = built(&nums(&[2.0, 4.0, 6.0]));
        let meter = Meter::new();
        ix.remove(1, &Value::Number(4.0));
        ix.insert(1, &Value::text("mid"));
        let key = IndexKey::of(&Value::text("MID")).unwrap();
        assert_eq!(ix.eq_rows_in(&meter, &key, 0, 2), &[1]);
        let four = IndexKey::of(&Value::Number(4.0)).unwrap();
        assert!(!ix.hash.contains_key(&four), "an emptied list goes");
        ix.remove(1, &Value::text("mid"));
        ix.insert(1, &Value::Number(4.0));
        assert_eq!(ix, built(&nums(&[2.0, 4.0, 6.0])));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn store_lifecycle() {
        let mut store = IndexStore::default();
        store.install(1, built(&nums(&[1.0])));
        assert!(store.has_built(1));
        assert_eq!(store.built_count(), 1);
        // A formula written into a built column drops its index; into a
        // column never built, it drops nothing.
        store.drop_built(1);
        store.drop_built(2);
        assert!(!store.has_built(1) && store.built_count() == 0);
        // A column remap moves live indexes with their columns (still
        // built) and forgets deleted columns.
        store.install(3, built(&nums(&[1.0])));
        store.install(4, built(&nums(&[2.0])));
        store.remap_cols(|col| (col != 4).then_some(col + 2));
        assert_eq!(store.built(5), Some(&built(&nums(&[1.0]))));
        assert_eq!(store.built_count(), 1);
    }

    /// Overwriting one of a column's two formulas leaves it holding the
    /// other: the next recalculation builds nothing and charges no
    /// `IndexProbe`. Overwriting the second makes the column indexable.
    #[test]
    fn overwriting_one_of_two_formulas_rebuilds_nothing() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        s.set_value(CellAddr::new(0, 0), 5.0);
        s.set_input(CellAddr::new(1, 0), "=B1").unwrap();
        s.set_input(CellAddr::new(2, 0), "=B1").unwrap();
        s.set_value(CellAddr::new(0, 1), 1.0);
        recalc::recalc_all(&mut s);
        assert!(!s.index_store().has_built(0) && s.index_store().has_built(1));
        s.set_value(CellAddr::new(2, 0), 7.0);
        let before = s.meter().snapshot().get(Primitive::IndexProbe);
        recalc::recalc_all(&mut s);
        assert_eq!(s.meter().snapshot().get(Primitive::IndexProbe) - before, 0);
        assert!(!s.index_store().has_built(0), "A2 still holds a formula");
        s.set_value(CellAddr::new(1, 0), 6.0);
        recalc::recalc_all(&mut s);
        assert!(s.index_store().has_built(0), "A holds values only");
        crate::audit::check_indexes(&s).unwrap();
        crate::audit::check_index_coverage(&s).unwrap();
    }

    /// A column that once held a formula is indexed again once its last
    /// formula is overwritten by a value.
    #[test]
    fn a_column_whose_formula_is_overwritten_is_indexed_again() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for row in 0..10u32 {
            s.set_value(CellAddr::new(row, 0), f64::from(row % 4));
            s.set_value(CellAddr::new(row, 1), format!("t{row}"));
        }
        s.set_input(CellAddr::new(0, 2), "=COUNTIF(A1:A100,3)").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 2, "A and B");
        s.set_input(CellAddr::new(5, 0), "=B1*0+3").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 1, "A holds a formula");
        s.set_input(CellAddr::new(5, 0), "3").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 2, "A holds values only again");
        crate::audit::check_indexes(&s).unwrap();
    }

    /// A column whose last formula goes with a deleted row is indexed
    /// again at the next recalc, and a query over it probes the index.
    #[test]
    fn a_column_whose_last_formula_is_deleted_with_its_row_is_indexed_again() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for row in 0..10u32 {
            s.set_value(CellAddr::new(row, 0), f64::from(row % 4));
            s.set_value(CellAddr::new(row, 1), format!("t{row}"));
        }
        s.set_input(CellAddr::new(2, 1), "=A1").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 1, "B holds a formula");
        s.apply(crate::ops::Op::DeleteRows { at: 2, count: 1 }).unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.index_store().built_count(), 2, "B holds values only again");
        let before = s.meter().snapshot();
        let got = s.eval_str("=COUNTIF(B1:B9,\"t5\")").unwrap();
        let after = s.meter().snapshot();
        let charged = |p| after.get(p) - before.get(p);
        assert_eq!(got, Value::Number(1.0));
        assert_eq!(charged(Primitive::CellRead), 0, "the count probed B's index, reading no cell");
        assert!(charged(Primitive::IndexProbe) > 0);
        crate::audit::check_indexes(&s).unwrap();
    }

    /// A column of every kind an index meets: repeated numbers, text in
    /// two cases (one key), `0.0` beside `-0.0` (one key), a text that
    /// occurs once, and cells an index skips.
    fn mixed() -> Vec<Value> {
        let mut v: Vec<Value> = (0..48u32)
            .map(|i| match i % 6 {
                0 => Value::Number(f64::from(i % 5)),
                1 => Value::text(if i % 4 == 1 { "Storm" } else { "STORM" }),
                2 => Value::Empty,
                3 => Value::Number(if i % 4 == 3 { -0.0 } else { 0.0 }),
                4 => Value::text(format!("t{}", i % 3)),
                _ => Value::Bool(true),
            })
            .collect();
        v[20] = Value::text("solo");
        v
    }

    #[test]
    fn permute_equals_a_fresh_build_of_the_sorted_column() {
        let v = mixed();
        let n = v.len() as u32;
        for perm in [
            (0..n).rev().collect::<Vec<u32>>(),
            (0..n).map(|i| (i * 7) % n).collect(),
            (0..n).collect(),
        ] {
            let mut ix = built(&v);
            ix.permute(&perm);
            let sorted: Vec<Value> = perm.iter().map(|&old| v[old as usize].clone()).collect();
            assert_eq!(ix, built(&sorted), "{perm:?}");
        }
    }

    #[test]
    fn inserted_rows_shift_later_postings() {
        let v = mixed();
        for (at, count) in [(0, 3), (17, 1), (30, 12), (48, 5)] {
            let mut ix = built(&v);
            ix.insert_rows(at, count);
            let mut opened = v.clone();
            let at = at as usize;
            opened.splice(at..at, std::iter::repeat_n(Value::Empty, count as usize));
            assert_eq!(ix, built(&opened), "insert {count} at {at}");
        }
    }

    #[test]
    fn deleted_rows_take_their_postings_with_them() {
        let v = mixed();
        // Rows 14..22 hold `-0.0` (row 15), `0.0` (21) and "solo" (20).
        for (at, count) in [(14u32, 8u32), (0, 1), (40, 8), (0, 48), (30, 100)] {
            let (lo, hi) = (at as usize, ((at + count) as usize).min(v.len()));
            let mut ix = built(&v);
            ix.delete_rows(at, count);
            let mut closed = v.clone();
            closed.drain(lo..hi);
            assert_eq!(ix, built(&closed), "delete {count} at {at}");
        }
        let mut ix = built(&v);
        ix.delete_rows(14, 8);
        assert!(!ix.hash.contains_key(&IndexKey::of(&Value::text("solo")).unwrap()), "emptied list");
    }

    #[test]
    fn probe_requires_built_single_column_window() {
        let mut m = ValueMatrix::default();
        for r in 0..4u32 {
            m.set(CellAddr::new(r, 0), Value::Number(f64::from(r)));
        }
        let meter = Meter::new();
        let mut store = IndexStore::default();
        store.install(0, built(&nums(&[0.0, 1.0, 2.0, 3.0])));
        let mut ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 1));
        ctx.indexes = Some(&store);
        let r = |s: &str| Range::parse(s).unwrap();
        let eq2 = Criterion::Eq(Value::Number(2.0));
        assert_eq!(countif_probe(&ctx, r("A1:A4"), &eq2), Some(1.0));
        assert_eq!(countif_probe(&ctx, r("A1:A2"), &eq2), Some(0.0));
        // Multi-column and un-indexed columns fall back.
        assert_eq!(countif_probe(&ctx, r("A1:B4"), &eq2), None);
        assert_eq!(countif_probe(&ctx, r("B1:B4"), &eq2), None);
        // Ordered criteria are the scan's, on any window.
        assert_eq!(countif_probe(&ctx, r("A1:A4"), &Criterion::Ge(2.0)), None);
        // Ne counts empties via the window size, past the extent too.
        assert_eq!(countif_probe(&ctx, r("A1:A4"), &Criterion::Ne(Value::Number(2.0))), Some(3.0));
        assert_eq!(countif_probe(&ctx, r("A1:A9"), &Criterion::Ne(Value::Number(2.0))), Some(8.0));
        assert_eq!(countif_probe(&ctx, r("A1:A9"), &eq2), Some(1.0));
        // Without a store the probe declines immediately.
        let bare = EvalCtx::new(&m, &meter, CellAddr::new(0, 1));
        assert_eq!(countif_probe(&bare, r("A1:A4"), &eq2), None);
    }
}
