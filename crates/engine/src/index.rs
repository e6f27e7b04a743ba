//! Maintained column indexes: the database-style optimization the paper
//! finds missing from all three benchmarked systems (§OOT, Figs 9–14).
//!
//! An [`IndexStore`] lives on the `Sheet` and holds, per registered column,
//! a hash index (value key → sorted row postings) plus a sorted array of
//! the column's numbers. `COUNTIF`/`SUMIF`/`AVERAGEIF`/`VLOOKUP`/`MATCH`
//! evaluation consults the store through [`crate::eval::EvalCtx::indexes`]
//! and answers eligible queries with O(1)/O(log m) probes instead of the
//! O(m) scans the real systems perform. Every probe charges
//! [`Primitive::IndexProbe`] so the cost model prices indexed evaluation
//! honestly; values are bit-identical to the scan path (proven by the §9
//! oracle's `indexed` dimension and the equivalence tests).
//!
//! # Soundness invariants
//!
//! * **No formulas.** An indexed column contains only literal cells: a
//!   formula's displayed value changes during recalculation without
//!   passing through `Sheet::set_value`, so a column index over formulas
//!   could go stale invisibly. `build` refuses columns containing a
//!   formula and `set_formula` drops a column's index permanently.
//! * **Single write channel.** Every literal-content mutation in the
//!   engine funnels through `Sheet::set_value`/`set_formula` (operations
//!   use `cell_mut` only for styles), so `on_write` sees every edit of an
//!   indexed column with the old value still in hand.
//! * **Structural edits invalidate.** `Sheet::rebuild_deps` (sort,
//!   insert/delete rows/cols) demotes every built index to pending; the
//!   next `ensure_indexes` rebuilds from the grid. A pending or dropped
//!   column simply falls back to the scan path, so correctness never
//!   depends on a rebuild having happened.
//!
//! # Eligibility
//!
//! Probes answer only what the index can answer with the scan path's
//! exact semantics (`sheet_eq` / `sheet_cmp` / `Criterion::matches`):
//!
//! * Equality keys must be `Number` or `Text` without COUNTIF wildcards —
//!   text keys are normalized with `to_ascii_lowercase`, the same
//!   equivalence as `sheet_eq`'s `eq_ignore_ascii_case`; `-0.0`
//!   normalizes to `0.0` because `sheet_eq` uses IEEE `==`.
//! * Ordered criteria (`<`, `<=`, `>`, `>=`) use the sorted array, which
//!   has no row structure, so they require the range to cover the whole
//!   materialized column.
//! * Everything else (wildcards, booleans, errors, multi-column ranges,
//!   approximate lookups) returns `None` and the caller scans.

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

/// The per-column structure: hash postings and a sorted numeric array.
#[derive(Debug, Default)]
pub struct ColumnIndex {
    /// Value key → rows holding it, ascending.
    hash: HashMap<IndexKey, Vec<u32>>,
    /// Every `Number` in the column, sorted ascending (`total_cmp`, which
    /// refines the IEEE order the ordered criteria compare with).
    sorted_nums: Vec<f64>,
    /// Number of indexed (non-empty, non-bool, non-error) cells.
    entries: usize,
}

impl ColumnIndex {
    /// Adds one cell during a bulk build; `finish` must be called before
    /// the index is probed. Rows must arrive in ascending order (they do:
    /// builds walk the column top to bottom).
    fn push_build(&mut self, row: u32, v: &Value) {
        if let Some(key) = IndexKey::of(v) {
            self.hash.entry(key).or_default().push(row);
            self.entries += 1;
        }
        if let Value::Number(n) = v {
            self.sorted_nums.push(*n);
        }
    }

    /// Finalizes a bulk build.
    fn finish(&mut self) {
        self.sorted_nums.sort_unstable_by(f64::total_cmp);
    }

    /// Incremental insert (single-cell edit path).
    fn insert(&mut self, row: u32, v: &Value) {
        if let Some(key) = IndexKey::of(v) {
            let rows = self.hash.entry(key).or_default();
            let i = rows.partition_point(|&r| r < row);
            rows.insert(i, row);
            self.entries += 1;
        }
        if let Value::Number(n) = v {
            let i = self.sorted_nums.partition_point(|&x| x.total_cmp(n).is_lt());
            self.sorted_nums.insert(i, *n);
        }
    }

    /// Incremental remove; `v` must be the value previously indexed at
    /// `row` (the caller reads it from the grid before overwriting).
    fn remove(&mut self, row: u32, v: &Value) {
        if let Some(key) = IndexKey::of(v) {
            if let Some(rows) = self.hash.get_mut(&key) {
                let i = rows.partition_point(|&r| r < row);
                if rows.get(i) == Some(&row) {
                    rows.remove(i);
                    self.entries -= 1;
                }
                if rows.is_empty() {
                    self.hash.remove(&key);
                }
            }
        }
        if let Value::Number(n) = v {
            let i = self.sorted_nums.partition_point(|&x| x.total_cmp(n).is_lt());
            if self.sorted_nums.get(i) == Some(n) {
                self.sorted_nums.remove(i);
            }
        }
    }

    /// Number of indexed cells (tests and reports).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no cell is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
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

    /// Count of numbers satisfying an ordered criterion, over the whole
    /// column. One probe per partition point.
    fn count_ordered(&self, meter: &Meter, criterion: &Criterion) -> Option<u64> {
        let n = self.sorted_nums.len();
        meter.tick(Primitive::IndexProbe);
        let count = match *criterion {
            Criterion::Lt(k) => self.sorted_nums.partition_point(|&x| x < k),
            Criterion::Le(k) => self.sorted_nums.partition_point(|&x| x <= k),
            Criterion::Gt(k) => n - self.sorted_nums.partition_point(|&x| x <= k),
            Criterion::Ge(k) => n - self.sorted_nums.partition_point(|&x| x < k),
            _ => return None,
        };
        Some(count as u64)
    }
}

/// Lifecycle of one registered column.
#[derive(Debug)]
enum ColState {
    /// Registered but not (re)built yet; probes fall back to scans.
    Pending,
    /// Live index, maintained through every `set_value`.
    Built(ColumnIndex),
    /// Permanently excluded: a formula lives (or lived) in the column.
    Dropped,
}

/// The sheet's column-index registry.
#[derive(Debug, Default)]
pub struct IndexStore {
    cols: HashMap<u32, ColState>,
}

impl IndexStore {
    /// Registers a column for indexing; no-op if already registered or
    /// dropped. The index is built by the next `Sheet::ensure_indexes`.
    pub(crate) fn register(&mut self, col: u32) {
        self.cols.entry(col).or_insert(ColState::Pending);
    }

    /// Permanently excludes a column (a formula was written into it).
    pub(crate) fn drop_col(&mut self, col: u32) {
        if self.cols.contains_key(&col) {
            self.cols.insert(col, ColState::Dropped);
        }
    }

    /// Demotes every built index to pending (structural edits reshuffled
    /// rows wholesale; the next `ensure_indexes` rebuilds from the grid).
    pub(crate) fn invalidate_built(&mut self) {
        for state in self.cols.values_mut() {
            if matches!(state, ColState::Built(_)) {
                *state = ColState::Pending;
            }
        }
    }

    /// Columns awaiting a (re)build, ascending.
    pub(crate) fn pending_cols(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .cols
            .iter()
            .filter_map(|(&c, s)| matches!(s, ColState::Pending).then_some(c))
            .collect();
        out.sort_unstable();
        out
    }

    /// Installs a freshly built index.
    pub(crate) fn install(&mut self, col: u32, mut ix: ColumnIndex) {
        ix.finish();
        self.cols.insert(col, ColState::Built(ix));
    }

    /// The live index for `col`, if built.
    pub fn built(&self, col: u32) -> Option<&ColumnIndex> {
        match self.cols.get(&col) {
            Some(ColState::Built(ix)) => Some(ix),
            _ => None,
        }
    }

    /// Whether `col` has a live index (the `set_value` fast-path check).
    pub(crate) fn has_built(&self, col: u32) -> bool {
        matches!(self.cols.get(&col), Some(ColState::Built(_)))
    }

    /// True when nothing is registered at all.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Number of live (built) column indexes.
    pub fn built_count(&self) -> usize {
        self.cols.values().filter(|s| matches!(s, ColState::Built(_))).count()
    }

    /// Maintains a built column through one literal write. Charges one
    /// `IndexProbe` for the O(log m) posting update.
    pub(crate) fn on_write(&mut self, meter: &Meter, addr: CellAddr, old: &Value, new: &Value) {
        if let Some(ColState::Built(ix)) = self.cols.get_mut(&addr.col) {
            meter.tick(Primitive::IndexProbe);
            ix.remove(addr.row, old);
            ix.insert(addr.row, new);
        }
    }

    /// Structural column edit: registrations move with their columns
    /// (`None` = the column was deleted, and its registration with it).
    /// Dropped columns stay dropped; everything else re-enters as pending,
    /// as after any structural edit ([`Self::invalidate_built`]).
    pub(crate) fn remap_cols(&mut self, map: impl Fn(u32) -> Option<u32>) {
        self.cols = std::mem::take(&mut self.cols)
            .into_iter()
            .filter_map(|(col, state)| {
                let state = match state {
                    ColState::Dropped => ColState::Dropped,
                    _ => ColState::Pending,
                };
                map(col).map(|col| (col, state))
            })
            .collect();
    }
}

// ---------------------------------------------------------------------
// Build support (driven by `Sheet::ensure_indexes`).
// ---------------------------------------------------------------------

/// Accumulates one column's cells into a `ColumnIndex`; refuses the column
/// when a formula is present. The meter is charged one `IndexProbe` per
/// indexed cell so rebuilds (e.g. after a sort) are priced as real work.
#[derive(Debug, Default)]
pub(crate) struct ColumnBuilder {
    ix: ColumnIndex,
    has_formula: bool,
}

impl ColumnBuilder {
    pub(crate) fn add(&mut self, meter: &Meter, row: u32, v: &Value, is_formula: bool) {
        if is_formula {
            self.has_formula = true;
        }
        if self.has_formula {
            return;
        }
        if !matches!(v, Value::Number(_) | Value::Text(_)) {
            return;
        }
        meter.tick(Primitive::IndexProbe);
        self.ix.push_build(row, v);
    }

    /// `Ok(index)` when the column is formula-free, `Err(())` otherwise.
    pub(crate) fn finish(self) -> Result<ColumnIndex, ()> {
        if self.has_formula {
            Err(())
        } else {
            Ok(self.ix)
        }
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
        Criterion::Lt(_) | Criterion::Le(_) | Criterion::Gt(_) | Criterion::Ge(_) => {
            // The sorted array has no row structure: whole-column only.
            let (nrows, _) = ctx.cells.bounds();
            if lo != 0 || hi != nrows - 1 {
                return None;
            }
            ix.count_ordered(ctx.meter, criterion)?
        }
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

    fn built(values: &[Value]) -> ColumnIndex {
        let meter = Meter::new();
        let mut b = ColumnBuilder::default();
        for (row, v) in values.iter().enumerate() {
            b.add(&meter, row as u32, v, false);
        }
        let mut ix = b.finish().expect("no formulas");
        ix.finish();
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

    #[test]
    fn ordered_counts_match_scan_semantics() {
        let vals =
            vec![Value::Number(1.0), Value::text("9"), Value::Number(3.0), Value::Number(3.0)];
        let ix = built(&vals);
        let meter = Meter::new();
        // Text "9" is not a number: ordered criteria skip it, like the scan.
        assert_eq!(ix.count_ordered(&meter, &Criterion::Ge(3.0)), Some(2));
        assert_eq!(ix.count_ordered(&meter, &Criterion::Gt(3.0)), Some(0));
        assert_eq!(ix.count_ordered(&meter, &Criterion::Lt(3.0)), Some(1));
        assert_eq!(ix.count_ordered(&meter, &Criterion::Le(3.0)), Some(3));
        assert_eq!(ix.count_ordered(&meter, &Criterion::Eq(Value::Number(3.0))), None);
    }

    #[test]
    fn incremental_insert_remove_roundtrip() {
        let mut ix = built(&nums(&[2.0, 4.0, 6.0]));
        let meter = Meter::new();
        ix.remove(1, &Value::Number(4.0));
        ix.insert(1, &Value::text("mid"));
        let key = IndexKey::of(&Value::text("MID")).unwrap();
        assert_eq!(ix.eq_rows_in(&meter, &key, 0, 2), &[1]);
        assert_eq!(ix.count_ordered(&meter, &Criterion::Ge(0.0)), Some(2));
        ix.remove(1, &Value::text("mid"));
        ix.insert(1, &Value::Number(4.0));
        assert_eq!(ix.count_ordered(&meter, &Criterion::Ge(0.0)), Some(3));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn builder_refuses_formula_columns() {
        let meter = Meter::new();
        let mut b = ColumnBuilder::default();
        b.add(&meter, 0, &Value::Number(1.0), false);
        b.add(&meter, 1, &Value::Number(2.0), true);
        assert!(b.finish().is_err());
    }

    #[test]
    fn store_lifecycle() {
        let mut store = IndexStore::default();
        assert!(store.is_empty());
        store.register(1);
        assert_eq!(store.pending_cols(), vec![1]);
        store.install(1, built(&nums(&[1.0])));
        assert!(store.has_built(1));
        assert_eq!(store.built_count(), 1);
        store.invalidate_built();
        assert!(!store.has_built(1));
        assert_eq!(store.pending_cols(), vec![1]);
        store.drop_col(1);
        assert_eq!(store.pending_cols(), Vec::<u32>::new());
        // A dropped column cannot be re-registered.
        store.register(1);
        assert_eq!(store.pending_cols(), Vec::<u32>::new());
        // A column remap carries the dropped bit, demotes live indexes and
        // forgets deleted columns.
        store.register(3);
        store.install(3, built(&nums(&[1.0])));
        store.register(4);
        store.remap_cols(|col| (col != 4).then_some(col + 2));
        assert_eq!(store.pending_cols(), vec![5]);
        assert!(matches!(store.cols.get(&3), Some(ColState::Dropped)));
        assert_eq!(store.cols.len(), 2);
    }

    #[test]
    fn probe_requires_built_single_column_window() {
        let mut m = ValueMatrix::default();
        for r in 0..4u32 {
            m.set(CellAddr::new(r, 0), Value::Number(f64::from(r)));
        }
        let meter = Meter::new();
        let mut store = IndexStore::default();
        store.register(0);
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
        // Ordered criteria only on whole-column windows.
        assert_eq!(countif_probe(&ctx, r("A1:A4"), &Criterion::Ge(2.0)), Some(2.0));
        assert_eq!(countif_probe(&ctx, r("A2:A4"), &Criterion::Ge(2.0)), None);
        // Ne counts empties via the window size, past the extent too.
        assert_eq!(countif_probe(&ctx, r("A1:A4"), &Criterion::Ne(Value::Number(2.0))), Some(3.0));
        assert_eq!(countif_probe(&ctx, r("A1:A9"), &Criterion::Ne(Value::Number(2.0))), Some(8.0));
        assert_eq!(countif_probe(&ctx, r("A1:A9"), &eq2), Some(1.0));
        // Without a store the probe declines immediately.
        let bare = EvalCtx::new(&m, &meter, CellAddr::new(0, 1));
        assert_eq!(countif_probe(&bare, r("A1:A4"), &eq2), None);
    }
}
