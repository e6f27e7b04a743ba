//! Incremental view maintenance for aggregates (§5.5): keep the
//! materialized result and apply the *delta* of each cell edit instead of
//! recomputing from scratch — "perhaps the easiest to implement for
//! spreadsheet systems" (§6). Single-cell updates become O(1); the
//! commercial systems all pay O(m).
//!
//! `AVERAGEIF`-style aggregates additionally keep the matching count, as
//! §6 prescribes ("we may want to additionally maintain the count of the
//! number of cells that meet that condition in addition to the average").
//!
//! A maintained count is always exactly what a rescan would count. A
//! maintained f64 sum is not — `sum -= old; sum += new` rounds differently
//! from a left-to-right rescan on fractional data — so sum-family views
//! report whether they sit inside the exactness envelope the engine's
//! `DeltaCache` uses ([`IncrementalAggregate::exact_with`]) and the caller
//! recomputes when they do not.

use ssbench_engine::prelude::*;

/// Every integer-valued f64 up to 2^53 in magnitude is exactly
/// representable, so while Σ|v| over integer contributions stays at or
/// under it, every partial sum — in scan order or delta order — is exact.
const MAX_EXACT_SUM: f64 = (1u64 << 53) as f64;

/// Which aggregate is maintained.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggKind {
    Sum,
    Count,
    Average,
    /// Conditional variants carry their criterion.
    CountIf(Criterion),
    SumIf(Criterion),
    AverageIf(Criterion),
}

/// A delta-maintained aggregate over one column segment.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalAggregate {
    kind: AggKind,
    /// The watched region (single column).
    range: Range,
    /// Running sum of contributing values.
    sum: f64,
    /// Running count of contributing values.
    count: u64,
    /// Running Σ|v| of the summed values (bounds every partial sum).
    sum_abs: f64,
    /// A fractional summand or an error cell was seen: the running sum
    /// can no longer vouch for a rescan's bits (or its `#ERR`).
    inexact: bool,
}

impl IncrementalAggregate {
    /// Builds the aggregate with one O(m) scan; every subsequent update is
    /// O(1).
    pub(crate) fn build(sheet: &Sheet, range: Range, kind: AggKind) -> Self {
        let mut agg = IncrementalAggregate {
            kind,
            range,
            sum: 0.0,
            count: 0,
            sum_abs: 0.0,
            inexact: false,
        };
        let ctx = sheet.eval_ctx(range.start);
        ctx.read_range(range, &mut |_, v| agg.fold(v, true));
        agg
    }

    /// Folds `v` into (`entering`) or out of the running state. `inexact`
    /// is sticky: a fractional value leaving does not restore the bits its
    /// stay already rounded away.
    fn fold(&mut self, v: &Value, entering: bool) {
        let contribution = self.contribution(v);
        if entering {
            self.inexact |= !summand_is_exact(contribution, v);
        }
        let Some((s, c)) = contribution else { return };
        if entering {
            self.sum += s;
            self.sum_abs += s.abs();
            self.count += c;
        } else {
            self.sum -= s;
            self.sum_abs -= s.abs();
            self.count -= c;
        }
    }

    /// Whether the view's value is still bit-identical to a rescan once
    /// `new` is written into its range. Count-family views always are;
    /// sum-family views only while every summand is an integer, no cell is
    /// an error, and Σ|v| ≤ 2^53.
    pub(crate) fn exact_with(&self, new: &Value) -> bool {
        if matches!(self.kind, AggKind::Count | AggKind::CountIf(_)) {
            return true;
        }
        let entering = self.contribution(new);
        !self.inexact
            && summand_is_exact(entering, new)
            && self.sum_abs + entering.map_or(0.0, |(s, _)| s.abs()) <= MAX_EXACT_SUM
    }

    /// What `v` contributes as `(sum, count)`, or `None` if nothing.
    fn contribution(&self, v: &Value) -> Option<(f64, u64)> {
        let n = v.as_number();
        match &self.kind {
            AggKind::Sum | AggKind::Average => n.map(|x| (x, 1)),
            AggKind::Count => n.map(|_| (0.0, 1)),
            AggKind::CountIf(c) => c.matches(v).then_some((0.0, 1)),
            AggKind::SumIf(c) | AggKind::AverageIf(c) => {
                if c.matches(v) {
                    n.map(|x| (x, 1))
                } else {
                    None
                }
            }
        }
    }

    /// Applies one cell edit in O(1). Returns `true` when the edit was
    /// inside the watched region.
    pub(crate) fn apply_edit(&mut self, addr: CellAddr, old: &Value, new: &Value) -> bool {
        if !self.range.contains(addr) {
            return false;
        }
        self.fold(old, false);
        self.fold(new, true);
        true
    }

    /// The current aggregate value.
    pub(crate) fn value(&self) -> Value {
        match self.kind {
            AggKind::Sum | AggKind::SumIf(_) => Value::Number(self.sum),
            AggKind::Count | AggKind::CountIf(_) => Value::Number(self.count as f64),
            AggKind::Average | AggKind::AverageIf(_) => {
                if self.count == 0 {
                    Value::Error(CellError::Div0)
                } else {
                    Value::Number(self.sum / self.count as f64)
                }
            }
        }
    }
}

/// Whether a cell keeps a running sum exact: its summand (if any) is an
/// integer, and it is not an error a rescan would have to surface.
fn summand_is_exact(summand: Option<(f64, u64)>, v: &Value) -> bool {
    !matches!(v, Value::Error(_)) && summand.is_none_or(|(s, _)| s.fract() == 0.0)
}

/// A registry of incremental aggregates bound to formula cells: routes
/// each edit to the affected aggregates and refreshes their cached
/// results.
#[derive(Debug, Default)]
pub(crate) struct IncrementalRegistry {
    entries: Vec<(CellAddr, IncrementalAggregate)>,
}

impl IncrementalRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        IncrementalRegistry::default()
    }

    /// Registers an already-built aggregate materializing into
    /// `formula_cell`. Lets duplicate formulas over the same range share a
    /// single O(m) build scan: build once, clone, register each copy.
    pub(crate) fn register_built(
        &mut self,
        sheet: &mut Sheet,
        formula_cell: CellAddr,
        agg: IncrementalAggregate,
    ) {
        sheet.store_formula_result(formula_cell, agg.value());
        self.entries.push((formula_cell, agg));
    }

    /// Performs an edit through the registry: O(#affected aggregates),
    /// not O(data). Returns how many aggregates were refreshed.
    pub(crate) fn edit(&mut self, sheet: &mut Sheet, addr: CellAddr, new: Value) -> usize {
        let old = sheet.value(addr);
        sheet.set_value(addr, new.clone());
        let mut touched = 0;
        for (cell, agg) in &mut self.entries {
            if agg.apply_edit(addr, &old, &new) {
                sheet.store_formula_result(*cell, agg.value());
                touched += 1;
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_engine::meter::Primitive;

    fn sheet() -> Sheet {
        let mut s = Sheet::new();
        for i in 0..200u32 {
            s.set_value(CellAddr::new(i, 9), i64::from(i % 2)); // J: 0,1,0,1…
        }
        s
    }

    fn col_j(n: u32) -> Range {
        Range::column_segment(9, 0, n - 1)
    }

    #[test]
    fn countif_matches_full_recompute_under_edits() {
        let mut s = sheet();
        let crit = Criterion::parse(&Value::Number(1.0));
        let mut agg = IncrementalAggregate::build(&s, col_j(200), AggKind::CountIf(crit));
        assert_eq!(agg.value(), Value::Number(100.0));
        // Flip J2 (row 1) from 1 to 0 — the paper's exact experiment.
        let addr = CellAddr::new(1, 9);
        let old = s.value(addr);
        s.set_value(addr, 0);
        agg.apply_edit(addr, &old, &Value::Number(0.0));
        assert_eq!(agg.value(), Value::Number(99.0));
        // Cross-check against a fresh scan.
        let check = s.eval_str("=COUNTIF(J1:J200,1)").unwrap();
        assert_eq!(agg.value(), check);
    }

    #[test]
    fn update_is_constant_cost() {
        let mut s = sheet();
        let crit = Criterion::parse(&Value::Number(1.0));
        let mut agg = IncrementalAggregate::build(&s, col_j(200), AggKind::CountIf(crit));
        let before = s.meter().snapshot();
        let addr = CellAddr::new(1, 9);
        let old = s.value(addr);
        s.set_value(addr, 0);
        agg.apply_edit(addr, &old, &Value::Number(0.0));
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 0, "no re-scan");
    }

    #[test]
    fn sum_average_kinds() {
        let mut s = Sheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        let r = Range::column_segment(0, 0, 9);
        let mut sum = IncrementalAggregate::build(&s, r, AggKind::Sum);
        let mut avg = IncrementalAggregate::build(&s, r, AggKind::Average);
        let mut cnt = IncrementalAggregate::build(&s, r, AggKind::Count);
        assert_eq!(sum.value(), Value::Number(55.0));
        assert_eq!(avg.value(), Value::Number(5.5));
        assert_eq!(cnt.value(), Value::Number(10.0));
        let addr = CellAddr::new(0, 0);
        let old = s.value(addr);
        s.set_value(addr, 101);
        for agg in [&mut sum, &mut avg, &mut cnt] {
            agg.apply_edit(addr, &old, &Value::Number(101.0));
        }
        assert_eq!(sum.value(), Value::Number(155.0));
        assert_eq!(avg.value(), Value::Number(15.5));
        assert_eq!(cnt.value(), Value::Number(10.0));
    }

    #[test]
    fn averageif_keeps_condition_count() {
        let mut s = sheet();
        let crit = Criterion::parse(&Value::Number(1.0));
        let mut agg =
            IncrementalAggregate::build(&s, col_j(200), AggKind::AverageIf(crit));
        assert_eq!(agg.value(), Value::Number(1.0));
        // Remove every matching value → Div0, maintained incrementally.
        for i in 0..200u32 {
            let addr = CellAddr::new(i, 9);
            let old = s.value(addr);
            if old == Value::Number(1.0) {
                s.set_value(addr, 0);
                agg.apply_edit(addr, &old, &Value::Number(0.0));
            }
        }
        assert_eq!(agg.value(), Value::Error(CellError::Div0));
    }

    #[test]
    fn sum_family_is_exact_only_inside_the_integer_envelope() {
        let col = |vals: &[f64]| {
            let mut s = Sheet::new();
            for (i, &v) in vals.iter().enumerate() {
                s.set_value(CellAddr::new(i as u32, 0), v);
            }
            (s, Range::column_segment(0, 0, vals.len() as u32 - 1))
        };
        let crit = || Criterion::parse(&Value::text(">0"));
        let (ints, r) = col(&[1.0, 2.0, 3.0]);
        let (tenths, rt) = col(&[0.1, 0.2, 0.3]);
        let sum_family =
            [AggKind::Sum, AggKind::Average, AggKind::SumIf(crit()), AggKind::AverageIf(crit())];
        for kind in sum_family {
            let a = IncrementalAggregate::build(&ints, r, kind.clone());
            assert!(a.exact_with(&Value::Number(7.0)), "{kind:?}: integers are exact");
            assert!(a.exact_with(&Value::text("n/a")), "{kind:?}: non-summands are exact");
            assert!(!a.exact_with(&Value::Number(0.7)), "{kind:?}: fractional edit");
            assert!(!a.exact_with(&Value::Number(MAX_EXACT_SUM)), "{kind:?}: Σ|v| > 2^53");
            assert!(!a.exact_with(&Value::Error(CellError::Div0)), "{kind:?}: error edit");
            let b = IncrementalAggregate::build(&tenths, rt, kind.clone());
            assert!(!b.exact_with(&Value::Number(7.0)), "{kind:?}: fractional column");
        }
        // Counts never leave the envelope.
        for kind in [AggKind::Count, AggKind::CountIf(crit())] {
            let b = IncrementalAggregate::build(&tenths, rt, kind);
            assert!(b.exact_with(&Value::Number(0.7)));
        }
    }

    #[test]
    fn edits_outside_range_ignored() {
        let s = sheet();
        let crit = Criterion::parse(&Value::Number(1.0));
        let mut agg = IncrementalAggregate::build(&s, col_j(100), AggKind::CountIf(crit));
        let untouched =
            agg.apply_edit(CellAddr::new(150, 9), &Value::Number(1.0), &Value::Number(0.0));
        assert!(!untouched);
        assert_eq!(agg.value(), Value::Number(50.0));
    }

    #[test]
    fn registry_routes_edits_and_refreshes_caches() {
        let mut s = sheet();
        let f1 = CellAddr::new(0, 20);
        let f2 = CellAddr::new(1, 20);
        s.set_formula_str(f1, "=COUNTIF(J1:J200,1)").unwrap();
        s.set_formula_str(f2, "=SUM(J1:J200)").unwrap();
        let mut reg = IncrementalRegistry::new();
        let crit = Criterion::parse(&Value::Number(1.0));
        let count = IncrementalAggregate::build(&s, col_j(200), AggKind::CountIf(crit));
        reg.register_built(&mut s, f1, count);
        let sum = IncrementalAggregate::build(&s, col_j(200), AggKind::Sum);
        reg.register_built(&mut s, f2, sum);
        assert_eq!(s.value(f1), Value::Number(100.0));
        let touched = reg.edit(&mut s, CellAddr::new(1, 9), Value::Number(0.0));
        assert_eq!(touched, 2);
        assert_eq!(s.value(f1), Value::Number(99.0));
        assert_eq!(s.value(f2), Value::Number(99.0));
    }

    #[test]
    fn register_built_shares_one_scan_across_duplicates() {
        let mut s = sheet();
        let crit = Criterion::parse(&Value::Number(1.0));
        let cells: Vec<CellAddr> = (0..5).map(|i| CellAddr::new(i, 20)).collect();
        for &c in &cells {
            s.set_formula_str(c, "=COUNTIF(J1:J200,1)").unwrap();
        }
        let shared =
            IncrementalAggregate::build(&s, col_j(200), AggKind::CountIf(crit));
        let before = s.meter().snapshot();
        let mut reg = IncrementalRegistry::new();
        for &c in &cells {
            reg.register_built(&mut s, c, shared.clone());
        }
        // No additional scans beyond the one shared build.
        let d = s.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 0);
        reg.edit(&mut s, CellAddr::new(1, 9), Value::Number(0.0));
        for &c in &cells {
            assert_eq!(s.value(c), Value::Number(99.0));
        }
    }
}
