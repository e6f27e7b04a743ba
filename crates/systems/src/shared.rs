//! Shared computation (§5.3): detecting families of formulae with
//! overlapping range reads and computing them together.
//!
//! The paper's experiment installs `Bi = SUM(A1:Ai)` for every row `i`;
//! evaluated independently (as all three systems do) that is O(m²) cell
//! references. A prefix-sum pass shares all the overlapping work and is
//! O(m) — this module implements that rewrite generically: any set of
//! `SUM`/`COUNT`/... formulae over ranges that share a column and a fixed
//! start row is answered from one running prefix array.

use std::collections::HashMap;

use ssbench_engine::prelude::*;

/// One detected prefix-aggregate formula: `SUM(col, start_row ..= end_row)`
/// anchored at a shared `start_row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixSum {
    /// The cell holding the formula.
    at: CellAddr,
    /// The summed column.
    col: u32,
    /// First row of the range (shared anchor).
    start_row: u32,
    /// Last row of the range (inclusive).
    end_row: u32,
}

/// Recognizes `SUM(<single-column range>)` and returns its prefix shape.
fn recognize_prefix_sum(at: CellAddr, expr: &Expr) -> Option<PrefixSum> {
    let Expr::Call(name, args) = expr else { return None };
    if name != "SUM" || args.len() != 1 {
        return None;
    }
    let Expr::RangeRef(r) = &args[0] else { return None };
    let range = r.range();
    if range.cols() != 1 {
        return None;
    }
    Some(PrefixSum { at, col: range.start.col, start_row: range.start.row, end_row: range.end.row })
}

/// Groups prefix sums by `(column, start_row)` anchor; groups of size > 1
/// are sharing opportunities.
fn group_by_anchor(sums: &[PrefixSum]) -> HashMap<(u32, u32), Vec<PrefixSum>> {
    let mut groups: HashMap<(u32, u32), Vec<PrefixSum>> = HashMap::new();
    for &p in sums {
        groups.entry((p.col, p.start_row)).or_default().push(p);
    }
    groups
}

/// Evaluates a family of same-anchor prefix sums with one O(m) pass:
/// builds the running prefix array once and answers every formula from
/// it. Returns `(formula cell, value)` pairs.
///
/// Total cell reads: `max(end_row) − start_row + 1` — versus the engine's
/// independent evaluation which costs the *sum* of all range lengths.
fn eval_prefix_family(sheet: &Sheet, family: &[PrefixSum]) -> Vec<(CellAddr, f64)> {
    let Some(&first) = family.first() else { return Vec::new() };
    debug_assert!(family
        .iter()
        .all(|p| p.col == first.col && p.start_row == first.start_row));
    let max_end = family.iter().map(|p| p.end_row).max().unwrap_or(first.end_row);
    // One shared scan builds prefix[i] = Σ rows start..=start+i.
    let mut prefix: Vec<f64> = Vec::with_capacity((max_end - first.start_row + 1) as usize);
    let ctx = sheet.eval_ctx(first.at);
    let mut running = 0.0;
    for row in first.start_row..=max_end {
        if let Some(n) = ctx.read(CellAddr::new(row, first.col)).as_number() {
            running += n;
        }
        prefix.push(running);
    }
    family
        .iter()
        .map(|p| {
            let idx = (p.end_row - p.start_row) as usize;
            (p.at, prefix.get(idx).copied().unwrap_or(running))
        })
        .collect()
}

/// Scans a sheet for prefix-sum formulae, evaluates every same-anchor
/// family via shared prefix passes, and writes results back into the
/// formula caches. Returns the number of formulae answered via sharing.
pub(crate) fn apply_shared_computation(sheet: &mut Sheet) -> usize {
    let mut sums = Vec::new();
    for addr in sheet.deps().formula_addrs().collect::<Vec<_>>() {
        if let Some(expr) = sheet.formula_expr(addr) {
            if let Some(p) = recognize_prefix_sum(addr, expr) {
                sums.push(p);
            }
        }
    }
    let groups = group_by_anchor(&sums);
    let mut answered = 0;
    for family in groups.values() {
        let results = eval_prefix_family(sheet, family);
        for (addr, value) in results {
            sheet.store_formula_result(addr, Value::Number(value));
            answered += 1;
        }
    }
    answered
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_engine::meter::Primitive;

    fn sheet_with_column(n: u32) -> Sheet {
        let mut s = Sheet::new();
        for i in 0..n {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s
    }

    #[test]
    fn recognizer_accepts_prefix_sums_only() {
        let at = CellAddr::new(4, 1);
        let p = recognize_prefix_sum(at, &parse("SUM(A1:A5)").unwrap()).unwrap();
        assert_eq!(p, PrefixSum { at, col: 0, start_row: 0, end_row: 4 });
        assert!(recognize_prefix_sum(at, &parse("SUM(A1:B5)").unwrap()).is_none());
        assert!(recognize_prefix_sum(at, &parse("COUNTIF(A1:A5,1)").unwrap()).is_none());
        assert!(recognize_prefix_sum(at, &parse("SUM(A1:A5)+1").unwrap()).is_none());
    }

    #[test]
    fn family_evaluation_matches_independent_eval() {
        let mut s = sheet_with_column(50);
        for i in 0..50u32 {
            s.set_formula_str(
                CellAddr::new(i, 1),
                &format!("=SUM(A1:A{})", i + 1),
            )
            .unwrap();
        }
        recalc::recalc_all(&mut s);
        let expected: Vec<f64> =
            (0..50u32).map(|i| s.value(CellAddr::new(i, 1)).as_number().unwrap()).collect();

        let s2 = sheet_with_column(50);
        let family: Vec<PrefixSum> = (0..50u32)
            .map(|i| PrefixSum { at: CellAddr::new(i, 1), col: 0, start_row: 0, end_row: i })
            .collect();
        let results = eval_prefix_family(&s2, &family);
        for (i, (addr, v)) in results.iter().enumerate() {
            assert_eq!(*addr, CellAddr::new(i as u32, 1));
            assert_eq!(*v, expected[i]);
        }
    }

    #[test]
    fn shared_pass_reads_linearly_not_quadratically() {
        let n = 100u32;
        let s = sheet_with_column(n);
        let family: Vec<PrefixSum> = (0..n)
            .map(|i| PrefixSum { at: CellAddr::new(i, 1), col: 0, start_row: 0, end_row: i })
            .collect();
        let before = s.meter().snapshot();
        eval_prefix_family(&s, &family);
        let reads = s.meter().snapshot().since(&before).get(Primitive::CellRead);
        assert_eq!(reads, u64::from(n), "one shared scan");
        // Independent evaluation would read n(n+1)/2 = 5050 cells.
    }

    #[test]
    fn apply_shared_computation_end_to_end() {
        let mut s = sheet_with_column(30);
        for i in 0..30u32 {
            s.set_formula_str(CellAddr::new(i, 1), &format!("=SUM(A1:A{})", i + 1)).unwrap();
        }
        let answered = apply_shared_computation(&mut s);
        assert_eq!(answered, 30);
        // Triangular numbers of 1..=i+1.
        assert_eq!(s.value(CellAddr::new(29, 1)), Value::Number((31 * 30 / 2) as f64));
        assert_eq!(s.value(CellAddr::new(0, 1)), Value::Number(1.0));
    }

    #[test]
    fn mixed_anchors_form_separate_groups() {
        let sums = vec![
            PrefixSum { at: CellAddr::new(0, 1), col: 0, start_row: 0, end_row: 0 },
            PrefixSum { at: CellAddr::new(1, 1), col: 0, start_row: 0, end_row: 1 },
            PrefixSum { at: CellAddr::new(2, 1), col: 0, start_row: 1, end_row: 2 },
            PrefixSum { at: CellAddr::new(3, 2), col: 2, start_row: 0, end_row: 3 },
        ];
        let groups = group_by_anchor(&sums);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&(0, 0)].len(), 2);
    }
}
