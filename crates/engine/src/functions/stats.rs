//! Aggregate and statistics builtins, including the conditional variants
//! (`COUNTIF`, `SUMIF`, `AVERAGEIF`) that the BCT aggregate experiment
//! (§4.3.3) uses as representatives. All aggregates stream over their range
//! arguments cell-by-cell — full scans, no indexes and no incremental
//! maintenance, per the paper's findings for all three systems.

use crate::addr::CellAddr;
use crate::error::CellError;
use crate::eval::EvalCtx;
use crate::index;
use crate::value::{Criterion, Value};

use super::{check_arity, fold_numbers, for_each_value, scalar, Arg};

/// `SUM(args...)`.
pub fn sum(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut total = 0.0;
    match fold_numbers(ctx, args, |n| total += n) {
        Ok(()) => Value::num(total),
        Err(e) => Value::Error(e),
    }
}

/// `AVERAGE(args...)` — `#DIV/0!` when no numeric values are present.
pub fn average(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut total = 0.0;
    let mut count = 0u64;
    match fold_numbers(ctx, args, |n| {
        total += n;
        count += 1;
    }) {
        Ok(()) if count > 0 => Value::num(total / count as f64),
        Ok(()) => Value::Error(CellError::Div0),
        Err(e) => Value::Error(e),
    }
}

/// `COUNT(args...)` — numeric values only.
pub fn count(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let mut n = 0u64;
    for arg in args {
        match arg {
            Arg::Value(v) => {
                if v.coerce_number().is_ok() && !v.is_empty() {
                    n += 1;
                }
            }
            Arg::Range(r) => ctx.read_range(*r, &mut |_, v| {
                if matches!(v, Value::Number(_)) {
                    n += 1;
                }
            }),
        }
    }
    Value::Number(n as f64)
}

/// `COUNTA(args...)` — non-empty values.
pub fn counta(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let mut n = 0u64;
    for arg in args {
        for_each_value(ctx, arg, &mut |v| {
            if !v.is_empty() {
                n += 1;
            }
        });
    }
    Value::Number(n as f64)
}

/// `COUNTBLANK(range)`. Cells of the range beyond the materialized grid
/// are blank by definition, so the count is computed as the range size
/// minus the visited non-empty cells.
pub fn countblank(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, 1) {
        return Value::Error(e);
    }
    match &args[0] {
        Arg::Value(v) => Value::Number(if v.is_empty() { 1.0 } else { 0.0 }),
        Arg::Range(r) => {
            let mut nonempty = 0u64;
            ctx.read_range(*r, &mut |_, v| {
                if !v.is_empty() {
                    nonempty += 1;
                }
            });
            Value::Number((r.len() - nonempty) as f64)
        }
    }
}

/// Shared extremum body.
fn extremum(ctx: &EvalCtx<'_>, args: &[Arg], better: fn(f64, f64) -> bool) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut best: Option<f64> = None;
    match fold_numbers(ctx, args, |n| {
        best = Some(match best {
            Some(b) if better(b, n) => b,
            _ => n,
        });
    }) {
        // Real systems return 0 for MIN/MAX over no numbers.
        Ok(()) => Value::Number(best.unwrap_or(0.0)),
        Err(e) => Value::Error(e),
    }
}

/// `MIN(args...)`.
pub fn min(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    extremum(ctx, args, |best, n| best <= n)
}

/// `MAX(args...)`.
pub fn max(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    extremum(ctx, args, |best, n| best >= n)
}

/// `PRODUCT(args...)`.
pub fn product(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut total = 1.0;
    let mut any = false;
    match fold_numbers(ctx, args, |n| {
        total *= n;
        any = true;
    }) {
        Ok(()) => Value::num(if any { total } else { 0.0 }),
        Err(e) => Value::Error(e),
    }
}

/// `MEDIAN(args...)`.
pub fn median(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let mut xs: Vec<f64> = Vec::new();
    if let Err(e) = fold_numbers(ctx, args, |n| xs.push(n)) {
        return Value::Error(e);
    }
    if xs.is_empty() {
        return Value::Error(CellError::Num);
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    let m = if xs.len() % 2 == 1 { xs[mid] } else { (xs[mid - 1] + xs[mid]) / 2.0 };
    Value::num(m)
}

/// Sample variance helper returning `(n, mean, m2)` via Welford.
fn welford(ctx: &EvalCtx<'_>, args: &[Arg]) -> Result<(u64, f64, f64), CellError> {
    let mut n = 0u64;
    let mut mean = 0.0;
    let mut m2 = 0.0;
    fold_numbers(ctx, args, |x| {
        n += 1;
        let d = x - mean;
        mean += d / n as f64;
        m2 += d * (x - mean);
    })?;
    Ok((n, mean, m2))
}

/// `VAR(args...)` — sample variance.
pub fn var(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match welford(ctx, args) {
        Ok((n, _, m2)) if n >= 2 => Value::num(m2 / (n - 1) as f64),
        Ok(_) => Value::Error(CellError::Div0),
        Err(e) => Value::Error(e),
    }
}

/// `STDEV(args...)` — sample standard deviation.
pub fn stdev(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match var(ctx, args) {
        Value::Number(v) => Value::Number(v.sqrt()),
        other => other,
    }
}

/// `COUNTIF(range, criterion)` — the paper's representative conditional
/// aggregate. Always a full scan of the (clipped) range; the cells of the
/// range past the materialized grid are empty cells, as in `COUNTBLANK`,
/// so a criterion that matches an empty cell counts them too — unread, so
/// uncharged — and the count does not depend on how far the grid extends.
pub fn countif(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 2) {
        return Value::Error(e);
    }
    let criterion = Criterion::parse(&scalar(ctx, &args[1]));
    if let Arg::Range(r) = &args[0] {
        // The optimized system's indexed path: O(1)/O(log m) probes in
        // place of the scan, bit-identical count.
        if let Some(count) = index::countif_probe(ctx, *r, &criterion) {
            return Value::Number(count);
        }
    }
    let (mut n, mut visited) = (0u64, 0u64);
    for_each_value(ctx, &args[0], &mut |v| {
        visited += 1;
        if criterion.matches(v) {
            n += 1;
        }
    });
    if let Arg::Range(r) = &args[0] {
        if criterion.matches(&Value::Empty) {
            n += r.len() - visited;
        }
    }
    Value::Number(n as f64)
}

/// `SUMIF(range, criterion, [sum_range])`.
pub fn sumif(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let criterion = Criterion::parse(&scalar(ctx, &args[1]));
    match conditional_fold(ctx, args, &criterion) {
        Ok((total, _)) => Value::num(total),
        Err(e) => Value::Error(e),
    }
}

/// `AVERAGEIF(range, criterion, [avg_range])`.
pub fn averageif(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let criterion = Criterion::parse(&scalar(ctx, &args[1]));
    match conditional_fold(ctx, args, &criterion) {
        Ok((_, 0)) => Value::Error(CellError::Div0),
        Ok((total, n)) => Value::num(total / n as f64),
        Err(e) => Value::Error(e),
    }
}

/// Shared body for SUMIF/AVERAGEIF: sums the values (from `sum_range` when
/// given, else the criteria range itself) of rows matching the criterion.
/// A criteria cell past the extent is an empty cell, so its value does not
/// depend on how far the grid extends.
fn conditional_fold(
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    criterion: &Criterion,
) -> Result<(f64, u64), CellError> {
    let Arg::Range(crit_range) = args[0] else {
        // Scalar "range": act on the single value.
        let v = scalar(ctx, &args[0]);
        return if criterion.matches(&v) {
            let n = v.coerce_number().unwrap_or(0.0);
            Ok((n, 1))
        } else {
            Ok((0.0, 0))
        };
    };
    let sum_range = match args.get(2) {
        Some(Arg::Range(r)) => Some(*r),
        Some(_) => return Err(CellError::Value),
        None => None,
    };
    if let Some(folded) = index::sumif_probe(ctx, crit_range, sum_range, criterion) {
        return Ok(folded);
    }
    let mut total = 0.0;
    let mut count = 0u64;
    match sum_range {
        None => {
            ctx.read_range(crit_range, &mut |_, v| {
                if criterion.matches(v) {
                    if let Value::Number(n) = v {
                        total += n;
                        count += 1;
                    }
                }
            });
        }
        Some(sr) => {
            // Row/col-aligned second range, as in the real systems: the
            // matched cell's offset indexes the sum range.
            let mut fold_target = |addr: CellAddr| {
                let dr = addr.row - crit_range.start.row;
                let dc = addr.col - crit_range.start.col;
                if let Some(target) = sr.start.offset(i64::from(dr), i64::from(dc)) {
                    if let Value::Number(n) = ctx.read(target) {
                        total += n;
                        count += 1;
                    }
                }
            };
            ctx.read_range(crit_range, &mut |addr, v| {
                if criterion.matches(v) {
                    fold_target(addr);
                }
            });
            // The criteria cells past the extent are empty cells, unread, as
            // in `COUNTIF`; when they match, their targets — which may lie
            // inside the extent — are read and folded after the rest.
            if criterion.matches(&Value::Empty) {
                let (nrows, ncols) = ctx.cells.bounds();
                for addr in crit_range.iter() {
                    if addr.row >= nrows || addr.col >= ncols {
                        fold_target(addr);
                    }
                }
            }
        }
    }
    Ok((total, count))
}

#[cfg(test)]
mod tests {
    use crate::error::CellError;
    use crate::functions::testutil::{eval_empty, eval_on, n, t};
    use crate::value::Value;

    fn grid() -> Vec<Vec<Value>> {
        // A: 1..6, B: STORM/none alternating, C: 10*i
        (0..6u32)
            .map(|i| {
                vec![
                    n(f64::from(i + 1)),
                    if i % 2 == 0 { t("STORM") } else { t("none") },
                    n(f64::from((i + 1) * 10)),
                ]
            })
            .collect()
    }

    #[test]
    fn sum_average_count() {
        assert_eq!(eval_on(grid(), "SUM(A1:A6)"), n(21.0));
        assert_eq!(eval_on(grid(), "AVERAGE(A1:A6)"), n(3.5));
        assert_eq!(eval_on(grid(), "COUNT(A1:B6)"), n(6.0)); // text not counted
        assert_eq!(eval_on(grid(), "COUNTA(A1:B6)"), n(12.0));
        assert_eq!(eval_on(grid(), "COUNTBLANK(A1:D6)"), n(6.0)); // col D empty
    }

    #[test]
    fn average_empty_is_div0() {
        assert_eq!(eval_on(vec![vec![t("x")]], "AVERAGE(A1:A1)"), Value::Error(CellError::Div0));
    }

    #[test]
    fn min_max_product() {
        assert_eq!(eval_on(grid(), "MIN(A1:A6)"), n(1.0));
        assert_eq!(eval_on(grid(), "MAX(A1:A6)"), n(6.0));
        assert_eq!(eval_empty("PRODUCT(2,3,4)"), n(24.0));
        assert_eq!(eval_empty("MIN(5,-2,7)"), n(-2.0));
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(eval_empty("MEDIAN(1,2,3)"), n(2.0));
        assert_eq!(eval_empty("MEDIAN(1,2,3,4)"), n(2.5));
        assert_eq!(eval_empty("MEDIAN(\"x\")"), Value::Error(CellError::Value));
    }

    #[test]
    fn variance_and_stdev() {
        assert_eq!(eval_empty("VAR(2,4,4,4,5,5,7,9)"), n(4.571428571428571));
        let sd = eval_empty("STDEV(2,4,4,4,5,5,7,9)").as_number().unwrap();
        assert!((sd - 4.571428571428571f64.sqrt()).abs() < 1e-12);
        assert_eq!(eval_empty("VAR(1)"), Value::Error(CellError::Div0));
    }

    #[test]
    fn countif_value_and_criteria() {
        assert_eq!(eval_on(grid(), "COUNTIF(B1:B6,\"STORM\")"), n(3.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A6,\">=4\")"), n(3.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A6,\"<>3\")"), n(5.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A6,4)"), n(1.0));
        // The paper's per-row form: single-cell range.
        assert_eq!(eval_on(grid(), "COUNTIF(B1,\"STORM\")"), n(1.0));
        assert_eq!(eval_on(grid(), "COUNTIF(B2,\"STORM\")"), n(0.0));
    }

    #[test]
    fn sumif_with_and_without_sum_range() {
        assert_eq!(eval_on(grid(), "SUMIF(A1:A6,\">3\")"), n(15.0));
        // STORM rows are 1,3,5 → C values 10+30+50
        assert_eq!(eval_on(grid(), "SUMIF(B1:B6,\"STORM\",C1:C6)"), n(90.0));
    }

    #[test]
    fn averageif_semantics() {
        assert_eq!(eval_on(grid(), "AVERAGEIF(B1:B6,\"STORM\",C1:C6)"), n(30.0));
        assert_eq!(
            eval_on(grid(), "AVERAGEIF(B1:B6,\"TORNADO\",C1:C6)"),
            Value::Error(CellError::Div0)
        );
    }

    /// The cells of a window past the grid (six rows by three columns here)
    /// are empty cells, to `COUNTIF` as to `COUNTIFS`.
    #[test]
    fn countif_counts_the_cells_past_the_grid_as_empty() {
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A10,\"<>3\")"), n(9.0));
        assert_eq!(eval_on(grid(), "COUNTIF(C5:E8,\"<>x\")"), n(12.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A9,\"<>x\")"), n(1.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A10,Y1)"), n(4.0)); // an empty criterion cell
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A10,\">0\")"), n(6.0));
        assert_eq!(eval_on(grid(), "COUNTIF(A1:A10,\"\")"), n(0.0));
        assert_eq!(eval_on(grid(), "COUNTIFS(A1:A10,\"<>3\",C1:C10,\"<>x\")"), n(9.0));
    }

    #[test]
    fn countif_wildcards() {
        assert_eq!(eval_on(grid(), "COUNTIF(B1:B6,\"st*\")"), n(3.0));
    }
}
