//! Multi-criteria aggregates (`SUMIFS`, `COUNTIFS`, `AVERAGEIFS`),
//! `SUMPRODUCT`, and order statistics (`LARGE`, `SMALL`, `RANK`, `MODE`).

use crate::addr::Range;
use crate::error::CellError;
use crate::eval::EvalCtx;
use crate::value::{Criterion, Value};

use super::{check_arity, num, scalar, Arg};

/// Extracts the criteria pairs of an `*IFS` call: `(range, criterion)+`
/// starting at argument `from`.
fn criteria_pairs(
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    from: usize,
) -> Result<Vec<(Range, Criterion)>, CellError> {
    if args.len() <= from || !(args.len() - from).is_multiple_of(2) {
        return Err(CellError::Value);
    }
    let mut pairs = Vec::with_capacity((args.len() - from) / 2);
    let mut i = from;
    while i < args.len() {
        let Arg::Range(range) = args[i] else { return Err(CellError::Value) };
        let criterion = Criterion::parse(&scalar(ctx, &args[i + 1]));
        pairs.push((range, criterion));
        i += 2;
    }
    Ok(pairs)
}

/// Shared `*IFS` machinery: folds the cells of `target` whose aligned
/// cells satisfy every criterion. All ranges must have the same shape.
fn ifs_fold(
    ctx: &EvalCtx<'_>,
    target: Range,
    pairs: &[(Range, Criterion)],
    f: &mut dyn FnMut(&Value),
) -> Result<(), CellError> {
    for (r, _) in pairs {
        if r.rows() != target.rows() || r.cols() != target.cols() {
            return Err(CellError::Value);
        }
    }
    for (dr, dc) in (0..target.rows()).flat_map(|dr| (0..target.cols()).map(move |dc| (dr, dc))) {
        let all_match = pairs.iter().all(|(range, criterion)| {
            let addr = crate::addr::CellAddr::new(range.start.row + dr, range.start.col + dc);
            criterion.matches(&ctx.read(addr))
        });
        if all_match {
            let addr = crate::addr::CellAddr::new(target.start.row + dr, target.start.col + dc);
            f(&ctx.read(addr));
        }
    }
    Ok(())
}

/// `SUMIFS(sum_range, crit_range1, crit1, ...)`.
pub fn sumifs(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let Some(Arg::Range(target)) = args.first() else { return Value::Error(CellError::Value) };
    let pairs = match criteria_pairs(ctx, args, 1) {
        Ok(p) => p,
        Err(e) => return Value::Error(e),
    };
    let mut total = 0.0;
    match ifs_fold(ctx, *target, &pairs, &mut |v| {
        if let Value::Number(n) = v {
            total += n;
        }
    }) {
        Ok(()) => Value::num(total),
        Err(e) => Value::Error(e),
    }
}

/// `COUNTIFS(crit_range1, crit1, ...)`.
pub fn countifs(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let pairs = match criteria_pairs(ctx, args, 0) {
        Ok(p) => p,
        Err(e) => return Value::Error(e),
    };
    let Some(&(first, _)) = pairs.first() else { return Value::Error(CellError::Value) };
    let mut count = 0u64;
    match ifs_fold(ctx, first, &pairs, &mut |_| count += 1) {
        Ok(()) => Value::Number(count as f64),
        Err(e) => Value::Error(e),
    }
}

/// `AVERAGEIFS(avg_range, crit_range1, crit1, ...)`.
pub fn averageifs(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    let Some(Arg::Range(target)) = args.first() else { return Value::Error(CellError::Value) };
    let pairs = match criteria_pairs(ctx, args, 1) {
        Ok(p) => p,
        Err(e) => return Value::Error(e),
    };
    let mut total = 0.0;
    let mut count = 0u64;
    match ifs_fold(ctx, *target, &pairs, &mut |v| {
        if let Value::Number(n) = v {
            total += n;
            count += 1;
        }
    }) {
        Ok(()) if count > 0 => Value::num(total / count as f64),
        Ok(()) => Value::Error(CellError::Div0),
        Err(e) => Value::Error(e),
    }
}

/// `SUMPRODUCT(range1, range2, ...)` — sums the element-wise products of
/// equally-shaped ranges (non-numeric cells count as 0).
pub fn sumproduct(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut ranges = Vec::with_capacity(args.len());
    for a in args {
        match a {
            Arg::Range(r) => ranges.push(*r),
            Arg::Value(v) => {
                // Scalars participate as 1×1 "ranges" only when alone.
                if args.len() == 1 {
                    return match v.coerce_number() {
                        Ok(n) => Value::Number(n),
                        Err(e) => Value::Error(e),
                    };
                }
                return Value::Error(CellError::Value);
            }
        }
    }
    let shape = (ranges[0].rows(), ranges[0].cols());
    if ranges.iter().any(|r| (r.rows(), r.cols()) != shape) {
        return Value::Error(CellError::Value);
    }
    let mut total = 0.0;
    for dr in 0..shape.0 {
        for dc in 0..shape.1 {
            let mut product = 1.0;
            for r in &ranges {
                let addr = crate::addr::CellAddr::new(r.start.row + dr, r.start.col + dc);
                product *= ctx.read(addr).as_number().unwrap_or(0.0);
            }
            total += product;
        }
    }
    Value::num(total)
}

/// Collects the numeric values of an argument.
fn numbers_of(ctx: &EvalCtx<'_>, arg: &Arg) -> Vec<f64> {
    let mut xs = Vec::new();
    super::for_each_value(ctx, arg, &mut |v| {
        if let Value::Number(n) = v {
            xs.push(*n);
        }
    });
    xs
}

/// `LARGE(range, k)` — the k-th largest value (1-based).
pub fn large(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    kth(ctx, args, true)
}

/// `SMALL(range, k)` — the k-th smallest value (1-based).
pub fn small(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    kth(ctx, args, false)
}

fn kth(ctx: &EvalCtx<'_>, args: &[Arg], largest: bool) -> Value {
    if let Err(e) = check_arity(args, 2, 2) {
        return Value::Error(e);
    }
    let k = match num(ctx, &args[1]) {
        Ok(n) if n >= 1.0 => n as usize,
        Ok(_) => return Value::Error(CellError::Num),
        Err(e) => return Value::Error(e),
    };
    let mut xs = numbers_of(ctx, &args[0]);
    if k > xs.len() {
        return Value::Error(CellError::Num);
    }
    xs.sort_by(f64::total_cmp);
    let idx = if largest { xs.len() - k } else { k - 1 };
    Value::Number(xs[idx])
}

/// `RANK(x, range, [order=0])` — the rank of `x` among the range's
/// numbers; `order 0` = descending (largest is rank 1), non-zero =
/// ascending.
pub fn rank(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let x = match num(ctx, &args[0]) {
        Ok(n) => n,
        Err(e) => return Value::Error(e),
    };
    let ascending = match args.get(2) {
        Some(a) => match num(ctx, a) {
            Ok(n) => n != 0.0,
            Err(e) => return Value::Error(e),
        },
        None => false,
    };
    let xs = numbers_of(ctx, &args[1]);
    if !xs.contains(&x) {
        return Value::Error(CellError::Na);
    }
    let better = xs
        .iter()
        .filter(|&&y| if ascending { y < x } else { y > x })
        .count();
    Value::Number((better + 1) as f64)
}

/// `MODE(range)` — the most frequent number (ties: the one seen first, as
/// in the real systems).
pub fn mode(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 1, usize::MAX) {
        return Value::Error(e);
    }
    let mut order: Vec<f64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for arg in args {
        for x in numbers_of(ctx, arg) {
            match order.iter().position(|&y| y == x) {
                Some(i) => counts[i] += 1,
                None => {
                    order.push(x);
                    counts.push(1);
                }
            }
        }
    }
    let Some((best, &n)) = counts.iter().enumerate().max_by_key(|&(i, &c)| (c, usize::MAX - i))
    else {
        return Value::Error(CellError::Na);
    };
    if n < 2 {
        return Value::Error(CellError::Na);
    }
    Value::Number(order[best])
}

#[cfg(test)]
mod tests {
    use crate::error::CellError;
    use crate::functions::testutil::{eval_empty, eval_on, n, t};
    use crate::value::Value;

    fn grid() -> Vec<Vec<Value>> {
        // A: region, B: product, C: amount
        vec![
            vec![t("east"), t("apple"), n(10.0)],
            vec![t("west"), t("apple"), n(20.0)],
            vec![t("east"), t("banana"), n(30.0)],
            vec![t("east"), t("apple"), n(40.0)],
            vec![t("west"), t("banana"), n(50.0)],
        ]
    }

    #[test]
    fn sumifs_multiple_criteria() {
        assert_eq!(
            eval_on(grid(), "SUMIFS(C1:C5,A1:A5,\"east\",B1:B5,\"apple\")"),
            n(50.0)
        );
        assert_eq!(eval_on(grid(), "SUMIFS(C1:C5,A1:A5,\"west\")"), n(70.0));
        assert_eq!(eval_on(grid(), "SUMIFS(C1:C5,C1:C5,\">=30\")"), n(120.0));
    }

    #[test]
    fn countifs_and_averageifs() {
        assert_eq!(eval_on(grid(), "COUNTIFS(A1:A5,\"east\",B1:B5,\"apple\")"), n(2.0));
        assert_eq!(
            eval_on(grid(), "AVERAGEIFS(C1:C5,A1:A5,\"east\")"),
            n((10.0 + 30.0 + 40.0) / 3.0)
        );
        assert_eq!(
            eval_on(grid(), "AVERAGEIFS(C1:C5,A1:A5,\"north\")"),
            Value::Error(CellError::Div0)
        );
    }

    #[test]
    fn ifs_shape_mismatch_is_value_error() {
        assert_eq!(
            eval_on(grid(), "SUMIFS(C1:C5,A1:A4,\"east\")"),
            Value::Error(CellError::Value)
        );
        assert_eq!(eval_on(grid(), "COUNTIFS(A1:A5)"), Value::Error(CellError::Value));
    }

    #[test]
    fn sumproduct_pairs() {
        let rows = vec![
            vec![n(1.0), n(10.0)],
            vec![n(2.0), n(20.0)],
            vec![n(3.0), t("skip")],
        ];
        assert_eq!(eval_on(rows, "SUMPRODUCT(A1:A3,B1:B3)"), n(50.0));
        assert_eq!(eval_empty("SUMPRODUCT(3)"), n(3.0));
    }

    #[test]
    fn large_small() {
        let rows: Vec<Vec<Value>> = [3.0, 1.0, 4.0, 1.0, 5.0].iter().map(|&x| vec![n(x)]).collect();
        assert_eq!(eval_on(rows.clone(), "LARGE(A1:A5,1)"), n(5.0));
        assert_eq!(eval_on(rows.clone(), "LARGE(A1:A5,2)"), n(4.0));
        assert_eq!(eval_on(rows.clone(), "SMALL(A1:A5,1)"), n(1.0));
        assert_eq!(eval_on(rows.clone(), "SMALL(A1:A5,3)"), n(3.0));
        assert_eq!(eval_on(rows, "LARGE(A1:A5,6)"), Value::Error(CellError::Num));
    }

    #[test]
    fn rank_orders() {
        let rows: Vec<Vec<Value>> = [10.0, 30.0, 20.0].iter().map(|&x| vec![n(x)]).collect();
        assert_eq!(eval_on(rows.clone(), "RANK(30,A1:A3)"), n(1.0));
        assert_eq!(eval_on(rows.clone(), "RANK(10,A1:A3)"), n(3.0));
        assert_eq!(eval_on(rows.clone(), "RANK(10,A1:A3,1)"), n(1.0));
        assert_eq!(eval_on(rows, "RANK(99,A1:A3)"), Value::Error(CellError::Na));
    }

    #[test]
    fn mode_most_frequent() {
        let rows: Vec<Vec<Value>> =
            [5.0, 3.0, 5.0, 3.0, 5.0].iter().map(|&x| vec![n(x)]).collect();
        assert_eq!(eval_on(rows, "MODE(A1:A5)"), n(5.0));
        let unique: Vec<Vec<Value>> = [1.0, 2.0].iter().map(|&x| vec![n(x)]).collect();
        assert_eq!(eval_on(unique, "MODE(A1:A2)"), Value::Error(CellError::Na));
    }
}
