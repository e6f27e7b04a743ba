//! Lookup builtins. `VLOOKUP` is the paper's representative (§4.3.4); its
//! scan behaviour is the context's [`LookupStrategy`]:
//!
//! * `StopEarly` — Excel "terminates execution after finding the value",
//!   and its sorted lookup is near-constant ("log2 500000 ≈ 19 … roughly
//!   19 comparisons in memory").
//! * `FullScan` — Calc and Google Sheets "continue to scan the entire
//!   data".

use crate::addr::{CellAddr, Range};
use crate::error::CellError;
use crate::eval::{EvalCtx, LookupStrategy};
use crate::index;
use crate::value::Value;

use super::{check_arity, num, scalar, Arg};

/// Extracts a range argument or fails with `#VALUE!`.
fn range_arg(args: &[Arg], i: usize) -> Result<Range, CellError> {
    match args.get(i) {
        Some(Arg::Range(r)) => Ok(*r),
        _ => Err(CellError::Value),
    }
}

/// Exact match down `col` over the rows of the (pre-clipped) `range`: the
/// column index when one is built, else the cell source's
/// [`find_exact`](crate::eval::CellSource::find_exact), which honors early
/// exit. Returns the first matching row (absolute).
fn exact_match(ctx: &EvalCtx<'_>, range: Range, col: u32, needle: &Value) -> Option<u32> {
    index::lookup_probe(ctx, range, col, needle).unwrap_or_else(|| {
        ctx.find_exact(Range::column_segment(col, range.start.row, range.end.row), needle)
    })
}

/// Approximate match (largest value ≤ needle, data assumed sorted
/// ascending): either a binary search (Excel with Sorted=TRUE) or the full
/// linear scan the other systems perform.
fn scan_approx(ctx: &EvalCtx<'_>, range: Range, col: u32, needle: &Value) -> Option<u32> {
    if ctx.lookup == LookupStrategy::StopEarly {
        let mut lo = range.start.row;
        let mut hi = range.end.row;
        let mut best: Option<u32> = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let v = ctx.read(CellAddr::new(mid, col));
            if v.sheet_cmp(needle).is_le() {
                best = Some(mid);
                if mid == u32::MAX {
                    break;
                }
                lo = mid + 1;
            } else {
                if mid == range.start.row {
                    break;
                }
                hi = mid - 1;
            }
        }
        best
    } else {
        let mut best: Option<u32> = None;
        for row in range.start.row..=range.end.row {
            let v = ctx.read(CellAddr::new(row, col));
            if v.sheet_cmp(needle).is_le() && !v.is_empty() {
                best = Some(row);
            }
        }
        best
    }
}

/// `VLOOKUP(needle, range, col_index, [approx=TRUE])`.
pub fn vlookup(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 3, 4) {
        return Value::Error(e);
    }
    let needle = scalar(ctx, &args[0]);
    if let Value::Error(e) = needle {
        return Value::Error(e);
    }
    let range = match range_arg(args, 1) {
        Ok(r) => r,
        Err(e) => return Value::Error(e),
    };
    let col_index = match num(ctx, &args[2]) {
        Ok(n) if n >= 1.0 => n as u32,
        Ok(_) => return Value::Error(CellError::Value),
        Err(e) => return Value::Error(e),
    };
    if col_index > range.cols() {
        return Value::Error(CellError::Ref);
    }
    let approx = match args.get(3) {
        Some(a) => match scalar(ctx, a).coerce_bool() {
            Ok(b) => b,
            Err(e) => return Value::Error(e),
        },
        None => true,
    };
    let (nrows, ncols) = ctx.cells.bounds();
    let Some(range) = range.clip_to(nrows, ncols) else {
        return Value::Error(CellError::Na);
    };
    let key_col = range.start.col;
    let hit = if approx {
        scan_approx(ctx, range, key_col, &needle)
    } else {
        exact_match(ctx, range, key_col, &needle)
    };
    match hit {
        Some(row) => ctx.read(CellAddr::new(row, range.start.col + col_index - 1)),
        None => Value::Error(CellError::Na),
    }
}

/// `HLOOKUP(needle, range, row_index, [approx=TRUE])` — the transposed
/// variant; scans the first row.
pub fn hlookup(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 3, 4) {
        return Value::Error(e);
    }
    let needle = scalar(ctx, &args[0]);
    if let Value::Error(e) = needle {
        return Value::Error(e);
    }
    let range = match range_arg(args, 1) {
        Ok(r) => r,
        Err(e) => return Value::Error(e),
    };
    let row_index = match num(ctx, &args[2]) {
        Ok(n) if n >= 1.0 => n as u32,
        Ok(_) => return Value::Error(CellError::Value),
        Err(e) => return Value::Error(e),
    };
    if row_index > range.rows() {
        return Value::Error(CellError::Ref);
    }
    let approx = match args.get(3) {
        Some(a) => match scalar(ctx, a).coerce_bool() {
            Ok(b) => b,
            Err(e) => return Value::Error(e),
        },
        None => true,
    };
    let (nrows, ncols) = ctx.cells.bounds();
    let Some(range) = range.clip_to(nrows, ncols) else {
        return Value::Error(CellError::Na);
    };
    let key_row = range.start.row;
    let mut hit: Option<u32> = None;
    let mut best: Option<u32> = None;
    for col in range.start.col..=range.end.col {
        let v = ctx.read(CellAddr::new(key_row, col));
        if approx {
            if v.sheet_cmp(&needle).is_le() && !v.is_empty() {
                best = Some(col);
            }
        } else if hit.is_none() && v.sheet_eq(&needle) {
            hit = Some(col);
            if ctx.lookup == LookupStrategy::StopEarly {
                break;
            }
        }
    }
    let col = if approx { best } else { hit };
    match col {
        Some(c) => ctx.read(CellAddr::new(range.start.row + row_index - 1, c)),
        None => Value::Error(CellError::Na),
    }
}

/// `INDEX(range, row, [col=1])` — 1-based within the range.
pub fn index(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let range = match range_arg(args, 0) {
        Ok(r) => r,
        Err(e) => return Value::Error(e),
    };
    let row = match num(ctx, &args[1]) {
        Ok(n) if n >= 1.0 => n as u32,
        Ok(_) => return Value::Error(CellError::Value),
        Err(e) => return Value::Error(e),
    };
    let col = match args.get(2) {
        Some(a) => match num(ctx, a) {
            Ok(n) if n >= 1.0 => n as u32,
            Ok(_) => return Value::Error(CellError::Value),
            Err(e) => return Value::Error(e),
        },
        None => 1,
    };
    if row > range.rows() || col > range.cols() {
        return Value::Error(CellError::Ref);
    }
    ctx.read(CellAddr::new(range.start.row + row - 1, range.start.col + col - 1))
}

/// `MATCH(needle, range, [match_type=1])` — returns the 1-based position.
/// `0` exact, `1` largest ≤ (ascending data), `-1` smallest ≥ (descending
/// data).
pub fn match_fn(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let needle = scalar(ctx, &args[0]);
    if let Value::Error(e) = needle {
        return Value::Error(e);
    }
    let range = match range_arg(args, 1) {
        Ok(r) => r,
        Err(e) => return Value::Error(e),
    };
    let match_type = match args.get(2) {
        Some(a) => match num(ctx, a) {
            Ok(n) => n,
            Err(e) => return Value::Error(e),
        },
        None => 1.0,
    };
    if range.rows() != 1 && range.cols() != 1 {
        return Value::Error(CellError::Na);
    }
    let (nrows, ncols) = ctx.cells.bounds();
    let Some(range) = range.clip_to(nrows, ncols) else {
        return Value::Error(CellError::Na);
    };
    let vertical = range.cols() == 1;
    if vertical && match_type == 0.0 {
        return match exact_match(ctx, range, range.start.col, &needle) {
            Some(row) => Value::Number(f64::from(row - range.start.row + 1)),
            None => Value::Error(CellError::Na),
        };
    }
    let len = if vertical { range.rows() } else { range.cols() };
    let read_at = |i: u32| {
        let addr = if vertical {
            CellAddr::new(range.start.row + i, range.start.col)
        } else {
            CellAddr::new(range.start.row, range.start.col + i)
        };
        ctx.read(addr)
    };
    let mut result: Option<u32> = None;
    for i in 0..len {
        let v = read_at(i);
        if match_type == 0.0 {
            if result.is_none() && v.sheet_eq(&needle) {
                result = Some(i);
                if ctx.lookup == LookupStrategy::StopEarly {
                    break;
                }
            }
        } else if match_type > 0.0 {
            if v.sheet_cmp(&needle).is_le() && !v.is_empty() {
                result = Some(i);
            }
        } else {
            // descending: first value >= needle keeps being replaced while
            // values stay >=; stop once below.
            if v.sheet_cmp(&needle).is_ge() && !v.is_empty() {
                result = Some(i);
            }
        }
    }
    match result {
        Some(i) => Value::Number(f64::from(i + 1)),
        None => Value::Error(CellError::Na),
    }
}

/// `LOOKUP(needle, lookup_range, [result_range])` — approximate match.
pub fn lookup(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, 3) {
        return Value::Error(e);
    }
    let needle = scalar(ctx, &args[0]);
    let lookup_range = match range_arg(args, 1) {
        Ok(r) => r,
        Err(e) => return Value::Error(e),
    };
    let (nrows, ncols) = ctx.cells.bounds();
    let Some(lookup_clipped) = lookup_range.clip_to(nrows, ncols) else {
        return Value::Error(CellError::Na);
    };
    let vertical = lookup_clipped.cols() == 1;
    let hit = if vertical {
        scan_approx(ctx, lookup_clipped, lookup_clipped.start.col, &needle).map(|row| row - lookup_clipped.start.row)
    } else {
        let mut best: Option<u32> = None;
        for col in lookup_clipped.start.col..=lookup_clipped.end.col {
            let v = ctx.read(CellAddr::new(lookup_clipped.start.row, col));
            if v.sheet_cmp(&needle).is_le() && !v.is_empty() {
                best = Some(col - lookup_clipped.start.col);
            }
        }
        best
    };
    let Some(offset) = hit else {
        return Value::Error(CellError::Na);
    };
    let result_range = match args.get(2) {
        Some(Arg::Range(r)) => *r,
        Some(_) => return Value::Error(CellError::Value),
        None => lookup_range,
    };
    let addr = if result_range.cols() == 1 {
        CellAddr::new(result_range.start.row + offset, result_range.start.col)
    } else {
        CellAddr::new(result_range.start.row, result_range.start.col + offset)
    };
    ctx.read(addr)
}

/// `XLOOKUP(needle, lookup_range, return_range, [if_not_found],
/// [match_mode = 0])` — the modern lookup: `0` exact, `-1` exact or next
/// smaller, `1` exact or next larger. Lookup and return ranges must be
/// single-column (or single-row) vectors of the same length.
pub fn xlookup(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 3, 5) {
        return Value::Error(e);
    }
    let needle = scalar(ctx, &args[0]);
    let (lookup_range, return_range) = match (range_arg(args, 1), range_arg(args, 2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Value::Error(e),
    };
    if lookup_range.len() != return_range.len() {
        return Value::Error(CellError::Value);
    }
    let match_mode = match args.get(4) {
        Some(a) => match num(ctx, a) {
            Ok(n) => n as i32,
            Err(e) => return Value::Error(e),
        },
        None => 0,
    };
    let (nrows, ncols) = ctx.cells.bounds();
    let Some(clipped) = lookup_range.clip_to(nrows, ncols) else {
        return xlookup_miss(ctx, args);
    };
    let vertical = clipped.cols() == 1;
    let len = if vertical { clipped.rows() } else { clipped.cols() };
    let read_at = |i: u32| {
        let addr = if vertical {
            CellAddr::new(clipped.start.row + i, clipped.start.col)
        } else {
            CellAddr::new(clipped.start.row, clipped.start.col + i)
        };
        ctx.read(addr)
    };
    let mut exact: Option<u32> = None;
    let mut below: Option<(u32, Value)> = None; // largest value < needle
    let mut above: Option<(u32, Value)> = None; // smallest value > needle
    for i in 0..len {
        let v = read_at(i);
        if v.sheet_eq(&needle) {
            exact = Some(i);
            if ctx.lookup == LookupStrategy::StopEarly && match_mode == 0 {
                break;
            }
            continue;
        }
        match v.sheet_cmp(&needle) {
            std::cmp::Ordering::Less
                if !v.is_empty()
                    && below.as_ref().is_none_or(|(_, b)| v.sheet_cmp(b).is_gt()) =>
            {
                below = Some((i, v));
            }
            std::cmp::Ordering::Greater
                if above.as_ref().is_none_or(|(_, a)| v.sheet_cmp(a).is_lt()) =>
            {
                above = Some((i, v));
            }
            _ => {}
        }
    }
    let hit = match match_mode {
        0 => exact,
        -1 => exact.or(below.map(|(i, _)| i)),
        1 => exact.or(above.map(|(i, _)| i)),
        _ => return Value::Error(CellError::Value),
    };
    match hit {
        Some(i) => {
            let addr = if return_range.cols() == 1 {
                CellAddr::new(return_range.start.row + i, return_range.start.col)
            } else {
                CellAddr::new(return_range.start.row, return_range.start.col + i)
            };
            ctx.read(addr)
        }
        None => xlookup_miss(ctx, args),
    }
}

/// The not-found result of an XLOOKUP: the 4th argument when present,
/// `#N/A` otherwise.
fn xlookup_miss(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match args.get(3) {
        Some(a) => scalar(ctx, a),
        None => Value::Error(CellError::Na),
    }
}

/// `OFFSET(reference, rows, cols)` — the value of the cell `rows`/`cols`
/// away from the reference's top-left corner (the scalar form; the
/// range-producing form is not part of this dialect).
pub fn offset(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 3, 3) {
        return Value::Error(e);
    }
    let base = match range_arg(args, 0) {
        Ok(r) => r.start,
        Err(e) => return Value::Error(e),
    };
    let (dr, dc) = match (num(ctx, &args[1]), num(ctx, &args[2])) {
        (Ok(a), Ok(b)) => (a as i64, b as i64),
        (Err(e), _) | (_, Err(e)) => return Value::Error(e),
    };
    match base.offset(dr, dc) {
        Some(addr) => ctx.read(addr),
        None => Value::Error(CellError::Ref),
    }
}

/// `CHOOSE(k, v1, v2, ...)`.
pub fn choose(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    if let Err(e) = check_arity(args, 2, usize::MAX) {
        return Value::Error(e);
    }
    let k = match num(ctx, &args[0]) {
        Ok(n) if n >= 1.0 && (n as usize) < args.len() => n as usize,
        Ok(_) => return Value::Error(CellError::Value),
        Err(e) => return Value::Error(e),
    };
    scalar(ctx, &args[k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
    use crate::eval::{evaluate, ValueMatrix};
    use crate::formula::parse;
    use crate::functions::testutil::{eval_on, n, t};
    use crate::meter::{Meter, Primitive};

    /// A sorted two-column table: A = 10,20,..,100; B = "s10".."s100".
    fn table() -> Vec<Vec<Value>> {
        (1..=10u32)
            .map(|i| vec![n(f64::from(i * 10)), t(&format!("s{}", i * 10))])
            .collect()
    }

    #[test]
    fn vlookup_exact() {
        assert_eq!(eval_on(table(), "VLOOKUP(30,A1:B10,2,FALSE)"), t("s30"));
        assert_eq!(
            eval_on(table(), "VLOOKUP(35,A1:B10,2,FALSE)"),
            Value::Error(CellError::Na)
        );
    }

    #[test]
    fn vlookup_approx_default() {
        // default 4th arg is TRUE: largest value <= needle
        assert_eq!(eval_on(table(), "VLOOKUP(35,A1:B10,2)"), t("s30"));
        assert_eq!(eval_on(table(), "VLOOKUP(100,A1:B10,2,TRUE)"), t("s100"));
        assert_eq!(eval_on(table(), "VLOOKUP(5,A1:B10,2,TRUE)"), Value::Error(CellError::Na));
    }

    #[test]
    fn vlookup_col_index_bounds() {
        assert_eq!(eval_on(table(), "VLOOKUP(30,A1:B10,3,FALSE)"), Value::Error(CellError::Ref));
        assert_eq!(eval_on(table(), "VLOOKUP(30,A1:B10,0,FALSE)"), Value::Error(CellError::Value));
    }

    fn run_with_strategy(src: &str, strategy: LookupStrategy) -> (Value, u64) {
        let m = ValueMatrix::new(table());
        let meter = Meter::new();
        let mut ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 5));
        ctx.lookup = strategy;
        let v = evaluate(&parse(src).unwrap(), &ctx);
        (v, meter.snapshot().get(Primitive::CellRead))
    }

    #[test]
    fn early_exit_reduces_reads() {
        let (naive, excel) = (LookupStrategy::FullScan, LookupStrategy::StopEarly);
        let (v1, reads_naive) = run_with_strategy("VLOOKUP(20,A1:B10,2,FALSE)", naive);
        let (v2, reads_excel) = run_with_strategy("VLOOKUP(20,A1:B10,2,FALSE)", excel);
        assert_eq!(v1, v2);
        // naive scans all 10 keys + 1 result; Excel stops at row 2.
        assert_eq!(reads_naive, 11);
        assert_eq!(reads_excel, 3);
    }

    #[test]
    fn binary_search_reduces_reads() {
        let (naive, excel) = (LookupStrategy::FullScan, LookupStrategy::StopEarly);
        let (v1, reads_naive) = run_with_strategy("VLOOKUP(77,A1:B10,2,TRUE)", naive);
        let (v2, reads_excel) = run_with_strategy("VLOOKUP(77,A1:B10,2,TRUE)", excel);
        assert_eq!(v1, t("s70"));
        assert_eq!(v2, v1);
        assert_eq!(reads_naive, 11);
        assert!(reads_excel <= 5, "binary search should probe ≤ ceil(log2 10)+1, got {reads_excel}");
    }

    #[test]
    fn hlookup_transposed() {
        let rows = vec![
            vec![n(1.0), n(2.0), n(3.0)],
            vec![t("a"), t("b"), t("c")],
        ];
        assert_eq!(eval_on(rows.clone(), "HLOOKUP(2,A1:C2,2,FALSE)"), t("b"));
        assert_eq!(eval_on(rows, "HLOOKUP(2.5,A1:C2,2,TRUE)"), t("b"));
    }

    /// An error needle is the result, as in `VLOOKUP`: it used to be
    /// compared like any other value — `#N/A` from the exact forms, and a
    /// *hit* on the last column from the approximate ones, because an error
    /// sorts above every number.
    #[test]
    fn an_error_needle_propagates() {
        let rows = vec![vec![n(1.0), n(2.0), n(3.0)]];
        let div0 = Value::Error(CellError::Div0);
        for src in [
            "HLOOKUP(1/0,A1:C1,1,FALSE)",
            "HLOOKUP(1/0,A1:C1,1)",
            "MATCH(1/0,A1:C1,0)",
            "MATCH(1/0,A1:C1,1)",
            "VLOOKUP(1/0,A1:C1,1,FALSE)",
        ] {
            assert_eq!(eval_on(rows.clone(), src), div0, "{src}");
        }
    }

    #[test]
    fn index_bounds() {
        assert_eq!(eval_on(table(), "INDEX(A1:B10,3,2)"), t("s30"));
        assert_eq!(eval_on(table(), "INDEX(A1:B10,3)"), n(30.0));
        assert_eq!(eval_on(table(), "INDEX(A1:B10,11,1)"), Value::Error(CellError::Ref));
    }

    #[test]
    fn match_types() {
        assert_eq!(eval_on(table(), "MATCH(30,A1:A10,0)"), n(3.0));
        assert_eq!(eval_on(table(), "MATCH(35,A1:A10,1)"), n(3.0));
        assert_eq!(eval_on(table(), "MATCH(35,A1:A10)"), n(3.0));
        assert_eq!(eval_on(table(), "MATCH(31,A1:A10,0)"), Value::Error(CellError::Na));
        // descending data with -1
        let desc: Vec<Vec<Value>> = (0..5u32).map(|i| vec![n(f64::from(50 - i * 10))]).collect();
        assert_eq!(eval_on(desc, "MATCH(35,A1:A5,-1)"), n(2.0));
    }

    #[test]
    fn lookup_vector_form() {
        assert_eq!(eval_on(table(), "LOOKUP(45,A1:A10,B1:B10)"), t("s40"));
        assert_eq!(eval_on(table(), "LOOKUP(45,A1:A10)"), n(40.0));
    }

    #[test]
    fn xlookup_match_modes() {
        assert_eq!(eval_on(table(), "XLOOKUP(30,A1:A10,B1:B10)"), t("s30"));
        assert_eq!(
            eval_on(table(), "XLOOKUP(35,A1:A10,B1:B10)"),
            Value::Error(CellError::Na)
        );
        assert_eq!(eval_on(table(), "XLOOKUP(35,A1:A10,B1:B10,\"?\",-1)"), t("s30"));
        assert_eq!(eval_on(table(), "XLOOKUP(35,A1:A10,B1:B10,\"?\",1)"), t("s40"));
        assert_eq!(eval_on(table(), "XLOOKUP(999,A1:A10,B1:B10,\"missing\")"), t("missing"));
        assert_eq!(
            eval_on(table(), "XLOOKUP(5,A1:A10,B1:B10,\"?\",-1)"),
            t("?")
        );
    }

    #[test]
    fn xlookup_shape_mismatch() {
        assert_eq!(
            eval_on(table(), "XLOOKUP(30,A1:A10,B1:B9)"),
            Value::Error(CellError::Value)
        );
    }

    #[test]
    fn offset_reads_relative_cell() {
        assert_eq!(eval_on(table(), "OFFSET(A1,2,1)"), t("s30"));
        assert_eq!(eval_on(table(), "OFFSET(B3,0,-1)"), n(30.0));
        assert_eq!(eval_on(table(), "OFFSET(A1,-1,0)"), Value::Error(CellError::Ref));
    }

    #[test]
    fn choose_picks() {
        assert_eq!(eval_on(Vec::new(), "CHOOSE(2,\"a\",\"b\",\"c\")"), t("b"));
        assert_eq!(eval_on(Vec::new(), "CHOOSE(4,\"a\",\"b\")"), Value::Error(CellError::Value));
    }
}
