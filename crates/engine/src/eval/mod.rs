//! The formula evaluator: a straightforward tree-walking interpreter that
//! resolves every reference cell-by-cell, exactly the execution model the
//! paper infers for the benchmarked systems ("all spreadsheet systems end
//! up leaving formulae uninterpreted, individually looking up the arguments
//! cell-by-cell", §5.6).

pub mod context;

pub use context::{CellSource, EvalCtx, LookupStrategy, ValueMatrix};

use crate::error::CellError;
use crate::formula::ast::{BinOp, Expr, UnaryOp};
use crate::functions::{self, Arg};
use crate::value::Value;

/// Evaluates `expr` in `ctx`, producing a value. Errors propagate as error
/// values (never as Rust errors): a `#DIV/0!` in a subexpression becomes
/// the result, as in real spreadsheets.
pub fn evaluate(expr: &Expr, ctx: &EvalCtx<'_>) -> Value {
    match expr {
        Expr::Number(n) => Value::Number(*n),
        Expr::Text(s) => Value::Text(s.clone()),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Error(e) => Value::Error(*e),
        Expr::Ref(r) => ctx.read(r.addr),
        // A bare range in scalar position: single-cell ranges collapse to
        // the cell (implicit intersection); larger ranges are a #VALUE!
        // error in this dialect.
        Expr::RangeRef(r) => {
            let range = r.range();
            if range.len() == 1 {
                ctx.read(range.start)
            } else {
                Value::Error(CellError::Value)
            }
        }
        Expr::Unary(op, inner) => eval_unary(*op, inner, ctx),
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, ctx),
        Expr::Call(name, args) => eval_call(name, args, ctx),
    }
}

fn eval_unary(op: UnaryOp, inner: &Expr, ctx: &EvalCtx<'_>) -> Value {
    apply_unary(op, evaluate(inner, ctx))
}

/// Applies a unary operator to an already-evaluated operand. Shared by the
/// tree-walking interpreter and the compiled VM so both backends get the
/// exact same coercion/error semantics.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::Pos => v,
        UnaryOp::Neg => match v.coerce_number() {
            Ok(n) => Value::Number(-n),
            Err(e) => Value::Error(e),
        },
        UnaryOp::Percent => match v.coerce_number() {
            Ok(n) => Value::Number(n / 100.0),
            Err(e) => Value::Error(e),
        },
    }
}

fn eval_binary(op: BinOp, a: &Expr, b: &Expr, ctx: &EvalCtx<'_>) -> Value {
    let va = evaluate(a, ctx);
    let vb = evaluate(b, ctx);
    apply_binary(op, va, vb)
}

/// Applies a binary operator to already-evaluated operands (both backends;
/// see [`apply_unary`]).
pub(crate) fn apply_binary(op: BinOp, va: Value, vb: Value) -> Value {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => {
            let (x, y) = match (va.coerce_number(), vb.coerce_number()) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(e), _) | (_, Err(e)) => return Value::Error(e),
            };
            match op {
                BinOp::Add => Value::num(x + y),
                BinOp::Sub => Value::num(x - y),
                BinOp::Mul => Value::num(x * y),
                BinOp::Div if y == 0.0 => Value::Error(CellError::Div0),
                BinOp::Div => Value::num(x / y),
                BinOp::Pow => Value::num(x.powf(y)),
                _ => unreachable!(),
            }
        }
        BinOp::Concat => match (va.coerce_text(), vb.coerce_text()) {
            (Ok(x), Ok(y)) => Value::text(x + &y),
            (Err(e), _) | (_, Err(e)) => Value::Error(e),
        },
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if let Value::Error(e) = va {
                return Value::Error(e);
            }
            if let Value::Error(e) = vb {
                return Value::Error(e);
            }
            let result = match op {
                BinOp::Eq => va.sheet_eq(&vb),
                BinOp::Ne => !va.sheet_eq(&vb),
                _ => {
                    let ord = va.sheet_cmp(&vb);
                    match op {
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    }
                }
            };
            Value::Bool(result)
        }
    }
}

fn eval_call(name: &str, args: &[Expr], ctx: &EvalCtx<'_>) -> Value {
    // Short-circuiting forms evaluate their own arguments lazily.
    if name == "IF" {
        return functions::logical::eval_if(args, ctx);
    }
    if name == "IFERROR" {
        return functions::logical::eval_iferror(args, ctx);
    }
    let mut evaluated: Vec<Arg> = Vec::with_capacity(args.len());
    for a in args {
        match a {
            Expr::RangeRef(r) => evaluated.push(Arg::Range(r.range())),
            // A bare cell reference is passed as a one-cell range so that
            // functions keep reference semantics: aggregates apply range
            // rules, `ROW(C7)`-style functions can see the reference
            // itself, and reads are charged where they happen.
            Expr::Ref(r) => evaluated.push(Arg::Range(crate::addr::Range::cell(r.addr))),
            other => evaluated.push(Arg::Value(evaluate(other, ctx))),
        }
    }
    functions::call(name, ctx, &evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
    use crate::formula::parse;
    use crate::meter::Meter;

    fn fixture() -> ValueMatrix {
        // A: 1..5, B: 10,20,30,40,50, C: text
        let mut m = ValueMatrix::default();
        for r in 0..5u32 {
            m.set(CellAddr::new(r, 0), Value::Number(f64::from(r + 1)));
            m.set(CellAddr::new(r, 1), Value::Number(f64::from((r + 1) * 10)));
            m.set(CellAddr::new(r, 2), Value::text(format!("t{}", r + 1)));
        }
        m
    }

    fn eval_str(src: &str) -> Value {
        let m = fixture();
        let meter = Meter::new();
        let ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 5));
        evaluate(&parse(src).unwrap(), &ctx)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1+2*3"), Value::Number(7.0));
        assert_eq!(eval_str("(1+2)*3"), Value::Number(9.0));
        assert_eq!(eval_str("2^10"), Value::Number(1024.0));
        assert_eq!(eval_str("7/2"), Value::Number(3.5));
        assert_eq!(eval_str("-A1"), Value::Number(-1.0));
        assert_eq!(eval_str("50%"), Value::Number(0.5));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(eval_str("1/0"), Value::Error(CellError::Div0));
        // Error propagates through arithmetic.
        assert_eq!(eval_str("1+(1/0)"), Value::Error(CellError::Div0));
    }

    #[test]
    fn pow_domain_error() {
        assert_eq!(eval_str("(-1)^0.5"), Value::Error(CellError::Num));
    }

    #[test]
    fn references_read_cells() {
        assert_eq!(eval_str("A1+B2"), Value::Number(21.0));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("A1<A2"), Value::Bool(true));
        assert_eq!(eval_str("A1>=1"), Value::Bool(true));
        assert_eq!(eval_str("C1=\"T1\""), Value::Bool(true)); // case-insensitive
        assert_eq!(eval_str("1=\"1\""), Value::Bool(false)); // no cross-type eq
        assert_eq!(eval_str("2<>2"), Value::Bool(false));
        // numbers < text in the type order
        assert_eq!(eval_str("99<\"a\""), Value::Bool(true));
    }

    #[test]
    fn concat_coerces() {
        assert_eq!(eval_str("A1&\" storm\""), Value::text("1 storm"));
        assert_eq!(eval_str("TRUE&1"), Value::text("TRUE1"));
    }

    #[test]
    fn text_arithmetic_coercion() {
        assert_eq!(eval_str("\"4\"+1"), Value::Number(5.0));
        assert_eq!(eval_str("C1+1"), Value::Error(CellError::Value));
    }

    #[test]
    fn bare_range_single_cell_collapses() {
        assert_eq!(eval_str("A1:A1+1"), Value::Number(2.0));
        assert_eq!(eval_str("A1:A3+1"), Value::Error(CellError::Value));
    }

    #[test]
    fn call_dispatch_reaches_functions() {
        assert_eq!(eval_str("SUM(A1:A5)"), Value::Number(15.0));
        assert_eq!(eval_str("ABS(-3)"), Value::Number(3.0));
    }

    #[test]
    fn meter_counts_reads() {
        let m = fixture();
        let meter = Meter::new();
        let ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 5));
        let _ = evaluate(&parse("SUM(A1:A5)+B1").unwrap(), &ctx);
        // 5 range reads + 1 cell read
        assert_eq!(meter.snapshot().get(crate::meter::Primitive::CellRead), 6);
    }

    #[test]
    fn out_of_bounds_reads_are_empty() {
        assert_eq!(eval_str("Z99"), Value::Empty);
        assert_eq!(eval_str("Z99+1"), Value::Number(1.0));
    }
}
