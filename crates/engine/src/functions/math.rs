//! Scalar math builtins.

use crate::error::CellError;
use crate::eval::EvalCtx;
use crate::value::Value;

use super::{check_arity, num, opt_num, Arg};

/// Wraps a fallible numeric computation into a `Value`.
fn num_result(r: Result<f64, CellError>) -> Value {
    r.map_or_else(Value::Error, Value::num)
}

/// `ABS(x)`.
pub fn abs(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    num_result(check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])).map(f64::abs))
}

/// `SIGN(x)` — -1, 0, or 1.
pub fn sign(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    num_result(
        check_arity(args, 1, 1)
            .and_then(|_| num(ctx, &args[0]))
            .map(|n| if n > 0.0 { 1.0 } else if n < 0.0 { -1.0 } else { 0.0 }),
    )
}

/// `INT(x)` — floor (toward negative infinity, as in the real systems).
pub fn int(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    num_result(check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])).map(f64::floor))
}

/// Common body for the ROUND family; `mode` ∈ {nearest, up, down}.
fn round_with(ctx: &EvalCtx<'_>, args: &[Arg], mode: fn(f64) -> f64) -> Value {
    num_result(check_arity(args, 1, 2).and_then(|_| {
        let x = num(ctx, &args[0])?;
        let digits = opt_num(ctx, args, 1, 0.0)?;
        let factor = 10f64.powi(digits as i32);
        Ok(mode(x * factor) / factor)
    }))
}

/// `ROUND(x, digits)` — half away from zero, as in spreadsheets.
pub fn round(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    round_with(ctx, args, |v| {
        // f64::round is half-away-from-zero, matching spreadsheet ROUND.
        v.round()
    })
}

/// `ROUNDUP(x, digits)` — away from zero.
pub fn roundup(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    round_with(ctx, args, |v| if v >= 0.0 { v.ceil() } else { v.floor() })
}

/// `ROUNDDOWN(x, digits)` — toward zero.
pub fn rounddown(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    round_with(ctx, args, f64::trunc)
}

/// `MOD(x, y)` — sign follows the divisor (spreadsheet convention,
/// unlike Rust's `%`).
pub fn modulo(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 2, 2)
        .and_then(|_| Ok((num(ctx, &args[0])?, num(ctx, &args[1])?)))
    {
        Ok((_, 0.0)) => Value::Error(CellError::Div0),
        Ok((x, y)) => Value::Number(x - y * (x / y).floor()),
        Err(e) => Value::Error(e),
    }
}

/// `POWER(x, y)`.
pub fn power(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    num_result(
        check_arity(args, 2, 2)
            .and_then(|_| Ok(num(ctx, &args[0])?.powf(num(ctx, &args[1])?))),
    )
}

/// `SQRT(x)` — negative input is `#NUM!`.
pub fn sqrt(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])) {
        Ok(n) if n < 0.0 => Value::Error(CellError::Num),
        Ok(n) => Value::Number(n.sqrt()),
        Err(e) => Value::Error(e),
    }
}

/// `EXP(x)`.
pub fn exp(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    num_result(check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])).map(f64::exp))
}

/// `LN(x)` — non-positive input is `#NUM!`.
pub fn ln(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])) {
        Ok(n) if n <= 0.0 => Value::Error(CellError::Num),
        Ok(n) => Value::Number(n.ln()),
        Err(e) => Value::Error(e),
    }
}

/// `LOG(x, [base=10])`.
pub fn log(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 1, 2).and_then(|_| {
        let x = num(ctx, &args[0])?;
        let base = opt_num(ctx, args, 1, 10.0)?;
        Ok((x, base))
    }) {
        Ok((x, base)) if x <= 0.0 || base <= 0.0 || base == 1.0 => Value::Error(CellError::Num),
        Ok((x, base)) => Value::Number(x.log(base)),
        Err(e) => Value::Error(e),
    }
}

/// `LOG10(x)`.
pub fn log10(ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 1, 1).and_then(|_| num(ctx, &args[0])) {
        Ok(n) if n <= 0.0 => Value::Error(CellError::Num),
        Ok(n) => Value::Number(n.log10()),
        Err(e) => Value::Error(e),
    }
}

/// `PI()`.
pub fn pi(_ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match check_arity(args, 0, 0) {
        Ok(()) => Value::Number(std::f64::consts::PI),
        Err(e) => Value::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use crate::error::CellError;
    use crate::functions::testutil::{eval_empty, n};
    use crate::value::Value;

    #[test]
    fn abs_sign_int() {
        assert_eq!(eval_empty("ABS(-3.5)"), n(3.5));
        assert_eq!(eval_empty("SIGN(-9)"), n(-1.0));
        assert_eq!(eval_empty("SIGN(0)"), n(0.0));
        assert_eq!(eval_empty("INT(-1.5)"), n(-2.0));
        assert_eq!(eval_empty("INT(1.9)"), n(1.0));
    }

    #[test]
    fn round_family() {
        assert_eq!(eval_empty("ROUND(2.5,0)"), n(3.0));
        assert_eq!(eval_empty("ROUND(-2.5,0)"), n(-3.0));
        #[allow(clippy::approx_constant)]
        let rounded = n(3.14);
        assert_eq!(eval_empty("ROUND(3.14159,2)"), rounded);
        assert_eq!(eval_empty("ROUNDUP(1.01,0)"), n(2.0));
        assert_eq!(eval_empty("ROUNDUP(-1.01,0)"), n(-2.0));
        assert_eq!(eval_empty("ROUNDDOWN(1.99,0)"), n(1.0));
        assert_eq!(eval_empty("ROUND(1234.5678,-2)"), n(1200.0));
    }

    #[test]
    fn mod_follows_divisor_sign() {
        assert_eq!(eval_empty("MOD(7,3)"), n(1.0));
        assert_eq!(eval_empty("MOD(-7,3)"), n(2.0));
        assert_eq!(eval_empty("MOD(7,-3)"), n(-2.0));
        assert_eq!(eval_empty("MOD(7,0)"), Value::Error(CellError::Div0));
    }

    #[test]
    fn power_sqrt_domain() {
        assert_eq!(eval_empty("POWER(2,8)"), n(256.0));
        assert_eq!(eval_empty("SQRT(16)"), n(4.0));
        assert_eq!(eval_empty("SQRT(-1)"), Value::Error(CellError::Num));
    }

    #[test]
    fn logarithms() {
        assert_eq!(eval_empty("LOG10(1000)"), n(3.0));
        assert_eq!(eval_empty("LOG(8,2)"), n(3.0));
        assert_eq!(eval_empty("LOG(100)"), n(2.0));
        assert_eq!(eval_empty("LN(0)"), Value::Error(CellError::Num));
        assert_eq!(eval_empty("LOG(8,1)"), Value::Error(CellError::Num));
    }

    #[test]
    fn exp_and_pi() {
        assert_eq!(eval_empty("EXP(0)"), n(1.0));
        let v = eval_empty("PI()").as_number().unwrap();
        assert!((v - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn arity_errors() {
        assert_eq!(eval_empty("ABS()"), Value::Error(CellError::Value));
        assert_eq!(eval_empty("ABS(1,2)"), Value::Error(CellError::Value));
        assert_eq!(eval_empty("PI(1)"), Value::Error(CellError::Value));
    }
}
