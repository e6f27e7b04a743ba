//! The built-in function library and its dispatch table.
//!
//! Each builtin receives the evaluation context plus its already-evaluated
//! arguments ([`Arg`]); range arguments stay unevaluated ranges so that
//! aggregates can stream over them, charging the meter per cell — the
//! cell-by-cell execution model the paper attributes to all three systems.

pub mod dateparts;
pub mod datetime;
pub mod info;
pub mod logical;
pub mod lookup;
pub mod math;
pub mod multi;
pub mod stats;
pub mod text;

use crate::addr::Range;
use crate::compile::lower::func_id;
use crate::error::CellError;
use crate::eval::EvalCtx;
use crate::value::Value;

/// An evaluated function argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A scalar value.
    Value(Value),
    /// A range reference (streamed, not materialized).
    Range(Range),
}

/// The signature every builtin shares.
pub(crate) type BuiltinFn = fn(&EvalCtx<'_>, &[Arg]) -> Value;

/// One row of [`BUILTINS`]: the uppercase name (the sort key), the
/// implementation, and whether the result depends on evaluation time
/// rather than on cell state alone.
pub(crate) struct Builtin {
    pub(crate) name: &'static str,
    pub(crate) f: BuiltinFn,
    pub(crate) volatile: bool,
}

const fn b(name: &'static str, f: BuiltinFn) -> Builtin {
    Builtin { name, f, volatile: false }
}

/// The one list of builtins, sorted by name; a row's position is its dense
/// `FuncId`, and [`func_id`] is the one way from a name to its row.
/// `IF`/`IFERROR` are absent: both evaluators treat them as control flow.
pub(crate) static BUILTINS: &[Builtin] = &[
    b("ABS", math::abs),
    b("AND", logical::and),
    b("AVERAGE", stats::average),
    b("AVERAGEIF", stats::averageif),
    b("AVERAGEIFS", multi::averageifs),
    b("CHOOSE", lookup::choose),
    b("COLUMN", info::column),
    b("CONCATENATE", text::concatenate),
    b("COUNT", stats::count),
    b("COUNTA", stats::counta),
    b("COUNTBLANK", stats::countblank),
    b("COUNTIF", stats::countif),
    b("COUNTIFS", multi::countifs),
    b("DATE", datetime::date),
    b("DAY", datetime::day),
    b("DAYS", datetime::days),
    b("EDATE", datetime::edate),
    b("EXACT", text::exact),
    b("EXP", math::exp),
    b("FALSE", |_, _| Value::Bool(false)),
    b("FIND", text::find),
    b("HLOOKUP", lookup::hlookup),
    b("INDEX", lookup::index),
    b("INT", math::int),
    b("ISBLANK", info::isblank),
    b("ISERROR", info::iserror),
    b("ISLOGICAL", info::islogical),
    b("ISNA", info::isna),
    b("ISNUMBER", info::isnumber),
    b("ISTEXT", info::istext),
    b("LARGE", multi::large),
    b("LEFT", text::left),
    b("LEN", text::len),
    b("LN", math::ln),
    b("LOG", math::log),
    b("LOG10", math::log10),
    b("LOOKUP", lookup::lookup),
    b("LOWER", text::lower),
    b("MATCH", lookup::match_fn),
    b("MAX", stats::max),
    b("MEDIAN", stats::median),
    b("MID", text::mid),
    b("MIN", stats::min),
    b("MOD", math::modulo),
    b("MODE", multi::mode),
    b("MONTH", datetime::month),
    b("NA", |_, _| Value::Error(CellError::Na)),
    b("NOT", logical::not),
    Builtin { volatile: true, ..b("NOW", datetime::now) },
    b("OFFSET", lookup::offset),
    b("OR", logical::or),
    b("PI", math::pi),
    b("POWER", math::power),
    b("PRODUCT", stats::product),
    b("RANK", multi::rank),
    b("REPT", text::rept),
    b("RIGHT", text::right),
    b("ROUND", math::round),
    b("ROUNDDOWN", math::rounddown),
    b("ROUNDUP", math::roundup),
    b("ROW", info::row),
    b("SIGN", math::sign),
    b("SMALL", multi::small),
    b("SQRT", math::sqrt),
    b("STDEV", stats::stdev),
    b("SUBSTITUTE", text::substitute),
    b("SUM", stats::sum),
    b("SUMIF", stats::sumif),
    b("SUMIFS", multi::sumifs),
    b("SUMPRODUCT", multi::sumproduct),
    b("TEXTJOIN", text::textjoin),
    Builtin { volatile: true, ..b("TODAY", datetime::today) },
    b("TRIM", text::trim),
    b("TRUE", |_, _| Value::Bool(true)),
    b("UPPER", text::upper),
    b("VALUE", text::value),
    b("VAR", stats::var),
    b("VLOOKUP", lookup::vlookup),
    b("WEEKDAY", datetime::weekday),
    b("XLOOKUP", lookup::xlookup),
    b("XOR", logical::xor),
    b("YEAR", datetime::year),
];

/// Dispatches `name` (uppercase) to its implementation; unknown names
/// produce `#NAME?`, as in the real systems.
pub fn call(name: &str, ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match func_id(name) {
        Some(id) => (id.row().f)(ctx, args),
        None => Value::Error(CellError::Name),
    }
}

// ---------------------------------------------------------------------
// Argument helpers shared by the function modules.
// ---------------------------------------------------------------------

/// Resolves an argument to a scalar value. Single-cell ranges collapse to
/// the cell (implicit intersection); larger ranges are `#VALUE!`.
pub(crate) fn scalar(ctx: &EvalCtx<'_>, arg: &Arg) -> Value {
    match arg {
        Arg::Value(v) => v.clone(),
        Arg::Range(r) => {
            if r.len() == 1 {
                ctx.read(r.start)
            } else {
                Value::Error(CellError::Value)
            }
        }
    }
}

/// Resolves an argument to a number (spreadsheet coercions).
pub(crate) fn num(ctx: &EvalCtx<'_>, arg: &Arg) -> Result<f64, CellError> {
    scalar(ctx, arg).coerce_number()
}

/// Resolves an argument to text.
pub(crate) fn text_of(ctx: &EvalCtx<'_>, arg: &Arg) -> Result<String, CellError> {
    scalar(ctx, arg).coerce_text()
}

/// Resolves an optional argument: `args.get(i)` or the provided default.
pub(crate) fn opt_num(
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    i: usize,
    default: f64,
) -> Result<f64, CellError> {
    match args.get(i) {
        Some(a) => num(ctx, a),
        None => Ok(default),
    }
}

/// Streams every value in an argument: ranges visit each cell (charging
/// the meter), scalars visit once.
pub(crate) fn for_each_value(
    ctx: &EvalCtx<'_>,
    arg: &Arg,
    f: &mut dyn FnMut(&Value),
) {
    match arg {
        Arg::Value(v) => f(v),
        Arg::Range(r) => ctx.read_range(*r, &mut |_, v| f(v)),
    }
}

/// Streams the *numeric* interpretation of every value across `args`,
/// following the asymmetric aggregate semantics of real spreadsheets:
/// in ranges, only number cells count (text/bool/empty are skipped);
/// scalar literal arguments are coerced (so `SUM("4",TRUE)` is 5).
/// The first error encountered aborts with that error.
pub(crate) fn fold_numbers(
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    mut f: impl FnMut(f64),
) -> Result<(), CellError> {
    let mut first_err: Option<CellError> = None;
    for arg in args {
        if first_err.is_some() {
            break;
        }
        match arg {
            Arg::Value(v) => match v.coerce_number() {
                Ok(n) => f(n),
                Err(e) => first_err = Some(e),
            },
            Arg::Range(r) => {
                ctx.read_range(*r, &mut |_, v| {
                    if first_err.is_some() {
                        return;
                    }
                    match v {
                        Value::Number(n) => f(*n),
                        Value::Error(e) => first_err = Some(*e),
                        _ => {}
                    }
                });
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Arity guard: returns `#VALUE!` unless `lo <= args.len() <= hi`.
pub(crate) fn check_arity(args: &[Arg], lo: usize, hi: usize) -> Result<(), CellError> {
    if args.len() < lo || args.len() > hi {
        Err(CellError::Value)
    } else {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::addr::CellAddr;
    use crate::eval::ValueMatrix;
    use crate::formula::parse;
    use crate::meter::Meter;

    /// Evaluates a formula against a fixture matrix built from rows.
    pub(crate) fn eval_on(rows: Vec<Vec<Value>>, src: &str) -> Value {
        let m = ValueMatrix::new(rows);
        let meter = Meter::new();
        let ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 25));
        crate::eval::evaluate(&parse(src).unwrap(), &ctx)
    }

    /// Evaluates a formula against an empty sheet.
    pub(crate) fn eval_empty(src: &str) -> Value {
        eval_on(Vec::new(), src)
    }

    /// Number helper.
    pub(crate) fn n(x: f64) -> Value {
        Value::Number(x)
    }

    /// Text helper.
    pub(crate) fn t(s: &str) -> Value {
        Value::text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn unknown_function_is_name_error() {
        assert_eq!(eval_empty("FROBNICATE(1)"), Value::Error(CellError::Name));
    }

    #[test]
    fn fold_numbers_skips_text_in_ranges_but_coerces_literals() {
        // Range contains text; only the number counts.
        let rows = vec![vec![n(1.0)], vec![t("x")], vec![n(2.0)]];
        assert_eq!(eval_on(rows, "SUM(A1:A3)"), n(3.0));
        // Literal text coerces.
        assert_eq!(eval_empty("SUM(\"4\",1)"), n(5.0));
        assert_eq!(eval_empty("SUM(\"four\")"), Value::Error(CellError::Value));
    }

    #[test]
    fn range_errors_propagate_out_of_aggregates() {
        let rows = vec![vec![n(1.0)], vec![Value::Error(CellError::Div0)]];
        assert_eq!(eval_on(rows, "SUM(A1:A2)"), Value::Error(CellError::Div0));
    }
}
