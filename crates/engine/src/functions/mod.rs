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
use crate::analyze::TySet;
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
/// implementation, the kinds of value it can return, and whether the
/// result depends on evaluation time rather than on cell state alone.
pub(crate) struct Builtin {
    pub(crate) name: &'static str,
    pub(crate) f: BuiltinFn,
    pub(crate) ret: TySet,
    pub(crate) volatile: bool,
}

const fn b(name: &'static str, f: BuiltinFn, ret: TySet) -> Builtin {
    Builtin { name, f, ret, volatile: false }
}

// Result kinds: every builtin can fail; a lookup hands back whatever it finds.
const NUM: TySet = TySet::NUM.join(TySet::ERR);
const BOOL: TySet = TySet::BOOL.join(TySet::ERR);
const TEXT: TySet = TySet::TEXT.join(TySet::ERR);
const ANY: TySet = TySet::ANY;
const ERR: TySet = TySet::ERR;

/// The one list of builtins, sorted by name; a row's position is its dense
/// `FuncId`, and [`func_id`] is the one way from a name to its row.
/// `IF`/`IFERROR` are absent: both evaluators treat them as control flow.
pub(crate) static BUILTINS: &[Builtin] = &[
    b("ABS", math::abs, NUM),
    b("AND", logical::and, BOOL),
    b("AVERAGE", stats::average, NUM),
    b("AVERAGEIF", stats::averageif, NUM),
    b("AVERAGEIFS", multi::averageifs, NUM),
    b("CHOOSE", lookup::choose, ANY),
    b("COLUMN", info::column, NUM),
    b("CONCATENATE", text::concatenate, TEXT),
    b("COUNT", stats::count, NUM),
    b("COUNTA", stats::counta, NUM),
    b("COUNTBLANK", stats::countblank, NUM),
    b("COUNTIF", stats::countif, NUM),
    b("COUNTIFS", multi::countifs, NUM),
    b("DATE", datetime::date, NUM),
    b("DAY", datetime::day, NUM),
    b("DAYS", datetime::days, NUM),
    b("EDATE", datetime::edate, NUM),
    b("EXACT", text::exact, BOOL),
    b("EXP", math::exp, NUM),
    b("FALSE", |_, _| Value::Bool(false), BOOL),
    b("FIND", text::find, NUM),
    b("HLOOKUP", lookup::hlookup, ANY),
    b("INDEX", lookup::index, ANY),
    b("INT", math::int, NUM),
    b("ISBLANK", info::isblank, BOOL),
    b("ISERROR", info::iserror, BOOL),
    b("ISLOGICAL", info::islogical, BOOL),
    b("ISNA", info::isna, BOOL),
    b("ISNUMBER", info::isnumber, BOOL),
    b("ISTEXT", info::istext, BOOL),
    b("LARGE", multi::large, NUM),
    b("LEFT", text::left, TEXT),
    b("LEN", text::len, NUM),
    b("LN", math::ln, NUM),
    b("LOG", math::log, NUM),
    b("LOG10", math::log10, NUM),
    b("LOOKUP", lookup::lookup, ANY),
    b("LOWER", text::lower, TEXT),
    b("MATCH", lookup::match_fn, NUM),
    b("MAX", stats::max, NUM),
    b("MEDIAN", stats::median, NUM),
    b("MID", text::mid, TEXT),
    b("MIN", stats::min, NUM),
    b("MOD", math::modulo, NUM),
    b("MODE", multi::mode, NUM),
    b("MONTH", datetime::month, NUM),
    b("NA", |_, _| Value::Error(CellError::Na), ERR),
    b("NOT", logical::not, BOOL),
    Builtin { volatile: true, ..b("NOW", datetime::now, NUM) },
    b("OFFSET", lookup::offset, ANY),
    b("OR", logical::or, BOOL),
    b("PI", math::pi, NUM),
    b("POWER", math::power, NUM),
    b("PRODUCT", stats::product, NUM),
    b("RANK", multi::rank, NUM),
    b("REPT", text::rept, TEXT),
    b("RIGHT", text::right, TEXT),
    b("ROUND", math::round, NUM),
    b("ROUNDDOWN", math::rounddown, NUM),
    b("ROUNDUP", math::roundup, NUM),
    b("ROW", info::row, NUM),
    b("SIGN", math::sign, NUM),
    b("SMALL", multi::small, NUM),
    b("SQRT", math::sqrt, NUM),
    b("STDEV", stats::stdev, NUM),
    b("SUBSTITUTE", text::substitute, TEXT),
    b("SUM", stats::sum, NUM),
    b("SUMIF", stats::sumif, NUM),
    b("SUMIFS", multi::sumifs, NUM),
    b("SUMPRODUCT", multi::sumproduct, NUM),
    b("TEXTJOIN", text::textjoin, TEXT),
    Builtin { volatile: true, ..b("TODAY", datetime::today, NUM) },
    b("TRIM", text::trim, TEXT),
    b("TRUE", |_, _| Value::Bool(true), BOOL),
    b("UPPER", text::upper, TEXT),
    b("VALUE", text::value, NUM),
    b("VAR", stats::var, NUM),
    b("VLOOKUP", lookup::vlookup, ANY),
    b("WEEKDAY", datetime::weekday, NUM),
    b("XLOOKUP", lookup::xlookup, ANY),
    b("XOR", logical::xor, BOOL),
    b("YEAR", datetime::year, NUM),
];

/// Dispatches `name` (uppercase) to its implementation; unknown names
/// produce `#NAME?`, as in the real systems.
pub fn call(name: &str, ctx: &EvalCtx<'_>, args: &[Arg]) -> Value {
    match func_id(name) {
        Some(id) => (id.row().f)(ctx, args),
        None => Value::Error(CellError::Name),
    }
}

/// Whether `name` is a known builtin (the control-flow forms included).
pub fn is_builtin(name: &str) -> bool {
    matches!(name, "IF" | "IFERROR") || func_id(name).is_some()
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
    fn is_builtin_matches_dispatch() {
        assert!(is_builtin("SUM"));
        assert!(is_builtin("VLOOKUP"));
        assert!(is_builtin("IF") && is_builtin("IFERROR"));
        assert!(!is_builtin("FROBNICATE"));
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
