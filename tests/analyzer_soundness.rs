//! Soundness properties of the static analyzer (DESIGN.md §11).
//!
//! The read-set walk claims one over-approximation per template: the cells
//! it can read (`Analysis::reads`). It is checked here dynamically, on
//! random expression trees, by evaluating through
//! a [`RecordingSource`] that logs every cell actually read. The dep-graph
//! coverage proof (`analyze::check_sheet`) is then run over whole random
//! sheets built from the same trees.

mod common;

use rand::rngs::SmallRng;
use rand::Rng;

use common::{arb_binop, arb_cellref, arb_rangeref, cases, text};
use ssbench::engine::analyze::RecordingSource;
use ssbench::engine::eval::evaluate;
use ssbench::engine::formula::{Expr, UnaryOp};
use ssbench::engine::prelude::*;

// ---------------------------------------------------------------------
// Expression generation
// ---------------------------------------------------------------------

fn arb_leaf(rng: &mut SmallRng) -> Expr {
    use ssbench::engine::error::CellError;
    const ERRORS: [CellError; 3] = [CellError::Div0, CellError::Value, CellError::Na];
    match rng.random_range(0..6) {
        0 => Expr::Number(rng.random_range(-1.0e6..1.0e6)),
        1 => Expr::Text(text(rng, "abcdefghijklmnopqrstuvwxyz0123456789 ", 0..=8).into()),
        2 => Expr::Bool(rng.random()),
        3 => Expr::Error(ERRORS[rng.random_range(0..ERRORS.len())]),
        4 => Expr::Ref(arb_cellref(rng)),
        _ => Expr::RangeRef(arb_rangeref(rng)),
    }
}

/// Random expressions biased toward the constructs the analyzer models
/// specially: branches, volatile NOW,
/// the dynamic-read builtins (OFFSET, 3-argument SUMIF) that force an
/// unbounded read-set, aggregates over ranges, and unknown names.
fn arb_expr(rng: &mut SmallRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return arb_leaf(rng);
    }
    let sub = |rng: &mut SmallRng| arb_expr(rng, depth - 1);
    let args = |rng: &mut SmallRng, lens: std::ops::Range<usize>| -> Vec<Expr> {
        (0..rng.random_range(lens)).map(|_| sub(rng)).collect()
    };
    let call = |name: &str, args: Vec<Expr>| Expr::Call(name.into(), args);
    let range = |rng: &mut SmallRng| Expr::RangeRef(arb_rangeref(rng));
    match rng.random_range(0..13) {
        0 => Expr::Binary(arb_binop(rng), Box::new(sub(rng)), Box::new(sub(rng))),
        1 => Expr::Unary(UnaryOp::Neg, Box::new(sub(rng))),
        2 => Expr::Unary(UnaryOp::Percent, Box::new(sub(rng))),
        3 => call("IF", args(rng, 3..4)),
        4 => call("IF", args(rng, 2..3)),
        5 => call("IFERROR", args(rng, 2..3)),
        6 => call("AND", args(rng, 0..4)),
        7 => call("SUM", args(rng, 1..4)),
        8 => call("COUNTIF", vec![range(rng), sub(rng)]),
        9 => call("SUMIF", vec![range(rng), sub(rng), range(rng)]),
        10 => call("OFFSET", vec![Expr::Ref(arb_cellref(rng)), sub(rng), sub(rng)]),
        11 => call("NOW", vec![]),
        _ => call("NOSUCHFN", args(rng, 1..2)),
    }
}

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

/// A mixed data fixture in the top-left corner: numbers, text, booleans,
/// and formula cells (one of which evaluates to `#DIV/0!`). References
/// outside it hit empty cells.
fn fixture(values: &[i64]) -> Sheet {
    let mut s = Sheet::new();
    for (i, &v) in values.iter().enumerate() {
        let (r, c) = (i as u32 / 4, (i % 4) as u32);
        match i % 6 {
            0..=2 => s.set_value(CellAddr::new(r, c), v),
            3 => s.set_value(CellAddr::new(r, c), format!("t{v}")),
            4 => s.set_value(CellAddr::new(r, c), v % 2 == 0),
            _ => {
                s.set_formula_str(CellAddr::new(r, c), &format!("=1/{}", v.rem_euclid(3))).unwrap()
            }
        }
    }
    recalc::recalc_all(&mut s);
    s
}

/// One to four random formulas.
fn arb_exprs(rng: &mut SmallRng) -> Vec<Expr> {
    (0..rng.random_range(1..5)).map(|_| arb_expr(rng, 4)).collect()
}

/// The 24 values of the fixture.
fn arb_values(rng: &mut SmallRng) -> Vec<i64> {
    (0..24).map(|_| rng.random_range(-50..50)).collect()
}

/// Dynamic reads are a subset of the static read-set. The generated formulas
/// are anchored at column AE, outside the generator's 26-column reference
/// window, so every window resolves at the origin.
#[test]
fn recorded_reads_subset_of_static_read_set() {
    cases(|rng| {
        let (exprs, sheet) = (arb_exprs(rng), fixture(&arb_values(rng)));
        for (i, expr) in exprs.iter().enumerate() {
            let origin = CellAddr::new(i as u32, 30);
            let an = analyze::analyze(expr, origin);
            let rec = RecordingSource::new(&sheet);
            let meter = Meter::new();
            evaluate(expr, &EvalCtx::new(&rec, &meter, origin));
            let ReadSet::Windows(ws) = &an.reads else {
                continue; // unbounded: every read is trivially covered
            };
            let resolved: Vec<Range> = ws
                .iter()
                .filter_map(|w| Some(Range::new(w.start.resolve(origin)?, w.end.resolve(origin)?)))
                .collect();
            for read in rec.reads() {
                assert!(
                    resolved.iter().any(|r| r.contains(read)),
                    "read {} outside static windows {resolved:?}",
                    read.to_a1()
                );
            }
        }
    });
}

/// The parser reads back what the printer wrote — `print(parse(s))` is
/// `s` for every printed tree `s`, `print` being code the borrowing lexer
/// did not touch — and a document opened in bulk holds, for each `=s`, the
/// expression a plain parse of `s` builds: for the text the template table
/// parses, and for the fill-down copy below it that the table instantiates
/// instead.
#[test]
fn printed_trees_parse_back_unchanged_alone_and_in_a_document() {
    use ssbench::engine::io::{self, SheetData};
    cases(|rng| {
        let exprs = arb_exprs(rng);
        let mut texts = Vec::new();
        for (i, expr) in exprs.iter().enumerate() {
            let (here, below) =
                (CellAddr::new(2 * i as u32, 0), CellAddr::new(2 * i as u32 + 1, 0));
            for text in [print(expr), print(&expr.adjusted(here, below))] {
                let parsed = parse(&text).unwrap_or_else(|e| panic!("reparse {text:?}: {e}"));
                assert_eq!(print(&parsed), text.clone());
                texts.push((text, parsed));
            }
        }
        let doc =
            SheetData { rows: texts.iter().map(|(text, _)| vec![format!("={text}")]).collect() };
        let sheet = io::open(&doc, Layout::RowMajor).unwrap();
        for (r, (text, parsed)) in texts.iter().enumerate() {
            let got = sheet.formula_expr(CellAddr::new(r as u32, 0));
            assert_eq!(got, Some(parsed), "row {} holds {:?}", r + 1, text);
        }
        if let Err(e) = analyze::check_sheet(&sheet) {
            panic!("{e}");
        }
    });
}

/// Whole-sheet soundness: with the random trees installed as real formulas,
/// `check_sheet` proves bytecode verification, fact agreement, and dep-graph
/// read-set coverage for every template.
#[test]
fn check_sheet_proves_random_sheets() {
    cases(|rng| {
        let (exprs, mut sheet) = (arb_exprs(rng), fixture(&arb_values(rng)));
        // Column AE is outside the reference window, so the DAG stays
        // acyclic regardless of what the trees reference.
        for (i, expr) in exprs.iter().enumerate() {
            sheet.set_formula(CellAddr::new(i as u32, 30), expr.clone()).unwrap();
        }
        recalc::recalc_all(&mut sheet);
        if let Err(e) = analyze::check_sheet(&sheet) {
            panic!("{e}");
        }
    });
}
