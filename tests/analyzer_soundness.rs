//! Soundness properties of the static analyzer (DESIGN.md §11).
//!
//! The abstract interpreter claims two over-approximations per template:
//! the value kinds evaluation can produce (`Analysis::ty`) and the cells
//! it can read (`Analysis::reads`). Both are checked here dynamically, on
//! random expression trees, by evaluating through
//! a [`RecordingSource`] that logs every cell actually read. The dep-graph
//! coverage proof (`analyze::check_sheet`) is then run over whole random
//! sheets built from the same trees.

use proptest::prelude::*;

use ssbench::engine::analyze::RecordingSource;
use ssbench::engine::eval::evaluate;
use ssbench::engine::formula::{BinOp, Expr, RangeRef, UnaryOp};
use ssbench::engine::prelude::*;

// ---------------------------------------------------------------------
// Expression generation
// ---------------------------------------------------------------------

fn arb_cellref() -> impl Strategy<Value = CellRef> {
    (0u32..200, 0u32..26, any::<bool>(), any::<bool>()).prop_map(|(row, col, ar, ac)| CellRef {
        addr: CellAddr::new(row, col),
        abs_row: ar,
        abs_col: ac,
    })
}

fn arb_rangeref() -> impl Strategy<Value = RangeRef> {
    (arb_cellref(), arb_cellref()).prop_map(|(a, b)| {
        let (start, end) = if (a.addr.row, a.addr.col) <= (b.addr.row, b.addr.col) {
            (a, b)
        } else {
            (b, a)
        };
        RangeRef { start, end }
    })
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    use ssbench::engine::error::CellError;
    prop_oneof![
        (-1.0e6f64..1.0e6).prop_map(Expr::Number),
        "[a-z0-9 ]{0,8}".prop_map(|s| Expr::Text(s.into())),
        any::<bool>().prop_map(Expr::Bool),
        prop_oneof![Just(CellError::Div0), Just(CellError::Value), Just(CellError::Na)]
            .prop_map(Expr::Error),
        arb_cellref().prop_map(Expr::Ref),
        arb_rangeref().prop_map(Expr::RangeRef),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Pow),
        Just(BinOp::Concat),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// Random expressions biased toward the constructs the analyzer models
/// specially: branches (whose type is the join of the arms), volatile NOW,
/// the dynamic-read builtins (OFFSET, 3-argument SUMIF) that force an
/// unbounded read-set, aggregates over ranges, and unknown names.
fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop())
                .prop_map(|(a, b, op)| Expr::Binary(op, Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::Unary(UnaryOp::Neg, Box::new(e))),
            inner.clone().prop_map(|e| Expr::Unary(UnaryOp::Percent, Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::Call("IF".into(), vec![c, t, e])),
            (inner.clone(), inner.clone())
                .prop_map(|(c, t)| Expr::Call("IF".into(), vec![c, t])),
            (inner.clone(), inner.clone())
                .prop_map(|(v, f)| Expr::Call("IFERROR".into(), vec![v, f])),
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|args| Expr::Call("AND".into(), args)),
            prop::collection::vec(inner.clone(), 1..4)
                .prop_map(|args| Expr::Call("SUM".into(), args)),
            (arb_rangeref(), inner.clone())
                .prop_map(|(r, c)| Expr::Call("COUNTIF".into(), vec![Expr::RangeRef(r), c])),
            (arb_rangeref(), inner.clone(), arb_rangeref()).prop_map(|(r, c, s)| Expr::Call(
                "SUMIF".into(),
                vec![Expr::RangeRef(r), c, Expr::RangeRef(s)]
            )),
            (arb_cellref(), inner.clone(), inner.clone()).prop_map(|(base, r, c)| Expr::Call(
                "OFFSET".into(),
                vec![Expr::Ref(base), r, c]
            )),
            Just(Expr::Call("NOW".into(), vec![])),
            inner.prop_map(|e| Expr::Call("NOSUCHFN".into(), vec![e])),
        ]
    })
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
            _ => s
                .set_formula_str(CellAddr::new(r, c), &format!("=1/{}", v.rem_euclid(3)))
                .unwrap(),
        }
    }
    recalc::recalc_all(&mut s);
    s
}

proptest! {
    /// Dynamic reads are a subset of the static read-set, and the value
    /// produced is admitted by the inferred type set. The generated
    /// formulas are anchored at column AE, outside the generator's
    /// 26-column reference window, so every window resolves at the origin.
    #[test]
    fn recorded_reads_subset_of_static_read_set(
        exprs in prop::collection::vec(arb_expr(), 1..5),
        values in prop::collection::vec(-50i64..50, 24),
    ) {
        let sheet = fixture(&values);
        for (i, expr) in exprs.iter().enumerate() {
            let origin = CellAddr::new(i as u32, 30);
            let an = analyze::analyze(expr, origin);
            let rec = RecordingSource::new(&sheet);
            let meter = Meter::new();
            let got = evaluate(expr, &EvalCtx::new(&rec, &meter, origin));
            prop_assert!(
                an.ty.admits(&got),
                "value {got:?} outside inferred type {}",
                an.ty
            );
            if let Some(c) = &an.const_value {
                prop_assert_eq!(c, &got, "constant folding must match evaluation");
            }
            let ReadSet::Windows(ws) = &an.reads else {
                continue; // unbounded: every read is trivially covered
            };
            let resolved: Vec<Range> = ws
                .iter()
                .filter_map(|w| {
                    Some(Range::new(w.start.resolve(origin)?, w.end.resolve(origin)?))
                })
                .collect();
            for read in rec.reads() {
                prop_assert!(
                    resolved.iter().any(|r| r.contains(read)),
                    "read {} outside static windows {resolved:?}",
                    read.to_a1()
                );
            }
        }
    }

    /// The parser reads back what the printer wrote — `print(parse(s))`
    /// is `s` for every printed tree `s`, `print` being code the borrowing
    /// lexer did not touch — and a document opened in bulk holds, for each
    /// `=s`, the expression a plain parse of `s` builds: for the text the
    /// template table parses, and for the fill-down copy below it that the
    /// table instantiates instead.
    #[test]
    fn printed_trees_parse_back_unchanged_alone_and_in_a_document(
        exprs in prop::collection::vec(arb_expr(), 1..5),
    ) {
        use ssbench::engine::formula::{parse, print};
        use ssbench::engine::io::{self, SheetData};
        let mut texts = Vec::new();
        for (i, expr) in exprs.iter().enumerate() {
            let (here, below) = (CellAddr::new(2 * i as u32, 0), CellAddr::new(2 * i as u32 + 1, 0));
            for text in [print(expr), print(&expr.adjusted(here, below))] {
                let parsed = parse(&text).unwrap_or_else(|e| panic!("reparse {text:?}: {e}"));
                prop_assert_eq!(print(&parsed), text.clone());
                texts.push((text, parsed));
            }
        }
        let doc = SheetData { rows: texts.iter().map(|(text, _)| vec![format!("={text}")]).collect() };
        let sheet = io::open(&doc, Layout::RowMajor).unwrap();
        for (r, (text, parsed)) in texts.iter().enumerate() {
            let got = sheet.formula_expr(CellAddr::new(r as u32, 0));
            prop_assert_eq!(got, Some(parsed), "row {} holds {:?}", r + 1, text);
        }
        if let Err(e) = analyze::check_sheet(&sheet) {
            prop_assert!(false, "{e}");
        }
    }

    /// Whole-sheet soundness: with the random trees installed as real
    /// formulas, `check_sheet` proves bytecode verification, fact
    /// agreement, and dep-graph read-set coverage for every template.
    #[test]
    fn check_sheet_proves_random_sheets(
        exprs in prop::collection::vec(arb_expr(), 1..5),
        values in prop::collection::vec(-50i64..50, 24),
    ) {
        let mut sheet = fixture(&values);
        // Column AE is outside the reference window, so the DAG stays
        // acyclic regardless of what the trees reference.
        for (i, expr) in exprs.iter().enumerate() {
            sheet.set_formula(CellAddr::new(i as u32, 30), expr.clone());
        }
        recalc::recalc_all(&mut sheet);
        if let Err(e) = analyze::check_sheet(&sheet) {
            prop_assert!(false, "{e}");
        }
    }
}
