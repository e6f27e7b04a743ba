//! Property-based tests over the engine's core invariants: seeded
//! `SmallRng` loops through the case runner in `common`.

mod common;

use rand::rngs::SmallRng;
use rand::Rng;

use common::{arb_binop, arb_cellref, arb_rangeref, cases, text};
use ssbench::engine::formula::{Expr, UnaryOp};
use ssbench::engine::prelude::*;

// ---------------------------------------------------------------------
// Expression generation
// ---------------------------------------------------------------------

fn arb_leaf(rng: &mut SmallRng) -> Expr {
    match rng.random_range(0..5) {
        // Finite, positive numbers: negative literals print as unary minus,
        // which still round-trips but changes the tree shape.
        0 => Expr::Number(rng.random_range(0.0..1e9)),
        1 => {
            let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _:;.!?-";
            Expr::Text(text(rng, alphabet, 0..=12).into())
        }
        2 => Expr::Bool(rng.random()),
        3 => Expr::Ref(arb_cellref(rng)),
        _ => Expr::RangeRef(arb_rangeref(rng)),
    }
}

/// An expression at most `depth` operators deep; at each level a leaf
/// one time in three.
fn arb_expr(rng: &mut SmallRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return arb_leaf(rng);
    }
    let sub = |rng: &mut SmallRng| Box::new(arb_expr(rng, depth - 1));
    match rng.random_range(0..4) {
        0 => Expr::Binary(arb_binop(rng), sub(rng), sub(rng)),
        1 => Expr::Unary(UnaryOp::Neg, sub(rng)),
        2 => Expr::Unary(UnaryOp::Percent, sub(rng)),
        _ => Expr::Call("SUM".into(), (0..rng.random_range(0..4)).map(|_| *sub(rng)).collect()),
    }
}

/// print ∘ parse is the identity on printed forms (canonical round-trip):
/// parse(print(e)) prints identically.
#[test]
fn printer_parser_round_trip() {
    cases(|rng| {
        let printed = print(&arb_expr(rng, 4));
        let reparsed = parse(&printed).unwrap_or_else(|err| panic!("reparse {printed:?}: {err}"));
        assert_eq!(print(&reparsed), printed);
    });
}

/// Reference adjustment round-trips: shifting a formula from A to B and
/// back yields the original expression. The shift is drawn so that it
/// carries no relative reference off the sheet.
#[test]
fn adjustment_round_trip() {
    cases(|rng| {
        let expr = arb_expr(rng, 4);
        let (cells, ranges) = expr.refs();
        let corners: Vec<CellRef> =
            cells.into_iter().chain(ranges.iter().flat_map(|r| [r.start, r.end])).collect();
        // The shift may take no relative row or column below 0.
        let top = corners.iter().filter(|c| !c.abs_row).map(|c| c.addr.row).min();
        let left = corners.iter().filter(|c| !c.abs_col).map(|c| c.addr.col).min();
        let (top, left) = (top.unwrap_or(u32::MAX), left.unwrap_or(u32::MAX));
        let from = CellAddr::new(rng.random_range(50..100), rng.random_range(10..20));
        let to = CellAddr::new(
            rng.random_range(from.row.saturating_sub(top).max(50)..100),
            rng.random_range(from.col.saturating_sub(left).max(10)..20),
        );
        let back = expr.adjusted(from, to).adjusted(to, from);
        assert_eq!(print(&back), print(&expr), "{from} -> {to}");
    });
}

// ---------------------------------------------------------------------
// Sorting
// ---------------------------------------------------------------------

/// Sort produces a permutation of the rows, ordered by the key, and keeps
/// row contents together.
#[test]
fn sort_is_an_ordered_permutation() {
    cases(|rng| {
        let keys: Vec<i64> =
            (0..rng.random_range(1..60)).map(|_| rng.random_range(-1000..1000)).collect();
        let mut sheet = Sheet::new();
        for (i, &k) in keys.iter().enumerate() {
            sheet.set_value(CellAddr::new(i as u32, 0), k);
            sheet.set_value(CellAddr::new(i as u32, 1), format!("tag{i}"));
        }
        sheet.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        // Ordered.
        let sorted: Vec<f64> = (0..keys.len() as u32)
            .map(|r| sheet.value(CellAddr::new(r, 0)).as_number().unwrap())
            .collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // Permutation: same multiset of keys.
        let mut expect: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(&sorted, &expect);
        // Row integrity: each tag still sits next to its original key.
        for r in 0..keys.len() as u32 {
            let tag = sheet.value(CellAddr::new(r, 1)).display();
            let orig: usize = tag.strip_prefix("tag").unwrap().parse().unwrap();
            assert_eq!(sorted[r as usize], keys[orig] as f64);
        }
    });
}

/// Sorting twice is idempotent.
#[test]
fn sort_idempotent() {
    cases(|rng| {
        let keys: Vec<i64> =
            (0..rng.random_range(1..40)).map(|_| rng.random_range(-100..100)).collect();
        let mut sheet = Sheet::new();
        for (i, &k) in keys.iter().enumerate() {
            sheet.set_value(CellAddr::new(i as u32, 0), k);
        }
        sheet.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        let once: Vec<String> =
            (0..keys.len() as u32).map(|r| sheet.value(CellAddr::new(r, 0)).display()).collect();
        sheet.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
        let twice: Vec<String> =
            (0..keys.len() as u32).map(|r| sheet.value(CellAddr::new(r, 0)).display()).collect();
        assert_eq!(once, twice);
    });
}

// ---------------------------------------------------------------------
// Recalculation
// ---------------------------------------------------------------------

/// Dirty recalculation after random edits equals a full recalculation
/// from scratch.
#[test]
fn dirty_recalc_equals_full_recalc() {
    cases(|rng| {
        let values: Vec<i64> =
            (0..rng.random_range(10..30)).map(|_| rng.random_range(-100..100)).collect();
        let edits: Vec<(usize, i64)> = (0..rng.random_range(1..10))
            .map(|_| (rng.random_range(0..10), rng.random_range(-100..100)))
            .collect();
        let n = values.len() as u32;
        let build = |values: &[i64]| {
            let mut s = Sheet::new();
            for (i, &v) in values.iter().enumerate() {
                s.set_value(CellAddr::new(i as u32, 0), v);
            }
            // A chain: B1 = SUM(A), Bi = B(i-1) + Ai
            s.set_formula_str(CellAddr::new(0, 1), &format!("=SUM(A1:A{n})")).unwrap();
            for i in 1..5u32.min(n) {
                s.set_formula_str(CellAddr::new(i, 1), &format!("=B{}+A{}", i, i + 1)).unwrap();
            }
            recalc::recalc_all(&mut s);
            s
        };
        let mut incremental = build(&values);
        let mut final_values = values.clone();
        for &(idx, v) in &edits {
            let addr = CellAddr::new(idx as u32, 0);
            incremental.set_value(addr, v);
            recalc::recalc_from(&mut incremental, &[addr]);
            final_values[idx] = v;
        }
        let fresh = build(&final_values);
        for i in 0..5u32.min(n) {
            let addr = CellAddr::new(i, 1);
            assert_eq!(incremental.value(addr), fresh.value(addr), "B{}", i + 1);
        }
    });
}

// ---------------------------------------------------------------------
// The Optimized profile's strategies vs the engine's plain paths
// ---------------------------------------------------------------------

/// The indexed recompute is invisible in values: after any edit sequence
/// through `SimSystem::update_cell`, every aggregate under the Optimized
/// profile — whose `COUNTIF` the maintained column index answers — is
/// bit-identical to Excel's scan, on integers and on tenths.
#[test]
fn incremental_aggregate_matches_recompute() {
    use ssbench::systems::{SimSystem, SystemKind};
    cases(|rng| {
        let values: Vec<i64> =
            (0..rng.random_range(5..50)).map(|_| rng.random_range(0..40)).collect();
        let edits: Vec<(usize, i64)> = (0..rng.random_range(1..12))
            .map(|_| (rng.random_range(0..50), rng.random_range(0..40)))
            .collect();
        let tenths: bool = rng.random();
        let draw = |v: i64| {
            if tenths {
                v as f64 / 10.0
            } else {
                (v % 4) as f64
            }
        };
        let n = values.len();
        let formulas = [
            format!("=COUNTIF(A1:A{n},1)"),
            format!("=SUM(A1:A{n})"),
            format!("=AVERAGE(A1:A{n})"),
            format!("=SUMIF(A1:A{n},\">0.5\")"),
        ];
        let build = || {
            let mut sheet = Sheet::new();
            for (i, &v) in values.iter().enumerate() {
                sheet.set_value(CellAddr::new(i as u32, 0), draw(v));
            }
            for (i, f) in formulas.iter().enumerate() {
                sheet.set_formula_str(CellAddr::new(i as u32, 2), f).unwrap();
            }
            recalc::recalc_all(&mut sheet);
            sheet
        };
        let (mut opt, mut excel) = (build(), build());
        let (opt_sys, excel_sys) =
            (SimSystem::new(SystemKind::Optimized), SimSystem::new(SystemKind::Excel));
        for &(idx, v) in &edits {
            let addr = CellAddr::new((idx % n) as u32, 0);
            opt_sys.update_cell(&mut opt, addr, Value::Number(draw(v)));
            excel_sys.update_cell(&mut excel, addr, Value::Number(draw(v)));
            for (i, f) in formulas.iter().enumerate() {
                let at = CellAddr::new(i as u32, 2);
                let (got, want) = (opt.value(at), excel.value(at));
                match (&got, &want) {
                    (Value::Number(g), Value::Number(w)) => {
                        assert_eq!(g.to_bits(), w.to_bits(), "{}: {} vs {}", f, g, w)
                    }
                    _ => assert_eq!(&got, &want, "{}", f),
                }
            }
        }
    });
}

/// Index-driven find-replace and `Op::FindReplace` leave identical sheets
/// and report the same changed count on whole-token, case-exact ASCII
/// needles — the only class Fig 9 plants. (Elsewhere they differ by
/// design: the op matches substrings case-sensitively, the index whole
/// tokens case-folded.)
#[test]
fn indexed_find_replace_matches_op_on_whole_tokens() {
    use ssbench::systems::{SimSystem, SystemKind};
    cases(|rng| {
        let cells: Vec<Vec<usize>> = (0..rng.random_range(3..30))
            .map(|_| (0..rng.random_range(0..5)).map(|_| rng.random_range(0..5)).collect())
            .collect();
        let needle = rng.random_range(0..4usize);
        // No word is a substring or a case variant of another, so every
        // substring hit is a whole-token, case-exact hit.
        const WORDS: [&str; 5] = ["storm", "HAIL", "Wind9", "calm", "x"];
        let build = || {
            let mut sheet = Sheet::new();
            for (i, words) in cells.iter().enumerate() {
                let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                sheet.set_value(CellAddr::new(i as u32, 0), text.join(", ").as_str());
                sheet.set_value(CellAddr::new(i as u32, 1), i as i64);
            }
            sheet
        };
        let (mut scanned, mut indexed) = (build(), build());
        let sys = SimSystem::new(SystemKind::Optimized);
        let (by_op, _) = sys.find_replace(&mut scanned, WORDS[needle], "FOUND");
        let mut index = sys.token_index(&indexed);
        let (by_index, _) =
            sys.find_replace_indexed(&mut indexed, &mut index, WORDS[needle], "FOUND");
        assert_eq!(by_op, by_index);
        for addr in scanned.used_range().unwrap().iter() {
            assert_eq!(scanned.value(addr), indexed.value(addr), "cell {}", addr);
        }
        // The index followed the rewrite: the needle is gone from it too.
        assert_eq!(index.find_replace(&mut indexed, WORDS[needle], "again"), 0);
    });
}

/// Find-and-replace equals the naive per-cell string pass.
#[test]
fn find_replace_matches_naive() {
    cases(|rng| {
        let texts: Vec<String> =
            (0..rng.random_range(3..30)).map(|_| text(rng, "abc ", 0..=8)).collect();
        let needle = text(rng, "abc", 1..=2);
        let mut sheet = Sheet::new();
        for (i, t) in texts.iter().enumerate() {
            sheet.set_value(CellAddr::new(i as u32, 0), t.as_str());
        }
        let range = sheet.used_range().unwrap();
        let op = Op::FindReplace { range, needle: needle.clone(), replacement: "Z".into() };
        let outcome = sheet.apply(op);
        let mut expect_changed = 0;
        for (i, t) in texts.iter().enumerate() {
            let replaced = t.replace(&needle, "Z");
            if &replaced != t {
                expect_changed += 1;
            }
            assert_eq!(sheet.value(CellAddr::new(i as u32, 0)).display(), replaced);
        }
        assert_eq!(outcome, Ok(OpOutcome::Replaced { cells: expect_changed }));
    });
}

// ---------------------------------------------------------------------
// Maintained column indexes (the fourth system's engine hook)
// ---------------------------------------------------------------------

/// An auto-indexed sheet stays bit-identical to an unindexed one under
/// random edit/insert/delete/sort sequences: the maintained column indexes
/// may change *how* COUNTIF/VLOOKUP/MATCH are answered (probes instead of
/// scans), never *what* they answer, and they must ride every structural
/// edit without drifting from the grid.
#[test]
fn maintained_indexes_survive_structural_edits() {
    cases(|rng| {
        let values: Vec<(i64, i64)> = (0..rng.random_range(6..30))
            .map(|_| (rng.random_range(0..6), rng.random_range(-20..20)))
            .collect();
        let ops: Vec<(u8, u32, i64)> = (0..rng.random_range(1..10))
            .map(|_| (rng.random_range(0..4), rng.random_range(0..30), rng.random_range(0..6)))
            .collect();
        let build = |indexed: bool| {
            let mut s = Sheet::new();
            for (i, &(k, v)) in values.iter().enumerate() {
                s.set_value(CellAddr::new(i as u32, 0), k);
                s.set_value(CellAddr::new(i as u32, 1), v);
            }
            s.set_auto_index(indexed);
            recalc::recalc_all(&mut s);
            s
        };
        let mut plain = build(false);
        let mut indexed = build(true);
        for &(tag, pos, k) in &ops {
            for s in [&mut plain, &mut indexed] {
                let n = s.nrows().max(1);
                match tag {
                    0 => {
                        s.set_value(CellAddr::new(pos % n, 0), k);
                    }
                    1 => {
                        s.apply(Op::InsertRows { at: pos % (n + 1), count: 1 + pos % 2 }).unwrap();
                    }
                    2 => {
                        if n > 1 {
                            s.apply(Op::DeleteRows { at: pos % n, count: 1 }).unwrap();
                        }
                    }
                    _ => {
                        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap();
                    }
                }
                recalc::recalc_all(s);
            }
            let n = plain.nrows();
            assert_eq!(indexed.nrows(), n);
            assert!(n > 0);
            for needle in 0..6i64 {
                for q in [
                    format!("=COUNTIF(A1:A{n},{needle})"),
                    format!("=VLOOKUP({needle},A1:B{n},2,FALSE)"),
                    format!("=MATCH({needle},A1:A{n},0)"),
                ] {
                    assert_eq!(plain.eval_str(&q).unwrap(), indexed.eval_str(&q).unwrap(), "{}", q);
                }
            }
            for r in 0..n {
                for c in 0..2u32 {
                    let addr = CellAddr::new(r, c);
                    assert_eq!(plain.value(addr), indexed.value(addr), "cell {}", addr);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Structural edits
// ---------------------------------------------------------------------

/// Inserting rows and then deleting them at the same position is the
/// identity on the document (values, formulas, and references).
#[test]
fn insert_then_delete_rows_is_identity() {
    use ssbench::engine::io;
    cases(|rng| {
        let values: Vec<i64> =
            (0..rng.random_range(4..20)).map(|_| rng.random_range(-50..50)).collect();
        let n = values.len() as u32;
        let (at, count) = (rng.random_range(0..=n.min(9)), rng.random_range(1..4));
        let mut sheet = Sheet::new();
        for (i, &v) in values.iter().enumerate() {
            sheet.set_value(CellAddr::new(i as u32, 0), v);
        }
        sheet.set_formula_str(CellAddr::new(0, 1), &format!("=SUM(A1:A{n})")).unwrap();
        sheet.set_formula_str(CellAddr::new(1, 1), &format!("=$A${n}*2")).unwrap();
        recalc::recalc_all(&mut sheet);
        let before = io::save(&sheet);
        sheet.apply(Op::InsertRows { at, count }).unwrap();
        sheet.apply(Op::DeleteRows { at, count }).unwrap();
        let after = io::save(&sheet);
        assert_eq!(before, after);
    });
}

/// After any row deletion, recalculated totals equal the sum of the
/// surviving values.
#[test]
fn delete_rows_keeps_sum_consistent() {
    cases(|rng| {
        let values: Vec<i64> =
            (0..rng.random_range(5..25)).map(|_| rng.random_range(-50..50)).collect();
        let n = values.len() as u32;
        let (at, count) = (rng.random_range(0..n.min(20)), rng.random_range(1..5));
        let mut sheet = Sheet::new();
        for (i, &v) in values.iter().enumerate() {
            sheet.set_value(CellAddr::new(i as u32, 0), v);
        }
        sheet.set_formula_str(CellAddr::new(0, 2), &format!("=SUM(A1:A{n})")).unwrap();
        sheet.apply(Op::DeleteRows { at, count }).unwrap();
        recalc::recalc_all(&mut sheet);
        let survivors: i64 = values
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let i = *i as u32;
                i < at || i >= at + count
            })
            .map(|(_, &v)| v)
            .sum();
        // The formula survives unless its own row (row 0) was deleted.
        if at > 0 {
            let total = sheet.value(CellAddr::new(0, 2));
            assert_eq!(total, Value::Number(survivors as f64));
        }
    });
}

// ---------------------------------------------------------------------
// Compiled backend (bytecode VM) vs the tree-walking interpreter
// ---------------------------------------------------------------------

/// Leaves for the backend-differential generator: literals of every kind
/// (including explicit error values), cell references, and range
/// references (which exercise implicit intersection when they appear in
/// scalar positions).
fn arb_vm_leaf(rng: &mut SmallRng) -> Expr {
    use ssbench::engine::error::CellError;
    const ERRORS: [CellError; 5] =
        [CellError::Div0, CellError::Value, CellError::Ref, CellError::Na, CellError::Num];
    match rng.random_range(0..6) {
        0 => Expr::Number(rng.random_range(-1.0e6..1.0e6)),
        1 => Expr::Text(text(rng, "abcdefghijklmnopqrstuvwxyz0123456789 ", 0..=8).into()),
        2 => Expr::Bool(rng.random()),
        3 => Expr::Error(ERRORS[rng.random_range(0..ERRORS.len())]),
        4 => Expr::Ref(arb_cellref(rng)),
        _ => Expr::RangeRef(arb_rangeref(rng)),
    }
}

/// Random expressions biased toward the constructs where the two
/// backends could plausibly diverge: short-circuit IF / AND / OR,
/// IFERROR's error-swallowing, aggregate calls over ranges (the
/// vectorized-kernel path), the volatile NOW, and unknown names.
fn arb_vm_expr(rng: &mut SmallRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return arb_vm_leaf(rng);
    }
    let sub = |rng: &mut SmallRng| arb_vm_expr(rng, depth - 1);
    let args = |rng: &mut SmallRng, lens: std::ops::Range<usize>| -> Vec<Expr> {
        (0..rng.random_range(lens)).map(|_| sub(rng)).collect()
    };
    let call = |name: &str, args: Vec<Expr>| Expr::Call(name.into(), args);
    match rng.random_range(0..13) {
        0 => Expr::Binary(arb_binop(rng), Box::new(sub(rng)), Box::new(sub(rng))),
        1 => Expr::Unary(UnaryOp::Neg, Box::new(sub(rng))),
        2 => Expr::Unary(UnaryOp::Percent, Box::new(sub(rng))),
        3 => call("IF", args(rng, 3..4)),
        4 => call("IF", args(rng, 2..3)),
        5 => call("IFERROR", args(rng, 2..3)),
        6 => call("AND", args(rng, 0..4)),
        7 => call("OR", args(rng, 0..4)),
        8 => call("SUM", args(rng, 1..4)),
        9 => call("COUNT", args(rng, 1..3)),
        10 => call("COUNTIF", args(rng, 2..3)),
        11 => call("NOW", vec![]),
        _ => call("NOSUCHFN", args(rng, 1..2)),
    }
}

/// One leg of a reference-vs-shipped differential.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// `recalc_reference`: the tree-walking interpreter.
    Reference,
    /// The shared plan order walked through the one-shot
    /// `eval_formula_at`: compiled programs and range kernels, every
    /// window scanned in full (no delta cache to slide).
    OneShot,
    /// `recalc_all`, as shipped.
    Shipped,
}

fn recalc_leg(s: &mut Sheet, leg: Leg) {
    match leg {
        Leg::Reference => {
            recalc::recalc_reference(s, None);
        }
        Leg::OneShot => {
            for addr in s.deps().full_order().order {
                if let Some(v) = recalc::eval_formula_at(s, addr) {
                    s.store_formula_result(addr, v);
                }
            }
        }
        Leg::Shipped => {
            recalc::recalc_all(s);
        }
    }
}

/// The shipped recalc (bytecode VM) is observationally identical to the
/// reference (the tree-walking interpreter) on random expression trees:
/// same value for every formula (including error propagation, implicit
/// intersection, short-circuit IF/AND/OR, and volatile NOW) and the same
/// meter counts, cell for cell and tick for tick.
#[test]
fn compiled_backend_matches_interpreter_on_random_exprs() {
    cases(|rng| {
        let mut exprs: Vec<Expr> =
            (0..rng.random_range(1..6)).map(|_| arb_vm_expr(rng, 4)).collect();
        // Literal-pure trees, which the lowerer folds at compile time: an
        // error, a concatenation, a unary chain, and a fold beside a read.
        for src in ["1/0", "\"a\"&\"b\"", "-3%", "A1+2^0.5*TRUE"] {
            exprs.push(parse(src).unwrap());
        }
        let values: Vec<i64> = (0..24).map(|_| rng.random_range(-50..50)).collect();
        let build = |leg: Leg| {
            let mut s = Sheet::new();
            // A mixed fixture in the top-left corner: numbers, text,
            // booleans, and formula cells (one of which evaluates to an
            // error). References outside it hit empty cells.
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
            // The generated formulas live in column AE, outside the
            // generator's reference window, so the DAG stays acyclic.
            for (i, e) in exprs.iter().enumerate() {
                s.set_formula(CellAddr::new(i as u32, 30), e.clone());
            }
            recalc_leg(&mut s, leg);
            s
        };
        let reference = build(Leg::Reference);
        let shipped = build(Leg::Shipped);
        for i in 0..exprs.len() as u32 {
            let addr = CellAddr::new(i, 30);
            assert_value_bits(
                &reference.value(addr),
                &shipped.value(addr),
                &format!("formula {i}"),
            );
        }
        assert_eq!(reference.meter().snapshot(), shipped.meter().snapshot());
    });
}

// ---------------------------------------------------------------------
// Strided kernels and window-delta aggregation
// ---------------------------------------------------------------------

/// Cell fillings for the aggregation differentials: integers, awkward
/// numbers (fractions, the 2^53 exactness boundary), text, booleans, a
/// sometimes-erroring formula, and gaps.
fn fill_agg_cell(s: &mut Sheet, addr: CellAddr, tag: u8, v: i64) {
    match tag % 9 {
        0..=2 => s.set_value(addr, v),
        3 => s.set_value(addr, v as f64 + 0.5),
        4 => s.set_value(addr, (1i64 << 53) as f64 + v as f64),
        5 => s.set_value(addr, format!("t{v}")),
        6 => s.set_value(addr, v % 2 == 0),
        7 => s.set_formula_str(addr, &format!("=1/{}", v.rem_euclid(2))).unwrap(),
        _ => {} // leave empty
    }
}

/// Numbers must match bit for bit (the evaluators claim `-0.0` vs `0.0`
/// agreement, which plain `PartialEq` on `Value` would not catch).
fn assert_value_bits(a: &Value, b: &Value, what: &str) {
    if let (Value::Number(x), Value::Number(y)) = (a, b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{} number bits", what);
    }
    assert_eq!(a, b, "{}", what);
}

const AGG_FUNCS: [&str; 5] = ["SUM", "COUNT", "AVERAGE", "MIN", "MAX"];

/// The strided range kernels — with the delta cache (shipped) and without
/// it (one-shot) — are observationally identical to the reference
/// interpreter on both 1-D range orientations (plus 2-D blocks): same value
/// for every aggregate and the same meter counts, tick for tick.
#[test]
fn strided_kernels_match_interpreter() {
    cases(|rng| {
        let cells: Vec<(u8, i64)> =
            (0..36).map(|_| (rng.random_range(0..9), rng.random_range(-50..50))).collect();
        let name = AGG_FUNCS[rng.random_range(0..AGG_FUNCS.len())];
        let [a, b, c, d]: [u32; 4] = std::array::from_fn(|_| rng.random_range(0..6));
        let (r1, r2) = (a.min(b), a.max(b));
        let (c1, c2) = (c.min(d), c.max(d));
        let build = |leg: Leg| {
            let mut s = Sheet::new();
            // A 6x6 mixed block; the aggregates live in column K, outside it.
            for (i, &(tag, v)) in cells.iter().enumerate() {
                fill_agg_cell(&mut s, CellAddr::new(i as u32 / 6, (i % 6) as u32), tag, v);
            }
            let vert = format!(
                "={name}({}:{})",
                CellAddr::new(r1, c1).to_a1(),
                CellAddr::new(r2, c1).to_a1()
            );
            let horiz = format!(
                "={name}({}:{})",
                CellAddr::new(r1, c1).to_a1(),
                CellAddr::new(r1, c2).to_a1()
            );
            let block = format!(
                "={name}({}:{})",
                CellAddr::new(r1, c1).to_a1(),
                CellAddr::new(r2, c2).to_a1()
            );
            for (i, src) in [vert, horiz, block].iter().enumerate() {
                s.set_formula_str(CellAddr::new(i as u32, 10), src).unwrap();
            }
            recalc_leg(&mut s, leg);
            s
        };
        let reference = build(Leg::Reference);
        for leg in [Leg::OneShot, Leg::Shipped] {
            let got = build(leg);
            for i in 0..3u32 {
                let addr = CellAddr::new(i, 10);
                assert_value_bits(
                    &reference.value(addr),
                    &got.value(addr),
                    &format!("{leg:?} formula {i}"),
                );
            }
            assert_eq!(reference.meter().snapshot(), got.meter().snapshot(), "{:?} meters", leg);
        }
    });
}

/// Window-delta aggregation (the sliding cache behind fill-down windows) is
/// observationally identical to full rescans: the reference interpreter,
/// the kernels without the cache (one-shot), and the shipped recalc that
/// slides it agree on every value bit for bit and on every meter count —
/// including windows over text, booleans, errors, empties, and numbers
/// outside the exact-integer envelope.
#[test]
fn window_delta_matches_full_rescan() {
    cases(|rng| {
        let cells: Vec<(u8, i64)> = (0..rng.random_range(20..60))
            .map(|_| (rng.random_range(0..9), rng.random_range(-50..50)))
            .collect();
        let name = AGG_FUNCS[rng.random_range(0..AGG_FUNCS.len())];
        let w = rng.random_range(1..8u32);
        let n = cells.len() as u32;
        let build = |leg: Leg| {
            let mut s = Sheet::new();
            for (i, &(tag, v)) in cells.iter().enumerate() {
                fill_agg_cell(&mut s, CellAddr::new(i as u32, 0), tag, v);
            }
            // Column C: a trailing window of length w sliding down column A.
            for r in 0..n {
                let lo = r.saturating_sub(w - 1) + 1;
                s.set_formula_str(
                    CellAddr::new(r, 2),
                    &format!("={name}(A{lo}:A{hi})", hi = r + 1),
                )
                .unwrap();
            }
            recalc_leg(&mut s, leg);
            s
        };
        let interp = build(Leg::Reference);
        let rescan = build(Leg::OneShot);
        let delta = build(Leg::Shipped);
        for r in 0..n {
            let addr = CellAddr::new(r, 2);
            let want = interp.value(addr);
            assert_value_bits(&want, &rescan.value(addr), &format!("row {r} rescan"));
            assert_value_bits(&want, &delta.value(addr), &format!("row {r} delta"));
        }
        assert_eq!(interp.meter().snapshot(), rescan.meter().snapshot(), "rescan meters");
        assert_eq!(interp.meter().snapshot(), delta.meter().snapshot(), "delta meters");
    });
}

// ---------------------------------------------------------------------
// Buffer-pool interleavings (PR 8)
// ---------------------------------------------------------------------

/// Random interleavings of writes, pins, unpins, and budget changes never
/// lose or duplicate a chunk: every cell reads back exactly the last value
/// written, and the pool's internal invariants (pin counts, residency
/// accounting, page ownership) hold after every step. Budgets small enough
/// to force eviction mid-sequence are part of the space, so
/// spill→fault→re-spill cycles are exercised under pins.
#[test]
fn pool_interleavings_never_lose_or_duplicate_chunks() {
    cases(|rng| {
        let n: u32 = 4 * 1024; // four full chunks in one column
        let mut g = GridStore::new(1, 1);
        let mut model: Vec<f64> = (0..n).map(f64::from).collect();
        for r in 0..n {
            g.set(CellAddr::new(r, 0), Cell::value(model[r as usize])).unwrap();
        }
        for _ in 0..rng.random_range(1..60) {
            let (a, b): (u32, u32) = (rng.random(), rng.random());
            match rng.random_range(0..6) {
                0 => {
                    let row = a % n;
                    let val = f64::from(b);
                    g.set(CellAddr::new(row, 0), Cell::value(val)).unwrap();
                    model[row as usize] = val;
                }
                1 => {
                    let (lo, hi) = ((a % n).min(b % n), (a % n).max(b % n));
                    let range = Range::new(CellAddr::new(lo, 0), CellAddr::new(hi, 0));
                    g.pin_range(range, 16 * 1024);
                }
                2 => g.unpin_all(),
                // Budgets of 1–4 chunk pages: always small enough that
                // four resident chunks overflow, forcing the clock hand
                // to pick victims around any pins.
                3 => g.set_budget(Some(9 * 1024 + (a as usize % 4) * 9 * 1024)),
                4 => g.set_budget(None),
                _ => {
                    let row = a % n;
                    assert_eq!(
                        g.value_at(CellAddr::new(row, 0)),
                        Value::Number(model[row as usize])
                    );
                }
            }
            g.validate();
        }
        // Whatever the interleaving did, dropping pins and the budget
        // must reproduce the full model bit for bit.
        g.unpin_all();
        g.set_budget(None);
        for r in 0..n {
            assert_eq!(g.value_at(CellAddr::new(r, 0)), Value::Number(model[r as usize]));
        }
        g.validate();
    });
}
