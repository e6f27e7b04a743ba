//! Differential tests of the range kernels against the tree-walking
//! interpreter (`eval::evaluate`), which reads a range a cell at a time and
//! shares no code with them (DESIGN.md §19). A formula is evaluated both
//! ways on one sheet, each with a meter of its own, and two things must
//! agree: the value — numbers by bit pattern, so a zero's sign, a NaN and
//! the last bit of a float sum all count — and the meter's snapshot.
//!
//! The sheet puts every kind of chunk under a window: `Num` chunks with
//! blanks, `Text` chunks (texts that read as numbers, case variants,
//! wildcard hits), a full `Cells` chunk with formulas and a
//! cached error, a `Cells` chunk of a few cells, a `Num` chunk of one, a
//! wholly vacant chunk, fractions and
//! magnitudes of 2^53 (outside the delta cache's exact-integer envelope),
//! zeros of both signs, cached infinities and a NaN — and, under the 32 KB
//! budget, `Spilled` pages. Windows start and end mid-chunk and on either
//! side of the first chunk boundary, with no delta cache, with a fresh
//! one, and with one that has slid there.
//!
//! Exact `VLOOKUP`/`MATCH` have no kernel: the builtins call
//! `CellSource::find_exact`, which both evaluators share, so `Sheet`'s slice
//! scan is held instead to the trait's own row loop (`RowLoop`) on the same
//! sheet, windows and a needle of every kind.
//!
//! Mutations these tests were seen to catch (each planted, seen to fail,
//! and removed): the per-id memo keyed on `id >> 1`; the float fold of the
//! full scan kept after a slide that evicted, and after one that only
//! entered (a window growing at one end); a band of the three-argument
//! `SUMIF` one row short, and its targets one row short; `matches_empty`
//! ignored for vacant runs, by `COUNTIF` and by the column walk; the part of
//! a `COUNTIF` window past the extent left uncounted, and the targets of
//! that part of a three-argument `SUMIF` window left unfolded; and in
//! `find_exact`, a stop one row before the hit, a vacant run or the part
//! past the extent never hitting, formulas counted past the hit, the text
//! memo keyed on `id >> 1`.

use crate::addr::{CellAddr, Range};
use crate::compile::compile;
use crate::compile::vm::{run_with, DeltaCache};
use crate::eval::{evaluate, CellSource};
use crate::formula::parse;
use crate::meter::Meter;
use crate::ops::structure::differential::BUDGET;
use crate::recalc::recalc_all;
use crate::sheet::Sheet;
use crate::value::Value;

/// Three whole chunks and an eighth of a fourth.
const ROWS: u32 = 3200;

/// Column B's texts: case variants, a text that reads as a number, texts a
/// wildcard takes apart (`S*`, `?d`, `item1*`).
const LABELS: [&str; 12] =
    ["SD", "sd", "IL", "storm", "STORM", "Sd", "a", "2", "item1", "item10", "x", "1"];

/// Every column as a letter: A whole numbers with blanks (`Num`), B
/// `LABELS` with blanks (`Text`), C general storage, D fractions and ±2^53
/// (`Num`), E zeros of both signs and a falling run (`Num`), F a formula
/// per row (`Cells`), G numbers with cached infinities and a NaN (`Cells`
/// where those formulas are, `Num` between), H nothing at all.
const COLUMNS: [char; 8] = ['A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'];

fn build(capped: bool) -> Sheet {
    let mut s = Sheet::new();
    s.set_grid_budget(capped.then_some(BUDGET));
    for r in 0..ROWS {
        let at = |col| CellAddr::new(r, col);
        if r % 97 != 13 {
            s.set_value(at(0), i64::from(r % 23) - 5);
        }
        if r % 89 != 7 {
            s.set_value(at(1), LABELS[(r % 12) as usize]);
        }
        s.set_value(at(3), f64::from(r) * 0.1 + 0.05);
        let e = match r {
            2000..=2100 => f64::from(5000 - r),
            _ if r % 70 == 0 => -0.0,
            _ if r % 70 == 35 => 0.0,
            _ if r % 2 == 0 => f64::from(100 - r % 50),
            _ => f64::from(r % 7),
        };
        s.set_value(at(4), e);
        s.set_formula_str(at(5), &format!("=A{}*2", r + 1)).unwrap();
        s.set_value(at(6), f64::from(r % 9) - 4.0);
    }
    s.set_value(CellAddr::new(1500, 3), 9_007_199_254_740_992.0);
    s.set_value(CellAddr::new(1501, 3), -9_007_199_254_740_992.0);
    // C, first chunk: dense general storage — formulas, bools, texts,
    // numbers, and one formula that caches an error.
    for r in 0..1024 {
        let at = CellAddr::new(r, 2);
        match r % 4 {
            0 => s.set_formula_str(at, &format!("=A{}", r + 1)).unwrap(),
            1 => s.set_value(at, r % 3 == 0),
            2 => s.set_value(at, LABELS[(r / 4 % 12) as usize]),
            _ => s.set_value(at, i64::from(r)),
        }
    }
    s.set_formula_str(CellAddr::new(700, 2), "=1/0").unwrap();
    // C, second chunk: a few general cells in an otherwise vacant chunk;
    // the third stays vacant; the fourth holds one number.
    s.set_value(CellAddr::new(1027, 2), "storm");
    s.set_value(CellAddr::new(1064, 2), 7);
    s.set_formula_str(CellAddr::new(1500, 2), "=A1+0.5").unwrap();
    s.set_value(CellAddr::new(2047, 2), 2);
    s.set_value(CellAddr::new(3080, 2), -3);
    // G: what arithmetic leaves in a cache when it overflows.
    s.set_formula_str(CellAddr::new(100, 6), "=-1E308*10").unwrap();
    s.set_formula_str(CellAddr::new(200, 6), "=1E308*10-1E308*10").unwrap();
    s.set_formula_str(CellAddr::new(2500, 6), "=1E308*10").unwrap();
    recalc_all(&mut s);
    assert!(!capped || s.grid_spill_stats().spills > 0, "the capped sheet must spill");
    s
}

#[test]
fn the_sheet_puts_every_chunk_kind_under_a_window() {
    let s = build(false);
    let kinds = |col| s.grid_store().chunk_kinds(col);
    assert_eq!(kinds(0), ["num"; 4]);
    assert_eq!(kinds(1), ["text"; 4]);
    assert_eq!(kinds(2), ["cells", "cells", "num"]);
    assert_eq!(kinds(3), ["num"; 4]);
    assert_eq!(kinds(5), ["cells"; 4]);
    assert_eq!(kinds(6), ["cells", "num", "cells", "num"]);
    assert_eq!(s.value(CellAddr::new(100, 6)), Value::Number(f64::NEG_INFINITY));
    assert!(matches!(s.value(CellAddr::new(200, 6)), Value::Number(n) if n.is_nan()));
    let capped = build(true);
    assert!(capped.grid_store().chunk_kinds(0).contains(&"spilled"));
    assert!(capped.grid_store().chunk_kinds(1).contains(&"spilled"));
}

/// `(first, last)` rows, 1-based as a formula writes them: mid-chunk to
/// mid-chunk, on and around the first chunk boundary, one chunk exactly,
/// one cell, the vacant chunk of C, an error first and an error last (C701
/// caches `#DIV/0!`), past the extent in part and in whole.
const WINDOWS: [(u32, u32); 16] = [
    (1, 3200),
    (500, 2500),
    (1, 1023),
    (1, 1024),
    (1, 1025),
    (1024, 1024),
    (1024, 1025),
    (1025, 2048),
    (1026, 3200),
    (2, 2),
    (2049, 3072),
    (701, 900),
    (500, 701),
    (1400, 1600),
    (3000, 9999),
    (4000, 5000),
];

fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Evaluates `src` by the interpreter and by the VM — with `cache` when
/// there is one — and holds the VM to the interpreter's value and counts.
fn check(sheet: &Sheet, cache: Option<&mut DeltaCache>, src: &str, what: &str) {
    let origin = CellAddr::parse("Z1").unwrap();
    let expr = parse(src).unwrap();
    let interp_meter = Meter::new();
    let want = evaluate(&expr, &sheet.eval_ctx_with(origin, &interp_meter));
    let vm_meter = Meter::new();
    let ctx = sheet.eval_ctx_with(origin, &vm_meter);
    let got = run_with(&compile(&expr, origin), &ctx, Some(sheet.grid_store()), cache);
    assert!(same(&got, &want), "{what}: {src}: got {got:?}, want {want:?}");
    assert_eq!(vm_meter.snapshot(), interp_meter.snapshot(), "{what}: {src}: meter");
}

/// `check` with no cache and with a fresh one.
fn check_both(sheet: &Sheet, src: &str, what: &str) {
    check(sheet, None, src, what);
    check(sheet, Some(&mut DeltaCache::new()), src, what);
}

fn sheets() -> impl Iterator<Item = (String, Sheet)> {
    [false, true].into_iter().map(|capped| (format!("capped={capped}"), build(capped)))
}

#[test]
fn plain_aggregates_match_the_interpreter_over_every_chunk_kind() {
    for (what, s) in sheets() {
        for col in COLUMNS {
            for (lo, hi) in WINDOWS {
                for func in ["SUM", "AVERAGE", "COUNT", "MIN", "MAX"] {
                    check_both(&s, &format!("{func}({col}{lo}:{col}{hi})"), &what);
                }
            }
        }
        // 2-D windows, which never slide, row by row.
        for window in ["A1:G3200", "A1000:D1100", "C690:E710", "D1499:E1503", "F1:H50"] {
            for func in ["SUM", "AVERAGE", "COUNT", "MIN", "MAX"] {
                check_both(&s, &format!("{func}({window})"), &what);
            }
        }
    }
}

/// One cache carried along a line: every window is reached by sliding the
/// one before it — by one row, by 1 500 rows (still overlapping), by more
/// than its height (a rebuild) — with all five aggregates asked at each
/// stop, so a same-window hit, a slid state and a rescan all answer.
#[test]
fn slid_windows_match_the_interpreter() {
    for (what, s) in sheets() {
        for col in COLUMNS {
            for height in [1u32, 5, 600, 2000] {
                let mut cache = DeltaCache::new();
                let mut lo = 1u32;
                for step in [0u32, 1, 1, 1, 1500, 1, 1, 1500, 1, 700] {
                    lo += step;
                    let hi = lo + height - 1;
                    for func in ["AVERAGE", "SUM", "MAX", "MIN", "COUNT"] {
                        let src = format!("{func}({col}{lo}:{col}{hi})");
                        check(&s, Some(&mut cache), &src, &what);
                    }
                }
            }
        }
        // A window that only grows — the running total `SUM(A$1:A5)` filled
        // down — enters cells and evicts none.
        for col in COLUMNS {
            for lo in [1u32, 1000] {
                let mut cache = DeltaCache::new();
                let mut hi = lo + 3;
                for step in [0u32, 1, 1, 1500, 1, 700, 5000] {
                    hi += step;
                    for func in ["AVERAGE", "SUM", "MAX", "MIN", "COUNT"] {
                        let src = format!("{func}({col}{lo}:{col}{hi})");
                        check(&s, Some(&mut cache), &src, &what);
                    }
                }
            }
        }
        // Along a row: the numeric columns side by side.
        let mut cache = DeltaCache::new();
        for row in [1u32, 700, 701, 1501, 1502, 2001] {
            for func in ["SUM", "MIN", "MAX", "AVERAGE", "COUNT"] {
                check(&s, Some(&mut cache), &format!("{func}(A{row}:G{row})"), &what);
            }
        }
    }
}

/// Sliding one row at a time over the falling run of E evicts the maximum
/// at every step; over its zeros, a minimum whose sign is a matter of
/// position; over D's ±2^53, the exact-integer envelope.
#[test]
fn single_row_slides_match_across_evictions_and_the_envelope() {
    for (what, s) in sheets() {
        for (col, from, to, height) in
            [('E', 1990u32, 2110u32, 8u32), ('E', 30, 150, 40), ('D', 1480, 1520, 12), ('G', 90, 210, 7)]
        {
            let mut cache = DeltaCache::new();
            for lo in from..to {
                let hi = lo + height - 1;
                for func in ["MAX", "MIN", "SUM", "AVERAGE"] {
                    check(&s, Some(&mut cache), &format!("{func}({col}{lo}:{col}{hi})"), &what);
                }
            }
        }
    }
}

/// Criteria that match text by case-folded equality, by wildcard, by
/// inequality (which matches vacant runs), numbers by comparison and by
/// equality, the empty cell, and a criterion read from a cell.
const CRITERIA: [&str; 16] = [
    "\"SD\"", "\"sd\"", "\"<>x\"", "\"S*\"", "\"?d\"", "\"item1*\"", "\">=2\"", "\"<0\"", "\"<>2\"",
    "\"\"", "\"=\"", "\"<>\"", "2", "TRUE", "B5", "A3",
];

#[test]
fn criteria_kernels_match_the_interpreter_over_every_chunk_kind() {
    for (what, mut s) in sheets() {
        for indexed in [false, true] {
            if indexed {
                s.set_auto_index(true);
                recalc_all(&mut s);
                assert!(s.index_store().built(1).is_some(), "the text column is indexed");
            }
            let what = format!("{what} indexed={indexed}");
            for col in COLUMNS {
                for (lo, hi) in WINDOWS {
                    for criterion in CRITERIA {
                        for func in ["COUNTIF", "SUMIF", "AVERAGEIF"] {
                            let src = format!("{func}({col}{lo}:{col}{hi},{criterion})");
                            check_both(&s, &src, &what);
                        }
                    }
                }
            }
            for window in ["A1:G3200", "B1000:C1100", "C690:E710"] {
                for criterion in CRITERIA {
                    for func in ["COUNTIF", "SUMIF", "AVERAGEIF"] {
                        check_both(&s, &format!("{func}({window},{criterion})"), &what);
                    }
                }
            }
        }
    }
}

/// The sheet seen through the trait's own `find_exact` — the row loop — for
/// `Sheet`'s slice scan to be held to. The oracle cannot do this: its
/// reference replay calls the same builtins, which call the same override.
struct RowLoop<'a>(&'a Sheet);

impl CellSource for RowLoop<'_> {
    fn value_at(&self, addr: CellAddr) -> Value {
        self.0.value_at(addr)
    }

    fn is_formula_at(&self, addr: CellAddr) -> bool {
        self.0.is_formula_at(addr)
    }

    fn bounds(&self) -> (u32, u32) {
        self.0.bounds()
    }

    fn visit_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value, bool)) {
        self.0.visit_range(range, f)
    }
}

/// Needles with a first hit in the first band, in a middle one, in the last
/// one, in several columns at once, past the extent, and nowhere: numbers
/// (the two zeros, ±2^53, a cached infinity, a NaN that equals nothing),
/// texts in another case than the cells', the empty value, booleans and an
/// error.
fn needles() -> Vec<Value> {
    let mut out: Vec<Value> = [-5.0, 17.0, 7.0, 2.0, -0.0, 0.0, 9_007_199_254_740_992.0]
        .into_iter()
        .chain([f64::from(1600) * 0.1 + 0.05, f64::from(3100) * 0.1 + 0.05])
        .chain([f64::NEG_INFINITY, f64::NAN, 12345.5])
        .map(Value::Number)
        .collect();
    out.extend(["sd", "storm", "ITEM10", "2", "nothing"].map(Value::text));
    out.extend([Value::Empty, Value::Bool(true), Value::Bool(false)]);
    out.push(Value::Error(crate::error::CellError::Div0));
    out
}

#[test]
fn find_exact_matches_the_row_loop_over_every_chunk_kind() {
    for (what, s) in sheets() {
        let rows = RowLoop(&s);
        for (c, col) in (0u32..).zip(COLUMNS) {
            for (lo, hi) in WINDOWS {
                let window = Range::column_segment(c, lo - 1, hi - 1);
                for needle in needles() {
                    for stop_early in [false, true] {
                        let got = s.find_exact(window, &needle, stop_early);
                        let want = rows.find_exact(window, &needle, stop_early);
                        assert_eq!(
                            got, want,
                            "{what}: {col}{lo}:{col}{hi} {needle:?} stop_early={stop_early}"
                        );
                    }
                }
            }
        }
    }
}

/// The three-argument forms: a sum column of the criteria column's height
/// (numbers, fractions, general cells, formulas — whose rechecks are
/// charged — and a text column, which adds nothing), shifted against it so
/// a band's targets straddle two chunks, hanging off the sheet, the
/// criteria column itself, a criteria column running past the extent
/// beside a sum column that does not; and the shapes left to the builtin —
/// a shorter range, a longer one, a 2-D one on either side, a row against
/// a column.
#[test]
fn aligned_sumif_matches_the_interpreter() {
    for (what, s) in sheets() {
        for (lo, hi) in WINDOWS {
            let hi = hi.min(5000);
            for criterion in CRITERIA {
                for func in ["SUMIF", "AVERAGEIF"] {
                    for crit_col in ['B', 'A', 'C'] {
                        for sum_col in ['A', 'D', 'C', 'F', 'B', 'G'] {
                            for shift in [0u32, 1, 1000, 1024] {
                                let src = format!(
                                    "{func}({crit_col}{lo}:{crit_col}{hi},{criterion},{sum_col}{}:{sum_col}{})",
                                    lo + shift,
                                    hi + shift,
                                );
                                check(&s, None, &src, &what);
                            }
                        }
                    }
                }
            }
        }
        // The criteria half past the extent — in part, in whole, and by
        // column, as H holds nothing — while the sum half is not.
        for func in ["SUMIF", "AVERAGEIF"] {
            for criterion in CRITERIA {
                for (crit, sum) in [
                    ("B3001:B4000", "D1001:D2000"),
                    ("B4001:B4500", "G1:G500"),
                    ("H1:H500", "F2701:F3200"),
                ] {
                    check(&s, None, &format!("{func}({crit},{criterion},{sum})"), &what);
                }
            }
        }
        for src in [
            "SUMIF(B1:B3200,\"SD\",A1:A100)",
            "SUMIF(B1:B100,\"SD\",A1:A3200)",
            "SUMIF(B1:B3200,\"<>x\",A3100:A6299)",
            "SUMIF(B1:B100,\"SD\",A1:B100)",
            "SUMIF(A1:B100,\">=2\",D1:E100)",
            "SUMIF(A1:G1,\">=2\",A2:G2)",
            "SUMIF(A1:G1,\">=2\",A1:A7)",
            "AVERAGEIF(B1:B3200,\"nothing\",A1:A3200)",
            "SUMIF(B7,\"SD\",A7)",
            "SUMIF(B1:B3200,\"SD\",A1)",
            "SUMIF(B1:B3200,\"SD\",5)",
            "SUMIF(\"SD\",\"SD\",A1:A5)",
        ] {
            check_both(&s, src, &what);
        }
    }
}
