//! Differential tests of the four scan ops — filter, pivot, find (and
//! replace), conditional format — against the cell-at-a-time bodies they
//! had before they read the grid's slices (DESIGN.md §18). Those bodies
//! survive only as the `*_reference` functions beside each op, and only
//! here are they called: one copy of a sheet takes the op through
//! `Sheet::apply`, its twin takes the reference, and everything observable
//! must agree — the outcome, every cell and fill, every hidden flag, what
//! the column indexes answer, the meter, the grid's invariants, and the
//! budget.
//!
//! The sheet puts every kind of chunk under a range: `Num` and `Text`
//! chunks (with holes), a full `Cells` chunk of formulas whose cached text
//! holds the needles, bools, text values and styled cells, a `Cells` chunk
//! of a few cells, a `Text` chunk of one, a wholly vacant chunk, columns
//! that change kind from chunk to chunk, and — under the 32 KB budget —
//! `Spilled` pages.

use rand::Rng;

use crate::addr::{CellAddr, Range};
use crate::error::CellError;
use crate::meter::Counts;
use crate::ops::structure::differential::{compare, BUDGET};
use crate::ops::{cond_format, filter, find_replace, pivot, Op, OpOutcome, PivotAgg};
use crate::recalc;
use crate::sheet::Sheet;
use crate::style::{Color, Style};
use crate::testing::cases;
use crate::value::{Criterion, Value};

/// Three whole chunks and an eighth of a fourth.
const ROWS: u32 = 3200;

/// Column B's texts: case variants of one pivot key, a needle inside its
/// own replacement (`a` → `aa`), a replacement that is already interned
/// (`storm` → `STORM`), prefixes of one another, a text that reads as a
/// number.
const LABELS: [&str; 13] = [
    "SD", "sd", "IL", "storm", "STORM", "stormy", "a", "aa", "banana", "1", "item1", "item10", "x",
];

const NUM: u32 = 0; // A: numbers with holes — `Num` chunks
const TEXT: u32 = 1; // B: `LABELS` with holes — `Text` chunks
const GENERAL: u32 = 2; // C: a full `Cells` chunk, one of a few cells, a vacant one, one text
const BY_CHUNK: u32 = 3; // D: a `Num` chunk, a `Text` chunk, a `Cells` chunk of bools and errors
const JUNK: u32 = 4; // E: numbers with fractions, texts and errors among them — `Cells`
const KEYS: u32 = 5; // F: small whole numbers, `0.0` and `-0.0` — `Num` chunks
const PAST: u32 = 9; // no such column

fn green() -> Style {
    Style::plain().with_fill(Color::GREEN)
}

fn build(capped: bool) -> Sheet {
    let mut s = Sheet::new();
    s.set_grid_budget(capped.then_some(BUDGET));
    for r in 0..ROWS {
        let at = |col| CellAddr::new(r, col);
        if r % 97 != 13 {
            s.set_value(at(NUM), f64::from(r) * 0.5);
        }
        if r % 89 != 7 {
            s.set_value(at(TEXT), LABELS[(r % 13) as usize]);
        }
        match r / 1024 {
            0 | 3 => s.set_value(at(BY_CHUNK), i64::from(r % 5)),
            1 => s.set_value(at(BY_CHUNK), ["1", "SD", "sd", "2", "storm"][(r % 5) as usize]),
            _ if r % 2 == 0 => s.set_value(at(BY_CHUNK), r % 3 == 0),
            _ => s.set_value(at(BY_CHUNK), CellError::Div0),
        }
        if r % 50 == 9 {
            s.set_value(at(JUNK), "n/a");
        } else if r % 77 == 5 {
            s.set_value(at(JUNK), CellError::Na);
        } else {
            s.set_value(at(JUNK), f64::from(r % 11) + 0.1);
        }
        s.set_value(at(KEYS), if r % 70 == 0 { -0.0 } else { f64::from(r % 7) });
    }
    // C, first chunk: dense general storage — formulas that display B's
    // texts, bools, text values, numbers, a fill on every 64th row.
    for r in 0..1024 {
        let at = CellAddr::new(r, GENERAL);
        match r % 4 {
            0 => s.set_formula_str(at, &format!("=B{}", r + 1)).unwrap(),
            1 => s.set_value(at, r % 3 == 0),
            2 => s.set_value(at, LABELS[(r / 4 % 13) as usize]),
            _ => s.set_value(at, i64::from(r)),
        }
        if r % 64 < 4 {
            s.set_style(at, green());
        }
    }
    // C, second chunk: a few general cells in an otherwise vacant chunk,
    // with a styled cell that has no content and a styled text on the
    // chunk's last row. The third chunk stays vacant; the fourth holds one
    // text.
    s.set_value(CellAddr::new(1027, GENERAL), "storm");
    s.set_value(CellAddr::new(1064, GENERAL), 7);
    s.set_style(CellAddr::new(1065, GENERAL), green());
    s.set_formula_str(CellAddr::new(1500, GENERAL), "=B1").unwrap();
    s.set_value(CellAddr::new(2047, GENERAL), "stormy");
    s.set_style(CellAddr::new(2047, GENERAL), Style::plain().with_fill(Color::BLACK));
    s.set_value(CellAddr::new(3080, GENERAL), "a");
    // Some rows start hidden: a filter must write every flag, not only
    // the ones it sets.
    s.apply(Op::Filter { col: KEYS, criterion: Criterion::parse(&Value::Number(3.0)) }).unwrap();
    s.set_auto_index(true);
    recalc::recalc_all(&mut s);
    assert!(s.index_store().built(TEXT).is_some(), "the text column is indexed");
    assert!(!capped || s.grid_spill_stats().spills > 0, "the capped sheet must spill");
    s
}

#[test]
fn the_sheet_puts_every_chunk_kind_under_a_range() {
    let s = build(false);
    let kinds = |col| s.grid_store().chunk_kinds(col);
    assert_eq!(kinds(NUM), ["num"; 4]);
    assert_eq!(kinds(TEXT), ["text"; 4]);
    assert_eq!(kinds(GENERAL), ["cells", "cells", "text"]);
    assert_eq!(kinds(BY_CHUNK), ["num", "text", "cells", "num"]);
    assert_eq!(kinds(JUNK), ["cells"; 4]);
    let capped = build(true);
    assert!(capped.grid_store().chunk_kinds(TEXT).contains(&"spilled"));
}

/// Ranges that start and end mid-chunk, on and around the first chunk
/// boundary, cover one chunk exactly, one cell, the whole sheet and more,
/// and nothing at all.
fn ranges() -> Vec<Range> {
    [
        "A1:F3200",
        "A1:Z9999",
        "A500:F2500",
        "A1:F1023",
        "A1:F1024",
        "A1:F1025",
        "A1024:F1024",
        "A1024:F1025",
        "A1025:F2048",
        "A1026:F3200",
        "B2:B2",
        "C1:C3200",
        "B1000:C2100",
        "C2049:C3072",
        "J1:K3200",
        "A4000:F5000",
    ]
    .iter()
    .map(|r| Range::parse(r).unwrap())
    .collect()
}

/// What the indexed column answers, asked three ways; a posting a rewrite
/// forgot to move shows here and nowhere else.
fn index_answers(s: &Sheet) -> Vec<Value> {
    LABELS
        .iter()
        .flat_map(|label| {
            [
                format!("=COUNTIF(B1:B{ROWS},\"{label}\")"),
                format!("=COUNTIF(B1000:B2100,\"<>{label}\")"),
                format!("=MATCH(\"{label}\",B1:B{ROWS},0)"),
            ]
        })
        .chain([format!("=COUNTIF(A1:A{ROWS},\">=500\")")])
        .map(|src| s.eval_str(&src).unwrap())
        .collect()
}

/// The same answers worked out from the cells alone.
fn scanned_answers(s: &Sheet) -> Vec<Value> {
    let text = |r| s.value(CellAddr::new(r, TEXT));
    let mut out = Vec::new();
    for label in LABELS {
        // As a criterion `"1"` is the number; as a lookup key it is text.
        let (is, is_not) = (criterion(label), criterion(&format!("<>{label}")));
        let count = (0..ROWS).filter(|&r| is.matches(&text(r))).count();
        let others = (999..2100).filter(|&r| is_not.matches(&text(r))).count();
        let first = (0..ROWS).find(|&r| text(r).sheet_eq(&Value::text(label)));
        out.push(Value::from(count));
        out.push(Value::from(others));
        out.push(first.map_or(Value::Error(CellError::Na), |r| Value::from(r + 1)));
    }
    let big = (0..ROWS).filter(|&r| s.value(CellAddr::new(r, NUM)).as_number() >= Some(500.0));
    out.push(Value::from(big.count()));
    out
}

/// One op, the shipped way and the reference way.
#[derive(Debug, Clone)]
enum Case {
    Filter(u32, Criterion),
    Pivot(u32, u32, PivotAgg),
    Find(Range, &'static str),
    Replace(Range, &'static str, &'static str),
    Format(Range, Criterion, Color),
}

fn criterion(text: &str) -> Criterion {
    Criterion::parse(&Value::text(text))
}

impl Case {
    /// Applies the case to `got` through `Sheet::apply` (or the public
    /// query) and to `want` through the reference; the two must report
    /// the same outcome and charge the same counts.
    fn run(&self, got: &mut Sheet, want: &mut Sheet, what: &str) {
        let before = (got.meter().snapshot(), want.meter().snapshot());
        match self.clone() {
            Case::Filter(col, criterion) => {
                let visible = filter::filter_rows_reference(want, col, &criterion);
                let out = got.apply(Op::Filter { col, criterion });
                assert_eq!(out, Ok(OpOutcome::Filtered { visible }), "{}", what);
            }
            Case::Pivot(dim_col, measure_col, agg) => {
                let table = pivot::pivot_reference(want, dim_col, measure_col, agg);
                let out = got.apply(Op::Pivot { dim_col, measure_col, agg });
                assert_eq!(out, Ok(OpOutcome::Pivoted(table.clone())), "{}", what);
                assert_eq!(pivot::pivot(got, dim_col, measure_col, agg), table, "{}", what);
                pivot::pivot_reference(want, dim_col, measure_col, agg);
            }
            Case::Find(range, needle) => {
                let hits = find_replace::find_all_reference(want, range, needle);
                assert_eq!(find_replace::find_all(got, range, needle), hits, "{}", what);
            }
            Case::Replace(range, needle, replacement) => {
                let cells = find_replace::find_replace_reference(want, range, needle, replacement);
                let (needle, replacement) = (needle.to_owned(), replacement.to_owned());
                let out = got.apply(Op::FindReplace { range, needle, replacement });
                assert_eq!(out, Ok(OpOutcome::Replaced { cells }), "{}", what);
            }
            Case::Format(range, criterion, fill) => {
                let cells =
                    cond_format::conditional_format_reference(want, range, &criterion, fill);
                let out = got.apply(Op::CondFormat { range, criterion, fill });
                assert_eq!(out, Ok(OpOutcome::Formatted { cells }), "{}", what);
            }
        }
        let charged = |s: &Sheet, before: &Counts| s.meter().snapshot().since(before);
        assert_eq!(charged(got, &before.0), charged(want, &before.1), "{}: charges", what);
    }
}

/// Runs `cases` in order on a sheet and its twin, comparing all that is
/// observable after each, and once more after the recalculation that
/// follows (a replaced text is read by column C's formulas).
fn check(capped: bool, cases: &[Case]) {
    let (mut got, mut want) = (build(capped), build(capped));
    for case in cases {
        let what = format!("capped={capped} {case:?}");
        case.run(&mut got, &mut want, &what);
        compare(&got, &want, &what);
        assert_eq!(index_answers(&got), scanned_answers(&got), "{}: index answers", what);
        // The probes above are charged to the meter; keep the twins even.
        index_answers(&want);
    }
    recalc::recalc_all(&mut got);
    recalc::recalc_all(&mut want);
    compare(&got, &want, &format!("capped={capped} {cases:?}, recalculated"));
}

/// Each case on a fresh sheet, with and without the budget.
fn check_each(cases: &[Case]) {
    for case in cases {
        for capped in [false, true] {
            check(capped, std::slice::from_ref(case));
        }
    }
}

#[test]
fn filter_matches_the_row_at_a_time_scan() {
    let criteria = ["SD", "<>SD", "st*", "<>x", "1", "=1", ">=500", "<2.5", "TRUE", "<>"];
    let mut cases = Vec::new();
    for col in [NUM, TEXT, GENERAL, BY_CHUNK, JUNK, KEYS, PAST] {
        cases.extend(criteria.iter().map(|c| Case::Filter(col, criterion(c))));
        // Only an empty cell equals the empty value.
        cases.push(Case::Filter(col, Criterion::parse(&Value::Empty)));
    }
    check_each(&cases);
}

#[test]
fn pivot_matches_the_row_at_a_time_scan() {
    const AGGS: [PivotAgg; 5] =
        [PivotAgg::Sum, PivotAgg::Count, PivotAgg::Average, PivotAgg::Min, PivotAgg::Max];
    let mut cases = Vec::new();
    // `SD`/`sd` and `1`/`"1"` are one group each (B, D); `0.0` and `-0.0`
    // display alike (F); C's keys are cached formula results, bools, and
    // a vacant chunk; E's measures have texts and errors among them.
    for dim in [TEXT, BY_CHUNK, KEYS, GENERAL, JUNK, PAST] {
        for measure in [NUM, JUNK] {
            cases.extend(AGGS.map(|agg| Case::Pivot(dim, measure, agg)));
        }
        cases.push(Case::Pivot(dim, TEXT, PivotAgg::Sum));
        cases.push(Case::Pivot(dim, PAST, PivotAgg::Count));
    }
    check_each(&cases);
    // The merged groups are there, under the key that came first.
    let s = build(false);
    let table = pivot::pivot(&s, BY_CHUNK, NUM, PivotAgg::Count);
    let keys: Vec<&Value> = table.groups.iter().map(|(key, _, _)| key).collect();
    assert!(keys.contains(&&Value::Number(1.0)) && !keys.contains(&&Value::text("1")), "{keys:?}");
    assert!(keys.contains(&&Value::text("SD")) && !keys.contains(&&Value::text("sd")), "{keys:?}");
}

#[test]
fn find_matches_the_cell_at_a_time_scan() {
    let mut cases = Vec::new();
    for range in ranges() {
        cases.extend(["storm", "a", "1", "S", "TORNADO", ""].map(|n| Case::Find(range, n)));
    }
    check_each(&cases);
}

#[test]
fn replace_matches_find_then_set_value_per_hit() {
    // A needle inside its replacement, a replacement that is already
    // interned, one that is not, an empty one, a needle equal to its
    // replacement (every hit is still a write), one that is absent.
    let pairs = [
        ("a", "aa"),
        ("storm", "STORM"),
        ("storm", "gale"),
        ("item1", ""),
        ("SD", "SD"),
        ("TORNADO", "x"),
        ("", "x"),
    ];
    let mut cases = Vec::new();
    for range in ranges() {
        cases.extend(pairs.map(|(needle, replacement)| Case::Replace(range, needle, replacement)));
    }
    check_each(&cases);
}

#[test]
fn conditional_format_matches_the_cell_at_a_time_pass() {
    let criteria = [">1000", ">=0", "storm", "<>x", "<>SD", "1", "st*", "TRUE", ">99999"];
    let mut cases = Vec::new();
    for range in ranges() {
        cases.extend(criteria.iter().map(|c| Case::Format(range, criterion(c), Color::GREEN)));
        cases.push(Case::Format(range, Criterion::parse(&Value::Empty), Color::BLACK));
    }
    check_each(&cases);
}

/// Fills that alternate restyle every matching cell on every pass, and a
/// different criterion in between clears what no longer matches.
#[test]
fn alternating_fills_restyle_on_every_pass() {
    let whole = Range::parse("A1:F3200").unwrap();
    let pass = |c: &str, fill| Case::Format(whole, criterion(c), fill);
    let cases = [
        pass(">700", Color::GREEN),
        pass(">700", Color::BLACK),
        pass(">700", Color::GREEN),
        pass("<>x", Color::GREEN),
        pass("storm", Color::GREEN),
        pass(">99999", Color::GREEN),
    ];
    for capped in [false, true] {
        check(capped, &cases);
    }
}

/// A pass that matches nothing leaves typed chunks typed — and spilled
/// ones on their pages; one that matches turns only the chunks it matched
/// in into general cells.
#[test]
fn a_pass_that_matches_nothing_leaves_typed_chunks_typed() {
    let format = |s: &mut Sheet, range: &str, c: &str| {
        let range = Range::parse(range).unwrap();
        s.apply(Op::CondFormat { range, criterion: criterion(c), fill: Color::GREEN }).unwrap()
    };
    let mut s = build(false);
    assert_eq!(format(&mut s, "A1:B3200", ">99999"), OpOutcome::Formatted { cells: 0 });
    assert_eq!(s.grid_store().chunk_kinds(NUM), ["num"; 4]);
    assert_eq!(s.grid_store().chunk_kinds(TEXT), ["text"; 4]);
    // Matches in A's last two chunks only.
    let matching = (2401..ROWS).filter(|r| r % 97 != 13).count() as u32;
    assert_eq!(format(&mut s, "A1:B3200", ">1200"), OpOutcome::Formatted { cells: matching });
    assert_eq!(s.grid_store().chunk_kinds(NUM), ["num", "num", "cells", "cells"]);
    assert_eq!(s.grid_store().chunk_kinds(TEXT), ["text"; 4]);

    let mut s = build(true);
    let before = (s.grid_store().chunk_kinds(NUM), s.grid_store().chunk_kinds(TEXT));
    let loads = s.grid_spill_stats().loads;
    format(&mut s, "A1:B3200", ">99999");
    assert_eq!((s.grid_store().chunk_kinds(NUM), s.grid_store().chunk_kinds(TEXT)), before);
    assert_eq!(s.grid_spill_stats().loads, loads, "a read-only pass loads no page");
}

/// A replace loads a spilled text page only if the page holds a hit, and
/// never a page of numbers.
#[test]
fn replace_loads_only_the_pages_it_rewrites() {
    let mut s = build(true);
    let loads = s.grid_spill_stats().loads;
    let whole = Range::parse("A1:F3200").unwrap();
    let replace = |needle: &str, replacement: &str| Op::FindReplace {
        range: whole,
        needle: needle.to_owned(),
        replacement: replacement.to_owned(),
    };
    assert_eq!(s.apply(replace("TORNADO", "x")), Ok(OpOutcome::Replaced { cells: 0 }));
    assert_eq!(s.grid_spill_stats().loads, loads, "an absent needle loads no page");
    // Only B's four chunks hold the needle.
    s.apply(replace("banana", "mango")).unwrap();
    assert!(s.grid_spill_stats().loads - loads <= 4, "pages without a hit stay spilled");
    s.validate_grid();
    assert!(s.grid_resident_bytes() <= BUDGET);
}

/// The memo is O(range): a short range on a sheet with many distinct texts
/// must not size a table by the interner.
#[test]
fn a_memo_never_holds_more_slots_than_the_op_reads_cells() {
    let mut memo = crate::grid::IdMemo::for_cells(3);
    let mut asked = 0;
    for id in [2, 90_000, 2, 90_000, u32::MAX] {
        memo.get(id, || asked += 1);
    }
    // Id 2 was remembered; the ids past the cap were decided every time.
    assert_eq!(asked, 4);
}

/// Random sequences of the four ops over random ranges: a replace meets
/// the fills and the rewritten texts an earlier case left.
#[test]
fn sequences_of_scan_ops_match_their_references() {
    const NEEDLES: [(&str, &str); 6] = [
        ("a", "aa"), ("storm", "STORM"), ("STORM", "x"), ("item1", ""), ("s", "S"), ("1", "one"),
    ];
    const CRITERIA: [&str; 7] = ["SD", "<>x", ">=600", "<3", "st*", "1", "<>"];
    const COLS: [u32; 7] = [NUM, TEXT, GENERAL, BY_CHUNK, JUNK, KEYS, PAST];
    const AGGS: [PivotAgg; 6] = [
        PivotAgg::Sum, PivotAgg::Count, PivotAgg::Average, PivotAgg::Min, PivotAgg::Max,
        PivotAgg::Sum,
    ];
    let ranges = ranges();
    cases(|rng| {
        let ops: Vec<Case> = (0..rng.random_range(1..5))
            .map(|_| {
                let range = ranges[rng.random_range(0..ranges.len())];
                let (a, b) = (rng.random_range(0..7usize), rng.random_range(0..6usize));
                match rng.random_range(0..5) {
                    0 => Case::Filter(COLS[a], criterion(CRITERIA[b])),
                    1 => Case::Pivot(COLS[a], COLS[b], AGGS[b]),
                    2 => Case::Find(range, NEEDLES[b].0),
                    3 => Case::Replace(range, NEEDLES[b].0, NEEDLES[b].1),
                    _ => {
                        let fill = [Color::GREEN, Color::BLACK][b % 2];
                        Case::Format(range, criterion(CRITERIA[a]), fill)
                    }
                }
            })
            .collect();
        check(rng.random(), &ops);
    });
}
