//! Differential test of the bulk load against the loop it replaced: one
//! `Sheet::set_input` per non-blank cell, row by row. The loop survives
//! only here (`load_rows_reference`), as the reference. Documents are
//! built a column at a time from the shapes a saved sheet holds — typed
//! data, data that stops being typed part-way down a chunk, and fill-down
//! formula columns whose texts differ only in what the template key must
//! and must not ignore — over enough rows to cross two chunk boundaries.

use rand::Rng;

use super::load_rows_reference;
use crate::addr::{CellAddr, Range};
use crate::error::EngineError;
use crate::sheet::Sheet;
use crate::testing::cases;
use crate::{analyze, audit, recalc};

const BUDGET: usize = 32 * 1024;

/// Cell texts no column of one shape would hold: every classifier rule
/// and its near misses, CSV-hostile text, one-off formulas, and the three
/// things the template key declines (a name, a coordinate past the
/// limits, a formula that names nothing known).
const ODDITIES: [&str; 24] = [
    " 3.5 ",
    "inf",
    "1e999",
    "true",
    " FALSE ",
    "#N/A",
    "#div/0!",
    "'007",
    "'",
    "say \"hi\", ok",
    "multi\nline",
    "NaN",
    "-0",
    "",
    "=1+1",
    "=SUM(A1:A3)",
    "=\"a\"\"b\"&\"c\"",
    "=#N/A",
    "=true",
    "=-A1%",
    "=SUM(Scores)",
    "=scores",
    "=A1073741825+1",
    "=IF(A1>=2,\"x\",B1)",
];

/// How many column shapes [`cell_text`] knows.
const SHAPES: u8 = 19;

/// The text of row `r` of a column of the given shape.
fn cell_text(shape: u8, r: u32, salt: u64) -> String {
    let r1 = r + 1;
    match shape {
        0 => String::new(),
        1 => (r * 7 % 1000).to_string(),
        2 => format!("{}", f64::from(r) * 0.25 + 0.125),
        3 => format!("t{}", (u64::from(r) ^ salt) % 7),
        4 => ODDITIES[((u64::from(r) + salt) % ODDITIES.len() as u64) as usize].to_owned(),
        // A header row of text over a numeric column.
        5 if r == 0 => "header".to_owned(),
        5 => r.to_string(),
        // A sparse column: one cell in a hundred.
        6 if u64::from(r % 100) == salt % 100 => r.to_string(),
        6 => String::new(),
        // Typed for most of a chunk, then not.
        7 if r % 1024 == 700 => "late text".to_owned(),
        7 => r.to_string(),
        8 => (r % 2 == 0).to_string(),
        // Fill-down runs: same row, previous row, sliding window, pinned,
        // half-pinned either way, and a literal that differs per row.
        9 => format!("=A{r1}*2+B{r1}"),
        10 if r == 0 => String::new(),
        10 => format!("=A{r}+1"),
        11 => format!("=SUM(A{}:A{r1})", r1.saturating_sub(9).max(1)),
        12 => format!("=A{r1}*$B$1"),
        13 => format!("=$A{r1}+A$1"),
        14 => format!("=A{r1}+{r1}"),
        // One template in two spellings.
        15 if r % 2 == 0 => format!("=SUM(A{r1}:B{r1})"),
        15 => format!("=sum( a{r1} : b{r1} )"),
        // Function names that read as references: the same one down the
        // column, and one whose "row" moves with the row.
        16 => format!("=LOG10(A{r1})+ATAN2(A{r1},B{r1})"),
        17 => format!("=LOG{}(A{r1})", r1 + 9),
        // One same-row reference under every pinning, cycling: texts a key
        // that dropped the `$` could not tell apart.
        _ => {
            let (col, row) = [("", ""), ("$", ""), ("", "$"), ("$", "$")][(r % 4) as usize];
            format!("={col}A{row}{r1}")
        }
    }
}

/// A document of `nrows` rows with one column per entry of `shapes`;
/// about one row in five is cut short.
fn document(nrows: u32, shapes: &[u8], salt: u64) -> Vec<Vec<String>> {
    (0..nrows)
        .map(|r| {
            let mut row: Vec<String> = shapes.iter().map(|&s| cell_text(s, r, salt)).collect();
            if (u64::from(r) + salt) % 5 == 3 {
                row.truncate(((salt >> 8) % (shapes.len() as u64 + 1)) as usize);
            }
            row
        })
        .collect()
}

/// An empty, configured sheet loaded with `rows`, one way or the other.
fn load(rows: &[Vec<String>], budget: Option<usize>, reference: bool) -> Result<Sheet, EngineError> {
    let mut s = Sheet::new();
    s.set_grid_budget(budget);
    s.define_name("Scores", Range::parse("A1:A5").unwrap()).unwrap();
    if reference {
        load_rows_reference(&mut s, rows)?;
    } else {
        s.load_rows(rows)?;
    }
    Ok(s)
}

/// Everything observable about the two sheets must agree, and the sheet
/// loaded in bulk must satisfy every invariant checker.
fn compare(got: &Sheet, want: &Sheet, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{}: extent", what);
    assert_eq!(super::save(got), super::save(want), "{}: saved document", what);
    for r in 0..got.nrows() {
        for c in 0..got.ncols() {
            let addr = CellAddr::new(r, c);
            // Content covers the value, the formula and its cached result.
            let (g, w) = (got.cell(addr).unwrap(), want.cell(addr).unwrap());
            assert_eq!(&*g, &*w, "{}: cell {}", what, addr);
            assert_eq!(got.value(addr), want.value(addr), "{}: value {}", what, addr);
            assert_eq!(got.formula_expr(addr), want.formula_expr(addr), "{}: {}", what, addr);
            assert_eq!(
                got.deps().precedents_of(addr),
                want.deps().precedents_of(addr),
                "{}: precedents of {}",
                what,
                addr
            );
        }
    }
    // One rule places a slot for both loads, so chunk for chunk the kinds
    // agree (under a budget each load spills at its own pace).
    if got.grid_budget().is_none() {
        for c in 0..got.ncols() {
            let (g, w) = (got.grid_store().chunk_kinds(c), want.grid_store().chunk_kinds(c));
            assert_eq!(g, w, "{}: chunk kinds of column {}", what, c);
        }
    }
    assert_eq!(got.formula_count(), want.formula_count(), "{}: formulas", what);
    assert_eq!(got.meter().snapshot(), want.meter().snapshot(), "{}: meter", what);
    let built =
        |s: &Sheet| s.index_store().built_cols().into_iter().map(|(c, _)| c).collect::<Vec<_>>();
    assert_eq!(built(got), built(want), "{}: built columns", what);
    for c in 0..got.ncols() {
        let holds = |s: &Sheet| s.deps().holds_formula_in(c);
        assert_eq!(holds(got), holds(want), "{}: formula in column {}", what, c);
    }
    got.validate_grid();
    if let Some(budget) = got.grid_budget() {
        assert!(got.grid_resident_bytes() <= budget, "{}: resident over budget", what);
    }
    if let Err(e) = audit::check_all(got) {
        panic!("{what}: audit: {e}");
    }
    if let Err(e) = analyze::check_sheet(got) {
        panic!("{what}: analyze: {e}");
    }
}

/// Loads `rows` both ways and compares the sheets as loaded and after the
/// recalculation an open ends with.
fn check(rows: &[Vec<String>], capped: bool, what: &str) {
    let budget = capped.then_some(BUDGET);
    let what = format!("capped={capped} {what}");
    let got = load(rows, budget, false);
    let want = load(rows, budget, true);
    let (mut got, mut want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{}: load errors", what);
            return;
        }
    };
    compare(&got, &want, &what);
    for sheet in [&mut got, &mut want] {
        sheet.set_auto_index(true);
        recalc::open_recalc(sheet);
    }
    compare(&got, &want, &format!("{what}, recalculated"));
}

/// Random documents: a few rows or a few chunks of them, any mix of column
/// shapes, unbounded and under a budget set before the load; one document
/// in eight holds a formula that does not parse, which both loads must
/// report alike.
#[test]
fn bulk_load_matches_cell_at_a_time() {
    cases(|rng| {
        let nrows = match rng.random_range(0..10) {
            0..=5 => rng.random_range(0..60),
            6 => 1023,
            7 => 1024,
            8 => 1025,
            _ => rng.random_range(1000..2500),
        };
        let shapes: Vec<u8> =
            (0..rng.random_range(1..8)).map(|_| rng.random_range(0..SHAPES)).collect();
        let salt: u64 = rng.random();
        let mut rows = document(nrows, &shapes, salt);
        let what = format!("{nrows} rows of shapes {shapes:?}, salt {salt}");
        if rng.random_range(0..8) == 0 {
            if let Some(cell) = rows.last_mut().and_then(|row| row.last_mut()) {
                *cell = "=SUM(A1".to_owned();
            }
        }
        check(&rows, rng.random(), &what);
    });
}

/// Every column shape at once, at each row count around a chunk boundary
/// and over two of them.
#[test]
fn every_shape_across_chunk_boundaries() {
    let shapes: Vec<u8> = (0..SHAPES).collect();
    for capped in [false, true] {
        for nrows in [1023, 1024, 1025, 2500] {
            let rows = document(nrows, &shapes, 41);
            check(&rows, capped, &format!("{nrows} rows"));
        }
    }
}

/// What the bulk load is for: a fill-down column costs one parse and one
/// compile, and its formulas leave the load bound.
#[test]
fn fill_down_columns_parse_and_compile_once() {
    let rows = document(300, &[1, 1, 9, 12, 15], 0);
    let formulas = rows.iter().flatten().filter(|text| text.starts_with('=')).count();
    assert!(formulas > 700, "three columns of formulas, less the rows cut short");
    let mut sheet = load(&rows, None, false).unwrap();
    assert_eq!(sheet.formula_count(), formulas);
    let tally = |s: &Sheet| (s.program_cache().misses(), s.program_cache().hits());
    assert_eq!(tally(&sheet), (3, 0));
    let mut bound = 0;
    for addr in sheet.used_range().unwrap().iter() {
        if let Some(formula) = sheet.formula_at(addr) {
            assert!(formula.program().is_some(), "{addr} left the load unbound");
            bound += 1;
        }
    }
    assert_eq!(bound, formulas);
    // So the recalculation an open ends with has nothing left to resolve.
    recalc::open_recalc(&mut sheet);
    assert_eq!(tally(&sheet), (3, 0));
}
