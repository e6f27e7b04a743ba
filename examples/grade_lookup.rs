//! The paper's motivating VLOOKUP scenario (§4.3.4): "a popular usage of
//! VLOOKUP is to look up grades from a grade table (X) for a collection of
//! scores (Y). While this operation … would take minutes in memory for
//! spreadsheets, it would take less than a second within a database."
//!
//! This example builds the grade table and a large score column, runs the
//! per-row VLOOKUPs two ways — Calc-style full scans and Excel-style
//! binary search — and prints the measured work for each. (The engine's
//! maintained column index answers *exact* lookups only; see
//! `optimization_demo` for that contrast.)
//!
//! ```text
//! cargo run --release --example grade_lookup
//! ```

use std::time::Instant;

use ssbench::engine::eval::LookupStrategy;
use ssbench::engine::prelude::*;

const STUDENTS: u32 = 50_000;

/// Grade boundaries (sorted, as VLOOKUP approximate match requires).
const GRADES: [(i64, &str); 9] =
    [(0, "F"), (55, "D"), (60, "C-"), (67, "C"), (73, "B-"), (80, "B"), (87, "A-"), (93, "A"), (98, "A+")];

fn build_sheet() -> Sheet {
    let mut sheet = Sheet::new();
    // Grade table in columns F:G (the X relation).
    for (i, (cut, grade)) in GRADES.iter().enumerate() {
        sheet.set_value(CellAddr::new(i as u32, 5), *cut);
        sheet.set_value(CellAddr::new(i as u32, 6), *grade);
    }
    // Scores in column A (the Y relation) — deterministic pseudo-random.
    for i in 0..STUDENTS {
        let score = (i.wrapping_mul(2_654_435_761) >> 7) % 101;
        sheet.set_value(CellAddr::new(i, 0), i64::from(score));
    }
    sheet
}

/// Installs `=VLOOKUP(Ai, $F$1:$G$9, 2, TRUE)` for every student.
fn install_lookups(sheet: &mut Sheet) {
    for i in 0..STUDENTS {
        let row = i + 1;
        sheet
            .set_formula_str(
                CellAddr::new(i, 1),
                &format!("=VLOOKUP(A{row},$F$1:$G$9,2,TRUE)"),
            )
            .expect("formula parses");
    }
}

fn run(label: &str, strategy: LookupStrategy) -> (u64, f64) {
    let mut sheet = build_sheet();
    install_lookups(&mut sheet);
    sheet.set_lookup_strategy(strategy);
    sheet.meter().reset();
    let t0 = Instant::now();
    recalc::recalc_all(&mut sheet);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reads = sheet.meter().snapshot().get(Primitive::CellRead);
    // Sanity: a 100-score student gets an A+.
    let sample = (0..STUDENTS)
        .find(|&i| sheet.value(CellAddr::new(i, 0)) == Value::Number(100.0))
        .map(|i| sheet.value(CellAddr::new(i, 1)).display());
    println!(
        "{label:<28} {reads:>10} cell reads   {wall_ms:>8.1} ms wall   (100 → {})",
        sample.unwrap_or_default()
    );
    (reads, wall_ms)
}

fn main() {
    println!("grade lookup over {STUDENTS} scores, 9-row grade table\n");

    // 1. Calc / Google Sheets: every VLOOKUP scans the whole grade table.
    let (scan_reads, _) = run("full scan (Calc, Sheets)", LookupStrategy::FullScan);

    // 2. Excel with Sorted=TRUE: binary search per lookup.
    let (bin_reads, _) = run("binary search (Excel)", LookupStrategy::StopEarly);

    println!(
        "\nscan/binary read ratio: {:.0}x fewer reads with binary search",
        scan_reads as f64 / bin_reads as f64
    );
}
