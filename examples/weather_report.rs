//! Analyzing the paper's weather dataset (§3.2) with the public API:
//! conditional aggregates, filtering, a pivot table, and conditional
//! formatting — the exact operations the BCT benchmark measures, used the
//! way a real analyst would.
//!
//! ```text
//! cargo run --release --example weather_report
//! ```

use ssbench::engine::prelude::*;
use ssbench::workload::schema::*;
use ssbench::workload::{build_sheet, Variant};

const ROWS: u32 = 50_000; // the original survey spreadsheet's size

fn main() {
    println!("building the {ROWS}-row weather spreadsheet (Formula-value)…");
    let mut sheet = build_sheet(ROWS, Variant::FormulaValue);
    println!(
        "  {} rows × {} cols, {} embedded COUNTIF formulae\n",
        sheet.nrows(),
        sheet.ncols(),
        sheet.formula_count()
    );

    // --- aggregates over the formula column (Fig 7's operation) -------
    let storms = sheet.eval_str(&format!("=COUNTIF(K1:K{ROWS},1)")).unwrap();
    let total_events: f64 = (0..NUM_FORMULA_COLS)
        .map(|j| {
            let col = ssbench::engine::addr::col_to_letters(FORMULA_COL_START + j);
            sheet
                .eval_str(&format!("=COUNTIF({col}1:{col}{ROWS},1)"))
                .unwrap()
                .coerce_number()
                .unwrap()
        })
        .sum();
    println!("rows with a STORM event:   {storms}");
    println!("total keyword events:      {total_events}");

    // --- pivot: storms per state (Fig 6's operation) -------------------
    let table = pivot(&sheet, STATE_COL, MEASURE_COL, PivotAgg::Sum);
    let mut top: Vec<_> = table.groups.clone();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 5 states by storm count:");
    for (state, sum, rows) in top.iter().take(5) {
        println!("  {:<4} {:>8} storms over {rows} days", state.display(), sum);
    }

    // --- filter to South Dakota (Fig 5's operation) ---------------------
    let criterion = Criterion::parse(&Value::text(FILTER_STATE));
    let Ok(OpOutcome::Filtered { visible }) = sheet.apply(Op::Filter { col: STATE_COL, criterion })
    else {
        unreachable!("a filter reports the rows it left visible")
    };
    println!("\nfilter state = {FILTER_STATE}: {visible} rows visible of {ROWS}");
    sheet.apply(Op::ClearFilter).unwrap();

    // --- conditional formatting (Fig 4's operation) ---------------------
    let rule = Op::CondFormat {
        range: Range::column_segment(FORMULA_COL_START, 0, ROWS - 1),
        criterion: Criterion::parse(&Value::Number(1.0)),
        fill: Color::GREEN,
    };
    let Ok(OpOutcome::Formatted { cells }) = sheet.apply(rule) else {
        unreachable!("a conditional format reports the cells it filled")
    };
    println!("conditional formatting: {cells} cells colored green");

    // --- a lookup (Fig 8's operation) -----------------------------------
    let key = ROWS / 2;
    let state = sheet
        .eval_str(&format!("=VLOOKUP({key},A1:B{ROWS},2,FALSE)"))
        .unwrap();
    println!("state of row {key}: {state}");

    // --- what all of that cost, in engine primitives --------------------
    println!("\nengine work for this session:\n  {}", sheet.meter().snapshot());
}
