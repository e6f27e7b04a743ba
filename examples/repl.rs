//! A tiny interactive spreadsheet REPL over the engine.
//!
//! ```text
//! cargo run --release --example repl
//! ```
//!
//! Commands:
//! ```text
//! A1 = 42                 set a value
//! B1 = =SUM(A1:A10)       set a formula
//! ? B1                    show a cell's value and formula
//! show [rows]             render the used range (default 10 rows)
//! sort <col> [desc]       sort the sheet by a column letter
//! filter <col> <crit>     filter rows (e.g. filter B >=10); "clear" resets
//! pivot <dim> <measure>   group-by sum (column letters)
//! stats                   engine work counters
//! help / quit
//! ```

use std::io::{self, BufRead, Write};

use ssbench::engine::addr::{col_to_letters, letters_to_col};
use ssbench::engine::prelude::*;

fn main() {
    let mut sheet = Sheet::new();
    println!("ssbench spreadsheet REPL — 'help' for commands, 'quit' to exit");
    let stdin = io::stdin();
    let mut line = String::new();
    loop {
        print!("> ");
        io::stdout().flush().ok();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        match run_command(&mut sheet, input) {
            Ok(Reply::Quit) => break,
            Ok(Reply::Text(t)) => println!("{t}"),
            Err(e) => println!("error: {e}"),
        }
    }
}

enum Reply {
    Text(String),
    Quit,
}

fn run_command(sheet: &mut Sheet, input: &str) -> Result<Reply, String> {
    // Assignment: `<cell> = <value-or-formula>`
    if let Some((lhs, rhs)) = input.split_once('=') {
        if let Ok(addr) = CellAddr::parse(lhs.trim()) {
            let rhs = rhs.trim();
            // `set_input` auto-detects formulas (leading '='), numbers,
            // booleans, and text.
            sheet.set_input(addr, rhs).map_err(|e| e.to_string())?;
            recalc::recalc_from(sheet, &[addr]);
            if sheet.is_formula(addr) {
                if let Some(v) = recalc::eval_formula_at(sheet, addr) {
                    sheet.store_formula_result(addr, v);
                }
            }
            return Ok(Reply::Text(format!("{addr} = {}", sheet.value(addr))));
        }
    }
    let mut parts = input.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    match cmd {
        "quit" | "exit" | "q" => Ok(Reply::Quit),
        "help" => Ok(Reply::Text(
            "A1 = 42 | B1 = =SUM(A1:A10) | ? B1 | show [rows] | sort <col> [desc] | \
             filter <col> <crit> | filter clear | pivot <dim> <measure> | stats | quit"
                .to_owned(),
        )),
        "?" => {
            let addr = CellAddr::parse(parts.next().ok_or("usage: ? <cell>")?)
                .map_err(|e| e.to_string())?;
            Ok(Reply::Text(format!(
                "{addr}: {}  [{}]",
                sheet.value(addr),
                sheet.input_text(addr)
            )))
        }
        "show" => {
            let rows: u32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
            Ok(Reply::Text(render(sheet, rows)))
        }
        "sort" => {
            let col = parse_col(parts.next().ok_or("usage: sort <col> [desc]")?)?;
            let desc = parts.next() == Some("desc");
            let key = if desc { SortKey::desc(col) } else { SortKey::asc(col) };
            sheet.apply(Op::Sort { keys: vec![key] }).map_err(|e| e.to_string())?;
            recalc::recalc_all(sheet);
            Ok(Reply::Text(format!("sorted by {}", col_to_letters(col))))
        }
        "filter" => {
            let arg = parts.next().ok_or("usage: filter <col> <crit> | filter clear")?;
            if arg == "clear" {
                sheet.apply(Op::ClearFilter).map_err(|e| e.to_string())?;
                return Ok(Reply::Text("filter cleared".to_owned()));
            }
            let col = parse_col(arg)?;
            let crit_text: String = parts.collect::<Vec<_>>().join(" ");
            if crit_text.is_empty() {
                return Err("usage: filter <col> <crit>".to_owned());
            }
            let criterion = Criterion::parse(&Value::text(crit_text));
            match sheet.apply(Op::Filter { col, criterion }) {
                Ok(OpOutcome::Filtered { visible }) => {
                    Ok(Reply::Text(format!("{visible} rows visible")))
                }
                other => Err(format!("filter: {other:?}")),
            }
        }
        "pivot" => {
            let dim = parse_col(parts.next().ok_or("usage: pivot <dim> <measure>")?)?;
            let measure = parse_col(parts.next().ok_or("usage: pivot <dim> <measure>")?)?;
            let table = pivot(sheet, dim, measure, PivotAgg::Sum);
            let mut out = String::new();
            for (key, sum, count) in &table.groups {
                out.push_str(&format!("{:<12} {:>12}  ({count} rows)\n", key.display(), sum));
            }
            Ok(Reply::Text(out))
        }
        "stats" => Ok(Reply::Text(sheet.meter().snapshot().to_string())),
        other => Err(format!("unknown command {other:?} — try 'help'")),
    }
}

fn parse_col(s: &str) -> Result<u32, String> {
    letters_to_col(s).ok_or_else(|| format!("bad column {s:?}"))
}

fn render(sheet: &Sheet, max_rows: u32) -> String {
    let Some(range) = sheet.used_range() else { return "(empty sheet)".to_owned() };
    let rows = range.rows().min(max_rows);
    let cols = range.cols().min(10);
    let mut out = String::from("      ");
    for c in 0..cols {
        out.push_str(&format!("{:>12}", col_to_letters(c)));
    }
    out.push('\n');
    for r in 0..rows {
        if sheet.is_row_hidden(r) {
            continue;
        }
        out.push_str(&format!("{:>5} ", r + 1));
        for c in 0..cols {
            let text = sheet.value(CellAddr::new(r, c)).display();
            let text = if text.len() > 11 { format!("{}…", &text[..10]) } else { text };
            out.push_str(&format!("{text:>12}"));
        }
        out.push('\n');
    }
    if range.rows() > rows {
        out.push_str(&format!("… {} more rows\n", range.rows() - rows));
    }
    out
}
