//! Quickstart: the spreadsheet engine's public API in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ssbench::engine::prelude::*;

fn a(s: &str) -> CellAddr {
    CellAddr::parse(s).expect("valid reference")
}

fn main() {
    // 1. Build a sheet and enter some data.
    let mut sheet = Sheet::new();
    sheet.set_value(a("A1"), "item");
    sheet.set_value(a("B1"), "price");
    sheet.set_value(a("C1"), "qty");
    for (i, (item, price, qty)) in
        [("apples", 1.20, 12), ("bread", 2.50, 2), ("coffee", 8.00, 1), ("milk", 1.10, 6)]
            .iter()
            .enumerate()
    {
        let row = i as u32 + 1;
        sheet.set_value(CellAddr::new(row, 0), *item);
        sheet.set_value(CellAddr::new(row, 1), *price);
        sheet.set_value(CellAddr::new(row, 2), *qty as i64);
    }

    // 2. Enter formulae — anything a user could type after `=`.
    sheet.set_formula_str(a("D1"), "=\"total\"").unwrap();
    for row in 2..=5 {
        sheet.set_formula_str(a(&format!("D{row}")), &format!("=B{row}*C{row}")).unwrap();
    }
    sheet.set_formula_str(a("D7"), "=SUM(D2:D5)").unwrap();
    sheet.set_formula_str(a("D8"), "=IF(D7>20,\"over budget\",\"ok\")").unwrap();

    // 3. Recalculate (dependency-ordered) and read results.
    recalc::recalc_all(&mut sheet);
    println!("grand total: {}", sheet.value(a("D7")));
    println!("verdict:     {}", sheet.value(a("D8")));

    // 4. Edit one cell and recalculate only what changed.
    sheet.set_value(a("C3"), 10); // more bread
    let stats = recalc::recalc_from(&mut sheet, &[a("C3")]);
    println!("after edit:  {} (recomputed {} formulae)", sheet.value(a("D7")), stats.evaluated);

    // 5. One-shot queries without installing a formula.
    let avg = sheet.eval_str("=AVERAGE(B2:B5)").unwrap();
    let pricey = sheet.eval_str("=COUNTIF(B2:B5,\">2\")").unwrap();
    println!("avg price:   {avg}");
    println!("items > $2:  {pricey}");

    // 6. Operations: sort by price, descending.
    sheet.apply(Op::Sort { keys: vec![SortKey::desc(1)] }).unwrap();
    println!("\nsorted by price (desc):");
    for row in 0..sheet.nrows() {
        let name = sheet.value(CellAddr::new(row, 0));
        let price = sheet.value(CellAddr::new(row, 1));
        if !name.is_empty() {
            println!("  {:<8} {}", name.display(), price.display());
        }
    }

    // 7. Every primitive the engine executed was metered.
    println!("\nwork performed: {}", sheet.meter().snapshot());
}
