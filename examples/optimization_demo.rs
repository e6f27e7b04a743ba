//! Naive vs optimized, side by side, over the same data: the engine's
//! maintained column indexes on the wall clock, then the Optimized profile
//! against Excel's in simulated milliseconds: a find, a single-cell edit
//! and a cumulative-sum recalculation, each through the same `SimSystem`
//! call for both profiles. The Optimized one differs only by its `indexed`
//! policy.
//!
//! ```text
//! cargo run --release --example optimization_demo
//! ```

use std::time::Instant;

use ssbench::engine::prelude::*;
use ssbench::systems::{SimSystem, SystemKind};
use ssbench::workload::schema::*;
use ssbench::workload::{build_sheet, Variant};

const ROWS: u32 = 200_000;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn line(name: &str, naive_ms: f64, opt_ms: f64) {
    let speedup = naive_ms / opt_ms.max(1e-6);
    println!("{name:<38} {naive_ms:>9.2} ms → {opt_ms:>9.3} ms   ({speedup:>7.0}×)");
}

/// `Bi = SUM(A1:Ai)` over `A = 1..=m` — the §5.3 cumulative family.
fn cumulative_sheet(m: u32) -> Sheet {
    let mut s = Sheet::new();
    s.ensure_size(m, 2).unwrap();
    for i in 0..m {
        s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
    }
    for i in 0..m {
        s.set_formula_str(CellAddr::new(i, 1), &format!("=SUM(A1:A{})", i + 1)).unwrap();
    }
    s
}

fn main() {
    println!("building {ROWS}-row Value-only weather sheet…\n");
    let sheet = build_sheet(ROWS, Variant::ValueOnly);

    // --- §5.1 maintained column indexes (engine, wall clock) --------------
    println!("{:<38} {:>12} {:>14}", "engine column index (wall clock)", "scan", "probe");
    let mut indexed = build_sheet(ROWS, Variant::ValueOnly);
    indexed.set_auto_index(true);
    indexed.ensure_indexes(); // built once, maintained across edits
    let key = f64::from(ROWS - 5);
    for (name, src) in [
        ("COUNTIF (§5.1)", format!("=COUNTIF(K1:K{ROWS},1)")),
        ("exact VLOOKUP (§5.1)", format!("=VLOOKUP({key},A1:B{ROWS},2,FALSE)")),
    ] {
        let (naive_v, naive_ms) = timed(|| sheet.eval_str(&src).unwrap());
        let (opt_v, opt_ms) = timed(|| indexed.eval_str(&src).unwrap());
        assert_eq!(naive_v, opt_v);
        line(name, naive_ms, opt_ms);
    }

    // --- the Optimized profile vs Excel's (simulated ms) ------------------
    println!("\n{:<38} {:>12} {:>14}", "SimSystem (simulated ms)", "Excel", "Optimized");
    let excel = SimSystem::new(SystemKind::Excel);
    let opt = SimSystem::new(SystemKind::Optimized);
    let mut naive_sheet = build_sheet(ROWS, Variant::ValueOnly);
    let mut opt_sheet = build_sheet(ROWS, Variant::ValueOnly);

    // §5.1.2: an absent needle costs a probe per distinct text, not a read
    // per cell.
    let (hits, naive_ms) = excel.find_replace(&mut naive_sheet, "NOSUCHTOKEN", "x");
    let (opt_hits, opt_ms) = opt.find_replace(&mut opt_sheet, "NOSUCHTOKEN", "x");
    assert_eq!((hits, opt_hits), (0, 0));
    line("text dictionary: absent find (§5.1.2)", naive_ms, opt_ms);

    // §5.5 a single-cell edit: Excel rescans the COUNTIF, the Optimized
    // profile's maintained index answers it in probes.
    let cell = CellAddr::new(0, 20);
    let edit = CellAddr::new(1, MEASURE_COL);
    for s in [&mut naive_sheet, &mut opt_sheet] {
        s.set_formula_str(cell, &format!("=COUNTIF(J1:J{ROWS},1)")).unwrap();
        recalc::recalc_all(s);
    }
    let naive_ms = excel.update_cell(&mut naive_sheet, edit, Value::Number(0.0));
    let opt_ms = opt.update_cell(&mut opt_sheet, edit, Value::Number(0.0));
    assert_eq!(naive_sheet.value(cell), opt_sheet.value(cell));
    line("update: single-cell edit (§5.5)", naive_ms, opt_ms);

    // §5.3: the delta cache slides each SUM's window from the one before,
    // and the Optimized profile is charged the slide.
    let m = 20_000u32;
    let mut naive_cum = cumulative_sheet(m);
    let naive_ms = excel.recalc_embedded(&mut naive_cum);
    let mut shared_cum = cumulative_sheet(m);
    let opt_ms = opt.recalc_embedded(&mut shared_cum);
    assert_eq!(
        naive_cum.value(CellAddr::new(m - 1, 1)),
        shared_cum.value(CellAddr::new(m - 1, 1))
    );
    line(&format!("shared: {m} cumulative sums (§5.3)"), naive_ms, opt_ms);
}
