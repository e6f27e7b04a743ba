//! Validates the reproduced Table 2 against the paper's published values.
//!
//! Violations happen at *absolute* row counts (the cost model depends on
//! actual data sizes, not on the sweep grid), so a sweep at scale 0.2
//! must detect each crossing at the same absolute place — just reported
//! on the finer scaled grid. The default test checks exactly that; the
//! `--ignored` test runs the paper's full grid (minutes, release).

use ssbench::harness::table2::{self, Table2Cell};
use ssbench::harness::{Protocol, RunConfig};
use ssbench::systems::{ScalabilityLimit, SystemKind};
use ssbench::workload::Variant;

/// The paper's three systems — Table 2 as published covers only these;
/// the reproduced table may carry extra registered columns (Optimized).
const PAPER_TRIO: [SystemKind; 3] = [SystemKind::Excel, SystemKind::Calc, SystemKind::GSheets];

/// The paper's Table 2 as violation row counts (None = never violated).
/// Two cells knowingly deviate from the paper's self-inconsistent values
/// (see EXPERIMENTS.md): Sheets sort/F (paper 10k; physically it cannot
/// exceed V's 6k) and Calc pivot/V (paper 33%; ours is symmetric at 34%).
fn paper_violation_rows(op: &str, variant: Variant, sys: SystemKind) -> Option<Option<u32>> {
    use SystemKind::*;
    use Variant::*;
    let v = match (op, variant, sys) {
        ("Open", _, Excel) => Some(6_000),
        ("Open", _, Calc | GSheets) => Some(150),
        ("Sort", FormulaValue, Excel) => Some(10_000),
        ("Sort", FormulaValue, Calc) => Some(6_000),
        ("Sort", FormulaValue, GSheets) => Some(6_000), // * paper: 10k
        ("Sort", ValueOnly, Excel) => Some(70_000),
        ("Sort", ValueOnly, Calc) => Some(10_000),
        ("Sort", ValueOnly, GSheets) => Some(6_000),
        ("Conditional Formatting", FormulaValue, Excel) => None,
        ("Conditional Formatting", FormulaValue, Calc) => Some(80_000),
        ("Conditional Formatting", FormulaValue, GSheets) => Some(50_000),
        ("Conditional Formatting", ValueOnly, _) => None,
        ("Filter", FormulaValue, Excel) => Some(40_000),
        ("Filter", FormulaValue, Calc) => Some(120_000),
        ("Filter", FormulaValue, GSheets) => Some(10_000),
        ("Filter", ValueOnly, Excel) => None,
        ("Filter", ValueOnly, Calc) => Some(200_000),
        ("Filter", ValueOnly, GSheets) => Some(20_000),
        ("Pivot Table", FormulaValue, Excel) => Some(50_000),
        ("Pivot Table", FormulaValue, Calc) => Some(340_000),
        ("Pivot Table", FormulaValue, GSheets) => Some(10_000),
        ("Pivot Table", ValueOnly, Excel) => Some(50_000),
        ("Pivot Table", ValueOnly, Calc) => Some(340_000), // * paper: 330k
        ("Pivot Table", ValueOnly, GSheets) => Some(20_000),
        ("COUNTIF", FormulaValue, Excel) => None,
        ("COUNTIF", FormulaValue, Calc) => Some(110_000),
        ("COUNTIF", FormulaValue, GSheets) => Some(10_000),
        ("COUNTIF", ValueOnly, Excel | Calc) => None,
        ("COUNTIF", ValueOnly, GSheets) => Some(10_000),
        ("VLOOKUP", FormulaValue, _) => return None, // not run
        ("VLOOKUP", ValueOnly, Excel) => None,
        ("VLOOKUP", ValueOnly, Calc) => Some(50_000),
        ("VLOOKUP", ValueOnly, GSheets) => Some(70_000),
        _ => unreachable!("unknown cell {op}/{variant:?}/{sys:?}"),
    };
    Some(v)
}

/// Converts a Table-2 percentage back to the violation row count.
fn pct_to_rows(sys: SystemKind, pct: f64) -> u32 {
    match sys.scalability_limit() {
        ScalabilityLimit::Rows(limit) => (pct / 100.0 * limit as f64).round() as u32,
        ScalabilityLimit::Cells(limit) => (pct / 100.0 * limit as f64 / 17.0).round() as u32,
    }
}

/// The largest paper-grid point strictly below `g` (0 when `g` is the
/// first point).
fn prev_paper_grid(g: u32) -> u32 {
    let mut prev = 0;
    for s in ssbench::workload::sample_sizes() {
        if s >= g {
            break;
        }
        prev = s;
    }
    prev
}

/// The smallest point of `grid` that is ≥ `g` (None when off the end).
fn ceil_on_grid(grid: &[u32], g: u32) -> Option<u32> {
    grid.iter().copied().find(|&s| s >= g)
}

/// The operation class each Table-2 row measures (for quota lookups).
fn op_class(op: &str) -> ssbench::systems::OpClass {
    use ssbench::systems::OpClass::*;
    match op {
        "Open" => Open,
        "Sort" => Sort,
        "Conditional Formatting" => CondFormat,
        "Filter" => Filter,
        "Pivot Table" => Pivot,
        "COUNTIF" => Aggregate,
        "VLOOKUP" => Lookup,
        other => unreachable!("unknown op {other}"),
    }
}

/// Validates a reproduced table computed with `cfg` against the paper
/// expectations, accounting for the sweep grid (including per-system
/// quota caps) in use.
fn check_against_paper(table: &table2::Table2, cfg: &RunConfig) {
    let mut mismatches = Vec::new();
    for (op, _) in table2::TABLE2_OPS {
        for variant in [Variant::FormulaValue, Variant::ValueOnly] {
            for sys in PAPER_TRIO {
                let Some(expected) = paper_violation_rows(op, variant, sys) else { continue };
                let cell = table.cell(op, variant, sys).expect("cell exists");
                let quota = ssbench::systems::SimSystem::new(sys).max_rows(op_class(op));
                let grid = cfg.sizes(quota);
                let sweep_max = *grid.last().unwrap();
                match (expected, cell) {
                    (None, Table2Cell::NeverViolated) => {}
                    (Some(g), Table2Cell::NeverViolated) => {
                        // Acceptable when the crossing may lie beyond this
                        // sweep's reach: the paper only brackets it in
                        // (prev_paper_grid(g), g], so a sweep that stops
                        // below g proves nothing either way.
                        if g <= sweep_max {
                            mismatches.push(format!(
                                "{op}/{}/{}: expected violation ≈{g}, saw none up to {sweep_max}",
                                variant.label(),
                                sys.code()
                            ));
                        }
                    }
                    (Some(g), Table2Cell::Pct(pct)) => {
                        let measured = pct_to_rows(sys, pct);
                        // The paper says the true crossing is in
                        // (prev_paper_grid(g), g]; our sweep reports the
                        // first point of its own grid ≥ the true
                        // crossing, so the acceptable window is
                        // (prev_paper_grid(g), ceil_grid(g)].
                        let lo = prev_paper_grid(g);
                        let hi = ceil_on_grid(&grid, g).unwrap_or(sweep_max);
                        if !(measured > lo && measured <= hi) {
                            mismatches.push(format!(
                                "{op}/{}/{}: expected crossing in ({lo}, {hi}], measured {measured}",
                                variant.label(),
                                sys.code()
                            ));
                        }
                    }
                    (exp, got) => mismatches.push(format!(
                        "{op}/{}/{}: expected {exp:?}, got {got:?}",
                        variant.label(),
                        sys.code()
                    )),
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "Table 2 mismatches (scale {}):\n{}\nreproduced:\n{table}",
        cfg.scale,
        mismatches.join("\n")
    );
}

/// Scaled sweep: every reachable violation lands at the paper's absolute
/// crossing. It sweeps only the systems it checks: the paper's three.
#[test]
fn table2_crossings_at_reduced_scale() {
    let mut cfg = RunConfig::full();
    cfg.systems = PAPER_TRIO.to_vec();
    cfg.scale = 0.2;
    cfg.protocol = Protocol { trials: 3, trim: 1 };
    cfg.stop_after_violation = Some(1);
    let (table, _) = table2::compute(&cfg);
    check_against_paper(&table, &cfg);
}

/// Full-scale Table-2 reproduction — the paper's exact grid. Run with
/// `cargo test --release --test table2_reproduction -- --ignored`.
#[test]
#[ignore = "full paper-scale sweep; takes minutes — run with --ignored in release"]
fn table2_full_scale() {
    let mut cfg = RunConfig::full();
    cfg.stop_after_violation = Some(1);
    let (table, _) = table2::compute(&cfg);
    check_against_paper(&table, &cfg);
}
