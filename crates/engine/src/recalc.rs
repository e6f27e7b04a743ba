//! The recalculation engine.
//!
//! Spreadsheets keep formula results materialized and recompute them when
//! inputs change. The two entry points mirror what the benchmarked systems
//! do:
//!
//! * [`recalc_all`] — full recalculation of every formula, in dependency
//!   order (what happens on open, §4.1, and what the systems fall back to
//!   after operations like sort, §4.2.1);
//! * [`recalc_from`] — dirty-set recalculation after specific cells
//!   changed. Crucially, each dirty formula is recomputed **from
//!   scratch** — a formula over an m-cell range costs O(m) even for a
//!   single-cell edit. That is the paper's §5.5 finding. Every system's
//!   `SimSystem::update_cell` is `set_value` plus this pass; with column
//!   indexes on, a recomputed `COUNTIF` is a few probes instead of a scan.
//!
//! Both evaluate formulae one way — compiled R1C1-template programs on
//! the VM, with range kernels and a sliding window-delta cache
//! ([`crate::compile`]) — and so do one-shot queries
//! ([`Sheet::eval_str`], [`Sheet::eval_expr`]; DESIGN.md §20).
//! [`recalc_reference`] walks the same plans with the tree-walking
//! interpreter; it is what tests and the differential oracle compare the
//! shipped passes against, not a mode of the engine, and the interpreter's
//! only caller outside tests and the interpreter itself (`scripts/check.sh`
//! keeps it so).
//!
//! Both entry points run the same sequential executor: the [`DirtyPlan`]
//! stratifies formulae into topological levels, and each level is
//! evaluated in plan order, one formula at a time, with the values it
//! stores visible to the next level. Within a level no formula reads
//! another's result, which is what lets one window-delta cache slide
//! across the whole level. The benchmarked systems recalculate on one
//! thread, and so does this engine.
//!
//! Excel "first determines a calculation sequence" on open (§4.1) and
//! keeps it, its calc chain, for later passes. So does this engine: the
//! full plan is kept on the [`DepGraph`](crate::depgraph::DepGraph) as
//! its *calc chain*, dropped by any change to the graph, and
//! [`recalc_all`] lends it out instead of ordering every formula again. A
//! dirty pass plans its dirty set afresh, and [`recalc_reference`] never
//! reads or writes the chain.

use crate::addr::{CellAddr, Range};
use crate::cell::Formula;
use crate::compile::{vm, Program};
use crate::depgraph::DirtyPlan;
use crate::error::CellError;
use crate::eval::evaluate;
use crate::meter::Primitive;
use crate::sheet::Sheet;
use crate::trace::{Category, Span};
use crate::value::Value;

/// Summary of one recalculation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecalcStats {
    /// Formulae evaluated.
    pub evaluated: usize,
    /// Formulae marked `#CIRC!`: the members of a dependency cycle (a
    /// formula downstream of one is evaluated and counted in `evaluated`).
    pub cyclic: usize,
}

/// Evaluates the formula at `addr` against the sheet's current state and
/// returns its value; `None` when the cell is not a formula. One-shot:
/// every aggregate window is scanned in full (no delta cache to slide).
pub fn eval_formula_at(sheet: &Sheet, addr: CellAddr) -> Option<Value> {
    eval_formula_with(sheet, addr, None)
}

/// Like [`eval_formula_at`], optionally sliding a delta cache across
/// overlapping aggregate windows.
fn eval_formula_with(
    sheet: &Sheet,
    addr: CellAddr,
    delta: Option<&mut vm::DeltaCache>,
) -> Option<Value> {
    let formula = sheet.formula_at(addr)?;
    let ctx = sheet.eval_ctx(addr);
    sheet.meter().tick(Primitive::FormulaEval);
    Some(vm::run_with(bound_program(sheet, formula, addr), &ctx, sheet.grid_store(), delta))
}

/// The program the formula at `addr` runs: its binding, resolved through
/// the sheet's template map (normalize, look up, compile on first sight of
/// the template) the first time and read from the cell ever after.
fn bound_program<'a>(sheet: &Sheet, formula: &'a Formula, addr: CellAddr) -> &'a Program {
    formula.program_or_bind(|| sheet.program_cache().get_or_compile(&formula.expr, addr))
}

/// A stateful evaluation handle for driving formula-at-a-time evaluation
/// over an *unchanging* sheet — the shape of `benchmark/`'s
/// `recalc.eval_ns_per_formula` probe, its one caller outside tests —
/// carrying a [`vm::DeltaCache`] from call to call so consecutive
/// overlapping aggregate windows slide instead of rescanning.
///
/// # Staleness contract
///
/// The cache assumes the cells under previously-evaluated windows have not
/// changed. Writing to the sheet between calls voids that assumption —
/// drop the session and start a new one after any mutation. (The recalc
/// executor manages its own per-level caches; this type is for external
/// drivers of [`eval_formula_at`]-style loops.)
pub struct EvalSession<'a> {
    sheet: &'a Sheet,
    delta: vm::DeltaCache,
}

impl<'a> EvalSession<'a> {
    /// A session over `sheet`.
    pub fn new(sheet: &'a Sheet) -> EvalSession<'a> {
        EvalSession { sheet, delta: vm::DeltaCache::new() }
    }

    /// Evaluates the formula at `addr`; `None` when the cell is not a
    /// formula. Identical values to [`eval_formula_at`], potentially much
    /// faster on sliding windows, and identical meter counts unless the
    /// sheet is auto-indexed, where a slid window charges only its slide.
    pub fn eval(&mut self, addr: CellAddr) -> Option<Value> {
        eval_formula_with(self.sheet, addr, Some(&mut self.delta))
    }
}

/// Executes a plan: marks its cycle members, then evaluates level by
/// level, each formula binding its program on first evaluation. The trace
/// is one `recalc` span wrapping one `level` span per topological level;
/// within a level the formulas are visited in `plan.order`.
fn run_plan(sheet: &mut Sheet, plan: &DirtyPlan, pass: &'static str) -> RecalcStats {
    let span = Span::open_metered(
        Category::Recalc,
        || format!("{pass} ({} formulas, {} levels)", plan.order.len(), plan.level_count()),
        sheet.meter(),
    );
    mark_cycles(sheet, plan);
    let pin_budget = sheet.grid_budget();
    for k in 0..plan.level_count() {
        let level = plan.level(k);
        // Under a grid memory cap, pin the chunks under the level's read
        // windows before evaluating it, so the clock evictor spills cold
        // chunks instead of thrashing the wave's own working set. A
        // sampled prefix of the level bounds the bookkeeping; pinning is
        // capped at half the budget so the evictor always has headroom.
        if let Some(budget) = pin_budget {
            let mut ranges: Vec<Range> = Vec::new();
            'sample: for &addr in level.iter().take(256) {
                if let Some(prec) = sheet.deps().precedents_of(addr) {
                    for &r in &prec.ranges {
                        if !ranges.contains(&r) {
                            ranges.push(r);
                        }
                        if ranges.len() >= 64 {
                            break 'sample;
                        }
                    }
                }
            }
            if !ranges.is_empty() {
                sheet.pin_grid_windows(&ranges, budget / 2);
            }
        }
        let lspan = Span::open_metered(
            Category::Level,
            || format!("level {k} ({} formulas)", level.len()),
            sheet.meter(),
        );
        // One delta cache per level: a level's stores can never land
        // inside a same-level formula's static window — the dependency
        // edge would have stratified them apart — so within a level the
        // cache never goes stale.
        let mut cache = vm::DeltaCache::new();
        for &addr in level {
            if let Some(v) = eval_formula_with(sheet, addr, Some(&mut cache)) {
                sheet.store_formula_result(addr, v);
            }
        }
        lspan.finish_metered(sheet.meter());
        if pin_budget.is_some() {
            sheet.unpin_grid();
        }
    }
    span.finish_metered(sheet.meter());
    RecalcStats { evaluated: plan.order.len(), cyclic: plan.cyclic.len() }
}

/// Stores `#CIRC!` in the plan's cycle members. Every pass does so before
/// its levels run: a formula downstream of a cycle is in the order and
/// reads the error like any other.
fn mark_cycles(sheet: &mut Sheet, plan: &DirtyPlan) {
    for &addr in &plan.cyclic {
        sheet.store_formula_result(addr, Value::Error(CellError::Circular));
    }
}

/// The planning step every pass shares: bring maintained column indexes
/// up to date (no-op unless the sheet opted in; the build charges
/// `IndexProbe` ticks so the pass that pays for index construction is
/// visible in the meter), then order every formula (`None`) or the
/// formulae transitively affected by `changed`, precedents first. A full
/// plan is ordered afresh here; [`recalc_all`] reuses the calc chain.
fn plan(sheet: &mut Sheet, changed: Option<&[CellAddr]>) -> DirtyPlan {
    sheet.ensure_indexes();
    match changed {
        None => sheet.deps().full_order(),
        Some(cells) => sheet.deps().dirty_order(cells),
    }
}

/// Fully recalculates every formula on the sheet, precedents first. The
/// order is the dependency graph's calc chain, computed only when the
/// graph changed since the last full pass.
pub fn recalc_all(sheet: &mut Sheet) -> RecalcStats {
    sheet.ensure_indexes();
    let chain = sheet.deps_mut().take_chain();
    let stats = run_plan(sheet, &chain, "recalc_all");
    sheet.deps_mut().keep_chain(chain);
    stats
}

/// Recalculates the formulae transitively affected by changes to
/// `changed`, precedents first.
pub fn recalc_from(sheet: &mut Sheet, changed: &[CellAddr]) -> RecalcStats {
    let plan = plan(sheet, Some(changed));
    run_plan(sheet, &plan, "recalc_from")
}

/// The reference recalculation the shipped one is proven against: the same
/// plan as [`recalc_all`] (`changed: None`) or [`recalc_from`], walked
/// sequentially, each formula evaluated by the tree-walking interpreter
/// ([`crate::eval::evaluate`]) instead of a compiled program. Values and
/// meter counts are specified to be bit-identical to the shipped pass;
/// tests and the oracle hold it to that. Not a mode of
/// the engine — nothing that ships calls it.
pub fn recalc_reference(sheet: &mut Sheet, changed: Option<&[CellAddr]>) -> RecalcStats {
    let plan = plan(sheet, changed);
    mark_cycles(sheet, &plan);
    for &addr in &plan.order {
        let Some(expr) = sheet.formula_expr(addr) else { continue };
        sheet.meter().tick(Primitive::FormulaEval);
        let v = evaluate(expr, &sheet.eval_ctx(addr));
        sheet.store_formula_result(addr, v);
    }
    RecalcStats { evaluated: plan.order.len(), cyclic: plan.cyclic.len() }
}

/// The open-time pass: builds the calculation sequence (charging one
/// `DepBuild` per formula — "Excel first determines a calculation sequence
/// of the embedded formulae and then recalculates the formulae", §4.1) and
/// then fully recalculates.
pub fn open_recalc(sheet: &mut Sheet) -> RecalcStats {
    sheet.meter().bump(Primitive::DepBuild, sheet.formula_count() as u64);
    recalc_all(sheet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Primitive;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    #[test]
    fn recalc_all_orders_chains() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_formula_str(a("B1"), "=A1+1").unwrap();
        s.set_formula_str(a("C1"), "=B1+1").unwrap();
        let stats = recalc_all(&mut s);
        assert_eq!(stats.evaluated, 2);
        assert_eq!(s.value(a("C1")), Value::Number(3.0));
    }

    #[test]
    fn recalc_from_only_touches_dirty() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_value(a("A2"), 1);
        s.set_formula_str(a("B1"), "=A1+1").unwrap();
        s.set_formula_str(a("B2"), "=A2+1").unwrap();
        recalc_all(&mut s);
        s.set_value(a("A1"), 10);
        let stats = recalc_from(&mut s, &[a("A1")]);
        assert_eq!(stats.evaluated, 1);
        assert_eq!(s.value(a("B1")), Value::Number(11.0));
        assert_eq!(s.value(a("B2")), Value::Number(2.0));
    }

    #[test]
    fn single_cell_edit_recomputes_aggregate_from_scratch() {
        // The §5.5 behaviour: editing one cell under a COUNTIF re-scans the
        // whole range.
        let mut s = Sheet::new();
        for i in 0..100u32 {
            s.set_value(CellAddr::new(i, 9), 1); // column J
        }
        s.set_formula_str(a("L1"), "=COUNTIF(J1:J100,1)").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.value(a("L1")), Value::Number(100.0));
        let before = s.meter().snapshot();
        s.set_value(a("J1"), 0);
        recalc_from(&mut s, &[a("J1")]);
        let delta = s.meter().snapshot().since(&before);
        assert_eq!(s.value(a("L1")), Value::Number(99.0));
        // Full range re-scan: 100 reads, not O(1).
        assert_eq!(delta.get(Primitive::CellRead), 100);
        assert_eq!(delta.get(Primitive::FormulaEval), 1);
    }

    /// §5.3's cumulative family `Bi = SUM(A$1:Ai)` over `A = 1..=1000`: the
    /// delta cache slides each window from the one before it either way,
    /// and on an auto-indexed sheet the meter is charged the slide — one
    /// cell a formula — instead of the window, 1 + 2 + … + 1000. Over
    /// fractions a slid float sum is not exact, so every window is
    /// rescanned and charged in full, indexed or not.
    #[test]
    fn an_indexed_sheet_is_charged_the_slide_of_a_prefix_family() {
        let run = |indexed: bool, step: f64| {
            let mut s = Sheet::new();
            s.set_auto_index(indexed);
            for i in 0..1000u32 {
                s.set_value(CellAddr::new(i, 0), f64::from(i + 1) * step);
            }
            for i in 0..1000u32 {
                s.set_formula_str(CellAddr::new(i, 1), &format!("=SUM(A$1:A{})", i + 1)).unwrap();
            }
            let before = s.meter().snapshot();
            recalc_all(&mut s);
            let reads = s.meter().snapshot().since(&before).get(Primitive::CellRead);
            let values: Vec<u64> = (0..1000u32)
                .map(|i| s.value(CellAddr::new(i, 1)).as_number().unwrap().to_bits())
                .collect();
            (reads, values)
        };
        let (plain, plain_values) = run(false, 1.0);
        let (indexed, indexed_values) = run(true, 1.0);
        assert_eq!(plain, 500_500);
        assert!(indexed <= 2_000, "indexed charge {indexed}");
        assert_eq!(indexed_values, plain_values);
        let (plain, plain_values) = run(false, 0.1);
        let (indexed, indexed_values) = run(true, 0.1);
        assert_eq!((plain, indexed), (500_500, 500_500));
        assert_eq!(indexed_values, plain_values);
    }

    #[test]
    fn indexed_single_cell_edit_is_sub_linear() {
        // The optimized fourth system: with column indexes on, the same
        // §5.5 workload answers COUNTIF from the index — zero range reads,
        // a handful of probes — while producing the identical value.
        let mut s = Sheet::new();
        s.set_auto_index(true);
        for i in 0..100u32 {
            s.set_value(CellAddr::new(i, 9), 1); // column J
        }
        s.set_formula_str(a("L1"), "=COUNTIF(J1:J100,1)").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.value(a("L1")), Value::Number(100.0));
        let before = s.meter().snapshot();
        s.set_value(a("J1"), 0);
        recalc_from(&mut s, &[a("J1")]);
        let delta = s.meter().snapshot().since(&before);
        assert_eq!(s.value(a("L1")), Value::Number(99.0));
        assert_eq!(delta.get(Primitive::CellRead), 0, "no range re-scan");
        assert!(
            delta.get(Primitive::IndexProbe) <= 8,
            "probe count stays O(1): {}",
            delta.get(Primitive::IndexProbe)
        );
        assert_eq!(delta.get(Primitive::FormulaEval), 1);
    }

    #[test]
    fn cycles_become_circ_errors() {
        let shipped: fn(&mut Sheet) -> RecalcStats = recalc_all;
        for pass in [shipped, |s| recalc_reference(s, None)] {
            let mut s = Sheet::new();
            s.set_formula_str(a("A1"), "=B1+1").unwrap();
            s.set_formula_str(a("B1"), "=A1+1").unwrap();
            let stats = pass(&mut s);
            assert_eq!(stats.cyclic, 2);
            assert_eq!(s.value(a("A1")), Value::Error(CellError::Circular));
        }
    }

    /// `#CIRC!` marks the formulas on a cycle, not the ones that read one:
    /// a formula downstream of a cycle is evaluated, and an edit that
    /// dirties only it gives the value a full pass gives.
    #[test]
    fn downstream_of_a_cycle_is_the_same_after_either_pass() {
        let downstream = |on: &str, window: &str| {
            [
                format!("=IFERROR({on},0)+C1"),
                format!("={on}+C1"),
                format!("=COUNT({window})+C1"),
            ]
        };
        let mut s = Sheet::new();
        s.set_value(a("C1"), 1);
        s.set_formula_str(a("A1"), "=B1").unwrap();
        s.set_formula_str(a("B1"), "=A1").unwrap();
        s.set_formula_str(a("D1"), "=D1+1").unwrap();
        let mut cells = Vec::new();
        for (col, texts) in [(4, downstream("A1", "A1:B1")), (5, downstream("D1", "D1:D2"))] {
            for (row, text) in texts.iter().enumerate() {
                let addr = CellAddr::new(row as u32, col);
                s.set_formula_str(addr, text).unwrap();
                cells.push(addr);
            }
        }
        assert_eq!(recalc_all(&mut s), RecalcStats { evaluated: 6, cyclic: 3 });
        assert_eq!(s.value(a("E1")), Value::Number(1.0));
        assert_eq!(s.value(a("E2")), Value::Error(CellError::Circular));
        s.set_value(a("C1"), 5);
        assert_eq!(recalc_from(&mut s, &[a("C1")]), RecalcStats { evaluated: 6, cyclic: 0 });
        let after_edit: Vec<Value> = cells.iter().map(|&c| s.value(c)).collect();
        recalc_all(&mut s);
        for (&addr, kept) in cells.iter().zip(&after_edit) {
            assert_eq!(*kept, s.value(addr), "{}", addr.to_a1());
        }
        assert_eq!(s.value(a("F1")), Value::Number(5.0));
        assert_eq!(s.value(a("F3")), Value::Number(5.0));
    }

    /// An overflowing `+ − × ÷`, fold or statistic stores `#NUM!`, and
    /// a NaN that reaches `MEDIAN` or `LARGE` (planted in a formula's
    /// cache, as nothing computes one) does not abort them, in either
    /// evaluator.
    #[test]
    fn overflow_stores_num_and_nan_does_not_abort_order_statistics() {
        let shipped: fn(&mut Sheet) -> RecalcStats = recalc_all;
        let folds = [
            ("B1", "=SUM(1E308,1E308)"),
            ("B2", "=SUM(-1E308,-1E308)"),
            ("E1", "=SUM(D1:D2)"),
            ("E2", "=PRODUCT(D1,10)"),
            ("E3", "=AVERAGE(D1:D2)"),
            ("E4", "=SUMPRODUCT(D1:D2,D1:D2)"),
            ("E5", "=SUMIF(D1:D2,\">0\")"),
            ("E6", "=AVERAGEIF(D1:D2,\">0\")"),
            ("E7", "=SUMIFS(D1:D2,D1:D2,\">0\")"),
            ("E8", "=AVERAGEIFS(D1:D2,D1:D2,\">0\")"),
            ("F1", "=MEDIAN(D1:D2)"),
            ("F2", "=VAR(D1,D2,0)"),
            ("F3", "=STDEV(D1,-1E308)"),
        ];
        for pass in [shipped, |s| recalc_reference(s, None)] {
            let mut s = Sheet::new();
            s.set_value(a("D1"), 1E308);
            s.set_value(a("D2"), 1E308);
            s.set_value(a("C3"), 2.0);
            s.set_formula_str(a("A1"), "=1E308*10-1E308*10").unwrap();
            s.set_formula_str(a("B3"), "=SUM(B1:B2)").unwrap();
            for (cell, text) in folds {
                s.set_formula_str(a(cell), text).unwrap();
            }
            pass(&mut s);
            for cell in ["A1", "B3"].into_iter().chain(folds.iter().map(|&(cell, _)| cell)) {
                assert_eq!(s.value(a(cell)), Value::Error(CellError::Num), "{cell}");
            }
            assert_eq!(s.eval_str("=SUM(D1:D2)").unwrap(), Value::Error(CellError::Num));
            s.store_formula_result(a("B3"), Value::Number(f64::NAN));
            assert_eq!(s.eval_str("=MEDIAN(B3,2,3)").unwrap(), Value::Number(3.0));
            assert!(s.eval_str("=LARGE(B3:C3,1)").unwrap().as_number().is_some());
        }
    }

    /// A full pass keeps its plan as the calc chain. A value edit keeps
    /// it; a formula write, a value written over a formula, a sort and a
    /// structural edit each change the graph and drop it.
    #[test]
    fn value_edits_keep_the_calc_chain_and_graph_changes_drop_it() {
        use crate::ops::{Op, SortKey};
        let mut s = Sheet::new();
        for row in 0..20u32 {
            s.set_value(CellAddr::new(row, 0), i64::from(20 - row));
            s.set_formula_str(CellAddr::new(row, 1), &format!("=A{}*2", row + 1)).unwrap();
        }
        s.set_formula_str(a("C1"), "=SUM(B1:B20)").unwrap();
        assert!(s.deps().chain().is_none(), "no full pass yet");
        let drops: [(&str, fn(&mut Sheet)); 4] = [
            ("set_formula_str", |s| s.set_formula_str(a("D1"), "=C1+1").unwrap()),
            ("set_value over a formula", |s| s.set_value(a("D1"), 7)),
            ("Sort", |s| drop(s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).unwrap())),
            ("InsertRows", |s| drop(s.apply(Op::InsertRows { at: 5, count: 1 }).unwrap())),
        ];
        for (what, change) in drops {
            recalc_all(&mut s);
            assert_eq!(s.deps().chain(), Some(&s.deps().full_order()), "{what}");
            s.set_value(a("A3"), 100);
            recalc_from(&mut s, &[a("A3")]);
            assert!(s.deps().chain().is_some(), "a value edit keeps the chain ({what})");
            change(&mut s);
            assert!(s.deps().chain().is_none(), "{what} drops the chain");
            crate::audit::check_deps(&s).unwrap();
        }
        recalc_all(&mut s);
        let used: Vec<CellAddr> = s.used_range().unwrap().iter().collect();
        let shipped: Vec<Value> = used.iter().map(|&c| s.value(c)).collect();
        recalc_reference(&mut s, None);
        assert_eq!(shipped, used.iter().map(|&c| s.value(c)).collect::<Vec<_>>());
    }

    #[test]
    fn open_recalc_charges_dep_build() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_formula_str(a("B1"), "=A1").unwrap();
        s.set_formula_str(a("B2"), "=A1").unwrap();
        let before = s.meter().snapshot();
        open_recalc(&mut s);
        let delta = s.meter().snapshot().since(&before);
        assert_eq!(delta.get(Primitive::DepBuild), 2);
        assert_eq!(delta.get(Primitive::FormulaEval), 2);
    }

    /// A sheet with a wide, multi-level formula DAG: `n` value rows in
    /// column A; column B squares them; column C sums a running window of
    /// B; one final SUM over all of C.
    fn wide_dag_sheet(n: u32) -> Sheet {
        let mut s = Sheet::new();
        for i in 0..n {
            s.set_value(CellAddr::new(i, 0), i64::from(i % 97));
            s.set_formula_str(CellAddr::new(i, 1), &format!("=A{0}*A{0}", i + 1)).unwrap();
            let lo = (i / 10) * 10 + 1;
            s.set_formula_str(CellAddr::new(i, 2), &format!("=SUM(B{lo}:B{})", i + 1)).unwrap();
        }
        s.set_formula_str(CellAddr::new(0, 3), &format!("=SUM(C1:C{n})")).unwrap();
        s
    }

    #[test]
    fn redundant_formulas_each_pay_full_cost() {
        // §5.4: n identical COUNTIFs cost n full scans.
        let mut s = Sheet::new();
        for i in 0..50u32 {
            s.set_value(CellAddr::new(i, 9), 1);
        }
        for k in 0..5u32 {
            s.set_formula_str(CellAddr::new(k, 11), "=COUNTIF(J1:J50,1)").unwrap();
        }
        let before = s.meter().snapshot();
        recalc_all(&mut s);
        let delta = s.meter().snapshot().since(&before);
        assert_eq!(delta.get(Primitive::CellRead), 5 * 50);
    }

    /// Asserts two sheets hold the same formula values over `wide_dag_sheet`'s
    /// formula columns (bit-exact for numbers) and the same meter counts.
    fn assert_same_state(want: &Sheet, got: &Sheet, n: u32, what: &str) {
        for row in 0..n {
            for col in 1..4 {
                let addr = CellAddr::new(row, col);
                let (w, g) = (want.value(addr), got.value(addr));
                assert_eq!(w, g, "{what}: {addr:?}");
                if let (Value::Number(w), Value::Number(g)) = (w, g) {
                    assert_eq!(w.to_bits(), g.to_bits(), "{what}: {addr:?} bit pattern");
                }
            }
        }
        assert_eq!(want.meter().snapshot(), got.meter().snapshot(), "{what}: meter");
    }

    /// The kernels-without-delta leg: the shared plan walked one formula at
    /// a time through the one-shot [`eval_formula_at`], which scans every
    /// window in full.
    fn recalc_one_shot(sheet: &mut Sheet, changed: Option<&[CellAddr]>) -> RecalcStats {
        let plan = plan(sheet, changed);
        mark_cycles(sheet, &plan);
        for &addr in &plan.order {
            if let Some(v) = eval_formula_at(sheet, addr) {
                sheet.store_formula_result(addr, v);
            }
        }
        RecalcStats { evaluated: plan.order.len(), cyclic: plan.cyclic.len() }
    }

    #[test]
    fn shipped_recalc_matches_reference_full_and_dirty() {
        let n = 400;
        let mut reference = wide_dag_sheet(n);
        let mut one_shot = wide_dag_sheet(n);
        let mut shipped = wide_dag_sheet(n);
        let stats = recalc_reference(&mut reference, None);
        assert_eq!(stats, recalc_one_shot(&mut one_shot, None));
        assert_eq!(stats, recalc_all(&mut shipped));
        // The correctness bar: values bit-exact and meter counts identical.
        // The sheet is not indexed, so the sliding path charges full-window
        // counts and all three agree.
        assert_same_state(&reference, &shipped, n, "full");
        assert_same_state(&one_shot, &shipped, n, "full, one-shot");
        // Template sharing: 2n+1 formulas collapse to a handful of
        // programs (one per fill-down template + window-start variants).
        let templates = shipped.program_cache().len();
        assert!(
            templates < 40,
            "expected template sharing, got {templates} programs for {} formulas",
            2 * n + 1
        );
        assert_eq!(shipped.program_cache().misses(), templates as u64);

        // Dirty pass over value edits: cache stays warm, results identical.
        let misses_before = shipped.program_cache().misses();
        let changed = [a("A5"), CellAddr::new(250, 0)];
        for s in [&mut reference, &mut one_shot, &mut shipped] {
            s.set_value(changed[0], 1000);
            s.set_value(changed[1], -3);
        }
        let stats = recalc_reference(&mut reference, Some(&changed));
        assert_eq!(stats, recalc_one_shot(&mut one_shot, Some(&changed)));
        assert_eq!(stats, recalc_from(&mut shipped, &changed));
        assert_same_state(&reference, &shipped, n, "dirty");
        assert_same_state(&one_shot, &shipped, n, "dirty, one-shot");
        assert_eq!(
            shipped.program_cache().misses(),
            misses_before,
            "value edits must not recompile"
        );
    }

    #[test]
    fn program_cache_invalidation_is_fact_gated() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 2);
        s.set_formula_str(a("B1"), "=A1*3").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.program_cache().len(), 1);
        // Value edit into a value cell keeps the cache warm (§5.5 workloads).
        s.set_value(a("A1"), 5);
        recalc_from(&mut s, &[a("A1")]);
        assert_eq!(s.value(a("B1")), Value::Number(15.0));
        assert_eq!(s.program_cache().misses(), 1);
        // Editing a formula replaces B1's cell, binding and all; the old
        // template stays ground truth and the new one compiles alongside.
        s.set_formula_str(a("B1"), "=A1*4").unwrap();
        assert_eq!(s.program_cache().len(), 1);
        assert!(s.formula_at(a("B1")).unwrap().program().is_none());
        recalc_all(&mut s);
        assert_eq!(s.value(a("B1")), Value::Number(20.0));
        assert_eq!(s.program_cache().len(), 2);
        assert_eq!(s.program_cache().misses(), 2);
        // A dependency rebuild touches neither templates nor bindings: the
        // next full pass never reaches the cache.
        let lookups = s.program_cache().lookups();
        s.rebuild_deps();
        assert_eq!(s.program_cache().len(), 2);
        recalc_all(&mut s);
        assert_eq!(s.value(a("B1")), Value::Number(20.0));
        assert_eq!(s.program_cache().lookups(), lookups, "a rebuild clears no binding");
    }

    /// The ISSUE-5 satellite regression: editing one cell of a fill-down
    /// column recompiles exactly one template — the other 49 instances
    /// never leave the cache.
    #[test]
    fn fill_down_edit_recompiles_exactly_one_template() {
        let mut s = Sheet::new();
        for row in 0..50u32 {
            s.set_value(CellAddr::new(row, 0), i64::from(row));
            s.set_formula_str(CellAddr::new(row, 1), &format!("=A{}*2", row + 1)).unwrap();
        }
        recalc_all(&mut s);
        assert_eq!(s.program_cache().len(), 1, "fill-down is one template");
        assert_eq!(s.program_cache().misses(), 1);
        // Edit one instance to a new template.
        s.set_formula_str(a("B25"), "=A25*2+1").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.value(a("B25")), Value::Number(49.0));
        assert_eq!(s.program_cache().len(), 2);
        assert_eq!(s.program_cache().misses(), 2, "exactly one new compile");
    }

    #[test]
    fn eval_session_matches_one_shot_eval() {
        let n = 300;
        let mut s = wide_dag_sheet(n);
        recalc_all(&mut s);
        // A session carries the delta cache across calls; values and meter
        // charges must nonetheless match the one-shot path exactly.
        let mut session = EvalSession::new(&s);
        for row in 0..n {
            let addr = CellAddr::new(row, 2);
            let before = s.meter().snapshot();
            let one = eval_formula_at(&s, addr);
            let one_counts = s.meter().snapshot().since(&before);
            let before = s.meter().snapshot();
            let via = session.eval(addr);
            let via_counts = s.meter().snapshot().since(&before);
            assert_eq!(one, via, "row {row}");
            assert_eq!(one_counts, via_counts, "row {row}");
        }
        assert_eq!(session.eval(a("A1")), None, "values are not formulas");
    }
}
