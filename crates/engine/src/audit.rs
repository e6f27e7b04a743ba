//! Structural invariant checks for the differential oracle (DESIGN.md §9).
//!
//! These walk a whole sheet and are O(cells + formulas·precedents), so they
//! belong in tests and the fuzz harness, never on the hot path. Each check
//! returns `Err(description)` naming the first violating cell so a shrunk
//! reproducer points straight at the fault.

use std::collections::HashSet;

use crate::addr::{col_to_letters, CellAddr};
use crate::depgraph::Precedents;
use crate::meter::Meter;
use crate::sheet::Sheet;
use crate::value::Value;

/// No stored cell value may be NaN or ±inf. User input never parses to a
/// non-finite number ([`crate::value::parse_number`]) and evaluation maps
/// overflow to `#NUM!`, so a non-finite number in the grid means a coercion
/// or arithmetic path leaked one — and would poison `sheet_cmp`'s total
/// order the next time a sort or lookup touches it.
pub fn check_finite_grid(sheet: &Sheet) -> Result<(), String> {
    let Some(used) = sheet.used_range() else { return Ok(()) };
    for addr in used.iter() {
        if let Value::Number(n) = sheet.value(addr) {
            if !n.is_finite() {
                return Err(format!(
                    "non-finite value {n} stored at {}",
                    addr.to_a1()
                ));
            }
        }
    }
    Ok(())
}

/// The dependency graph must mirror the formulas exactly, in both
/// directions:
///
/// 1. every formula cell is registered, with precedents equal to a fresh
///    [`Precedents::of`] extraction from its expression;
/// 2. every registered address still holds a formula (no stale entries
///    surviving an overwrite, clear, or structural rebuild);
/// 3. the inverted dependents index answers `dependents_of` for each cell
///    and range precedent (probed at the range's corners);
/// 4. a calc chain the graph holds is the plan a fresh
///    [`DepGraph::full_order`](crate::depgraph::DepGraph::full_order) gives
///    — same `order`, `level_starts` and `cyclic` — so no change to the
///    graph left a stale one behind;
/// 5. the graph says a column holds a formula
///    ([`DepGraph::holds_formula_in`](crate::depgraph::DepGraph::holds_formula_in))
///    exactly when the grid holds one there: the count decides which
///    columns an index may cover, so a wrong one moves no value and only
///    this direction sees it.
///
/// A violation means dirty propagation would skip or over-visit formulas —
/// exactly the class of bug that produces stale values only under
/// *incremental* recalc, which full-recalc tests can never see.
pub fn check_deps(sheet: &Sheet) -> Result<(), String> {
    let deps = sheet.deps();

    // Direction 1: grid -> graph.
    let mut formula_cells: HashSet<CellAddr> = HashSet::new();
    if let Some(used) = sheet.used_range() {
        for addr in used.iter() {
            let Some(expr) = sheet.formula_expr(addr) else { continue };
            formula_cells.insert(addr);
            let expected = Precedents::of(expr);
            match deps.precedents_of(addr) {
                None => {
                    return Err(format!(
                        "formula at {} missing from the dep graph",
                        addr.to_a1()
                    ));
                }
                Some(actual) if *actual != expected => {
                    return Err(format!(
                        "stale precedents at {}: graph has {actual:?}, \
                         formula reads {expected:?}",
                        addr.to_a1()
                    ));
                }
                Some(_) => {}
            }

            // Direction 3: every precedent's dependents list names us.
            let mut out = Vec::new();
            for &p in &expected.cells {
                out.clear();
                deps.dependents_of(p, &mut out);
                if !out.contains(&addr) {
                    return Err(format!(
                        "dependents index at {} omits formula {}",
                        p.to_a1(),
                        addr.to_a1()
                    ));
                }
            }
            for r in &expected.ranges {
                for probe in [
                    r.start,
                    r.end,
                    CellAddr::new(r.start.row, r.end.col),
                    CellAddr::new(r.end.row, r.start.col),
                ] {
                    out.clear();
                    deps.dependents_of(probe, &mut out);
                    if !out.contains(&addr) {
                        return Err(format!(
                            "range watcher for {} misses probe {} \
                             (formula {})",
                            r.to_a1(),
                            probe.to_a1(),
                            addr.to_a1()
                        ));
                    }
                }
            }
        }
    }

    // Direction 2: graph -> grid.
    for addr in deps.formula_addrs() {
        if !formula_cells.contains(&addr) {
            return Err(format!(
                "dep graph lists {} but no formula lives there",
                addr.to_a1()
            ));
        }
    }
    if deps.len() != formula_cells.len() {
        return Err(format!(
            "dep graph tracks {} formulas, grid holds {}",
            deps.len(),
            formula_cells.len()
        ));
    }

    // Direction 4: calc chain -> graph.
    if let Some(chain) = deps.chain() {
        let fresh = deps.full_order();
        if *chain != fresh {
            let what = if chain.order != fresh.order {
                "order"
            } else if chain.level_starts != fresh.level_starts {
                "level_starts"
            } else {
                "cyclic"
            };
            return Err(format!(
                "stale calc chain: its {what} differs from a fresh full order's \
                 ({} formulas held, {} registered)",
                chain.order.len() + chain.cyclic.len(),
                deps.len()
            ));
        }
    }

    // Direction 5: per-column formula counts -> grid.
    let holding: HashSet<u32> = formula_cells.iter().map(|addr| addr.col).collect();
    let miscounted = |&col: &u32| deps.holds_formula_in(col) != holding.contains(&col);
    if let Some(col) = (0..sheet.ncols()).find(miscounted) {
        let held = if holding.contains(&col) { "holds a" } else { "holds no" };
        return Err(format!(
            "column {}: the grid {held} formula, the dep graph's count says otherwise",
            col_to_letters(col)
        ));
    }

    Ok(())
}

/// No built column index may cover a column that holds a formula (as the
/// dependency graph counts them, which [`check_deps`] holds to the grid),
/// and every built index must equal a fresh build of its column from
/// the grid: the same postings under the same keys. Sorts and structural
/// edits move a built index with its rows instead of rebuilding it
/// ([`crate::index`]), so a remap that lost, kept or misplaced a posting
/// shows here at the op that did it, where a probe might not read the
/// damage until much later. The fresh build ticks a throwaway meter: the
/// audit leaves the sheet's counts alone.
pub fn check_indexes(sheet: &Sheet) -> Result<(), String> {
    let scratch = Meter::new();
    for (col, built) in sheet.index_store().built_cols() {
        let column = col_to_letters(col);
        if sheet.deps().holds_formula_in(col) {
            return Err(format!("column {column} has a built index but holds a formula"));
        }
        let fresh = sheet.scan_index(col, &scratch);
        if *built != fresh {
            return Err(format!(
                "column {column}'s built index differs from a fresh build \
                 ({} postings built, {} fresh)",
                built.len(),
                fresh.len()
            ));
        }
    }
    Ok(())
}

/// Under auto-indexing, every materialized column that holds no formula is
/// built. Only a recalculation runs `Sheet::ensure_indexes`, so this holds
/// after one and not after every op: it is not part of [`check_all`].
pub fn check_index_coverage(sheet: &Sheet) -> Result<(), String> {
    if !sheet.auto_index() {
        return Ok(());
    }
    match (0..sheet.ncols())
        .find(|&col| !sheet.deps().holds_formula_in(col) && !sheet.index_store().has_built(col))
    {
        Some(col) => Err(format!(
            "column {} holds no formula but has no index after a recalculation",
            col_to_letters(col)
        )),
        None => Ok(()),
    }
}

/// Runs every audit; convenience for the oracle's per-op hook.
pub fn check_all(sheet: &Sheet) -> Result<(), String> {
    check_finite_grid(sheet)?;
    check_deps(sheet)?;
    check_indexes(sheet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recalc;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    #[test]
    fn clean_sheet_passes_all_audits() {
        let mut s = Sheet::new();
        for i in 0..8u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i));
        }
        s.set_formula_str(a("B1"), "=SUM(A1:A8)").unwrap();
        s.set_formula_str(a("B2"), "=A3*2").unwrap();
        s.set_formula_str(a("B3"), "=B1+B2").unwrap();
        recalc::recalc_all(&mut s);
        check_all(&s).unwrap();
    }

    #[test]
    fn non_finite_stored_value_is_flagged() {
        // `set_value` stores a non-finite number as `#NUM!`; a formula's
        // cache is written as it comes.
        let mut s = Sheet::new();
        s.set_formula_str(a("A1"), "=1").unwrap();
        s.store_formula_result(a("A1"), Value::Number(f64::NAN));
        let err = check_finite_grid(&s).unwrap_err();
        assert!(err.contains("A1"), "got: {err}");
    }

    #[test]
    fn overwritten_formula_leaves_no_stale_entry() {
        let mut s = Sheet::new();
        s.set_formula_str(a("B1"), "=A1+1").unwrap();
        s.set_value(a("B1"), 5i64); // plain value replaces the formula
        check_deps(&s).unwrap();
    }

    #[test]
    fn stale_calc_chain_is_flagged() {
        let mut s = Sheet::new();
        s.set_formula_str(a("B1"), "=A1+1").unwrap();
        s.set_formula_str(a("C1"), "=B1+1").unwrap();
        recalc::recalc_all(&mut s);
        check_deps(&s).unwrap();
        s.deps_mut().keep_chain(crate::depgraph::DirtyPlan::default());
        let err = check_deps(&s).unwrap_err();
        assert!(err.contains("stale calc chain: its order"), "got: {err}");
    }

    /// A built index on a column that holds a formula is flagged: the
    /// state a `set_formula` that kept its column's index would leave.
    #[test]
    fn a_built_index_on_a_formula_column_is_flagged() {
        let mut s = Sheet::new();
        s.set_auto_index(true);
        s.set_value(a("A1"), 1i64);
        s.set_formula_str(a("A2"), "=A1+1").unwrap();
        recalc::recalc_all(&mut s);
        check_indexes(&s).unwrap();
        s.install_index_uncharged(0);
        let err = check_indexes(&s).unwrap_err();
        assert!(err.contains("column A has a built index but holds a formula"), "got: {err}");
    }

    /// Coverage holds after a recalculation, not after every op: a value
    /// written into a new column leaves it unbuilt until the next pass.
    #[test]
    fn coverage_holds_after_a_recalculation() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1i64);
        s.set_formula_str(a("B1"), "=A1").unwrap();
        recalc::recalc_all(&mut s);
        check_index_coverage(&s).unwrap();
        s.set_auto_index(true);
        let err = check_index_coverage(&s).unwrap_err();
        assert!(err.contains("column A holds no formula but has no index"), "got: {err}");
        recalc::recalc_all(&mut s);
        check_index_coverage(&s).unwrap();
        s.set_value(a("C1"), 2i64);
        assert!(check_index_coverage(&s).unwrap_err().contains("column C"));
        recalc::recalc_all(&mut s);
        check_index_coverage(&s).unwrap();
        assert_eq!(s.index_store().built_count(), 2, "A and C; B holds a formula");
    }

    #[test]
    fn structural_edit_keeps_graph_consistent() {
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.set_formula_str(a("C1"), "=SUM(A2:A5)").unwrap();
        s.apply(crate::ops::Op::DeleteRows { at: 2, count: 2 }).unwrap();
        recalc::recalc_all(&mut s);
        check_all(&s).unwrap();
    }
}
