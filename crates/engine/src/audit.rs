//! Structural invariant checks for the differential oracle (DESIGN.md §9).
//!
//! These walk a whole sheet and are O(cells + formulas·precedents), so they
//! belong in tests and the fuzz harness, never on the hot path. Each check
//! returns `Err(description)` naming the first violating cell so a shrunk
//! reproducer points straight at the fault.

use std::collections::HashSet;

use crate::addr::CellAddr;
use crate::depgraph::Precedents;
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
///    graph left a stale one behind.
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

    Ok(())
}

/// Runs every audit; convenience for the oracle's per-op hook.
pub fn check_all(sheet: &Sheet) -> Result<(), String> {
    check_finite_grid(sheet)?;
    check_deps(sheet)
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
