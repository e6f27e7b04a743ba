//! Figure 11 — shared computation (§5.3): cumulative sums expressed two
//! ways. "Repeated" installs `Bi = SUM(A1:Ai)` for every row i — the
//! systems evaluate each independently, O(m²) cell references in total.
//! "Reusable" installs `C1 = A1; Ci = Ai + C(i−1)` — O(m). The fourth
//! (Optimized) system answers the *repeated* family with one shared
//! prefix pass (§6's shared-computation proposal), so it contributes a
//! single series instead of a Repeated/Reusable pair.

use ssbench_engine::formula::{BinOp, Expr, RangeRef};
use ssbench_engine::prelude::*;
use ssbench_systems::{OpClass, SimSystem, SystemKind};

use crate::config::RunConfig;
use crate::series::{ExperimentResult, Series};

/// The paper's sweep: 10k … 100k step 10k (Sheets capped at 30k).
pub fn sizes_for(cfg: &RunConfig, cap: Option<u32>) -> Vec<u32> {
    let cap = cap.unwrap_or(u32::MAX);
    (1..=10u32)
        .map(|i| i * 10_000)
        .filter(|&m| m <= cap)
        .map(|m| cfg.scaled(m))
        .collect()
}

/// A sheet with column A = 1..=m (the summed values).
fn base_sheet(m: u32) -> Sheet {
    let mut s = Sheet::new();
    s.ensure_size(m, 3);
    for i in 0..m {
        s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
    }
    s
}

/// Installs the repeated-computation family `Bi = SUM(A1:Ai)`.
fn install_repeated(sheet: &mut Sheet, m: u32) {
    for i in 0..m {
        let range = RangeRef {
            start: CellRef::relative(CellAddr::new(0, 0)),
            end: CellRef::relative(CellAddr::new(i, 0)),
        };
        let expr = Expr::Call("SUM".to_owned(), vec![Expr::RangeRef(range)]);
        sheet.set_formula(CellAddr::new(i, 1), expr);
    }
}

/// Installs the reusable-computation family `C1 = A1; Ci = Ai + C(i−1)`.
fn install_reusable(sheet: &mut Sheet, m: u32) {
    sheet.set_formula(CellAddr::new(0, 2), Expr::Ref(CellRef::relative(CellAddr::new(0, 0))));
    for i in 1..m {
        let expr = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Ref(CellRef::relative(CellAddr::new(i, 0)))),
            Box::new(Expr::Ref(CellRef::relative(CellAddr::new(i - 1, 2)))),
        );
        sheet.set_formula(CellAddr::new(i, 2), expr);
    }
}

/// Runs the Figure 11 experiment.
pub fn fig11_shared(cfg: &RunConfig) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig11", "Shared computation: cumulative sums (§5.3)");
    // The repeated family is genuinely quadratic in engine work — one
    // trial per size (deterministic for the desktop systems).
    let protocol = cfg.protocol.capped(1);
    for kind in cfg.systems() {
        if kind == SystemKind::Optimized {
            // The Optimized system never evaluates the quadratic family
            // formula-by-formula — its single prefix-sharing series is
            // produced below.
            continue;
        }
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let sizes = sizes_for(cfg, sys.max_rows(OpClass::Shared));
        let mut repeated = Series::new(format!("{} Repeated", kind.name()), kind);
        let mut reusable = Series::new(format!("{} Reusable", kind.name()), kind);
        for &m in &sizes {
            let mut sheet = base_sheet(m);
            install_repeated(&mut sheet, m);
            sheet.meter().reset();
            repeated.push(m, protocol.measure(|| sys.recalc_embedded(&mut sheet)));

            let mut sheet = base_sheet(m);
            install_reusable(&mut sheet, m);
            sheet.meter().reset();
            reusable.push(m, protocol.measure(|| sys.recalc_embedded(&mut sheet)));
        }
        result.series.push(repeated);
        result.series.push(reusable);
    }
    // The fourth system (§6): the same repeated family answered by one
    // shared prefix pass under the Optimized profile's own cost model.
    if cfg.runs(SystemKind::Optimized) {
        let kind = SystemKind::Optimized;
        let sys = SimSystem::with_seed(kind, cfg.seed);
        let mut optimized = Series::new(format!("{} (prefix sharing)", kind.name()), kind);
        for &m in &sizes_for(cfg, None) {
            let mut sheet = base_sheet(m);
            install_repeated(&mut sheet, m);
            sheet.meter().reset();
            let (answered, ms) = sys.recalc_shared(&mut sheet);
            assert_eq!(answered as u32, m);
            optimized.push(m, ms);
        }
        result.series.push(optimized);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_is_quadratic_reusable_linear() {
        let mut cfg = RunConfig::quick();
        cfg.scale = 0.02; // sizes 200..2000
        let r = fig11_shared(&cfg);
        let rep = r.expect_series("Excel Repeated");
        let reu = r.expect_series("Excel Reusable");
        let (rep_a, rep_b) = (rep.points[0], rep.expect_last());
        let size_ratio = f64::from(rep_b.x) / f64::from(rep_a.x);
        let rep_growth = rep_b.ms / rep_a.ms;
        let reu_growth = reu.expect_last().ms / reu.points[0].ms;
        assert!(
            rep_growth > size_ratio * 3.0,
            "repeated superlinear: ×{rep_growth:.1} for size ×{size_ratio:.1}"
        );
        assert!(
            reu_growth < size_ratio * 2.0,
            "reusable ~linear: ×{reu_growth:.1} for size ×{size_ratio:.1}"
        );
        // Optimized ≤ reusable at the top size.
        let opt = r.expect_series("Optimized (prefix sharing)").expect_last();
        assert!(opt.ms <= reu.expect_last().ms * 1.5);
        // Sheets capped at 30k (scaled to 600).
        let g = r.expect_series("Google Sheets Repeated");
        assert!(g.expect_last().x <= 600);
    }

    #[test]
    fn installed_families_agree() {
        let m = 100;
        let mut a = base_sheet(m);
        install_repeated(&mut a, m);
        recalc::recalc_all(&mut a);
        let mut b = base_sheet(m);
        install_reusable(&mut b, m);
        recalc::recalc_all(&mut b);
        for i in 0..m {
            assert_eq!(
                a.value(CellAddr::new(i, 1)),
                b.value(CellAddr::new(i, 2)),
                "row {i}"
            );
        }
        // Triangular number check.
        assert_eq!(a.value(CellAddr::new(m - 1, 1)), Value::Number((m * (m + 1) / 2) as f64));
    }
}
