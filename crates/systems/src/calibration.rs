//! Calibrated cost constants for the four system profiles.
//!
//! We cannot run Excel 2016, LibreOffice Calc 6.0.3.2, or Google Sheets in
//! this environment, so absolute constants are fitted to the paper's
//! published numbers. Primitive *counts* always come from real engine
//! execution; only the per-unit costs below are fitted. Priorities:
//!
//! 1. Table 2's interactivity-violation points (exact);
//! 2. figure endpoint magnitudes (approximate);
//! 3. the takeaways' system orderings and crossovers.
//!
//! Every constant cites its anchor. Notation: `m` = rows; the weather
//! datasets have 17 columns, 7 of them formulae (one per row each).
//!
//! Known paper inconsistencies resolved here (see EXPERIMENTS.md):
//! * §4.2.1's text says Calc sort-F violates at 150 rows; Table 2 says
//!   0.6% (6k). We follow Table 2.
//! * Table 2 has Sheets sort-F (3.4% = 10k) later than sort-V (2.04% = 6k),
//!   impossible since F adds recalculation on top of V's work; we
//!   reproduce F at 6k and flag the delta.
//! * Fig 2a's y-axis tops at 160 s while §4.1's text puts Excel/Calc
//!   Formula-value opens past 60 s at 40k/6k rows (which extrapolates far
//!   beyond 160 s at 500k); we follow the text anchors.

use ssbench_engine::eval::LookupStrategy;
use ssbench_engine::meter::Primitive as P;

use crate::cost::{CostModel, CostTable};
use crate::op::OpClass as Op;
use crate::policy::{Quotas, RecalcTrigger, SystemPolicies};
use crate::profile::{SystemKind, SystemProfile};

/// Microsoft Excel 2016 (Windows, VBA).
pub fn excel() -> SystemProfile {
    let default = CostTable::from_pairs(&[
        // Fig 7a: COUNTIF over 500k values ≈ 60 ms and never violates
        // (Table 2: E/COUNTIF = 100%).
        (P::CellRead, 120.0),
        // Fig 7a: Formula-value COUNTIF ≈ 80 ms at 500k — the scan pays a
        // cheap revalidation per formula cell it touches (§4.3.3).
        (P::FormulaRecheck, 40.0),
        // Table 2: open/V violates at 0.6% = 6k rows. With a 200 ms
        // application+file base, 6k×17 cells × 3 µs ≈ 306 ms.
        (P::CellParse, 3_000.0),
        // Table 2: sort/V violates at 7% = 70k rows:
        // 50 ms base + 70k×17 moves × 0.366 µs ≈ 0.44 s crosses 500 ms at
        // 70k and stays under at 60k. (The benchmark column is already
        // sorted, so the engine's adaptive sort performs ~m comparisons,
        // making moves the dominant term.)
        (P::CellMove, 366.0),
        (P::CmpRead, 100.0),
        // Table 2: sort/F violates at 1% = 10k rows: the post-sort full
        // recalculation evaluates 7×10k one-cell COUNTIFs ≈ 0.43 s.
        (P::FormulaEval, 6_000.0),
        // §4.1: open/F passes the one-minute mark at 40k rows — building
        // the calculation sequence dominates: 7×40k × ~206 µs ≈ 58 s.
        (P::DepBuild, 200_000.0),
        // §4.2.2: conditional formatting at 90k = 7.5 ms (with the
        // CondFormat read override below).
        (P::StyleUpdate, 50.0),
        (P::RowToggle, 200.0),
        (P::CellWrite, 1_000.0),
        (P::GroupWrite, 1_000.0),
        (P::RenderCell, 100.0),
        // §4.3.1: filter/F violates at 4% = 40k rows and reaches ~10 s at
        // 500k; emulated as m^1.2 units (fitted to those two anchors).
        (P::SuperlinearUnit, 1_550.0),
    ]);
    let costs = CostModel::new(default)
        .with_base(Op::Open, 200.0)
        .with_base(Op::Sort, 50.0)
        .with_base(Op::CondFormat, 1.0)
        .with_base(Op::Filter, 5.0)
        // Pivot-cache construction and sheet insertion dominate small
        // pivots (Table 2: pivot violates at 5% = 50k for both variants).
        .with_base(Op::Pivot, 150.0)
        .with_base(Op::Aggregate, 1.0)
        .with_base(Op::Lookup, 1.0)
        .with_base(Op::FindReplace, 10.0)
        .with_base(Op::Update, 1.0)
        // §4.2.2: 90k-row conditional format = 7.5 ms → ~72 ns per
        // scanned cell (faster than a COUNTIF read; the rule engine scans
        // without full value materialization).
        .with_override(Op::CondFormat, P::CellRead, 72.0)
        // Table 2 pivot = 5%: 150 ms base + 50k rows × 2 reads × 3.5 µs.
        .with_override(Op::Pivot, P::CellRead, 3_500.0)
        // Fig 6a: the Formula-value pivot sits visibly above Value-only
        // (sheet insertion triggers a revalidation pass) while both
        // violate near 50k.
        .with_override(Op::Pivot, P::FormulaRecheck, 150.0)
        // Fig 8a: exact-match VLOOKUP reaches only ~10 ms at 500k (scan
        // stops at the 200k match): ~48 ns per scanned key.
        .with_override(Op::Lookup, P::CellRead, 48.0)
        // Fig 9a: find-and-replace ≈ 0.53 s at 10k rows (×17 cols) and
        // ~5 s at 100k (§5.1.2: ">500 ms for all datasets > 10k").
        .with_override(Op::FindReplace, P::CellRead, 3_100.0)
        // Fig 10a: ~3.5 s for 500k scripted cell accesses (VBA API call
        // overhead dominates; sequential ≈ random).
        .with_override(Op::Access, P::CellRead, 7_000.0)
        // Fig 11b: repeated-computation cumulative sums reach ~160 s at
        // 100k formulas (5·10⁹ reads): 32 ns per bulk-range read.
        .with_override(Op::Shared, P::CellRead, 32.0);
    SystemProfile {
        kind: SystemKind::Excel,
        policies: SystemPolicies {
            // §4.3.4: "Excel terminates execution after finding the value"
            // and optimizes sorted approximate match via binary search.
            lookup: LookupStrategy::StopEarly,
            recalc_on_sort: RecalcTrigger::Full,
            recalc_on_format: RecalcTrigger::None, // §4.2.2: "no such recomputation … in Excel"
            recalc_on_filter: RecalcTrigger::Superlinear, // §4.3.1
            recalc_on_pivot: RecalcTrigger::Recheck, // §4.3.2
            ..SystemPolicies::desktop()
        },
        costs,
    }
}

/// LibreOffice Calc 6.0.3.2 (Ubuntu, Calc Basic).
pub fn calc() -> SystemProfile {
    let default = CostTable::from_pairs(&[
        // Fig 7b: COUNTIF over 500k values ≈ 0.45 s — just inside the
        // bound (Table 2: C/COUNTIF/V = 100%).
        (P::CellRead, 900.0),
        // Table 2: COUNTIF/F violates at 11% = 110k rows:
        // 110k × (0.9 + 3.7) µs ≈ 0.51 s (and 0.46 s at 100k).
        (P::FormulaRecheck, 3_700.0),
        // Table 2: open/V violates at 0.015% = 150 rows: 480 ms base +
        // 150×17 × 8 µs ≈ 20 ms crosses 500 ms exactly at 150 rows.
        (P::CellParse, 8_000.0),
        // Table 2: sort/V violates at 1% = 10k rows: 100 ms base +
        // 10k×17 moves × 2.32 µs ≈ 0.39 s.
        (P::CellMove, 2_320.0),
        (P::CmpRead, 200.0),
        // Table 2: sort/F violates at 0.6% = 6k rows: 7×6k × 20 µs ≈
        // 0.84 s of recalculation on top of ~0.34 s of sorting.
        (P::FormulaEval, 20_000.0),
        // §4.1: open/F passes the one-minute mark at 6k rows:
        // 7×6k × ~1.41 ms ≈ 59 s.
        (P::DepBuild, 1_390_000.0),
        (P::StyleUpdate, 30.0),
        // Table 2: filter/V violates at 20% = 200k rows:
        // 200k × (0.9 read + 1.4 toggle) µs ≈ 0.46 s + 50 ms base.
        (P::RowToggle, 1_400.0),
        (P::CellWrite, 2_000.0),
        (P::GroupWrite, 2_000.0),
        (P::RenderCell, 200.0),
    ]);
    let costs = CostModel::new(default)
        .with_base(Op::Open, 480.0)
        .with_base(Op::Sort, 100.0)
        .with_base(Op::CondFormat, 15.0)
        .with_base(Op::Filter, 50.0)
        .with_base(Op::Pivot, 70.0)
        .with_base(Op::Aggregate, 2.0)
        .with_base(Op::Lookup, 20.0)
        .with_base(Op::FindReplace, 20.0)
        .with_base(Op::Update, 5.0)
        // Table 2: cond-format/F violates at 8% = 80k rows — the
        // "unnecessary formula recomputation" (§4.2.2) costs ~0.76 µs per
        // formula here, much less than a COUNTIF-triggered recheck.
        .with_override(Op::CondFormat, P::FormulaRecheck, 760.0)
        // Table 2: filter/F violates at 12% = 120k vs 20% for V — a small
        // per-formula visibility pass, not a recomputation (§4.3.1
        // speculates "filter … does not trigger recalculation").
        .with_override(Op::Filter, P::FormulaRecheck, 230.0)
        // Table 2: pivot violates at 33% = 330k rows (Calc is the fastest:
        // 70 ms base + 330k × 2 reads × 0.65 µs ≈ 0.5 s).
        .with_override(Op::Pivot, P::CellRead, 650.0)
        // Table 2: VLOOKUP/V violates at 5% = 50k rows; Fig 8b reaches
        // ~5 s at 500k (full scan, no early exit).
        .with_override(Op::Lookup, P::CellRead, 9_600.0)
        // Fig 9b: ~3.3 s at 60k rows; >500 ms from 10k.
        .with_override(Op::FindReplace, P::CellRead, 3_200.0)
        // Fig 10b: ~70 s for 500k scripted accesses (Calc Basic API).
        .with_override(Op::Access, P::CellRead, 140_000.0)
        // Fig 11c: repeated cumulative sums, quadratic, ~300 s at 100k.
        .with_override(Op::Shared, P::CellRead, 60.0)
        // Fig 13a: recomputation after a single-cell update reaches ~2 s
        // at 500k (steeper than Calc's plain COUNTIF — the update path
        // adds dirty-propagation overhead per scanned cell).
        .with_override(Op::Update, P::CellRead, 4_000.0);
    SystemProfile {
        kind: SystemKind::Calc,
        policies: SystemPolicies {
            recalc_on_sort: RecalcTrigger::Full,
            recalc_on_format: RecalcTrigger::Recheck, // §4.2.2
            recalc_on_filter: RecalcTrigger::Recheck, // §4.3.1 (small pass)
            recalc_on_pivot: RecalcTrigger::None,     // §4.3.2: Calc avoids it
            ..SystemPolicies::desktop()
        },
        costs,
    }
}

/// Google Sheets (Google Apps Script).
pub fn gsheets() -> SystemProfile {
    let default = CostTable::from_pairs(&[
        // Table 2: COUNTIF violates at 3.4% = 10k rows, and Fig 12c puts a
        // single 90k COUNTIF near 1.3 s: 420 ms fixed + m × 10 µs, leaving a
        // noise-proof margin on both sides of the 6k/10k boundary.
        (P::CellRead, 10_000.0),
        // Table 2: COUNTIF/F violates at the same 3.4% = 10k as /V, which
        // bounds the per-formula revalidation to ~2 µs (Fig 7c's ~5 s at
        // 90k cannot hold simultaneously under a linear model; Table 2
        // wins — see EXPERIMENTS.md).
        (P::FormulaRecheck, 2_000.0),
        // Lazy viewport: only ~50 rows are parsed on open (§4.1).
        (P::CellParse, 10_000.0),
        // Table 2: sort/V violates at 2.04% = 6k rows.
        (P::CellMove, 1_960.0),
        (P::CmpRead, 200.0),
        // Fig 3b: sort/F sits ~0.4 s above V at 50k: 7×50k × ~1.1 µs.
        (P::FormulaEval, 1_100.0),
        // §4.1: open/F "increases linearly with the size … ≈40 s to load a
        // 90k rows spreadsheet": 7×90k × 62 µs ≈ 39 s of server-side
        // dependency resolution.
        (P::DepBuild, 62_000.0),
        (P::StyleUpdate, 500.0),
        (P::RowToggle, 2_000.0),
        (P::CellWrite, 50_000.0),
        (P::GroupWrite, 5_000.0),
        // DOM rendering of the visible window (§4.1: "rendering of HTML
        // DOM elements … can be expensive").
        (P::RenderCell, 2_000.0),
        // One client↔server round trip per scripted operation (§3.3).
        (P::NetworkRtt, 150_000_000.0),
    ]);
    let costs = CostModel::new(default)
        // Fig 2b: Value-only open is flat ≈ 1.05–1.2 s regardless of size.
        .with_base(Op::Open, 900.0)
        .with_base(Op::Sort, 150.0)
        // §4.2.2: 90k conditional format = 197 ms, flat (lazy formatting).
        .with_base(Op::CondFormat, 40.0)
        .with_base(Op::Filter, 150.0)
        .with_base(Op::Pivot, 200.0)
        // Table 2 COUNTIF anchor above: 150 RTT + 270 base = 420 ms fixed.
        .with_base(Op::Aggregate, 270.0)
        .with_base(Op::Lookup, 150.0)
        .with_base(Op::FindReplace, 150.0)
        .with_base(Op::Shared, 100.0)
        // Fig 13b: noisy ≈2.3–3 s regardless of size.
        .with_base(Op::Update, 2_150.0)
        // Sort reads (key extraction and post-sort recalculation) are
        // server-side bulk reads, cheaper than scripted per-cell access.
        .with_override(Op::Sort, P::CellRead, 900.0)
        // Table 2: pivot/V violates at 6.8% = 20k rows (2 reads/row).
        .with_override(Op::Pivot, P::CellRead, 4_200.0)
        // Table 2: pivot/F violates at 3.4% = 10k rows (sheet-insert
        // recalculation, §4.3.2).
        .with_override(Op::Pivot, P::FormulaRecheck, 1_300.0)
        // Table 2: cond-format/F violates at 17% = 50k rows.
        .with_override(Op::CondFormat, P::FormulaRecheck, 890.0)
        // Table 2: filter/F violates at 3.4% = 10k rows.
        .with_override(Op::Filter, P::FormulaRecheck, 1_600.0)
        // Table 2: VLOOKUP violates at 23.8% = 70k rows; Fig 8c ≈ 0.56 s
        // at 90k for both match modes (always a full scan).
        .with_override(Op::Lookup, P::CellRead, 3_100.0)
        // Fig 9c: ~10 s at 30k rows; identical for present and absent.
        .with_override(Op::FindReplace, P::CellRead, 19_000.0)
        // Fig 10c: ~40 s for 80k scripted accesses (one API call each).
        .with_override(Op::Access, P::CellRead, 500_000.0)
        // Fig 11d: repeated cumulative sums ≈ 30 s at 30k.
        .with_override(Op::Shared, P::CellRead, 67.0)
        // Fig 13b: mild slope on top of the ~2.3 s fixed cost.
        .with_override(Op::Update, P::CellRead, 4_000.0);
    SystemProfile {
        kind: SystemKind::GSheets,
        policies: SystemPolicies {
            remote: true, // §3.3, §4.1, §4.2.2
            recalc_on_sort: RecalcTrigger::Full,
            recalc_on_format: RecalcTrigger::Recheck,
            recalc_on_filter: RecalcTrigger::Recheck,
            recalc_on_pivot: RecalcTrigger::Recheck,
            lookup: LookupStrategy::FullScan,
            indexed: false,
            quotas: Quotas {
                general_rows: Some(90_000),
                sort_rows: Some(50_000),
                find_replace_rows: Some(30_000),
                shared_rows: Some(30_000),
            },
            // §3.3: "the variance in response times for certain operations
            // was very high — possibly due to the variation in the load on
            // the server". Kept small enough that the trimmed mean never
            // flips a Table-2 boundary.
            noise_frac: 0.03,
        },
        costs,
    }
}

/// The fourth system (§6): the ssbench engine with its database-style
/// optimizations enabled — maintained column indexes consulted by
/// COUNTIF/SUMIF/VLOOKUP/MATCH (so the recomputation after a single-cell
/// edit probes instead of scanning), and sort-safety analysis instead of
/// full post-sort recalculation.
///
/// Unlike the three commercial profiles there is no product to calibrate
/// against, so the constants are *engine-shaped* rather than fitted: they
/// model a native columnar core with none of the scripting-API overhead
/// the paper measures (§5.2), priced in the same ballpark as Excel's
/// fastest primitives. The point of the profile is the asymptotic shape —
/// flat where the commercial systems are linear, linear where they are
/// quadratic — not absolute milliseconds.
pub fn optimized() -> SystemProfile {
    let default = CostTable::from_pairs(&[
        // Bulk columnar reads, slightly cheaper than Excel's 120 ns.
        (P::CellRead, 100.0),
        // Revalidation is a dependency-graph bitmap check, not a parse.
        (P::FormulaRecheck, 20.0),
        // Open parses into columnar storage without the application
        // start-up work the desktop systems pay per cell.
        (P::CellParse, 200.0),
        // Sort moves whole rows in memory; data movement stays honest —
        // indexes do not make shuffling 17 columns free.
        (P::CellMove, 150.0),
        (P::CmpRead, 100.0),
        (P::FormulaEval, 1_000.0),
        // Dependency extraction over compiled templates (§5.3): two
        // orders of magnitude under Excel's 200 µs interpreter walk.
        (P::DepBuild, 2_000.0),
        (P::StyleUpdate, 30.0),
        (P::RowToggle, 100.0),
        (P::CellWrite, 500.0),
        (P::GroupWrite, 500.0),
        (P::RenderCell, 100.0),
        // One hash/binary-search probe against a maintained column index
        // (§6): pointer-chasing beats a scan read but is pricier than a
        // sequential columnar read — the win is doing O(1)/O(log m) of
        // them instead of m reads. Also charged per cell when `open`
        // builds the indexes, so index construction is paid up front.
        (P::IndexProbe, 250.0),
    ]);
    let costs = CostModel::new(default)
        .with_base(Op::Open, 100.0)
        .with_base(Op::Sort, 20.0)
        .with_base(Op::CondFormat, 1.0)
        .with_base(Op::Filter, 2.0)
        .with_base(Op::Pivot, 20.0)
        .with_base(Op::Aggregate, 0.5)
        .with_base(Op::Lookup, 0.5)
        .with_base(Op::FindReplace, 2.0)
        .with_base(Op::Update, 0.5);
    SystemProfile {
        kind: SystemKind::Optimized,
        policies: SystemPolicies {
            lookup: LookupStrategy::StopEarly,
            // A row permutation leaves a moved formula's template key as
            // it was unless a reference falls off the sheet (`Expr::adjust`
            // reports which, and only those lose their compiled program);
            // the survivors get a cheap recheck instead of Excel/Calc's
            // full recomputation.
            recalc_on_sort: RecalcTrigger::Recheck,
            recalc_on_format: RecalcTrigger::None,
            recalc_on_filter: RecalcTrigger::None,
            recalc_on_pivot: RecalcTrigger::None,
            indexed: true,
            ..SystemPolicies::desktop()
        },
        costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_engine::meter::Meter;

    /// Closed-form anchor checks: feed the cost model the primitive counts
    /// an operation would generate and verify the simulated time lands on
    /// the paper's anchor.
    fn counts(pairs: &[(P, u64)]) -> ssbench_engine::meter::Counts {
        let m = Meter::new();
        for &(p, n) in pairs {
            m.bump(p, n);
        }
        m.snapshot()
    }

    #[test]
    fn excel_countif_500k_is_interactive() {
        let e = excel();
        // COUNTIF over 500k value cells: m reads + 1 eval.
        let t = e.costs.time_ms(
            Op::Aggregate,
            &counts(&[(P::CellRead, 500_000), (P::FormulaEval, 1)]),
        );
        assert!((55.0..80.0).contains(&t), "expected ≈61 ms, got {t}");
    }

    #[test]
    fn excel_open_violation_at_6k_not_150() {
        let e = excel();
        let open = |rows: u64| {
            e.costs.time_ms(Op::Open, &counts(&[(P::CellParse, rows * 17)]))
        };
        assert!(open(150) < 500.0);
        assert!(open(6_000) >= 495.0, "6k rows should cross 500 ms, got {}", open(6_000));
    }

    #[test]
    fn calc_open_violates_at_150() {
        let c = calc();
        let t = c.costs.time_ms(Op::Open, &counts(&[(P::CellParse, 150 * 17)]));
        assert!(t >= 500.0, "{t}");
    }

    #[test]
    fn gsheets_countif_violation_between_6k_and_10k() {
        let g = gsheets();
        let agg = |rows: u64| {
            g.costs.time_ms(
                Op::Aggregate,
                &counts(&[(P::CellRead, rows), (P::FormulaEval, 1), (P::NetworkRtt, 1)]),
            )
        };
        assert!(agg(6_000) < 500.0, "{}", agg(6_000));
        assert!(agg(10_000) >= 500.0, "{}", agg(10_000));
    }

    #[test]
    fn calc_countif_f_violates_at_110k() {
        let c = calc();
        let agg = |rows: u64| {
            c.costs.time_ms(
                Op::Aggregate,
                &counts(&[(P::CellRead, rows), (P::FormulaRecheck, rows), (P::FormulaEval, 1)]),
            )
        };
        assert!(agg(100_000) < 500.0);
        assert!(agg(110_000) >= 495.0, "{}", agg(110_000));
    }

    #[test]
    fn excel_vlookup_exact_is_fast_even_at_500k() {
        let e = excel();
        // Early exit at row 200k: 200k key reads + 1 result read.
        let t = e.costs.time_ms(Op::Lookup, &counts(&[(P::CellRead, 200_001)]));
        assert!(t < 15.0, "{t}");
    }

    #[test]
    fn profiles_have_expected_policies() {
        assert_eq!(excel().policies.lookup, LookupStrategy::StopEarly);
        assert_eq!(excel().policies.recalc_on_filter, RecalcTrigger::Superlinear);
        assert_eq!(calc().policies.recalc_on_pivot, RecalcTrigger::None);
        assert!(gsheets().policies.remote);
        assert!(!excel().policies.remote && !calc().policies.remote);
        assert_eq!(gsheets().policies.quotas.sort_rows, Some(50_000));
        assert!(gsheets().policies.noise_frac > 0.0);
    }

    #[test]
    fn optimized_countif_via_index_is_interactive_at_500k() {
        let o = optimized();
        // Indexed COUNTIF: one probe + one eval instead of 500k reads.
        let t = o.costs.time_ms(
            Op::Aggregate,
            &counts(&[(P::IndexProbe, 1), (P::FormulaEval, 1)]),
        );
        assert!(t < 5.0, "{t}");
        // The same aggregate as a scan would also be interactive (the
        // engine core is fast) but 100× the primitive work.
        let scan = o.costs.time_ms(
            Op::Aggregate,
            &counts(&[(P::CellRead, 500_000), (P::FormulaEval, 1)]),
        );
        assert!(scan > 10.0 * t, "scan {scan} vs probe {t}");
    }

    #[test]
    fn optimized_open_pays_for_index_construction() {
        let o = optimized();
        // Open parses m×17 cells and builds indexes over all of them; the
        // up-front cost crosses 500 ms near 52k rows — later than every
        // commercial system, but honestly non-flat.
        let open = |rows: u64| {
            o.costs.time_ms(
                Op::Open,
                &counts(&[(P::CellParse, rows * 17), (P::IndexProbe, rows * 17)]),
            )
        };
        assert!(open(50_000) < 500.0, "{}", open(50_000));
        assert!(open(55_000) >= 500.0, "{}", open(55_000));
    }

    #[test]
    fn optimized_policies_enable_engine_optimizations() {
        let p = optimized().policies;
        assert!(p.indexed);
        assert_eq!(p.recalc_on_sort, RecalcTrigger::Recheck);
        assert!(!p.remote);
        assert_eq!(p.noise_frac, 0.0);
        assert_eq!(p.quotas.general_rows, None);
    }

    #[test]
    fn desktop_profiles_have_no_rtt_cost() {
        assert_eq!(excel().costs.unit_ns(Op::Aggregate, P::NetworkRtt), 0.0);
        assert_eq!(calc().costs.unit_ns(Op::Aggregate, P::NetworkRtt), 0.0);
        assert!(gsheets().costs.unit_ns(Op::Aggregate, P::NetworkRtt) > 0.0);
    }
}
