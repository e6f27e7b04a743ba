//! The simulated system: runs real engine operations under a system
//! profile's policies and converts the measured primitive counts into
//! simulated milliseconds.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssbench_engine::io::{self, SheetData};
use ssbench_engine::meter::Primitive;
use ssbench_engine::prelude::*;
use ssbench_engine::trace::{Category, Span};

use crate::op::OpClass;
use crate::policy::{RecalcTrigger, VIEWPORT_ROWS};
use crate::profile::{SystemKind, SystemProfile};

/// A system under test: profile + deterministic noise source.
pub struct SimSystem {
    profile: SystemProfile,
    rng: RefCell<SmallRng>,
}

impl SimSystem {
    /// Builds the simulated system for `kind` with the default noise seed.
    pub fn new(kind: SystemKind) -> Self {
        SimSystem::with_seed(kind, 0xB0B5)
    }

    /// Builds with an explicit noise seed (noise only affects systems
    /// whose profile sets `noise_frac > 0`).
    pub fn with_seed(kind: SystemKind, seed: u64) -> Self {
        SimSystem {
            profile: kind.profile(),
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// The system kind.
    pub fn kind(&self) -> SystemKind {
        self.profile.kind
    }

    /// The underlying profile.
    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    /// The row cap this system can run for an operation class (§3.3
    /// quotas); `None` = unlimited.
    pub fn max_rows(&self, op: OpClass) -> Option<u32> {
        let q = self.profile.policies.quotas;
        match op {
            OpClass::Sort => q.sort_rows.or(q.general_rows),
            OpClass::FindReplace => q.find_replace_rows.or(q.general_rows),
            OpClass::Shared => q.shared_rows.or(q.general_rows),
            _ => q.general_rows,
        }
    }

    /// Applies noise (server-load variance) to a simulated time.
    fn with_noise(&self, ms: f64) -> f64 {
        let frac = self.profile.policies.noise_frac;
        if frac == 0.0 {
            return ms;
        }
        let jitter: f64 = self.rng.borrow_mut().random_range(-frac..=frac);
        ms * (1.0 + jitter)
    }

    /// Runs `f` against `sheet` as one scripted operation of class `op`:
    /// charges the remote round trip when applicable, measures the
    /// primitive-count delta, and converts it to simulated milliseconds.
    ///
    /// Every call opens a `measure:<op>:<system>` trace span carrying the
    /// same delta the cost model converts, plus the (noisy) simulated time
    /// — the invariant the trace exporter validates.
    pub fn measure<R>(
        &self,
        sheet: &mut Sheet,
        op: OpClass,
        f: impl FnOnce(&mut Sheet) -> R,
    ) -> (R, f64) {
        sheet.set_lookup_strategy(self.profile.policies.lookup);
        if self.profile.policies.indexed {
            // Index construction is amortized across the edit stream (§6):
            // make sure the maintained indexes exist *before* the measured
            // region so the operation pays only its probes. Ops that build
            // from scratch (`open_doc`) charge the build instead.
            sheet.set_auto_index(true);
            sheet.ensure_indexes();
        }
        let kind = self.profile.kind;
        let span = Span::open_metered(
            Category::Measure,
            || format!("measure:{}:{}", op.name(), kind.name()),
            sheet.meter(),
        );
        let before = sheet.meter().snapshot();
        if self.profile.policies.remote {
            sheet.meter().tick(Primitive::NetworkRtt);
        }
        let result = f(sheet);
        let delta = sheet.meter().snapshot().since(&before);
        let ms = self.profile.costs.time_ms(op, &delta);
        let noisy = self.with_noise(ms);
        span.set_sim_ms(noisy);
        span.finish_metered(sheet.meter());
        (result, noisy)
    }

    /// Applies this system's post-operation recalculation trigger.
    fn apply_trigger(&self, sheet: &mut Sheet, trigger: RecalcTrigger) {
        match trigger {
            RecalcTrigger::None => {}
            RecalcTrigger::Recheck => {
                sheet
                    .meter()
                    .bump(Primitive::FormulaRecheck, sheet.formula_count() as u64);
            }
            RecalcTrigger::Full => {
                recalc::recalc_all(sheet);
            }
            RecalcTrigger::Superlinear => {
                if sheet.formula_count() > 0 {
                    let m = f64::from(sheet.nrows());
                    sheet.meter().bump(Primitive::SuperlinearUnit, m.powf(1.2) as u64);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // BCT operations
    // ------------------------------------------------------------------

    /// Opens a saved document (§4.1). Desktop systems parse every cell,
    /// build the calculation sequence, and recalculate; Google Sheets
    /// loads the visible window lazily but still resolves formula
    /// dependencies for the whole document server-side.
    pub fn open_doc(&self, doc: &SheetData) -> (Sheet, f64) {
        // Open builds the sheet (and its meter) from scratch, so it cannot
        // use `measure`'s before/after snapshots; the span's counts are set
        // explicitly from the fresh sheet's full tally instead.
        let kind = self.profile.kind;
        let span =
            Span::open(Category::Measure, || format!("measure:open:{}", kind.name()));
        let p = &self.profile.policies;
        let mut sheet = if p.remote {
            // §4.1: only the visible window loads and renders client-side,
            // after one round trip (§3.3), while the server resolves the
            // dependencies of every formula in the file.
            let sheet = io::open_window(doc, VIEWPORT_ROWS).expect("generated document parses");
            sheet.meter().tick(Primitive::NetworkRtt);
            let cells = u64::from(sheet.nrows()) * u64::from(sheet.ncols());
            sheet.meter().bump(Primitive::RenderCell, cells);
            let formulas = doc
                .rows
                .iter()
                .flat_map(|r| r.iter())
                .filter(|t| t.starts_with('='))
                .count() as u64;
            sheet.meter().bump(Primitive::DepBuild, formulas);
            sheet
        } else {
            let mut sheet = io::open(doc, Layout::RowMajor).expect("generated document parses");
            if p.indexed {
                // The indexed system builds its column indexes while
                // loading, so `open` honestly pays one IndexProbe per
                // indexed cell up front — later probes are then O(1).
                sheet.set_auto_index(true);
                sheet.ensure_indexes();
            }
            recalc::open_recalc(&mut sheet);
            sheet
        };
        sheet.set_lookup_strategy(p.lookup);
        let counts = sheet.meter().snapshot();
        let ms = self.profile.costs.time_ms(OpClass::Open, &counts);
        let noisy = self.with_noise(ms);
        span.set_counts(counts);
        span.set_sim_ms(noisy);
        span.finish();
        (sheet, noisy)
    }

    /// Sorts the whole sheet ascending by one column (§4.2.1), then
    /// recalculates per policy (all three systems recompute after sort).
    pub fn sort(&self, sheet: &mut Sheet, key_col: u32) -> f64 {
        let trigger = self.profile.policies.recalc_on_sort;
        let (_, ms) = self.measure(sheet, OpClass::Sort, |s| {
            s.apply(Op::Sort { keys: vec![SortKey::asc(key_col)] })
                .expect("sort is infallible");
            self.apply_trigger(s, trigger);
        });
        ms
    }

    /// Conditional formatting over one column (§4.2.2): color cells
    /// matching `criterion` green; Sheets styles only the visible window.
    pub fn conditional_format(&self, sheet: &mut Sheet, col: u32, criterion: &Criterion) -> f64 {
        let p = &self.profile.policies;
        let trigger = p.recalc_on_format;
        let (_, ms) = self.measure(sheet, OpClass::CondFormat, |s| {
            // §4.2.2: a remote system styles only the visible window.
            let last_row = if p.remote {
                VIEWPORT_ROWS.min(s.nrows().saturating_sub(1))
            } else {
                s.nrows().saturating_sub(1)
            };
            let range = Range::column_segment(col, 0, last_row);
            s.apply(Op::CondFormat { range, criterion: criterion.clone(), fill: Color::GREEN })
                .expect("conditional format is infallible");
            self.apply_trigger(s, trigger);
        });
        ms
    }

    /// Filter by a predicate on one column (§4.3.1).
    pub fn filter(&self, sheet: &mut Sheet, col: u32, criterion: &Criterion) -> (u32, f64) {
        let trigger = self.profile.policies.recalc_on_filter;
        self.measure(sheet, OpClass::Filter, |s| {
            let visible = match s.apply(Op::Filter { col, criterion: criterion.clone() }) {
                Ok(OpOutcome::Filtered { visible }) => visible,
                other => unreachable!("filter dispatch returned {other:?}"),
            };
            self.apply_trigger(s, trigger);
            visible
        })
    }

    /// Pivot: aggregate `measure_col` grouped by `dim_col` into a new
    /// worksheet (§4.3.2).
    pub fn pivot(&self, sheet: &mut Sheet, dim_col: u32, measure_col: u32) -> (PivotTable, f64) {
        let trigger = self.profile.policies.recalc_on_pivot;
        self.measure(sheet, OpClass::Pivot, |s| {
            let table = match s.apply(Op::Pivot { dim_col, measure_col, agg: PivotAgg::Sum }) {
                Ok(OpOutcome::Pivoted(table)) => table,
                other => unreachable!("pivot dispatch returned {other:?}"),
            };
            // Write into the inserted worksheet; group writes are charged
            // to the measured sheet (one logical operation).
            s.meter().bump(Primitive::GroupWrite, table.len() as u64);
            self.apply_trigger(s, trigger);
            table
        })
    }

    /// One-shot evaluation of a formula as a scripted query of class `op`
    /// (used for COUNTIF, VLOOKUP, and custom aggregates).
    pub fn eval_formula(&self, sheet: &mut Sheet, op: OpClass, src: &str) -> (Value, f64) {
        self.measure(sheet, op, |s| {
            s.meter().tick(Primitive::FormulaEval);
            s.eval_str(src).expect("benchmark formula parses")
        })
    }

    /// `COUNTIF(col[0..m], criterion)` (§4.3.3).
    pub fn countif(&self, sheet: &mut Sheet, col: u32, rows: u32, criterion: &str) -> (Value, f64) {
        let range = Range::column_segment(col, 0, rows.saturating_sub(1));
        let src = format!("COUNTIF({},{})", range.to_a1(), criterion);
        self.eval_formula(sheet, OpClass::Aggregate, &src)
    }

    /// `VLOOKUP(x, A:B, 2, approx)` (§4.3.4).
    pub fn vlookup(
        &self,
        sheet: &mut Sheet,
        x: f64,
        rows: u32,
        result_col: u32,
        approx: bool,
    ) -> (Value, f64) {
        let range = Range::new(
            CellAddr::new(0, 0),
            CellAddr::new(rows.saturating_sub(1), result_col),
        );
        let src = format!(
            "VLOOKUP({x},{},{},{})",
            range.to_a1(),
            result_col + 1,
            if approx { "TRUE" } else { "FALSE" }
        );
        self.eval_formula(sheet, OpClass::Lookup, &src)
    }

    // ------------------------------------------------------------------
    // OOT operations
    // ------------------------------------------------------------------

    /// Find-and-replace over the whole sheet (§5.1.2). Under the `indexed`
    /// policy the engine charges the search per distinct text, not per
    /// cell, so an absent needle costs the same at any size.
    pub fn find_replace(&self, sheet: &mut Sheet, needle: &str, replacement: &str) -> (u32, f64) {
        self.measure(sheet, OpClass::FindReplace, |s| match s.used_range() {
            Some(range) => {
                let op = Op::FindReplace {
                    range,
                    needle: needle.to_owned(),
                    replacement: replacement.to_owned(),
                };
                match s.apply(op) {
                    Ok(OpOutcome::Replaced { cells }) => cells,
                    other => unreachable!("find_replace dispatch returned {other:?}"),
                }
            }
            None => 0,
        })
    }

    /// Sequential scripted read of `rows` cells down one column (§5.2).
    pub fn sequential_access(&self, sheet: &mut Sheet, col: u32, rows: u32) -> f64 {
        let (_, ms) = self.measure(sheet, OpClass::Access, |s| {
            let ctx = s.eval_ctx(CellAddr::new(0, 0));
            let mut checksum = 0.0f64;
            for r in 0..rows {
                if let Some(n) = ctx.read(CellAddr::new(r, col)).as_number() {
                    checksum += n;
                }
            }
            checksum
        });
        ms
    }

    /// Random scripted read of `rows` cells of one column in a seeded
    /// shuffle order (§5.2).
    pub fn random_access(&self, sheet: &mut Sheet, col: u32, rows: u32, seed: u64) -> f64 {
        // Pre-generate the access order outside the measured region.
        let mut order: Vec<u32> = (0..rows).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let (_, ms) = self.measure(sheet, OpClass::Access, |s| {
            let ctx = s.eval_ctx(CellAddr::new(0, 0));
            let mut checksum = 0.0f64;
            for &r in &order {
                if let Some(n) = ctx.read(CellAddr::new(r, col)).as_number() {
                    checksum += n;
                }
            }
            checksum
        });
        ms
    }

    /// Full recalculation of all embedded formulae as one measured
    /// operation of class `Shared` (the §5.3/§5.4 bulk-computation
    /// experiments). Under the `indexed` policy a `SUM(A$1:Ai)` family
    /// slid by the engine's delta cache is charged its slides, O(m), not
    /// its windows, O(m²).
    pub fn recalc_embedded(&self, sheet: &mut Sheet) -> f64 {
        let (_, ms) = self.measure(sheet, OpClass::Shared, |s| {
            recalc::recalc_all(s);
        });
        ms
    }

    /// Edits one cell and recomputes its dependents (§5.5): `set_value`,
    /// then `recalc_from` the edited cell, for every system. What the
    /// recomputation costs is the profile's: the three commercial systems
    /// rescan the affected aggregates, O(m); the Optimized profile's
    /// maintained column index keeps up with the write and answers a
    /// recomputed `COUNTIF` in probes, so its update is flat in m.
    pub fn update_cell(&self, sheet: &mut Sheet, addr: CellAddr, v: Value) -> f64 {
        let (_, ms) = self.measure(sheet, OpClass::Update, |s| {
            s.set_value(addr, v);
            recalc::recalc_from(s, &[addr]);
        });
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_workload::{build_doc, build_sheet, Variant};

    /// The three systems the paper benchmarks (the Optimized profile's
    /// divergent behaviour is asserted separately).
    const PAPER_TRIO: [SystemKind; 3] =
        [SystemKind::Excel, SystemKind::Calc, SystemKind::GSheets];

    #[test]
    fn sort_recalc_full_for_all_systems() {
        for kind in PAPER_TRIO {
            let sys = SimSystem::new(kind);
            let mut sheet = build_sheet(500, Variant::FormulaValue);
            let before = sheet.meter().snapshot();
            sys.sort(&mut sheet, 0);
            let d = sheet.meter().snapshot().since(&before);
            assert_eq!(
                d.get(Primitive::FormulaEval),
                500 * 7,
                "{kind}: sort must trigger full recalc"
            );
            // Sorted ascending by column A after the shuffle… it was
            // already sorted, so check stability: A1 == 1.
            assert_eq!(sheet.value(CellAddr::new(0, 0)), Value::Number(1.0));
        }
    }

    #[test]
    fn excel_format_triggers_no_recalc_calc_does() {
        let mut f_excel = build_sheet(400, Variant::FormulaValue);
        let mut f_calc = build_sheet(400, Variant::FormulaValue);
        let crit = Criterion::parse(&Value::Number(1.0));
        let excel = SimSystem::new(SystemKind::Excel);
        let calc = SimSystem::new(SystemKind::Calc);
        let b1 = f_excel.meter().snapshot();
        excel.conditional_format(&mut f_excel, 10, &crit);
        let d1 = f_excel.meter().snapshot().since(&b1);
        let b2 = f_calc.meter().snapshot();
        calc.conditional_format(&mut f_calc, 10, &crit);
        let d2 = f_calc.meter().snapshot().since(&b2);
        // Excel's policy performs no recomputation; Calc's adds a recheck
        // for all 2800 embedded formulae (§4.2.2).
        assert_eq!(d1.get(Primitive::FormulaRecheck), 0);
        assert_eq!(d2.get(Primitive::FormulaRecheck), 2800);
    }

    #[test]
    fn excel_filter_superlinear_only_on_formula_value() {
        let excel = SimSystem::new(SystemKind::Excel);
        let crit = Criterion::parse(&Value::text("SD"));
        let mut f = build_sheet(1000, Variant::FormulaValue);
        let mut v = build_sheet(1000, Variant::ValueOnly);
        excel.filter(&mut f, 1, &crit);
        excel.filter(&mut v, 1, &crit);
        assert!(f.meter().snapshot().get(Primitive::SuperlinearUnit) > 0);
        assert_eq!(v.meter().snapshot().get(Primitive::SuperlinearUnit), 0);
    }

    #[test]
    fn countif_result_is_correct_and_time_positive() {
        let sys = SimSystem::new(SystemKind::Excel);
        let mut v = build_sheet(1000, Variant::ValueOnly);
        let (count, ms) = sys.countif(&mut v, 10, 1000, "1");
        let n = count.as_number().unwrap();
        assert!(n > 0.0 && n < 1000.0, "0/1 mix expected, got {n}");
        assert!(ms > 0.0);
    }

    #[test]
    fn vlookup_matches_across_systems_but_costs_differ() {
        let mut sheets: Vec<Sheet> =
            (0..3).map(|_| build_sheet(2000, Variant::ValueOnly)).collect();
        let mut results = Vec::new();
        let mut reads = Vec::new();
        for (i, kind) in PAPER_TRIO.iter().enumerate() {
            let sys = SimSystem::new(*kind);
            let before = sheets[i].meter().snapshot();
            let (v, _) = sys.vlookup(&mut sheets[i], 1500.0, 2000, 1, false);
            let d = sheets[i].meter().snapshot().since(&before);
            results.push(v);
            reads.push(d.get(Primitive::CellRead));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        // Excel early-exits at row 1500; the others scan all 2000.
        assert!(reads[0] < reads[1], "excel {} vs calc {}", reads[0], reads[1]);
        assert_eq!(reads[1], reads[2]);
    }

    #[test]
    fn gsheets_open_is_lazy_but_resolves_formulas() {
        let g = SimSystem::new(SystemKind::GSheets);
        let doc_f = build_doc(2000, Variant::FormulaValue);
        let doc_v = build_doc(2000, Variant::ValueOnly);
        let (sheet_f, _) = g.open_doc(&doc_f);
        let (sheet_v, _) = g.open_doc(&doc_v);
        assert_eq!(sheet_f.nrows(), 50, "viewport only");
        assert_eq!(sheet_f.meter().snapshot().get(Primitive::DepBuild), 2000 * 7);
        assert_eq!(sheet_v.meter().snapshot().get(Primitive::DepBuild), 0);
    }

    #[test]
    fn desktop_open_parses_everything_and_recalcs() {
        let e = SimSystem::new(SystemKind::Excel);
        let doc = build_doc(300, Variant::FormulaValue);
        let (sheet, ms) = e.open_doc(&doc);
        assert_eq!(sheet.nrows(), 300);
        let c = sheet.meter().snapshot();
        assert_eq!(c.get(Primitive::CellParse), 300 * 17);
        assert_eq!(c.get(Primitive::DepBuild), 300 * 7);
        assert_eq!(c.get(Primitive::FormulaEval), 300 * 7);
        assert!(ms > 200.0, "includes the application base, got {ms}");
    }

    #[test]
    fn gsheets_noise_is_bounded_and_deterministic() {
        let g1 = SimSystem::with_seed(SystemKind::GSheets, 1);
        let g2 = SimSystem::with_seed(SystemKind::GSheets, 1);
        let mut s1 = build_sheet(1000, Variant::ValueOnly);
        let mut s2 = build_sheet(1000, Variant::ValueOnly);
        let (_, t1) = g1.countif(&mut s1, 10, 1000, "1");
        let (_, t2) = g2.countif(&mut s2, 10, 1000, "1");
        assert_eq!(t1, t2, "same seed, same time");
        let base = 150.0 + 282.0; // rtt + aggregate base
        assert!((t1 - base).abs() / base < 0.15, "noise bounded: {t1} vs {base}");
    }

    #[test]
    fn quotas_reported() {
        let g = SimSystem::new(SystemKind::GSheets);
        assert_eq!(g.max_rows(OpClass::Aggregate), Some(90_000));
        assert_eq!(g.max_rows(OpClass::Sort), Some(50_000));
        assert_eq!(g.max_rows(OpClass::FindReplace), Some(30_000));
        let e = SimSystem::new(SystemKind::Excel);
        assert_eq!(e.max_rows(OpClass::Sort), None);
    }

    #[test]
    fn update_recomputes_from_scratch() {
        let sys = SimSystem::new(SystemKind::Calc);
        let mut v = build_sheet(2000, Variant::ValueOnly);
        // Install the §5.5 COUNTIF over column K, then edit K1.
        v.set_formula_str(CellAddr::new(0, 20), "=COUNTIF(K1:K2000,1)").unwrap();
        recalc::recalc_all(&mut v);
        let before = v.meter().snapshot();
        let ms = sys.update_cell(&mut v, CellAddr::new(0, 10), Value::Number(0.0));
        let d = v.meter().snapshot().since(&before);
        assert_eq!(d.get(Primitive::CellRead), 2000, "full re-scan, not O(1)");
        assert!(ms > 0.0);
    }

    /// The Optimized profile updates like every system — `set_value`, then
    /// `recalc_from` — and its edit costs no scan: the write keeps J's index
    /// current (one probe) and each recomputed `COUNTIF` is three probes. N
    /// copies of the formula cost 1 + 3N probes, and read what Excel reads.
    #[test]
    fn optimized_update_recomputes_through_the_index() {
        use ssbench_workload::schema::MEASURE_COL;
        let edited = CellAddr::new(1, MEASURE_COL); // J2
        for n in [1u32, 5] {
            let run = |kind: SystemKind| {
                let sys = SimSystem::new(kind);
                let mut v = build_sheet(2000, Variant::ValueOnly);
                for i in 0..n {
                    v.set_formula_str(CellAddr::new(i, 20), "=COUNTIF(J1:J2000,1)").unwrap();
                }
                recalc::recalc_all(&mut v);
                // The first edit builds the Optimized profile's indexes
                // (outside its measured region); the second is the one
                // counted.
                let old = v.value(edited);
                sys.update_cell(&mut v, edited, Value::Number(7.0));
                let before = v.meter().snapshot();
                sys.update_cell(&mut v, edited, old);
                let d = v.meter().snapshot().since(&before);
                let values: Vec<Value> = (0..n).map(|i| v.value(CellAddr::new(i, 20))).collect();
                (d, values)
            };
            let (opt, opt_values) = run(SystemKind::Optimized);
            let (_, excel_values) = run(SystemKind::Excel);
            assert_eq!(opt.get(Primitive::CellWrite), 1, "N={n}");
            assert_eq!(opt.get(Primitive::IndexProbe), 1 + 3 * u64::from(n), "N={n}");
            assert_eq!(opt.get(Primitive::FormulaEval), u64::from(n), "N={n}");
            assert_eq!(opt.get(Primitive::CellRead), 0, "N={n}: probes, not a scan");
            assert_eq!(opt_values, excel_values, "N={n}");
        }
    }

    #[test]
    fn optimized_countif_probes_index_instead_of_scanning() {
        let sys = SimSystem::new(SystemKind::Optimized);
        let mut v = build_sheet(2000, Variant::ValueOnly);
        let before = v.meter().snapshot();
        let (n, ms) = sys.countif(&mut v, 10, 2000, "1");
        let d = v.meter().snapshot().since(&before);
        // The index build is charged before the measured region opens;
        // the aggregate itself is probes, not a 2000-cell scan.
        assert_eq!(d.get(Primitive::CellRead), 0, "probe, not scan");
        assert!(d.get(Primitive::IndexProbe) > 0);
        assert!(ms < 5.0, "{ms}");
        // Bit-identical to Excel's scan answer.
        let excel = SimSystem::new(SystemKind::Excel);
        let mut v2 = build_sheet(2000, Variant::ValueOnly);
        let (n2, _) = excel.countif(&mut v2, 10, 2000, "1");
        assert_eq!(n, n2);
    }

    /// The fourth system's headline: COUNTIF, exact VLOOKUP and a
    /// single-cell update stay interactive however tall the sheet is. The
    /// simulated times are deterministic, so the claim is held as "under
    /// the bound and identical at two sizes" — O(1) in rows, which carries
    /// it to the paper's 500k without building 500k rows in a debug test —
    /// while Excel's scan-based times grow with the sheet.
    #[test]
    fn optimized_stays_interactive_at_any_size() {
        use crate::INTERACTIVITY_BOUND_MS;
        use ssbench_workload::schema::{FORMULA_COL_START, MEASURE_COL};

        const OPS: [&str; 3] = ["countif", "vlookup", "update"];
        let run = |kind: SystemKind, rows: u32| -> [f64; 3] {
            let sys = SimSystem::new(kind);
            let mut sheet = build_sheet(rows, Variant::ValueOnly);
            let (_, countif) = sys.countif(&mut sheet, FORMULA_COL_START, rows, "1");
            let (_, vlookup) = sys.vlookup(&mut sheet, f64::from(rows - 7), rows, 1, false);
            // The update recomputes through the index: install the COUNTIF
            // Figure 13 edits under, then flip one measure cell.
            let range = Range::column_segment(MEASURE_COL, 0, rows - 1);
            sheet
                .set_formula_str(CellAddr::new(0, 20), &format!("=COUNTIF({},1)", range.to_a1()))
                .unwrap();
            recalc::recalc_all(&mut sheet);
            let edited = CellAddr::new(1, MEASURE_COL);
            let update = sys.update_cell(&mut sheet, edited, Value::Number(0.0));
            [countif, vlookup, update]
        };
        let small = run(SystemKind::Optimized, 5_000);
        let large = run(SystemKind::Optimized, 50_000);
        assert_eq!(small, large, "Optimized times must not depend on the row count");
        for (what, ms) in OPS.iter().zip(large) {
            assert!(ms < INTERACTIVITY_BOUND_MS, "Optimized {what}: {ms} ms");
        }
        let small = run(SystemKind::Excel, 5_000);
        let large = run(SystemKind::Excel, 50_000);
        for (what, (s, l)) in OPS.iter().zip(small.into_iter().zip(large)) {
            assert!(l > s, "Excel {what} scans, so it must grow: {s} ms -> {l} ms");
        }
    }

    #[test]
    fn optimized_open_charges_index_construction() {
        let o = SimSystem::new(SystemKind::Optimized);
        let doc = build_doc(300, Variant::FormulaValue);
        let (sheet, ms) = o.open_doc(&doc);
        let c = sheet.meter().snapshot();
        assert_eq!(c.get(Primitive::CellParse), 300 * 17);
        assert!(c.get(Primitive::IndexProbe) >= 300 * 10, "build charged on open");
        assert!(ms > 0.0);
    }
}
