//! Ablation: the shipped recalc (compiled formula programs, range
//! kernels, window-delta cache) vs the reference recalc (the tree-walking
//! interpreter) on the recalc hot path (DESIGN.md §10, §12).
//!
//! Workload: a 100k-row fill-down aggregate column — every cell of
//! column B computes a trailing 500-row `SUM` window over column A plus
//! a scalar term. Under R1C1 normalization the whole column is one
//! template (plus the clipped window-start variants near row 1), so the
//! program cache compiles ~500 programs for 100k formulas. Two rungs:
//!
//! * `reference` — every formula walked by the tree-walking interpreter,
//!   every window rescanned cell by cell;
//! * `shipped` — one compiled program per template, slice kernels, and
//!   overlapping fill-down windows slid incrementally (evict the rows that
//!   left, enter the rows that arrived) instead of rescanned.
//!
//! Each rung is timed twice: the evaluation hot path alone (no planning,
//! no stores — `eval::evaluate` vs an [`EvalSession`]) and a full
//! sequential pass (`recalc::recalc_reference` vs `recalc::recalc_all`),
//! where the planning and store costs both rungs share dilute the ratio.
//!
//! Besides the criterion groups, this binary measures a median
//! ns-per-formula-cell baseline per rung on the evaluation pass, writes
//! it as JSON to `$BENCH_EVAL_JSON` (default `BENCH_eval.json` in the
//! working directory), and exits non-zero if `shipped` fails the >= 5x
//! speedup acceptance bar over the reference.
//!
//! A structural-op workload (sort + mid-column row insert over a warm
//! fill-down sheet) times the post-edit full recalc with the memo
//! bindings the structural ops retained vs with them dropped, and
//! records the pair as the `memo_retention` row of the JSON baseline.

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use ssbench_engine::prelude::*;

const ROWS: u32 = 100_000;
const WINDOW: u32 = 500;

/// One rung: how it evaluates the formula column alone, and its full pass.
struct Rung {
    name: &'static str,
    eval_pass: fn(&Sheet, &[CellAddr]),
    recalc: fn(&mut Sheet) -> recalc::RecalcStats,
}

const RUNGS: [Rung; 2] = [
    Rung {
        name: "reference",
        eval_pass: |sheet, formulas| {
            for &addr in formulas {
                let expr = sheet.formula_expr(addr).expect("fill-down cell is a formula");
                black_box(ssbench_engine::eval::evaluate(expr, &sheet.eval_ctx(addr)));
            }
        },
        recalc: |sheet| recalc::recalc_reference(sheet, None),
    },
    Rung {
        name: "shipped",
        // Driven through an `EvalSession` so the window cache slides from
        // one formula to the next, as it does inside a recalc level.
        eval_pass: |sheet, formulas| {
            let mut session = EvalSession::new(sheet);
            for &addr in formulas {
                black_box(session.eval(addr));
            }
        },
        recalc: recalc::recalc_all,
    },
];

/// The fill-down sheet: `A1:A100000` values, `B{r} = SUM(A{r-499}:A{r})*2
/// + A{r}` (window clipped at the top). Returns the formula addresses in
/// fill order. Column-major layout: a trailing column window is then one
/// contiguous grid slice, the kernels' designed-for case (the row-major
/// strided case is covered by the differential tests, not benchmarked).
fn fill_down_sheet(rows: u32) -> (Sheet, Vec<CellAddr>) {
    let mut s = Sheet::with_layout(Layout::ColumnMajor, 0, 0);
    s.set_recalc_options(RecalcOptions::sequential());
    for r in 0..rows {
        s.set_value(CellAddr::new(r, 0), (r % 97) as i64);
    }
    let mut formulas = Vec::with_capacity(rows as usize);
    for r in 0..rows {
        let lo = r.saturating_sub(WINDOW - 1) + 1; // 1-based, clipped
        let addr = CellAddr::new(r, 1);
        s.set_formula_str(addr, &format!("=SUM(A{lo}:A{hi})*2+A{hi}", hi = r + 1)).unwrap();
        formulas.push(addr);
    }
    (s, formulas)
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_compile/eval_100k_fill_down");
    for rung in &RUNGS {
        let (sheet, formulas) = fill_down_sheet(ROWS);
        group.bench_with_input(BenchmarkId::from_parameter(rung.name), &(), move |b, _| {
            b.iter(|| (rung.eval_pass)(&sheet, &formulas))
        });
    }
    group.finish();
}

fn bench_recalc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_compile/recalc_100k_fill_down");
    for rung in &RUNGS {
        let (mut sheet, _) = fill_down_sheet(ROWS);
        group.bench_with_input(BenchmarkId::from_parameter(rung.name), &(), move |b, _| {
            b.iter(|| (rung.recalc)(&mut sheet))
        });
    }
    group.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_eval, bench_recalc
}

/// Median ns per formula cell over 5 timed eval passes (one warm-up
/// pass first, which also fills the program cache).
fn median_ns_per_cell(rung: &Rung) -> f64 {
    let (sheet, formulas) = fill_down_sheet(ROWS);
    (rung.eval_pass)(&sheet, &formulas);
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            (rung.eval_pass)(&sheet, &formulas);
            start.elapsed().as_secs_f64() * 1e9 / formulas.len() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Rows for the structural-op (memo retention) workload: big enough
/// that per-formula costs dominate, small enough that rebuilding the
/// sheet per trial keeps the bench fast.
const STRUCT_ROWS: u32 = 20_000;

/// Memo-retention ablation (DESIGN.md §12): warm a fill-down
/// sheet, sort it descending on column A, insert one row mid-column,
/// then time the post-edit full recalc twice — once with the
/// per-address memo bindings the structural ops provably retained, and
/// once after dropping them (`ProgramCache::retain_pure`, the
/// pre-retention behavior: templates survive, bindings do not, so every
/// formula re-normalizes to R1C1 and re-probes the template map).
/// Returns (retained ns/cell, cleared ns/cell, memo entries retained).
fn memo_retention_ablation() -> (f64, f64, usize) {
    let run = |clear: bool| -> (f64, usize) {
        let mut samples = Vec::new();
        let mut kept = 0usize;
        for _ in 0..3 {
            let (mut s, formulas) = fill_down_sheet(STRUCT_ROWS);
            recalc::recalc_all(&mut s); // warm templates + memo
            s.apply(Op::Sort { keys: vec![SortKey::desc(0)] }).unwrap();
            s.apply(Op::InsertRows { at: STRUCT_ROWS / 2, count: 1 }).unwrap();
            if clear {
                s.program_cache().retain_pure();
            }
            kept = s.program_cache().memo_len();
            let t = Instant::now();
            recalc::recalc_all(&mut s);
            samples.push(t.elapsed().as_secs_f64() * 1e9 / formulas.len() as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        (samples[samples.len() / 2], kept)
    };
    let (retained, kept) = run(false);
    let (cleared, _) = run(true);
    (retained, cleared, kept)
}

fn write_baseline() {
    let [reference, shipped] = RUNGS.each_ref().map(median_ns_per_cell);
    let (memo_retained, memo_cleared, memo_kept) = memo_retention_ablation();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ablation_compile\",\n",
            "  \"workload\": \"fill_down_sum_window{window}_rows{rows}\",\n",
            "  \"median_ns_per_cell\": {{\n",
            "    \"reference\": {reference:.1},\n",
            "    \"shipped\": {shipped:.1}\n",
            "  }},\n",
            "  \"speedup_vs_reference\": {speedup:.2},\n",
            "  \"memo_retention\": {{\n",
            "    \"workload\": \"sort_desc_then_insert_row_rows{struct_rows}\",\n",
            "    \"post_edit_recalc_ns_per_cell\": {{\n",
            "      \"retained\": {memo_retained:.1},\n",
            "      \"cleared\": {memo_cleared:.1}\n",
            "    }},\n",
            "    \"cleared_over_retained\": {memo_ratio:.2},\n",
            "    \"memo_entries_retained\": {memo_kept}\n",
            "  }}\n",
            "}}\n"
        ),
        window = WINDOW,
        rows = ROWS,
        reference = reference,
        shipped = shipped,
        speedup = reference / shipped,
        struct_rows = STRUCT_ROWS,
        memo_retained = memo_retained,
        memo_cleared = memo_cleared,
        memo_ratio = memo_cleared / memo_retained,
        memo_kept = memo_kept,
    );
    let path =
        std::env::var("BENCH_EVAL_JSON").unwrap_or_else(|_| "BENCH_eval.json".to_string());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("baseline written to {path}:\n{json}");
    let speedup = reference / shipped;
    if speedup < 5.0 {
        eprintln!("FAIL: shipped speedup {speedup:.2}x is below the 5x acceptance bar");
        std::process::exit(1);
    }
}

fn main() {
    // ABLATION_BASELINE_ONLY=1 skips the criterion groups and goes
    // straight to the JSON baseline + acceptance gate — handy when
    // regenerating BENCH_eval.json.
    if std::env::var("ABLATION_BASELINE_ONLY").is_err() {
        benches();
    }
    write_baseline();
}
