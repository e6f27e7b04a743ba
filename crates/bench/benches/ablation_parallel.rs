//! Ablation: parallel level-scheduled recalculation (§4.1 workload).
//!
//! Sweeps the worker count over the Fig-2 open workload — the
//! Formula-value weather sheet, whose per-row `COUNTIF` formulae form one
//! wide dependency level — and over a layered aggregate DAG, measuring
//! wall-clock `recalc_all` at each thread count. The meter counts are
//! identical at every setting (asserted by `tests/parallel_recalc.rs`);
//! only the wall clock moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssbench_engine::prelude::*;
use ssbench_workload::{build_sheet, Variant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_fig2_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel/fig2_open_20k_rows");
    for threads in THREADS {
        let mut sheet = build_sheet(20_000, Variant::FormulaValue);
        sheet.set_recalc_options(RecalcOptions { parallelism: threads, threshold: 1 });
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, move |b, _| {
            b.iter(|| recalc::recalc_all(&mut sheet))
        });
    }
    group.finish();
}

/// A deeper DAG than Fig-2's single level: squares, windowed sums, and a
/// grand total (three levels), so the per-level barrier cost shows up.
fn layered_sheet(n: u32, threads: usize) -> Sheet {
    let mut s = Sheet::new();
    s.set_recalc_options(RecalcOptions { parallelism: threads, threshold: 1 });
    for i in 0..n {
        s.set_value(CellAddr::new(i, 0), (i % 97) as i64);
        s.set_formula_str(CellAddr::new(i, 1), &format!("=A{r}*A{r}+1", r = i + 1)).unwrap();
    }
    let blocks = n / 100;
    for b in 0..blocks {
        let (lo, hi) = (b * 100 + 1, (b + 1) * 100);
        s.set_formula_str(CellAddr::new(b, 2), &format!("=SUM(B{lo}:B{hi})")).unwrap();
    }
    s.set_formula_str(CellAddr::new(0, 3), &format!("=SUM(C1:C{blocks})")).unwrap();
    s
}

fn bench_layered(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel/layered_50k_formulas");
    for threads in THREADS {
        let mut sheet = layered_sheet(50_000, threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, move |b, _| {
            b.iter(|| recalc::recalc_all(&mut sheet))
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
    targets = bench_fig2_open, bench_layered
}
criterion_main!(benches);
