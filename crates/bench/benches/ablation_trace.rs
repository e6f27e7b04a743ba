//! Ablation: span-tracing overhead.
//!
//! Runs the same recalculation workloads with tracing off and with tracing
//! on (draining the recorded tree each iteration, as a traced benchmark run
//! would), plus a sheet-operation loop dominated by `Sheet::apply` spans.
//! The budget in DESIGN.md §8 is <5% overhead with tracing enabled; the
//! off/on pairs here are the measurement backing that claim. Lazy name
//! closures mean the off case costs two relaxed atomic loads per span.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssbench_engine::prelude::*;
use ssbench_workload::{build_sheet, Variant};

const MODES: [&str; 2] = ["off", "on"];

fn set_tracing(mode: &str) {
    match mode {
        "on" => trace::enable(trace::DEFAULT_CAPACITY),
        _ => {
            trace::disable();
            trace::clear();
        }
    }
}

/// The layered DAG of `ablation_parallel`: three levels so each recalc
/// emits Recalc + Level spans, with tracing cost amortised over ~50k
/// formula evaluations.
fn layered_sheet(n: u32) -> Sheet {
    let mut s = Sheet::new();
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

fn bench_recalc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_trace/layered_50k_recalc");
    for mode in MODES {
        let mut sheet = layered_sheet(50_000);
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, move |b, &mode| {
            set_tracing(mode);
            b.iter(|| {
                let stats = recalc::recalc_all(&mut sheet);
                if mode == "on" {
                    criterion::black_box(trace::drain());
                }
                stats
            });
            set_tracing("off");
        });
    }
    group.finish();
}

fn bench_parallel_recalc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_trace/layered_50k_recalc_4workers");
    for mode in MODES {
        let mut sheet = layered_sheet(50_000);
        sheet.set_recalc_options(RecalcOptions { parallelism: 4, threshold: 1 });
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, move |b, &mode| {
            set_tracing(mode);
            b.iter(|| {
                let stats = recalc::recalc_all(&mut sheet);
                if mode == "on" {
                    criterion::black_box(trace::drain());
                }
                stats
            });
            set_tracing("off");
        });
    }
    group.finish();
}

/// Span density at its worst: each iteration is one `Op` dispatch (sort on
/// a 20k-row weather sheet), so the per-span cost is divided over far fewer
/// primitives than in the recalc loops.
fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_trace/sort_20k_op");
    for mode in MODES {
        let mut sheet = build_sheet(20_000, Variant::ValueOnly);
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, move |b, &mode| {
            set_tracing(mode);
            let mut dir = true;
            b.iter(|| {
                let key = if dir { SortKey::asc(0) } else { SortKey::desc(0) };
                dir = !dir;
                let out = sheet.apply(Op::Sort { keys: vec![key] }).unwrap();
                if mode == "on" {
                    criterion::black_box(trace::drain());
                }
                out
            });
            set_tracing("off");
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
    targets = bench_recalc, bench_parallel_recalc, bench_ops
}
criterion_main!(benches);
