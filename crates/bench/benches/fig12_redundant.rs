//! Criterion bench regenerating Figure 12 (redundant computation, §5.4) —
//! its Optimized series is the formula memo — plus five un-memoized
//! evaluations of one COUNTIF on the wall clock.

use criterion::{criterion_group, criterion_main, Criterion};
use ssbench_bench::bench_config;
use ssbench_engine::prelude::*;
use ssbench_harness::oot::fig12_redundant;
use ssbench_workload::{build_sheet, Variant};

fn bench(c: &mut Criterion) {
    c.bench_function("fig12/harness", |b| {
        let cfg = bench_config();
        b.iter(|| fig12_redundant(&cfg))
    });
    let sheet = build_sheet(20_000, Variant::ValueOnly);
    let expr = parse("COUNTIF(J1:J20000,1)").unwrap();
    c.bench_function("fig12/five_instances_naive_20k", |b| {
        b.iter(|| {
            for _ in 0..5 {
                sheet.eval_expr(&expr);
            }
        })
    });
}


/// Fast criterion config: the heavyweight iterations here are whole harness
/// experiments, so small sample counts and short measurement windows keep
/// `cargo bench --workspace` affordable.
fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench
}
criterion_main!(benches);
