//! Criterion bench regenerating Figure 13 (incremental updates, §5.5) —
//! its Optimized series is the delta-maintained view — plus the
//! recompute-from-scratch edit on the wall clock.

use criterion::{criterion_group, criterion_main, Criterion};
use ssbench_bench::bench_config;
use ssbench_engine::prelude::*;
use ssbench_harness::oot::fig13_incremental;
use ssbench_workload::schema::MEASURE_COL;
use ssbench_workload::{build_sheet, Variant};

fn bench(c: &mut Criterion) {
    c.bench_function("fig13/harness", |b| {
        let cfg = bench_config();
        b.iter(|| fig13_incremental(&cfg))
    });
    let mut sheet = build_sheet(50_000, Variant::ValueOnly);
    let cell = CellAddr::new(0, 20);
    sheet.set_formula_str(cell, "=COUNTIF(J1:J50000,1)").unwrap();
    recalc::recalc_all(&mut sheet);
    let edit = CellAddr::new(1, MEASURE_COL);
    c.bench_function("fig13/recompute_from_scratch_50k", |b| {
        b.iter(|| {
            let old = sheet.value(edit);
            let new = if old == Value::Number(1.0) { 0 } else { 1 };
            sheet.set_value(edit, new);
            recalc::recalc_from(&mut sheet, &[edit])
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
