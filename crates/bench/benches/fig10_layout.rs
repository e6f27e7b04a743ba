//! Criterion bench regenerating Figure 10 (data layout, §5.2), plus the
//! real point-read vs typed-chunk-scan contrast on the engine's grid.

use criterion::{criterion_group, criterion_main, Criterion};
use ssbench_bench::bench_config;
use ssbench_engine::prelude::*;
use ssbench_harness::oot::fig10_layout;
use ssbench_workload::schema::KEY_COL;
use ssbench_workload::{build_sheet, Variant};

fn bench(c: &mut Criterion) {
    c.bench_function("fig10/harness", |b| {
        let cfg = bench_config();
        b.iter(|| fig10_layout(&cfg))
    });
    let sheet = build_sheet(100_000, Variant::ValueOnly);
    c.bench_function("fig10/rowstore_column_sum_100k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in 0..sheet.nrows() {
                if let Some(n) = sheet.value(CellAddr::new(r, KEY_COL)).as_number() {
                    acc += n;
                }
            }
            acc
        })
    });
    let column = Range::column_segment(KEY_COL, 0, sheet.nrows() - 1);
    c.bench_function("fig10/columnar_column_sum_100k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            sheet.visit_range(column, &mut |_, v, _| acc += v.as_number().unwrap_or(0.0));
            acc
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
