//! Criterion bench regenerating Figure 9 (find-and-replace, §5.1.2) —
//! its Optimized series is the token-index path — plus the raw linear
//! scan for an absent needle on a fixed sheet.

use criterion::{criterion_group, criterion_main, Criterion};
use ssbench_bench::bench_config;
use ssbench_engine::prelude::*;
use ssbench_harness::oot::fig9_find_replace;
use ssbench_workload::{build_sheet, Variant};

fn bench(c: &mut Criterion) {
    c.bench_function("fig9/harness", |b| {
        let cfg = bench_config();
        b.iter(|| fig9_find_replace(&cfg))
    });
    let sheet = build_sheet(10_000, Variant::ValueOnly);
    let range = sheet.used_range().unwrap();
    c.bench_function("fig9/naive_absent_scan_10k", |b| {
        b.iter(|| find_all(&sheet, range, "NOSUCHTOKEN"))
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
