//! Criterion bench regenerating Figure 11 (shared computation, §5.3) —
//! its Optimized series is the prefix-sharing pass — plus the independent
//! evaluation of the same cumulative family on the wall clock.

use criterion::{criterion_group, criterion_main, Criterion};
use ssbench_bench::bench_config;
use ssbench_engine::prelude::*;
use ssbench_harness::oot::fig11_shared;

fn cumulative_sheet(m: u32) -> Sheet {
    let mut s = Sheet::new();
    s.ensure_size(m, 2);
    for i in 0..m {
        s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
    }
    for i in 0..m {
        s.set_formula_str(CellAddr::new(i, 1), &format!("=SUM(A1:A{})", i + 1)).unwrap();
    }
    s
}

fn bench(c: &mut Criterion) {
    c.bench_function("fig11/harness", |b| {
        let cfg = bench_config();
        b.iter(|| fig11_shared(&cfg))
    });
    c.bench_function("fig11/cumulative_2k/independent_recalc", |b| {
        b.iter_batched(
            || cumulative_sheet(2_000),
            |mut s| recalc::recalc_all(&mut s),
            criterion::BatchSize::LargeInput,
        )
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
