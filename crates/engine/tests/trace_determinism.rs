//! Determinism guarantee of the tracing subsystem: a traced recalculation
//! produces the same span tree and the same meter `Counts` whether it runs
//! sequentially or across worker threads. Worker chunks are merged at level
//! barriers in chunk order, so the tree is a pure function of the plan.
//!
//! Everything lives in one `#[test]` because the trace switch and the
//! `RECALC_PARALLELISM` override are process-global.

use ssbench_engine::prelude::*;

/// A wide three-level formula DAG: `n` input rows, a per-row square, a
/// windowed SUM per row, and one grand total — enough fan-out that every
/// level splits into multiple worker chunks.
fn wide_dag_sheet(n: u32, opts: RecalcOptions) -> Sheet {
    let mut s = Sheet::new();
    s.set_recalc_options(opts);
    for i in 0..n {
        s.set_value(CellAddr::new(i, 0), i64::from(i % 97));
        s.set_formula_str(CellAddr::new(i, 1), &format!("=A{r}*A{r}", r = i + 1)).unwrap();
        let lo = (i / 10) * 10 + 1;
        s.set_formula_str(CellAddr::new(i, 2), &format!("=SUM(B{lo}:B{})", i + 1)).unwrap();
    }
    s.set_formula_str(CellAddr::new(0, 3), &format!("=SUM(C1:C{n})")).unwrap();
    s
}

/// Recalculates a fresh DAG under `opts` with tracing on, returning the
/// span-tree signatures, the meter snapshot, and every computed value.
fn traced_run(opts: RecalcOptions) -> (Vec<String>, Counts, Vec<Value>) {
    const N: u32 = 600;
    trace::clear();
    let mut sheet = wide_dag_sheet(N, opts);
    recalc::recalc_all(&mut sheet);
    let counts = sheet.meter().snapshot();
    let roots = trace::drain();
    assert!(!roots.is_empty(), "tracing enabled, so recalc must emit spans");
    let signatures = roots.iter().map(|r| r.signature()).collect();
    let mut values = Vec::new();
    for row in 0..N {
        for col in 1..3 {
            values.push(sheet.value(CellAddr::new(row, col)));
        }
    }
    values.push(sheet.value(CellAddr::new(0, 3)));
    (signatures, counts, values)
}

#[test]
fn span_trees_and_counts_identical_across_thread_counts() {
    // The env override is what a traced benchmark run under
    // RECALC_PARALLELISM=4 would see; assert it reaches the defaults.
    std::env::set_var("RECALC_PARALLELISM", "4");
    assert_eq!(RecalcOptions::default().parallelism, 4, "env override ignored");

    trace::enable(trace::DEFAULT_CAPACITY);
    let sequential = traced_run(RecalcOptions::sequential());
    // Low threshold forces the parallel path (600-wide levels, 4 workers).
    let parallel = traced_run(RecalcOptions { parallelism: 4, threshold: 1 });
    trace::disable();
    trace::clear();

    assert_eq!(sequential.2, parallel.2, "computed values diverged");
    assert_eq!(sequential.1, parallel.1, "meter Counts deltas diverged");
    assert_eq!(
        sequential.0, parallel.0,
        "span-tree signatures must be bit-identical across thread counts"
    );
}
