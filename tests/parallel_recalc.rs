//! Acceptance test for the parallel level-scheduled recalculation engine:
//! on a 100k-formula wide DAG, the parallel executor must produce cell
//! values and meter `Counts` identical to the sequential path.

use ssbench::engine::prelude::*;

/// A wide, shallow DAG in the shape the paper's open workload (Fig. 2)
/// stresses: `N` independent formulas over column A, a layer of windowed
/// aggregates over them, and a single grand total.
fn wide_dag_sheet(n: u32, opts: RecalcOptions) -> Sheet {
    let mut s = Sheet::new();
    s.set_recalc_options(opts);
    for i in 0..n {
        s.set_value(CellAddr::new(i, 0), (i % 97) as i64);
        s.set_formula_str(CellAddr::new(i, 1), &format!("=A{r}*A{r}+1", r = i + 1)).unwrap();
    }
    // One aggregate per 100-row block of column B.
    let blocks = n / 100;
    for b in 0..blocks {
        let lo = b * 100 + 1;
        let hi = (b + 1) * 100;
        s.set_formula_str(CellAddr::new(b, 2), &format!("=SUM(B{lo}:B{hi})")).unwrap();
    }
    s.set_formula_str(CellAddr::new(0, 3), &format!("=SUM(C1:C{blocks})")).unwrap();
    s
}

#[test]
fn hundred_k_formula_dag_parallel_equals_sequential() {
    const N: u32 = 100_000; // 100k B-formulas + 1k C-aggregates + 1 total

    let mut seq = wide_dag_sheet(N, RecalcOptions::sequential());
    recalc::recalc_all(&mut seq);

    let mut par = wide_dag_sheet(N, RecalcOptions { parallelism: 4, ..RecalcOptions::default() });
    recalc::recalc_all(&mut par);

    // Every computed cell matches.
    for i in 0..N {
        let b = CellAddr::new(i, 1);
        assert_eq!(seq.value(b), par.value(b), "cell {b}");
    }
    for b in 0..N / 100 {
        let c = CellAddr::new(b, 2);
        assert_eq!(seq.value(c), par.value(c), "cell {c}");
    }
    let total = CellAddr::new(0, 3);
    assert_eq!(seq.value(total), par.value(total));
    // Spot-check against the closed form for one block: rows 1..=100 hold
    // A = 0..=96,0,1,2 so B = a^2+1.
    let expect: f64 = (0..100u32).map(|i| ((i % 97) as f64).powi(2) + 1.0).sum();
    assert_eq!(seq.value(CellAddr::new(0, 2)), Value::Number(expect));

    // Meter counts are bit-identical regardless of thread count.
    assert_eq!(seq.meter().snapshot(), par.meter().snapshot());
}

#[test]
fn dirty_edit_on_large_dag_parallel_equals_sequential() {
    const N: u32 = 20_000;
    let mut seq = wide_dag_sheet(N, RecalcOptions::sequential());
    recalc::recalc_all(&mut seq);
    let mut par = wide_dag_sheet(N, RecalcOptions { parallelism: 4, threshold: 1 });
    recalc::recalc_all(&mut par);

    let before = seq.meter().snapshot();
    assert_eq!(before, par.meter().snapshot());

    // Edit every 1000th input so the dirty set spans many blocks.
    let edits: Vec<CellAddr> = (0..N).step_by(1000).map(|i| CellAddr::new(i, 0)).collect();
    for s in [&mut seq, &mut par] {
        for &a in &edits {
            s.set_value(a, 7);
        }
    }
    recalc::recalc_from(&mut seq, &edits);
    recalc::recalc_from(&mut par, &edits);

    for i in 0..N {
        let b = CellAddr::new(i, 1);
        assert_eq!(seq.value(b), par.value(b), "cell {b}");
    }
    assert_eq!(seq.value(CellAddr::new(0, 3)), par.value(CellAddr::new(0, 3)));
    assert_eq!(seq.meter().snapshot(), par.meter().snapshot());
}
