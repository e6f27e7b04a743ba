//! Integration tests over the BCT experiments: the paper's qualitative
//! findings (takeaway boxes of §4) must hold in the reproduced figures at
//! reduced scale. Scale shrinks sizes but not the cost model, so shapes
//! and orderings survive; absolute violation points are validated
//! separately in `table2_reproduction.rs`.

use ssbench::harness::bct;
use ssbench::harness::json::{self, Json};
use ssbench::harness::RunConfig;
use ssbench::systems::SystemKind::{self, Calc, Excel, GSheets};

/// A quick run at `scale` of only the systems a takeaway names: each system
/// sweeps its own seeded sheets, so its series are the ones a run of all
/// four would give it.
fn cfg(scale: f64, systems: &[SystemKind]) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.scale = scale;
    cfg.systems = systems.to_vec();
    cfg
}

/// §4.1 takeaway: desktop opens grow with size and formulae make opening
/// slower for every system; Sheets' Value-only open is flat.
#[test]
fn open_takeaway() {
    let r = bct::fig2_open(&cfg(0.05, &[Excel, Calc, GSheets]));
    for sys in ["Excel", "Calc", "Google Sheets"] {
        let f = r.series(&format!("{sys} (F)")).unwrap().last().unwrap();
        let v = r.series(&format!("{sys} (V)")).unwrap().last().unwrap();
        assert!(f.ms > v.ms, "{sys}: F open ({}) slower than V ({})", f.ms, v.ms);
    }
    let excel_v = r.series("Excel (V)").unwrap();
    assert!(excel_v.points.last().unwrap().ms > excel_v.points[0].ms * 2.0);
}

/// §4.2.1 takeaway: sort recomputation makes Formula-value much worse;
/// every system recalculates.
#[test]
fn sort_takeaway() {
    let r = bct::fig3_sort(&cfg(0.02, &[Excel, Calc, GSheets]));
    for sys in ["Excel", "Calc", "Google Sheets"] {
        let f = r.series(&format!("{sys} (F)")).unwrap().last().unwrap();
        let v_series = r.series(&format!("{sys} (V)")).unwrap();
        let v = v_series.points.iter().find(|p| p.x == f.x).unwrap();
        assert!(f.ms > v.ms, "{sys}: sort F ({}) > V ({})", f.ms, v.ms);
    }
}

/// §4.2.2 takeaway: Excel is fastest at conditional formatting and skips
/// recomputation; Calc and Sheets pay for it on Formula-value.
#[test]
fn conditional_formatting_takeaway() {
    let r = bct::fig4_cond_format(&cfg(0.05, &[Excel, Calc, GSheets]));
    let e = r.series("Excel (V)").unwrap().last().unwrap();
    let c = r.series("Calc (V)").unwrap();
    let c_at = c.points.iter().find(|p| p.x == e.x).unwrap();
    assert!(e.ms < c_at.ms, "Excel fastest: {} < {}", e.ms, c_at.ms);
    // Calc and Sheets recompute on format. At this scale Sheets' quota
    // caps its sweep at 4.5k rows, where the recomputation term is small
    // relative to its fixed cost, so the margin differs per system.
    for (sys, margin) in [("Calc", 1.5), ("Google Sheets", 1.05)] {
        let f = r.series(&format!("{sys} (F)")).unwrap().last().unwrap();
        let v_series = r.series(&format!("{sys} (V)")).unwrap();
        let v = v_series.points.iter().find(|p| p.x == f.x).unwrap();
        assert!(
            f.ms > v.ms * margin,
            "{sys} recomputes on format: {} vs {}",
            f.ms,
            v.ms
        );
    }
}

/// §4.3.1 takeaway: Excel wins Value-only filtering but goes superlinear
/// on Formula-value.
#[test]
fn filter_takeaway() {
    let r = bct::fig5_filter(&cfg(0.1, &[Excel, Calc]));
    let ev = r.series("Excel (V)").unwrap().last().unwrap();
    let cv = r.series("Calc (V)").unwrap();
    let cv_at = cv.points.iter().find(|p| p.x == ev.x).unwrap();
    assert!(ev.ms < cv_at.ms, "Excel fastest on V");
    let ef = r.series("Excel (F)").unwrap().last().unwrap();
    assert!(ef.ms > ev.ms * 2.0, "Excel F filter much slower (recalculation)");
}

/// §4.3.2 takeaway: Calc accommodates far larger pivots and ignores
/// embedded formulae.
#[test]
fn pivot_takeaway() {
    let r = bct::fig6_pivot(&cfg(0.1, &[Excel, Calc]));
    let c = r.series("Calc (V)").unwrap().last().unwrap();
    let e = r.series("Excel (V)").unwrap().last().unwrap();
    assert_eq!(c.x, e.x);
    assert!(c.ms < e.ms, "Calc pivots faster at scale: {} < {}", c.ms, e.ms);
    let cf = r.series("Calc (F)").unwrap().last().unwrap();
    assert!((cf.ms - c.ms).abs() / c.ms < 0.05, "Calc unaffected by formulae");
}

/// §4.3.3 takeaway: aggregate times scale linearly; Excel < Calc <
/// Sheets.
#[test]
fn countif_takeaway() {
    let r = bct::fig7_countif(&cfg(0.1, &[Excel]));
    let e = r.series("Excel (V)").unwrap();
    // Linearity: time ratio ≈ size ratio between two large sizes.
    let a = e.points[e.points.len() - 5];
    let b = *e.points.last().unwrap();
    let time_ratio = b.ms / a.ms;
    let size_ratio = f64::from(b.x) / f64::from(a.x);
    assert!(
        (time_ratio / size_ratio - 1.0).abs() < 0.25,
        "linear: ×{time_ratio:.2} vs ×{size_ratio:.2}"
    );
}

/// The shape of a document: keys in order and the kind of every value, an
/// array standing for the distinct shapes of its elements.
fn shape(json: &Json) -> String {
    match json {
        Json::Obj(fields) => {
            let fields: Vec<String> =
                fields.iter().map(|(k, v)| format!("{k}:{}", shape(v))).collect();
            format!("{{{}}}", fields.join(","))
        }
        Json::Arr(items) => {
            let mut shapes: Vec<String> = items.iter().map(shape).collect();
            shapes.sort();
            shapes.dedup();
            format!("[{}]", shapes.join("|"))
        }
        leaf => leaf.kind().to_owned(),
    }
}

/// A result written today has the key order and value types of the
/// committed `results/fig7.json`, whatever its sizes and timings.
#[test]
fn results_document_keeps_the_committed_shape() {
    let written = json::render_pretty(&bct::fig7_countif(&RunConfig::quick()).to_json());
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fig7.json");
    let committed = std::fs::read_to_string(committed).expect("results/fig7.json is committed");
    let committed_doc = json::parse(&committed).unwrap();
    assert_eq!(shape(&json::parse(&written).unwrap()), shape(&committed_doc));
    // The committed file is this writer's output: it re-renders to itself.
    assert_eq!(json::render_pretty(&committed_doc), committed);
}

/// §4.3.4 takeaway: Calc and Sheets scan everything regardless of the
/// match mode; Excel's approximate match is near-constant.
#[test]
fn vlookup_takeaway() {
    let r = bct::fig8_vlookup(&cfg(0.05, &[Excel, Calc]));
    let excel_approx = r.series("Excel Sorted-TRUE").unwrap();
    let spread = excel_approx.points.last().unwrap().ms / excel_approx.points[0].ms;
    assert!(spread < 1.5, "Excel approximate lookup ~constant, spread {spread:.2}");
    let calc = r.series("Calc Sorted-FALSE").unwrap().last().unwrap();
    let excel = r.series("Excel Sorted-FALSE").unwrap().last().unwrap();
    assert!(calc.ms > excel.ms * 5.0, "Calc scans everything: {} vs {}", calc.ms, excel.ms);
}

/// The lookup result itself is correct and identical across systems: the
/// state of the row whose key is X.
#[test]
fn vlookup_results_agree_across_systems() {
    use ssbench::systems::{all_kinds, SimSystem};
    use ssbench::workload::{build_sheet, Variant};
    let rows = 5_000;
    let mut results = Vec::new();
    for kind in all_kinds() {
        let sys = SimSystem::new(kind);
        let mut sheet = build_sheet(rows, Variant::ValueOnly);
        let (v, _) = sys.vlookup(&mut sheet, 3_000.0, rows, 1, false);
        results.push(v);
    }
    for v in &results[1..] {
        assert_eq!(&results[0], v);
    }
    assert!(matches!(results[0], ssbench::engine::value::Value::Text(_)));
}
