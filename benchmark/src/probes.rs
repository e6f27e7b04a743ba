//! Per-layer probes: each layer of the engine timed from outside, through
//! its public functions, on the workload's own inputs. Run once, after the
//! rounds of a traced run. They say which layer a change moved; they carry
//! no bound, and a claim never rests on them alone.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    io_open, parse_formula, recalc_all, CellAddr, DepGraph, EvalSession, Expr, Layout, Primitive,
    ProgramCache, Sheet, SheetData, Value,
};
use crate::report::{median, percentile, Metrics};
use crate::rng::Rng;
use crate::runner::{self, Round};
use crate::script::{Scripted, Step};
use crate::spans::SpanLog;
use crate::workloads::Spec;

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| secs(&mut f).1).collect();
    median(&times)
}

/// Rounds repeat one script, and interference only adds time: the fastest
/// round is the one to compare (see `best_of_rounds` in main.rs).
fn fastest_round_s(rounds: &[Round]) -> f64 {
    rounds
        .iter()
        .map(|r| r.script_s)
        .fold(f64::INFINITY, f64::min)
}

fn span_median_ms(log: &SpanLog, name: &str) -> f64 {
    median(&log.durations_ms(name))
}

/// Everything the rounds of the traced run produced that the probes need.
pub struct Observed<'a> {
    pub spec: &'a Spec,
    pub doc: &'a SheetData,
    pub script: &'a [Scripted],
    pub seed: u64,
    /// Spans of the traced rounds.
    pub log: &'a SpanLog,
    pub traced: &'a [Round],
    pub untraced: &'a [Round],
    pub engine_spans: u64,
    pub engine_dropped: u64,
}

pub fn measure(o: &Observed<'_>, m: &mut Metrics) {
    let (spec, doc) = (o.spec, o.doc);
    let rows = f64::from(spec.rows);
    let mut quiet = SpanLog::new();

    // --- roofline: plain Rust, no engine ---------------------------------
    let mut rng = Rng::new(o.seed, 9);
    let source = vec![1u8; 32 << 20];
    let mut target = vec![0u8; 32 << 20];
    let copy_s = median_secs(5, || {
        target.copy_from_slice(black_box(&source));
        black_box(&mut target);
    });
    let memcpy_gbps = source.len() as f64 / copy_s / 1e9;
    let floats: Vec<f64> = (0..spec.rows).map(|_| rng.below(1 << 40) as f64).collect();
    let sort_f64_ms = 1e3
        * median(
            &(0..3)
                .map(|_| {
                    let mut copy = floats.clone();
                    secs(|| copy.sort_unstable_by(f64::total_cmp)).1
                })
                .collect::<Vec<f64>>(),
        );
    let table: HashMap<u64, u32> = (0..spec.rows)
        .map(|r| (u64::from(r) * 2_654_435_761, r))
        .collect();
    let probes = 200_000u64;
    let hash_s = secs(|| {
        let mut found = 0u64;
        for _ in 0..probes {
            let key = rng.below(u64::from(spec.rows)) * 2_654_435_761;
            found += u64::from(table.get(&key).copied().unwrap_or(0));
        }
        black_box(found)
    })
    .1;
    m.set("roofline.memcpy_gbps", memcpy_gbps, 5);
    m.set("roofline.sort_f64_ms", sort_f64_ms, 3);
    m.set(
        "roofline.hash_probe_ns",
        hash_s * 1e9 / probes as f64,
        probes as usize,
    );

    // --- io, formula, compile, depgraph: the document's cells -------------
    let cells = doc.cell_count() as f64;
    let open_s = median_secs(3, || {
        black_box(io_open(doc, Layout::RowMajor).expect("document opens"));
    });
    m.set("io.open_ns_per_cell", open_s * 1e9 / cells, 3);

    let mut formula_texts: Vec<(CellAddr, &str)> = Vec::new();
    let mut literals: Vec<(CellAddr, Value)> = Vec::new();
    for (r, row) in doc.rows.iter().enumerate() {
        for (c, text) in row.iter().enumerate() {
            let at = CellAddr::new(r as u32, c as u32);
            if let Some(body) = text.strip_prefix('=') {
                formula_texts.push((at, body));
            } else if !text.is_empty() {
                // Only digits start a number here; `parse` alone would also
                // read a cell saying "inf" or "nan" as one.
                let number = text
                    .parse::<f64>()
                    .ok()
                    .filter(|_| text.starts_with(|c: char| c.is_ascii_digit()));
                literals.push((
                    at,
                    number.map_or_else(|| Value::text(text.as_str()), Value::Number),
                ));
            }
        }
    }
    let formulas = formula_texts.len() as f64;
    let (parsed, parse_s) = secs(|| {
        formula_texts
            .iter()
            .map(|&(at, body)| (at, parse_formula(body).expect("document formulas parse")))
            .collect::<Vec<(CellAddr, Expr)>>()
    });
    let formula_bytes: usize = formula_texts.iter().map(|(_, body)| body.len()).sum();
    m.set(
        "formula.parse_ns_per_formula",
        parse_s * 1e9 / formulas,
        parsed.len(),
    );
    m.set(
        "formula.parse_mbps",
        formula_bytes as f64 / parse_s / 1e6,
        parsed.len(),
    );

    let cache = ProgramCache::new();
    let cold_s = secs(|| {
        for (at, expr) in &parsed {
            black_box(cache.get_or_compile(expr, *at));
        }
    })
    .1;
    let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
    let warm_s = secs(|| {
        for (at, expr) in &parsed {
            black_box(cache.get_or_compile(expr, *at));
        }
    })
    .1;
    m.set(
        "compile.cold_us_per_template",
        cold_s * 1e6 / cache.len() as f64,
        cache.len(),
    );
    m.set("compile.memo_hit_ns", warm_s * 1e9 / formulas, parsed.len());
    m.set(
        "compile.template_hit_ratio",
        hits / (hits + misses),
        parsed.len(),
    );
    m.set("compile.programs", cache.len() as f64, 1);

    let mut graph = DepGraph::new();
    let add_s = secs(|| {
        for (at, expr) in &parsed {
            graph.add(*at, expr);
        }
    })
    .1;
    let full_order_s = median_secs(3, || {
        black_box(graph.full_order());
    });
    let plan = graph.full_order();
    let edited: Vec<CellAddr> = o
        .script
        .iter()
        .filter_map(|s| match &s.step {
            Step::Edit { row, col, .. } => Some(CellAddr::new(*row, u32::from(*col))),
            _ => None,
        })
        .collect();
    let dirty_us: Vec<f64> = edited
        .iter()
        .map(|at| secs(|| black_box(graph.dirty_order(&[*at]))).1 * 1e6)
        .collect();
    m.set(
        "depgraph.add_ns_per_formula",
        add_s * 1e9 / formulas,
        parsed.len(),
    );
    m.set("depgraph.full_order_ms", full_order_s * 1e3, 3);
    m.set("depgraph.dirty_order_us", median(&dirty_us), dirty_us.len());
    m.set("depgraph.levels", plan.level_count() as f64, 1);
    m.set("depgraph.max_level_width", plan.max_level_width() as f64, 1);

    // --- recalc: the workload's sheet, settings as the rounds use them ----
    let mut sheet = runner::open_configured(spec, doc, &mut quiet).expect("document opens");
    let mut evaluated = 0;
    let recalc_s = median_secs(5, || evaluated = recalc_all(&mut sheet).evaluated);
    let order = sheet.deps().full_order().order;
    let (values, eval_s) = secs(|| {
        let mut session = EvalSession::new(&sheet);
        order
            .iter()
            .map(|&at| session.eval(at).expect("planned cell is a formula"))
            .collect::<Vec<Value>>()
    });
    let store_s = secs(|| {
        for (&at, value) in order.iter().zip(values) {
            sheet.store_formula_result(at, value);
        }
    })
    .1;
    let per_formula = |s: f64| s * 1e9 / evaluated as f64;
    let overhead = per_formula(recalc_s - full_order_s - eval_s - store_s);
    m.set("recalc.ns_per_formula", per_formula(recalc_s), 5);
    m.set("recalc.eval_ns_per_formula", per_formula(eval_s), evaluated);
    m.set(
        "recalc.store_ns_per_formula",
        per_formula(store_s),
        evaluated,
    );
    m.set("recalc.overhead_ns_per_formula", overhead, 1);
    m.set("recalc.evaluated", evaluated as f64, 1);
    let dirty: Vec<f64> = o
        .traced
        .iter()
        .flat_map(|r| &r.dirty_per_edit)
        .map(|&d| d as f64)
        .collect();
    m.set("recalc.dirty_per_edit_p50", median(&dirty), dirty.len());
    m.set(
        "recalc.dirty_per_edit_p95",
        percentile(&dirty, 95.0),
        dirty.len(),
    );
    m.set(
        "recalc.unattributed_pct",
        100.0 * overhead / per_formula(recalc_s),
        1,
    );

    // --- ops: sort's two halves on the same sheet --------------------------
    let reversed: Vec<u32> = (0..sheet.nrows()).rev().collect();
    let permute_s = secs(|| {
        sheet
            .permute_rows(&reversed)
            .expect("reversal is a permutation")
    })
    .1;
    let rebuild_s = secs(|| sheet.rebuild_deps()).1;
    drop(sheet);
    let sort_apply_ms = span_median_ms(o.log, "apply:sort");
    let sort_step_ms = span_median_ms(o.log, "sort");
    let recalc_ms = recalc_s * 1e3;
    m.set("ops.sort.permute_ms", permute_s * 1e3, 1);
    m.set("ops.sort.rebuild_deps_ms", rebuild_s * 1e3, 1);
    m.set("ops.sort.over_roofline", sort_apply_ms / sort_f64_ms, 1);
    m.set(
        "sort.unattributed_pct",
        100.0 * (1.0 - (permute_s * 1e3 + sort_f64_ms + recalc_ms) / sort_step_ms),
        1,
    );
    // From the traced rounds' spans: the median call, per unit of work.
    let text_cells = rows * f64::from(spec.text_cols.1 - spec.text_cols.0 + 1);
    for (metric, span, scale) in [
        ("ops.structure.insert_ms", "apply:insert_rows", 1.0),
        ("ops.structure.delete_ms", "apply:delete_rows", 1.0),
        ("ops.filter.ns_per_row", "apply:filter", 1e6 / rows),
        ("ops.pivot.ns_per_row", "apply:pivot", 1e6 / rows),
        (
            "ops.find_replace.ns_per_cell",
            "apply:find_replace",
            1e6 / text_cells,
        ),
        (
            "ops.cond_format.ns_per_cell",
            "apply:cond_format",
            1e6 / rows,
        ),
        ("ops.copy_paste.ns_per_cell", "apply:copy_paste", 1e6 / rows),
    ] {
        let calls = o.log.durations_ms(span);
        m.set(metric, median(&calls) * scale, calls.len());
    }

    // --- functions and grid: a plain sheet, no index, no budget -----------
    let mut plain = io_open(doc, Layout::RowMajor).expect("document opens");
    recalc_all(&mut plain);
    let key = o
        .script
        .iter()
        .find_map(|s| match s.step {
            Step::Vlookup { key, .. } => Some(key),
            _ => None,
        })
        .expect("script has a VLOOKUP");
    let scan_ns = |text: String| {
        median_secs(5, || {
            black_box(plain.eval_str(&text).expect("query parses"));
        }) * 1e9
            / rows
    };
    let sum_ns = scan_ns(runner::sum_text(spec, spec.rows));
    m.set("functions.sum_scan_ns_per_cell", sum_ns, 5);
    m.set(
        "functions.countif_scan_ns_per_cell",
        scan_ns(runner::countif_text(spec, spec.rows)),
        5,
    );
    m.set(
        "functions.sumif_scan_ns_per_cell",
        scan_ns(runner::sumif_text(spec, spec.rows)),
        5,
    );
    m.set(
        "functions.vlookup_scan_ns_per_cell",
        scan_ns(runner::vlookup_text(spec, key, spec.rows)),
        5,
    );
    let scan_gbps = 8.0 / sum_ns;
    m.set("grid.scan_gbps", scan_gbps, 5);
    m.set("grid.scan_frac_of_memcpy", scan_gbps / memcpy_gbps, 1);
    let cell_count = f64::from(plain.nrows()) * f64::from(plain.ncols());
    m.set(
        "grid.heap_bytes_per_cell",
        plain.grid_heap_bytes() as f64 / cell_count,
        1,
    );
    let reads = 200_000u64;
    let (nrows, ncols) = (u64::from(plain.nrows()), u64::from(plain.ncols()));
    let read_s = secs(|| {
        for _ in 0..reads {
            black_box(plain.value(CellAddr::new(
                rng.below(nrows) as u32,
                rng.below(ncols) as u32,
            )));
        }
    })
    .1;
    m.set(
        "grid.point_read_ns",
        read_s * 1e9 / reads as f64,
        reads as usize,
    );
    let build = |indexed: bool| {
        let mut sheet = Sheet::new();
        sheet.set_auto_index(indexed);
        let write_s = secs(|| {
            for (at, value) in &literals {
                sheet.set_value(*at, value.clone());
            }
        })
        .1;
        (sheet, write_s)
    };
    let (_, write_s) = build(false);
    m.set(
        "grid.write_ns_per_cell",
        write_s * 1e9 / literals.len() as f64,
        literals.len(),
    );
    drop(plain);

    // --- index: what indexing this data costs and saves --------------------
    let (mut indexed, _) = build(true);
    let build_s = secs(|| indexed.ensure_indexes()).1;
    m.set("index.build_ms", build_s * 1e3, 1);
    let probe_texts = [
        runner::countif_text(spec, spec.rows),
        runner::vlookup_text(spec, key, spec.rows),
    ];
    let probe_us: Vec<f64> = (0..40)
        .map(|i| {
            secs(|| black_box(indexed.eval_str(&probe_texts[i % 2]).expect("query parses"))).1 * 1e6
        })
        .collect();
    m.set("index.probe_us", median(&probe_us), probe_us.len());
    // The same seeded writes to the category column, with and without a
    // live index on it.
    let (mut unindexed, _) = build(false);
    let writes = 20_000u64;
    let write_cost = |sheet: &mut Sheet| {
        let mut rng = Rng::new(o.seed, 10);
        let targets: Vec<(CellAddr, Value)> = (0..writes)
            .map(|_| {
                let at = CellAddr::new(
                    rng.below(u64::from(spec.rows)) as u32,
                    u32::from(spec.cat_col),
                );
                let text = &spec.categories[rng.below(spec.categories.len() as u64) as usize];
                (at, Value::text(text.as_str()))
            })
            .collect();
        secs(|| {
            for (at, value) in targets {
                sheet.set_value(at, value);
            }
        })
        .1
    };
    let maintain_ns = (write_cost(&mut indexed) - write_cost(&mut unindexed)) * 1e9 / writes as f64;
    m.set("index.maintain_ns_per_write", maintain_ns, writes as usize);
    let last = o.traced.last().expect("a traced round ran");
    m.set("index.built_count", last.indexes_built as f64, 1);

    // --- grid.pool: counters of the rounds, and the uncapped reference ----
    let faults: Vec<f64> = o
        .traced
        .iter()
        .chain(o.untraced)
        .map(|r| r.faults as f64)
        .collect();
    m.set("grid.pool.spills", last.spills as f64, 1);
    m.set("grid.pool.loads", last.loads as f64, 1);
    m.set("grid.pool.faults", faults.iter().sum(), faults.len());
    m.set("grid.pool.faults_per_round", last.faults as f64, 1);
    let over = o
        .traced
        .iter()
        .chain(o.untraced)
        .map(|r| r.resident_over_budget)
        .fold(0.0, f64::max);
    m.set("grid.pool.resident_over_budget", over, faults.len());
    let capped_over_uncapped = if spec.grid_budget.is_some() {
        let uncapped = Spec {
            grid_budget: None,
            ..spec.clone()
        };
        let reference = runner::run_round(&uncapped, doc, o.script, &mut quiet, None);
        fastest_round_s(o.untraced) / reference.script_s
    } else {
        1.0
    };
    m.set("grid.pool.capped_over_uncapped", capped_over_uncapped, 1);

    // --- meter: exact counts of one round ----------------------------------
    for (name, primitive) in [
        ("meter.cell_read", Primitive::CellRead),
        ("meter.cell_write", Primitive::CellWrite),
        ("meter.cell_move", Primitive::CellMove),
        ("meter.formula_eval", Primitive::FormulaEval),
        ("meter.dep_build", Primitive::DepBuild),
        ("meter.index_probe", Primitive::IndexProbe),
    ] {
        m.set(name, last.meter.get(primitive) as f64, 1);
    }

    // --- trace: what the engine's own tracer costs -------------------------
    let overhead = fastest_round_s(o.traced) / fastest_round_s(o.untraced) - 1.0;
    m.set("trace.overhead_pct", 100.0 * overhead, o.traced.len());
    m.set("trace.spans", o.engine_spans as f64, o.traced.len());
    m.set("trace.dropped", o.engine_dropped as f64, o.traced.len());

    // --- what the outside probes leave unexplained of an open --------------
    let open_step_ms = span_median_ms(o.log, "open");
    let explained_ms = (parse_s + add_s + cold_s + write_s) * 1e3 + recalc_ms;
    m.set(
        "open.unattributed_pct",
        100.0 * (1.0 - explained_ms / open_step_ms),
        1,
    );

    let self_ms = o.log.layer_self_ms();
    for layer in [
        "io",
        "recalc",
        "ops",
        "functions",
        "grid",
        "grid.pool",
        "script",
    ] {
        let total = self_ms.get(layer).copied().unwrap_or(0.0);
        m.set(
            &format!("selftime.{layer}_ms"),
            total / o.traced.len() as f64,
            o.traced.len(),
        );
    }
}
