//! Metric names, units and the statistics behind each reported value.
//! BENCHMARK.json declares the same names; a unit test keeps them in step.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
/// Timings are medians over the samples of a run unless a percentile is
/// named.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("open_ms", "ms"),
    ("recalc_full_ms", "ms"),
    ("edit_p50_ms", "ms"),
    ("edit_p95_ms", "ms"),
    ("sort_ms", "ms"),
    ("structural_ms", "ms"),
    ("filter_ms", "ms"),
    ("pivot_ms", "ms"),
    ("countif_ms", "ms"),
    ("vlookup_ms", "ms"),
    ("find_replace_ms", "ms"),
    ("cond_format_ms", "ms"),
];

/// Per-layer metrics, reported by every workload in the traced run.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("io.open_ns_per_cell", "ns"),
    ("formula.parse_ns_per_formula", "ns"),
    ("formula.parse_mbps", "MB/s"),
    ("compile.cold_us_per_template", "us"),
    ("compile.memo_hit_ns", "ns"),
    ("compile.template_hit_ratio", "ratio"),
    ("compile.programs", "count"),
    ("depgraph.add_ns_per_formula", "ns"),
    ("depgraph.full_order_ms", "ms"),
    ("depgraph.dirty_order_us", "us"),
    ("depgraph.levels", "count"),
    ("depgraph.max_level_width", "count"),
    ("recalc.ns_per_formula", "ns"),
    ("recalc.eval_ns_per_formula", "ns"),
    ("recalc.store_ns_per_formula", "ns"),
    ("recalc.overhead_ns_per_formula", "ns"),
    ("recalc.evaluated", "count"),
    ("recalc.dirty_per_edit_p50", "count"),
    ("recalc.dirty_per_edit_p95", "count"),
    ("functions.sum_scan_ns_per_cell", "ns"),
    ("functions.countif_scan_ns_per_cell", "ns"),
    ("functions.sumif_scan_ns_per_cell", "ns"),
    ("functions.vlookup_scan_ns_per_cell", "ns"),
    ("grid.write_ns_per_cell", "ns"),
    ("grid.point_read_ns", "ns"),
    ("grid.scan_gbps", "GB/s"),
    ("grid.scan_frac_of_memcpy", "ratio"),
    ("grid.heap_bytes_per_cell", "B"),
    ("grid.pool.spills", "count"),
    ("grid.pool.loads", "count"),
    ("grid.pool.faults", "count"),
    ("grid.pool.faults_per_round", "count"),
    ("grid.pool.resident_over_budget", "ratio"),
    ("grid.pool.capped_over_uncapped", "ratio"),
    ("index.build_ms", "ms"),
    ("index.probe_us", "us"),
    ("index.maintain_ns_per_write", "ns"),
    ("index.built_count", "count"),
    ("ops.sort.permute_ms", "ms"),
    ("ops.sort.rebuild_deps_ms", "ms"),
    ("ops.sort.over_roofline", "ratio"),
    ("ops.structure.insert_ms", "ms"),
    ("ops.structure.delete_ms", "ms"),
    ("ops.filter.ns_per_row", "ns"),
    ("ops.pivot.ns_per_row", "ns"),
    ("ops.find_replace.ns_per_cell", "ns"),
    ("ops.cond_format.ns_per_cell", "ns"),
    ("ops.copy_paste.ns_per_cell", "ns"),
    ("meter.cell_read", "count"),
    ("meter.cell_write", "count"),
    ("meter.cell_move", "count"),
    ("meter.formula_eval", "count"),
    ("meter.dep_build", "count"),
    ("meter.index_probe", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.dropped", "count"),
    ("roofline.memcpy_gbps", "GB/s"),
    ("roofline.sort_f64_ms", "ms"),
    ("roofline.hash_probe_ns", "ns"),
    ("open.unattributed_pct", "%"),
    ("recalc.unattributed_pct", "%"),
    ("sort.unattributed_pct", "%"),
    // Self time per round of the benchmark-side spans, by the layer the
    // timed call belongs to; `script` is the benchmark's own glue between
    // calls. The seven add up to the traced round's wall time.
    ("selftime.io_ms", "ms"),
    ("selftime.recalc_ms", "ms"),
    ("selftime.ops_ms", "ms"),
    ("selftime.functions_ms", "ms"),
    ("selftime.grid_ms", "ms"),
    ("selftime.grid.pool_ms", "ms"),
    ("selftime.script_ms", "ms"),
];

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single measurements).
    pub samples: usize,
}

/// Collects values by name and emits them in the declared order, so a
/// metric that was never set is a bug that shows at once.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, usize)>>,
}

impl Metrics {
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            declared,
            values: vec![None; declared.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self.declared.iter().position(|(n, _)| *n == name);
        let slot = slot.unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[slot] = Some((value, samples));
    }

    pub fn finish(self) -> Vec<Metric> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| {
                let (value, samples) =
                    value.unwrap_or_else(|| panic!("metric {name} was never measured"));
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}

/// The human-readable lines, one per metric: `name@workload = value unit (n=..)`.
pub fn lines(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {}@{workload} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The result line the driver reads: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a JSON number");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    /// BENCHMARK.json and this file must declare the same metrics.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", "))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = json.matches("\"better\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }
}
