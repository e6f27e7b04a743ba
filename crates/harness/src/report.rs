//! Rendering and persistence of experiment results: aligned text tables
//! (the "same rows/series the paper reports"), CSV, and JSON records —
//! plus the span-trace exporter (Chrome `trace_event` JSON and an ASCII
//! tree) with its sum-reconciliation check.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ssbench_engine::trace::{self, Category, SpanNode};

use crate::config::RunConfig;
use crate::json::{self, Json};
use crate::series::ExperimentResult;
use crate::timing::Protocol;

/// Renders one experiment as an aligned text table: one row per x value,
/// one column per series; `-` marks sizes a series did not reach (quota
/// caps or early stop).
pub fn render(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} (simulated ms) ==", result.id, result.title);
    let xs = result.xs();
    let labels: Vec<&str> = result.series.iter().map(|s| s.label.as_str()).collect();
    let width = labels.iter().map(|l| l.len().max(10) + 2).collect::<Vec<_>>();
    let _ = write!(out, "{:>10}", result.x_unit);
    for (label, w) in labels.iter().zip(&width) {
        let _ = write!(out, "{label:>w$}");
    }
    out.push('\n');
    for x in xs {
        let _ = write!(out, "{x:>10}");
        for (series, w) in result.series.iter().zip(&width) {
            match series.points.iter().find(|p| p.x == x) {
                Some(p) => {
                    let _ = write!(out, "{:>w$}", format_ms(p.ms));
                }
                None => {
                    let _ = write!(out, "{:>w$}", "-");
                }
            }
        }
        out.push('\n');
    }
    // Interactivity summary line.
    let _ = writeln!(out, "{:>10}", "— 500 ms violation —");
    let _ = write!(out, "{:>10}", "at");
    for (series, w) in result.series.iter().zip(&width) {
        let text = match series.violation_x() {
            Some(x) => x.to_string(),
            None => "never".to_owned(),
        };
        let _ = write!(out, "{text:>w$}");
    }
    out.push('\n');
    out
}

/// Formats a simulated time compactly.
fn format_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.1}s", ms / 1000.0)
    } else if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Renders one experiment as CSV (`x,label,ms` long format).
pub fn to_csv(result: &ExperimentResult) -> String {
    let mut out = String::from("x,series,ms\n");
    for series in &result.series {
        for p in &series.points {
            let _ = writeln!(out, "{},{},{}", p.x, escape_csv(&series.label), p.ms);
        }
    }
    out
}

fn escape_csv(field: &str) -> String {
    if field.contains([',', '"']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Writes `{id}.csv` and `{id}.json` for every result into
/// `cfg.out_dir` (no-op when unset). Returns the number of files written.
pub fn write_outputs(cfg: &RunConfig, results: &[ExperimentResult]) -> std::io::Result<usize> {
    let Some(dir) = &cfg.out_dir else { return Ok(0) };
    fs::create_dir_all(dir)?;
    let mut written = 0;
    for r in results {
        write_one(dir, r)?;
        written += 2;
    }
    Ok(written)
}

fn write_one(dir: &Path, r: &ExperimentResult) -> std::io::Result<()> {
    fs::write(dir.join(format!("{}.csv", r.id)), to_csv(r))?;
    fs::write(dir.join(format!("{}.json", r.id)), json::render_pretty(&r.to_json()))?;
    Ok(())
}

// --- trace export --------------------------------------------------------

/// The BCT figures whose simulated total is exactly the sum of their
/// `measure` spans (every trial is one `SimSystem` call). The OOT figures
/// mix in wall-clock series and unmeasured restore steps, so they are
/// exported but not reconciled.
const SUM_CHECKED_FIGS: [&str; 7] = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"];

/// What a successful [`write_trace`] produced.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Total spans exported.
    pub spans: usize,
    /// Root trees dropped because the per-thread ring buffer overflowed.
    pub dropped: u64,
    /// Path of the Chrome `trace_event` file.
    pub json_path: PathBuf,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace: {} span(s) → {}", self.spans, self.json_path.display())?;
        if self.dropped > 0 {
            write!(f, " ({} root(s) dropped by the ring buffer)", self.dropped)?;
        }
        Ok(())
    }
}

/// Drains this thread's recorded spans, reconciles them against the
/// reported results, and writes `trace.json` (Chrome `about://tracing` /
/// Perfetto loadable) plus `trace.txt` (ASCII tree) into `dir`.
///
/// Errors — all fatal for a traced run — are: no spans recorded, a sum
/// mismatch between a figure's `measure` spans and its reported total
/// (single-trial protocols only; trimmed means make the sum incomparable
/// otherwise), or an exported JSON document that does not parse back.
pub fn write_trace(
    dir: &Path,
    results: &[ExperimentResult],
    protocol: Protocol,
) -> Result<TraceSummary, String> {
    let roots = trace::drain();
    let dropped = trace::dropped();
    if roots.is_empty() {
        return Err("tracing was enabled but no spans were recorded".to_owned());
    }
    reconcile(&roots, results, protocol)?;

    let json = json::render(&chrome_trace(&roots));
    let expected_events = roots.iter().map(SpanNode::span_count).sum::<usize>();
    validate_chrome_json(&json, expected_events)?;

    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let json_path = dir.join("trace.json");
    fs::write(&json_path, &json).map_err(|e| format!("write {}: {e}", json_path.display()))?;
    let txt_path = dir.join("trace.txt");
    fs::write(&txt_path, render_trace_tree(&roots))
        .map_err(|e| format!("write {}: {e}", txt_path.display()))?;
    Ok(TraceSummary { spans: expected_events, dropped, json_path })
}

/// Checks the invariant a traced single-trial run must satisfy: for every
/// reconcilable figure, the simulated milliseconds of its `measure` spans
/// sum to exactly the total the figure reports.
fn reconcile(
    roots: &[SpanNode],
    results: &[ExperimentResult],
    protocol: Protocol,
) -> Result<(), String> {
    if protocol.trials > 1 {
        eprintln!(
            "trace: sum reconciliation skipped ({} trials; trimmed means are not a plain sum)",
            protocol.trials
        );
        return Ok(());
    }
    let mut failures = Vec::new();
    for root in roots.iter().filter(|r| r.cat == Category::Experiment) {
        let id = root.name.strip_prefix("experiment:").unwrap_or(&root.name);
        if !SUM_CHECKED_FIGS.contains(&id) {
            continue;
        }
        let Some(result) = results.iter().find(|r| r.id == id) else { continue };
        let expected = result.total_ms();
        let got = root.sim_ms_deep(Category::Measure);
        if (expected - got).abs() > 1e-6 * expected.abs().max(1.0) {
            failures.push(format!(
                "{id}: measure spans sum to {got:.3} ms, figure reports {expected:.3} ms"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("trace/result sum mismatch — {}", failures.join("; ")))
    }
}

/// Builds the Chrome `trace_event` document: one complete (`"ph": "X"`)
/// event per span, nesting conveyed by `ts`/`dur` on a single track.
fn chrome_trace(roots: &[SpanNode]) -> Json {
    fn push_events(node: &SpanNode, out: &mut Vec<Json>) {
        let mut args = Vec::new();
        if node.sim_ms > 0.0 {
            args.push(("sim_ms".to_owned(), Json::Num(node.sim_ms)));
        }
        let counts: Vec<(String, Json)> =
            node.counts.nonzero().map(|(p, c)| (p.name().to_owned(), Json::Int(c))).collect();
        if !counts.is_empty() {
            args.push(("counts".to_owned(), Json::Obj(counts)));
        }
        out.push(Json::obj([
            ("name", Json::str(&node.name)),
            ("cat", Json::str(node.cat.name())),
            ("ph", Json::str("X")),
            ("ts", Json::Int(node.start_us)),
            ("dur", Json::Int(node.dur_us)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            ("args", Json::Obj(args)),
        ]));
        for c in &node.children {
            push_events(c, out);
        }
    }
    let mut events = Vec::new();
    for r in roots {
        push_events(r, &mut events);
    }
    Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(events))])
}

/// Re-parses the exported document and checks its shape, so a traced run
/// can fail loudly instead of emitting a file Chrome rejects.
fn validate_chrome_json(json: &str, expected_events: usize) -> Result<(), String> {
    let doc = json::parse(json).map_err(|e| format!("exported trace JSON does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("exported trace lacks a traceEvents array")?;
    if events.len() != expected_events {
        return Err(format!(
            "exported trace has {} events, expected {expected_events}",
            events.len()
        ));
    }
    for e in events {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("trace event missing required field {key:?}"));
            }
        }
    }
    Ok(())
}

/// Renders root span trees as an indented ASCII summary; long child lists
/// are elided so level-heavy recalc traces stay readable.
pub fn render_trace_tree(roots: &[SpanNode]) -> String {
    const MAX_CHILDREN: usize = 12;
    fn walk(node: &SpanNode, depth: usize, out: &mut String) {
        let _ = write!(out, "{}{} [{}] wall {}µs", "  ".repeat(depth), node.name, node.cat.name(), node.dur_us);
        if node.sim_ms > 0.0 {
            let _ = write!(out, ", sim {:.3}ms", node.sim_ms);
        }
        if !node.counts.is_zero() {
            let _ = write!(out, " | {}", node.counts);
        }
        out.push('\n');
        for c in node.children.iter().take(MAX_CHILDREN) {
            walk(c, depth + 1, out);
        }
        if node.children.len() > MAX_CHILDREN {
            let elided = node.children.len() - MAX_CHILDREN;
            let _ = writeln!(out, "{}… {} more child span(s) elided", "  ".repeat(depth + 1), elided);
        }
    }
    let totals = trace::totals(roots);
    let mut out = format!(
        "trace summary: {} root(s), {} span(s), {} primitive event(s)\n",
        roots.len(),
        totals.spans,
        totals.primitive_events
    );
    for r in roots {
        walk(r, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;
    use ssbench_systems::SystemKind;

    fn fixture() -> ExperimentResult {
        let mut r = ExperimentResult::new("fig0", "Fixture");
        let mut a = Series::new("Excel (V)", SystemKind::Excel);
        a.push(150, 12.5);
        a.push(6_000, 600.0);
        let mut b = Series::new("Calc (V)", SystemKind::Calc);
        b.push(150, 499.0);
        r.series.push(a);
        r.series.push(b);
        r
    }

    #[test]
    fn render_aligns_and_marks_missing() {
        let text = render(&fixture());
        assert!(text.contains("Excel (V)"));
        assert!(text.contains("12.5"));
        // Calc has no 6000 point → dash.
        let line: &str = text.lines().find(|l| l.trim_start().starts_with("6000")).unwrap();
        assert!(line.trim_end().ends_with('-'), "{line:?}");
        // Violation summary.
        assert!(text.contains("never"));
        assert!(text.contains("6000"));
    }

    #[test]
    fn csv_long_format() {
        let csv = to_csv(&fixture());
        assert!(csv.starts_with("x,series,ms\n"));
        assert!(csv.contains("150,Excel (V),12.5"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn write_outputs_creates_files() {
        let dir = std::env::temp_dir().join("ssbench_report_test");
        let _ = fs::remove_dir_all(&dir);
        let mut cfg = RunConfig::quick();
        cfg.out_dir = Some(dir.clone());
        let n = write_outputs(&cfg, &[fixture()]).unwrap();
        assert_eq!(n, 2);
        assert!(dir.join("fig0.csv").exists());
        assert!(dir.join("fig0.json").exists());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn format_ms_ranges() {
        assert_eq!(format_ms(0.1234), "0.123");
        assert_eq!(format_ms(42.0), "42.0");
        assert_eq!(format_ms(420.0), "420");
        assert_eq!(format_ms(42_000.0), "42.0s");
    }

    use ssbench_engine::meter::Counts;

    fn span(name: &str, cat: Category, sim_ms: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_owned(),
            cat,
            start_us: 5,
            dur_us: 10,
            counts: Counts::default(),
            sim_ms,
            children,
        }
    }

    #[test]
    fn chrome_trace_round_trips_and_validates() {
        let root = span(
            "experiment:fig3",
            Category::Experiment,
            3.0,
            vec![span("measure:sort:Excel", Category::Measure, 3.0, vec![])],
        );
        let json = json::render(&chrome_trace(&[root]));
        validate_chrome_json(&json, 2).unwrap();
        assert!(validate_chrome_json(&json, 3).is_err(), "event count is checked");
        assert!(validate_chrome_json("{}", 0).is_err(), "traceEvents array is required");
    }

    #[test]
    fn reconcile_enforces_sum_only_for_single_trials() {
        let mut result = ExperimentResult::new("fig3", "Sort");
        let mut s = Series::new("Excel (F)", SystemKind::Excel);
        s.push(150, 3.0);
        result.series.push(s);
        let good = span(
            "experiment:fig3",
            Category::Experiment,
            3.0,
            vec![span("measure:sort:Excel", Category::Measure, 3.0, vec![])],
        );
        let bad = span(
            "experiment:fig3",
            Category::Experiment,
            3.0,
            vec![span("measure:sort:Excel", Category::Measure, 99.0, vec![])],
        );
        let single = Protocol::SINGLE;
        assert!(reconcile(&[good.clone()], std::slice::from_ref(&result), single).is_ok());
        let err = reconcile(&[bad.clone()], std::slice::from_ref(&result), single).unwrap_err();
        assert!(err.contains("fig3"), "{err}");
        // Multi-trial protocols report trimmed means, so the sum check is skipped.
        assert!(reconcile(&[bad], std::slice::from_ref(&result), Protocol::PAPER).is_ok());
        // Unmatched experiments (not reported / not reconcilable) are skipped.
        assert!(reconcile(&[good], &[], single).is_ok());
    }

    #[test]
    fn trace_tree_render_elides_long_child_lists() {
        let children: Vec<SpanNode> =
            (0..20).map(|i| span(&format!("op:sort{i}"), Category::Op, 0.0, vec![])).collect();
        let root = span("recalc", Category::Recalc, 0.0, children);
        let text = render_trace_tree(&[root]);
        assert!(text.contains("op:sort0"));
        assert!(!text.contains("op:sort15"), "children beyond the cap are elided");
        assert!(text.contains("8 more child span(s) elided"));
        assert!(text.starts_with("trace summary: 1 root(s), 21 span(s)"));
    }
}
