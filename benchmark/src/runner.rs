//! Executes a script against the engine: one closed loop of one client,
//! each step issued when the previous one returned. The engine is used as
//! a user gets it — `io::open(.., Layout::RowMajor)`, default recalc
//! options — and every step's output is checked against the script's
//! expectation outside the timed call.
//!
//! Mutating steps (open, edit, find-replace, sort, insert, delete) are
//! timed through the recalculation that makes the sheet consistent again,
//! because that is when the user sees the result; read-only steps are
//! timed alone.

use crate::api::{
    col_to_letters, io_open, open_recalc, recalc_all, recalc_from, CellAddr, Color, Counts,
    Criterion, Layout, Op, OpOutcome, PivotAgg, Range, Sheet, SheetData, SortKey, Value,
};
use crate::model::Exp;
use crate::script::{EditValue, Expect, Scripted, Step};
use crate::spans::SpanLog;
use crate::workloads::Spec;

/// What one pass over the script produced.
#[derive(Default)]
pub struct Round {
    /// `(metric, milliseconds)` for every step that samples a metric.
    pub samples: Vec<(&'static str, f64)>,
    /// Sum of all step times: the wall time of the script without checks.
    pub script_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Formulas each edit's `recalc_from` evaluated.
    pub dirty_per_edit: Vec<usize>,
    /// The sheet's meter at the end of the round (the sheet is created by
    /// the round's `Open`, so this is the count for the whole round).
    pub meter: Counts,
    pub spills: u64,
    pub loads: u64,
    pub faults: u64,
    /// Highest resident-bytes / budget seen after any step (0 unbudgeted).
    pub resident_over_budget: f64,
    pub indexes_built: usize,
    /// First few failures, for the report.
    pub failures: Vec<String>,
}

/// What a step returned, kept until the timer has stopped.
enum Observed {
    Nothing,
    Count(u64),
    Evaluated { evaluated: usize, cyclic: usize },
    Value(Value),
    Pivot(Vec<(String, f64)>),
    Permutation(Vec<u32>),
    Cells(Vec<Value>),
    Error(String),
}

fn addr(row: u32, col: u16) -> CellAddr {
    CellAddr::new(row, u32::from(col))
}

fn column(col: u16, rows: u32) -> Range {
    Range::new(addr(0, col), addr(rows - 1, col))
}

fn col_letter(col: u16) -> String {
    col_to_letters(u32::from(col))
}

/// The one-shot formulas of the query steps, also used by the probes.
pub fn countif_text(spec: &Spec, rows: u32) -> String {
    let c = col_letter(spec.cat_col);
    format!("=COUNTIF({c}1:{c}{rows},\"{}\")", spec.filter_text)
}

pub fn sumif_text(spec: &Spec, rows: u32) -> String {
    let (c, m) = (col_letter(spec.cat_col), col_letter(spec.measure_col));
    format!(
        "=SUMIF({c}1:{c}{rows},\"{}\",{m}1:{m}{rows})",
        spec.filter_text
    )
}

pub fn vlookup_text(spec: &Spec, key: f64, rows: u32) -> String {
    let (k, c) = (col_letter(spec.key_col), col_letter(spec.cat_col));
    let index = spec.cat_col - spec.key_col + 1;
    format!("=VLOOKUP({key},{k}1:{c}{rows},{index},FALSE)")
}

pub fn sum_text(spec: &Spec, rows: u32) -> String {
    let m = col_letter(spec.measure_col);
    format!("=SUM({m}1:{m}{rows})")
}

/// Opens the workload's document the way the round's `Open` step does.
pub fn open_configured(spec: &Spec, doc: &SheetData, log: &mut SpanLog) -> Result<Sheet, String> {
    let (opened, _) = log.call("io", "io::open", |_| io_open(doc, Layout::RowMajor));
    let mut sheet = opened.map_err(|e| e.to_string())?;
    sheet.set_auto_index(spec.auto_index);
    if let Some(budget) = spec.grid_budget {
        log.call("grid.pool", "set_grid_budget", |_| {
            sheet.set_grid_budget(Some(budget))
        });
    }
    log.call("recalc", "open_recalc", |_| open_recalc(&mut sheet));
    Ok(sheet)
}

/// Runs the script once, or only its first `limit` steps (the warm-up).
pub fn run_round(
    spec: &Spec,
    doc: &SheetData,
    script: &[Scripted],
    log: &mut SpanLog,
    limit: Option<usize>,
) -> Round {
    let mut round = Round::default();
    let mut sheet: Option<Sheet> = None;
    for (index, scripted) in script
        .iter()
        .enumerate()
        .take(limit.unwrap_or(script.len()))
    {
        log.step = index as u32;
        let kind = scripted.step.kind();
        if scripted.step == Step::Open {
            // Closing the previous document is not part of opening this one.
            drop(sheet.take());
        }
        let (observed, secs) = log.call("script", kind, |log| {
            execute(spec, doc, &scripted.step, &mut sheet, log)
        });
        round.script_s += secs;
        if let Some(metric) = scripted.step.metric() {
            // A query step times a burst of `query_batch` queries.
            let queries = match scripted.step {
                Step::Countif { .. } | Step::Vlookup { .. } => f64::from(spec.query_batch),
                _ => 1.0,
            };
            round.samples.push((metric, secs * 1e3 / queries));
        }
        if let (Step::Edit { .. }, Observed::Evaluated { evaluated, .. }) =
            (&scripted.step, &observed)
        {
            round.dirty_per_edit.push(*evaluated);
        }
        let mut verdict = check(
            spec,
            &scripted.step,
            &scripted.expect,
            observed,
            sheet.as_ref(),
        );
        if let (Some(s), Some(budget)) = (sheet.as_ref(), spec.grid_budget) {
            let ratio = s.grid_resident_bytes() as f64 / budget as f64;
            round.resident_over_budget = round.resident_over_budget.max(ratio);
            if ratio > 1.0 {
                verdict = verdict.and(Err(format!("resident grid is {ratio:.3} of its budget")));
            }
        }
        round.judge(&format!("step {index} ({kind})"), verdict);
    }
    if let Some(s) = &sheet {
        round.meter = s.meter().snapshot();
        let pool = s.grid_spill_stats();
        (round.spills, round.loads, round.faults) = (pool.spills, pool.loads, pool.faults);
        round.indexes_built = s.index_store().built_count();
        if limit.is_none() {
            // A budgeted round must have used the pool; an unbudgeted one
            // must not have.
            let as_expected = match spec.grid_budget {
                Some(_) => pool.spills > 0 && pool.faults > 0,
                None => pool.spills == 0 && pool.faults == 0,
            };
            let verdict = if as_expected {
                Ok(())
            } else {
                Err(format!("{} spills, {} faults", pool.spills, pool.faults))
            };
            round.judge("buffer pool", verdict);
        }
    }
    round
}

impl Round {
    fn judge(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }
}

fn execute(
    spec: &Spec,
    doc: &SheetData,
    step: &Step,
    slot: &mut Option<Sheet>,
    log: &mut SpanLog,
) -> Observed {
    if *step == Step::Open {
        return match open_configured(spec, doc, log) {
            Ok(sheet) => {
                *slot = Some(sheet);
                Observed::Nothing
            }
            Err(e) => Observed::Error(e),
        };
    }
    let Some(sheet) = slot.as_mut() else {
        return Observed::Error("no open sheet".to_owned());
    };
    let (name, op) = match step {
        Step::Open => unreachable!("handled above"),
        Step::Recalc => {
            let stats = log.call("recalc", "recalc_all", |_| recalc_all(sheet)).0;
            return Observed::Evaluated {
                evaluated: stats.evaluated,
                cyclic: stats.cyclic,
            };
        }
        Step::Edit { row, col, value } => {
            let at = addr(*row, *col);
            let value = match value {
                EditValue::Num(x) => Value::Number(*x),
                EditValue::Text(s) => Value::text(s.as_str()),
            };
            log.call("grid", "set_value", |_| sheet.set_value(at, value));
            let stats = log
                .call("recalc", "recalc_from", |_| recalc_from(sheet, &[at]))
                .0;
            return Observed::Evaluated {
                evaluated: stats.evaluated,
                cyclic: stats.cyclic,
            };
        }
        Step::Countif { rows } => {
            return eval(
                spec,
                sheet,
                log,
                "eval_str:countif",
                &countif_text(spec, *rows),
            )
        }
        Step::Sumif { rows } => {
            return eval(spec, sheet, log, "eval_str:sumif", &sumif_text(spec, *rows))
        }
        Step::Vlookup { key, rows } => {
            return eval(
                spec,
                sheet,
                log,
                "eval_str:vlookup",
                &vlookup_text(spec, *key, *rows),
            )
        }
        Step::PointReads { cells } => {
            let values = log.call("grid", "value", |_| {
                cells
                    .iter()
                    .map(|&(r, c)| sheet.value(addr(r, c)))
                    .collect()
            });
            return Observed::Cells(values.0);
        }
        Step::Filter => {
            let criterion = Criterion::parse(&Value::text(spec.filter_text.as_str()));
            (
                "apply:filter",
                Op::Filter {
                    col: u32::from(spec.cat_col),
                    criterion,
                },
            )
        }
        Step::ClearFilter => ("apply:clear_filter", Op::ClearFilter),
        Step::Pivot => (
            "apply:pivot",
            Op::Pivot {
                dim_col: u32::from(spec.cat_col),
                measure_col: u32::from(spec.measure_col),
                agg: PivotAgg::Sum,
            },
        ),
        Step::CondFormat { alternate } => {
            let criterion = Criterion::parse(&Value::text(format!(">{}", spec.cond_threshold)));
            let fill = if *alternate {
                Color::BLACK
            } else {
                Color::GREEN
            };
            let range = column(spec.measure_col, sheet.nrows());
            (
                "apply:cond_format",
                Op::CondFormat {
                    range,
                    criterion,
                    fill,
                },
            )
        }
        Step::FindReplace { back } => {
            let (needle, replacement) = if *back {
                (spec.replacement, spec.needle)
            } else {
                (spec.needle, spec.replacement)
            };
            let range = Range::new(
                addr(0, spec.text_cols.0),
                addr(sheet.nrows() - 1, spec.text_cols.1),
            );
            let op = Op::FindReplace {
                range,
                needle: needle.to_owned(),
                replacement: replacement.to_owned(),
            };
            ("apply:find_replace", op)
        }
        Step::Sort { col, desc } => {
            let key = if *desc {
                SortKey::desc(u32::from(*col))
            } else {
                SortKey::asc(u32::from(*col))
            };
            ("apply:sort", Op::Sort { keys: vec![key] })
        }
        Step::InsertRow { at } => ("apply:insert_rows", Op::InsertRows { at: *at, count: 1 }),
        Step::DeleteRow { at } => ("apply:delete_rows", Op::DeleteRows { at: *at, count: 1 }),
        Step::CopyPaste { rows } => {
            let op = Op::CopyPaste {
                src: column(spec.measure_col, *rows),
                dst: addr(0, spec.paste_col),
            };
            ("apply:copy_paste", op)
        }
    };
    let outcome = log
        .call("ops", name, |_| sheet.apply(op))
        .0
        .map_err(|e| e.to_string());
    let mutates_values = matches!(
        step,
        Step::FindReplace { .. }
            | Step::Sort { .. }
            | Step::InsertRow { .. }
            | Step::DeleteRow { .. }
    );
    if mutates_values && outcome.is_ok() {
        log.call("recalc", "recalc_all", |_| recalc_all(sheet));
    }
    match outcome {
        Err(e) => Observed::Error(e),
        Ok(OpOutcome::Filtered { visible }) => Observed::Count(u64::from(visible)),
        Ok(OpOutcome::Formatted { cells }) | Ok(OpOutcome::Replaced { cells }) => {
            Observed::Count(u64::from(cells))
        }
        Ok(OpOutcome::Pivoted(table)) => Observed::Pivot(
            table
                .groups
                .iter()
                .map(|(key, sum, _)| (key.display(), *sum))
                .collect(),
        ),
        Ok(OpOutcome::Sorted { permutation }) => Observed::Permutation(permutation),
        Ok(OpOutcome::FilterCleared | OpOutcome::Pasted { .. } | OpOutcome::Restructured) => {
            Observed::Nothing
        }
    }
}

/// Evaluates a one-shot query `spec.query_batch` times back to back (the
/// step's time is divided by that before it becomes a sample).
fn eval(spec: &Spec, sheet: &Sheet, log: &mut SpanLog, name: &'static str, text: &str) -> Observed {
    let batch = |_: &mut SpanLog| {
        for _ in 1..spec.query_batch {
            let _ = std::hint::black_box(sheet.eval_str(text));
        }
        sheet.eval_str(text)
    };
    match log.call("functions", name, batch).0 {
        Ok(v) => Observed::Value(v),
        Err(e) => Observed::Error(e.to_string()),
    }
}

fn value_matches(expected: &Exp, got: &Value) -> bool {
    match (expected, got) {
        (Exp::Empty, Value::Empty) => true,
        (Exp::Num(a), Value::Number(b)) => a == b || (a - b).abs() <= 1e-9 * a.abs().max(1.0),
        (Exp::Text(a), Value::Text(b)) => a.as_str() == &**b,
        (Exp::Error, Value::Error(_)) => true,
        _ => false,
    }
}

fn check(
    spec: &Spec,
    step: &Step,
    expect: &Expect,
    observed: Observed,
    sheet: Option<&Sheet>,
) -> Result<(), String> {
    if let Observed::Error(e) = &observed {
        return Err(format!("engine error: {e}"));
    }
    match (expect, &observed) {
        (Expect::Count(want), Observed::Count(got)) if want == got => {}
        (Expect::Count(want), Observed::Count(got)) => {
            return Err(format!("count {got}, expected {want}"))
        }
        (Expect::Evaluated(want), Observed::Evaluated { evaluated, cyclic }) => {
            if evaluated != want || *cyclic != 0 {
                return Err(format!(
                    "evaluated {evaluated} (cyclic {cyclic}), expected {want}"
                ));
            }
        }
        (Expect::Value(want), Observed::Value(got)) => {
            if !value_matches(want, got) {
                return Err(format!("value {got:?}, expected {want:?}"));
            }
        }
        (Expect::Pivot(want), Observed::Pivot(got)) => {
            let same = want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(w, g)| w.0 == g.0 && value_matches(&Exp::Num(w.1), &Value::Number(g.1)));
            if !same {
                return Err(format!(
                    "pivot of {} groups differs from the expected {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        (Expect::Cells(want), Observed::Cells(got)) => {
            let Step::PointReads { cells } = step else {
                unreachable!("cells come from point reads")
            };
            let wrong: Vec<usize> = (0..want.len())
                .filter(|&i| !value_matches(&want[i], &got[i]))
                .collect();
            if let Some(&i) = wrong.first() {
                return Err(format!(
                    "{} of {} cells wrong; first at row {} col {}: {:?}, expected {:?}",
                    wrong.len(),
                    want.len(),
                    cells[i].0,
                    cells[i].1,
                    got[i],
                    want[i]
                ));
            }
        }
        (Expect::Nothing, Observed::Permutation(perm)) => {
            let Step::Sort { col, desc } = step else {
                unreachable!("permutations come from sorts")
            };
            let sheet = sheet.expect("sorted sheet is open");
            check_sort(sheet, perm, *col, *desc)?;
        }
        (Expect::Nothing, Observed::Nothing | Observed::Evaluated { .. }) => {}
        _ => return Err("outcome of the wrong kind".to_owned()),
    }
    if let (Step::InsertRow { .. } | Step::DeleteRow { .. }, Some(sheet)) = (step, sheet) {
        let want = if matches!(step, Step::InsertRow { .. }) {
            spec.rows + 1
        } else {
            spec.rows
        };
        if sheet.nrows() != want {
            return Err(format!("{} rows, expected {want}", sheet.nrows()));
        }
    }
    Ok(())
}

/// A sort must apply a permutation of all rows and leave the key column
/// monotone; which rows went where is checked by the point reads that
/// follow against the model's stable sort.
fn check_sort(sheet: &Sheet, perm: &[u32], col: u16, desc: bool) -> Result<(), String> {
    let rows = sheet.nrows();
    let mut seen = vec![false; rows as usize];
    for &p in perm {
        match seen.get_mut(p as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                return Err(format!(
                    "row {p} repeated or out of range in the permutation"
                ))
            }
        }
    }
    if perm.len() != rows as usize {
        return Err(format!(
            "permutation of {} rows on a sheet of {rows}",
            perm.len()
        ));
    }
    let mut previous = sheet.value(addr(0, col));
    for row in 1..rows {
        let current = sheet.value(addr(row, col));
        let ordered = if desc {
            previous.sheet_cmp(&current).is_ge()
        } else {
            previous.sheet_cmp(&current).is_le()
        };
        if !ordered {
            return Err(format!("key column out of order at row {row}"));
        }
        previous = current;
    }
    Ok(())
}
