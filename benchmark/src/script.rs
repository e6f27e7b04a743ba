//! One round of a workload as data: a fixed, seeded list of steps, each
//! with the outcome the engine must produce. The list is built by
//! replaying the steps on the shadow [`Model`], so the expectations come
//! from plain Rust and never from the engine.
//!
//! Every round starts by opening the saved document, so every round does
//! exactly the same work on exactly the same sheet: step `i` of each round
//! is one operation measured again, and the engine's meter counts for a
//! round repeat bit for bit.

use crate::model::{Exp, MCell, Model, Snapshot};
use crate::rng::Rng;
use crate::workloads::{EditClass, EditKind, Spec};

#[derive(Clone, Debug, PartialEq)]
pub enum EditValue {
    Num(f64),
    Text(String),
}

#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// `io::open` + settings + `open_recalc`; replaces the round's sheet.
    Open,
    Recalc,
    /// `set_value` + `recalc_from`.
    Edit {
        row: u32,
        col: u16,
        value: EditValue,
    },
    Filter,
    ClearFilter,
    Pivot,
    /// One-shot whole-column formulas over the current row count.
    Countif {
        rows: u32,
    },
    Sumif {
        rows: u32,
    },
    Vlookup {
        key: f64,
        rows: u32,
    },
    /// Alternating fills, so every pass restyles every matching cell.
    CondFormat {
        alternate: bool,
    },
    /// Needle to replacement, or back; followed by `recalc_all`.
    FindReplace {
        back: bool,
    },
    /// Followed by `recalc_all`.
    Sort {
        col: u16,
        desc: bool,
    },
    /// One row; followed by `recalc_all`.
    InsertRow {
        at: u32,
    },
    DeleteRow {
        at: u32,
    },
    CopyPaste {
        rows: u32,
    },
    /// Seeded random `Sheet::value` reads; doubles as the cell check.
    PointReads {
        cells: Vec<(u32, u16)>,
    },
}

impl Step {
    pub fn kind(&self) -> &'static str {
        match self {
            Step::Open => "open",
            Step::Recalc => "recalc",
            Step::Edit { .. } => "edit",
            Step::Filter => "filter",
            Step::ClearFilter => "clear_filter",
            Step::Pivot => "pivot",
            Step::Countif { .. } => "countif",
            Step::Sumif { .. } => "sumif",
            Step::Vlookup { .. } => "vlookup",
            Step::CondFormat { .. } => "cond_format",
            Step::FindReplace { .. } => "find_replace",
            Step::Sort { .. } => "sort",
            Step::InsertRow { .. } => "insert_row",
            Step::DeleteRow { .. } => "delete_row",
            Step::CopyPaste { .. } => "copy_paste",
            Step::PointReads { .. } => "point_reads",
        }
    }

    /// The end-to-end metric this step is a sample of (`edit_ms` feeds the
    /// two edit percentiles); the other steps count in `run_s` only.
    pub fn metric(&self) -> Option<&'static str> {
        Some(match self {
            Step::Open => "open_ms",
            Step::Recalc => "recalc_full_ms",
            Step::Edit { .. } => "edit_ms",
            Step::Sort { .. } => "sort_ms",
            Step::InsertRow { .. } | Step::DeleteRow { .. } => "structural_ms",
            Step::Filter => "filter_ms",
            Step::Pivot => "pivot_ms",
            Step::Countif { .. } => "countif_ms",
            Step::Vlookup { .. } => "vlookup_ms",
            Step::FindReplace { .. } => "find_replace_ms",
            Step::CondFormat { .. } => "cond_format_ms",
            _ => return None,
        })
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Nothing,
    /// Rows visible, cells filled, cells replaced.
    Count(u64),
    /// Formulas a full recalc must evaluate.
    Evaluated(usize),
    Value(Exp),
    Pivot(Vec<(String, f64)>),
    Cells(Vec<Exp>),
}

pub struct Scripted {
    pub step: Step,
    pub expect: Expect,
}

/// Builds one round's script, consuming the model in its initial state.
pub fn build(spec: &Spec, mut model: Model, seed: u64) -> Vec<Scripted> {
    let mut edits_rng = Rng::new(seed, 2);
    let mut reads_rng = Rng::new(seed, 3);
    let mut out: Vec<Scripted> = Vec::new();
    let mut fresh_key = 10_000_000u32;

    let checkpoint = |model: &Model, out: &mut Vec<Scripted>, rng: &mut Rng| {
        let (rows, cols) = (model.nrows() as u64, model.ncols() as u64);
        let mut cells: Vec<(u32, u16)> = (0..spec.checkpoint_cells)
            .map(|_| (rng.below(rows) as u32, rng.below(cols) as u16))
            .collect();
        // Whole-column aggregates are few and the likeliest cells to show
        // a wrong scan, so every one of them is read at every checkpoint.
        for (c, column) in model.cols.iter().enumerate() {
            cells.extend(
                column
                    .iter()
                    .enumerate()
                    .filter(|(_, cell)| matches!(cell, MCell::Agg(_)))
                    .map(|(r, _)| (r as u32, c as u16)),
            );
        }
        let mut snapshot = Snapshot::new(model);
        let expected = cells
            .iter()
            .map(|&(r, c)| snapshot.expected(r as usize, c))
            .collect();
        out.push(Scripted {
            step: Step::PointReads { cells },
            expect: Expect::Cells(expected),
        });
    };
    let push =
        |out: &mut Vec<Scripted>, step: Step, expect: Expect| out.push(Scripted { step, expect });

    // Opening is the one step a round has a single natural place for; it is
    // done twice (the first sheet is closed unused) so that `open_ms` has
    // as many repetitions behind it as the sorts have.
    push(&mut out, Step::Open, Expect::Nothing);
    push(&mut out, Step::Open, Expect::Nothing);
    checkpoint(&model, &mut out, &mut reads_rng);
    for _ in 0..spec.recalcs {
        push(
            &mut out,
            Step::Recalc,
            Expect::Evaluated(model.formula_count()),
        );
    }

    // Read-only queries. Their answers do not change between repetitions,
    // so they are computed once.
    let rows = model.nrows() as u32;
    let visible = model.count_text(spec.cat_col, &spec.filter_text);
    let pivot = model.pivot_sum(spec.cat_col, spec.measure_col);
    let sum_if = model.sum_if(spec.cat_col, &spec.filter_text, spec.measure_col);
    let key = model.last_key(spec.key_col);
    let looked_up = model.vlookup(key, spec.key_col, spec.cat_col);
    let filled = model.count_gt(spec.measure_col, spec.cond_threshold);
    for rep in 0..spec.query_reps {
        push(&mut out, Step::Filter, Expect::Count(visible));
        push(&mut out, Step::ClearFilter, Expect::Nothing);
        push(&mut out, Step::Pivot, Expect::Pivot(pivot.clone()));
        push(
            &mut out,
            Step::Countif { rows },
            Expect::Value(Exp::Num(visible as f64)),
        );
        push(
            &mut out,
            Step::Sumif { rows },
            Expect::Value(Exp::Num(sum_if)),
        );
        push(
            &mut out,
            Step::Vlookup { key, rows },
            Expect::Value(looked_up.clone()),
        );
        push(
            &mut out,
            Step::CondFormat {
                alternate: rep % 2 == 1,
            },
            Expect::Count(filled),
        );
    }

    // Single-cell edits, each recalculated before the next. Every seed
    // gets exactly the classes' shares, in a seeded order, so the edit
    // percentiles do not move with the luck of the draw.
    let mut classes: Vec<&EditClass> = spec
        .edit_classes
        .iter()
        .flat_map(|c| std::iter::repeat_n(c, (c.share * spec.edits / 100) as usize))
        .collect();
    assert_eq!(
        classes.len(),
        spec.edits as usize,
        "edit class shares divide the edit count"
    );
    edits_rng.shuffle(&mut classes);
    for class in classes {
        let row = edits_rng.below(model.nrows() as u64) as u32;
        let col = class.cols.0 + edits_rng.below(u64::from(class.cols.1 - class.cols.0) + 1) as u16;
        let value = match class.kind {
            EditKind::SmallInt(max) => EditValue::Num(edits_rng.below(u64::from(max)) as f64),
            EditKind::Category => EditValue::Text(
                spec.categories[edits_rng.below(spec.categories.len() as u64) as usize].clone(),
            ),
            EditKind::Keyword => EditValue::Text(
                spec.keywords[edits_rng.below(spec.keywords.len() as u64) as usize].to_owned(),
            ),
            EditKind::FreshKey => {
                fresh_key += 1;
                EditValue::Num(f64::from(fresh_key))
            }
        };
        let cell = match &value {
            EditValue::Num(x) => MCell::Num(*x),
            EditValue::Text(s) => model.text(s),
        };
        model.set(row as usize, col, cell);
        push(&mut out, Step::Edit { row, col, value }, Expect::Nothing);
    }
    checkpoint(&model, &mut out, &mut reads_rng);

    let (c0, c1) = spec.text_cols;
    let replaced = model.find_replace(c0, c1, spec.needle, spec.replacement);
    push(
        &mut out,
        Step::FindReplace { back: false },
        Expect::Count(replaced),
    );
    checkpoint(&model, &mut out, &mut reads_rng);
    let restored = model.find_replace(c0, c1, spec.replacement, spec.needle);
    push(
        &mut out,
        Step::FindReplace { back: true },
        Expect::Count(restored),
    );

    for (i, &(col, desc)) in spec.sorts.iter().enumerate() {
        model.sort_by(col, desc);
        push(&mut out, Step::Sort { col, desc }, Expect::Nothing);
        if i == 0 {
            checkpoint(&model, &mut out, &mut reads_rng);
        }
    }

    let mid = model.nrows() as u32 / 2;
    for pair in 0..2 {
        model.insert_row(mid as usize);
        push(&mut out, Step::InsertRow { at: mid }, Expect::Nothing);
        if pair == 0 {
            checkpoint(&model, &mut out, &mut reads_rng);
        }
        model.delete_row(mid as usize);
        push(&mut out, Step::DeleteRow { at: mid }, Expect::Nothing);
    }

    model.copy_col(spec.measure_col, spec.paste_col);
    push(
        &mut out,
        Step::CopyPaste {
            rows: model.nrows() as u32,
        },
        Expect::Nothing,
    );
    checkpoint(&model, &mut out, &mut reads_rng);
    out
}
