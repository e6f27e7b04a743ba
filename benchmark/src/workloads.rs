//! The four workloads: what each sheet looks like, which engine settings
//! it runs under, and the constants that size it. Each builder returns the
//! saved document the engine will open and the shadow [`Model`] of the
//! same cells; nothing else about a workload is special-cased anywhere —
//! the script ([`crate::script`]) is the same for all four.
//!
//! Sizes and repetition counts are constants, not flags. They were tuned
//! once so that one round of the script takes 0.13–0.45 s on the 2-core
//! host the benchmark was defined on, which gives 60–200 rounds —
//! repetitions of every step — in the 30 s a run measures. The sheets are
//! this small because of that shared host, not the engine: a larger
//! sheet's working set lives in the last-level cache the VM shares with its
//! neighbours, and the same binary's timings then spread several times as
//! wide (README.md, "Where this differs").

use crate::api::{build_doc_seeded, generate_row, weather_schema as ws, SheetData, Variant};
use crate::model::{Agg, MCell, Model};
use crate::rng::Rng;

pub const NAMES: [&str; 4] = ["weather_f", "weather_v", "filldown_indexed", "spill_thrash"];

/// Why each workload exists (also in BENCHMARK.json and the README).
pub fn why(name: &str) -> &'static str {
    match name {
        "weather_f" => "per-row COUNTIF formulas: parse, compile, depgraph and recalc overhead do the work",
        "weather_v" => "same sheet as values: grid scans, ops and functions do the work, formula layers idle",
        "filldown_indexed" => "fill-down windows and indexed lookups: kernels, delta cache, index reads and writes",
        "spill_thrash" => "grid budget a quarter of the working set: the buffer pool evicts and faults on every pass",
        other => unreachable!("unknown workload {other}"),
    }
}

/// How a single-cell edit picks its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EditKind {
    /// A number in `0..max`.
    SmallInt(u32),
    /// One of [`Spec::categories`].
    Category,
    /// One of [`Spec::keywords`].
    Keyword,
    /// A key no row has yet.
    FreshKey,
}

#[derive(Clone, Copy, Debug)]
pub struct EditClass {
    /// Share of edits, in percent.
    pub share: u32,
    /// Columns `c0..=c1` the edit may land in.
    pub cols: (u16, u16),
    pub kind: EditKind,
}

/// Everything the script generator and the runner need to know about a
/// workload's sheet.
#[derive(Clone, Debug)]
pub struct Spec {
    pub rows: u32,
    /// Unique numeric key (VLOOKUP and sort column).
    pub key_col: u16,
    /// Text dimension (filter, pivot, COUNTIF, SUMIF).
    pub cat_col: u16,
    /// Numeric measure (pivot, SUMIF, conditional format, copy-paste).
    pub measure_col: u16,
    pub filter_text: String,
    /// Conditional format fills cells of the measure column above this.
    pub cond_threshold: f64,
    /// Find-replace scans columns `c0..=c1` for `needle`.
    pub text_cols: (u16, u16),
    pub needle: &'static str,
    pub replacement: &'static str,
    /// The two sorts of a round: `(column, descending)`.
    pub sorts: [(u16, bool); 2],
    pub edit_classes: Vec<EditClass>,
    pub categories: Vec<String>,
    pub keywords: Vec<&'static str>,
    /// Copy-paste target column for the measure column.
    pub paste_col: u16,
    pub auto_index: bool,
    /// Grid budget in bytes, applied right after `io::open`.
    pub grid_budget: Option<usize>,
    // Per-round repetition counts.
    pub recalcs: u32,
    pub query_reps: u32,
    /// Times a one-shot COUNTIF / SUMIF / VLOOKUP step repeats its query;
    /// the reported time is per query.
    pub query_batch: u32,
    pub edits: u32,
    pub checkpoint_cells: u32,
}

impl Spec {
    /// The constants line of the result header.
    pub fn constants(&self) -> String {
        format!(
            "rows={} recalcs/round={} query_reps/round={} query_batch={} edits/round={} sorts/round=2 structural/round=4 \
             find_replace/round=2 point_reads/checkpoint={} auto_index={} grid_budget={}",
            self.rows,
            self.recalcs,
            self.query_reps,
            self.query_batch,
            self.edits,
            self.checkpoint_cells,
            self.auto_index,
            self.grid_budget.map_or("none".to_owned(), |b| format!("{b}B")),
        )
    }
}

pub struct Workload {
    pub spec: Spec,
    pub doc: SheetData,
    pub model: Model,
}

const WEATHER_F_ROWS: u32 = 1_000;
const WEATHER_V_ROWS: u32 = 10_000;
const FILLDOWN_ROWS: u32 = 6_000;
const FILLDOWN_WINDOW: u32 = 500;
/// One row in twenty carries a COUNTIF and a VLOOKUP formula.
const FILLDOWN_LOOKUP_SHARE: u32 = 20;
const SPILL_ROWS: u32 = 40_000;
const TABLE_CATEGORIES: u32 = 1000;
/// Bytes the pool accounts per resident chunk of 1024 rows of one column.
const POOL_PAGE_BYTES: usize = 128 + 1024 * 8;

pub fn build(name: &str, seed: u64, scale_div: u32) -> Workload {
    let scaled = |rows: u32| (rows / scale_div).max(600);
    match name {
        "weather_f" => weather(scaled(WEATHER_F_ROWS), seed, Variant::FormulaValue),
        "weather_v" => weather(scaled(WEATHER_V_ROWS), seed, Variant::ValueOnly),
        "filldown_indexed" => table(scaled(FILLDOWN_ROWS), seed, false),
        "spill_thrash" => table(scaled(SPILL_ROWS), seed, true),
        other => unreachable!("unknown workload {other}"),
    }
}

fn col(c: u32) -> u16 {
    c as u16
}

/// The paper's weather sheet (§3.2): key, state, seven event columns, a
/// storm count, and seven per-row `COUNTIF` columns — live formulas in the
/// Formula-value variant, their 0/1 results in the Value-only one. The
/// Value-only sheet additionally carries eight whole-column aggregates in
/// S1:S8 (the paper's §4.3 COUNTIF/SUMIF experiments put such formulas in
/// cells too), so a recalc and an edit have something to update without
/// waking the per-formula layers.
fn weather(rows: u32, seed: u64, variant: Variant) -> Workload {
    let mut doc = build_doc_seeded(rows, variant, seed);
    let agg_col = ws::NUM_COLS + 1;
    let value_only = variant == Variant::ValueOnly;
    let mut model = Model::with_shape(
        rows as usize,
        if value_only {
            agg_col as usize + 1
        } else {
            ws::NUM_COLS as usize
        },
    );
    let keyword_ids: Vec<u32> = ws::EVENT_KEYWORDS
        .iter()
        .map(|k| model.strings.intern(k))
        .collect();
    for r in 0..rows {
        let data = generate_row(seed, r);
        let row = r as usize;
        model.set(row, col(ws::KEY_COL), MCell::Num(f64::from(data.key)));
        let state = model.text(data.state);
        model.set(row, col(ws::STATE_COL), state);
        for (j, event) in data.events.iter().enumerate() {
            let event_col = col(ws::EVENT_COL_START) + j as u16;
            let cell = model.text(event);
            model.set(row, event_col, cell);
            let formula_col = col(ws::FORMULA_COL_START) + j as u16;
            let formula = if value_only {
                MCell::Num(f64::from(data.formula_result(j)))
            } else {
                MCell::CountifCell {
                    col: event_col,
                    keyword: keyword_ids[j],
                }
            };
            model.set(row, formula_col, formula);
        }
        model.set(
            row,
            col(ws::MEASURE_COL),
            MCell::Num(f64::from(data.storms)),
        );
    }
    if value_only {
        let n = rows;
        let sd = model.strings.intern(ws::FILTER_STATE);
        let storm = model.strings.intern(ws::EVENT_KEYWORDS[0]);
        let (a, b, c, j, k) = (
            col(ws::KEY_COL),
            col(ws::STATE_COL),
            col(ws::EVENT_COL_START),
            col(ws::MEASURE_COL),
            col(ws::FORMULA_COL_START),
        );
        let aggs = [
            (
                format!("=COUNTIF($B$1:$B${n},\"SD\")"),
                Agg::CountIf { col: b, text: sd },
            ),
            (
                format!("=SUMIF($B$1:$B${n},\"SD\",$J$1:$J${n})"),
                Agg::SumIf {
                    crit: b,
                    text: sd,
                    sum: j,
                },
            ),
            (format!("=SUM($J$1:$J${n})"), Agg::Sum(j)),
            (format!("=AVERAGE($J$1:$J${n})"), Agg::Average(j)),
            (format!("=MAX($A$1:$A${n})"), Agg::Max(a)),
            (
                format!("=COUNTIF($C$1:$C${n},\"STORM\")"),
                Agg::CountIf {
                    col: c,
                    text: storm,
                },
            ),
            (format!("=SUM($K$1:$K${n})"), Agg::Sum(k)),
            (format!("=COUNT($A$1:$A${n})"), Agg::Count(a)),
        ];
        for (i, (text, agg)) in aggs.into_iter().enumerate() {
            doc.rows[i].push(String::new());
            doc.rows[i].push(text);
            model.set(i, col(agg_col), MCell::Agg(agg));
        }
    }
    let events = (
        col(ws::EVENT_COL_START),
        col(ws::EVENT_COL_START + ws::NUM_EVENT_COLS - 1),
    );
    let measure = (col(ws::MEASURE_COL), col(ws::MEASURE_COL));
    let state = (col(ws::STATE_COL), col(ws::STATE_COL));
    let edit_classes = if value_only {
        // J feeds SUM, AVERAGE and SUMIF; B feeds COUNTIF and SUMIF; C
        // feeds the STORM count.
        vec![
            EditClass {
                share: 60,
                cols: measure,
                kind: EditKind::SmallInt(4),
            },
            EditClass {
                share: 20,
                cols: state,
                kind: EditKind::Category,
            },
            EditClass {
                share: 20,
                cols: (events.0, events.0),
                kind: EditKind::Keyword,
            },
        ]
    } else {
        // An event cell dirties exactly one COUNTIF; J and B dirty none.
        vec![
            EditClass {
                share: 60,
                cols: events,
                kind: EditKind::Keyword,
            },
            EditClass {
                share: 20,
                cols: measure,
                kind: EditKind::SmallInt(4),
            },
            EditClass {
                share: 20,
                cols: state,
                kind: EditKind::Category,
            },
        ]
    };
    let mut keywords: Vec<&'static str> = ws::EVENT_KEYWORDS.to_vec();
    keywords.push(ws::NO_EVENT);
    let spec = Spec {
        rows,
        key_col: col(ws::KEY_COL),
        cat_col: col(ws::STATE_COL),
        measure_col: col(ws::MEASURE_COL),
        filter_text: ws::FILTER_STATE.to_owned(),
        cond_threshold: 1.0,
        text_cols: events,
        needle: "HAIL",
        replacement: "SLEET",
        // Column A is already ascending, so both sorts are reversals: the
        // same work twice, nearly all of it moving rows and formulas.
        sorts: [(col(ws::KEY_COL), true), (col(ws::KEY_COL), false)],
        edit_classes,
        categories: ws::STATES.iter().map(|s| (*s).to_owned()).collect(),
        keywords,
        paste_col: col(ws::NUM_COLS),
        auto_index: false,
        grid_budget: None,
        recalcs: 3,
        query_reps: 10,
        query_batch: 1,
        // A Formula-value edit takes microseconds: many more of them.
        edits: if value_only { 40 } else { 400 },
        checkpoint_cells: 1000,
    };
    Workload { spec, doc, model }
}

/// The synthetic table behind `filldown_indexed` and `spill_thrash`:
/// A = permuted unique key, B = one of 1000 categories, C = small int,
/// then either the fill-down formula columns (D window sums, E COUNTIF,
/// F VLOOKUP, G1:G5 aggregates) or a float column D and eight
/// whole-column aggregates in E1:E8.
fn table(rows: u32, seed: u64, spill: bool) -> Workload {
    let mut rng = Rng::new(seed, 1);
    let n = rows;
    let mut keys: Vec<u32> = (1..=n).collect();
    rng.shuffle(&mut keys);
    // Every category gets the same number of rows (to within one), in a
    // seeded order: how many rows a filter or COUNTIF matches is then the
    // same for every seed, and so is the work those steps do.
    let mut row_categories: Vec<usize> = (0..n as usize)
        .map(|r| r % TABLE_CATEGORIES as usize)
        .collect();
    rng.shuffle(&mut row_categories);
    let categories: Vec<String> = (0..TABLE_CATEGORIES).map(|i| format!("c{i:04}")).collect();
    let filter_text = "c0500".to_owned();
    let ncols = if spill { 5 } else { 7 };
    let mut model = Model::with_shape(n as usize, ncols);
    let category_ids: Vec<u32> = categories.iter().map(|c| model.strings.intern(c)).collect();
    let filter_id = model.strings.intern(&filter_text);
    let window = FILLDOWN_WINDOW.min(n / 4);
    let lookups = n / FILLDOWN_LOOKUP_SHARE;
    let mut doc_rows: Vec<Vec<String>> = Vec::with_capacity(n as usize);
    for r in 0..n {
        let row = r as usize;
        let r1 = r + 1;
        let key = keys[row];
        let category = row_categories[row];
        let small = rng.below(10) as u32;
        model.set(row, 0, MCell::Num(f64::from(key)));
        model.set(row, 1, MCell::Text(category_ids[category]));
        model.set(row, 2, MCell::Num(f64::from(small)));
        let mut cells = vec![
            key.to_string(),
            categories[category].clone(),
            small.to_string(),
        ];
        if spill {
            // Eighths are exact in binary, so sums do not depend on the
            // order the engine adds them in.
            let eighths = rng.below(8_000_000) as f64 / 8.0;
            model.set(row, 3, MCell::Num(eighths));
            cells.push(format!("{eighths}"));
            let aggs = [
                (format!("=SUM($C$1:$C${n})"), Agg::Sum(2)),
                (format!("=COUNT($A$1:$A${n})"), Agg::Count(0)),
                (format!("=AVERAGE($D$1:$D${n})"), Agg::Average(3)),
                (format!("=MIN($A$1:$A${n})"), Agg::Min(0)),
                (format!("=MAX($D$1:$D${n})"), Agg::Max(3)),
                (format!("=SUM($D$1:$D${n})"), Agg::Sum(3)),
                (
                    format!("=COUNTIF($B$1:$B${n},\"{filter_text}\")"),
                    Agg::CountIf {
                        col: 1,
                        text: filter_id,
                    },
                ),
                (
                    format!("=SUMIF($B$1:$B${n},\"{filter_text}\",$C$1:$C${n})"),
                    Agg::SumIf {
                        crit: 1,
                        text: filter_id,
                        sum: 2,
                    },
                ),
            ];
            if let Some((text, agg)) = aggs.into_iter().nth(row) {
                cells.push(text);
                model.set(row, 4, MCell::Agg(agg));
            }
        } else {
            if r1 >= window {
                cells.push(format!("=SUM(C{}:C{r1})*2+C{r1}", r1 + 1 - window));
                model.set(
                    row,
                    3,
                    MCell::Window {
                        col: 2,
                        len: window,
                    },
                );
            } else {
                cells.push(String::new());
            }
            if r < lookups {
                let wanted = 1 + rng.below(u64::from(n)) as u32;
                cells.push(format!("=COUNTIF($B$1:$B${n},B{r1})"));
                cells.push(format!("=VLOOKUP({wanted},$A$1:$B${n},2,FALSE)"));
                model.set(row, 4, MCell::CountifCol { col: 1 });
                model.set(row, 5, MCell::Vlookup { key: wanted });
            } else if r < 5 {
                cells.extend([String::new(), String::new()]);
            }
            let aggs = [
                Agg::Sum(2),
                Agg::Average(2),
                Agg::Min(2),
                Agg::Max(2),
                Agg::Count(2),
            ];
            if let Some(agg) = aggs.get(row) {
                let name = ["SUM", "AVERAGE", "MIN", "MAX", "COUNT"][row];
                cells.push(format!("={name}($C$1:$C${n})"));
                model.set(row, 6, MCell::Agg(*agg));
            }
        }
        doc_rows.push(cells);
    }
    let chunks_per_col = (n as usize).div_ceil(1024);
    let spec = Spec {
        rows,
        key_col: 0,
        cat_col: 1,
        measure_col: 2,
        filter_text,
        cond_threshold: 7.0,
        text_cols: (1, 1),
        needle: "c05",
        replacement: "k05",
        // Keys start permuted. The spilled table sorts on two independent
        // random columns so both sorts do a full comparison sort; the
        // fill-down table has no second random column and reverses.
        sorts: if spill {
            [(0, false), (3, false)]
        } else {
            [(0, false), (0, true)]
        },
        // 60% of edits land in C (at most one window's worth of fill-down
        // formulas plus the aggregates), 20% in B and 20% in A (index
        // maintenance plus every COUNTIF / VLOOKUP formula), so the median
        // edit is of the first kind and the 95th percentile of the second.
        edit_classes: vec![
            EditClass {
                share: 60,
                cols: (2, 2),
                kind: EditKind::SmallInt(10),
            },
            EditClass {
                share: 20,
                cols: (1, 1),
                kind: EditKind::Category,
            },
            EditClass {
                share: 20,
                cols: (0, 0),
                kind: EditKind::FreshKey,
            },
        ],
        categories,
        keywords: Vec::new(),
        paste_col: ncols as u16,
        auto_index: !spill,
        // A quarter of the four data columns' resident footprint.
        grid_budget: spill.then_some(chunks_per_col * 4 * POOL_PAGE_BYTES / 4),
        recalcs: 3,
        // Indexed queries take microseconds; spilled ones tens of
        // milliseconds.
        query_reps: if spill { 5 } else { 10 },
        // An indexed query is a few microseconds, most of them cache misses
        // whose number changes with the process's memory layout; a burst
        // of 32 measures the probe instead of the layout.
        query_batch: if spill { 1 } else { 32 },
        edits: 40,
        checkpoint_cells: if spill { 5000 } else { 1000 },
    };
    Workload {
        spec,
        doc: SheetData { rows: doc_rows },
        model,
    }
}
