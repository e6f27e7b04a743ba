//! Seeded, deterministic generation of workbooks and op sequences.
//!
//! The grammar is deliberately restricted to operations whose results are
//! *specified* to be configuration-independent, so any divergence the
//! runner reports is a real bug and never generator noise:
//!
//! * range arguments of formulas are **single-column** — a restriction
//!   from when a multi-column aggregate summed floats in a
//!   layout-dependent order; there is one order now, and widening the
//!   grammar is ROADMAP item 3(e) (a find-and-replace range may already
//!   span two columns). Within that, the formula side covers every range
//!   kernel: the five plain aggregates
//!   over value cells and over formula cells, `COUNTIF` with numeric, text,
//!   `<>` and wildcard criteria, and `SUMIF`/`AVERAGEIF` with and without
//!   a second range of the same rows;
//! * `VLOOKUP` is always **exact-match** (`FALSE`) — approximate match
//!   over unsorted data may legitimately differ between the scan and
//!   binary-search strategies;
//! * non-finite number spellings (`inf`, `NaN`, `1e999`) appear as cell
//!   *input* on purpose: the engine must treat them as text, and the
//!   finite-grid audit fails any configuration that lets one through.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssbench_engine::addr::{col_to_letters, CellAddr, Range};
use ssbench_engine::ops::{Op, SortKey};
use ssbench_engine::sheet::Sheet;
use ssbench_engine::style::Color;

use super::script::{criterion, range_a1, Script, Step, AGGS};

/// Default initial workbook height, the one `fuzz --seed N` generates at.
/// It stays 200 so that a seed quoted anywhere (`scripts/check.sh`, the
/// docs) still names the workbook it was checked on; a saved script
/// records its own `rows`.
pub const DEFAULT_ROWS: u32 = 200;

/// Default generated op-sequence length.
pub const DEFAULT_OPS: usize = 200;

/// Initial workbook width: A/B numeric data, C text labels, D per-row
/// formulas, E whole-column aggregates, F second-level formulas.
const COLS: u32 = 6;

/// Text labels cycle over this many distinct spellings (duplicates feed
/// find-replace, filter, and pivot grouping).
const LABELS: u64 = 12;

/// Builds the initial workbook for `script`. Pure function of
/// `(script.seed, script.rows)` — every configuration starts from
/// cell-identical state.
pub fn build_workbook(script: &Script) -> Sheet {
    let rows = script.rows.max(8);
    let mut rng = SmallRng::seed_from_u64(script.seed ^ 0x5eed_b00c);
    let mut sheet = Sheet::with_size(rows, COLS);
    for r in 0..rows {
        let a1 = r + 1; // A1-style row number for formula text
        sheet.set_value(CellAddr::new(r, 0), rng.random_range(1..=1000i64));
        sheet.set_value(CellAddr::new(r, 1), rng.random_range(1..=9i64));
        sheet.set_value(CellAddr::new(r, 2), format!("item{}", rng.random_range(0..LABELS)));
        sheet
            .set_formula_str(CellAddr::new(r, 3), &format!("=A{a1}*2+B{a1}"))
            .expect("generated per-row formula parses");
        sheet
            .set_formula_str(CellAddr::new(r, 5), &format!("=D{a1}+$E$1"))
            .expect("generated second-level formula parses");
    }
    for (r, src) in [
        format!("=SUM(A1:A{rows})"),
        format!("=MIN(A1:A{rows})"),
        format!("=MAX(B1:B{rows})"),
        format!("=COUNTIF(B1:B{rows},\">=5\")"),
        format!("=VLOOKUP(5,B1:C{rows},2,FALSE)"),
    ]
    .iter()
    .enumerate()
    {
        sheet
            .set_formula_str(CellAddr::new(r as u32, 4), src)
            .expect("generated aggregate formula parses");
    }
    sheet
}

/// Generates a `Script`: an initial size plus `n_ops` random operations,
/// all a pure function of `seed`.
pub fn generate(seed: u64, rows: u32, n_ops: usize) -> Script {
    let rows = rows.max(8);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b5e_55ed);
    let mut gen = OpGen { rng: &mut rng, rows, cols: COLS, typed: 0 };
    let steps = (0..n_ops).map(|_| gen.next_op()).collect();
    Script { seed, rows, steps }
}

/// Op-stream generator. Tracks the workbook's *current* extent so row and
/// column indices stay in range as structural edits grow and shrink it.
struct OpGen<'a> {
    rng: &'a mut SmallRng,
    rows: u32,
    cols: u32,
    /// The row the last `set_value` typed into.
    typed: u32,
}

impl OpGen<'_> {
    fn next_op(&mut self) -> Step {
        let op = match self.rng.random_range(0..100u32) {
            0..=34 => return self.set_value(),
            35..=49 => return self.set_formula(),
            50..=56 => {
                let col = self.rng.random_range(0..3u32.min(self.cols));
                let key = match self.rng.random_range(0..2u32) {
                    0 => SortKey::asc(col),
                    _ => SortKey::desc(col),
                };
                Op::Sort { keys: vec![key] }
            }
            // Numbers on column B, or — a text criterion, matched per
            // distinct string — labels on column C, kept or excluded.
            57..=62 => match self.rng.random_range(0..5u32) {
                0..=2 => Op::Filter {
                    col: 1.min(self.cols - 1),
                    criterion: criterion(&format!(
                        "{}{}",
                        [">=", "<=", "<>"][self.rng.random_range(0..3usize)],
                        self.rng.random_range(1..=9u32)
                    )),
                },
                op => {
                    let label = format!("{}{}", ["", "<>"][(op - 3) as usize], self.label());
                    Op::Filter { col: 2.min(self.cols - 1), criterion: criterion(&label) }
                }
            },
            63..=66 => Op::ClearFilter,
            67..=70 => match self.rng.random_range(0..3u32) {
                0 | 1 => Op::CondFormat {
                    range: self.column_segment(0),
                    criterion: criterion(&format!(">={}", self.rng.random_range(100..=900u32))),
                    fill: Color::GREEN,
                },
                _ => Op::CondFormat {
                    range: self.column_segment(2.min(self.cols - 1)),
                    criterion: criterion(&self.label()),
                    fill: Color::GREEN,
                },
            },
            // The label column alone, or with its right-hand neighbour: a
            // replace is a per-cell rewrite, so — unlike an aggregate — it
            // may span columns without depending on the visit order.
            71..=74 => {
                let (needle, replacement) = (self.label(), self.label());
                let first = 2.min(self.cols - 1);
                let last = (first + self.rng.random_range(0..2u32)).min(self.cols - 1);
                Op::FindReplace { range: self.segment(first, last), needle, replacement }
            }
            75..=80 => {
                let src_col = self.rng.random_range(0..self.cols);
                let src = self.column_segment(src_col);
                let dst = CellAddr::new(
                    self.rng.random_range(0..self.rows),
                    self.rng.random_range(0..self.cols),
                );
                Op::CopyPaste { src, dst }
            }
            81..=85 => Op::Pivot {
                dim_col: 1.min(self.cols - 1),
                measure_col: 0,
                agg: AGGS[self.rng.random_range(0..5usize)].1,
            },
            86..=96 => return self.structural(),
            _ => return Step::Recalc,
        };
        Step::Apply(op)
    }

    fn set_value(&mut self) -> Step {
        let row = self.rng.random_range(0..self.rows);
        let col = self.rng.random_range(0..3u32.min(self.cols));
        self.typed = row;
        let text = match self.rng.random_range(0..10u32) {
            // Mostly ordinary numbers…
            0..=5 => self.rng.random_range(1..=1000i64).to_string(),
            6 | 7 => self.label(),
            // …but regularly the spellings `parse::<f64>()` would turn
            // into NaN/±inf if coercion let it, and the two zeros, whose
            // sign a save, an index key or a fold could drop.
            _ => ["inf", "-inf", "NaN", "infinity", "1e999", "-1E999", "-0", "0"]
                [self.rng.random_range(0..8usize)]
            .to_owned(),
        };
        Step::Set { row, col, text }
    }

    fn set_formula(&mut self) -> Step {
        let row = self.rng.random_range(0..self.rows);
        let col = self.rng.random_range(3..self.cols.max(4));
        let r1 = self.rng.random_range(1..=self.rows); // A1-style
        let (numbers, labels) = (1.min(self.cols - 1), 2.min(self.cols - 1));
        let text = match self.rng.random_range(0..10u32) {
            0 => format!("=A{r1}*3-B{r1}"),
            1 => {
                let func = ["SUM", "AVERAGE", "COUNT", "MIN", "MAX"][self.rng.random_range(0..5usize)];
                let values = self.values_column(col);
                format!("={func}({})", range_a1(&self.column_segment(values)))
            }
            2 => format!("=IF(B{r1}>=5,A{r1},0)"),
            3 => format!("=COUNTIF({},\">=3\")", range_a1(&self.column_segment(numbers))),
            4 => format!(
                "=VLOOKUP({},B1:C{},2,FALSE)",
                self.rng.random_range(1..=9u32),
                self.rows
            ),
            // A text criterion over the label column: decided per distinct
            // string, by equality, inequality or wildcard.
            5 | 6 => {
                let criterion = self.text_criterion();
                format!("=COUNTIF({},\"{criterion}\")", range_a1(&self.column_segment(labels)))
            }
            // The folding pair: over the criteria segment itself…
            7 => {
                let func = self.folding_if();
                let criterion = self.number_criterion();
                format!("={func}({},\"{criterion}\")", range_a1(&self.column_segment(numbers)))
            }
            // …or over the same rows of another column.
            _ => {
                let func = self.folding_if();
                let (criteria, criterion) = match self.rng.random_range(0..2u32) {
                    0 => (labels, self.text_criterion()),
                    _ => (numbers, self.number_criterion()),
                };
                let (criteria, values) =
                    (col_to_letters(criteria), col_to_letters(self.values_column(col)));
                let (r0, r1) = self.row_span();
                format!("={func}({criteria}{r0}:{criteria}{r1},\"{criterion}\",{values}{r0}:{values}{r1})")
            }
        };
        Step::Set { row, col, text }
    }

    fn folding_if(&mut self) -> &'static str {
        ["SUMIF", "AVERAGEIF"][self.rng.random_range(0..2usize)]
    }

    /// A column of numbers for a formula written into column `into` to
    /// fold: the values of A, or the per-row formulas of D — formula cells
    /// under a window — which a formula that is itself in D must not read.
    fn values_column(&mut self, into: u32) -> u32 {
        match self.rng.random_range(0..2u32) {
            1 if into != 3 && self.cols > 3 => 3,
            _ => 0,
        }
    }

    fn number_criterion(&mut self) -> String {
        let op = [">=", "<=", "<>", "="][self.rng.random_range(0..4usize)];
        format!("{op}{}", self.rng.random_range(1..=9u32))
    }

    fn text_criterion(&mut self) -> String {
        match self.rng.random_range(0..3u32) {
            0 => self.label(),
            1 => format!("<>{}", self.label()),
            // item1, item10, item11.
            _ => "item1*".to_owned(),
        }
    }

    fn structural(&mut self) -> Step {
        let count = self.rng.random_range(1..=3u32);
        match self.rng.random_range(0..4u32) {
            0 => {
                let at = self.rng.random_range(0..=self.rows);
                self.rows += count;
                Step::Apply(Op::InsertRows { at, count })
            }
            // Half the row deletes start at the row a value was last typed
            // into, so what was just written — a signed zero, say — leaves
            // the sheet with its band while that column is indexed.
            1 if self.rows > 8 + count => {
                let at = match self.rng.random_range(0..2u32) {
                    0 => self.typed.min(self.rows - count - 1),
                    _ => self.rng.random_range(0..self.rows - count),
                };
                self.rows -= count;
                Step::Apply(Op::DeleteRows { at, count })
            }
            2 => {
                let at = self.rng.random_range(0..=self.cols);
                self.cols += count;
                Step::Apply(Op::InsertCols { at, count })
            }
            3 if self.cols > 2 + count => {
                let at = self.rng.random_range(0..self.cols - count);
                self.cols -= count;
                Step::Apply(Op::DeleteCols { at, count })
            }
            // The guarded delete arms fall through here when the sheet is
            // already at its minimum extent.
            _ => Step::Recalc,
        }
    }

    /// A random single-column range in `col` (see the module doc for why
    /// the ranges aggregates read never span columns).
    fn column_segment(&mut self, col: u32) -> Range {
        self.segment(col, col)
    }

    /// A random run of rows of columns `first..=last`.
    fn segment(&mut self, first: u32, last: u32) -> Range {
        let (r0, r1) = self.row_span();
        Range::new(CellAddr::new(r0 - 1, first), CellAddr::new(r1 - 1, last))
    }

    /// A random run of rows, first and last, as A1 writes them.
    fn row_span(&mut self) -> (u32, u32) {
        let r0 = self.rng.random_range(1..=self.rows);
        (r0, self.rng.random_range(r0..=self.rows))
    }

    /// One of the initial workbook's text labels.
    fn label(&mut self) -> String {
        format!("item{}", self.rng.random_range(0..LABELS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(7, 32, 50);
        let b = generate(7, 32, 50);
        assert_eq!(a, b);
        let c = generate(8, 32, 50);
        assert_ne!(a.steps, c.steps, "different seeds give different streams");
    }

    /// The corpus format writes every step the generator makes: a
    /// generated script decodes back to itself, so a reproducer replays
    /// the script that failed.
    #[test]
    fn generated_scripts_decode_to_themselves() {
        for seed in 1..=20 {
            let script = generate(seed, DEFAULT_ROWS, DEFAULT_OPS);
            assert_eq!(Script::from_json(&script.to_json()).as_ref(), Ok(&script), "seed {seed}");
        }
    }

    #[test]
    fn generated_scripts_keep_indices_in_bounds() {
        // Structural ops move the extent; every later op must still be
        // replayable. A 500-op stream exercises the tracking thoroughly.
        let script = generate(11, 16, 500);
        let (mut rows, mut cols) = (16u32, COLS);
        for step in &script.steps {
            match *step {
                Step::Set { row, col, .. } => {
                    assert!(row < rows && col < cols.max(4), "{step:?} out of {rows}x{cols}");
                }
                Step::Apply(Op::InsertRows { count, .. }) => rows += count,
                Step::Apply(Op::DeleteRows { at, count }) => {
                    assert!(at + count <= rows);
                    rows -= count;
                }
                Step::Apply(Op::InsertCols { count, .. }) => cols += count,
                Step::Apply(Op::DeleteCols { at, count }) => {
                    assert!(at + count <= cols);
                    cols -= count;
                }
                _ => {}
            }
        }
        assert!(rows >= 8 && cols >= 2);
    }
}
