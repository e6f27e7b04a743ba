//! Sheet-level operations: the update and query operations of the paper's
//! taxonomy (Table 1). Each operation does its real algorithmic work while
//! charging the meter; recalculation *triggers* (which system recomputes
//! formulae after which operation) are sequenced by the system profiles in
//! `ssbench-systems`, not here.
//!
//! Operations are dispatched through one choke point — the [`Op`] command
//! enum and [`Sheet::apply`] — so span-level tracing (and any future
//! policy, logging, or batching layer) instruments exactly one call site.
//! The read-only queries ([`pivot()`], [`find_all`]) are free functions: they
//! take `&Sheet`, which `apply(&mut self, …)` cannot serve.

pub mod cond_format;
pub mod copy_paste;
pub mod filter;
pub mod find_replace;
pub mod pivot;
pub mod sort;
pub mod structure;

pub use find_replace::find_all;
pub use pivot::{pivot, PivotAgg, PivotTable};
pub use sort::{SortKey, SortOrder};

use crate::addr::{CellAddr, Range};
use crate::error::EngineError;
use crate::sheet::Sheet;
use crate::style::Color;
use crate::trace;
use crate::value::Criterion;

/// A sheet operation as a first-class command (Table 1's update and query
/// operations). Constructing an `Op` performs no work; [`Sheet::apply`]
/// executes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Stable multi-key row sort (§4.2.1).
    Sort { keys: Vec<SortKey> },
    /// Hide rows not matching `criterion` on `col` (§4.3.1).
    Filter { col: u32, criterion: Criterion },
    /// Unhide every row.
    ClearFilter,
    /// Fill cells of `range` matching `criterion` (§4.2.2).
    CondFormat { range: Range, criterion: Criterion, fill: Color },
    /// Replace `needle` with `replacement` in text cells of `range` (§5.1.2).
    FindReplace { range: Range, needle: String, replacement: String },
    /// Copy `src` to the equally-shaped block at `dst` with reference
    /// adjustment.
    CopyPaste { src: Range, dst: CellAddr },
    /// Aggregate `measure_col` grouped by `dim_col` (§4.3.2).
    Pivot { dim_col: u32, measure_col: u32, agg: PivotAgg },
    /// Insert `count` blank rows before row `at`.
    InsertRows { at: u32, count: u32 },
    /// Delete `count` rows starting at row `at`.
    DeleteRows { at: u32, count: u32 },
    /// Insert `count` blank columns before column `at`.
    InsertCols { at: u32, count: u32 },
    /// Delete `count` columns starting at column `at`.
    DeleteCols { at: u32, count: u32 },
}

impl Op {
    /// Stable short name (used as the trace span name `op:<name>`).
    pub const fn name(&self) -> &'static str {
        match self {
            Op::Sort { .. } => "sort",
            Op::Filter { .. } => "filter",
            Op::ClearFilter => "clear_filter",
            Op::CondFormat { .. } => "cond_format",
            Op::FindReplace { .. } => "find_replace",
            Op::CopyPaste { .. } => "copy_paste",
            Op::Pivot { .. } => "pivot",
            Op::InsertRows { .. } => "insert_rows",
            Op::DeleteRows { .. } => "delete_rows",
            Op::InsertCols { .. } => "insert_cols",
            Op::DeleteCols { .. } => "delete_cols",
        }
    }
}

/// What an applied [`Op`] produced — one variant per command family.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// The permutation a sort applied (new row `i` was old row `perm[i]`).
    Sorted { permutation: Vec<u32> },
    /// Rows left visible by a filter.
    Filtered { visible: u32 },
    /// The filter was cleared.
    FilterCleared,
    /// Cells now carrying the conditional fill.
    Formatted { cells: u32 },
    /// Cells rewritten by find-and-replace.
    Replaced { cells: u32 },
    /// The destination range of a copy-paste.
    Pasted { dst: Range },
    /// The computed pivot table.
    Pivoted(PivotTable),
    /// A structural row/column edit completed.
    Restructured,
}

/// Cells of `range` inside the sheet's extent: what a scan of it reads, and
/// what it charges the meter, in one `bump`.
pub(crate) fn clipped_cells(sheet: &Sheet, range: Range) -> u64 {
    range.clip_to(sheet.nrows(), sheet.ncols()).map_or(0, |window| window.len())
}

impl Sheet {
    /// Applies one [`Op`] to the sheet: the single dispatcher every
    /// mutation funnels through, and the choke point where the tracer
    /// opens an `op:<name>` span with the operation's meter delta.
    ///
    /// Almost every command's preconditions are handled by clamping. The
    /// exceptions: `Sort` surfaces [`EngineError::BadPermutation`] if the
    /// grid rejects the computed row
    /// permutation (a bug in the sort itself, not bad user input), and
    /// `InsertRows`/`InsertCols` and `CopyPaste` return
    /// [`EngineError::OutOfBounds`], with the sheet untouched, when the new
    /// extent would exceed the engine limits. The span is finished either
    /// way, so an error still traces as a complete op.
    pub fn apply(&mut self, op: Op) -> Result<OpOutcome, EngineError> {
        let span =
            trace::Span::open_metered(trace::Category::Op, || format!("op:{}", op.name()), self.meter());
        let outcome = match op {
            Op::Sort { keys } => sort::sort_rows_impl(self, &keys)
                .map(|permutation| OpOutcome::Sorted { permutation }),
            Op::Filter { col, criterion } => Ok(OpOutcome::Filtered {
                visible: filter::filter_rows_impl(self, col, &criterion),
            }),
            Op::ClearFilter => {
                filter::clear_filter_impl(self);
                Ok(OpOutcome::FilterCleared)
            }
            Op::CondFormat { range, criterion, fill } => Ok(OpOutcome::Formatted {
                cells: cond_format::conditional_format_impl(self, range, &criterion, fill),
            }),
            Op::FindReplace { range, needle, replacement } => Ok(OpOutcome::Replaced {
                cells: find_replace::find_replace_impl(self, range, &needle, &replacement),
            }),
            Op::CopyPaste { src, dst } => {
                copy_paste::copy_paste_impl(self, src, dst).map(|dst| OpOutcome::Pasted { dst })
            }
            Op::Pivot { dim_col, measure_col, agg } => {
                Ok(OpOutcome::Pivoted(pivot::pivot_impl(self, dim_col, measure_col, agg)))
            }
            Op::InsertRows { at, count } => {
                structure::restructure(self, structure::Axis::Row, at, count, true)
            }
            Op::DeleteRows { at, count } => {
                structure::restructure(self, structure::Axis::Row, at, count, false)
            }
            Op::InsertCols { at, count } => {
                structure::restructure(self, structure::Axis::Col, at, count, true)
            }
            Op::DeleteCols { at, count } => {
                structure::restructure(self, structure::Axis::Col, at, count, false)
            }
        };
        span.finish_metered(self.meter());
        outcome
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn apply_dispatches_and_reports_outcomes() {
        let mut s = Sheet::new();
        for (i, v) in [3i64, 1, 2].iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 0), *v);
        }
        let out = s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).expect("sort applies");
        assert_eq!(out, OpOutcome::Sorted { permutation: vec![1, 2, 0] });
        assert_eq!(s.value(CellAddr::new(0, 0)), Value::Number(1.0));

        let crit = Criterion::parse(&Value::Number(2.0));
        let out = s.apply(Op::Filter { col: 0, criterion: crit }).expect("filter applies");
        assert_eq!(out, OpOutcome::Filtered { visible: 1 });
        assert_eq!(s.apply(Op::ClearFilter).expect("clear applies"), OpOutcome::FilterCleared);
        assert_eq!(s.visible_rows(), 3);

        let out = s
            .apply(Op::Pivot { dim_col: 0, measure_col: 0, agg: PivotAgg::Count })
            .expect("pivot applies");
        match out {
            OpOutcome::Pivoted(t) => assert_eq!(t.len(), 3),
            other => panic!("expected Pivoted, got {other:?}"),
        }
    }

    #[test]
    fn apply_traces_one_op_span_per_dispatch() {
        let mut s = Sheet::new();
        s.set_value(CellAddr::new(0, 0), 5);
        trace::enable(64);
        trace::clear();
        s.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).expect("sort applies");
        let roots = trace::drain();
        trace::disable();
        let sorts: Vec<_> = roots.iter().filter(|r| r.name == "op:sort").collect();
        assert_eq!(sorts.len(), 1);
        assert!(sorts[0].counts.total() > 0, "op span carries the meter delta");
    }

    #[test]
    fn op_names_are_stable() {
        assert_eq!(Op::ClearFilter.name(), "clear_filter");
        assert_eq!(Op::InsertRows { at: 0, count: 1 }.name(), "insert_rows");
    }
}
