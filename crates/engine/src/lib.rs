//! # ssbench-engine
//!
//! A from-scratch spreadsheet engine built as the substrate for reproducing
//! *Benchmarking Spreadsheet Systems* (SIGMOD 2020). It provides:
//!
//! * a chunked columnar grid of cells with one scan order, row-major, read
//!   a typed slice at a time ([`grid`]);
//! * a formula language (lexer, parser, canonical printer) with 82
//!   built-in functions, listed once in [`functions`] ([`formula`]);
//! * two evaluators held bit-identical in values and in [`meter`] counts:
//!   the tree-walking interpreter ([`eval`], the reference) and the
//!   bytecode programs recalculation runs — compiled once per R1C1
//!   template, with range kernels that fold the grid's typed slices
//!   ([`compile`]);
//! * a dependency graph and a sequential recalculation engine that — like
//!   the benchmarked systems — recomputes dirty formulae *from scratch*
//!   ([`depgraph`], [`recalc`]);
//! * the update and query operations of the paper's taxonomy: sort,
//!   filter, find-and-replace, copy-paste, conditional formatting, and
//!   pivot tables ([`ops`]);
//! * document import/export ([`io`]).
//!
//! What the engine *charges* is intentionally naive in exactly the ways
//! the paper shows the commercial systems to be: the cost meter tallies a
//! cell-by-cell execution with full rescans, no sharing and full
//! recalculation on structural operations, and the simulated milliseconds
//! are computed from those counts. How it *runs* is not: storage is
//! columnar and typed, formulas are compiled, scans read slices. Column
//! indexes and recalculating from an edit's dirty set alone are the
//! caller's choice ([`index`], [`recalc::recalc_from`]); the per-system
//! behavioural profiles (Excel / LibreOffice Calc / Google Sheets /
//! Optimized) live in `ssbench-systems`.
//!
//! ## Quick start
//!
//! ```
//! use ssbench_engine::prelude::*;
//!
//! let mut sheet = Sheet::new();
//! sheet.set_value(CellAddr::parse("A1").unwrap(), 40);
//! sheet.set_value(CellAddr::parse("A2").unwrap(), 2);
//! sheet.set_formula_str(CellAddr::parse("B1").unwrap(), "=SUM(A1:A2)").unwrap();
//! recalc::recalc_all(&mut sheet);
//! assert_eq!(sheet.value(CellAddr::parse("B1").unwrap()), Value::Number(42.0));
//! ```

#![deny(rust_2018_idioms, unreachable_pub)]

pub mod addr;
pub mod analyze;
pub mod audit;
pub mod cell;
pub mod compile;
pub mod depgraph;
pub mod error;
pub mod eval;
pub mod formula;
pub mod functions;
pub mod grid;
pub mod index;
pub mod io;
pub mod meter;
pub mod ops;
pub mod recalc;
pub mod sheet;
pub mod style;
#[cfg(test)]
mod testing;
pub mod trace;
pub mod value;

// Root re-exports: the API surface downstream crates actually program
// against, so they need not deep-import module paths.
pub use crate::error::{CellError, EngineError};
pub use crate::index::IndexStore;
pub use crate::meter::{Counts, Meter, Primitive};
pub use crate::ops::{Op, OpOutcome};
pub use crate::recalc::EvalSession;
pub use crate::sheet::Sheet;

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::addr::{CellAddr, CellRef, Range};
    pub use crate::analyze::{self, Analysis, ReadSet, TemplateReport};
    pub use crate::cell::{Cell, Formula};
    pub use crate::error::{CellError, EngineError};
    pub use crate::eval::{CellSource, EvalCtx, LookupStrategy};
    pub use crate::formula::{parse, print, Expr};
    pub use crate::grid::{CellGet, GridStore, SpillStats, MAX_COLS, MAX_ROWS};
    pub use crate::index::IndexStore;
    pub use crate::io::SheetData;
    pub use crate::meter::{Counts, Meter, Primitive};
    pub use crate::ops::{
        find_all, pivot, Op, OpOutcome, PivotAgg, PivotTable, SortKey, SortOrder,
    };
    pub use crate::recalc;
    pub use crate::recalc::EvalSession;
    pub use crate::sheet::{Layout, Sheet};
    pub use crate::trace;
    pub use crate::style::Color;
    pub use crate::value::{Criterion, Value};
}
