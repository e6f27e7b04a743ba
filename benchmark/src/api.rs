//! The whole engine surface the benchmark compiles against, in one place.
//! No other module of this crate names an `ssbench_*` item, so a rename
//! or signature change in `crates/` is absorbed here and nowhere else.

pub use ssbench_engine::addr::{col_to_letters, CellAddr, Range};
pub use ssbench_engine::compile::ProgramCache;
pub use ssbench_engine::depgraph::DepGraph;
pub use ssbench_engine::formula::{parse as parse_formula, Expr};
pub use ssbench_engine::io::{open as io_open, SheetData};
pub use ssbench_engine::meter::{Counts, Primitive};
pub use ssbench_engine::ops::{Op, OpOutcome, PivotAgg, SortKey};
pub use ssbench_engine::recalc::{open_recalc, recalc_all, recalc_from, EvalSession};
pub use ssbench_engine::sheet::{Layout, Sheet};
pub use ssbench_engine::style::Color;
pub use ssbench_engine::trace as engine_trace;
pub use ssbench_engine::value::{Criterion, Value};

pub use ssbench_workload::schema as weather_schema;
pub use ssbench_workload::{build_doc_seeded, generate_row, Variant};

/// Environment variables that change the engine's defaults; the benchmark
/// removes them at start so it measures `Sheet::new()` as shipped.
pub const ENGINE_ENV_KNOBS: [&str; 3] = [
    "RECALC_PARALLELISM",
    "SSBENCH_EVAL_BACKEND",
    "SSBENCH_GRID_BUDGET",
];
