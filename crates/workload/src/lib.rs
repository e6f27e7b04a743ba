//! # ssbench-workload
//!
//! Dataset generators for the BCT/OOT benchmarks: a deterministic
//! synthetic reproduction of the paper's 50k×17 weather spreadsheet
//! (§3.2), its 10×-scaled 500k-row Formula-value master, the Value-only
//! derivation, and the 51 sampled size versions.
//!
//! Determinism: all content is a pure function of `(seed, row)`, so a
//! smaller dataset is always a prefix of a larger one and every run of the
//! benchmark sees identical data.

#![deny(rust_2018_idioms, unreachable_pub)]

pub mod datasets;
pub mod schema;
pub mod weather;

pub use datasets::{build_doc, build_doc_seeded, build_sheet, build_sheet_seeded, sample_sizes};
pub use weather::{
    cell_text, countif_expr, generate_row, write_row, Variant, WeatherRow, DEFAULT_SEED,
};
