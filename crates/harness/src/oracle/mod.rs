//! The differential testing oracle (DESIGN.md §9).
//!
//! The paper's experiments only mean anything if the engine computes *the
//! same answers* under every configuration the figures vary: lookup
//! strategy (§6), full vs incremental recalculation (Figs 13–14), column
//! indexes (the Optimized system) and the grid's memory budget. The oracle
//! enforces that by construction: it generates seeded random workbooks and
//! op sequences ([`gen`]) — the engine's own `Op`s, plus cell input and
//! recalculation — replays each sequence under the whole configuration
//! matrix and once on the reference evaluator, running the static
//! verifier after every op ([`runner`]), and on any divergence shrinks the
//! sequence to a minimal reproducer ([`shrink`]) serialized as JSON
//! ([`script`]) into `tests/corpus/`, where a `cargo test` suite replays
//! it forever after.

pub mod gen;
pub mod runner;
pub mod script;
pub mod shrink;

pub use runner::{check_script, matrix, Failure, OracleConfig};
pub use script::{Script, Step};
