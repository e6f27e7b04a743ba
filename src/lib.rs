//! Umbrella crate for the SIGMOD 2020 "Benchmarking Spreadsheet Systems"
//! reproduction. Re-exports the workspace crates so that examples and
//! integration tests can use one coherent namespace.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use ssbench_engine as engine;
pub use ssbench_harness as harness;
pub use ssbench_systems as systems;
pub use ssbench_workload as workload;
