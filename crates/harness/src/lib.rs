//! # ssbench-harness
//!
//! The benchmark harness reproducing every table and figure of
//! *Benchmarking Spreadsheet Systems* (SIGMOD 2020):
//!
//! * [`bct`] — the seven Basic Complexity Testing experiments
//!   (Figures 2–8);
//! * [`oot`] — the six Optimization Opportunities Testing experiments
//!   (Figures 9–14), each with an extra "Optimized" series run through
//!   `SimSystem` under the Optimized profile;
//! * [`table2`] — the interactivity summary (Table 2);
//! * [`oracle`] — the differential testing oracle and its `fuzz` binary
//!   (DESIGN.md §9): seeded op sequences replayed across the lookup ×
//!   recalc-mode × index × grid-budget matrix (16 configurations) and
//!   once on the reference evaluator;
//! * [`taxonomy`] — the operation taxonomy (Table 1);
//! * [`timing`] — the paper's trial protocol (§3.3);
//! * [`report`] — text/CSV/JSON rendering; [`chart`] — ASCII line charts;
//! * [`json`] — the JSON value tree and text codec every document the
//!   workspace writes or reads goes through (results, trace, corpus).
//!
//! Binaries: `bct`, `oot`, `table2`, and `all`, each accepting
//! `--scale F`, `--trials N`, `--paper-protocol`, `--quick`, `--seed N`,
//! `--out DIR`.

#![deny(rust_2018_idioms, unreachable_pub)]

pub mod bct;
pub mod chart;
pub mod config;
pub mod grow;
pub mod json;
pub mod oot;
pub mod oracle;
pub mod report;
pub mod series;
pub mod table2;
pub mod taxonomy;
pub mod timing;

pub use config::{CliArgs, RunConfig};
pub use series::{ExperimentResult, Point, Series};
pub use timing::{trimmed_mean, Protocol, Stats};

use ssbench_engine::trace;

/// Runs one experiment inside an `experiment:<id>` trace span carrying the
/// figure's total simulated time. Every `run_all` dispatches through this,
/// so a traced run's root spans are the experiments themselves.
/// One figure's experiment: a sweep under a run configuration.
pub type Experiment = fn(&RunConfig) -> ExperimentResult;

/// Runs the experiments of `table` whose figure id `wants` selects, in
/// the table's order; the others are not run at all.
pub fn run_selected(
    cfg: &RunConfig,
    table: &[(&str, Experiment)],
    wants: impl Fn(&str) -> bool,
) -> Vec<ExperimentResult> {
    table.iter().filter(|(id, _)| wants(id)).map(|&(_, f)| run_experiment(cfg, f)).collect()
}

pub fn run_experiment(
    cfg: &RunConfig,
    f: impl FnOnce(&RunConfig) -> ExperimentResult,
) -> ExperimentResult {
    let span = trace::Span::open(trace::Category::Experiment, || "experiment:?".to_owned());
    let result = f(cfg);
    span.set_name(format!("experiment:{}", result.id));
    span.set_sim_ms(result.total_ms());
    span.finish();
    result
}

/// Runs everything: BCT then OOT. Returns all figure results; Table 2 can
/// be derived from the BCT subset via [`table2::from_results`].
pub fn run_everything(cfg: &RunConfig) -> Vec<ExperimentResult> {
    let mut results = bct::run_all(cfg);
    results.extend(oot::run_all(cfg));
    results
}
