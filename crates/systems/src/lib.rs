//! # ssbench-systems
//!
//! Behavioural profiles of the spreadsheet systems under benchmark: the
//! three systems measured by *Benchmarking Spreadsheet Systems* (SIGMOD
//! 2020) — Microsoft Excel 2016, LibreOffice Calc 6.0.3.2, Google Sheets
//! — plus the engine-integrated *Optimized* fourth system, which runs the
//! paper's §6 "what if?" optimizations for real. All of them live in the
//! engine (maintained column indexes, dictionary-encoded text columns,
//! typed columnar chunks, compiled templates, window deltas, program
//! bindings that survive sorts) and are switched on by the profile's
//! policies, so every figure runs the same engine calls for every system.
//! The `indexed` policy both turns the engine's indexes on and prices what
//! its own shortcuts save: a find charges per distinct text (Fig 9) and a
//! slid `SUM(A$1:Ai)` window per cell it slid (Fig 11).
//!
//! Profiles are resolved through an open registry
//! ([`profile::registry`]/[`all_profiles`]): adding a system is one enum
//! variant plus one registry row, and every experiment, report, and chart
//! picks it up without modification.
//!
//! A profile is (a) a set of *policies* — which work the system performs
//! for each operation (lazy viewport loading, recalculation triggers,
//! lookup strategies, quota caps) — and (b) a calibrated *cost model*
//! converting the engine's measured primitive counts into simulated
//! milliseconds. Policies change what the engine actually executes, so
//! complexity shapes are produced mechanically; only the per-primitive
//! unit costs are fitted to the paper's published numbers (every constant
//! in [`calibration`] cites its anchor).
//!
//! [`SimSystem`] is the run-time face: it executes BCT/OOT operations
//! against real sheets and returns `(result, simulated_ms)` pairs.

#![deny(rust_2018_idioms, unreachable_pub)]

pub mod calibration;
pub mod cost;
pub mod op;
pub mod policy;
pub mod profile;
pub mod sim;

pub use cost::{CostModel, CostTable};
pub use op::{OpClass, ALL_OPS};
pub use policy::{Quotas, RecalcTrigger, SystemPolicies};
pub use profile::{
    all_kinds, all_profiles, ProfileEntry, ScalabilityLimit, SystemKind, SystemProfile,
};
pub use sim::SimSystem;

/// The interactivity bound the paper tests against: 500 ms, "widely
/// regarded as the bound for interactivity" (§1, citing Liu & Heer).
pub const INTERACTIVITY_BOUND_MS: f64 = 500.0;
