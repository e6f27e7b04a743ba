//! # ssbench-bench
//!
//! Criterion benchmark targets, one per table/figure of the paper (see
//! `benches/`), plus ablation benches for the engine's optimizations.
//! This library only hosts shared helpers.

#![deny(rust_2018_idioms, unreachable_pub)]

use ssbench_harness::RunConfig;

/// The configuration criterion benches run the harness experiments with:
/// small scale and single trials — criterion supplies the repetition, and
/// the simulated-time series shapes are scale-invariant.
pub fn bench_config() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.scale = 0.002; // sizes 10 .. 1000
    cfg
}

/// A slightly larger configuration for benches whose effect needs more
/// rows to be visible (sort, layout).
pub fn bench_config_large() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.scale = 0.01; // sizes 10 .. 5000
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_tiny_and_single_trial() {
        assert!(bench_config().scale < 0.01);
        assert_eq!(bench_config().protocol.trials, 1);
        assert!(bench_config_large().scale <= 0.01);
    }
}
