//! Run configuration shared by every experiment, plus the one CLI parser
//! every harness binary goes through.

use std::path::PathBuf;

use ssbench_systems::{all_kinds, SystemKind};

use crate::timing::Protocol;

/// Usage text shared by all four binaries.
pub const USAGE: &str = "\
options:
  --scale F                 scale dataset sizes (1.0 = paper sizes)
  --trials N                trials per measurement
  --paper-protocol          10 trials, trimmed mean of 8 (§3.3)
  --quick                   smoke run: --scale 0.01, single trials
  --stop-after-violation N  stop a sweep N sizes past the 500 ms violation
                            (bct, table2, all: the BCT sweeps)
  --seed N                  dataset / noise seed
  --systems LIST            comma-separated systems to run (default: all
                            registered: excel,calc,gsheets,optimized)
  --out DIR                 write CSV/JSON results to DIR
  --trace DIR               record span traces; write DIR/trace.json (Chrome
                            about://tracing format) and DIR/trace.txt
  --charts                  also print ASCII charts
  fig2 fig3 …               only report the named figures
fuzz only:
  --ops N                   ops per generated sequence (default 200)
  --shrink                  on failure, delta-debug to a minimal script
  --corpus DIR              corpus directory (default tests/corpus)
  --analyze                 also print the per-template facts the static
                            verifier proved on the final sheet (stack
                            depth, volatility, read-set)
  replay                    replay every corpus script instead of fuzzing";

/// Configuration for a benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scales every dataset size (1.0 = the paper's sizes). Smoke runs and
    /// CI use small scales; shapes are preserved because the cost model is
    /// linear in the measured counts.
    pub scale: f64,
    /// Trial protocol.
    pub protocol: Protocol,
    /// When set, a size sweep stops this many sizes after the
    /// interactivity bound is first violated (used by the Table 2 runner,
    /// which only needs the violation points).
    pub stop_after_violation: Option<usize>,
    /// Seed for dataset generation and the Sheets noise stream.
    pub seed: u64,
    /// The systems to run, in presentation order (`--systems`; defaults
    /// to every profile in the registry).
    pub systems: Vec<SystemKind>,
    /// Directory for CSV/JSON result files (`None` = print only).
    pub out_dir: Option<PathBuf>,
}

impl RunConfig {
    /// Full paper-scale run.
    pub fn full() -> Self {
        RunConfig {
            scale: 1.0,
            protocol: Protocol::DEFAULT,
            stop_after_violation: None,
            seed: ssbench_workload::DEFAULT_SEED,
            systems: all_kinds().collect(),
            out_dir: None,
        }
    }

    /// Fast smoke run (used by tests): tiny sizes, single trials.
    pub fn quick() -> Self {
        RunConfig {
            scale: 0.01,
            protocol: Protocol::SINGLE,
            stop_after_violation: None,
            seed: ssbench_workload::DEFAULT_SEED,
            systems: all_kinds().collect(),
            out_dir: None,
        }
    }

    /// The systems this run covers, in presentation order.
    pub fn systems(&self) -> impl Iterator<Item = SystemKind> + '_ {
        self.systems.iter().copied()
    }

    /// Whether `kind` is part of this run.
    pub fn runs(&self, kind: SystemKind) -> bool {
        self.systems.contains(&kind)
    }

    /// Applies the scale to a row count (min 10 rows).
    pub fn scaled(&self, rows: u32) -> u32 {
        ((f64::from(rows) * self.scale).round() as u32).max(10)
    }

    /// The BCT size sweep for a system capped at `max_rows`, scaled.
    pub fn sizes(&self, max_rows: Option<u32>) -> Vec<u32> {
        let cap = max_rows.unwrap_or(u32::MAX);
        let mut out: Vec<u32> = ssbench_workload::sample_sizes()
            .into_iter()
            .filter(|&n| n <= cap)
            .map(|n| self.scaled(n))
            .collect();
        out.dedup();
        out
    }

    /// Parses CLI-style arguments (`--scale 0.1`, `--trials 10`,
    /// `--paper-protocol`, `--stop-after-violation N`, `--seed N`,
    /// `--out DIR`). Unknown arguments are returned for the caller.
    pub fn from_args(args: &[String]) -> Result<(Self, Vec<String>), String> {
        fn take_value<'a>(
            name: &str,
            it: &mut impl Iterator<Item = &'a String>,
        ) -> Result<String, String> {
            it.next().map(|s| s.to_owned()).ok_or_else(|| format!("{name} needs a value"))
        }
        let mut cfg = RunConfig::full();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    cfg.scale = take_value("--scale", &mut it)?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                }
                "--trials" => {
                    cfg.protocol.trials = take_value("--trials", &mut it)?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?;
                }
                "--paper-protocol" => cfg.protocol = Protocol::PAPER,
                "--quick" => {
                    cfg.scale = 0.01;
                    cfg.protocol = Protocol::SINGLE;
                }
                "--stop-after-violation" => {
                    cfg.stop_after_violation = Some(
                        take_value("--stop-after-violation", &mut it)?
                            .parse()
                            .map_err(|e| format!("--stop-after-violation: {e}"))?,
                    );
                }
                "--seed" => {
                    cfg.seed = take_value("--seed", &mut it)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--systems" => {
                    let list = take_value("--systems", &mut it)?;
                    let mut kinds = Vec::new();
                    for part in list.split(',').filter(|p| !p.trim().is_empty()) {
                        let kind: SystemKind =
                            part.parse().map_err(|e| format!("--systems: {e}"))?;
                        if !kinds.contains(&kind) {
                            kinds.push(kind);
                        }
                    }
                    if kinds.is_empty() {
                        return Err("--systems needs at least one system".to_owned());
                    }
                    // Preserve registry presentation order regardless of
                    // how the user spelled the list.
                    cfg.systems = all_kinds().filter(|k| kinds.contains(k)).collect();
                }
                "--out" => {
                    cfg.out_dir = Some(PathBuf::from(take_value("--out", &mut it)?));
                }
                other => rest.push(other.to_owned()),
            }
        }
        Ok((cfg, rest))
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::full()
    }
}

/// Prints `message` and [`USAGE`] and exits with status 2: a bad command
/// line.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Fully parsed command line of a harness binary: the [`RunConfig`] plus
/// the flags every binary shares (`--charts`, `--trace DIR`) and the
/// positional figure selectors. One parser, four binaries.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// The run configuration.
    pub cfg: RunConfig,
    /// Print ASCII charts after each figure's table.
    pub charts: bool,
    /// When set, tracing is enabled and `trace.json` + `trace.txt` are
    /// written here at the end of the run.
    pub trace_dir: Option<PathBuf>,
    /// Ops per generated fuzz sequence (`--ops`, fuzz binary only).
    pub ops: Option<usize>,
    /// Shrink failing fuzz scripts before reporting (`--shrink`).
    pub shrink: bool,
    /// Corpus directory for fuzz reproducers (`--corpus`).
    pub corpus: Option<PathBuf>,
    /// Print the per-template analysis facts of each replayed script
    /// (`--analyze`, fuzz binary only).
    pub analyze: bool,
    /// Positional figure ids (`fig3`, …); empty = everything.
    pub selectors: Vec<String>,
}

impl CliArgs {
    /// Parses a full argument list. Unknown `--flags` are errors here
    /// (unlike [`RunConfig::from_args`], which forwards them).
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        let (cfg, rest) = RunConfig::from_args(args)?;
        let mut cli = CliArgs {
            cfg,
            charts: false,
            trace_dir: None,
            ops: None,
            shrink: false,
            corpus: None,
            analyze: false,
            selectors: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--charts" => cli.charts = true,
                "--trace" => {
                    let dir =
                        it.next().ok_or_else(|| "--trace needs a directory".to_owned())?;
                    cli.trace_dir = Some(PathBuf::from(dir));
                }
                "--ops" => {
                    cli.ops = Some(
                        it.next()
                            .ok_or_else(|| "--ops needs a value".to_owned())?
                            .parse()
                            .map_err(|e| format!("--ops: {e}"))?,
                    );
                }
                "--shrink" => cli.shrink = true,
                "--analyze" => cli.analyze = true,
                "--corpus" => {
                    let dir =
                        it.next().ok_or_else(|| "--corpus needs a directory".to_owned())?;
                    cli.corpus = Some(PathBuf::from(dir));
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                selector => cli.selectors.push(selector.to_owned()),
            }
        }
        Ok(cli)
    }

    /// Parses `std::env::args`, printing the error plus [`USAGE`] and
    /// exiting with status 2 on a bad command line. On success prints the
    /// run banner and, when `--trace` was given, turns tracing on.
    pub fn parse_or_exit(tool: &str) -> CliArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match CliArgs::parse(&argv) {
            Ok(cli) => {
                eprintln!(
                    "{tool} — scale {}, {} trial(s), seed {}{}",
                    cli.cfg.scale,
                    cli.cfg.protocol.trials,
                    cli.cfg.seed,
                    if cli.trace_dir.is_some() { ", tracing on" } else { "" },
                );
                cli.init_trace();
                cli
            }
            Err(e) => usage_error(&e),
        }
    }

    /// Exits with a usage error unless every selector names one of
    /// `ids`, the figures this binary runs: a misspelt figure would
    /// otherwise run nothing and say nothing.
    pub fn check_selectors(&self, ids: &[&str]) {
        if let Some(bad) = self.selectors.iter().find(|s| !ids.contains(&s.as_str())) {
            usage_error(&format!("unknown figure {bad} (this binary runs {})", ids.join(" ")));
        }
    }

    /// Enables span recording when a trace directory was requested.
    pub fn init_trace(&self) {
        if self.trace_dir.is_some() {
            ssbench_engine::trace::enable(ssbench_engine::trace::DEFAULT_CAPACITY);
        }
    }

    /// Whether the figure `id` was selected (no selectors = everything).
    pub fn wants(&self, id: &str) -> bool {
        self.selectors.is_empty() || self.selectors.iter().any(|s| s == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_have_floor() {
        let cfg = RunConfig::quick();
        assert!(cfg.sizes(None).iter().all(|&n| n >= 10));
        let full = RunConfig::full();
        assert_eq!(*full.sizes(None).last().expect("size grid non-empty"), 500_000);
        assert_eq!(*full.sizes(Some(90_000)).last().expect("size grid non-empty"), 90_000);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--scale", "0.5", "--trials", "7", "--seed", "9", "extra"].iter().map(|s| s.to_string()).collect();
        let (cfg, rest) = RunConfig::from_args(&args).unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.protocol.trials, 7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(rest, vec!["extra"]);
    }

    #[test]
    fn systems_flag_filters_and_orders() {
        let (cfg, _) = RunConfig::from_args(&argv(&["--systems", "optimized,excel"])).unwrap();
        // Registry presentation order wins over spelling order.
        assert_eq!(cfg.systems, vec![SystemKind::Excel, SystemKind::Optimized]);
        assert!(cfg.runs(SystemKind::Excel));
        assert!(!cfg.runs(SystemKind::Calc));
        // Default: every registered system, four-wide.
        let (all, _) = RunConfig::from_args(&[]).unwrap();
        assert_eq!(all.systems.len(), 4);
        // Aliases and bad names.
        let (g, _) = RunConfig::from_args(&argv(&["--systems", "g"])).unwrap();
        assert_eq!(g.systems, vec![SystemKind::GSheets]);
        assert!(RunConfig::from_args(&argv(&["--systems", "lotus"])).is_err());
        assert!(RunConfig::from_args(&argv(&["--systems", ","])).is_err());
        assert!(RunConfig::from_args(&argv(&["--systems"])).is_err());
    }

    #[test]
    fn arg_parsing_flags() {
        let args: Vec<String> = ["--paper-protocol"].iter().map(|s| s.to_string()).collect();
        let (cfg, _) = RunConfig::from_args(&args).unwrap();
        assert_eq!(cfg.protocol, Protocol::PAPER);
        assert!(RunConfig::from_args(&["--scale".to_string()]).is_err());
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_args_parse_shared_flags_and_selectors() {
        let cli =
            CliArgs::parse(&argv(&["--quick", "--trace", "/tmp/t", "--charts", "fig3", "fig5"]))
                .unwrap();
        assert_eq!(cli.cfg.protocol, Protocol::SINGLE);
        assert!(cli.charts);
        assert_eq!(cli.trace_dir.as_deref(), Some(std::path::Path::new("/tmp/t")));
        assert!(cli.wants("fig3"));
        assert!(cli.wants("fig5"));
        assert!(!cli.wants("fig4"));
        let all = CliArgs::parse(&argv(&["--quick"])).unwrap();
        assert!(all.wants("fig4"), "no selectors selects everything");
    }

    #[test]
    fn cli_args_reject_unknown_flags_and_missing_values() {
        assert!(CliArgs::parse(&argv(&["--bogus"])).is_err());
        assert!(CliArgs::parse(&argv(&["--trace"])).is_err());
        assert!(CliArgs::parse(&argv(&["--ops"])).is_err());
        assert!(CliArgs::parse(&argv(&["--ops", "many"])).is_err());
        assert!(CliArgs::parse(&argv(&["--corpus"])).is_err());
    }

    #[test]
    fn cli_args_parse_fuzz_flags() {
        let cli = CliArgs::parse(&argv(&[
            "--seed", "3", "--ops", "50", "--shrink", "--corpus", "tests/corpus", "replay",
        ]))
        .unwrap();
        assert_eq!(cli.cfg.seed, 3);
        assert_eq!(cli.ops, Some(50));
        assert!(cli.shrink);
        assert_eq!(cli.corpus.as_deref(), Some(std::path::Path::new("tests/corpus")));
        assert_eq!(cli.selectors, vec!["replay"]);
        assert!(!cli.analyze);
    }

    #[test]
    fn cli_args_parse_verify_flags() {
        // The static verifier runs inside every replay; there is no
        // separate verification mode to select.
        assert!(CliArgs::parse(&argv(&["--verify"])).is_err());
        let cli = CliArgs::parse(&argv(&["--analyze", "replay"])).unwrap();
        assert!(cli.analyze);
        assert_eq!(cli.selectors, vec!["replay"]);
    }
}
