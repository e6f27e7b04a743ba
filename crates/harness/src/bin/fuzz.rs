//! Differential fuzzer (DESIGN.md §9) and static-verification driver
//! (DESIGN.md §11).
//!
//! Modes, one binary:
//!
//! * `fuzz --seed N [--ops M] [--shrink] [--corpus DIR]` — generate a
//!   seeded op sequence, replay it across the full configuration matrix
//!   and on the reference evaluator, and on divergence (optionally
//!   shrink, then) write a JSON reproducer into the corpus directory.
//!   Exit 1 on failure.
//! * `fuzz replay [--corpus DIR]` — replay every `*.json` script in the
//!   corpus; exit 1 if any fails. This is the regression mode
//!   `scripts/check.sh` and the `corpus_replay` test run.
//! * `fuzz [replay] --verify` — instead of the differential matrix, run
//!   the static analyzer over the sheet after every op: bytecode
//!   verification plus dep-graph read-set coverage for every template
//!   (`engine::analyze::check_sheet`). `--analyze` additionally prints
//!   the per-template facts (stack depth, volatility, read-set).

use std::path::{Path, PathBuf};

use ssbench_harness::oracle::{check_script, gen, matrix, shrink, verify_script, Script};
use ssbench_harness::CliArgs;

fn main() {
    let cli = CliArgs::parse_or_exit("fuzz");
    let corpus: PathBuf =
        cli.corpus.clone().unwrap_or_else(|| PathBuf::from("tests/corpus"));

    let replay_mode = cli.selectors.iter().any(|s| s == "replay");
    let ok = match (replay_mode, cli.verify) {
        (true, false) => replay_corpus(&corpus),
        (true, true) => verify_corpus(&cli, &corpus),
        (false, true) => {
            let n_ops = cli.ops.unwrap_or(gen::DEFAULT_OPS);
            let script = gen::generate(cli.cfg.seed, gen::DEFAULT_ROWS, n_ops);
            verify_one(&cli, "generated", &script)
        }
        (false, false) => fuzz_once(&cli, &corpus),
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Statically verifies one script; prints the template summary (and, with
/// `--analyze`, every template's facts).
fn verify_one(cli: &CliArgs, label: &str, script: &Script) -> bool {
    match verify_script(script) {
        Ok(reports) => {
            let volatile = reports.iter().filter(|r| r.volatile).count();
            let unbounded = reports.iter().filter(|r| !r.reads.is_bounded()).count();
            eprintln!(
                "fuzz: {label} verified — {} final template(s) ({volatile} volatile, \
                 {unbounded} unbounded), every op-step proven",
                reports.len(),
            );
            if cli.analyze {
                for r in &reports {
                    println!("{r}");
                }
            }
            true
        }
        Err(f) => {
            eprintln!("fuzz: {label} VERIFICATION FAILED: {f}");
            false
        }
    }
}

/// Runs the static verifier over every corpus script (the check.sh sweep).
fn verify_corpus(cli: &CliArgs, corpus: &Path) -> bool {
    let scripts = match Script::load_dir(corpus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fuzz: cannot load corpus: {e}");
            return false;
        }
    };
    if scripts.is_empty() {
        eprintln!("fuzz: corpus {} is empty", corpus.display());
        return false;
    }
    let mut ok = true;
    for (path, script) in &scripts {
        ok &= verify_one(cli, &path.display().to_string(), script);
    }
    ok
}

/// Generates one scripted sequence from the CLI seed and oracles it.
fn fuzz_once(cli: &CliArgs, corpus: &Path) -> bool {
    let n_ops = cli.ops.unwrap_or(gen::DEFAULT_OPS);
    let script = gen::generate(cli.cfg.seed, gen::DEFAULT_ROWS, n_ops);
    eprintln!(
        "fuzz: seed {} — {} ops over a {}-row workbook, {} configurations + the reference",
        script.seed,
        script.ops.len(),
        script.rows,
        matrix().len()
    );
    match check_script(&script) {
        Ok(()) => {
            eprintln!("fuzz: seed {} ok", script.seed);
            true
        }
        Err(first) => {
            eprintln!("fuzz: DIVERGENCE {first}");
            let minimal = if cli.shrink {
                eprintln!("fuzz: shrinking…");
                let m = shrink::shrink(&script);
                eprintln!("fuzz: shrunk {} ops -> {}", script.ops.len(), m.ops.len());
                m
            } else {
                script
            };
            write_reproducer(corpus, &minimal);
            false
        }
    }
}

/// Serializes a failing script into the corpus as `seed<N>-<ops>ops.json`.
fn write_reproducer(corpus: &Path, script: &Script) {
    if let Err(e) = std::fs::create_dir_all(corpus) {
        eprintln!("fuzz: cannot create {}: {e}", corpus.display());
        return;
    }
    let path = corpus.join(format!("seed{}-{}ops.json", script.seed, script.ops.len()));
    match std::fs::write(&path, script.to_json()) {
        Ok(()) => eprintln!("fuzz: reproducer written to {}", path.display()),
        Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
    }
}

/// Replays the whole corpus; prints one line per script.
fn replay_corpus(corpus: &Path) -> bool {
    let scripts = match Script::load_dir(corpus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fuzz: cannot load corpus: {e}");
            return false;
        }
    };
    if scripts.is_empty() {
        eprintln!("fuzz: corpus {} is empty", corpus.display());
        return false;
    }
    let mut ok = true;
    for (path, script) in &scripts {
        match check_script(script) {
            Ok(()) => eprintln!("fuzz: {} ok", path.display()),
            Err(f) => {
                eprintln!("fuzz: {} FAILED: {f}", path.display());
                ok = false;
            }
        }
    }
    ok
}
