//! Differential fuzzer (DESIGN.md §9), which also runs the static
//! verifier (DESIGN.md §11) after every op of every replay.
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
//! * `--analyze` (either mode) — also print the per-template facts the
//!   analyzer proved on each script's final sheet (stack depth,
//!   volatility, read-set).

use std::path::{Path, PathBuf};

use ssbench_engine::analyze::TemplateReport;
use ssbench_harness::oracle::{check_script, gen, matrix, shrink, Script};
use ssbench_harness::CliArgs;

fn main() {
    let cli = CliArgs::parse_or_exit("fuzz");
    let corpus: PathBuf =
        cli.corpus.clone().unwrap_or_else(|| PathBuf::from("tests/corpus"));

    let ok = if cli.selectors.iter().any(|s| s == "replay") {
        replay_corpus(&cli, &corpus)
    } else {
        fuzz_once(&cli, &corpus)
    };
    if !ok {
        std::process::exit(1);
    }
}

/// With `--analyze`, prints every template's proven facts to stdout.
fn print_templates(cli: &CliArgs, templates: &[TemplateReport]) {
    if cli.analyze {
        for t in templates {
            println!("{t}");
        }
    }
}

/// Generates one scripted sequence from the CLI seed and oracles it.
fn fuzz_once(cli: &CliArgs, corpus: &Path) -> bool {
    let n_ops = cli.ops.unwrap_or(gen::DEFAULT_OPS);
    let script = gen::generate(cli.cfg.seed, gen::DEFAULT_ROWS, n_ops);
    eprintln!(
        "fuzz: seed {} — {} ops over a {}-row workbook, {} configurations + the reference",
        script.seed,
        script.steps().len(),
        script.rows,
        matrix().len()
    );
    match check_script(&script) {
        Ok(templates) => {
            eprintln!("fuzz: seed {} ok", script.seed);
            print_templates(cli, &templates);
            true
        }
        Err(first) => {
            eprintln!("fuzz: DIVERGENCE {first}");
            let minimal = if cli.shrink {
                eprintln!("fuzz: shrinking…");
                let m = shrink::shrink(&script);
                eprintln!("fuzz: shrunk {} ops -> {}", script.steps().len(), m.steps().len());
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
    let path = corpus.join(format!("seed{}-{}ops.json", script.seed, script.steps().len()));
    match std::fs::write(&path, script.to_json()) {
        Ok(()) => eprintln!("fuzz: reproducer written to {}", path.display()),
        Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
    }
}

/// Replays the whole corpus; prints one line per script.
fn replay_corpus(cli: &CliArgs, corpus: &Path) -> bool {
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
            Ok(templates) => {
                eprintln!("fuzz: {} ok", path.display());
                print_templates(cli, &templates);
            }
            Err(f) => {
                eprintln!("fuzz: {} FAILED: {f}", path.display());
                ok = false;
            }
        }
    }
    ok
}
