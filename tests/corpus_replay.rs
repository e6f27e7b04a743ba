//! Replays every corpus reproducer under `tests/corpus/` through the
//! differential oracle. Each file is a shrunk, once-failing script (see
//! DESIGN.md §9); this suite makes those failures permanent regressions.

use std::path::PathBuf;

use ssbench::harness::oracle::{check_script, Script};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_script_passes_the_oracle() {
    let scripts = Script::load_dir(&corpus_dir()).expect("corpus directory loads");
    assert!(!scripts.is_empty(), "corpus must not be empty");
    let mut failures = Vec::new();
    for (path, script) in &scripts {
        assert!(
            script.steps().len() <= 10,
            "{}: corpus reproducers must stay minimal (≤ 10 ops), got {}",
            path.display(),
            script.steps().len()
        );
        if let Err(f) = check_script(script) {
            failures.push(format!("{}: {f}", path.display()));
        }
    }
    assert!(failures.is_empty(), "corpus regressions:\n{}", failures.join("\n"));
}

/// The corpus format is the bytes on disk: a file re-renders through
/// `Script` to itself (the two oldest files end in a newline the writer
/// does not emit), so a reproducer `fuzz` saves today is the file it
/// replays tomorrow.
#[test]
fn corpus_files_round_trip_through_the_script_codec() {
    let corpus = Script::load_dir(&corpus_dir()).expect("corpus directory loads");
    for (path, script) in corpus {
        let text = std::fs::read_to_string(&path).unwrap();
        let path = path.display();
        assert_eq!(script.to_json(), text.trim_end(), "{path} re-renders to its own bytes");
    }
}
