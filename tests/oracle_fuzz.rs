//! Bounded in-test fuzz smoke: a fixed-seed generated sequence replayed
//! across the full configuration matrix (`oracle::matrix()`) and on the
//! reference evaluator. Deterministic (fixed seed, shimmed RNG), so CI
//! cannot flake — the long random exploration lives in the `fuzz` binary,
//! exercised by `scripts/check.sh`.

use ssbench::harness::oracle::{check_script, gen, Step};

#[test]
fn fixed_seed_sequence_is_configuration_independent() {
    let script = gen::generate(0xF00D, 64, 60);
    // The grammar must actually exercise the interesting ops at this
    // length, or the oracle is vacuous.
    let names: Vec<&str> = script
        .steps()
        .iter()
        .map(|step| match step {
            Step::Set { .. } => "set",
            Step::Apply(op) => op.name(),
            Step::Recalc => "recalc",
        })
        .collect();
    for expected in ["set", "sort", "filter"] {
        assert!(
            names.contains(&expected),
            "60-op stream never produced a {expected} op: {names:?}"
        );
    }
    if let Err(f) = check_script(&script) {
        panic!("oracle divergence on a healthy engine: {f}");
    }
}
