//! The engine's random tests draw from the generator the oracle and the
//! workload draw from: case `k` of a test runs on
//! `SmallRng::seed_from_u64(k)`, so a failure reruns by its number.

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `case` on 64 seeds, `0..64`, and names the one that panics.
pub(crate) fn cases(mut case: impl FnMut(&mut SmallRng)) {
    for k in 0..64 {
        if catch_unwind(AssertUnwindSafe(|| case(&mut SmallRng::seed_from_u64(k)))).is_err() {
            panic!("random case {k} failed; it reruns on SmallRng::seed_from_u64({k})");
        }
    }
}

/// A string of `lens` characters, each drawn from `alphabet`.
pub(crate) fn text(rng: &mut SmallRng, alphabet: &str, lens: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..rng.random_range(lens)).map(|_| chars[rng.random_range(0..chars.len())]).collect()
}
