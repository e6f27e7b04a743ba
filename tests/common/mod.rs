//! What the root package's random tests share: the case runner, and the
//! references and operators their formula generators draw. Case `k` of a
//! test runs on `SmallRng::seed_from_u64(k)`, the generator the oracle and
//! the workload draw from, so a failure reruns by its number.

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssbench::engine::formula::{BinOp, RangeRef};
use ssbench::engine::prelude::*;

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

/// A reference into A1:Z200, its row and its column each pinned or not.
pub(crate) fn arb_cellref(rng: &mut SmallRng) -> CellRef {
    let addr = CellAddr::new(rng.random_range(0..200), rng.random_range(0..26));
    CellRef { addr, abs_row: rng.random(), abs_col: rng.random() }
}

/// A range between two such references, corners in order so that the
/// printed form re-parses to the same range reference.
pub(crate) fn arb_rangeref(rng: &mut SmallRng) -> RangeRef {
    let (a, b) = (arb_cellref(rng), arb_cellref(rng));
    let (start, end) =
        if (a.addr.row, a.addr.col) <= (b.addr.row, b.addr.col) { (a, b) } else { (b, a) };
    RangeRef { start, end }
}

/// Any of the twelve binary operators.
pub(crate) fn arb_binop(rng: &mut SmallRng) -> BinOp {
    use BinOp::*;
    let ops = [Add, Sub, Mul, Div, Pow, Concat, Eq, Ne, Lt, Le, Gt, Ge];
    ops[rng.random_range(0..ops.len())]
}
