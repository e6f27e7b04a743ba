//! Differential test of the row permutation against the rebuild it
//! replaced: every column rebuilt one cell at a time through the write
//! path, then every row of every column probed for a formula to re-point.
//! The rebuild survives only here (`Sheet::permute_rows_reference`), as
//! the reference. The sheet is the structural-edit differential's: every
//! segment kind over three chunks, styled cells, an active filter, named
//! ranges and a live auto-index.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::addr::CellAddr;
use crate::error::EngineError;
use crate::ops::structure::differential::{build, compare, BUDGET};
use crate::recalc;
use crate::sheet::Sheet;
use crate::testing::cases;

/// The shared sheet plus a lone cell in the far corner of the extent, two
/// vacant columns away: a sparse column, and columns with nothing to move.
fn sheet(capped: bool) -> Sheet {
    let mut s = build(capped.then_some(BUDGET));
    s.set_value(CellAddr::new(s.nrows() - 1, s.ncols() + 2), "corner");
    recalc::recalc_all(&mut s);
    assert!(!capped || s.grid_spill_stats().spills > 0, "the capped sheet must spill");
    s
}

fn rotation(n: u32, by: u32) -> Vec<u32> {
    (0..n).map(|i| (i + by) % n).collect()
}

/// Fisher–Yates over `perm[lo..hi]`.
fn shuffle(perm: &mut [u32], lo: usize, hi: usize, rng: &mut SmallRng) {
    for i in (lo + 1..hi).rev() {
        perm.swap(i, rng.random_range(lo..=i));
    }
}

/// Permutes two copies of the sheet, one each way, and compares all that
/// is observable — cells, styles, filter flags, names, meter, invariants,
/// budget — before and after the next recalculation.
fn check(capped: bool, perm: &[u32], what: &str) {
    let what = format!("capped={capped} {what}");
    let (mut got, mut want) = (sheet(capped), sheet(capped));
    want.permute_rows_reference(perm).unwrap();
    got.permute_rows(perm).unwrap();
    compare(&got, &want, &what);
    recalc::recalc_all(&mut got);
    recalc::recalc_all(&mut want);
    compare(&got, &want, &format!("{what}, recalculated"));
}

/// The permutations with structure: nothing moves, every chunk meets its
/// mirror image, and every slot shifts by one slot, just under, exactly and
/// just over one chunk.
#[test]
fn structured_permutations_match_the_rebuild() {
    for capped in [false, true] {
        let n = sheet(capped).nrows();
        let mut perms = vec![
            ("identity".to_owned(), (0..n).collect::<Vec<u32>>()),
            ("reversal".to_owned(), (0..n).rev().collect()),
        ];
        perms.extend([1, 1023, 1024, 1025].map(|by| (format!("rotation by {by}"), rotation(n, by))));
        for (what, perm) in perms {
            check(capped, &perm, &what);
        }
    }
}

/// Random permutations of the whole sheet, and of the rows of its middle
/// chunk alone (every other chunk must come through as it is).
#[test]
fn random_permutations_match_the_rebuild() {
    let n = sheet(false).nrows() as usize;
    cases(|rng| {
        let (capped, one_chunk): (bool, bool) = (rng.random(), rng.random());
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let (lo, hi) = if one_chunk { (1024, 2048) } else { (0, n) };
        shuffle(&mut perm, lo, hi, rng);
        check(capped, &perm, &format!("shuffle of {lo}..{hi}"));
    });
}

/// A rejected permutation leaves the sheet as it was.
#[test]
fn malformed_permutations_leave_the_sheet_untouched() {
    for capped in [false, true] {
        let (mut got, want) = (sheet(capped), sheet(capped));
        let n = got.nrows();
        let short: Vec<u32> = (0..n - 1).collect();
        let mut out_of_range: Vec<u32> = (0..n).collect();
        out_of_range[1500] = n;
        let mut duplicate: Vec<u32> = (0..n).rev().collect();
        duplicate[n as usize - 1] = 1;
        for bad in [short, out_of_range, duplicate] {
            let err = got.permute_rows(&bad).unwrap_err();
            assert!(matches!(err, EngineError::BadPermutation(_)), "{err:?}");
            compare(&got, &want, &format!("capped={capped}"));
        }
    }
}
