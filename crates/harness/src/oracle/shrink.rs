//! Delta-debugging shrinker: reduces a failing [`Script`] to a locally
//! minimal one that still fails, so corpus reproducers stay readable
//! (the acceptance bar is ≤ 10 ops for the known bug classes).
//!
//! Classic ddmin over the op list — try removing chunks of decreasing
//! size until no single-op removal keeps the failure — followed by a
//! halving pass on the initial workbook height. Each candidate is judged
//! by re-running the full oracle, so a shrink can never "walk off" the
//! original failure onto a config-dependent fluke: whatever survives is a
//! genuine failure by the same definition the fuzzer used.

use super::runner;
use super::script::Script;

/// Shrinks `script` with the real oracle as the failure predicate.
/// `script` itself must fail; the result is guaranteed to fail too.
pub fn shrink(script: &Script) -> Script {
    shrink_with(script, |s| runner::check_script(s).is_err())
}

/// Shrinks against an arbitrary predicate (`true` = still failing).
/// Split out for testability: unit tests use synthetic predicates
/// instead of full-matrix replays.
pub fn shrink_with(script: &Script, mut fails: impl FnMut(&Script) -> bool) -> Script {
    assert!(fails(script), "shrink precondition: the input script must fail");
    let mut best = script.clone();

    // Pass 1: ddmin over the op list.
    let mut improved = true;
    while improved {
        improved = false;
        let mut chunk = (best.steps.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.steps.len() {
                let end = (start + chunk).min(best.steps.len());
                let mut candidate = best.clone();
                candidate.steps.drain(start..end);
                if fails(&candidate) {
                    best = candidate;
                    improved = true;
                    // Re-test from the same index: the next chunk slid in.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }

    // Pass 2: halve the initial workbook while the failure persists.
    while best.rows > 8 {
        let mut candidate = best.clone();
        candidate.rows = (best.rows / 2).max(8);
        if candidate.rows == best.rows || !fails(&candidate) {
            break;
        }
        best = candidate;
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::script::Step;

    fn script_of(n: usize) -> Script {
        Script {
            seed: 1,
            rows: 64,
            steps: (0..n)
                .map(|i| Step::Set { row: i as u32, col: 0, text: i.to_string() })
                .collect(),
        }
    }

    fn has_op(s: &Script, text: &str) -> bool {
        s.steps.iter().any(|step| matches!(step, Step::Set { text: t, .. } if t == text))
    }

    #[test]
    fn shrinks_to_the_single_culprit_op() {
        let script = script_of(40);
        // "Fails" iff op #23 survives, regardless of anything else.
        let min = shrink_with(&script, |s| has_op(s, "23"));
        assert_eq!(min.steps.len(), 1);
        assert!(has_op(&min, "23"));
        assert_eq!(min.rows, 8, "rows shrink too");
    }

    #[test]
    fn shrinks_an_op_pair_that_must_cooccur() {
        let script = script_of(40);
        let min = shrink_with(&script, |s| has_op(s, "5") && has_op(s, "31"));
        assert_eq!(min.steps.len(), 2);
        assert!(has_op(&min, "5") && has_op(&min, "31"));
    }

    #[test]
    fn already_minimal_scripts_come_back_unchanged() {
        let script = script_of(1);
        let min = shrink_with(&script, |s| !s.steps.is_empty());
        assert_eq!(min.steps.len(), 1);
    }

    #[test]
    #[should_panic(expected = "precondition")]
    fn passing_scripts_are_rejected() {
        let _ = shrink_with(&script_of(3), |_| false);
    }
}
