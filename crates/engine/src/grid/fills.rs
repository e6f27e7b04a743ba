//! A column's fills: the conditional-format colors of its cells, kept as
//! row runs beside the values (DESIGN.md §14). A fill never changes how a
//! value is stored, and a fill over a million rows is one run. The runs are
//! sorted, disjoint and merged (two runs that touch have different fills);
//! the grid moves them in the loops that move slots, and they are never
//! spilled and never saved.

use crate::style::Color;

/// Rows `start..=end` of one column, all filled `fill`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FormatRun {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) fill: Color,
}

/// One column's fills.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fills {
    runs: Vec<FormatRun>,
}

impl Fills {
    /// The fill of `row`.
    pub(crate) fn get(&self, row: u32) -> Option<Color> {
        let i = self.runs.partition_point(|run| run.end < row);
        self.runs.get(i).filter(|run| run.start <= row).map(|run| run.fill)
    }

    /// Asks `decide` the new fill of every row of `r0..=r1`, in order, given
    /// its old one; returns how many rows it changed. The runs outside the
    /// window stay as they are.
    pub(crate) fn restyle(
        &mut self,
        r0: u32,
        r1: u32,
        mut decide: impl FnMut(u32, Option<Color>) -> Option<Color>,
    ) -> u64 {
        let lo = self.runs.partition_point(|run| run.end < r0);
        let hi = self.runs.partition_point(|run| run.start <= r1);
        let mut out = Vec::with_capacity(self.runs.len() + 2);
        out.extend_from_slice(&self.runs[..lo]);
        let mut changed = 0;
        // Rows `a..=b`, each filled `was` before.
        let mut span = |out: &mut Vec<FormatRun>, a: u32, b: u32, was: Option<Color>| {
            for row in a..=b {
                let now = decide(row, was);
                changed += u64::from(now != was);
                put(out, row, row, now);
            }
        };
        let mut row = r0;
        for run in &self.runs[lo..hi] {
            if run.start < r0 {
                put(&mut out, run.start, r0 - 1, Some(run.fill));
            } else if run.start > row {
                span(&mut out, row, run.start - 1, None);
            }
            span(&mut out, run.start.max(r0), run.end.min(r1), Some(run.fill));
            if run.end > r1 {
                put(&mut out, r1 + 1, run.end, Some(run.fill));
            }
            row = run.end.saturating_add(1);
        }
        if row <= r1 {
            span(&mut out, row, r1, None);
        }
        self.runs[hi..].iter().for_each(|&run| put(&mut out, run.start, run.end, Some(run.fill)));
        self.runs = out;
        changed
    }

    /// Moves the runs with a row shift: `count` unfilled rows open before
    /// row `at` (`insert`), or rows `at..at + count` go and the rows below
    /// close up onto `at`.
    pub(crate) fn shift(&mut self, at: u32, count: u32, insert: bool) {
        if count == 0 || self.runs.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            let fill = Some(run.fill);
            if run.start < at {
                put(&mut out, run.start, run.end.min(at - 1), fill);
            }
            // The part at or past `at`: moved down past the new rows, or
            // what is left of it past the deleted ones, moved up.
            let from = if insert { at } else { at.saturating_add(count) };
            if run.end >= from {
                let start = run.start.max(from);
                let (start, end) = if insert {
                    (start + count, run.end + count)
                } else {
                    (start - count, run.end - count)
                };
                put(&mut out, start, end, fill);
            }
        }
        self.runs = out;
    }

    /// Moves the runs with a row permutation: row `i` takes the fill of old
    /// row `perm[i]`.
    pub(crate) fn permute(&mut self, perm: &[u32]) {
        let (Some(first), Some(last)) = (self.runs.first(), self.runs.last()) else { return };
        // The old fills, one slot per row of the span the runs cover.
        let base = first.start;
        let mut dense = vec![None; (last.end - base) as usize + 1];
        for run in &self.runs {
            dense[(run.start - base) as usize..=(run.end - base) as usize].fill(Some(run.fill));
        }
        let mut out = Vec::with_capacity(self.runs.len());
        for (row, &old) in (0u32..).zip(perm) {
            let fill = old.checked_sub(base).and_then(|i| dense.get(i as usize).copied().flatten());
            put(&mut out, row, row, fill);
        }
        self.runs = out;
    }

    /// Checks that the runs of column `col` are sorted, disjoint and merged,
    /// and end before `nrows`; panics otherwise.
    pub(crate) fn validate(&self, nrows: u32, col: usize) {
        let mut prev: Option<FormatRun> = None;
        for &run in &self.runs {
            let apart =
                |p: FormatRun| p.end + 1 < run.start || p.end < run.start && p.fill != run.fill;
            assert!(
                prev.is_none_or(apart) && run.start <= run.end && run.end < nrows,
                "col {col}: {run:?} after {prev:?} is out of order, unmerged or past the extent"
            );
            prev = Some(run);
        }
    }
}

/// Appends rows `start..=end` filled `fill` (`None`: unfilled) past the
/// last of `runs`, extending it when they continue it with its fill.
fn put(runs: &mut Vec<FormatRun>, start: u32, end: u32, fill: Option<Color>) {
    let Some(fill) = fill else { return };
    match runs.last_mut() {
        Some(last) if last.end + 1 == start && last.fill == fill => last.end = end,
        _ => runs.push(FormatRun { start, end, fill }),
    }
}
