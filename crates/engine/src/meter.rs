//! The cost meter: counts engine *primitives* as they are executed.
//!
//! The paper measures three closed systems we cannot run; our substitute is
//! an engine that performs the same algorithmic work while a [`Meter`]
//! tallies every primitive operation (cell reads, formula evaluations,
//! dependency-chain builds, …). A system profile (in `ssbench-systems`)
//! converts primitive counts into simulated time by multiplying with its
//! calibrated per-primitive unit costs. Because the *counts* come from real
//! execution, every complexity shape in the reproduced figures is produced
//! mechanically, not assumed.
//!
//! The meter uses interior mutability (`Cell<u64>` counters) so that
//! read-only evaluation paths can record costs without threading `&mut`
//! everywhere. That makes `Meter`, and the `Sheet` that owns one, `!Sync`:
//! no two threads can ever tick the same meter.

use std::cell::Cell;
use std::fmt;

/// The primitive operations the engine can perform. Each corresponds to a
/// unit cost in a system profile's `CostTable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Reading one cell's value during evaluation or an operation scan.
    CellRead,
    /// Writing one cell's value.
    CellWrite,
    /// Parsing one cell from an input file during open/import.
    CellParse,
    /// Physically relocating one cell during sort.
    CellMove,
    /// A comparator invocation during sort.
    CmpRead,
    /// Full evaluation of one formula.
    FormulaEval,
    /// Cheap re-validation of an already-computed formula cell (the
    /// "recalculation trigger" the paper observes when an operation touches
    /// formula cells without their inputs changing).
    FormulaRecheck,
    /// Building one formula's dependency-chain entry during open
    /// ("Excel first determines a calculation sequence of the embedded
    /// formulae", §4.1).
    DepBuild,
    /// Changing one cell's fill (conditional formatting).
    StyleUpdate,
    /// Hiding or unhiding one row (filter).
    RowToggle,
    /// Inserting one group row into a pivot output sheet.
    GroupWrite,
    /// One client↔server round trip (web-based systems only).
    NetworkRtt,
    /// Rendering one cell into the visible window.
    RenderCell,
    /// One unit of the empirically superlinear recalculation Excel exhibits
    /// when filtering Formula-value sheets (§4.3.1; "why the trend is
    /// super-linear is a mystery to us").
    SuperlinearUnit,
    /// One probe of a maintained column index (a hash bucket or a posting
    /// list's partition point) on the optimized fourth system's lookup path. Scans
    /// charge `CellRead` per visited cell; indexed evaluation charges one
    /// `IndexProbe` per probe instead, so the cost model can price O(1)/
    /// O(log m) lookups honestly (§OOT).
    IndexProbe,
}

/// All primitives, for iteration in reports and cost tables.
pub const ALL_PRIMITIVES: [Primitive; 15] = [
    Primitive::CellRead,
    Primitive::CellWrite,
    Primitive::CellParse,
    Primitive::CellMove,
    Primitive::CmpRead,
    Primitive::FormulaEval,
    Primitive::FormulaRecheck,
    Primitive::DepBuild,
    Primitive::StyleUpdate,
    Primitive::RowToggle,
    Primitive::GroupWrite,
    Primitive::NetworkRtt,
    Primitive::RenderCell,
    Primitive::SuperlinearUnit,
    Primitive::IndexProbe,
];

impl Primitive {
    /// Stable index into count arrays.
    pub const fn index(self) -> usize {
        match self {
            Primitive::CellRead => 0,
            Primitive::CellWrite => 1,
            Primitive::CellParse => 2,
            Primitive::CellMove => 3,
            Primitive::CmpRead => 4,
            Primitive::FormulaEval => 5,
            Primitive::FormulaRecheck => 6,
            Primitive::DepBuild => 7,
            Primitive::StyleUpdate => 8,
            Primitive::RowToggle => 9,
            Primitive::GroupWrite => 10,
            Primitive::NetworkRtt => 11,
            Primitive::RenderCell => 12,
            Primitive::SuperlinearUnit => 13,
            Primitive::IndexProbe => 14,
        }
    }

    /// Short name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Primitive::CellRead => "cell_read",
            Primitive::CellWrite => "cell_write",
            Primitive::CellParse => "cell_parse",
            Primitive::CellMove => "cell_move",
            Primitive::CmpRead => "cmp_read",
            Primitive::FormulaEval => "formula_eval",
            Primitive::FormulaRecheck => "formula_recheck",
            Primitive::DepBuild => "dep_build",
            Primitive::StyleUpdate => "style_update",
            Primitive::RowToggle => "row_toggle",
            Primitive::GroupWrite => "group_write",
            Primitive::NetworkRtt => "network_rtt",
            Primitive::RenderCell => "render_cell",
            Primitive::SuperlinearUnit => "superlinear_unit",
            Primitive::IndexProbe => "index_probe",
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An immutable snapshot of primitive counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts(pub [u64; ALL_PRIMITIVES.len()]);

impl Counts {
    /// The count for one primitive.
    pub fn get(&self, p: Primitive) -> u64 {
        self.0[p.index()]
    }

    /// Count delta (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = [0u64; ALL_PRIMITIVES.len()];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].saturating_sub(earlier.0[i]);
        }
        Counts(out)
    }

    /// Sum of all primitive counts (a crude "work" scalar, used in tests).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// True when no primitive was recorded.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Iterates `(primitive, count)` over the primitives that were actually
    /// recorded, in canonical [`ALL_PRIMITIVES`] order. Used by the trace
    /// exporter to keep span `args` compact.
    pub fn nonzero(&self) -> impl Iterator<Item = (Primitive, u64)> + '_ {
        ALL_PRIMITIVES.into_iter().filter_map(|p| {
            let c = self.get(p);
            (c > 0).then_some((p, c))
        })
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in ALL_PRIMITIVES {
            let c = self.get(p);
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}={}", p.name(), c)?;
                first = false;
            }
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// A live counter of engine primitives. Cloning is not supported; share by
/// reference.
#[derive(Debug, Default)]
pub struct Meter {
    counts: [Cell<u64>; ALL_PRIMITIVES.len()],
}

impl Meter {
    /// A fresh meter with all counts at zero.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records `n` occurrences of primitive `p`.
    #[inline]
    pub fn bump(&self, p: Primitive, n: u64) {
        let c = &self.counts[p.index()];
        c.set(c.get().wrapping_add(n));
    }

    /// Records one occurrence of primitive `p`.
    #[inline]
    pub fn tick(&self, p: Primitive) {
        self.bump(p, 1);
    }

    /// Current counts snapshot.
    pub fn snapshot(&self) -> Counts {
        let mut out = [0u64; ALL_PRIMITIVES.len()];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.counts[i].get();
        }
        Counts(out)
    }

    /// Resets every count to zero.
    pub fn reset(&self) {
        for c in &self.counts {
            c.set(0);
        }
    }

    /// Adds a counts snapshot into this meter (a test that rebuilds a sheet
    /// carries the accumulated work across with it).
    #[cfg(test)]
    pub(crate) fn absorb(&self, counts: &Counts) {
        for p in ALL_PRIMITIVES {
            let n = counts.get(p);
            if n > 0 {
                self.bump(p, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_consistent() {
        for (i, p) in ALL_PRIMITIVES.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
    }

    #[test]
    fn bump_and_snapshot() {
        let m = Meter::new();
        m.tick(Primitive::CellRead);
        m.bump(Primitive::CellRead, 9);
        m.bump(Primitive::NetworkRtt, 2);
        let s = m.snapshot();
        assert_eq!(s.get(Primitive::CellRead), 10);
        assert_eq!(s.get(Primitive::NetworkRtt), 2);
        assert_eq!(s.get(Primitive::CellWrite), 0);
        assert_eq!(s.total(), 12);
    }

    #[test]
    fn since_computes_deltas() {
        let m = Meter::new();
        m.bump(Primitive::CellRead, 5);
        let before = m.snapshot();
        m.bump(Primitive::CellRead, 7);
        m.tick(Primitive::FormulaEval);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.get(Primitive::CellRead), 7);
        assert_eq!(delta.get(Primitive::FormulaEval), 1);
    }

    #[test]
    fn reset_zeroes() {
        let m = Meter::new();
        m.bump(Primitive::StyleUpdate, 3);
        m.reset();
        assert!(m.snapshot().is_zero());
    }

    #[test]
    fn absorb_adds_counts() {
        let a = Meter::new();
        a.bump(Primitive::CellRead, 5);
        let b = Meter::new();
        b.bump(Primitive::CellRead, 2);
        b.bump(Primitive::CellMove, 9);
        a.absorb(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.get(Primitive::CellRead), 7);
        assert_eq!(s.get(Primitive::CellMove), 9);
        // Absorbing zero counts is a no-op.
        a.absorb(&Counts::default());
        assert_eq!(a.snapshot(), s);
    }

    #[test]
    fn counts_display_lists_nonzero() {
        let m = Meter::new();
        m.bump(Primitive::CellRead, 2);
        m.bump(Primitive::DepBuild, 1);
        let s = m.snapshot().to_string();
        assert!(s.contains("cell_read=2"));
        assert!(s.contains("dep_build=1"));
        assert!(!s.contains("cell_write"));
        assert_eq!(Counts::default().to_string(), "(none)");
    }
}
