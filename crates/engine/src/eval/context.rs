//! Evaluation context: how formula evaluation reads the sheet, which
//! lookup strategies are enabled, and where costs are recorded.

use crate::addr::{CellAddr, Range};
use crate::index::IndexStore;
use crate::meter::{Meter, Primitive};
use crate::value::Value;

/// Read access to cell values during evaluation. Implemented by `Sheet`;
/// kept as a trait so the evaluator and function library can be tested with
/// in-memory fixtures, and so the analyzer can record the reads of an
/// evaluation (`analyze::RecordingSource`).
pub trait CellSource {
    /// The resolved (displayed) value at `addr`; `Empty` outside bounds.
    fn value_at(&self, addr: CellAddr) -> Value;

    /// Whether the cell at `addr` holds a formula.
    fn is_formula_at(&self, addr: CellAddr) -> bool;

    /// Materialized extent as `(rows, cols)`.
    fn bounds(&self) -> (u32, u32);

    /// Visits every cell of `range` clipped to the materialized extent
    /// (mirrors the "used range" clipping every real system performs), in
    /// row-major order: `(addr, value, is_formula)`. The order is part of
    /// the contract — it is the order float sums accumulate in.
    fn visit_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value, bool));

    /// Exact match down one column: the first row of `window` (only its
    /// first column is read) whose value `sheet_eq`s `needle`, read top to
    /// bottom — under `stop_early` no further than that row — returned as
    /// `(hit, visited, formulas)`, the rows read and the formula cells
    /// among them: the `CellRead`/`FormulaRecheck` charge of exact
    /// `VLOOKUP` and `MATCH`. A row past the extent reads as empty.
    ///
    /// This body reads a row at a time through `value_at` and
    /// `is_formula_at`; it is the reference `Sheet`'s scan of its typed
    /// slices is tested against.
    fn find_exact(&self, window: Range, needle: &Value, stop_early: bool) -> (Option<u32>, u64, u64) {
        let (mut hit, mut visited, mut formulas) = (None, 0u64, 0u64);
        for row in window.start.row..=window.end.row {
            let addr = CellAddr::new(row, window.start.col);
            visited += 1;
            formulas += u64::from(self.is_formula_at(addr));
            if hit.is_none() && self.value_at(addr).sheet_eq(needle) {
                hit = Some(row);
                if stop_early {
                    break;
                }
            }
        }
        (hit, visited, formulas)
    }
}

/// How a lookup searches its data: the behavioural split §4.3.4 infers
/// between Excel and the other two systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupStrategy {
    /// Calc and Google Sheets "continue to scan the entire data": an
    /// exact match reads every row after its hit, an approximate match
    /// scans linearly.
    #[default]
    FullScan,
    /// Excel "terminates execution after finding the value": an exact
    /// match stops at its first hit, an approximate match binary-searches
    /// the sorted data.
    StopEarly,
}

/// Everything evaluation needs: the cell source, the cost meter, the
/// address of the formula being evaluated (for relative semantics and
/// `ROW()`/`COLUMN()`), the lookup strategy, and a deterministic `NOW()`
/// serial.
pub struct EvalCtx<'a> {
    pub cells: &'a dyn CellSource,
    pub meter: &'a Meter,
    /// The address of the cell whose formula is being evaluated.
    pub current: CellAddr,
    pub lookup: LookupStrategy,
    /// Spreadsheet serial date returned by `NOW()`/`TODAY()`. Fixed and
    /// injectable so runs are reproducible.
    pub now_serial: f64,
    /// Maintained column indexes (the optimized fourth system). `None` —
    /// the common case for the three paper systems — keeps every
    /// aggregate and lookup on the scan path.
    pub indexes: Option<&'a IndexStore>,
}

impl<'a> EvalCtx<'a> {
    /// A context with default strategy and a fixed epoch serial.
    pub fn new(cells: &'a dyn CellSource, meter: &'a Meter, current: CellAddr) -> Self {
        EvalCtx {
            cells,
            meter,
            current,
            lookup: LookupStrategy::default(),
            now_serial: DEFAULT_NOW_SERIAL,
            indexes: None,
        }
    }

    /// Reads one cell, recording the read (and a formula recheck when the
    /// cell holds a formula — the per-cell recalculation trigger the paper
    /// observes when operations touch formula cells, §4.3.3).
    pub fn read(&self, addr: CellAddr) -> Value {
        self.meter.tick(Primitive::CellRead);
        if self.cells.is_formula_at(addr) {
            self.meter.tick(Primitive::FormulaRecheck);
        }
        self.cells.value_at(addr)
    }

    /// Visits a range, recording one read per visited cell (plus rechecks
    /// for formula cells).
    pub fn read_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value)) {
        let meter = self.meter;
        self.cells.visit_range(range, &mut |addr, value, is_formula| {
            meter.tick(Primitive::CellRead);
            if is_formula {
                meter.tick(Primitive::FormulaRecheck);
            }
            f(addr, value);
        });
    }

    /// [`CellSource::find_exact`] under this context's lookup strategy,
    /// charged in bulk: the same counts its row loop ticks a read at a
    /// time.
    pub fn find_exact(&self, window: Range, needle: &Value) -> Option<u32> {
        let stop_early = self.lookup == LookupStrategy::StopEarly;
        let (hit, visited, formulas) = self.cells.find_exact(window, needle, stop_early);
        self.meter.bump(Primitive::CellRead, visited);
        self.meter.bump(Primitive::FormulaRecheck, formulas);
        hit
    }
}

/// 2020-01-01 00:00 as an Excel serial date (days since 1899-12-30).
pub const DEFAULT_NOW_SERIAL: f64 = 43831.0;

/// A simple in-memory `CellSource` for tests and fixtures: a dense
/// row-major matrix of values.
#[derive(Debug, Clone, Default)]
pub struct ValueMatrix {
    rows: Vec<Vec<Value>>,
}

impl ValueMatrix {
    /// Builds from rows of values.
    pub fn new(rows: Vec<Vec<Value>>) -> Self {
        ValueMatrix { rows }
    }

    /// Sets one cell, growing as needed.
    pub fn set(&mut self, addr: CellAddr, v: Value) {
        let r = addr.row as usize;
        let c = addr.col as usize;
        if self.rows.len() <= r {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        if row.len() <= c {
            row.resize(c + 1, Value::Empty);
        }
        row[c] = v;
    }
}

impl CellSource for ValueMatrix {
    fn value_at(&self, addr: CellAddr) -> Value {
        self.rows
            .get(addr.row as usize)
            .and_then(|r| r.get(addr.col as usize))
            .cloned()
            .unwrap_or(Value::Empty)
    }

    fn is_formula_at(&self, _addr: CellAddr) -> bool {
        false
    }

    fn bounds(&self) -> (u32, u32) {
        let rows = self.rows.len() as u32;
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0) as u32;
        (rows, cols)
    }

    fn visit_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value, bool)) {
        let (nrows, ncols) = self.bounds();
        let Some(window) = range.clip_to(nrows, ncols) else { return };
        for addr in window.iter() {
            f(addr, &self.value_at(addr), false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_set_get() {
        let mut m = ValueMatrix::default();
        m.set(CellAddr::new(2, 1), Value::Number(5.0));
        assert_eq!(m.value_at(CellAddr::new(2, 1)), Value::Number(5.0));
        assert_eq!(m.value_at(CellAddr::new(0, 0)), Value::Empty);
        assert_eq!(m.bounds(), (3, 2));
    }

    #[test]
    fn ctx_read_charges_meter() {
        let mut m = ValueMatrix::default();
        m.set(CellAddr::new(0, 0), Value::Number(1.0));
        let meter = Meter::new();
        let ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 0));
        let _ = ctx.read(CellAddr::new(0, 0));
        assert_eq!(meter.snapshot().get(Primitive::CellRead), 1);
    }

    #[test]
    fn ctx_range_read_charges_per_cell() {
        let mut m = ValueMatrix::default();
        for r in 0..4 {
            m.set(CellAddr::new(r, 0), Value::Number(f64::from(r)));
        }
        let meter = Meter::new();
        let ctx = EvalCtx::new(&m, &meter, CellAddr::new(0, 1));
        let mut sum = 0.0;
        ctx.read_range(Range::parse("A1:A4").unwrap(), &mut |_, v| {
            sum += v.as_number().unwrap_or(0.0);
        });
        assert_eq!(sum, 6.0);
        assert_eq!(meter.snapshot().get(Primitive::CellRead), 4);
    }
}
