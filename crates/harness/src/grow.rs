//! Incrementally-growing datasets. The 52 size versions are prefixes of
//! one master dataset (§3.2), so a sweep can *grow* a single sheet or
//! document instead of regenerating from scratch at every size — dataset
//! construction is excluded from every measurement either way.

use ssbench_engine::io::SheetData;
use ssbench_engine::prelude::*;
use ssbench_workload::schema::{FORMULA_COL_START, NUM_COLS, NUM_FORMULA_COLS};
use ssbench_workload::{cell_text, write_row, Variant};

/// A weather sheet that grows by appending rows.
pub struct GrowingSheet {
    sheet: Sheet,
    rows: u32,
    variant: Variant,
    seed: u64,
}

impl GrowingSheet {
    /// An empty growing sheet.
    pub fn new(variant: Variant, seed: u64) -> Self {
        GrowingSheet { sheet: Sheet::new(), rows: 0, variant, seed }
    }

    /// The dataset variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Current row count.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Grows to at least `rows`, computing the new rows' formulae, and
    /// returns the sheet with a reset meter (growth is never measured).
    pub fn ensure(&mut self, rows: u32) -> &mut Sheet {
        if rows > self.rows {
            self.sheet.ensure_size(rows, NUM_COLS).expect("a grown sheet is within the engine limits");
            for r in self.rows..rows {
                write_row(&mut self.sheet, self.seed, r, self.variant);
            }
            if self.variant == Variant::FormulaValue {
                for r in self.rows..rows {
                    for j in 0..NUM_FORMULA_COLS {
                        let addr = CellAddr::new(r, FORMULA_COL_START + j);
                        if let Some(v) = recalc::eval_formula_at(&self.sheet, addr) {
                            self.sheet.store_formula_result(addr, v);
                        }
                    }
                }
            }
            self.rows = rows;
        }
        self.sheet.meter().reset();
        &mut self.sheet
    }

    /// Mutable access without growth (meter untouched).
    pub fn sheet_mut(&mut self) -> &mut Sheet {
        &mut self.sheet
    }
}

/// A saved weather document that grows by appending rows.
pub struct GrowingDoc {
    doc: SheetData,
    variant: Variant,
    seed: u64,
}

impl GrowingDoc {
    /// An empty growing document.
    pub fn new(variant: Variant, seed: u64) -> Self {
        GrowingDoc { doc: SheetData::default(), variant, seed }
    }

    /// Grows to at least `rows` and returns the document.
    pub fn ensure(&mut self, rows: u32) -> &SheetData {
        let have = self.doc.nrows() as u32;
        for r in have..rows {
            let row: Vec<String> =
                (0..NUM_COLS).map(|c| cell_text(self.seed, r, c, self.variant)).collect();
            self.doc.rows.push(row);
        }
        &self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_workload::{build_sheet_seeded, DEFAULT_SEED};

    #[test]
    fn grown_sheet_matches_direct_build() {
        let mut g = GrowingSheet::new(Variant::FormulaValue, DEFAULT_SEED);
        g.ensure(30);
        g.ensure(80);
        let direct = build_sheet_seeded(80, Variant::FormulaValue, DEFAULT_SEED);
        for r in 0..80u32 {
            for c in 0..NUM_COLS {
                let addr = CellAddr::new(r, c);
                assert_eq!(g.sheet_mut().value(addr), direct.value(addr), "cell {addr}");
            }
        }
        assert_eq!(g.rows(), 80);
    }

    #[test]
    fn ensure_is_monotone_and_resets_meter() {
        let mut g = GrowingSheet::new(Variant::ValueOnly, DEFAULT_SEED);
        let s = g.ensure(50);
        s.meter().tick(Primitive::CellRead);
        let s = g.ensure(40); // no shrink
        assert_eq!(s.nrows(), 50);
        assert!(s.meter().snapshot().is_zero(), "meter reset on ensure");
    }

    #[test]
    fn grown_doc_matches_direct_build() {
        use ssbench_workload::build_doc_seeded;
        let mut g = GrowingDoc::new(Variant::ValueOnly, DEFAULT_SEED);
        g.ensure(20);
        let doc = g.ensure(60);
        assert_eq!(*doc, build_doc_seeded(60, Variant::ValueOnly, DEFAULT_SEED));
    }
}
