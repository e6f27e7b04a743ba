//! Dataset builders: materialized sheets and saved documents at any of the
//! 51 sampled sizes (§3.2).

use ssbench_engine::io::SheetData;
use ssbench_engine::prelude::*;

use crate::schema::{MASTER_ROWS, NUM_COLS};
use crate::weather::{cell_text, write_row, Variant, DEFAULT_SEED};

/// The 51 dataset row counts of §3.2: 150, 6000, then
/// `Ni = 10000 + (i − 3) × 10000` for `i = 3..=51` (10k … 490k), plus the
/// 500k master.
pub fn sample_sizes() -> Vec<u32> {
    let mut sizes = vec![150, 6_000];
    for i in 3..=51u32 {
        sizes.push(10_000 + (i - 3) * 10_000);
    }
    sizes.push(MASTER_ROWS);
    sizes
}

/// Builds a materialized, recalculated sheet of `rows` weather rows.
pub fn build_sheet(rows: u32, variant: Variant) -> Sheet {
    build_sheet_seeded(rows, variant, DEFAULT_SEED)
}

/// [`build_sheet`] with an explicit seed.
pub fn build_sheet_seeded(rows: u32, variant: Variant, seed: u64) -> Sheet {
    let mut sheet = Sheet::with_size(rows, NUM_COLS);
    for r in 0..rows {
        write_row(&mut sheet, seed, r, variant);
    }
    if variant == Variant::FormulaValue {
        recalc::recalc_all(&mut sheet);
    }
    // Dataset construction is not part of any measured operation.
    sheet.meter().reset();
    sheet
}

/// Builds the saved-document form (what `open` parses) of `rows` weather
/// rows.
pub fn build_doc(rows: u32, variant: Variant) -> SheetData {
    build_doc_seeded(rows, variant, DEFAULT_SEED)
}

/// [`build_doc`] with an explicit seed.
pub fn build_doc_seeded(rows: u32, variant: Variant, seed: u64) -> SheetData {
    let rows_vec: Vec<Vec<String>> = (0..rows)
        .map(|r| (0..NUM_COLS).map(|c| cell_text(seed, r, c, variant)).collect())
        .collect();
    SheetData { rows: rows_vec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::*;

    #[test]
    fn sample_sizes_match_paper() {
        // §3.2 describes 51 versions with Ni = 10000 + (i−3)·10000 for
        // i = 3..51, which tops out at 490k — yet every figure's x-axis and
        // the text ("10k, 20k, …, 500k") run to the 500k master. We include
        // the master, giving 52 sizes, and note the paper's off-by-one in
        // EXPERIMENTS.md.
        let sizes = sample_sizes();
        assert_eq!(sizes.len(), 52);
        assert_eq!(sizes[0], 150);
        assert_eq!(sizes[1], 6_000);
        assert_eq!(sizes[2], 10_000);
        assert_eq!(sizes[3], 20_000);
        assert_eq!(sizes[50], 490_000);
        assert_eq!(sizes[51], 500_000);
    }

    #[test]
    fn built_sheet_has_schema_shape() {
        let s = build_sheet(200, Variant::FormulaValue);
        assert_eq!(s.nrows(), 200);
        assert_eq!(s.ncols(), NUM_COLS);
        assert_eq!(s.formula_count(), 200 * NUM_FORMULA_COLS as usize);
        // Column A is 1..=200 ascending (the VLOOKUP experiment relies on
        // this).
        for r in 0..200u32 {
            assert_eq!(s.value(CellAddr::new(r, KEY_COL)), Value::Number(f64::from(r + 1)));
        }
    }

    #[test]
    fn value_only_sheet_has_no_formulas_but_same_values() {
        let f = build_sheet(100, Variant::FormulaValue);
        let v = build_sheet(100, Variant::ValueOnly);
        assert_eq!(v.formula_count(), 0);
        for r in 0..100u32 {
            for c in FORMULA_COL_START..NUM_COLS {
                assert_eq!(f.value(CellAddr::new(r, c)), v.value(CellAddr::new(r, c)));
            }
        }
    }

    #[test]
    fn smaller_dataset_is_prefix_of_larger() {
        let small = build_sheet(50, Variant::ValueOnly);
        let large = build_sheet(120, Variant::ValueOnly);
        for r in 0..50u32 {
            for c in 0..NUM_COLS {
                let addr = CellAddr::new(r, c);
                assert_eq!(small.value(addr), large.value(addr), "cell {addr}");
            }
        }
    }

    #[test]
    fn doc_matches_sheet() {
        use ssbench_engine::io;
        let doc = build_doc(30, Variant::ValueOnly);
        assert_eq!(doc.nrows(), 30);
        assert_eq!(doc.cell_count(), 30 * NUM_COLS as usize);
        let opened = io::open(&doc, Layout::RowMajor).unwrap();
        let direct = build_sheet(30, Variant::ValueOnly);
        for r in 0..30u32 {
            for c in 0..NUM_COLS {
                let addr = CellAddr::new(r, c);
                assert_eq!(opened.value(addr), direct.value(addr));
            }
        }
    }

    #[test]
    fn meter_is_reset_after_build() {
        let s = build_sheet(100, Variant::FormulaValue);
        assert!(s.meter().snapshot().is_zero());
    }
}
