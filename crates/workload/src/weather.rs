//! Row-level generation of the synthetic weather dataset.
//!
//! Every row is generated from a per-row RNG seeded by `(seed, row)`, so
//! the dataset for `n` rows is exactly the first `n` rows of the dataset
//! for any larger size. That mirrors the paper's sampled dataset versions
//! (§3.2): size variants differ only in row count, never in content.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssbench_engine::prelude::*;

use crate::schema::*;

/// The two dataset variants of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Columns K–Q hold live `COUNTIF` formulae ("Formula-value", F).
    FormulaValue,
    /// Columns K–Q hold the frozen 0/1 results ("Value-only", V).
    ValueOnly,
}

impl Variant {
    /// Short label used in reports ("F" / "V"), matching the paper.
    pub const fn label(self) -> &'static str {
        match self {
            Variant::FormulaValue => "F",
            Variant::ValueOnly => "V",
        }
    }
}

/// The default deterministic seed for all benchmark datasets.
pub const DEFAULT_SEED: u64 = 0x5EED_5EED;

/// One generated row, before being written into a sheet or document.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherRow {
    /// Column A: 1-based unique integer key.
    pub key: u32,
    /// Column B: state code.
    pub state: &'static str,
    /// Columns C–I: event keywords.
    pub events: [&'static str; NUM_EVENT_COLS as usize],
    /// Column J: numeric storm count.
    pub storms: u8,
}

impl WeatherRow {
    /// Whether formula column `j` (0-based within K–Q) evaluates to 1.
    pub fn formula_result(&self, j: usize) -> u8 {
        u8::from(self.events[j] == EVENT_KEYWORDS[j])
    }
}

/// Generates row `row` (0-based) deterministically.
pub fn generate_row(seed: u64, row: u32) -> WeatherRow {
    // SplitMix-style per-row stream: decorrelates rows under one seed.
    let mixed = seed
        .wrapping_add(u64::from(row).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let mut rng = SmallRng::seed_from_u64(mixed);
    let state = STATES[rng.random_range(0..STATES.len())];
    let mut events = [NO_EVENT; NUM_EVENT_COLS as usize];
    for (j, slot) in events.iter_mut().enumerate() {
        // ~30% chance the column's own keyword occurs (so formula columns
        // are a healthy 0/1 mix), ~20% some other keyword, 50% NONE.
        let roll: f64 = rng.random();
        if roll < 0.30 {
            *slot = EVENT_KEYWORDS[j];
        } else if roll < 0.50 {
            let other = rng.random_range(0..EVENT_KEYWORDS.len());
            *slot = EVENT_KEYWORDS[other];
        }
    }
    let storms = rng.random_range(0..=3u8);
    WeatherRow { key: row + 1, state, events, storms }
}

/// Writes row `row` into `sheet`, with formula columns as live formulae or
/// frozen values per `variant`. Formula caches are pre-filled with the
/// correct result so a freshly generated sheet is already consistent (an
/// explicit recalculation will recompute the same values).
pub fn write_row(sheet: &mut Sheet, seed: u64, row: u32, variant: Variant) {
    let data = generate_row(seed, row);
    sheet.set_value(CellAddr::new(row, KEY_COL), data.key);
    sheet.set_value(CellAddr::new(row, STATE_COL), data.state);
    for (j, ev) in data.events.iter().enumerate() {
        sheet.set_value(CellAddr::new(row, EVENT_COL_START + j as u32), *ev);
    }
    sheet.set_value(CellAddr::new(row, MEASURE_COL), i64::from(data.storms));
    for j in 0..NUM_FORMULA_COLS as usize {
        let addr = CellAddr::new(row, FORMULA_COL_START + j as u32);
        match variant {
            Variant::ValueOnly => {
                sheet.set_value(addr, i64::from(data.formula_result(j)));
            }
            Variant::FormulaValue => {
                sheet.set_formula(addr, countif_expr(row, j));
            }
        }
    }
}

/// The formula for row `row`, formula column `j`:
/// `COUNTIF(<event cell>,"<keyword>")` — the paper's per-row form
/// (`=COUNTIF(C2,"STORM")`).
pub fn countif_expr(row: u32, j: usize) -> Expr {
    let event_addr = CellAddr::new(row, EVENT_COL_START + j as u32);
    Expr::Call(
        "COUNTIF".to_owned(),
        vec![
            Expr::Ref(CellRef::relative(event_addr)),
            Expr::Text(EVENT_KEYWORDS[j].into()),
        ],
    )
}

/// The input text for cell `(row, col)` as it would appear in a saved
/// document (used to build [`SheetData`] without a full sheet).
pub fn cell_text(seed: u64, row: u32, col: u32, variant: Variant) -> String {
    let data = generate_row(seed, row);
    match col {
        KEY_COL => data.key.to_string(),
        STATE_COL => data.state.to_owned(),
        c if (EVENT_COL_START..EVENT_COL_START + NUM_EVENT_COLS).contains(&c) => {
            data.events[(c - EVENT_COL_START) as usize].to_owned()
        }
        MEASURE_COL => data.storms.to_string(),
        c if (FORMULA_COL_START..FORMULA_COL_START + NUM_FORMULA_COLS).contains(&c) => {
            let j = (c - FORMULA_COL_START) as usize;
            match variant {
                Variant::ValueOnly => data.formula_result(j).to_string(),
                Variant::FormulaValue => format!("={}", print(&countif_expr(row, j))),
            }
        }
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_row(7, 42), generate_row(7, 42));
        assert_ne!(generate_row(7, 42), generate_row(7, 43));
        assert_ne!(generate_row(7, 42), generate_row(8, 42));
    }

    #[test]
    fn keys_are_one_based_row_numbers() {
        assert_eq!(generate_row(DEFAULT_SEED, 0).key, 1);
        assert_eq!(generate_row(DEFAULT_SEED, 199_999).key, 200_000);
    }

    #[test]
    fn keyword_frequency_is_reasonable() {
        let hits = (0..2000u32)
            .filter(|&r| generate_row(DEFAULT_SEED, r).events[0] == EVENT_KEYWORDS[0])
            .count();
        // ~30% + a share of the "other keyword" draws.
        assert!((400..900).contains(&hits), "got {hits}");
    }

    #[test]
    fn formula_result_matches_keyword_presence() {
        for r in 0..200 {
            let row = generate_row(DEFAULT_SEED, r);
            for (j, keyword) in EVENT_KEYWORDS.iter().enumerate() {
                let expect = u8::from(row.events[j] == *keyword);
                assert_eq!(row.formula_result(j), expect);
            }
        }
    }

    #[test]
    fn write_row_variants_agree_after_recalc() {
        let mut f = Sheet::new();
        let mut v = Sheet::new();
        for r in 0..50 {
            write_row(&mut f, DEFAULT_SEED, r, Variant::FormulaValue);
            write_row(&mut v, DEFAULT_SEED, r, Variant::ValueOnly);
        }
        recalc::recalc_all(&mut f);
        for r in 0..50 {
            for c in 0..NUM_COLS {
                let addr = CellAddr::new(r, c);
                assert_eq!(f.value(addr), v.value(addr), "cell {addr}");
            }
        }
        assert_eq!(f.formula_count(), 50 * NUM_FORMULA_COLS as usize);
        assert_eq!(v.formula_count(), 0);
    }

    #[test]
    fn cell_text_round_trips_through_open() {
        use ssbench_engine::io;
        let rows: Vec<Vec<String>> = (0..20u32)
            .map(|r| (0..NUM_COLS).map(|c| cell_text(DEFAULT_SEED, r, c, Variant::FormulaValue)).collect())
            .collect();
        let doc = SheetData { rows };
        let mut sheet = io::open(&doc, Layout::RowMajor).unwrap();
        recalc::open_recalc(&mut sheet);
        let mut direct = Sheet::new();
        for r in 0..20 {
            write_row(&mut direct, DEFAULT_SEED, r, Variant::FormulaValue);
        }
        recalc::recalc_all(&mut direct);
        for r in 0..20 {
            for c in 0..NUM_COLS {
                let addr = CellAddr::new(r, c);
                assert_eq!(sheet.value(addr), direct.value(addr), "cell {addr}");
            }
        }
    }

    /// The Formula-value document is seven fill-down templates: opening
    /// it parses and compiles each once, every formula leaves `io::open`
    /// bound, and the recalculation that follows resolves nothing — not one
    /// template-map probe, where a formula-at-a-time open had `open_recalc`
    /// make 6 993 hits.
    #[test]
    fn open_compiles_each_template_once_and_binds_every_formula() {
        use ssbench_engine::cell::CellContent;
        use ssbench_engine::io;
        let doc = crate::build_doc_seeded(1000, Variant::FormulaValue, DEFAULT_SEED);
        let mut sheet = io::open(&doc, Layout::RowMajor).unwrap();
        let tally = |s: &Sheet| (s.program_cache().misses(), s.program_cache().hits());
        assert_eq!(tally(&sheet), (u64::from(NUM_FORMULA_COLS), 0));
        let mut bound = 0;
        for addr in sheet.used_range().unwrap().iter() {
            if let CellContent::Formula(f) = &sheet.cell(addr).unwrap().content {
                assert!(f.program().is_some(), "{addr} left the open unbound");
                bound += 1;
            }
        }
        assert_eq!(bound, 1000 * NUM_FORMULA_COLS as usize);
        recalc::open_recalc(&mut sheet);
        assert_eq!(tally(&sheet), (7, 0));
        assert_eq!(sheet.program_cache().len(), 7);
    }

    #[test]
    fn formula_text_is_papers_shape() {
        // Row 2 of the sheet (index 1), column K.
        let text = cell_text(DEFAULT_SEED, 1, FORMULA_COL_START, Variant::FormulaValue);
        assert_eq!(text, "=COUNTIF(C2,\"STORM\")");
    }
}
