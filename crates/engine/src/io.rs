//! Import/export: a cell-text document model (`SheetData`),
//! CSV encode/decode, and the metered `open` that materializes a document
//! into a [`Sheet`] — the data-load operation of §4.1.
//!
//! `open` is a bulk load (DESIGN.md §17): one row-major pass classifies
//! every text without allocating, writes numbers and interned text straight
//! into the typed chunk each column is assembling, and parses and compiles
//! a fill-down column's formula once, handing every other cell of the
//! column a re-pointed copy with the program already bound. The sheet and
//! its meter are exactly what a `Sheet::set_input` per cell would have
//! produced; that loop survives under `#[cfg(test)]` as the reference of
//! `io/differential.rs`.
//!
//! A document carries types by spelling alone, so [`save`] and [`open`]
//! share one reading of a cell text (`value::classify`): `save` puts a
//! leading `'` on any text the reading would take for something else.

use crate::addr::CellAddr;
use crate::cell::Cell;
use crate::error::EngineError;
#[cfg(test)]
use crate::meter::Primitive;
use crate::sheet::{Layout, Sheet};
use crate::value::{classify, Input, Value};

/// A saved spreadsheet document: the formula-bar text of every cell
/// (formulae keep their leading `=`). This plays the role of the xlsx/ods
/// files of §3.3 — a layout-independent serialization that `open` must
/// parse cell-by-cell.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SheetData {
    /// Row-major cell texts. Rows may be ragged.
    pub rows: Vec<Vec<String>>,
}

impl SheetData {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Serializes a sheet to its document form. A text cell that [`open`]
/// would read back as anything but that same text — `007`, `=A1`, `TRUE`,
/// `#N/A`, the empty string, a text that itself starts with `'` — is
/// written with a leading `'`, the formula-bar convention `value::classify`
/// reads, so values keep their types across a save and an open. A
/// negative zero, which displays as `0`, is written `-0`.
pub fn save(sheet: &Sheet) -> SheetData {
    let mut rows = Vec::with_capacity(sheet.nrows() as usize);
    for r in 0..sheet.nrows() {
        let mut row = Vec::with_capacity(sheet.ncols() as usize);
        for c in 0..sheet.ncols() {
            let cell = sheet.cell(CellAddr::new(r, c)).expect("inside the extent");
            row.push(match &*cell {
                Cell::Value(Value::Text(s)) if !reads_back_as_itself(s) => format!("'{s}"),
                Cell::Value(Value::Number(n)) if n.to_bits() == (-0.0f64).to_bits() => {
                    "-0".to_owned()
                }
                _ => cell.input_text(),
            });
        }
        rows.push(row);
    }
    SheetData { rows }
}

/// Whether [`open`] reads the cell text `s` as the text `s`.
fn reads_back_as_itself(s: &str) -> bool {
    // A blank is no cell at all; a quoted text comes back shorter.
    !s.is_empty() && matches!(classify(s), Input::Text(t) if t.len() == s.len())
}

/// Materializes a document into a sheet, parsing every cell (one
/// `CellParse` each) — the O(m·n) data-load cost of Table 1. Formula
/// *recalculation* is a separate step (`recalc::open_recalc`), because the
/// systems sequence it differently (§4.1).
///
/// The load is one pass over the document (`Sheet::load_rows`, DESIGN.md
/// §17), not a `set_input` per cell: same sheet, same meter.
///
/// The [`Layout`] argument selects nothing — there is one scan order. It
/// is the last signature that takes one, kept until `benchmark/src/api.rs`
/// stops passing it (ROADMAP item 8).
pub fn open(data: &SheetData, _layout: Layout) -> Result<Sheet, EngineError> {
    open_rows(&data.rows)
}

/// Opens only the first `window_rows` rows of the document — the lazy
/// viewport load Google Sheets performs ("load the first m rows visible
/// within the screen, and then load the rest on-demand", §4.1).
pub fn open_window(data: &SheetData, window_rows: u32) -> Result<Sheet, EngineError> {
    let n = data.nrows().min(window_rows as usize);
    open_rows(&data.rows[..n])
}

fn open_rows(rows: &[Vec<String>]) -> Result<Sheet, EngineError> {
    let mut sheet = Sheet::new();
    sheet.load_rows(rows)?;
    Ok(sheet)
}

/// What [`open`] did before it loaded in bulk: a `set_input` per non-blank
/// cell. Kept as the reference the differential test compares the bulk
/// load against; `sheet` is the empty sheet to fill, so a test can budget
/// it first.
#[cfg(test)]
pub(crate) fn load_rows_reference(
    sheet: &mut Sheet,
    rows: &[Vec<String>],
) -> Result<(), EngineError> {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0) as u32;
    sheet.ensure_size(rows.len() as u32, cols)?;
    for (r, row) in rows.iter().enumerate() {
        for (c, text) in row.iter().enumerate() {
            sheet.meter().tick(Primitive::CellParse);
            if text.is_empty() {
                continue;
            }
            sheet.set_input(CellAddr::new(r as u32, c as u32), text)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// CSV codec (RFC-4180-style quoting).
// ---------------------------------------------------------------------

/// Encodes a document as CSV.
pub fn to_csv(data: &SheetData) -> String {
    let mut out = String::new();
    for row in &data.rows {
        // A row holding one empty field is written `""`: left bare it would
        // be a blank line, which `from_csv` skips.
        let lone_blank = matches!(row.as_slice(), [f] if f.is_empty());
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if lone_blank || field.contains([',', '"', '\n', '\r']) {
                out.push('"');
                out.push_str(&field.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(field);
            }
        }
        out.push('\n');
    }
    out
}

/// Decodes CSV into a document.
pub fn from_csv(text: &str) -> Result<SheetData, EngineError> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut row_started = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
            continue;
        }
        match ch {
            '"' if field.is_empty() => {
                in_quotes = true;
                row_started = true;
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                row_started = true;
            }
            '\r' => {}
            '\n' => {
                if row_started || !field.is_empty() || !row.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                row_started = false;
            }
            other => {
                field.push(other);
                row_started = true;
            }
        }
    }
    if in_quotes {
        return Err(EngineError::Parse("unterminated quoted CSV field".into()));
    }
    if row_started || !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(SheetData { rows })
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::Rng;

    use super::*;
    use crate::error::CellError;
    use crate::recalc;
    use crate::testing::{cases, text};

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn doc() -> SheetData {
        SheetData {
            rows: vec![
                vec!["1".into(), "STORM".into(), "=A1*2".into()],
                vec!["2".into(), "calm".into(), "=A2*2".into()],
            ],
        }
    }

    #[test]
    fn open_parses_types_and_formulas() {
        let mut s = open(&doc(), Layout::RowMajor).unwrap();
        assert_eq!(s.value(a("A1")), Value::Number(1.0));
        assert_eq!(s.value(a("B2")), Value::text("calm"));
        assert!(s.is_formula(a("C1")));
        recalc::open_recalc(&mut s);
        assert_eq!(s.value(a("C2")), Value::Number(4.0));
    }

    #[test]
    fn open_charges_cell_parse() {
        let s = open(&doc(), Layout::RowMajor).unwrap();
        assert_eq!(s.meter().snapshot().get(Primitive::CellParse), 6);
    }

    #[test]
    fn save_open_round_trip() {
        let mut s = open(&doc(), Layout::RowMajor).unwrap();
        recalc::recalc_all(&mut s);
        let saved = save(&s);
        assert_eq!(saved.rows[0], vec!["1", "STORM", "=A1*2"]);
        let reopened = open(&saved, Layout::RowMajor).unwrap();
        assert_eq!(save(&reopened), saved);
    }

    #[test]
    fn open_window_truncates() {
        let s = open_window(&doc(), 1).unwrap();
        assert_eq!(s.nrows(), 1);
        assert_eq!(s.meter().snapshot().get(Primitive::CellParse), 3);
    }

    #[test]
    fn csv_round_trip_with_quoting() {
        let data = SheetData {
            rows: vec![
                vec!["plain".into(), "with,comma".into()],
                vec!["with \"quotes\"".into(), "multi\nline".into()],
            ],
        };
        let csv = to_csv(&data);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn csv_rejects_unterminated_quote() {
        assert!(from_csv("\"oops").is_err());
    }

    #[test]
    fn csv_empty_and_trailing_newline() {
        assert_eq!(from_csv("").unwrap().nrows(), 0);
        let d = from_csv("a,b\n").unwrap();
        assert_eq!(d.rows, vec![vec!["a".to_owned(), "b".to_owned()]]);
    }

    /// `from_csv(to_csv(d))` keeps every row and every cell, whatever mix
    /// of blank, plain and quoting-needed fields the rows hold — including
    /// a one-column document with blank cells, whose rows used to be
    /// written as bare newlines and skipped on the way in.
    #[test]
    fn csv_round_trip_preserves_every_cell() {
        cases(|rng| {
            let ncols = rng.random_range(1..=4);
            let field = |rng: &mut SmallRng| match rng.random_range(0..3) {
                0 => String::new(),
                1 => text(rng, "abcdefghijklmnopqrstuvwxyz0123456789 ", 1..=6),
                _ => text(rng, "ab,\"\n\r", 1..=5),
            };
            let rows = (0..rng.random_range(0..8))
                .map(|_| (0..ncols).map(|_| field(rng)).collect::<Vec<_>>())
                .collect();
            let data = SheetData { rows };
            let back = from_csv(&to_csv(&data)).unwrap();
            assert_eq!(back, data);
        });
    }

    /// A cell value of any type, text chosen to look like every other
    /// type: digits, `=`, `.`, `'`, `#`, and the letters of `TRUE`, `inf`
    /// and the error codes.
    fn any_value(rng: &mut SmallRng) -> Value {
        const LOOKALIKES: [&str; 11] =
            ["007", "=A1", "TRUE", " false ", "#DIV/0!", "#n/a", "1e5", "inf", "'quoted", "''", " 7 "];
        match rng.random_range(0..10) {
            0 => Value::Empty,
            1 => Value::Number(f64::from(rng.random::<u32>() as i32)),
            2 => Value::Number(f64::from(rng.random::<u32>() as i32) / 1024.0),
            3 => Value::Number(0.1 + 0.2),
            4 => Value::Number(1e15),
            5 => Value::Number(-1e-7),
            6 => Value::text(text(
                rng,
                "0123456789=.'# ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
                0..=6,
            )),
            7 => Value::text(LOOKALIKES[rng.random_range(0..LOOKALIKES.len())]),
            8 => Value::Bool(rng.random()),
            _ => Value::Error(CellError::ALL[rng.random_range(0..CellError::ALL.len())]),
        }
    }

    /// Values keep their types through `save` → CSV → `open`: text that
    /// reads as a number, a formula, a boolean or an error comes back as
    /// that text (it is saved behind a `'`), and an error value comes back
    /// as the error, not as text.
    #[test]
    fn save_open_round_trip_preserves_types() {
        cases(|rng| {
            let values: Vec<Value> = (0..rng.random_range(1..40)).map(|_| any_value(rng)).collect();
            let ncols = rng.random_range(1..=4u32);
            let mut s = Sheet::new();
            for (i, v) in values.iter().enumerate() {
                s.set_value(CellAddr::new(i as u32 / ncols, i as u32 % ncols), v.clone());
            }
            let doc = from_csv(&to_csv(&save(&s))).unwrap();
            let back = open(&doc, Layout::RowMajor).unwrap();
            assert_eq!((back.nrows(), back.ncols()), (s.nrows(), s.ncols()));
            assert_eq!(back.formula_count(), 0);
            for addr in s.used_range().unwrap().iter() {
                assert_eq!(back.value(addr), s.value(addr), "{addr} of {doc:?}");
            }
        });
    }

    /// A negative zero displays as `0`, and used to save as `0`: its sign
    /// is kept through a save, the CSV text and an open.
    #[test]
    fn negative_zero_keeps_its_sign_through_save_and_open() {
        let mut s = Sheet::new();
        s.set_value(CellAddr::new(0, 0), -0.0);
        s.set_value(CellAddr::new(0, 1), 0.0);
        let doc = save(&s);
        assert_eq!(doc.rows, vec![vec!["-0".to_owned(), "0".to_owned()]]);
        let back = open(&from_csv(&to_csv(&doc)).unwrap(), Layout::RowMajor).unwrap();
        for col in 0..2 {
            let addr = CellAddr::new(0, col);
            match (back.value(addr), s.value(addr)) {
                (Value::Number(a), Value::Number(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                other => panic!("{addr}: {other:?}"),
            }
        }
    }
}
