//! Cell addressing: zero-based coordinates, A1-notation codec, relative and
//! absolute references, and rectangular ranges.
//!
//! Addresses are stored zero-based internally (`row: 0` is spreadsheet row
//! 1); the A1 codec performs the off-by-one conversion. Columns use the
//! standard bijective base-26 letter scheme (`A`..`Z`, `AA`..).

use std::fmt;

use crate::error::EngineError;

/// A zero-based cell coordinate within a sheet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellAddr {
    /// Zero-based row index (spreadsheet row 1 is `row == 0`).
    pub row: u32,
    /// Zero-based column index (column A is `col == 0`).
    pub col: u32,
}

impl CellAddr {
    /// Creates an address from zero-based row and column indices.
    pub const fn new(row: u32, col: u32) -> Self {
        CellAddr { row, col }
    }

    /// Parses an A1-notation reference such as `B7`, ignoring any `$`
    /// absolute markers (`$B$7` parses to the same coordinate).
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let r = CellRef::parse(text)?;
        Ok(r.addr)
    }

    /// Renders this address in A1 notation (e.g. `CellAddr::new(6, 1)` is
    /// `"B7"`).
    pub fn to_a1(&self) -> String {
        format!("{}{}", col_to_letters(self.col), self.row + 1)
    }

    /// Returns the address shifted by the given row/column deltas, or `None`
    /// if the shift would move it off the sheet (negative coordinates).
    pub fn offset(&self, d_row: i64, d_col: i64) -> Option<Self> {
        let row = i64::from(self.row) + d_row;
        let col = i64::from(self.col) + d_col;
        if row < 0 || col < 0 || row > i64::from(u32::MAX) || col > i64::from(u32::MAX) {
            None
        } else {
            Some(CellAddr::new(row as u32, col as u32))
        }
    }
}

impl fmt::Display for CellAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_a1())
    }
}

/// A cell reference as written in a formula: a coordinate plus absolute/
/// relative markers on each axis (`$A$1` vs `A1`).
///
/// The distinction matters for copy-paste reference adjustment and for the
/// sort-recomputation analysis of Section 6 of the paper ("when sorting an
/// entire spreadsheet by row, any formula with relative columnar references
/// … are unaffected, while formulae with absolute references … require
/// recomputation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    pub addr: CellAddr,
    /// True if the row component is absolute (`$7`).
    pub abs_row: bool,
    /// True if the column component is absolute (`$B`).
    pub abs_col: bool,
}

impl CellRef {
    /// A fully relative reference to `addr`.
    pub const fn relative(addr: CellAddr) -> Self {
        CellRef { addr, abs_row: false, abs_col: false }
    }

    /// A fully absolute reference to `addr`.
    pub const fn absolute(addr: CellAddr) -> Self {
        CellRef { addr, abs_row: true, abs_col: true }
    }

    /// Parses `[$]LETTERS[$]DIGITS`, e.g. `B7`, `$B7`, `B$7`, `$B$7`.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let bytes = text.as_bytes();
        let mut i = 0;
        let abs_col = bytes.first() == Some(&b'$');
        if abs_col {
            i += 1;
        }
        let col_start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
            i += 1;
        }
        if i == col_start {
            return Err(EngineError::BadReference(text.to_owned()));
        }
        let col = letters_to_col(&text[col_start..i])
            .ok_or_else(|| EngineError::BadReference(text.to_owned()))?;
        let abs_row = bytes.get(i) == Some(&b'$');
        if abs_row {
            i += 1;
        }
        let row_start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == row_start || i != bytes.len() {
            return Err(EngineError::BadReference(text.to_owned()));
        }
        let row: u32 = text[row_start..i]
            .parse()
            .map_err(|_| EngineError::BadReference(text.to_owned()))?;
        if row == 0 {
            return Err(EngineError::BadReference(text.to_owned()));
        }
        Ok(CellRef { addr: CellAddr::new(row - 1, col), abs_row, abs_col })
    }

    /// Adjusts this reference for a copy from `from` to `to`: relative axes
    /// shift by the copy delta, absolute axes stay pinned. Returns `None`
    /// when a relative shift would fall off the sheet (spreadsheets surface
    /// this as a `#REF!` error).
    pub fn adjusted(&self, from: CellAddr, to: CellAddr) -> Option<Self> {
        let d_row = if self.abs_row { 0 } else { i64::from(to.row) - i64::from(from.row) };
        let d_col = if self.abs_col { 0 } else { i64::from(to.col) - i64::from(from.col) };
        let addr = self.addr.offset(d_row, d_col)?;
        Some(CellRef { addr, ..*self })
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.abs_col {
            write!(f, "$")?;
        }
        write!(f, "{}", col_to_letters(self.addr.col))?;
        if self.abs_row {
            write!(f, "$")?;
        }
        write!(f, "{}", self.addr.row + 1)
    }
}

/// An inclusive rectangular range of cells (`A1:C10`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Top-left corner (minimum row and column).
    pub start: CellAddr,
    /// Bottom-right corner (maximum row and column), inclusive.
    pub end: CellAddr,
}

impl Range {
    /// Creates a range, normalizing the corners so that `start` is the
    /// top-left and `end` the bottom-right regardless of argument order.
    pub fn new(a: CellAddr, b: CellAddr) -> Self {
        Range {
            start: CellAddr::new(a.row.min(b.row), a.col.min(b.col)),
            end: CellAddr::new(a.row.max(b.row), a.col.max(b.col)),
        }
    }

    /// A single-cell range.
    pub const fn cell(addr: CellAddr) -> Self {
        Range { start: addr, end: addr }
    }

    /// A range covering rows `r0..=r1` of one column.
    pub fn column_segment(col: u32, r0: u32, r1: u32) -> Self {
        Range::new(CellAddr::new(r0, col), CellAddr::new(r1, col))
    }

    /// Parses `A1:C10` or a bare single-cell `B2`.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        match text.split_once(':') {
            Some((a, b)) => Ok(Range::new(CellAddr::parse(a)?, CellAddr::parse(b)?)),
            None => Ok(Range::cell(CellAddr::parse(text)?)),
        }
    }

    /// Number of rows spanned.
    pub fn rows(&self) -> u32 {
        self.end.row - self.start.row + 1
    }

    /// Number of columns spanned.
    pub fn cols(&self) -> u32 {
        self.end.col - self.start.col + 1
    }

    /// Total number of cells spanned.
    pub fn len(&self) -> u64 {
        u64::from(self.rows()) * u64::from(self.cols())
    }

    /// True only for the degenerate case used by `is_empty` conventions;
    /// ranges always contain at least one cell, so this is always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `addr` falls inside this range.
    pub fn contains(&self, addr: CellAddr) -> bool {
        addr.row >= self.start.row
            && addr.row <= self.end.row
            && addr.col >= self.start.col
            && addr.col <= self.end.col
    }

    /// The part of this range inside an `nrows` × `ncols` extent; `None`
    /// when none of it is. Every range read — scans, lookups, index
    /// probes, the ops' meter charges — clips through here.
    pub fn clip_to(&self, nrows: u32, ncols: u32) -> Option<Range> {
        if self.start.row >= nrows || self.start.col >= ncols {
            return None;
        }
        Some(Range {
            start: self.start,
            end: CellAddr::new(self.end.row.min(nrows - 1), self.end.col.min(ncols - 1)),
        })
    }

    /// Iterates all addresses in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = CellAddr> + '_ {
        let (r0, r1) = (self.start.row, self.end.row);
        let (c0, c1) = (self.start.col, self.end.col);
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| CellAddr::new(r, c)))
    }

    /// Renders in A1 notation; single cells render without the colon.
    pub fn to_a1(&self) -> String {
        if self.start == self.end {
            self.start.to_a1()
        } else {
            format!("{}:{}", self.start.to_a1(), self.end.to_a1())
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_a1())
    }
}

/// Converts a zero-based column index to spreadsheet letters
/// (0 → `A`, 25 → `Z`, 26 → `AA`).
pub fn col_to_letters(mut col: u32) -> String {
    let mut out = Vec::new();
    loop {
        out.push(b'A' + (col % 26) as u8);
        if col < 26 {
            break;
        }
        col = col / 26 - 1;
    }
    out.reverse();
    // SAFETY-free: bytes are always ASCII letters.
    String::from_utf8(out).expect("column letters are ASCII")
}

/// Converts spreadsheet letters to a zero-based column index
/// (`A` → 0, `Z` → 25, `AA` → 26). Case-insensitive. Returns `None` for
/// empty or non-alphabetic input.
pub fn letters_to_col(letters: &str) -> Option<u32> {
    if letters.is_empty() {
        return None;
    }
    let mut acc: u64 = 0;
    for b in letters.bytes() {
        let v = match b {
            b'A'..=b'Z' => u64::from(b - b'A'),
            b'a'..=b'z' => u64::from(b - b'a'),
            _ => return None,
        };
        acc = acc * 26 + v + 1;
        if acc > u64::from(u32::MAX) {
            return None;
        }
    }
    Some((acc - 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_letters_round_trip_small() {
        for (col, s) in [(0, "A"), (1, "B"), (25, "Z"), (26, "AA"), (27, "AB"), (51, "AZ"), (52, "BA"), (701, "ZZ"), (702, "AAA")] {
            assert_eq!(col_to_letters(col), s, "col {col}");
            assert_eq!(letters_to_col(s), Some(col), "letters {s}");
        }
    }

    #[test]
    fn col_letters_case_insensitive() {
        assert_eq!(letters_to_col("aa"), Some(26));
        assert_eq!(letters_to_col("Ab"), Some(27));
    }

    #[test]
    fn letters_rejects_garbage() {
        assert_eq!(letters_to_col(""), None);
        assert_eq!(letters_to_col("A1"), None);
        assert_eq!(letters_to_col("-"), None);
    }

    #[test]
    fn addr_parse_and_display() {
        let a = CellAddr::parse("B7").unwrap();
        assert_eq!(a, CellAddr::new(6, 1));
        assert_eq!(a.to_a1(), "B7");
        assert_eq!(CellAddr::parse("$C$3").unwrap(), CellAddr::new(2, 2));
    }

    #[test]
    fn addr_parse_rejects_invalid() {
        for bad in ["", "7", "B", "B0", "1B", "B7X", "B-7", "$$B7"] {
            assert!(CellAddr::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn cellref_parse_markers() {
        let r = CellRef::parse("$B7").unwrap();
        assert!(r.abs_col && !r.abs_row);
        let r = CellRef::parse("B$7").unwrap();
        assert!(!r.abs_col && r.abs_row);
        let r = CellRef::parse("$B$7").unwrap();
        assert!(r.abs_col && r.abs_row);
        assert_eq!(r.to_string(), "$B$7");
    }

    #[test]
    fn cellref_adjustment_relative_shifts_absolute_pins() {
        let from = CellAddr::new(0, 2); // C1
        let to = CellAddr::new(4, 3); // D5
        let rel = CellRef::parse("A1").unwrap();
        assert_eq!(rel.adjusted(from, to).unwrap().addr, CellAddr::new(4, 1));
        let abs = CellRef::parse("$A$1").unwrap();
        assert_eq!(abs.adjusted(from, to).unwrap().addr, CellAddr::new(0, 0));
        let mixed = CellRef::parse("A$1").unwrap();
        let adj = mixed.adjusted(from, to).unwrap();
        assert_eq!(adj.addr, CellAddr::new(0, 1));
    }

    #[test]
    fn cellref_adjustment_off_sheet_is_none() {
        let rel = CellRef::parse("A1").unwrap();
        // Copy up-left from B2 to A1 would push A1 to row -1.
        assert!(rel.adjusted(CellAddr::new(1, 1), CellAddr::new(0, 0)).is_none());
    }

    #[test]
    fn range_normalizes_corners() {
        let r = Range::new(CellAddr::new(9, 3), CellAddr::new(2, 1));
        assert_eq!(r.start, CellAddr::new(2, 1));
        assert_eq!(r.end, CellAddr::new(9, 3));
        assert_eq!(r.rows(), 8);
        assert_eq!(r.cols(), 3);
        assert_eq!(r.len(), 24);
    }

    #[test]
    fn range_parse_and_display() {
        let r = Range::parse("A1:C10").unwrap();
        assert_eq!(r.to_a1(), "A1:C10");
        let c = Range::parse("B2").unwrap();
        assert_eq!(c.to_a1(), "B2");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn range_contains() {
        let r = Range::parse("B2:D5").unwrap();
        assert!(r.contains(CellAddr::parse("C3").unwrap()));
        assert!(!r.contains(CellAddr::parse("A1").unwrap()));
    }

    #[test]
    fn range_clips_to_an_extent() {
        let r = Range::parse("B2:D5").unwrap();
        assert_eq!(r.clip_to(10, 10), Some(r));
        assert_eq!(r.clip_to(3, 2), Some(Range::parse("B2:B3").unwrap()));
        // Starting past either edge, or an empty extent, leaves nothing.
        assert_eq!(r.clip_to(1, 10), None);
        assert_eq!(r.clip_to(10, 1), None);
        assert_eq!(Range::parse("A1").unwrap().clip_to(0, 0), None);
    }

    #[test]
    fn range_iter_row_major() {
        let r = Range::parse("A1:B2").unwrap();
        let cells: Vec<String> = r.iter().map(|a| a.to_a1()).collect();
        assert_eq!(cells, ["A1", "B1", "A2", "B2"]);
    }

    #[test]
    fn offset_bounds() {
        let a = CellAddr::new(0, 0);
        assert!(a.offset(-1, 0).is_none());
        assert_eq!(a.offset(3, 2), Some(CellAddr::new(3, 2)));
    }
}
