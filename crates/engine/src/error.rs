//! Engine error types: host-level errors (`EngineError`) and in-cell
//! spreadsheet errors (`CellError`, the `#DIV/0!`-style values).

use std::fmt;

/// Errors surfaced by the engine API (as opposed to errors that live *in*
/// cells, which are [`CellError`] values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A textual reference such as `B7` or `A1:C3` could not be parsed.
    BadReference(String),
    /// A formula failed to parse; the payload is a human-readable reason.
    Parse(String),
    /// A formula exceeded the parser's nesting-depth limit
    /// ([`MAX_FORMULA_DEPTH`](crate::formula::parser::MAX_FORMULA_DEPTH)).
    /// Its own variant (rather than a `Parse` payload) so hosts can
    /// distinguish "malformed" from "well-formed but pathological": the
    /// same bound is enforced on the bytecode side by the verifier's
    /// stack-depth limit (`analyze::MAX_STACK_DEPTH`).
    FormulaTooDeep,
    /// A named sheet or resource does not exist.
    NotFound(String),
    /// An operation was given inconsistent arguments.
    Invalid(String),
    /// A row permutation handed to sort/permute was not a bijection of
    /// `0..nrows` (wrong length, out-of-range index, or duplicate). The
    /// payload names the first offense.
    BadPermutation(String),
    /// A cell address or grid size beyond the engine's hard limits
    /// (`grid::MAX_ROWS` × `grid::MAX_COLS`), or one whose extent
    /// computation would overflow `u32`.
    OutOfBounds { rows: u32, cols: u32 },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadReference(s) => write!(f, "bad reference: {s}"),
            EngineError::Parse(s) => write!(f, "formula parse error: {s}"),
            EngineError::FormulaTooDeep => write!(f, "formula too deeply nested"),
            EngineError::NotFound(s) => write!(f, "not found: {s}"),
            EngineError::Invalid(s) => write!(f, "invalid operation: {s}"),
            EngineError::BadPermutation(s) => write!(f, "bad permutation: {s}"),
            EngineError::OutOfBounds { rows, cols } => {
                write!(f, "grid size {rows}x{cols} exceeds engine limits")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Spreadsheet cell-level errors, displayed in-grid with the conventional
/// `#NAME?` spellings. These are *values*: they flow through formula
/// evaluation exactly like numbers do in real spreadsheet systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellError {
    /// Division by zero (`#DIV/0!`).
    Div0,
    /// Wrong argument type or unparseable formula context (`#VALUE!`).
    Value,
    /// Reference to a deleted/off-sheet cell (`#REF!`).
    Ref,
    /// Unknown function or name (`#NAME?`).
    Name,
    /// Lookup found no match (`#N/A`).
    Na,
    /// Numeric overflow/domain error (`#NUM!`).
    Num,
    /// Circular dependency detected (`#CIRC!` — rendered as Excel's `0`
    /// with a warning in real systems; we make it explicit).
    Circular,
}

impl CellError {
    /// The conventional display spelling.
    pub const fn code(self) -> &'static str {
        match self {
            CellError::Div0 => "#DIV/0!",
            CellError::Value => "#VALUE!",
            CellError::Ref => "#REF!",
            CellError::Name => "#NAME?",
            CellError::Na => "#N/A",
            CellError::Num => "#NUM!",
            CellError::Circular => "#CIRC!",
        }
    }

    /// Every error value, in declaration order.
    pub(crate) const ALL: [CellError; 7] = [
        CellError::Div0,
        CellError::Value,
        CellError::Ref,
        CellError::Name,
        CellError::Na,
        CellError::Num,
        CellError::Circular,
    ];

    /// The error a display spelling denotes, in either case: the inverse of
    /// [`CellError::code`], shared by the formula parser's error literals
    /// and the cell-input classifier.
    pub(crate) fn from_code(code: &str) -> Option<CellError> {
        CellError::ALL.into_iter().find(|e| e.code().eq_ignore_ascii_case(code))
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_error_codes() {
        assert_eq!(CellError::Div0.to_string(), "#DIV/0!");
        assert_eq!(CellError::Na.code(), "#N/A");
        assert_eq!(CellError::Circular.code(), "#CIRC!");
        for e in CellError::ALL {
            assert_eq!(CellError::from_code(e.code()), Some(e));
            assert_eq!(CellError::from_code(&e.code().to_ascii_lowercase()), Some(e));
        }
        assert_eq!(CellError::from_code("#NOPE!"), None);
    }

    #[test]
    fn engine_error_display() {
        assert_eq!(EngineError::BadReference("Q".into()).to_string(), "bad reference: Q");
        assert!(EngineError::Parse("x".into()).to_string().contains("parse"));
        assert!(EngineError::FormulaTooDeep.to_string().contains("deeply nested"));
        assert!(EngineError::BadPermutation("len 2 != 3".into())
            .to_string()
            .contains("bad permutation"));
        assert!(EngineError::OutOfBounds { rows: u32::MAX, cols: 1 }
            .to_string()
            .contains("exceeds engine limits"));
    }
}
