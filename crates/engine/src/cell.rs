//! The cell model: a cell holds either a plain value or a formula (parsed
//! expression + program binding + cached result), and nothing else. A
//! cell's fill is no part of it: fills are row runs kept per column beside
//! the values (`grid::fills`), so formatting a cell never touches its
//! storage.

use std::cell::OnceCell;
use std::sync::Arc;

use crate::compile::Program;
use crate::formula::{self, Expr};
use crate::value::Value;

/// A parsed formula living in a cell.
#[derive(Debug, Clone)]
pub struct Formula {
    /// The parsed expression.
    pub expr: Expr,
    /// The cached result of the last evaluation. Spreadsheets always keep
    /// the displayed value materialized; what they do *not* do (per §5.5)
    /// is maintain it incrementally.
    pub cached: Value,
    /// The compiled program this formula runs: the sheet's template-map
    /// entry for `r1c1::normalize(expr, address)`, bound when a document
    /// is opened or else by the first evaluation, and read by every later
    /// one. Set once through `&self` (a recalculation binds through
    /// `&Sheet`), cleared only through `&mut self`. It travels with the
    /// formula — a clone, a sort or a structural shift carries it along —
    /// so whoever rewrites `expr` or moves the formula to an address where
    /// `expr` normalizes differently must [`unbind`](Formula::unbind) it.
    /// Derived state: not part of equality.
    program: OnceCell<Arc<Program>>,
}

impl PartialEq for Formula {
    fn eq(&self, other: &Self) -> bool {
        self.expr == other.expr && self.cached == other.cached
    }
}

impl Formula {
    /// Wraps an expression with an uncomputed (`Empty`) cache and no
    /// program bound.
    pub fn new(expr: Expr) -> Self {
        Formula { expr, cached: Value::Empty, program: OnceCell::new() }
    }

    /// Wraps an expression with an uncomputed cache and `program` already
    /// bound: the caller resolved it for this expression at the address
    /// the formula is about to be stored at (the bulk load does, once per
    /// template — `compile::OpenTemplates`).
    pub(crate) fn bound(expr: Expr, program: Arc<Program>) -> Self {
        Formula { expr, cached: Value::Empty, program: OnceCell::from(program) }
    }

    /// The bound program, if the load or an evaluation has bound one.
    pub fn program(&self) -> Option<&Arc<Program>> {
        self.program.get()
    }

    /// The bound program, binding what `resolve` returns on first use.
    pub(crate) fn program_or_bind(&self, resolve: impl FnOnce() -> Arc<Program>) -> &Arc<Program> {
        self.program.get_or_init(resolve)
    }

    /// Clears the binding; the next evaluation resolves the formula
    /// through the template map again.
    pub(crate) fn unbind(&mut self) {
        self.program.take();
    }

    /// The canonical source text (with leading `=`).
    pub fn source(&self) -> String {
        format!("={}", formula::print(&self.expr))
    }
}

/// One spreadsheet cell: what it contains.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A literal value.
    Value(Value),
    /// A formula (boxed: formulae are the minority of cells and the box
    /// keeps `Cell` small for the 8.5M-cell datasets).
    Formula(Box<Formula>),
}

impl Cell {
    /// An empty cell.
    pub fn empty() -> Self {
        Cell::Value(Value::Empty)
    }

    /// A value cell.
    pub fn value(v: impl Into<Value>) -> Self {
        Cell::Value(v.into())
    }

    /// A formula cell (uncomputed).
    pub fn formula(expr: Expr) -> Self {
        Cell::Formula(Box::new(Formula::new(expr)))
    }

    /// True when the cell holds a formula.
    pub fn is_formula(&self) -> bool {
        matches!(self, Cell::Formula(_))
    }

    /// True when the cell is an empty value cell.
    pub fn is_vacant(&self) -> bool {
        matches!(self, Cell::Value(Value::Empty))
    }

    /// The user-visible value: the literal for value cells, the cached
    /// result for formula cells.
    pub fn display_value(&self) -> &Value {
        match self {
            Cell::Value(v) => v,
            Cell::Formula(f) => &f.cached,
        }
    }

    /// The text a user would see in the formula bar: `=SUM(A1:A3)` for
    /// formulae, the rendered value otherwise.
    pub fn input_text(&self) -> String {
        match self {
            Cell::Value(v) => v.display(),
            Cell::Formula(f) => f.source(),
        }
    }
}

impl Default for Cell {
    fn default() -> Self {
        Cell::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::parse;

    #[test]
    fn value_cell_roundtrip() {
        let c = Cell::value(3.5);
        assert!(!c.is_formula());
        assert_eq!(c.display_value(), &Value::Number(3.5));
        assert_eq!(c.input_text(), "3.5");
    }

    #[test]
    fn formula_cell_shows_source() {
        let c = Cell::formula(parse("SUM(A1:A3)").unwrap());
        assert!(c.is_formula());
        assert_eq!(c.input_text(), "=SUM(A1:A3)");
        assert_eq!(c.display_value(), &Value::Empty); // not yet computed
    }

    #[test]
    fn vacancy() {
        assert!(Cell::empty().is_vacant());
        assert!(!Cell::value(0).is_vacant());
        assert!(!Cell::formula(parse("1").unwrap()).is_vacant());
    }

    /// A cell is its content: a value or a boxed formula, 24 bytes, so a
    /// `Cells` chunk of 1 024 slots is 24 KB.
    #[test]
    fn a_cell_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 24);
    }
}
