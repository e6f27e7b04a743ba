//! The cell model: a cell holds either a plain value or a formula (parsed
//! expression + program binding + cached result), plus a style.

use std::sync::{Arc, OnceLock};

use crate::compile::Program;
use crate::formula::{self, Expr};
use crate::style::Style;
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
    /// one. Set once through `&self`
    /// (the parallel recalc workers bind through `&Sheet`), cleared only
    /// through `&mut self`. It travels with the formula — a clone, a sort
    /// or a structural shift carries it along — so whoever rewrites `expr`
    /// or moves the formula to an address where `expr` normalizes
    /// differently must [`unbind`](Formula::unbind) it. Derived state: not
    /// part of equality.
    program: OnceLock<Arc<Program>>,
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
        Formula { expr, cached: Value::Empty, program: OnceLock::new() }
    }

    /// Wraps an expression with an uncomputed cache and `program` already
    /// bound: the caller resolved it for this expression at the address
    /// the formula is about to be stored at (the bulk load does, once per
    /// template — `compile::OpenTemplates`).
    pub(crate) fn bound(expr: Expr, program: Arc<Program>) -> Self {
        Formula { expr, cached: Value::Empty, program: OnceLock::from(program) }
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

/// What a cell contains.
#[derive(Debug, Clone, PartialEq)]
pub enum CellContent {
    /// A literal value.
    Value(Value),
    /// A formula (boxed: formulae are the minority of cells and the box
    /// keeps `Cell` small for the 8.5M-cell datasets).
    Formula(Box<Formula>),
}

/// One spreadsheet cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub content: CellContent,
    pub style: Style,
}

impl Cell {
    /// An empty, unstyled cell.
    pub fn empty() -> Self {
        Cell { content: CellContent::Value(Value::Empty), style: Style::plain() }
    }

    /// A value cell.
    pub fn value(v: impl Into<Value>) -> Self {
        Cell { content: CellContent::Value(v.into()), style: Style::plain() }
    }

    /// A formula cell (uncomputed).
    pub fn formula(expr: Expr) -> Self {
        Cell { content: CellContent::Formula(Box::new(Formula::new(expr))), style: Style::plain() }
    }

    /// True when the cell holds a formula.
    pub fn is_formula(&self) -> bool {
        matches!(self.content, CellContent::Formula(_))
    }

    /// True when the cell is an empty value cell with no styling.
    pub fn is_vacant(&self) -> bool {
        self.style.is_plain()
            && matches!(&self.content, CellContent::Value(Value::Empty))
    }

    /// The user-visible value: the literal for value cells, the cached
    /// result for formula cells.
    pub fn display_value(&self) -> &Value {
        match &self.content {
            CellContent::Value(v) => v,
            CellContent::Formula(f) => &f.cached,
        }
    }

    /// The text a user would see in the formula bar: `=SUM(A1:A3)` for
    /// formulae, the rendered value otherwise.
    pub fn input_text(&self) -> String {
        match &self.content {
            CellContent::Value(v) => v.display(),
            CellContent::Formula(f) => f.source(),
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
        let mut styled = Cell::empty();
        styled.style = styled.style.with_fill(crate::style::Color::GREEN);
        assert!(!styled.is_vacant());
    }
}
