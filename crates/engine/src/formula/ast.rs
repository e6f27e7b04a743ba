//! The formula abstract syntax tree.

use std::sync::Arc;

use crate::addr::{CellAddr, CellRef, Range};
use crate::error::CellError;

/// A reference to a rectangular range, keeping per-corner absolute/relative
/// markers (`$A$1:B10`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeRef {
    pub start: CellRef,
    pub end: CellRef,
}

impl RangeRef {
    /// The concrete range this reference denotes.
    pub fn range(&self) -> Range {
        Range::new(self.start.addr, self.end.addr)
    }

    /// Adjusts both corners for a copy from `from` to `to` (see
    /// [`CellRef::adjusted`]).
    pub fn adjusted(&self, from: CellAddr, to: CellAddr) -> Option<RangeRef> {
        Some(RangeRef { start: self.start.adjusted(from, to)?, end: self.end.adjusted(from, to)? })
    }
}

/// Binary operators, in the dialect shared by the benchmarked systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    /// String concatenation (`&`).
    Concat,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub const fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Concat => "&",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }

    /// Binding power for precedence-climbing. Higher binds tighter.
    /// Matches Excel: comparison < concat < add/sub < mul/div < pow.
    pub const fn precedence(self) -> u8 {
        match self {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::Concat => 2,
            BinOp::Add | BinOp::Sub => 3,
            BinOp::Mul | BinOp::Div => 4,
            BinOp::Pow => 5,
        }
    }

    /// Whether the operator is right-associative (only `^` in this dialect).
    pub const fn right_assoc(self) -> bool {
        matches!(self, BinOp::Pow)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Prefix negation `-x`.
    Neg,
    /// Prefix plus `+x` (identity, kept for faithful round-tripping).
    Pos,
    /// Postfix percent `x%` (divides by 100).
    Percent,
}

/// A formula expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Number(f64),
    /// A text literal, shared so evaluation never re-allocates it.
    Text(Arc<str>),
    Bool(bool),
    /// A literal error such as `#N/A` typed into a formula.
    Error(CellError),
    /// A single-cell reference.
    Ref(CellRef),
    /// A rectangular range reference.
    RangeRef(RangeRef),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A function call; the name is stored uppercase.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Hands every cell and range reference of the expression to `cell` or
    /// `range`, in syntactic order.
    pub fn visit_refs(
        &self,
        cell: &mut impl FnMut(&CellRef),
        range: &mut impl FnMut(&RangeRef),
    ) {
        match self {
            Expr::Ref(r) => cell(r),
            Expr::RangeRef(r) => range(r),
            Expr::Unary(_, e) => e.visit_refs(cell, range),
            Expr::Binary(_, a, b) => {
                a.visit_refs(cell, range);
                b.visit_refs(cell, range);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit_refs(cell, range);
                }
            }
            Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::Error(_) => {}
        }
    }

    /// Collects every cell/range this expression references, in syntactic
    /// order. Used by the reference-analysis optimizations.
    pub fn collect_refs(&self, cells: &mut Vec<CellRef>, ranges: &mut Vec<RangeRef>) {
        self.visit_refs(&mut |c| cells.push(*c), &mut |r| ranges.push(*r));
    }

    /// Convenience: all referenced single cells and ranges.
    pub fn refs(&self) -> (Vec<CellRef>, Vec<RangeRef>) {
        let mut cells = Vec::new();
        let mut ranges = Vec::new();
        self.collect_refs(&mut cells, &mut ranges);
        (cells, ranges)
    }

    /// Rewrites every reference for a move from `from` to `to`, in place;
    /// references that would fall off the sheet become `#REF!` literals.
    ///
    /// Returns whether one did. Every other reference keeps its R1C1
    /// spelling — a relative axis its offset, an absolute one its
    /// coordinate — so `false` means the expression at `to` normalizes to
    /// the template key it had at `from`.
    pub fn adjust(&mut self, from: CellAddr, to: CellAddr) -> bool {
        match self {
            Expr::Ref(r) => match r.adjusted(from, to) {
                Some(adj) => {
                    *r = adj;
                    false
                }
                None => {
                    *self = Expr::Error(CellError::Ref);
                    true
                }
            },
            Expr::RangeRef(r) => match r.adjusted(from, to) {
                Some(adj) => {
                    *r = adj;
                    false
                }
                None => {
                    *self = Expr::Error(CellError::Ref);
                    true
                }
            },
            Expr::Unary(_, e) => e.adjust(from, to),
            Expr::Binary(_, a, b) => a.adjust(from, to) | b.adjust(from, to),
            Expr::Call(_, args) => args.iter_mut().fold(false, |fell, arg| arg.adjust(from, to) | fell),
            Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::Error(_) => false,
        }
    }

    /// A copy of the expression [`adjust`](Expr::adjust)ed from `from` to
    /// `to`.
    pub fn adjusted(&self, from: CellAddr, to: CellAddr) -> Expr {
        let mut copy = self.clone();
        copy.adjust(from, to);
        copy
    }

    /// Number of nodes in the expression tree.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        1 + match self {
            Expr::Unary(_, e) => e.node_count(),
            Expr::Binary(_, a, b) => a.node_count() + b.node_count(),
            Expr::Call(_, args) => args.iter().map(Expr::node_count).sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> CellRef {
        CellRef::parse(s).unwrap()
    }

    #[test]
    fn collect_refs_walks_tree() {
        // SUM(A1:A3) + B2 * -C4
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Call(
                "SUM".into(),
                vec![Expr::RangeRef(RangeRef { start: r("A1"), end: r("A3") })],
            )),
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Ref(r("B2"))),
                Box::new(Expr::Unary(UnaryOp::Neg, Box::new(Expr::Ref(r("C4"))))),
            )),
        );
        let (cells, ranges) = e.refs();
        assert_eq!(cells, vec![r("B2"), r("C4")]);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].range(), Range::parse("A1:A3").unwrap());
        assert_eq!(e.node_count(), 7);
    }

    #[test]
    fn adjustment_produces_ref_error_off_sheet() {
        let e = Expr::Ref(r("A1"));
        let adj = e.adjusted(CellAddr::new(1, 0), CellAddr::new(0, 0));
        assert_eq!(adj, Expr::Error(CellError::Ref));
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Pow.precedence() > BinOp::Mul.precedence());
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Concat.precedence());
        assert!(BinOp::Concat.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Pow.right_assoc());
        assert!(!BinOp::Add.right_assoc());
    }
}
