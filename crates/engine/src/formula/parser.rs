//! Recursive-descent (precedence-climbing) parser for the formula language.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr        := cmp
//! cmp         := concat (( = | <> | < | <= | > | >= ) concat)*
//! concat      := addsub (& addsub)*
//! addsub      := muldiv (( + | - ) muldiv)*
//! muldiv      := pow (( * | / ) pow)*
//! pow         := postfix (^ pow)          -- right associative
//! postfix     := unary (%)*
//! unary       := ( - | + ) unary | primary
//! primary     := number | string | TRUE | FALSE | errorlit
//!              | name '(' args ')' | ref (':' ref)? | '(' expr ')'
//! ```

use crate::addr::CellRef;
use crate::error::{CellError, EngineError};
use crate::formula::ast::{BinOp, Expr, RangeRef, UnaryOp};
use crate::formula::lexer::{lex, Token};

/// Resolves bare identifiers that are neither function calls, booleans,
/// nor cell references — i.e. named ranges. Resolution happens at entry
/// time, as a simplification of the live name binding real systems keep.
pub trait NameResolver {
    /// The range a name denotes, or `None` for an unknown name.
    fn resolve(&self, name: &str) -> Option<RangeRef>;
}

/// The default resolver: no names defined.
pub struct NoNames;

impl NameResolver for NoNames {
    fn resolve(&self, _name: &str) -> Option<RangeRef> {
        None
    }
}

/// Maximum expression-tree depth the parser will build. Deeper input —
/// whether 10k nested parentheses or a 10k-term left-leaning chain —
/// fails cleanly with [`EngineError::FormulaTooDeep`] instead of risking
/// recursion overflow here or in any of the recursive consumers
/// downstream (printer, normalizer, lowerer, interpreter, analyzer). The
/// bytecode verifier enforces the matching bound on compiled programs
/// (`analyze::MAX_STACK_DEPTH`).
pub const MAX_FORMULA_DEPTH: usize = 512;

/// Parses a formula body (no leading `=`) into an expression tree.
pub fn parse(input: &str) -> Result<Expr, EngineError> {
    parse_with(input, &NoNames)
}

/// [`parse`] with a named-range resolver.
pub fn parse_with(input: &str, names: &dyn NameResolver) -> Result<Expr, EngineError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, names };
    let expr = p.parse_expr(0)?;
    if p.pos != p.tokens.len() {
        return Err(EngineError::Parse(format!(
            "trailing tokens after expression (at token {})",
            p.pos
        )));
    }
    Ok(expr)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Current expression-tree nesting level, bounded by
    /// [`MAX_FORMULA_DEPTH`]. Counts *tree* depth, not call-stack depth:
    /// the iteratively built left-leaning shapes (binary-operator chains,
    /// `%` postfix chains) charge it per wrap too.
    depth: usize,
    names: &'a dyn NameResolver,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token<'_>, ctx: &str) -> Result<(), EngineError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(EngineError::Parse(format!("expected {want:?} {ctx}, found {other:?}"))),
        }
    }

    fn binop_of(token: &Token<'_>) -> Option<BinOp> {
        Some(match token {
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            Token::Caret => BinOp::Pow,
            Token::Amp => BinOp::Concat,
            Token::Eq => BinOp::Eq,
            Token::Ne => BinOp::Ne,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
        _ => return None,
        })
    }

    /// One more nesting level, or [`EngineError::FormulaTooDeep`] once the
    /// resulting tree would exceed [`MAX_FORMULA_DEPTH`].
    fn deeper(&mut self) -> Result<(), EngineError> {
        self.depth += 1;
        if self.depth > MAX_FORMULA_DEPTH {
            return Err(EngineError::FormulaTooDeep);
        }
        Ok(())
    }

    /// Precedence-climbing over binary operators.
    fn parse_expr(&mut self, min_prec: u8) -> Result<Expr, EngineError> {
        let mut lhs = self.parse_unary()?;
        let mut grown = 0usize;
        let out = loop {
            let Some(op) = self.peek().and_then(Self::binop_of) else {
                break Ok(lhs);
            };
            let prec = op.precedence();
            if prec < min_prec {
                break Ok(lhs);
            }
            self.next();
            // Each iteration wraps `lhs` one level deeper without
            // recursing, so left-leaning chains (`1+1+…`) must charge the
            // depth counter here to hit the same limit as nested input.
            grown += 1;
            if let Err(e) = self.deeper() {
                break Err(e);
            }
            let next_min = if op.right_assoc() { prec } else { prec + 1 };
            match self.parse_expr(next_min) {
                Ok(rhs) => lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs)),
                Err(e) => break Err(e),
            }
        };
        self.depth -= grown;
        out
    }

    fn parse_unary(&mut self) -> Result<Expr, EngineError> {
        // Every recursion cycle in the grammar passes through here
        // (parentheses, call arguments, unary chains, right-associative
        // `^`), so this one guard bounds all recursive descent.
        self.deeper()?;
        let e = match self.peek() {
            Some(Token::Minus) => {
                self.next();
                self.parse_unary().map(|x| Expr::Unary(UnaryOp::Neg, Box::new(x)))
            }
            Some(Token::Plus) => {
                self.next();
                self.parse_unary().map(|x| Expr::Unary(UnaryOp::Pos, Box::new(x)))
            }
            _ => self.parse_postfix(),
        };
        self.depth -= 1;
        e
    }

    fn parse_postfix(&mut self) -> Result<Expr, EngineError> {
        let mut e = self.parse_primary()?;
        let mut grown = 0usize;
        let mut status = Ok(());
        while self.peek() == Some(&Token::Percent) {
            self.next();
            // Like the binary loop: `1%%%…` deepens the tree iteratively.
            grown += 1;
            if let Err(err) = self.deeper() {
                status = Err(err);
                break;
            }
            e = Expr::Unary(UnaryOp::Percent, Box::new(e));
        }
        self.depth -= grown;
        status.map(|()| e)
    }

    fn parse_primary(&mut self) -> Result<Expr, EngineError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Str(s)) => Ok(Expr::Text(s.into())),
            Some(Token::ErrorLit(s)) => Ok(Expr::Error(parse_error_literal(s)?)),
            Some(Token::LParen) => {
                let e = self.parse_expr(0)?;
                self.expect(&Token::RParen, "to close parenthesized expression")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => self.parse_ident(name),
            other => Err(EngineError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    /// Disambiguates identifiers: function call (when followed by `(`),
    /// boolean literal, cell reference, or range reference.
    fn parse_ident(&mut self, name: &str) -> Result<Expr, EngineError> {
        if self.peek() == Some(&Token::LParen) {
            self.next();
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.parse_expr(0)?);
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.next();
                        }
                        _ => break,
                    }
                }
            }
            self.expect(&Token::RParen, "to close argument list")?;
            return Ok(Expr::Call(name.to_ascii_uppercase(), args));
        }
        if name.eq_ignore_ascii_case("TRUE") {
            return Ok(Expr::Bool(true));
        }
        if name.eq_ignore_ascii_case("FALSE") {
            return Ok(Expr::Bool(false));
        }
        let start = match CellRef::parse(name) {
            Ok(r) => r,
            Err(_) => {
                // Not a reference: try the named-range resolver.
                if let Some(range) = self.names.resolve(name) {
                    return Ok(if range.range().len() == 1 {
                        Expr::Ref(range.start)
                    } else {
                        Expr::RangeRef(range)
                    });
                }
                return Err(EngineError::Parse(format!("unknown name {name:?}")));
            }
        };
        if self.peek() == Some(&Token::Colon) {
            self.next();
            let end_tok = self.next();
            let Some(Token::Ident(end_name)) = end_tok else {
                return Err(EngineError::Parse(format!(
                    "expected reference after ':' in range, found {end_tok:?}"
                )));
            };
            let end = CellRef::parse(end_name)
                .map_err(|_| EngineError::Parse(format!("bad range end {end_name:?}")))?;
            return Ok(Expr::RangeRef(RangeRef { start, end }));
        }
        Ok(Expr::Ref(start))
    }
}

/// Maps error-literal spellings to [`CellError`] values.
fn parse_error_literal(s: &str) -> Result<CellError, EngineError> {
    CellError::from_code(s).ok_or_else(|| {
        EngineError::Parse(format!("unknown error literal {:?}", s.to_ascii_uppercase()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Range;

    fn p(s: &str) -> Expr {
        parse(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn parses_precedence() {
        // 1+2*3 parses as 1+(2*3)
        match p("1+2*3") {
            Expr::Binary(BinOp::Add, lhs, rhs) => {
                assert_eq!(*lhs, Expr::Number(1.0));
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pow_is_right_assoc() {
        // 2^3^2 parses as 2^(3^2)
        match p("2^3^2") {
            Expr::Binary(BinOp::Pow, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Pow, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn addsub_is_left_assoc() {
        // 10-4-3 parses as (10-4)-3
        match p("10-4-3") {
            Expr::Binary(BinOp::Sub, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Sub, _, _)));
                assert_eq!(*rhs, Expr::Number(3.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_binds_loosest() {
        // A1+1 = B1*2 parses as (A1+1) = (B1*2)
        match p("A1+1=B1*2") {
            Expr::Binary(BinOp::Eq, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Add, _, _)));
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_function_calls() {
        match p(r#"COUNTIF(K2:K500000,1)"#) {
            Expr::Call(name, args) => {
                assert_eq!(name, "COUNTIF");
                assert_eq!(args.len(), 2);
                match &args[0] {
                    Expr::RangeRef(r) => {
                        assert_eq!(r.range(), Range::parse("K2:K500000").unwrap())
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_names_are_uppercased() {
        match p("sum(A1:A3)") {
            Expr::Call(name, _) => assert_eq!(name, "SUM"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nullary_and_nested_calls() {
        assert_eq!(p("PI()"), Expr::Call("PI".into(), vec![]));
        match p("IF(A1>0,SUM(B1:B9),0)") {
            Expr::Call(name, args) => {
                assert_eq!(name, "IF");
                assert!(matches!(args[1], Expr::Call(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn log10_is_function_when_called_and_ref_otherwise() {
        assert!(matches!(p("LOG10(100)"), Expr::Call(_, _)));
        // LOG10 not followed by '(' is the cell at column LOG row 10.
        assert!(matches!(p("LOG10"), Expr::Ref(_)));
    }

    #[test]
    fn parses_booleans() {
        assert_eq!(p("TRUE"), Expr::Bool(true));
        assert_eq!(p("false"), Expr::Bool(false));
    }

    #[test]
    fn parses_unary_chain() {
        assert_eq!(
            p("--2"),
            Expr::Unary(
                UnaryOp::Neg,
                Box::new(Expr::Unary(UnaryOp::Neg, Box::new(Expr::Number(2.0))))
            )
        );
    }

    #[test]
    fn parses_percent_postfix() {
        assert_eq!(p("50%"), Expr::Unary(UnaryOp::Percent, Box::new(Expr::Number(50.0))));
    }

    #[test]
    fn parses_error_literals() {
        assert_eq!(p("#N/A"), Expr::Error(CellError::Na));
        assert_eq!(p("IFERROR(#DIV/0!,0)").node_count(), 3);
    }

    #[test]
    fn parses_absolute_range() {
        match p("SUM($A$1:A10)") {
            Expr::Call(_, args) => match &args[0] {
                Expr::RangeRef(r) => {
                    assert!(r.start.abs_row && r.start.abs_col);
                    assert!(!r.end.abs_row && !r.end.abs_col);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "1+", "SUM(", "SUM(1,", "(1", "1)", "FOO", "A1:", "A1:2", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_parens_fail_cleanly() {
        // 10k nested parentheses must not blow the stack: the parser
        // bails with the dedicated error once MAX_FORMULA_DEPTH is hit.
        let src = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
        assert_eq!(parse(&src), Err(EngineError::FormulaTooDeep));
    }

    #[test]
    fn deep_chains_fail_cleanly() {
        // Left-leaning shapes are built iteratively, so without explicit
        // accounting they would parse into trees too deep for the
        // recursive consumers downstream. Both chain kinds must hit the
        // same limit as nested parentheses.
        let chain = format!("1{}", "+1".repeat(10_000));
        assert_eq!(parse(&chain), Err(EngineError::FormulaTooDeep));
        let percents = format!("1{}", "%".repeat(10_000));
        assert_eq!(parse(&percents), Err(EngineError::FormulaTooDeep));
        let negs = format!("{}1", "-".repeat(10_000));
        assert_eq!(parse(&negs), Err(EngineError::FormulaTooDeep));
    }

    #[test]
    fn near_limit_depth_still_parses() {
        let deep = format!("{}1{}", "(".repeat(400), ")".repeat(400));
        assert!(parse(&deep).is_ok());
        let chain = format!("1{}", "+1".repeat(400));
        assert!(parse(&chain).is_ok());
        // The counter must unwind correctly between sibling subtrees: many
        // shallow arguments in sequence stay far below the limit even when
        // their total node count is large.
        let args = vec!["(1+2)"; 300].join(",");
        assert!(parse(&format!("SUM({args})")).is_ok());
    }

    #[test]
    fn string_concat_parses() {
        match p(r#"A1&" storms""#) {
            Expr::Binary(BinOp::Concat, _, rhs) => {
                assert_eq!(*rhs, Expr::Text(" storms".into()))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
