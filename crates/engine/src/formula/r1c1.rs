//! R1C1-relative reference normalization.
//!
//! A fill-down column like `=A2*2+$E$1` copied over 500k rows is one
//! *template* instantiated at 500k origins: every copy has the same
//! R1C1-relative spelling (`RC[-3]*2+R1C5`). Normalizing a formula to that
//! spelling — relative axes as signed offsets from the evaluating cell,
//! absolute axes pinned — yields the key under which the compiler caches
//! one program per template instead of one per cell (Tyszkiewicz's
//! template view of spreadsheet programs; ISSUE 4).

use std::fmt;
use std::fmt::Write;

use crate::addr::{CellAddr, CellRef};
use crate::formula::ast::{Expr, RangeRef, UnaryOp};
use crate::formula::lexer::{Lexer, Token};
use crate::grid::{MAX_COLS, MAX_ROWS};
use crate::value::format_number;

/// One axis of a normalized reference: a signed offset from the evaluating
/// cell (relative) or a pinned zero-based coordinate (absolute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Relative: `coordinate = evaluating cell + offset`.
    Rel(i64),
    /// Absolute: the coordinate itself, zero-based.
    Abs(u32),
}

impl Axis {
    fn new(coord: u32, absolute: bool, origin: u32) -> Axis {
        if absolute {
            Axis::Abs(coord)
        } else {
            Axis::Rel(i64::from(coord) - i64::from(origin))
        }
    }

    /// Resolves the axis against the evaluating cell's coordinate; `None`
    /// when a relative offset lands off the sheet.
    pub fn resolve(self, at: u32) -> Option<u32> {
        match self {
            Axis::Abs(c) => Some(c),
            Axis::Rel(d) => {
                let c = i64::from(at) + d;
                u32::try_from(c).ok()
            }
        }
    }

    fn write(self, out: &mut impl Write, letter: char) -> fmt::Result {
        match self {
            // Classic R1C1 spells absolutes 1-based (`R1` is the first row).
            Axis::Abs(c) => write!(out, "{letter}{}", u64::from(c) + 1),
            Axis::Rel(0) => write!(out, "{letter}"),
            Axis::Rel(d) => write!(out, "{letter}[{d}]"),
        }
    }
}

/// A cell reference normalized to R1C1 form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefSpec {
    pub row: Axis,
    pub col: Axis,
}

impl RefSpec {
    /// Normalizes `r` as written in a formula anchored at `origin`.
    pub fn from_ref(r: CellRef, origin: CellAddr) -> RefSpec {
        RefSpec {
            row: Axis::new(r.addr.row, r.abs_row, origin.row),
            col: Axis::new(r.addr.col, r.abs_col, origin.col),
        }
    }

    /// Resolves back to a concrete address at the evaluating cell `at`.
    /// Inverse of [`RefSpec::from_ref`]: resolving at the anchoring origin
    /// reproduces the original address exactly.
    pub fn resolve(self, at: CellAddr) -> Option<CellAddr> {
        Some(CellAddr::new(self.row.resolve(at.row)?, self.col.resolve(at.col)?))
    }
}

impl fmt::Display for RefSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.row.write(f, 'R')?;
        self.col.write(f, 'C')
    }
}

/// A range reference normalized to R1C1 form (per-corner specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeSpec {
    pub start: RefSpec,
    pub end: RefSpec,
}

impl RangeSpec {
    /// Normalizes `r` anchored at `origin`.
    pub fn from_range(r: &RangeRef, origin: CellAddr) -> RangeSpec {
        RangeSpec {
            start: RefSpec::from_ref(r.start, origin),
            end: RefSpec::from_ref(r.end, origin),
        }
    }
}

impl fmt::Display for RangeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.start, self.end)
    }
}

/// Renders `expr`, anchored at `origin`, in canonical R1C1-relative form.
/// Two formulas produce the same string iff they are copies of one template
/// (same shape, same literals, references at the same relative offsets /
/// absolute pins), which is exactly the equivalence class the program cache
/// keys on.
pub fn normalize(expr: &Expr, origin: CellAddr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, origin, 0);
    out
}

/// Mirrors `printer::write_expr` (same minimal-parenthesization rules) with
/// references spelled in R1C1.
fn write_expr(out: &mut String, expr: &Expr, origin: CellAddr, min_prec: u8) {
    match expr {
        Expr::Number(n) => {
            let _ = write!(out, "{}", format_number(*n));
        }
        Expr::Text(s) => {
            let _ = write!(out, "\"{}\"", s.replace('"', "\"\""));
        }
        Expr::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Expr::Error(e) => out.push_str(e.code()),
        Expr::Ref(r) => {
            let _ = write!(out, "{}", RefSpec::from_ref(*r, origin));
        }
        Expr::RangeRef(r) => {
            let _ = write!(out, "{}", RangeSpec::from_range(r, origin));
        }
        Expr::Unary(op, inner) => match op {
            UnaryOp::Neg => {
                out.push('-');
                write_expr(out, inner, origin, UNARY_PREC);
            }
            UnaryOp::Pos => {
                out.push('+');
                write_expr(out, inner, origin, UNARY_PREC);
            }
            UnaryOp::Percent => {
                write_expr(out, inner, origin, UNARY_PREC);
                out.push('%');
            }
        },
        Expr::Binary(op, a, b) => {
            let prec = op.precedence();
            let wrap = prec < min_prec;
            if wrap {
                out.push('(');
            }
            let (lmin, rmin) =
                if op.right_assoc() { (prec + 1, prec) } else { (prec, prec + 1) };
            write_expr(out, a, origin, lmin);
            out.push_str(op.symbol());
            write_expr(out, b, origin, rmin);
            if wrap {
                out.push(')');
            }
        }
        Expr::Call(name, args) => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_expr(out, a, origin, 0);
            }
            out.push(')');
        }
    }
}

const UNARY_PREC: u8 = 6;

/// Appends to `key` the *template key* of the formula body `src` as
/// written at `at`: its token stream, with every cell-reference token
/// respelled relative to `at` exactly as [`RefSpec::from_ref`] would —
/// `$` markers, offsets and pins included — and case folded where the
/// parser folds it. Two texts with equal keys parse to expressions that
/// are [`Expr::adjusted`] copies of one another between their two cells,
/// and so [`normalize`] to one program-cache key: the bulk load parses the
/// first, instantiates the rest, and lets them share its program
/// (`compile::OpenTemplates`). Nothing is allocated beyond `key` itself.
///
/// Returns `false`, with `key` in an unspecified state, when the text is
/// not safely a template: it does not lex, it names something that is
/// neither a reference, a boolean nor a function (a defined name — or a
/// mistake the parser will report), or a reference lies past the engine's
/// limits. The caller parses such a text on its own.
///
/// An identifier followed by `(` is a function name whatever it looks
/// like — `LOG10(` is a call, not column `LOG` — and is keyed as written.
pub(crate) fn token_key(src: &str, at: CellAddr, key: &mut Vec<u8>) -> bool {
    fn push_text(key: &mut Vec<u8>, tag: u8, text: &str, fold_case: bool) {
        key.push(tag);
        key.extend_from_slice(&(text.len() as u64).to_le_bytes());
        let start = key.len();
        key.extend_from_slice(text.as_bytes());
        if fold_case {
            key[start..].make_ascii_uppercase();
        }
    }
    let mut tokens = Lexer::new(src).peekable();
    while let Some(token) = tokens.next() {
        let Ok(token) = token else { return false };
        // Every payload carries its length, so the encoding is prefix-free.
        key.push(match token {
            Token::Number(n) => {
                key.push(b'n');
                key.extend_from_slice(&n.to_bits().to_le_bytes());
                continue;
            }
            Token::Str(s) => {
                push_text(key, b's', &s, false);
                continue;
            }
            Token::ErrorLit(s) => {
                push_text(key, b'e', s, true);
                continue;
            }
            Token::Ident(name) => {
                let call = matches!(tokens.peek(), Some(Ok(Token::LParen)));
                if call
                    || name.eq_ignore_ascii_case("TRUE")
                    || name.eq_ignore_ascii_case("FALSE")
                {
                    push_text(key, b'i', name, true);
                    continue;
                }
                let Ok(r) = CellRef::parse(name) else { return false };
                if r.addr.row >= MAX_ROWS || r.addr.col >= MAX_COLS {
                    return false;
                }
                let spec = RefSpec::from_ref(r, at);
                key.push(b'r');
                for axis in [spec.row, spec.col] {
                    let (pinned, n) = match axis {
                        Axis::Abs(c) => (1, i64::from(c)),
                        Axis::Rel(d) => (0, d),
                    };
                    key.push(pinned);
                    key.extend_from_slice(&n.to_le_bytes());
                }
                continue;
            }
            Token::LParen => b'(',
            Token::RParen => b')',
            Token::Comma => b',',
            Token::Colon => b':',
            Token::Plus => b'+',
            Token::Minus => b'-',
            Token::Star => b'*',
            Token::Slash => b'/',
            Token::Caret => b'^',
            Token::Amp => b'&',
            Token::Percent => b'%',
            Token::Eq => b'=',
            Token::Ne => b'!',
            Token::Lt => b'<',
            Token::Le => b'l',
            Token::Gt => b'>',
            Token::Ge => b'g',
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::parse;

    fn at(a1: &str) -> CellAddr {
        CellAddr::parse(a1).unwrap()
    }

    fn norm(src: &str, origin: &str) -> String {
        normalize(&parse(src).unwrap(), at(origin))
    }

    #[test]
    fn relative_and_absolute_axes() {
        // Anchored at D2: A2 is 3 columns left, same row; $E$1 is pinned.
        assert_eq!(norm("A2*2+$E$1", "D2"), "RC[-3]*2+R1C5");
        // Mixed anchors keep exactly the absolute axis pinned.
        assert_eq!(norm("A$1+$A1", "B2"), "R1C[-1]+R[-1]C1");
    }

    #[test]
    fn fill_down_copies_share_a_template() {
        let origin = at("D2");
        let e = parse("A2*2+$E$1").unwrap();
        let key = normalize(&e, origin);
        for row in [2u32, 9, 499_999] {
            let to = CellAddr::new(row, origin.col);
            let copy = e.adjusted(origin, to);
            assert_eq!(normalize(&copy, to), key, "row {row}");
        }
    }

    #[test]
    fn cross_column_copies_differ_only_when_refs_do() {
        // A fill-*right* of a column-relative formula is also one template.
        let origin = at("B1");
        let e = parse("A1+1").unwrap();
        let copy = e.adjusted(origin, at("C1"));
        assert_eq!(normalize(&e, origin), normalize(&copy, at("C1")));
        // But two different formulas never collide.
        assert_ne!(norm("A1+1", "B1"), norm("A1+2", "B1"));
        assert_ne!(norm("A1+1", "B1"), norm("A1+1", "B2")); // offset differs
    }

    #[test]
    fn spec_resolution_round_trips() {
        let origin = at("D7");
        for src in ["A1", "$A1", "A$1", "$A$1", "C7", "Z99"] {
            let r = CellRef::parse(src).unwrap();
            let spec = RefSpec::from_ref(r, origin);
            assert_eq!(spec.resolve(origin), Some(r.addr), "{src}");
        }
    }

    #[test]
    fn off_sheet_resolution_is_none() {
        let spec = RefSpec::from_ref(CellRef::parse("A1").unwrap(), at("B2"));
        // Offset is (-1, -1); resolving at A1 walks off the sheet.
        assert_eq!(spec.resolve(at("A1")), None);
        assert_eq!(spec.resolve(at("B2")), Some(at("A1")));
    }

    #[test]
    fn ranges_and_calls_normalize() {
        assert_eq!(norm("SUM(J1:J100)", "K1"), "SUM(RC[-1]:R[99]C[-1])");
        assert_eq!(norm("SUM($J$1:$J$100)", "K1"), "SUM(R1C10:R100C10)");
        assert_eq!(norm("IF(A1>0,\"hi\",#N/A)", "A2"), "IF(R[-1]C>0,\"hi\",#N/A)");
    }

    fn key(src: &str, origin: &str) -> Option<Vec<u8>> {
        let mut key = Vec::new();
        token_key(src, at(origin), &mut key).then_some(key)
    }

    #[test]
    fn token_keys_agree_exactly_when_normalized_parses_do() {
        // Every pair of (text, cell): the keys are equal iff the R1C1
        // normalizations of the parsed texts are.
        let cases = [
            ("A2*2+$E$1", "D2"),
            ("A3*2+$E$1", "D3"),
            ("a3 * 2 + $e$1", "D3"),
            ("A3*2+$E$2", "D3"),
            ("A3*2+E$1", "D3"),
            ("A3*2+$E1", "D3"),
            ("A3*2+E1", "D3"),
            ("A3*3+$E$1", "D3"),
            ("A3*2+$E$1", "E3"),
            ("SUM(J1:J100)", "K1"),
            ("sum( j2 : j101 )", "K2"),
            ("SUM(J2:J100)", "K2"),
            ("COUNTIF(C2,\"STORM\")", "K2"),
            ("COUNTIF(C3,\"STORM\")", "K3"),
            ("COUNTIF(C3,\"storm\")", "K3"),
            ("COUNTIF(C3,\"ST\"\"ORM\")", "K3"),
            ("IF(A1>=1000,TRUE,#N/A)", "B1"),
            ("if(a2>=1e3,true,#n/a)", "B2"),
            ("IF(A2>1000,TRUE,#N/A)", "B2"),
            ("LOG10(A1)", "B1"),
            ("LOG10(A2)", "B2"),
            ("LOG11(A2)", "B2"),
            ("LOG10", "B1"),
            ("LOG11", "B2"),
            ("-A1%", "B1"),
            ("-A1", "B1"),
        ];
        for (i, (a, at_a)) in cases.iter().enumerate() {
            for (b, at_b) in &cases[i..] {
                let same_template = norm(a, at_a) == norm(b, at_b);
                assert_eq!(
                    key(a, at_a).unwrap() == key(b, at_b).unwrap(),
                    same_template,
                    "{a} at {at_a} vs {b} at {at_b}"
                );
            }
        }
    }

    #[test]
    fn token_key_declines_what_it_cannot_vouch_for() {
        assert!(key("SUM(Scores)", "A1").is_none(), "a name");
        assert!(key("A1.5", "A1").is_none(), "neither a name nor a reference");
        assert!(key("A1 @ B1", "A1").is_none(), "does not lex");
        assert!(key("\"open", "A1").is_none(), "does not lex");
        assert!(key("A1073741825", "A1").is_none(), "row past MAX_ROWS");
        assert!(key("A1073741824", "A1").is_some(), "the last row");
        assert!(key("ZZZZZ1", "A1").is_none(), "column past MAX_COLS");
        // What parses badly still has a key: the parser reports it.
        assert!(key("1+", "A1").is_some());
        assert!(key("", "A1").is_some());
    }

    #[test]
    fn parenthesization_matches_canonical_printer() {
        assert_eq!(norm("(1+2)*3", "A1"), "(1+2)*3");
        assert_eq!(norm("10-(4-3)", "A1"), "10-(4-3)");
        assert_eq!(norm("2^(3^2)", "A1"), "2^3^2");
    }
}
