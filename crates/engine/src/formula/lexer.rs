//! The formula lexer. Splits `=COUNTIF(K2:K500000,1)` (without the leading
//! `=`, which the cell layer strips) into tokens.
//!
//! Tokens borrow from the source text: an identifier or an error literal is
//! a slice of it, and a string literal is one too unless it holds an escaped
//! quote (`""`), the only spelling that has to be rewritten. `Lexer` hands
//! them out one at a time, so a consumer that only needs to *look* at a
//! formula — the bulk load's template key, `r1c1::token_key`, which runs
//! once per formula cell of a document — allocates nothing; the parser
//! collects them with [`lex`].

use std::borrow::Cow;

use crate::error::{CellError, EngineError};

/// A lexical token, borrowing from the formula text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// A numeric literal.
    Number(f64),
    /// A double-quoted string literal (quotes removed, `""` unescaped).
    Str(Cow<'a, str>),
    /// An identifier-like run: function name, `TRUE`/`FALSE`, or a cell
    /// reference candidate such as `$B$7`. Disambiguated by the parser.
    Ident(&'a str),
    /// An error literal such as `#N/A` or `#DIV/0!`.
    ErrorLit(&'a str),
    LParen,
    RParen,
    Comma,
    Colon,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Amp,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Lexes a formula body into tokens.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, EngineError> {
    Lexer::new(input).collect()
}

/// The tokens of a formula body, in order. Yields the first lexical error
/// in place of the offending token and nothing after it.
#[derive(Debug, Clone)]
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// The token starting at `self.pos` (not whitespace, not the end).
    fn token(&mut self) -> Result<Token<'a>, EngineError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let i = self.pos;
        let (token, next) = match bytes[i] {
            b'(' => (Token::LParen, i + 1),
            b')' => (Token::RParen, i + 1),
            b',' => (Token::Comma, i + 1),
            b':' => (Token::Colon, i + 1),
            b'+' => (Token::Plus, i + 1),
            b'-' => (Token::Minus, i + 1),
            b'*' => (Token::Star, i + 1),
            b'/' => (Token::Slash, i + 1),
            b'^' => (Token::Caret, i + 1),
            b'&' => (Token::Amp, i + 1),
            b'%' => (Token::Percent, i + 1),
            b'=' => (Token::Eq, i + 1),
            b'<' => match bytes.get(i + 1) {
                Some(b'>') => (Token::Ne, i + 2),
                Some(b'=') => (Token::Le, i + 2),
                _ => (Token::Lt, i + 1),
            },
            b'>' => match bytes.get(i + 1) {
                Some(b'=') => (Token::Ge, i + 2),
                _ => (Token::Gt, i + 1),
            },
            b'"' => {
                let (s, next) = lex_string(input, i)?;
                (Token::Str(s), next)
            }
            b'#' => {
                let (s, next) = lex_error_literal(input, i);
                (Token::ErrorLit(s), next)
            }
            b'0'..=b'9' | b'.' => {
                let (n, next) = lex_number(input, i)?;
                (Token::Number(n), next)
            }
            b'$' | b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut j = i + 1;
                while let Some(b'$' | b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.') =
                    bytes.get(j)
                {
                    j += 1;
                }
                (Token::Ident(&input[i..j]), j)
            }
            other => {
                return Err(EngineError::Parse(format!(
                    "unexpected character {:?} at offset {i}",
                    other as char
                )))
            }
        };
        self.pos = next;
        Ok(token)
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.input.as_bytes();
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = bytes.get(self.pos) {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return None;
        }
        let token = self.token();
        if token.is_err() {
            self.pos = bytes.len();
        }
        Some(token)
    }
}

/// Lexes a string literal starting at the opening quote; `""` inside a
/// string is an escaped quote. Returns the contents — the source slice
/// itself unless an escape had to be rewritten — and the index past the
/// closing quote.
fn lex_string(input: &str, start: usize) -> Result<(Cow<'_, str>, usize), EngineError> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[start], b'"');
    let mut escaped = false;
    let mut i = start + 1;
    // A quote byte is never part of a multi-byte character, so the byte
    // scan splits the text on character boundaries.
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
        } else if bytes.get(i + 1) == Some(&b'"') {
            escaped = true;
            i += 2;
        } else {
            let raw = &input[start + 1..i];
            let text = if escaped { Cow::Owned(raw.replace("\"\"", "\"")) } else { Cow::Borrowed(raw) };
            return Ok((text, i + 1));
        }
    }
    Err(EngineError::Parse("unterminated string literal".into()))
}

/// Lexes `#N/A`, `#DIV/0!`, `#REF!` and friends: the error code the text
/// starts with, in either case, so that an operator may follow (`#N/A/2`
/// divides). Text that starts with no code is lexed as `#` followed by
/// letters, digits, `/`, `?`, `!`, for the parser to report as unknown.
fn lex_error_literal(input: &str, start: usize) -> (&str, usize) {
    let bytes = input.as_bytes();
    let rest = &bytes[start..];
    let code = CellError::ALL.iter().map(|e| e.code().as_bytes()).find(|code| {
        rest.get(..code.len()).is_some_and(|head| head.eq_ignore_ascii_case(code))
    });
    if let Some(code) = code {
        return (&input[start..start + code.len()], start + code.len());
    }
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'/' | b'?' | b'!' => i += 1,
            _ => break,
        }
    }
    (&input[start..i], i)
}

/// Lexes a number: digits, optional fraction, optional exponent.
fn lex_number(input: &str, start: usize) -> Result<(f64, usize), EngineError> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    text.parse::<f64>()
        .map(|n| (n, i))
        .map_err(|_| EngineError::Parse(format!("bad number literal {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_simple_arithmetic() {
        let t = lex("1+2*3").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Number(1.0),
                Token::Plus,
                Token::Number(2.0),
                Token::Star,
                Token::Number(3.0)
            ]
        );
    }

    #[test]
    fn lex_function_call_with_range() {
        let t = lex("SUM(A1:A3)").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("SUM".into()),
                Token::LParen,
                Token::Ident("A1".into()),
                Token::Colon,
                Token::Ident("A3".into()),
                Token::RParen
            ]
        );
    }

    #[test]
    fn lex_comparison_operators() {
        let t = lex("A1<>B1<=C1>=D1").unwrap();
        assert!(t.contains(&Token::Ne));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
    }

    #[test]
    fn lex_strings_with_escapes() {
        let t = lex(r#"COUNTIF(C2,"STORM")"#).unwrap();
        assert!(t.contains(&Token::Str("STORM".into())));
        let t = lex(r#""say ""hi""""#).unwrap();
        assert_eq!(t, vec![Token::Str("say \"hi\"".into())]);
    }

    #[test]
    fn tokens_borrow_from_the_source() {
        let src = r#"sum(a1,"plain","esc""aped",#n/a)"#;
        let tokens = lex(src).unwrap();
        let within = |s: &str| src.as_bytes().as_ptr_range().contains(&s.as_ptr());
        match (&tokens[0], &tokens[2], &tokens[4], &tokens[6], &tokens[8]) {
            (
                Token::Ident(name),
                Token::Ident(cell),
                Token::Str(Cow::Borrowed(plain)),
                Token::Str(Cow::Owned(escaped)),
                Token::ErrorLit(err),
            ) => {
                // As written: case is the parser's business.
                assert_eq!((*name, *cell, *plain, *err), ("sum", "a1", "plain", "#n/a"));
                assert!(within(name) && within(cell) && within(plain) && within(err));
                // Only an escaped quote forces a copy.
                assert_eq!(escaped, "esc\"aped");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lexer_yields_the_first_error_and_stops() {
        let mut lexer = Lexer::new(" 1 @ 2");
        assert_eq!(lexer.next(), Some(Ok(Token::Number(1.0))));
        assert!(matches!(lexer.next(), Some(Err(EngineError::Parse(_)))));
        assert_eq!(lexer.next(), None);
        assert_eq!(Lexer::new(" \t\r\n").next(), None);
    }

    #[test]
    fn lex_unterminated_string_errors() {
        assert!(lex(r#""oops"#).is_err());
    }

    #[test]
    fn lex_numbers() {
        let t = lex("3.25 1e3 2.5E-2 .5").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Number(3.25),
                Token::Number(1000.0),
                Token::Number(0.025),
                Token::Number(0.5)
            ]
        );
    }

    #[test]
    fn lex_absolute_refs() {
        let t = lex("$B$7+C3").unwrap();
        assert_eq!(t[0], Token::Ident("$B$7".into()));
        assert_eq!(t[2], Token::Ident("C3".into()));
    }

    #[test]
    fn lex_error_literals() {
        let t = lex("#N/A").unwrap();
        assert_eq!(t, vec![Token::ErrorLit("#N/A".into())]);
        let t = lex("#DIV/0!").unwrap();
        assert_eq!(t, vec![Token::ErrorLit("#DIV/0!".into())]);
    }

    /// An error literal ends where its code does: the printer writes
    /// `#VALUE!/2` for a division, and it used to lex as one unknown
    /// literal (found by `printed_trees_parse_back_unchanged_alone_and_in_a_document`).
    #[test]
    fn an_error_literal_ends_where_its_code_does() {
        let t = lex("#VALUE!/2").unwrap();
        assert_eq!(t, vec![Token::ErrorLit("#VALUE!"), Token::Slash, Token::Number(2.0)]);
        let t = lex("#n/a/#DIV/0!").unwrap();
        assert_eq!(t, vec![Token::ErrorLit("#n/a"), Token::Slash, Token::ErrorLit("#DIV/0!")]);
        let t = lex("#NAME?&A1").unwrap();
        assert_eq!(t, vec![Token::ErrorLit("#NAME?"), Token::Amp, Token::Ident("A1")]);
        // No code at all: one literal, for the parser to reject.
        assert_eq!(lex("#NOPE!/2").unwrap()[0], Token::ErrorLit("#NOPE!/2"));
    }

    #[test]
    fn lex_percent_and_concat() {
        let t = lex(r#"50% & "x""#).unwrap();
        assert_eq!(t, vec![Token::Number(50.0), Token::Percent, Token::Amp, Token::Str("x".into())]);
    }

    #[test]
    fn lex_rejects_unknown_chars() {
        assert!(lex("A1 @ B2").is_err());
    }

    #[test]
    fn lex_unicode_in_strings() {
        let t = lex("\"naïve ☃\"").unwrap();
        assert_eq!(t, vec![Token::Str("naïve ☃".into())]);
    }
}
