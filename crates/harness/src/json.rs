//! JSON, as much of it as the harness needs: the [`Json`] value tree and
//! its text codec — [`parse`], [`render`], [`render_pretty`]. Every
//! document the workspace writes or reads (`results/figN.json`, the Chrome
//! trace, the oracle's corpus scripts, `cargo metadata` in a test) goes
//! through these three functions; each document type spells its own
//! `to_json` / `from_json` by hand against the tree. There is no
//! serialization framework here: no traits, no derive, std only.
//!
//! Output is valid JSON: non-finite floats render as `null`, strings are
//! escaped per RFC 8259.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An unsigned integer, kept exactly: [`parse`] yields it for every
    /// literal of digits alone that fits a `u64`, so a 64-bit seed survives
    /// the round trip an `f64` would round.
    Int(u64),
    /// Every other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (field order = declaration order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in the order given.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, when this is an unsigned integer literal. A negative,
    /// fractional, exponent-form or larger-than-`u64` number is `None`: a
    /// reader of counts and indices rejects it instead of rounding it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// A one-word description of the value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Why a text is not JSON, or a tree is not the document a reader expected.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Renders `json` as compact JSON.
pub fn render(json: &Json) -> String {
    let mut out = String::new();
    write_json(json, None, 0, &mut out);
    out
}

/// Renders `json` as human-readable JSON (two-space indent).
pub fn render_pretty(json: &Json) -> String {
    let mut out = String::new();
    write_json(json, Some(2), 0, &mut out);
    out
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Json> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    parser.skip_ws();
    let json = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(json)
}

// --- rendering ----------------------------------------------------------

fn write_json(json: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_json(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(value, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // Integral values render without a fractional part.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parsing ------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => {
                Err(Error(format!("unexpected character `{}` at byte {}", b as char, self.pos)))
            }
            None => Err(Error("unexpected end of input".into())),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid keyword at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Digits alone are an integer, exact while a `u64` holds them.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| Error(format!("invalid number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("invalid \\u escape".into()))?;
                            // Surrogate pairs are not produced by our own
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid UTF-8 in string".into()))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let json = Json::obj([
            ("name", Json::str("fig2")),
            ("n", Json::Num(100000.0)),
            ("ms", Json::Num(3.25)),
            ("tags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(render(&json), r#"{"name":"fig2","n":100000,"ms":3.25,"tags":[true,null]}"#);
        assert!(render_pretty(&json).contains("\n  \"name\": \"fig2\""));
    }

    #[test]
    fn parses_round_trip() {
        let text = r#" { "a" : [1, -2.5, "x\ny", {"b": false}], "c": null } "#;
        let json = parse(text).unwrap();
        let a = json.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Num(-2.5));
        assert_eq!(a[2].as_str(), Some("x\ny"));
        assert_eq!(a[3].get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("c"), Some(&Json::Null));
        let pairs = parse(r#"[["k","v"],["k2","v2"]]"#).unwrap();
        assert_eq!(pairs.as_arr().unwrap()[1].as_arr().unwrap()[1].as_str(), Some("v2"));
        assert_eq!(parse(&render(&json)).unwrap(), json);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("[1, 2").is_err());
        assert!(parse("[1] tail").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escapes_survive_round_trip() {
        let original = "quote\" slash\\ nl\n tab\t ctl\u{1} unicode\u{1F600}";
        let text = render(&Json::str(original));
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
    }

    #[test]
    fn integer_literals_are_exact_and_nothing_else_is_an_integer() {
        for n in [0, 42, (1 << 53) + 1, u64::MAX] {
            let text = render(&Json::Int(n));
            assert_eq!(text, n.to_string());
            assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
        }
        // One past `u64::MAX` is still a number, but not an integer.
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        for text in ["-1", "1.5", "1e99", "2.0"] {
            let json = parse(text).unwrap();
            assert_eq!(json.kind(), "number", "{text}");
            assert_eq!(json.as_u64(), None, "{text}");
        }
    }
}
