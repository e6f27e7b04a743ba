//! The spreadsheet value model: dynamically-typed cell values with the
//! coercion and comparison semantics shared by Excel, Calc, and Sheets.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::CellError;

/// A cell value. Numbers are IEEE-754 doubles, as in all three benchmarked
/// systems; dates and percentages are numbers with display styles and do not
/// need distinct runtime representations for the benchmark workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The empty cell. Treated as 0 in arithmetic and "" in text contexts.
    Empty,
    /// A floating-point number.
    Number(f64),
    /// A text string. Shared via `Arc` so evaluating a text literal (or
    /// copying a text value between cells) is a refcount bump, not a heap
    /// allocation.
    Text(Arc<str>),
    /// A boolean (`TRUE`/`FALSE`).
    Bool(bool),
    /// An in-cell error value.
    Error(CellError),
}

impl Value {
    /// Text constructor convenience.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// An arithmetic result: `Number(n)` when `n` is finite, `#NUM!` when
    /// it overflowed to an infinity or is NaN — no cell stores either.
    pub fn num(n: f64) -> Self {
        if n.is_finite() {
            Value::Number(n)
        } else {
            Value::Error(CellError::Num)
        }
    }

    /// True if the value is `Empty`.
    pub fn is_empty(&self) -> bool {
        matches!(self, Value::Empty)
    }

    /// True if the value is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Error(_))
    }

    /// Returns the contained number if this is `Number`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Coerces to a number following spreadsheet rules:
    /// numbers pass through, booleans are 1/0, empty is 0, numeric-looking
    /// text parses, other text is a `#VALUE!` error.
    pub fn coerce_number(&self) -> Result<f64, CellError> {
        match self {
            Value::Number(n) => Ok(*n),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            Value::Empty => Ok(0.0),
            Value::Text(s) => parse_number(s).ok_or(CellError::Value),
            Value::Error(e) => Err(*e),
        }
    }

    /// Coerces to a boolean: booleans pass through, numbers are `!= 0`,
    /// `"TRUE"`/`"FALSE"` text parses (case-insensitive), empty is false.
    pub fn coerce_bool(&self) -> Result<bool, CellError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Number(n) => Ok(*n != 0.0),
            Value::Empty => Ok(false),
            Value::Text(s) => match s.trim().to_ascii_uppercase().as_str() {
                "TRUE" => Ok(true),
                "FALSE" => Ok(false),
                _ => Err(CellError::Value),
            },
            Value::Error(e) => Err(*e),
        }
    }

    /// Coerces to display text (numbers render trim-trailing-zero style,
    /// booleans as `TRUE`/`FALSE`, empty as `""`).
    pub fn coerce_text(&self) -> Result<String, CellError> {
        match self {
            Value::Error(e) => Err(*e),
            other => Ok(other.display()),
        }
    }

    /// The user-visible rendering of the value.
    pub fn display(&self) -> String {
        match self {
            Value::Empty => String::new(),
            Value::Number(n) => format_number(*n),
            Value::Text(s) => s.to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_owned(),
            Value::Error(e) => e.code().to_owned(),
        }
    }

    /// Spreadsheet comparison semantics used by sort and by the comparison
    /// operators: numbers < text < booleans (Excel's total order); text
    /// compares case-insensitively; empty sorts before everything.
    ///
    /// Returns a total order (NaN is grouped with numbers, ordered last
    /// among them) so it can back a stable sort.
    pub fn sheet_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Empty => 0,
                Value::Number(_) => 1,
                Value::Text(_) => 2,
                Value::Bool(_) => 3,
                Value::Error(_) => 4,
            }
        }
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => {
                a.partial_cmp(b).unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    _ => Ordering::Equal,
                })
            }
            // Purely case-insensitive, consistent with `sheet_eq` (values
            // differing only in case compare Equal, as in the real
            // systems' default collation).
            (Value::Text(a), Value::Text(b)) => cmp_ignore_case(a, b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Error(a), Value::Error(b)) => a.code().cmp(b.code()),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Equality as used by `COUNTIF`/`VLOOKUP` exact match and the `=`
    /// operator: numeric equality for numbers, case-insensitive for text,
    /// and a number never equals its textual rendering (matching the
    /// benchmarked systems).
    pub fn sheet_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a.eq_ignore_ascii_case(b),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Empty, Value::Empty) => true,
            (Value::Error(a), Value::Error(b)) => a == b,
            _ => false,
        }
    }
}

/// `a.to_lowercase().cmp(&b.to_lowercase())` without the two `String`s
/// when both sides are ASCII (a text-key sort of m rows allocated
/// ~2·m·log m of them). On ASCII `to_lowercase` is `to_ascii_lowercase`
/// and `str` orders bytewise, so the result is the same.
fn cmp_ignore_case(a: &str, b: &str) -> Ordering {
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = (a.bytes(), b.bytes());
        a.map(|c| c.to_ascii_lowercase()).cmp(b.map(|c| c.to_ascii_lowercase()))
    } else {
        a.to_lowercase().cmp(&b.to_lowercase())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

/// Through [`Value::num`]: a non-finite `f64` becomes `#NUM!`.
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Number(f64::from(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Arc::from(s))
    }
}

impl From<CellError> for Value {
    fn from(e: CellError) -> Self {
        Value::Error(e)
    }
}

/// Parses text as a spreadsheet number. Unlike a bare `parse::<f64>()`,
/// the non-finite spellings Rust accepts (`"inf"`, `"-inf"`, `"infinity"`,
/// `"NaN"`) and overflowing literals (`"1e999"`) are rejected: the real
/// systems treat those as text or `#VALUE!`, and a grid must never hold a
/// non-finite number (it would poison `sheet_cmp`'s total order and every
/// downstream aggregate).
pub fn parse_number(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().filter(|n| n.is_finite())
}

/// What a cell text — typed into the formula bar or read from a document
/// — denotes, borrowing from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Input<'a> {
    /// `=…`: a formula; the body without its `=`.
    Formula(&'a str),
    /// A finite number, surrounding whitespace ignored.
    Number(f64),
    /// `TRUE` / `FALSE`, in either case, surrounding whitespace ignored.
    Bool(bool),
    /// An error value's display spelling (`#DIV/0!`), read like a boolean.
    Error(CellError),
    /// Anything else, as written — or whatever follows a leading `'`, the
    /// real systems' way of entering text that would otherwise read as one
    /// of the above (`'007`, `'=A1`).
    Text(&'a str),
}

/// Classifies a cell text; allocates nothing. The one set of rules behind
/// `Sheet::set_input` and the bulk load of `io::open`, and the one
/// `io::save` asks which text cells need their leading `'`.
pub(crate) fn classify(text: &str) -> Input<'_> {
    if let Some(body) = text.strip_prefix('=') {
        return Input::Formula(body);
    }
    if let Some(literal) = text.strip_prefix('\'') {
        return Input::Text(literal);
    }
    // The first character decides which reading is worth trying: a finite
    // number starts with a digit, a sign or a point (`inf` and `NaN` are
    // text, see [`parse_number`]), so plain words skip the float parser.
    let word = text.trim();
    let typed = match word.as_bytes().first() {
        Some(b'0'..=b'9' | b'+' | b'-' | b'.') => parse_number(word).map(Input::Number),
        Some(b't' | b'T') if word.eq_ignore_ascii_case("TRUE") => Some(Input::Bool(true)),
        Some(b'f' | b'F') if word.eq_ignore_ascii_case("FALSE") => Some(Input::Bool(false)),
        Some(b'#') => CellError::from_code(word).map(Input::Error),
        _ => None,
    };
    typed.unwrap_or(Input::Text(text))
}

/// Formats a number like spreadsheets do in the general format: integers
/// without a decimal point, others with up to ~15 significant digits and no
/// trailing zeros.
pub fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        s
    }
}

/// A criterion as accepted by `COUNTIF`/`SUMIF`: either a comparison
/// operator with an operand (`">=10"`, `"<>STORM"`) or a bare value matched
/// with `sheet_eq` (with text wildcards `*`/`?`, as in the real systems).
#[derive(Debug, Clone, PartialEq)]
pub enum Criterion {
    Eq(Value),
    Ne(Value),
    Lt(f64),
    Le(f64),
    Gt(f64),
    Ge(f64),
}

impl Criterion {
    /// Parses a criterion argument value. Text values may carry a leading
    /// comparison operator; any other value is an equality criterion.
    pub fn parse(arg: &Value) -> Criterion {
        if let Value::Text(s) = arg {
            let (op, rest): (&str, &str) = if let Some(r) = s.strip_prefix(">=") {
                (">=", r)
            } else if let Some(r) = s.strip_prefix("<=") {
                ("<=", r)
            } else if let Some(r) = s.strip_prefix("<>") {
                ("<>", r)
            } else if let Some(r) = s.strip_prefix('>') {
                (">", r)
            } else if let Some(r) = s.strip_prefix('<') {
                ("<", r)
            } else if let Some(r) = s.strip_prefix('=') {
                ("=", r)
            } else {
                ("", s)
            };
            let num = parse_number(rest);
            return match (op, num) {
                (">=", Some(n)) => Criterion::Ge(n),
                ("<=", Some(n)) => Criterion::Le(n),
                (">", Some(n)) => Criterion::Gt(n),
                ("<", Some(n)) => Criterion::Lt(n),
                ("<>", Some(n)) => Criterion::Ne(Value::Number(n)),
                ("<>", None) => Criterion::Ne(Value::text(rest)),
                ("=", Some(n)) => Criterion::Eq(Value::Number(n)),
                ("=", None) => Criterion::Eq(Value::text(rest)),
                ("", Some(n)) => Criterion::Eq(Value::Number(n)),
                _ => Criterion::Eq(Value::text(rest)),
            };
        }
        Criterion::Eq(arg.clone())
    }

    /// Whether `v` satisfies the criterion.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Criterion::Eq(target) => match target {
                Value::Text(pat) if pat.contains('*') || pat.contains('?') => match v {
                    Value::Text(s) => wildcard_match(pat, s),
                    _ => false,
                },
                _ => v.sheet_eq(target),
            },
            Criterion::Ne(target) => !v.sheet_eq(target),
            Criterion::Lt(n) => v.as_number().is_some_and(|x| x < *n),
            Criterion::Le(n) => v.as_number().is_some_and(|x| x <= *n),
            Criterion::Gt(n) => v.as_number().is_some_and(|x| x > *n),
            Criterion::Ge(n) => v.as_number().is_some_and(|x| x >= *n),
        }
    }
}

/// A [`Criterion`] compiled for a scan: what it says about a number, about a
/// vacant cell and about anything else is worked out once — per call of a
/// criteria kernel, or per *program* when the criterion is a literal — so
/// the loop over a numeric run builds no [`Value`], a vacant run costs one
/// precomputed answer, and the wildcard test is not repeated per cell.
///
/// Deliberately not built on [`Criterion::matches`]: that is what the
/// reference interpreter decides with, and the kernels are held to it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matcher {
    criterion: Criterion,
    num: NumTest,
    /// Whether a vacant cell matches.
    empty: bool,
    /// `Eq` over a text holding `*` or `?`.
    wildcard: bool,
}

/// How a [`Matcher`] decides a number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NumTest {
    /// An equality criterion on a non-number: no number equals it.
    Never,
    /// An inequality criterion on a non-number: every number differs.
    Always,
    Eq(f64),
    Ne(f64),
    Lt(f64),
    Le(f64),
    Gt(f64),
    Ge(f64),
}

impl Matcher {
    pub(crate) fn new(criterion: Criterion) -> Matcher {
        let num = match &criterion {
            Criterion::Eq(Value::Number(k)) => NumTest::Eq(*k),
            Criterion::Eq(_) => NumTest::Never,
            Criterion::Ne(Value::Number(k)) => NumTest::Ne(*k),
            Criterion::Ne(_) => NumTest::Always,
            Criterion::Lt(k) => NumTest::Lt(*k),
            Criterion::Le(k) => NumTest::Le(*k),
            Criterion::Gt(k) => NumTest::Gt(*k),
            Criterion::Ge(k) => NumTest::Ge(*k),
        };
        let empty = match &criterion {
            Criterion::Eq(target) => target.is_empty(),
            Criterion::Ne(target) => !target.is_empty(),
            _ => false,
        };
        let wildcard = matches!(
            &criterion,
            Criterion::Eq(Value::Text(pat)) if pat.contains('*') || pat.contains('?')
        );
        Matcher { criterion, num, empty, wildcard }
    }

    /// The criterion this was compiled from (what the index probes take).
    pub(crate) fn criterion(&self) -> &Criterion {
        &self.criterion
    }

    /// Whether the number `n` matches.
    #[inline]
    pub(crate) fn matches_num(&self, n: f64) -> bool {
        match self.num {
            NumTest::Never => false,
            NumTest::Always => true,
            NumTest::Eq(k) => n == k,
            NumTest::Ne(k) => n != k,
            NumTest::Lt(k) => n < k,
            NumTest::Le(k) => n <= k,
            NumTest::Gt(k) => n > k,
            NumTest::Ge(k) => n >= k,
        }
    }

    /// Whether a vacant cell matches.
    #[inline]
    pub(crate) fn matches_empty(&self) -> bool {
        self.empty
    }

    /// Whether `v` matches.
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match (v, &self.criterion) {
            (Value::Number(n), _) => self.matches_num(*n),
            (Value::Empty, _) => self.empty,
            (Value::Text(s), Criterion::Eq(Value::Text(pat))) if self.wildcard => {
                wildcard_match(pat, s)
            }
            (_, Criterion::Eq(_)) if self.wildcard => false,
            (_, Criterion::Eq(target)) => v.sheet_eq(target),
            (_, Criterion::Ne(target)) => !v.sheet_eq(target),
            // Comparisons match numbers only.
            _ => false,
        }
    }
}

/// Case-insensitive glob match supporting `*` (any run) and `?` (one char),
/// the wildcard dialect of COUNTIF criteria. Two cursors and one saved
/// position — where the last `*` stands and how much text it has swallowed
/// so far — so a mismatch backs up to that star alone: O(pattern × text)
/// at worst, and nothing is allocated.
pub fn wildcard_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    let mut star: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let mut p_next = p.clone();
        match p_next.next() {
            Some('*') => {
                p = p_next;
                star = Some((p.clone(), t.clone()));
                continue;
            }
            Some(pc) => {
                let mut t_next = t.clone();
                if let Some(tc) = t_next.next() {
                    if pc == '?' || pc.to_lowercase().eq(tc.to_lowercase()) {
                        (p, t) = (p_next, t_next);
                        continue;
                    }
                }
            }
            None if t.as_str().is_empty() => return true,
            None => {}
        }
        // No way on from here: the last star takes one more character.
        let Some((after_star, swallowed)) = &mut star else { return false };
        if swallowed.next().is_none() {
            return false;
        }
        (p, t) = (after_star.clone(), swallowed.clone());
    }
}

/// The matcher [`wildcard_match`] replaced, which tries both readings of
/// every `*` and so takes time exponential in their number. Kept as the
/// specification the property test holds the iterative one to.
#[cfg(test)]
fn wildcard_match_reference(pattern: &str, text: &str) -> bool {
    fn inner(p: &[char], t: &[char]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some('*'), _) => inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..])),
            (Some('?'), Some(_)) => inner(&p[1..], &t[1..]),
            (Some(pc), Some(tc)) => {
                pc.to_lowercase().eq(tc.to_lowercase()) && inner(&p[1..], &t[1..])
            }
            _ => false,
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    inner(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cases, text};

    #[test]
    fn classify_reads_each_type() {
        assert_eq!(classify("=A1+1"), Input::Formula("A1+1"));
        assert_eq!(classify("="), Input::Formula(""));
        assert_eq!(classify(" 3.5 "), Input::Number(3.5));
        assert_eq!(classify("-.5e1"), Input::Number(-5.0));
        assert_eq!(classify("+7"), Input::Number(7.0));
        assert_eq!(classify(" true "), Input::Bool(true));
        assert_eq!(classify("False"), Input::Bool(false));
        assert_eq!(classify("#div/0!"), Input::Error(CellError::Div0));
        assert_eq!(classify(" #N/A"), Input::Error(CellError::Na));
        // Near misses stay text, as written.
        for text in ["", " ", "storm", "truely", "#N/A!", "-", ".", "1e999", "-inf", " =A1", "7 up"] {
            assert_eq!(classify(text), Input::Text(text), "{text:?}");
        }
        // A leading quote makes text of anything, and is not part of it.
        assert_eq!(classify("'007"), Input::Text("007"));
        assert_eq!(classify("'=A1"), Input::Text("=A1"));
        assert_eq!(classify("''"), Input::Text("'"));
        assert_eq!(classify("'"), Input::Text(""));
    }

    /// Dispatching on the first character loses no number: a text reads as
    /// a number exactly when `parse_number` accepts it.
    #[test]
    fn classify_finds_every_number() {
        cases(|rng| {
            let text = text(rng, "-+.0123456789eEinfatyINFANTY _", 0..=8);
            let want = parse_number(&text).map_or(Input::Text(&text), Input::Number);
            assert_eq!(classify(&text), want, "{text:?}");
        });
    }

    #[test]
    fn coerce_number_rules() {
        assert_eq!(Value::Number(2.5).coerce_number(), Ok(2.5));
        assert_eq!(Value::Bool(true).coerce_number(), Ok(1.0));
        assert_eq!(Value::Empty.coerce_number(), Ok(0.0));
        assert_eq!(Value::text(" 42 ").coerce_number(), Ok(42.0));
        assert_eq!(Value::text("storm").coerce_number(), Err(CellError::Value));
        assert_eq!(Value::Error(CellError::Na).coerce_number(), Err(CellError::Na));
    }

    #[test]
    fn coerce_number_rejects_non_finite_spellings() {
        // Rust's f64 parser accepts these; spreadsheet coercion must not.
        for s in ["inf", "-inf", "+inf", "infinity", "Infinity", "NaN", "nan", "1e999", "-1E999"] {
            assert_eq!(
                Value::text(s).coerce_number(),
                Err(CellError::Value),
                "{s:?} must not coerce to a number"
            );
        }
        assert_eq!(parse_number(" 1e300 "), Some(1e300));
        assert_eq!(parse_number("inf"), None);
        assert_eq!(parse_number("NaN"), None);
    }

    #[test]
    fn criterion_with_non_finite_operand_is_text_equality() {
        // ">inf" parses as text equality on ">inf"'s remainder, never as a
        // numeric comparison against infinity.
        assert_eq!(Criterion::parse(&Value::text(">inf")), Criterion::Eq(Value::text("inf")));
        assert_eq!(Criterion::parse(&Value::text("NaN")), Criterion::Eq(Value::text("NaN")));
    }

    #[test]
    fn coerce_bool_rules() {
        assert_eq!(Value::Bool(true).coerce_bool(), Ok(true));
        assert_eq!(Value::Number(0.0).coerce_bool(), Ok(false));
        assert_eq!(Value::Number(-3.0).coerce_bool(), Ok(true));
        assert_eq!(Value::text("true").coerce_bool(), Ok(true));
        assert_eq!(Value::text("nope").coerce_bool(), Err(CellError::Value));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Number(3.0).display(), "3");
        assert_eq!(Value::Number(3.25).display(), "3.25");
        assert_eq!(Value::Bool(false).display(), "FALSE");
        assert_eq!(Value::Empty.display(), "");
        assert_eq!(Value::Error(CellError::Div0).display(), "#DIV/0!");
    }

    #[test]
    fn sheet_cmp_type_order() {
        // numbers < text < booleans, empty first
        let mut vals = vec![
            Value::Bool(false),
            Value::text("apple"),
            Value::Number(99.0),
            Value::Empty,
        ];
        vals.sort_by(|a, b| a.sheet_cmp(b));
        assert_eq!(
            vals,
            vec![Value::Empty, Value::Number(99.0), Value::text("apple"), Value::Bool(false)]
        );
    }

    #[test]
    fn sheet_cmp_text_case_insensitive() {
        assert_eq!(Value::text("Apple").sheet_cmp(&Value::text("apple")), Ordering::Equal);
        assert_eq!(Value::text("apple").sheet_cmp(&Value::text("BANANA")), Ordering::Less);
    }

    #[test]
    fn text_comparison_without_allocating_agrees_with_to_lowercase() {
        let words = [
            "", "a", "A", "apple", "Apple", "APPLE", "app", "apple pie", "Banana", "banana",
            "zebra", "Zebra!", "[", "_", "a_b", "A[b", "10", "9", "état", "État", "ÉTAT", "e",
            "straße", "STRASSE", "İstanbul", "istanbul", "日本", "ǅ", "ǆ",
        ];
        for a in words {
            for b in words {
                assert_eq!(
                    Value::text(a).sheet_cmp(&Value::text(b)),
                    a.to_lowercase().cmp(&b.to_lowercase()),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn sheet_cmp_nan_total() {
        let nan = Value::Number(f64::NAN);
        assert_eq!(nan.sheet_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Number(1.0).sheet_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn sheet_eq_semantics() {
        assert!(Value::text("STORM").sheet_eq(&Value::text("storm")));
        assert!(!Value::Number(1.0).sheet_eq(&Value::text("1")));
        assert!(Value::Number(1.0).sheet_eq(&Value::Number(1.0)));
    }

    #[test]
    fn criterion_parse_operators() {
        assert_eq!(Criterion::parse(&Value::text(">=10")), Criterion::Ge(10.0));
        assert_eq!(Criterion::parse(&Value::text("<5.5")), Criterion::Lt(5.5));
        assert_eq!(Criterion::parse(&Value::text("<>STORM")), Criterion::Ne(Value::text("STORM")));
        assert_eq!(Criterion::parse(&Value::Number(1.0)), Criterion::Eq(Value::Number(1.0)));
    }

    #[test]
    fn criterion_matching() {
        let c = Criterion::parse(&Value::text(">=10"));
        assert!(c.matches(&Value::Number(10.0)));
        assert!(!c.matches(&Value::Number(9.9)));
        assert!(!c.matches(&Value::text("10"))); // comparisons only match numbers
        let eq = Criterion::parse(&Value::text("STORM"));
        assert!(eq.matches(&Value::text("storm")));
        assert!(!eq.matches(&Value::text("storms")));
    }

    #[test]
    fn criterion_wildcards() {
        let c = Criterion::parse(&Value::text("ST*M"));
        assert!(c.matches(&Value::text("STORM")));
        assert!(c.matches(&Value::text("stm")));
        assert!(!c.matches(&Value::text("storms")));
        let q = Criterion::parse(&Value::text("h?il"));
        assert!(q.matches(&Value::text("HAIL")));
        assert!(!q.matches(&Value::text("hail!")));
    }

    #[test]
    fn wildcard_edge_cases() {
        assert!(wildcard_match("*", ""));
        assert!(wildcard_match("**a", "ba"));
        assert!(!wildcard_match("?", ""));
        assert!(wildcard_match("É*é", "éclairÉ"));
        assert!(!wildcard_match("a*b", "ab c"));
    }

    /// The recursive matcher took 60 ms on 28 `a`s against this pattern and
    /// doubled with every two more; the text here is 4 096 long.
    #[test]
    fn wildcard_match_is_not_exponential_in_the_stars() {
        let text = "a".repeat(4096);
        assert!(!wildcard_match("*a*a*a*a*a*a*a*b", &text));
        assert!(wildcard_match("*a*a*a*a*a*a*a*", &text));
    }

    #[test]
    fn wildcard_match_agrees_with_the_recursive_matcher() {
        cases(|rng| {
            let (pattern, text) = (text(rng, "abAÉ*?", 0..=6), text(rng, "abBAé", 0..=8));
            assert_eq!(
                wildcard_match(&pattern, &text),
                wildcard_match_reference(&pattern, &text),
                "{pattern:?} against {text:?}"
            );
        });
    }

    /// The compiled form decides every kind of value as the criterion it was
    /// compiled from does.
    #[test]
    fn matcher_agrees_with_the_criterion_it_compiles() {
        let criteria = [
            Value::text("SD"), Value::text("sd"), Value::text("<>SD"), Value::text("<>"),
            Value::text("S*"), Value::text("?d"), Value::text("<>S*"), Value::text("=S?"),
            Value::text(""), Value::text("="), Value::text(">=2"), Value::text(">2"),
            Value::text("<2"), Value::text("<=2"), Value::text("<>2"), Value::text("=2"),
            Value::text("2"), Value::text(">x"), Value::text("TRUE"), Value::Number(2.0),
            Value::Number(-0.0), Value::Number(f64::NAN), Value::Bool(true), Value::Empty,
            Value::Error(CellError::Div0),
        ];
        let values = [
            Value::Empty, Value::Number(2.0), Value::Number(1.5), Value::Number(0.0),
            Value::Number(-0.0), Value::Number(f64::NAN), Value::Number(f64::NEG_INFINITY),
            Value::text("SD"), Value::text("sd"), Value::text("S"), Value::text("2"),
            Value::text(""), Value::text("S*"), Value::text("TRUE"), Value::Bool(true),
            Value::Bool(false), Value::Error(CellError::Div0), Value::Error(CellError::Na),
        ];
        for arg in &criteria {
            let criterion = Criterion::parse(arg);
            let matcher = Matcher::new(criterion.clone());
            assert_eq!(matcher.matches_empty(), criterion.matches(&Value::Empty), "{arg:?}");
            for v in &values {
                assert_eq!(matcher.matches(v), criterion.matches(v), "{arg:?} on {v:?}");
                if let Value::Number(n) = v {
                    assert_eq!(matcher.matches_num(*n), criterion.matches(v), "{arg:?} on {n}");
                }
            }
        }
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(1_000_000.0), "1000000");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(-2.0), "-2");
    }
}
