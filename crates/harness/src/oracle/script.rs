//! The serialized form of an oracle run: a seed, an initial workbook
//! size, and a sequence of steps. A `Script` is the unit the generator
//! produces, the runner replays, the shrinker minimizes, and the corpus
//! stores as JSON — one schema end to end, so a fuzz failure written
//! today replays unchanged as a regression test tomorrow.

use std::path::{Path, PathBuf};

use ssbench_engine::addr::{CellAddr, Range};
use ssbench_engine::ops::{Op, PivotAgg, SortKey, SortOrder};
use ssbench_engine::style::Color;
use ssbench_engine::value::{Criterion, Value};

use crate::json::{self, Error, Json};

/// One scripted step: a cell input, one of the engine's own [`Op`]s, or an
/// explicit full recalculation.
///
/// In JSON an `Op` keeps a self-contained, text-only spelling (A1 ranges,
/// criterion strings, aggregate names) so corpus files stay readable and
/// diffable; it is decoded into the `Op` once, when the script loads, so a
/// bad range or aggregate fails the load and not the replay. A variant is
/// externally tagged: `"ClearFilter"`, `{"DeleteRows": {"at": 0, "count":
/// 1}}`. The spelling has one sort key, the green fill and the criteria
/// [`Criterion::parse`] reads from text. A [`Script`] holds no other `Op`:
/// its steps are private to the oracle, where only the decoder and the
/// generator make them.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Type `text` into the cell — values and `=formulas` alike, exactly
    /// the `Sheet::set_input` path a user edit takes.
    Set { row: u32, col: u32, text: String },
    /// Apply one operation through `Sheet::apply`.
    Apply(Op),
    /// Force a full recalculation now.
    Recalc,
}

/// A complete, self-describing oracle input.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Seeds the initial workbook contents (and, for generated scripts,
    /// the op stream that produced `steps`).
    pub seed: u64,
    /// Data rows in the initial workbook.
    pub rows: u32,
    /// The steps to replay (see [`Step`] for why they are not public).
    pub(super) steps: Vec<Step>,
}

/// The pivot aggregates by their corpus names.
pub(super) const AGGS: [(&str, PivotAgg); 5] = [
    ("sum", PivotAgg::Sum),
    ("count", PivotAgg::Count),
    ("average", PivotAgg::Average),
    ("min", PivotAgg::Min),
    ("max", PivotAgg::Max),
];

/// A criterion as a formula's `COUNTIF` reads its text argument.
pub(super) fn criterion(text: &str) -> Criterion {
    Criterion::parse(&Value::text(text))
}

/// A range as the corpus writes it: always `A1:A3`, `A1:A1` too.
pub(super) fn range_a1(r: &Range) -> String {
    format!("{}:{}", r.start.to_a1(), r.end.to_a1())
}

/// The text [`criterion`] reads back as `c`. An equality takes the
/// operator `eq` — the corpus writes a filter's bare and a conditional
/// format's after `=` — or `=` where bare text would read as another
/// operator.
fn criterion_text(c: &Criterion, eq: &str) -> String {
    let text = |v: &Value| match v {
        Value::Number(n) => n.to_string(),
        other => other.display(),
    };
    match c {
        Criterion::Eq(v) => {
            let v = text(v);
            format!("{}{v}", if v.starts_with(['<', '>', '=']) { "=" } else { eq })
        }
        Criterion::Ne(v) => format!("<>{}", text(v)),
        Criterion::Lt(n) => format!("<{n}"),
        Criterion::Le(n) => format!("<={n}"),
        Criterion::Gt(n) => format!(">{n}"),
        Criterion::Ge(n) => format!(">={n}"),
    }
}

/// One JSON object read field by field; an error names `owner.field`.
struct Fields<'a> {
    owner: &'a str,
    json: &'a Json,
}

impl<'a> Fields<'a> {
    fn new(owner: &'a str, json: &'a Json) -> Result<Self, Error> {
        match json {
            Json::Obj(_) => Ok(Fields { owner, json }),
            other => Err(Error(format!("expected object for {owner}, found {}", other.kind()))),
        }
    }

    fn read<T>(
        &self,
        key: &str,
        what: &str,
        as_t: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, Error> {
        let owner = self.owner;
        let v = self.json.get(key).ok_or_else(|| Error(format!("{owner}.{key}: missing")))?;
        as_t(v).ok_or_else(|| {
            Error(format!("{owner}.{key}: expected {what}, found {}", json::render(v)))
        })
    }

    /// An index, count or seed: an integer literal that fits `T`, never a
    /// negative, fractional or out-of-range number cast into one.
    fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, Error> {
        self.read(key, std::any::type_name::<T>(), |v| T::try_from(v.as_u64()?).ok())
    }

    fn text(&self, key: &str) -> Result<String, Error> {
        self.read(key, "a string", |v| v.as_str().map(str::to_owned))
    }

    /// An A1 range, or an error naming the field and the engine's reason.
    fn range(&self, key: &str) -> Result<Range, Error> {
        let text = self.text(key)?;
        let owner = self.owner;
        Range::parse(&text).map_err(|e| Error(format!("{owner}.{key}: bad range {text:?}: {e}")))
    }
}

impl Step {
    fn to_json(&self) -> Json {
        fn variant<const N: usize>(tag: &str, fields: [(&str, Json); N]) -> Json {
            Json::obj([(tag, Json::obj(fields))])
        }
        let int = |n: &u32| Json::Int((*n).into());
        let range = |r: &Range| Json::str(&range_a1(r));
        let at_count = |tag, at, count| variant(tag, [("at", int(at)), ("count", int(count))]);
        let op = match self {
            Step::Set { row, col, text } => {
                return variant(
                    "Set",
                    [("row", int(row)), ("col", int(col)), ("text", Json::str(text))],
                )
            }
            Step::Recalc => return Json::str("Recalc"),
            Step::Apply(op) => op,
        };
        match op {
            Op::Sort { keys } => {
                let key = keys.first().copied().unwrap_or(SortKey::asc(0));
                let asc = key.order == SortOrder::Ascending;
                variant("Sort", [("col", int(&key.col)), ("asc", Json::Bool(asc))])
            }
            Op::Filter { col, criterion } => variant(
                "Filter",
                [("col", int(col)), ("criterion", Json::str(&criterion_text(criterion, "")))],
            ),
            Op::ClearFilter => Json::str("ClearFilter"),
            Op::CondFormat { range: r, criterion, .. } => variant(
                "CondFormat",
                [("range", range(r)), ("criterion", Json::str(&criterion_text(criterion, "=")))],
            ),
            Op::FindReplace { range: r, needle, replacement } => variant(
                "FindReplace",
                [
                    ("range", range(r)),
                    ("needle", Json::str(needle)),
                    ("replacement", Json::str(replacement)),
                ],
            ),
            Op::CopyPaste { src, dst } => {
                variant("CopyPaste", [("src", range(src)), ("dst", Json::str(&dst.to_a1()))])
            }
            Op::Pivot { dim_col, measure_col, agg } => {
                let name = AGGS.iter().find(|(_, a)| a == agg).map_or("", |(name, _)| name);
                variant(
                    "Pivot",
                    [
                        ("dim_col", int(dim_col)),
                        ("measure_col", int(measure_col)),
                        ("agg", Json::str(name)),
                    ],
                )
            }
            Op::InsertRows { at, count } => at_count("InsertRows", at, count),
            Op::DeleteRows { at, count } => at_count("DeleteRows", at, count),
            Op::InsertCols { at, count } => at_count("InsertCols", at, count),
            Op::DeleteCols { at, count } => at_count("DeleteCols", at, count),
        }
    }

    fn from_json(json: &Json) -> Result<Step, Error> {
        let (tag, body) = match json {
            Json::Str(tag) => {
                return match tag.as_str() {
                    "ClearFilter" => Ok(Step::Apply(Op::ClearFilter)),
                    "Recalc" => Ok(Step::Recalc),
                    _ => Err(Error(format!("unknown unit step `{tag}`"))),
                }
            }
            Json::Obj(fields) if fields.len() == 1 => (fields[0].0.as_str(), &fields[0].1),
            other => return Err(Error(format!("expected a step, found {}", other.kind()))),
        };
        let f = Fields::new(tag, body)?;
        let op = match tag {
            "Set" => {
                let (row, col, text) = (f.uint("row")?, f.uint("col")?, f.text("text")?);
                return Ok(Step::Set { row, col, text });
            }
            "Sort" => {
                let col = f.uint("col")?;
                let key = match f.read("asc", "a bool", Json::as_bool)? {
                    true => SortKey::asc(col),
                    false => SortKey::desc(col),
                };
                Op::Sort { keys: vec![key] }
            }
            "Filter" => {
                Op::Filter { col: f.uint("col")?, criterion: criterion(&f.text("criterion")?) }
            }
            "CondFormat" => Op::CondFormat {
                range: f.range("range")?,
                criterion: criterion(&f.text("criterion")?),
                fill: Color::GREEN,
            },
            "FindReplace" => Op::FindReplace {
                range: f.range("range")?,
                needle: f.text("needle")?,
                replacement: f.text("replacement")?,
            },
            "CopyPaste" => {
                let src = f.range("src")?;
                let dst = f.text("dst")?;
                let dst = CellAddr::parse(&dst)
                    .map_err(|e| Error(format!("CopyPaste.dst: bad cell {dst:?}: {e}")))?;
                Op::CopyPaste { src, dst }
            }
            "Pivot" => {
                let (dim_col, measure_col, name) =
                    (f.uint("dim_col")?, f.uint("measure_col")?, f.text("agg")?);
                let Some(&(_, agg)) = AGGS.iter().find(|(n, _)| *n == name) else {
                    return Err(Error(format!("Pivot.agg: unknown aggregate {name:?}")));
                };
                Op::Pivot { dim_col, measure_col, agg }
            }
            "InsertRows" => Op::InsertRows { at: f.uint("at")?, count: f.uint("count")? },
            "DeleteRows" => Op::DeleteRows { at: f.uint("at")?, count: f.uint("count")? },
            "InsertCols" => Op::InsertCols { at: f.uint("at")?, count: f.uint("count")? },
            "DeleteCols" => Op::DeleteCols { at: f.uint("at")?, count: f.uint("count")? },
            _ => return Err(Error(format!("unknown step `{tag}`"))),
        };
        Ok(Step::Apply(op))
    }
}

impl Script {
    /// The steps to replay, in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Renders the script as pretty-printed JSON (the corpus format).
    pub fn to_json(&self) -> String {
        json::render_pretty(&Json::obj([
            ("seed", Json::Int(self.seed)),
            ("rows", Json::Int(self.rows.into())),
            ("ops", Json::Arr(self.steps.iter().map(Step::to_json).collect())),
        ]))
    }

    /// Parses a corpus JSON document.
    pub fn from_json(text: &str) -> Result<Script, Error> {
        let doc = json::parse(text)?;
        let f = Fields::new("Script", &doc)?;
        let steps = f.read("ops", "an array", Json::as_arr)?;
        Ok(Script {
            seed: f.uint("seed")?,
            rows: f.uint("rows")?,
            steps: steps.iter().map(Step::from_json).collect::<Result<_, _>>()?,
        })
    }

    /// Loads every `*.json` script under `dir`, sorted by file name so
    /// replay order (and therefore failure output) is stable.
    pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Script)>, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let script = Script::from_json(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((path, script));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Script {
        let range = |a1| Range::parse(a1).unwrap();
        Script {
            seed: 42,
            rows: 16,
            steps: vec![
                Step::Set { row: 0, col: 0, text: "=SUM(A2:A9)".into() },
                Step::Apply(Op::Sort { keys: vec![SortKey::desc(1)] }),
                Step::Apply(Op::Filter { col: 1, criterion: criterion(">=5") }),
                Step::Apply(Op::ClearFilter),
                Step::Apply(Op::CondFormat {
                    range: range("A1:A16"),
                    criterion: criterion(">=500"),
                    fill: Color::GREEN,
                }),
                Step::Apply(Op::FindReplace {
                    range: range("C1:C16"),
                    needle: "item3".into(),
                    replacement: "item7".into(),
                }),
                Step::Apply(Op::CopyPaste { src: range("D1:D8"), dst: CellAddr::new(0, 6) }),
                Step::Apply(Op::Pivot { dim_col: 1, measure_col: 0, agg: PivotAgg::Sum }),
                Step::Apply(Op::InsertRows { at: 2, count: 3 }),
                Step::Apply(Op::DeleteRows { at: 0, count: 1 }),
                Step::Apply(Op::InsertCols { at: 1, count: 2 }),
                Step::Apply(Op::DeleteCols { at: 4, count: 1 }),
                Step::Recalc,
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_every_variant() {
        let s = sample();
        let ops: std::collections::HashSet<_> = s
            .steps
            .iter()
            .filter_map(|step| match step {
                Step::Apply(op) => Some(op.name()),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), 11, "the sample applies every Op");
        assert!(s.steps.contains(&Step::Recalc));
        assert!(matches!(s.steps[0], Step::Set { .. }));
        let text = s.to_json();
        let back = Script::from_json(&text).unwrap();
        assert_eq!(back, s);
        assert!(text.contains("\"ClearFilter\",\n"), "unit variants are bare strings");
    }

    /// Every criterion the decoder can produce is written back as text that
    /// decodes to it, in a filter and in a conditional format alike.
    #[test]
    fn criteria_decode_to_what_they_encode() {
        for text in [
            "item3", "=item3", "<>item3", "", "=", "==x", "=>x", "<><x", ">=5", "<=-0", "<>7",
            ">1e300", "<0.1", "5", "=5", "item1*", " 5 ",
        ] {
            let c = criterion(text);
            for eq in ["", "="] {
                assert_eq!(criterion(&criterion_text(&c, eq)), c, "{text:?} with {eq:?}");
            }
        }
        assert_eq!(criterion_text(&criterion("item3"), ""), "item3");
        assert_eq!(criterion_text(&criterion("item3"), "="), "=item3");
    }

    /// The seed builds the initial workbook, so a reproducer whose seed was
    /// rounded through an `f64` replays a different one.
    #[test]
    fn seeds_round_trip_exactly_up_to_u64_max() {
        for seed in [(1 << 53) + 1, u64::MAX] {
            let s = Script { seed, ..sample() };
            assert!(s.to_json().contains(&format!("\"seed\": {seed},")));
            assert_eq!(Script::from_json(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(Script::from_json("{").is_err());
        assert!(Script::from_json("{\"seed\": 1}").is_err());
        assert!(Script::from_json("[]").is_err());
        let with_op =
            |op: &str| Script::from_json(&format!(r#"{{"seed": 1, "rows": 8, "ops": [{op}]}}"#));
        assert!(with_op(r#"{"Set": {"row": 0, "col": 0, "text": "x"}}"#).is_ok());
        // Numbers are checked, not cast: these used to load as row 0,
        // `u32::MAX` and column 1. A range, a cell or an aggregate is
        // decoded at load, so a bad one fails the load, not a replay.
        for bad in [
            r#"{"Set": {"row": -1, "col": 0, "text": "x"}}"#,
            r#"{"DeleteRows": {"at": 1e99, "count": 1}}"#,
            r#"{"Sort": {"col": 1.5, "asc": true}}"#,
            r#"{"InsertRows": {"at": 4294967296, "count": 1}}"#,
            r#"{"Sort": {"col": 1, "asc": 1}}"#,
            r#"{"Sort": {"col": 1}}"#,
            r#"{"Shuffle": {"col": 1}}"#,
            r#""Sort""#,
            r#"{"Recalc": {}}"#,
            "7",
            r#"{"CondFormat": {"range": "A1:?", "criterion": "x"}}"#,
            r#"{"CopyPaste": {"src": "A1:A2", "dst": "7"}}"#,
            r#"{"Pivot": {"dim_col": 1, "measure_col": 0, "agg": "median"}}"#,
        ] {
            with_op(bad).expect_err(bad);
        }
        assert!(Script::from_json(r#"{"seed": -1, "rows": 8, "ops": []}"#).is_err());
        assert!(
            Script::from_json(r#"{"seed": 18446744073709551616, "rows": 8, "ops": []}"#).is_err()
        );
    }
}
