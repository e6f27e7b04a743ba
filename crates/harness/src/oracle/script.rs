//! The serialized form of an oracle run: a seed, an initial workbook
//! size, and a sequence of ops. A `Script` is the unit the generator
//! produces, the runner replays, the shrinker minimizes, and the corpus
//! stores as JSON — one schema end to end, so a fuzz failure written
//! today replays unchanged as a regression test tomorrow.

use std::path::{Path, PathBuf};

use crate::json::{self, Error, Json};

/// One scripted operation. Mirrors [`ssbench_engine::ops::Op`] plus cell
/// input and explicit recalculation, but in a self-contained, text-only
/// spelling (A1 ranges, criterion strings) so corpus files stay readable
/// and diffable. In JSON a variant is externally tagged: `"ClearFilter"`,
/// `{"DeleteRows": {"at": 0, "count": 1}}`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptOp {
    /// Type `text` into the cell — values and `=formulas` alike, exactly
    /// the `Sheet::set_input` path a user edit takes.
    Set { row: u32, col: u32, text: String },
    /// Stable single-key row sort.
    Sort { col: u32, asc: bool },
    /// Hide rows whose `col` cell fails `criterion` (COUNTIF spelling).
    Filter { col: u32, criterion: String },
    /// Unhide every row.
    ClearFilter,
    /// Conditionally fill `range` (A1 form) where `criterion` matches.
    CondFormat { range: String, criterion: String },
    /// Replace `needle` with `replacement` in text cells of `range`.
    FindReplace { range: String, needle: String, replacement: String },
    /// Copy `src` (A1 range) to the block anchored at `dst` (A1 cell).
    CopyPaste { src: String, dst: String },
    /// Aggregate `measure_col` grouped by `dim_col`; `agg` is one of
    /// `sum|count|average|min|max`.
    Pivot { dim_col: u32, measure_col: u32, agg: String },
    /// Insert `count` blank rows before row `at`.
    InsertRows { at: u32, count: u32 },
    /// Delete `count` rows starting at row `at`.
    DeleteRows { at: u32, count: u32 },
    /// Insert `count` blank columns before column `at`.
    InsertCols { at: u32, count: u32 },
    /// Delete `count` columns starting at column `at`.
    DeleteCols { at: u32, count: u32 },
    /// Force a full recalculation now.
    Recalc,
}

/// A complete, self-describing oracle input.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Seeds the initial workbook contents (and, for generated scripts,
    /// the op stream that produced `ops`).
    pub seed: u64,
    /// Data rows in the initial workbook.
    pub rows: u32,
    /// The op sequence to replay.
    pub ops: Vec<ScriptOp>,
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
}

impl ScriptOp {
    fn to_json(&self) -> Json {
        use ScriptOp::*;
        fn variant<const N: usize>(tag: &str, fields: [(&str, Json); N]) -> Json {
            Json::obj([(tag, Json::obj(fields))])
        }
        let int = |n: &u32| Json::Int((*n).into());
        let at_count = |tag, at, count| variant(tag, [("at", int(at)), ("count", int(count))]);
        match self {
            Set { row, col, text } => {
                variant("Set", [("row", int(row)), ("col", int(col)), ("text", Json::str(text))])
            }
            Sort { col, asc } => variant("Sort", [("col", int(col)), ("asc", Json::Bool(*asc))]),
            Filter { col, criterion } => {
                variant("Filter", [("col", int(col)), ("criterion", Json::str(criterion))])
            }
            ClearFilter => Json::str("ClearFilter"),
            CondFormat { range, criterion } => variant(
                "CondFormat",
                [("range", Json::str(range)), ("criterion", Json::str(criterion))],
            ),
            FindReplace { range, needle, replacement } => variant(
                "FindReplace",
                [
                    ("range", Json::str(range)),
                    ("needle", Json::str(needle)),
                    ("replacement", Json::str(replacement)),
                ],
            ),
            CopyPaste { src, dst } => {
                variant("CopyPaste", [("src", Json::str(src)), ("dst", Json::str(dst))])
            }
            Pivot { dim_col, measure_col, agg } => variant(
                "Pivot",
                [
                    ("dim_col", int(dim_col)),
                    ("measure_col", int(measure_col)),
                    ("agg", Json::str(agg)),
                ],
            ),
            InsertRows { at, count } => at_count("InsertRows", at, count),
            DeleteRows { at, count } => at_count("DeleteRows", at, count),
            InsertCols { at, count } => at_count("InsertCols", at, count),
            DeleteCols { at, count } => at_count("DeleteCols", at, count),
            Recalc => Json::str("Recalc"),
        }
    }

    fn from_json(json: &Json) -> Result<ScriptOp, Error> {
        use ScriptOp::*;
        let (tag, body) = match json {
            Json::Str(tag) => {
                return match tag.as_str() {
                    "ClearFilter" => Ok(ClearFilter),
                    "Recalc" => Ok(Recalc),
                    _ => Err(Error(format!("unknown unit ScriptOp variant `{tag}`"))),
                }
            }
            Json::Obj(fields) if fields.len() == 1 => (fields[0].0.as_str(), &fields[0].1),
            other => {
                return Err(Error(format!("expected ScriptOp variant, found {}", other.kind())))
            }
        };
        let f = Fields::new(tag, body)?;
        Ok(match tag {
            "Set" => Set { row: f.uint("row")?, col: f.uint("col")?, text: f.text("text")? },
            "Sort" => Sort { col: f.uint("col")?, asc: f.read("asc", "a bool", Json::as_bool)? },
            "Filter" => Filter { col: f.uint("col")?, criterion: f.text("criterion")? },
            "CondFormat" => CondFormat { range: f.text("range")?, criterion: f.text("criterion")? },
            "FindReplace" => FindReplace {
                range: f.text("range")?,
                needle: f.text("needle")?,
                replacement: f.text("replacement")?,
            },
            "CopyPaste" => CopyPaste { src: f.text("src")?, dst: f.text("dst")? },
            "Pivot" => Pivot {
                dim_col: f.uint("dim_col")?,
                measure_col: f.uint("measure_col")?,
                agg: f.text("agg")?,
            },
            "InsertRows" => InsertRows { at: f.uint("at")?, count: f.uint("count")? },
            "DeleteRows" => DeleteRows { at: f.uint("at")?, count: f.uint("count")? },
            "InsertCols" => InsertCols { at: f.uint("at")?, count: f.uint("count")? },
            "DeleteCols" => DeleteCols { at: f.uint("at")?, count: f.uint("count")? },
            _ => return Err(Error(format!("unknown ScriptOp variant `{tag}`"))),
        })
    }
}

impl Script {
    /// Renders the script as pretty-printed JSON (the corpus format).
    pub fn to_json(&self) -> String {
        json::render_pretty(&Json::obj([
            ("seed", Json::Int(self.seed)),
            ("rows", Json::Int(self.rows.into())),
            ("ops", Json::Arr(self.ops.iter().map(ScriptOp::to_json).collect())),
        ]))
    }

    /// Parses a corpus JSON document.
    pub fn from_json(text: &str) -> Result<Script, Error> {
        let doc = json::parse(text)?;
        let f = Fields::new("Script", &doc)?;
        let ops = f.read("ops", "an array", Json::as_arr)?;
        Ok(Script {
            seed: f.uint("seed")?,
            rows: f.uint("rows")?,
            ops: ops.iter().map(ScriptOp::from_json).collect::<Result<_, _>>()?,
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
        Script {
            seed: 42,
            rows: 16,
            ops: vec![
                ScriptOp::Set { row: 0, col: 0, text: "=SUM(A2:A9)".into() },
                ScriptOp::Sort { col: 1, asc: false },
                ScriptOp::Filter { col: 1, criterion: ">=5".into() },
                ScriptOp::ClearFilter,
                ScriptOp::CondFormat { range: "A1:A16".into(), criterion: ">=500".into() },
                ScriptOp::FindReplace {
                    range: "C1:C16".into(),
                    needle: "item3".into(),
                    replacement: "item7".into(),
                },
                ScriptOp::CopyPaste { src: "D1:D8".into(), dst: "G1".into() },
                ScriptOp::Pivot { dim_col: 1, measure_col: 0, agg: "sum".into() },
                ScriptOp::InsertRows { at: 2, count: 3 },
                ScriptOp::DeleteRows { at: 0, count: 1 },
                ScriptOp::InsertCols { at: 1, count: 2 },
                ScriptOp::DeleteCols { at: 4, count: 1 },
                ScriptOp::Recalc,
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_every_variant() {
        let s = sample();
        let variants: std::collections::HashSet<_> =
            s.ops.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 13, "the sample builds every ScriptOp variant");
        let text = s.to_json();
        let back = Script::from_json(&text).unwrap();
        assert_eq!(back, s);
        assert!(text.contains("\"ClearFilter\",\n"), "unit variants are bare strings");
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
        // `u32::MAX` and column 1.
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
        ] {
            with_op(bad).expect_err(bad);
        }
        assert!(Script::from_json(r#"{"seed": -1, "rows": 8, "ops": []}"#).is_err());
        assert!(
            Script::from_json(r#"{"seed": 18446744073709551616, "rows": 8, "ops": []}"#).is_err()
        );
    }
}
