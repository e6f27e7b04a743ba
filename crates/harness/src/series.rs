//! Result structures: data series per figure, with interactivity-bound
//! detection (§4: "we further evaluate when … the execution time for a
//! given formula violates the interactivity bound of 500 ms and at what
//! data size").

use ssbench_systems::{SystemKind, INTERACTIVITY_BOUND_MS};

use crate::json::Json;

/// One measured point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Dataset row count (or, for the fig-14 sweep, formula-instance
    /// count).
    pub x: u32,
    /// Simulated milliseconds (trimmed mean over trials).
    pub ms: f64,
}

impl Point {
    fn to_json(&self) -> Json {
        Json::obj([("x", Json::Int(self.x.into())), ("ms", Json::Num(self.ms))])
    }
}

/// One line of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Chart label, e.g. `"Excel (F)"` or `"Sorted-TRUE"`.
    pub label: String,
    /// The system measured (written as its display name).
    pub system: SystemKind,
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>, system: SystemKind) -> Self {
        Series { label: label.into(), system, points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: u32, ms: f64) {
        self.points.push(Point { x, ms });
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("system", Json::str(self.system.name())),
            ("points", Json::Arr(self.points.iter().map(Point::to_json).collect())),
        ])
    }

    /// The smallest x whose measured time violates the interactivity
    /// bound; `None` when the bound is never violated.
    pub fn violation_x(&self) -> Option<u32> {
        self.points.iter().find(|p| p.ms > INTERACTIVITY_BOUND_MS).map(|p| p.x)
    }

    /// The last measured point.
    pub fn last(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// The last measured point, panicking with the series label when the
    /// series is empty (e.g. a `--scale` so small every size was clipped).
    pub fn expect_last(&self) -> Point {
        self.last().unwrap_or_else(|| panic!("series {:?} has no points", self.label))
    }

    /// The measured time at size `x`, panicking with the series label and
    /// the sizes that were measured when `x` is absent.
    pub fn ms_at(&self, x: u32) -> f64 {
        self.points
            .iter()
            .find(|p| p.x == x)
            .unwrap_or_else(|| {
                panic!(
                    "series {:?} has no point at x={x} (measured: {:?})",
                    self.label,
                    self.points.iter().map(|p| p.x).collect::<Vec<_>>()
                )
            })
            .ms
    }
}

/// The result of one experiment: a reproduced figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Paper artifact id, e.g. `"fig3"`.
    pub id: String,
    /// Human title, e.g. `"Sort (§4.2.1)"`.
    pub title: String,
    /// Unit of the x axis (`"rows"` or `"instances"`).
    pub x_unit: String,
    pub series: Vec<Series>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentResult {
            id: id.to_owned(),
            title: title.to_owned(),
            x_unit: "rows".to_owned(),
            series: Vec::new(),
        }
    }

    /// The `results/{id}.json` document: fields in declaration order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("title", Json::str(&self.title)),
            ("x_unit", Json::str(&self.x_unit)),
            ("series", Json::Arr(self.series.iter().map(Series::to_json).collect())),
        ])
    }

    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Finds a series by label, panicking with the experiment id and the
    /// labels that do exist when it is absent — so a bad `--scale`/`--seed`
    /// combination reports which experiment failed instead of aborting on
    /// a bare `unwrap`.
    pub fn expect_series(&self, label: &str) -> &Series {
        self.series(label).unwrap_or_else(|| {
            panic!(
                "{}: no series {label:?} (have: {:?})",
                self.id,
                self.series.iter().map(|s| s.label.as_str()).collect::<Vec<_>>()
            )
        })
    }

    /// Total simulated milliseconds over every point of every series — the
    /// figure-level quantity the trace exporter reconciles against the sum
    /// of the figure's `measure` spans.
    pub fn total_ms(&self) -> f64 {
        self.series.iter().flat_map(|s| s.points.iter()).map(|p| p.ms).sum()
    }

    /// All distinct x values across series, sorted.
    pub fn xs(&self) -> Vec<u32> {
        let mut xs: Vec<u32> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.x)).collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_detection() {
        let mut s = Series::new("Excel (V)", SystemKind::Excel);
        s.push(150, 10.0);
        s.push(6_000, 480.0);
        s.push(10_000, 520.0);
        s.push(20_000, 900.0);
        assert_eq!(s.violation_x(), Some(10_000));
        let mut ok = Series::new("Excel (V)", SystemKind::Excel);
        ok.push(500_000, 60.0);
        assert_eq!(ok.violation_x(), None);
    }

    #[test]
    fn xs_merges_series() {
        let mut r = ExperimentResult::new("fig0", "test");
        let mut a = Series::new("a", SystemKind::Excel);
        a.push(1, 0.0);
        a.push(3, 0.0);
        let mut b = Series::new("b", SystemKind::Calc);
        b.push(2, 0.0);
        b.push(3, 0.0);
        r.series.push(a);
        r.series.push(b);
        assert_eq!(r.xs(), vec![1, 2, 3]);
        assert!(r.series("a").is_some());
        assert!(r.series("zzz").is_none());
    }

    #[test]
    fn serializes_to_json() {
        let mut r = ExperimentResult::new("fig7", "COUNTIF");
        let mut s = Series::new("Calc (F)", SystemKind::Calc);
        s.push(150, 2.5);
        r.series.push(s);
        assert_eq!(
            crate::json::render(&r.to_json()),
            r#"{"id":"fig7","title":"COUNTIF","x_unit":"rows","series":[{"label":"Calc (F)","system":"Calc","points":[{"x":150,"ms":2.5}]}]}"#
        );
    }
}
