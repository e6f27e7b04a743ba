//! The reference the engine's outputs are checked against: a plain-Rust
//! shadow of the sheet (`Vec` columns and `HashMap`s, nothing from the
//! engine) that replays every step of a workload's script and says what
//! each cell, count and query answer must be afterwards.
//!
//! Formula cells are not evaluated by a formula interpreter: each of the
//! few formula shapes the workloads use is a variant of [`MCell`] whose
//! value is computed directly from the data columns, and whose references
//! are moved by sort / insert / delete with the semantics the engine
//! documents (relative references ride with their row, absolute ranges
//! grow and shrink around an edit inside them, a window pushed off the top
//! of the sheet becomes `#REF!` for good).

use std::collections::HashMap;

/// A whole-column aggregate over absolute ranges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Agg {
    Sum(u16),
    Average(u16),
    Min(u16),
    Max(u16),
    Count(u16),
    CountIf { col: u16, text: u32 },
    SumIf { crit: u16, text: u32, sum: u16 },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MCell {
    Empty,
    Num(f64),
    /// Id into [`Model::strings`].
    Text(u32),
    /// `=COUNTIF(<cell of this row in col>,"<keyword>")`.
    CountifCell {
        col: u16,
        keyword: u32,
    },
    /// `=SUM(X{r-len+1}:X{r})*2+X{r}`; `len == 0` once broken (`#REF!`).
    Window {
        col: u16,
        len: u32,
    },
    /// `=COUNTIF($X$1:$X$N,X{r})`.
    CountifCol {
        col: u16,
    },
    /// `=VLOOKUP(key,$A$1:$B$N,2,FALSE)` with a literal key.
    Vlookup {
        key: u32,
    },
    Agg(Agg),
}

impl MCell {
    pub fn is_formula(&self) -> bool {
        !matches!(self, MCell::Empty | MCell::Num(_) | MCell::Text(_))
    }
}

/// What a cell (or a one-shot query) must evaluate to.
#[derive(Clone, Debug, PartialEq)]
pub enum Exp {
    Empty,
    Num(f64),
    Text(String),
    /// Any error value.
    Error,
}

#[derive(Default)]
pub struct Strings {
    by_text: HashMap<String, u32>,
    texts: Vec<String>,
}

impl Strings {
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_text.get(s) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.texts.push(s.to_owned());
        self.by_text.insert(s.to_owned(), id);
        id
    }

    pub fn get(&self, id: u32) -> &str {
        &self.texts[id as usize]
    }
}

/// Column-major shadow sheet. Column indexes are sheet column indexes.
#[derive(Default)]
pub struct Model {
    pub cols: Vec<Vec<MCell>>,
    pub strings: Strings,
}

impl Model {
    pub fn with_shape(rows: usize, cols: usize) -> Model {
        Model {
            cols: vec![vec![MCell::Empty; rows]; cols],
            strings: Strings::default(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    pub fn text(&mut self, s: &str) -> MCell {
        MCell::Text(self.strings.intern(s))
    }

    pub fn formula_count(&self) -> usize {
        self.cols
            .iter()
            .flatten()
            .filter(|c| c.is_formula())
            .count()
    }

    fn num_at(&self, row: usize, col: u16) -> Option<f64> {
        match self.cols[col as usize][row] {
            MCell::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Case-insensitive text equality, as COUNTIF / filter / VLOOKUP use.
    fn text_is(&self, cell: MCell, text: &str) -> bool {
        matches!(cell, MCell::Text(id) if self.strings.get(id).eq_ignore_ascii_case(text))
    }

    // --- mutations: one per script step kind ------------------------------

    /// Stable single-key row sort with the engine's ordering: empty <
    /// numbers < text (case-insensitive); descending reverses all of it.
    pub fn sort_by(&mut self, col: u16, desc: bool) {
        #[derive(PartialEq, PartialOrd)]
        enum Key {
            Empty,
            Num(f64),
            Text(String),
        }
        let keys: Vec<Key> = self.cols[col as usize]
            .iter()
            .map(|c| match *c {
                MCell::Num(x) => Key::Num(x),
                MCell::Text(id) => Key::Text(self.strings.get(id).to_lowercase()),
                _ => Key::Empty,
            })
            .collect();
        let mut perm: Vec<u32> = (0..self.nrows() as u32).collect();
        perm.sort_by(|&a, &b| {
            let ord = keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .expect("model keys are never NaN");
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        for column in &mut self.cols {
            let moved: Vec<MCell> = perm.iter().map(|&p| column[p as usize]).collect();
            *column = moved;
        }
        // A backward window that no longer fits above its new row is
        // rewritten to #REF! by the move, and stays that way.
        for column in &mut self.cols {
            for (row, cell) in column.iter_mut().enumerate() {
                if let MCell::Window { len, .. } = cell {
                    if *len as usize > row + 1 {
                        *len = 0;
                    }
                }
            }
        }
    }

    /// Inserts one blank row before `at`. A window that starts above `at`
    /// and ends at or below it grows by the new row.
    pub fn insert_row(&mut self, at: usize) {
        for column in &mut self.cols {
            column.insert(at, MCell::Empty);
            for (row, cell) in column.iter_mut().enumerate().skip(at + 1) {
                if let MCell::Window { len, .. } = cell {
                    let old_row = row - 1;
                    if *len > 0 && old_row + 1 - (*len as usize) < at {
                        *len += 1;
                    }
                }
            }
        }
    }

    /// Deletes row `at`. A window that contained it shrinks by one.
    pub fn delete_row(&mut self, at: usize) {
        for column in &mut self.cols {
            column.remove(at);
            for (row, cell) in column.iter_mut().enumerate().skip(at) {
                if let MCell::Window { len, .. } = cell {
                    let old_row = row + 1;
                    if *len > 0 && old_row + 1 - (*len as usize) <= at {
                        *len -= 1;
                    }
                }
            }
        }
    }

    /// Case-sensitive substring replace in the text cells of columns
    /// `c0..=c1`; returns the number of cells rewritten.
    pub fn find_replace(&mut self, c0: u16, c1: u16, needle: &str, replacement: &str) -> u64 {
        let mut rewritten: HashMap<u32, Option<u32>> = HashMap::new();
        let mut changed = 0;
        for col in c0..=c1 {
            for row in 0..self.nrows() {
                let MCell::Text(id) = self.cols[col as usize][row] else {
                    continue;
                };
                let new_id = match rewritten.get(&id) {
                    Some(cached) => *cached,
                    None => {
                        let old = self.strings.get(id);
                        let new = old
                            .contains(needle)
                            .then(|| old.replace(needle, replacement))
                            .map(|s| self.strings.intern(&s));
                        rewritten.insert(id, new);
                        new
                    }
                };
                if let Some(new_id) = new_id {
                    self.cols[col as usize][row] = MCell::Text(new_id);
                    changed += 1;
                }
            }
        }
        changed
    }

    pub fn set(&mut self, row: usize, col: u16, cell: MCell) {
        self.cols[col as usize][row] = cell;
    }

    /// Copy-paste of a data column onto `dst` (created when past the end).
    pub fn copy_col(&mut self, src: u16, dst: u16) {
        let rows = self.nrows();
        while self.cols.len() <= dst as usize {
            self.cols.push(vec![MCell::Empty; rows]);
        }
        let copied = self.cols[src as usize].clone();
        debug_assert!(copied.iter().all(|c| !c.is_formula()));
        self.cols[dst as usize] = copied;
    }

    // --- query answers ------------------------------------------------------

    pub fn count_text(&self, col: u16, text: &str) -> u64 {
        self.cols[col as usize]
            .iter()
            .filter(|&&c| self.text_is(c, text))
            .count() as u64
    }

    pub fn sum_if(&self, crit: u16, text: &str, sum: u16) -> f64 {
        (0..self.nrows())
            .filter(|&r| self.text_is(self.cols[crit as usize][r], text))
            .filter_map(|r| self.num_at(r, sum))
            .sum()
    }

    pub fn count_gt(&self, col: u16, threshold: f64) -> u64 {
        self.cols[col as usize]
            .iter()
            .filter(|c| matches!(c, MCell::Num(x) if *x > threshold))
            .count() as u64
    }

    /// `(group key, sum of measure)` for every non-empty key of `dim`,
    /// sorted by key.
    pub fn pivot_sum(&self, dim: u16, measure: u16) -> Vec<(String, f64)> {
        let mut groups: HashMap<u32, f64> = HashMap::new();
        for row in 0..self.nrows() {
            if let MCell::Text(id) = self.cols[dim as usize][row] {
                *groups.entry(id).or_insert(0.0) += self.num_at(row, measure).unwrap_or(0.0);
            }
        }
        let mut out: Vec<(String, f64)> = groups
            .into_iter()
            .map(|(id, sum)| (self.strings.get(id).to_owned(), sum))
            .collect();
        out.sort_by_key(|group| group.0.to_lowercase());
        out
    }

    /// Exact-match lookup of `key` in `key_col`, returning the `ret_col`
    /// cell of the first matching row.
    pub fn vlookup(&self, key: f64, key_col: u16, ret_col: u16) -> Exp {
        match (0..self.nrows()).find(|&r| self.num_at(r, key_col) == Some(key)) {
            Some(row) => self.plain(self.cols[ret_col as usize][row]),
            None => Exp::Error,
        }
    }

    /// The key in the last row that has one (the worst case for a scan).
    pub fn last_key(&self, key_col: u16) -> f64 {
        (0..self.nrows())
            .rev()
            .find_map(|r| self.num_at(r, key_col))
            .expect("sheet has keys")
    }

    fn plain(&self, cell: MCell) -> Exp {
        match cell {
            MCell::Empty => Exp::Empty,
            MCell::Num(x) => Exp::Num(x),
            MCell::Text(id) => Exp::Text(self.strings.get(id).to_owned()),
            other => unreachable!("{other:?} is not a plain value"),
        }
    }
}

/// Expected cell values at one point of the script. Borrowing the model
/// freezes it, so the per-column caches below cannot go stale.
pub struct Snapshot<'a> {
    model: &'a Model,
    /// col -> prefix sums of its numbers (`prefix[r]` = sum of rows `< r`).
    prefix: HashMap<u16, Vec<f64>>,
    /// col -> lowercase text -> cells holding it.
    text_counts: HashMap<u16, HashMap<String, u64>>,
    /// First row of each key of column 0 (the lookup column).
    key_rows: Option<HashMap<u64, u32>>,
    aggs: HashMap<[u32; 4], Exp>,
}

impl<'a> Snapshot<'a> {
    pub fn new(model: &'a Model) -> Snapshot<'a> {
        Snapshot {
            model,
            prefix: HashMap::new(),
            text_counts: HashMap::new(),
            key_rows: None,
            aggs: HashMap::new(),
        }
    }

    /// What the sheet must show at `(row, col)`.
    pub fn expected(&mut self, row: usize, col: u16) -> Exp {
        let m = self.model;
        if col as usize >= m.ncols() || row >= m.nrows() {
            return Exp::Empty;
        }
        match m.cols[col as usize][row] {
            MCell::CountifCell { col: src, keyword } => {
                let hit = m.text_is(m.cols[src as usize][row], m.strings.get(keyword));
                Exp::Num(f64::from(u8::from(hit)))
            }
            MCell::Window { len: 0, .. } => Exp::Error,
            MCell::Window { col: src, len } => {
                let prefix = self.prefix.entry(src).or_insert_with(|| {
                    let mut acc = 0.0;
                    let mut out = Vec::with_capacity(m.nrows() + 1);
                    out.push(0.0);
                    for r in 0..m.nrows() {
                        acc += m.num_at(r, src).unwrap_or(0.0);
                        out.push(acc);
                    }
                    out
                });
                let window = prefix[row + 1] - prefix[row + 1 - len as usize];
                Exp::Num(window * 2.0 + m.num_at(row, src).unwrap_or(0.0))
            }
            MCell::CountifCol { col: src } => match m.cols[src as usize][row] {
                MCell::Text(id) => {
                    let wanted = m.strings.get(id).to_lowercase();
                    Exp::Num(self.text_counts(src).get(&wanted).copied().unwrap_or(0) as f64)
                }
                other => unreachable!("COUNTIF criterion cell holds {other:?}"),
            },
            MCell::Vlookup { key } => {
                let rows = self.key_rows.get_or_insert_with(|| {
                    let mut first: HashMap<u64, u32> = HashMap::new();
                    for r in (0..m.nrows()).rev() {
                        if let Some(k) = m.num_at(r, 0) {
                            first.insert(k.to_bits(), r as u32);
                        }
                    }
                    first
                });
                match rows.get(&f64::from(key).to_bits()) {
                    Some(&r) => m.plain(m.cols[1][r as usize]),
                    None => Exp::Error,
                }
            }
            MCell::Agg(agg) => self.agg(agg),
            plain => m.plain(plain),
        }
    }

    fn text_counts(&mut self, col: u16) -> &HashMap<String, u64> {
        let m = self.model;
        self.text_counts.entry(col).or_insert_with(|| {
            let mut by_id: HashMap<u32, u64> = HashMap::new();
            for cell in &m.cols[col as usize] {
                if let MCell::Text(id) = cell {
                    *by_id.entry(*id).or_insert(0) += 1;
                }
            }
            let mut by_text: HashMap<String, u64> = HashMap::new();
            for (id, n) in by_id {
                *by_text.entry(m.strings.get(id).to_lowercase()).or_insert(0) += n;
            }
            by_text
        })
    }

    fn agg(&mut self, agg: Agg) -> Exp {
        let key = match agg {
            Agg::Sum(c) => [0, u32::from(c), 0, 0],
            Agg::Average(c) => [1, u32::from(c), 0, 0],
            Agg::Min(c) => [2, u32::from(c), 0, 0],
            Agg::Max(c) => [3, u32::from(c), 0, 0],
            Agg::Count(c) => [4, u32::from(c), 0, 0],
            Agg::CountIf { col, text } => [5, u32::from(col), text, 0],
            Agg::SumIf { crit, text, sum } => [6, u32::from(crit), text, u32::from(sum)],
        };
        if let Some(hit) = self.aggs.get(&key) {
            return hit.clone();
        }
        let m = self.model;
        let nums = |c: u16| {
            m.cols[c as usize].iter().filter_map(|cell| match cell {
                MCell::Num(x) => Some(*x),
                _ => None,
            })
        };
        let value = match agg {
            Agg::Sum(c) => Exp::Num(nums(c).sum()),
            Agg::Average(c) => match nums(c).count() {
                0 => Exp::Error,
                n => Exp::Num(nums(c).sum::<f64>() / n as f64),
            },
            Agg::Min(c) => Exp::Num(nums(c).reduce(f64::min).unwrap_or(0.0)),
            Agg::Max(c) => Exp::Num(nums(c).reduce(f64::max).unwrap_or(0.0)),
            Agg::Count(c) => Exp::Num(nums(c).count() as f64),
            Agg::CountIf { col, text } => Exp::Num(m.count_text(col, m.strings.get(text)) as f64),
            Agg::SumIf { crit, text, sum } => Exp::Num(m.sum_if(crit, m.strings.get(text), sum)),
        };
        self.aggs.insert(key, value.clone());
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_model() -> Model {
        let mut m = Model::with_shape(6, 2);
        for r in 0..6 {
            m.set(r, 0, MCell::Num((r + 1) as f64));
            if r >= 2 {
                m.set(r, 1, MCell::Window { col: 0, len: 3 });
            }
        }
        m
    }

    #[test]
    fn window_values_follow_insert_and_delete() {
        let mut m = window_model();
        assert_eq!(
            Snapshot::new(&m).expected(3, 1),
            Exp::Num((2.0 + 3.0 + 4.0) * 2.0 + 4.0)
        );
        m.insert_row(3);
        // Row 3 is blank; the old row 3 formula now sits at row 4 and its
        // window straddles the blank row.
        assert_eq!(m.cols[1][4], MCell::Window { col: 0, len: 4 });
        assert_eq!(
            Snapshot::new(&m).expected(4, 1),
            Exp::Num((2.0 + 3.0 + 4.0) * 2.0 + 4.0)
        );
        assert_eq!(m.cols[1][2], MCell::Window { col: 0, len: 3 });
        m.delete_row(3);
        assert_eq!(m.cols[1][3], MCell::Window { col: 0, len: 3 });
    }

    #[test]
    fn sort_breaks_windows_that_leave_the_sheet() {
        let mut m = window_model();
        m.sort_by(0, true);
        assert_eq!(m.cols[0][0], MCell::Num(6.0));
        assert_eq!(Snapshot::new(&m).expected(0, 1), Exp::Error);
        assert_eq!(
            Snapshot::new(&m).expected(2, 1),
            Exp::Num((6.0 + 5.0 + 4.0) * 2.0 + 4.0)
        );
        m.sort_by(0, false);
        // Broken stays broken after sorting back.
        assert_eq!(Snapshot::new(&m).expected(5, 1), Exp::Error);
    }

    #[test]
    fn find_replace_counts_cells_and_queries_see_it() {
        let mut m = Model::with_shape(3, 2);
        for (r, s) in ["HAIL", "NONE", "HAILSTORM"].iter().enumerate() {
            let cell = m.text(s);
            m.set(r, 0, cell);
            m.set(r, 1, MCell::Num(1.0));
        }
        assert_eq!(m.find_replace(0, 0, "HAIL", "SLEET"), 2);
        assert_eq!(m.count_text(0, "sleet"), 1);
        assert_eq!(m.pivot_sum(0, 1).len(), 3);
    }
}
