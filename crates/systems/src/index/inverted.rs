//! An inverted token index over all text cells of a sheet — the §5.1.2
//! optimization ("inverted indexing of tokens can make it near-constant
//! time") that turns find-and-replace from O(m·n) into
//! O(postings-of-needle), and makes searching for an *absent* value O(1).
//!
//! Granularity is the token (maximal alphanumeric run), the same unit
//! text search engines index; whole-cell matches are also indexed so the
//! common "find a value" case needs one probe. Tokens are folded with the
//! ASCII case fold — the engine's `sheet_eq` equivalence — in the index,
//! the probe and the rewrite alike.
//!
//! This is *not* `Op::FindReplace` with an index under it: the engine op
//! matches substrings case-sensitively, the index matches whole tokens
//! case-folded. The two agree exactly on whole-token, case-exact ASCII
//! needles — the only class Fig 9 plants (`tests/engine_properties.rs`
//! pins that) — and differ elsewhere: `storm` rewrites `storms` and
//! skips `STORM` through the op, the reverse through the index.

use std::collections::HashMap;

use ssbench_engine::meter::Primitive;
use ssbench_engine::prelude::*;

/// Inverted index over the text cells of a sheet.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// ASCII-lower-cased token → cells containing it.
    postings: HashMap<String, Vec<CellAddr>>,
}

/// Splits text into maximal alphanumeric tokens, ASCII-lower-cased.
fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_ascii_lowercase)
}

impl InvertedIndex {
    /// Builds the index over every text cell of `sheet`: one O(cells)
    /// pass at build time buys near-constant search forever after.
    pub(crate) fn build(sheet: &Sheet) -> Self {
        let mut idx = InvertedIndex::default();
        let Some(range) = sheet.used_range() else { return idx };
        for addr in range.iter() {
            if let Value::Text(s) = sheet.value(addr) {
                idx.index_cell(addr, &s);
            }
        }
        idx
    }

    /// Indexes one cell's text.
    fn index_cell(&mut self, addr: CellAddr, text: &str) {
        for token in tokenize(text) {
            let list = self.postings.entry(token).or_default();
            if list.last() != Some(&addr) {
                list.push(addr);
            }
        }
    }

    /// Removes one cell's text from the index (edit maintenance).
    fn unindex_cell(&mut self, addr: CellAddr, text: &str) {
        for token in tokenize(text) {
            if let Some(list) = self.postings.get_mut(&token) {
                list.retain(|&a| a != addr);
                if list.is_empty() {
                    self.postings.remove(&token);
                }
            }
        }
    }

    /// Cells whose text contains `needle` as a token. O(1) hash probe —
    /// in particular, a *nonexistent* needle returns instantly, the exact
    /// contrast to §5.1.2's linear-time finding.
    fn find_token(&self, needle: &str) -> &[CellAddr] {
        self.postings
            .get(&needle.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Index-accelerated find-and-replace: probes the index instead of
    /// scanning, rewrites only the posted cells, and maintains the index.
    /// Token-granular: `needle` must be a whole token. Charges what it
    /// touches to the sheet's meter — one probe plus one read per posting,
    /// on top of the writes `set_value` charges itself.
    pub fn find_replace(&mut self, sheet: &mut Sheet, needle: &str, replacement: &str) -> u32 {
        sheet.meter().tick(Primitive::IndexProbe);
        let hits: Vec<CellAddr> = self.find_token(needle).to_vec();
        sheet.meter().bump(Primitive::CellRead, hits.len() as u64);
        let mut changed = 0;
        for addr in hits {
            let Value::Text(old) = sheet.value(addr) else { continue };
            let new_text = replace_token(&old, needle, replacement);
            if *new_text != *old {
                self.unindex_cell(addr, &old);
                self.index_cell(addr, &new_text);
                sheet.set_value(addr, Value::text(new_text));
                changed += 1;
            }
        }
        changed
    }
}

/// Replaces whole-token occurrences of `needle` (ASCII-case-insensitive)
/// in `text`.
fn replace_token(text: &str, needle: &str, replacement: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut token = String::new();
    let flush = |token: &mut String, out: &mut String| {
        if !token.is_empty() {
            if token.eq_ignore_ascii_case(needle) {
                out.push_str(replacement);
            } else {
                out.push_str(token);
            }
            token.clear();
        }
    };
    for c in text.chars() {
        if c.is_alphanumeric() {
            token.push(c);
        } else {
            flush(&mut token, &mut out);
            out.push(c);
        }
    }
    flush(&mut token, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet() -> Sheet {
        let mut s = Sheet::new();
        for (i, t) in ["STORM warning", "calm", "storm, then HAIL", "hail"].iter().enumerate() {
            s.set_value(CellAddr::new(i as u32, 0), *t);
        }
        s.set_value(CellAddr::new(4, 0), 42); // numbers not indexed
        s
    }

    #[test]
    fn tokenization() {
        let tokens: Vec<String> = tokenize("STORM, then-hail 2x").collect();
        assert_eq!(tokens, ["storm", "then", "hail", "2x"]);
    }

    #[test]
    fn build_and_find() {
        let idx = InvertedIndex::build(&sheet());
        assert_eq!(idx.find_token("storm").len(), 2);
        assert_eq!(idx.find_token("HAIL").len(), 2);
        assert_eq!(idx.find_token("tornado").len(), 0); // absent: O(1)
        assert_eq!(idx.find_token("42").len(), 0); // numbers not indexed
    }

    #[test]
    fn find_replace_via_index() {
        let mut s = sheet();
        let mut idx = InvertedIndex::build(&s);
        let changed = idx.find_replace(&mut s, "storm", "WIND");
        assert_eq!(changed, 2);
        assert_eq!(s.value(CellAddr::new(0, 0)), Value::text("WIND warning"));
        assert_eq!(s.value(CellAddr::new(2, 0)), Value::text("WIND, then HAIL"));
        // The index was maintained.
        assert_eq!(idx.find_token("storm").len(), 0);
        assert_eq!(idx.find_token("wind").len(), 2);
    }

    #[test]
    fn replace_is_whole_token_only() {
        assert_eq!(replace_token("storms storm", "storm", "X"), "storms X");
        assert_eq!(replace_token("a-storm-b", "STORM", "X"), "a-X-b");
    }

    #[test]
    fn probe_and_rewrite_share_one_case_fold() {
        // Non-ASCII letters are outside the fold: `ÉCOLE` and `école` are
        // different tokens for the probe *and* the rewrite, so a posting
        // hit always rewrites and the two spellings never half-match.
        for (needle, expect) in [("école", 1), ("ÉCOLE", 1), ("École", 1), ("ecole", 0)] {
            let mut s = Sheet::new();
            s.set_value(CellAddr::new(0, 0), "ÉCOLE fermée");
            s.set_value(CellAddr::new(1, 0), "une école");
            let mut idx = InvertedIndex::build(&s);
            let hits = idx.find_token(needle).len();
            let changed = idx.find_replace(&mut s, needle, "X");
            assert_eq!(hits, expect, "{needle}: postings");
            assert_eq!(changed as usize, hits, "{needle}: every posting hit rewrites");
        }
        // ASCII letters still fold.
        let mut s = sheet();
        let mut idx = InvertedIndex::build(&s);
        assert_eq!(idx.find_replace(&mut s, "Storm", "x"), 2);
    }

    #[test]
    fn find_replace_charges_probe_and_posting_reads() {
        let mut s = sheet();
        let mut idx = InvertedIndex::build(&s);
        let before = s.meter().snapshot();
        idx.find_replace(&mut s, "tornado", "x");
        let absent = s.meter().snapshot().since(&before);
        assert_eq!(absent.get(Primitive::IndexProbe), 1);
        assert_eq!(absent.total(), 1, "an absent needle is one probe and nothing else");
        let before = s.meter().snapshot();
        idx.find_replace(&mut s, "hail", "snow");
        let present = s.meter().snapshot().since(&before);
        assert_eq!(present.get(Primitive::CellRead), 2, "one read per posting");
        assert_eq!(present.get(Primitive::CellWrite), 2);
    }

    #[test]
    fn unindex_then_absent() {
        let mut idx = InvertedIndex::build(&sheet());
        idx.unindex_cell(CellAddr::new(1, 0), "calm");
        assert_eq!(idx.find_token("calm").len(), 0);
    }
}
