//! Grid storage: one store, [`GridStore`], a chunked columnar core
//! (DESIGN.md §14) of typed fixed-size segments per column with a
//! spill-to-disk buffer pool under a per-sheet budget
//! (`Sheet::set_grid_budget`), and beside each
//! column's segments its fills, as row runs (`fills`).
//!
//! Range scans walk the store in row-major order — the order the
//! benchmarked systems effectively use (the paper finds "none of the
//! systems utilize any intelligent in-memory layout", §5.2) — with one
//! reader, `GridStore::scan_range`: a single-column window comes out as
//! the typed runs it is stored in, a wider one a cell at a time.
//!
//! Reads hand out [`CellGet`] — a borrow when the cell has real storage
//! (always true for formulas), an owned reconstruction for typed slots.
//! Writes are fallible: addresses past [`MAX_ROWS`]/[`MAX_COLS`] are a
//! typed `EngineError::OutOfBounds` instead of a wrap or abort, and
//! malformed permutations are `EngineError::BadPermutation`.

mod chunk;
mod fills;
mod pool;

pub use chunk::{CellGet, GridStore, MAX_COLS, MAX_ROWS};
pub use pool::SpillStats;

pub(crate) use chunk::{ChunkMut, IdMemo, ScanSlice, CHUNK_ROWS};

use crate::cell::Cell;

/// The engine's one scan order. Not a knob: this type is left only
/// because `benchmark/src/api.rs` names `Layout::RowMajor` and passes it
/// to [`crate::io::open`], the one signature that still takes it; it goes
/// when the benchmark's call does (ROADMAP item 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Row-major — the order the benchmarked systems effectively use
    /// (§5.2 finds no evidence of columnar layouts).
    RowMajor,
}

/// The static empty cell returned for vacant positions.
pub fn empty_cell() -> &'static Cell {
    const EMPTY: &Cell = &Cell::Value(crate::value::Value::Empty);
    EMPTY
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CellAddr, Range};
    use crate::cell::Formula;
    use crate::error::EngineError;
    use crate::formula::parse;
    use crate::style::Color;
    use crate::value::Value;

    fn range(s: &str) -> Range {
        Range::parse(s).unwrap()
    }

    /// The displayed values `scan_range` emits, flattened in emission order.
    fn scan_values(g: &GridStore, range: Range) -> Vec<Value> {
        let mut out = Vec::new();
        g.scan_range(range, &mut |s| match s {
            ScanSlice::Nums(v) => out.extend(v.iter().map(|&n| Value::Number(n))),
            ScanSlice::Texts(ids, interner) => {
                out.extend(ids.iter().map(|&id| interner.value(id).clone()))
            }
            ScanSlice::Cells(cells) => out.extend(cells.iter().map(|c| c.display_value().clone())),
            ScanSlice::Empty(n) => out.extend(std::iter::repeat_n(Value::Empty, n)),
        });
        out
    }

    #[test]
    fn reads_writes_and_growth() {
        let mut g = GridStore::new(2, 3);
        assert_eq!((g.nrows(), g.ncols()), (2, 3));
        let a = CellAddr::new(0, 1);
        g.set(a, Cell::value(7)).unwrap();
        assert_eq!(g.get(a).unwrap().display_value(), &Value::Number(7.0));
        // Out of bounds reads are None.
        assert!(g.get(CellAddr::new(9, 9)).is_none());
        // Writing out of bounds grows, in either direction alone too.
        g.set(CellAddr::new(4, 4), Cell::value("x")).unwrap();
        assert_eq!((g.nrows(), g.ncols()), (5, 5));
        g.set(CellAddr::new(0, 7), Cell::value(1)).unwrap();
        assert_eq!((g.nrows(), g.ncols()), (5, 8));
        g.set(CellAddr::new(9, 0), Cell::value("z")).unwrap();
        assert_eq!((g.nrows(), g.ncols()), (10, 8));
        assert_eq!(g.value_at(CellAddr::new(9, 0)), Value::text("z"));
        // In-extent vacant positions read as empty, not None.
        assert!(g.get(CellAddr::new(3, 3)).unwrap().is_vacant());
        assert!(g.get(CellAddr::new(8, 6)).unwrap().is_vacant());
        g.validate();
    }

    #[test]
    fn text_round_trips_through_interner() {
        let mut g = GridStore::new(1, 1);
        for r in 0..100 {
            g.set(CellAddr::new(r, 0), Cell::value(format!("s{}", r % 7))).unwrap();
        }
        assert_eq!(g.value_at(CellAddr::new(13, 0)), Value::text("s6"));
        assert_eq!(g.value_at(CellAddr::new(70, 0)), Value::text("s0"));
        g.validate();
    }

    #[test]
    fn permute_rows_moves_every_column() {
        let mut g = GridStore::new(3, 2);
        for r in 0..3 {
            g.set(CellAddr::new(r, 0), Cell::value(i64::from(r))).unwrap();
            g.set(CellAddr::new(r, 1), Cell::value(format!("r{r}"))).unwrap();
        }
        g.permute_rows(&[2, 0, 1]).unwrap();
        let v = |r: u32, c: u32| g.value_at(CellAddr::new(r, c)).display();
        assert_eq!(v(0, 0), "2");
        assert_eq!(v(1, 0), "0");
        assert_eq!(v(2, 0), "1");
        assert_eq!(v(0, 1), "r2");
        g.validate();
    }

    #[test]
    fn malformed_permutations_are_typed_errors() {
        let mut g = GridStore::new(3, 1);
        for r in 0..3 {
            g.set(CellAddr::new(r, 0), Cell::value(i64::from(r))).unwrap();
        }
        for bad in [&[0u32, 1][..], &[0, 1, 3], &[0, 0, 1]] {
            let err = g.permute_rows(bad).unwrap_err();
            assert!(
                matches!(err, EngineError::BadPermutation(_)),
                "expected BadPermutation, got {err:?}"
            );
        }
        // The grid is untouched after a rejected permutation.
        for r in 0..3 {
            assert_eq!(g.value_at(CellAddr::new(r, 0)), Value::Number(f64::from(r)));
        }
        g.validate();
    }

    #[test]
    fn range_scan_is_row_major_and_clips() {
        let mut g = GridStore::new(4, 2);
        for r in 0..4 {
            for c in 0..2 {
                g.set(CellAddr::new(r, c), Cell::value(i64::from(r * 10 + c))).unwrap();
            }
        }
        let nums = |g: &GridStore, window: &str| -> Vec<i64> {
            let values = scan_values(g, range(window));
            values.iter().map(|v| v.as_number().unwrap() as i64).collect()
        };
        assert_eq!(nums(&g, "A1:B2"), [0, 1, 10, 11]);
        // An interior window scans exactly its own cells.
        assert_eq!(nums(&g, "A2:B3"), [10, 11, 20, 21]);
        // Clipped to the materialized area: a huge range scans only real cells.
        assert_eq!(nums(&g, "A1:Z100").len(), 8);
        assert_eq!(nums(&g, "B3:B100"), [21, 31]);
        // A range outside the extent, and an empty store, scan nothing.
        assert!(scan_values(&g, range("C1:D2")).is_empty());
        assert!(scan_values(&GridStore::new(0, 0), range("A1:B2")).is_empty());
    }

    #[test]
    fn single_column_scan_emits_contiguous_nums() {
        let mut g = GridStore::new(1, 1);
        for r in 0..200 {
            g.set(CellAddr::new(r, 0), Cell::value(f64::from(r))).unwrap();
        }
        let (mut nums, mut cells, mut total) = (0usize, 0usize, 0usize);
        g.scan_range(range("A1:A200"), &mut |s| match s {
            ScanSlice::Nums(v) => {
                nums += 1;
                total += v.len();
            }
            ScanSlice::Cells(v) => {
                cells += 1;
                total += v.len();
            }
            ScanSlice::Texts(ids, _) => total += ids.len(),
            ScanSlice::Empty(n) => total += n,
        });
        assert_eq!(total, 200);
        assert_eq!(nums, 1, "typed chunk should emit one contiguous f64 run");
        assert_eq!(cells, 0);
    }

    #[test]
    fn a_two_cell_chunk_scan_covers_the_gaps() {
        let mut g = GridStore::new(10, 1);
        g.set(CellAddr::new(2, 0), Cell::value(5)).unwrap();
        g.set(CellAddr::new(7, 0), Cell::value(9)).unwrap();
        let (mut nums, mut empties) = (Vec::new(), 0usize);
        g.scan_range(range("A1:A10"), &mut |s| match s {
            ScanSlice::Nums(v) => nums.extend_from_slice(v),
            ScanSlice::Empty(n) => empties += n,
            ScanSlice::Cells(_) | ScanSlice::Texts(..) => panic!("two numbers open a `Num` chunk"),
        });
        assert_eq!(nums, [5.0, 9.0]);
        assert_eq!(empties, 8);
    }

    /// `scan_range` — what the kernels and the interpreter's `read_range`
    /// both fold — must hand over the cells `get` reads, in row-major
    /// order, over every segment kind: the order is what makes float
    /// accumulation bit-identical between the two evaluators.
    #[test]
    fn scan_agrees_with_get_in_row_major_order_over_every_segment_kind() {
        use super::chunk::CHUNK_ROWS;
        let mut g = GridStore::new(1, 1);
        let rows = 3 * CHUNK_ROWS;
        for r in 0..rows {
            // A: numbers (Num chunks); B: text (Text chunks).
            g.set(CellAddr::new(r, 0), Cell::value(f64::from(r) + 0.25)).unwrap();
            g.set(CellAddr::new(r, 1), Cell::value(format!("t{r}"))).unwrap();
        }
        // C: a full chunk of formulas and bools (Cells), a chunk with a
        // handful of numbers, and a fully vacant third chunk.
        for r in 0..CHUNK_ROWS {
            let cell = if r % 2 == 0 {
                Cell::value(r % 3 == 0)
            } else {
                let mut formula = Formula::new(parse("1+1").unwrap());
                formula.cached = f64::from(r).into();
                Cell::Formula(Box::new(formula))
            };
            g.set(CellAddr::new(r, 2), cell).unwrap();
        }
        for r in [3, 40, 500] {
            g.set(CellAddr::new(CHUNK_ROWS + r, 2), Cell::value(i64::from(r))).unwrap();
        }
        // A cap of two pages leaves most typed chunks spilled.
        g.set_budget(Some(2 * 8320));
        assert!(g.spill_stats().spills > 0, "nothing spilled");
        g.validate();

        // The last window reaches past the extent on both sides.
        let windows =
            ["A1:C3072", "A1000:C1100", "B5:B2500", "A1030:C1030", "B2:C2047", "B3000:E4000"];
        for window in windows {
            let window = range(window);
            let clipped = window.clip_to(g.nrows(), g.ncols()).unwrap();
            let read: Vec<Value> =
                clipped.iter().map(|a| g.get(a).unwrap().display_value().clone()).collect();
            assert_eq!(scan_values(&g, window), read, "{window:?}");
        }
    }

    /// A slot as the tests see it: the cell and its fill.
    type Slot = (Cell, Option<Color>);

    /// Every cell of `g` with its fill, row by row.
    fn snapshot(g: &GridStore) -> Vec<Vec<Slot>> {
        let slot = |r, c| {
            let at = CellAddr::new(r, c);
            (g.get(at).unwrap().into_cell(), g.fill(at))
        };
        (0..g.nrows()).map(|r| (0..g.ncols()).map(|c| slot(r, c)).collect()).collect()
    }

    /// Slots holding a cell: what a structural edit counts, a fill on an
    /// empty cell not included.
    fn occupied(rows: &[Vec<Slot>]) -> u64 {
        rows.iter().flatten().filter(|(c, _)| !c.is_vacant()).count() as u64
    }

    /// A 3000-row grid whose columns cover every segment kind: A numbers
    /// with presence holes, B text, C a full chunk of formulas and bools
    /// then a chunk of five numbers, D a number chunk followed by a text
    /// chunk followed by bools, E a lone far-down cell. Fills lie over
    /// numbers, over a chunk boundary, and on an empty cell.
    fn mixed_grid() -> GridStore {
        use super::chunk::CHUNK_ROWS;
        let mut g = GridStore::new(1, 1);
        for r in 0..3000u32 {
            if r % 7 != 3 {
                g.set(CellAddr::new(r, 0), Cell::value(f64::from(r) + 0.5)).unwrap();
            }
            if r % 11 != 5 {
                g.set(CellAddr::new(r, 1), Cell::value(format!("t{}", r % 17))).unwrap();
            }
            let d = match r / CHUNK_ROWS {
                0 => Cell::value(f64::from(r)),
                1 => Cell::value(format!("d{r}")),
                _ => Cell::value(r % 2 == 0),
            };
            g.set(CellAddr::new(r, 3), d).unwrap();
        }
        for r in 0..CHUNK_ROWS {
            let cell = if r % 3 == 0 {
                Cell::value(r % 2 == 0)
            } else {
                let mut formula = Formula::new(parse("A1+1").unwrap());
                formula.cached = f64::from(r).into();
                Cell::Formula(Box::new(formula))
            };
            g.set(CellAddr::new(r, 2), cell).unwrap();
        }
        for r in [0, 1, 500, 1022, 1023] {
            g.set(CellAddr::new(CHUNK_ROWS + r, 2), Cell::value(i64::from(r))).unwrap();
        }
        g.set(CellAddr::new(2999, 4), Cell::value("end")).unwrap();
        let green = Some(Color::GREEN);
        g.restyle(2, CHUNK_ROWS + 7, CHUNK_ROWS + 7, |_, _| green);
        g.restyle(0, 1000, 1100, |r, _| if r % 3 == 0 { None } else { green });
        g.restyle(3, 1020, 2100, |r, _| [green, Some(Color::BLACK)][(r / 500 % 2) as usize]);
        g
    }

    /// The row shift on its own, against a `Vec` model: every `at` around
    /// the word and chunk boundaries crossed with counts that carry slots
    /// zero, one and many chunks along, over every segment kind, with and
    /// without a budget that keeps most typed chunks spilled.
    #[test]
    fn row_shifts_match_a_vec_model_across_chunk_boundaries() {
        const ATS: [u32; 12] = [0, 1, 63, 64, 65, 700, 1023, 1024, 1025, 2047, 2999, 3500];
        const COUNTS: [u32; 7] = [1, 63, 65, 1023, 1024, 1025, 2048];
        let budget = 3 * 8320;
        for (case, (&at, &count)) in
            ATS.iter().flat_map(|at| COUNTS.iter().map(move |c| (at, c))).enumerate()
        {
            for insert in [true, false] {
                let mut g = mixed_grid();
                if case % 3 != 0 {
                    g.set_budget(Some(budget));
                    assert!(g.spill_stats().spills > 0);
                }
                let mut model = snapshot(&g);
                let ncols = g.ncols() as usize;
                let lo = (at as usize).min(model.len());
                let counts = if insert {
                    let blank = vec![(Cell::empty(), None); ncols];
                    // Past the extent nothing moves, but the extent grows.
                    model.splice(lo..lo, std::iter::repeat_n(blank, count as usize));
                    g.insert_rows(at, count)
                } else {
                    let hi = (lo + count as usize).min(model.len());
                    model.drain(lo..hi);
                    g.delete_rows(at, count)
                };
                let what = format!("insert={insert} at={at} count={count}");
                g.validate();
                assert_eq!(g.nrows() as usize, model.len(), "{what}");
                assert_eq!(snapshot(&g), model, "{what}");
                let kept = occupied(&model[..lo]);
                let tail = if insert { lo + count as usize } else { lo };
                let moved = occupied(&model[tail.min(model.len())..]);
                assert_eq!((counts.kept, counts.moved), (kept, moved), "{what}");
                if let Some(b) = g.budget() {
                    assert!(g.resident_spill_bytes() <= b, "{what}: over budget");
                }
            }
        }
    }

    /// The permutation on its own, against the same `Vec` model: row `i`
    /// of the result is row `perm[i]` of the snapshot, whatever mix of
    /// segment kinds each destination chunk collects, spilled or not.
    #[test]
    fn permutations_match_a_vec_model_over_every_segment_kind() {
        let n = 3000u32;
        // 1 499 is coprime to 3 000: consecutive rows land chunks apart.
        let stride = |i: u32| (i * 1499 + 7) % n;
        let perms: [(&str, Vec<u32>); 4] = [
            ("identity", (0..n).collect()),
            ("reversal", (0..n).rev().collect()),
            ("rotation by 1025", (0..n).map(|i| (i + 1025) % n).collect()),
            ("stride", (0..n).map(stride).collect()),
        ];
        for (what, perm) in &perms {
            for budget in [None, Some(3 * 8320)] {
                let mut g = mixed_grid();
                g.set_budget(budget);
                let model = snapshot(&g);
                g.permute_rows(perm).unwrap();
                g.validate();
                let want: Vec<Vec<Slot>> =
                    perm.iter().map(|&p| model[p as usize].clone()).collect();
                assert_eq!(snapshot(&g), want, "{what} budget={budget:?}");
                if let Some(b) = budget {
                    assert!(g.spill_stats().spills > 0);
                    assert!(g.resident_spill_bytes() <= b, "{what}: over budget");
                }
            }
        }
    }

    #[test]
    fn column_shifts_match_a_vec_model_and_free_dropped_pages() {
        for (at, count) in [(0u32, 1u32), (0, 9), (2, 1), (2, 2), (4, 3), (5, 1), (9, 2)] {
            for insert in [true, false] {
                let mut g = mixed_grid();
                g.set_budget(Some(3 * 8320));
                let mut model = snapshot(&g);
                let width = model[0].len();
                let lo = (at as usize).min(width);
                let hi = (lo + count as usize).min(width);
                let by_cols = |m: &[Vec<Slot>], a: usize, b: usize| -> u64 {
                    let slots = m.iter().flat_map(|row| &row[a..b]);
                    slots.filter(|(c, _)| !c.is_vacant()).count() as u64
                };
                let (kept, moved) = (
                    by_cols(&model, 0, lo),
                    by_cols(&model, if insert { lo } else { hi }, width),
                );
                for row in &mut model {
                    if insert {
                        let blank = std::iter::repeat_n((Cell::empty(), None), count as usize);
                        row.splice(lo..lo, blank);
                    } else {
                        row.drain(lo..hi);
                    }
                }
                let counts =
                    if insert { g.insert_cols(at, count) } else { g.delete_cols(at, count) };
                let what = format!("insert={insert} at={at} count={count}");
                // Validation also proves the dropped columns' pages went
                // back to the free list and the resident bytes were given up.
                g.validate();
                assert_eq!(g.ncols() as usize, model[0].len(), "{what}");
                assert_eq!(snapshot(&g), model, "{what}");
                assert_eq!((counts.kept, counts.moved), (kept, moved), "{what}");
                assert!(g.resident_spill_bytes() <= 3 * 8320, "{what}: over budget");
            }
        }
    }

    #[test]
    fn boundary_addresses_rejected() {
        let mut g = GridStore::new(1, 1);
        // `row + 1` would overflow u32.
        assert!(matches!(
            g.set(CellAddr::new(u32::MAX, 0), Cell::value(1)),
            Err(EngineError::OutOfBounds { .. })
        ));
        assert!(matches!(
            g.set(CellAddr::new(0, u32::MAX), Cell::value(1)),
            Err(EngineError::OutOfBounds { .. })
        ));
        // Beyond the engine's hard limits.
        assert!(matches!(
            g.set(CellAddr::new(MAX_ROWS, 0), Cell::value(1)),
            Err(EngineError::OutOfBounds { .. })
        ));
        assert!(matches!(
            g.ensure_size(MAX_ROWS + 1, 1),
            Err(EngineError::OutOfBounds { .. })
        ));
        assert!(matches!(
            g.ensure_size(1, MAX_COLS + 1),
            Err(EngineError::OutOfBounds { .. })
        ));
        // The exact boundary itself is fine.
        g.ensure_size(MAX_ROWS, 2).unwrap();
        g.set(CellAddr::new(MAX_ROWS - 1, 1), Cell::value(9)).unwrap();
        assert_eq!(g.value_at(CellAddr::new(MAX_ROWS - 1, 1)), Value::Number(9.0));
        // A failed write leaves the extent unchanged.
        let before = (g.nrows(), g.ncols());
        assert!(g.set(CellAddr::new(u32::MAX - 1, 0), Cell::value(1)).is_err());
        assert_eq!((g.nrows(), g.ncols()), before);
        g.validate();
    }

    #[test]
    fn far_corner_writes_allocate_no_intervening_chunks() {
        let mut g = GridStore::new(1, 1);
        g.set(CellAddr::new(0, 0), Cell::value(1)).unwrap();
        g.set(CellAddr::new(1_000_000, 3), Cell::value(2)).unwrap();
        assert_eq!(g.nrows(), 1_000_001);
        assert_eq!(g.value_at(CellAddr::new(1_000_000, 3)), Value::Number(2.0));
        // Two lone numbers are two `Num` pages and the column directory.
        let bytes = g.approx_heap_bytes();
        assert!(
            bytes < 3 * 8320,
            "2-cell sheet at opposite corners should stay under three pages, got {bytes}"
        );
        let chunks: Vec<usize> = (0..g.ncols()).map(|c| g.chunk_kinds(c).len()).collect();
        assert_eq!(chunks, [1, 0, 0, 1], "one chunk per touched column, none in between");
        g.validate();
    }

    /// The one placement rule: a vacant chunk opens in the kind of the
    /// first thing written to it, and a write of another kind turns a
    /// typed chunk into `Cells`.
    #[test]
    fn a_vacant_chunk_opens_in_the_kind_of_its_first_write() {
        let firsts = [
            (Cell::value(1.5), "num"),
            (Cell::value("one"), "text"),
            (Cell::value(true), "cells"),
            (Cell::value(crate::error::CellError::Div0), "cells"),
            (Cell::formula(parse("A1+1").unwrap()), "cells"),
        ];
        let mut g = GridStore::new(1, 1);
        for (col, (first, kind)) in (0u32..).zip(&firsts) {
            // A text is a mismatched write to every chunk but the text one.
            let second = if *kind == "text" { Cell::value(7) } else { Cell::value("seven") };
            for (row, cell, kind) in [(1500, first, *kind), (1501, &second, "cells")] {
                g.set(CellAddr::new(row, col), cell.clone()).unwrap();
                g.validate();
                assert_eq!(g.chunk_kinds(col), [kind], "{cell:?}");
            }
            assert_eq!(&*g.get(CellAddr::new(1500, col)).unwrap(), first);
            assert_eq!(&*g.get(CellAddr::new(1501, col)).unwrap(), &second);
        }
    }

    /// A conditional format over positions that hold nothing leaves no
    /// storage behind, even where a fill lands on them: the fills are runs
    /// beside the chunks.
    #[test]
    fn a_format_pass_over_a_vacant_column_leaves_no_chunk() {
        use crate::{ops::Op, sheet::Sheet, value::Criterion};
        // A holds nothing, B one number in its second chunk.
        let mut s = Sheet::with_size(2000, 2);
        s.set_value(CellAddr::new(1100, 1), 3);
        let format = |s: &mut Sheet, criterion: &str| {
            let criterion = Criterion::parse(&Value::text(criterion));
            let op = Op::CondFormat { range: range("A1:B2000"), criterion, fill: Color::GREEN };
            s.apply(op).unwrap();
            s.validate_grid();
            let g = s.grid_store();
            (g.chunk_kinds(0), g.chunk_kinds(1), g.approx_heap_bytes())
        };
        let before = s.grid_store().approx_heap_bytes();
        assert_eq!(format(&mut s, ">5"), (vec![], vec!["num"], before));
        // Empties match `<>x`: every position of the range takes the fill.
        assert_eq!(format(&mut s, "<>x"), (vec![], vec!["num"], before));
        for at in [CellAddr::new(0, 0), CellAddr::new(1999, 0), CellAddr::new(1100, 1)] {
            assert_eq!(s.fill(at), Some(Color::GREEN), "{at}");
        }
        assert_eq!(s.value(CellAddr::new(1100, 1)), Value::Number(3.0));
    }

    /// Fills ride every op that moves cells, and only a format pass changes
    /// them: random conditional formats (criteria that match empty cells
    /// among them), sorts, row and column inserts and deletes and
    /// overlapping pastes on a small sheet, with and without a budget,
    /// against a map of fills moved cell by cell. A format pass leaves every
    /// column's chunks as they were.
    #[test]
    fn fills_follow_their_cells() {
        use std::collections::HashMap;

        use rand::Rng;

        use crate::ops::structure::shift_coord as shifted;
        use crate::ops::{Op, OpOutcome, SortKey};
        use crate::sheet::Sheet;
        use crate::value::Criterion;

        type Model = HashMap<CellAddr, Color>;
        /// Moves every fill of `m` to where `f` sends its cell, if anywhere.
        fn moved(m: &mut Model, f: impl Fn(u32, u32) -> Option<(u32, u32)>) {
            let to = |at: CellAddr| f(at.row, at.col).map(|(r, c)| CellAddr::new(r, c));
            *m = m.drain().filter_map(|(at, fill)| Some((to(at)?, fill))).collect();
        }
        let kinds = |s: &Sheet| -> Vec<_> {
            (0..s.ncols()).map(|c| s.grid_store().chunk_kinds(c)).collect()
        };
        crate::testing::cases(|rng| {
            let mut s = Sheet::new();
            s.set_grid_budget(rng.random::<bool>().then_some(32 * 1024));
            for r in 0..2200u32 {
                s.set_value(CellAddr::new(r, 0), f64::from(r % 1000));
                s.set_value(CellAddr::new(r, 1), ["storm", "calm", "1"][(r % 3) as usize]);
                if r % 7 == 0 {
                    s.set_value(CellAddr::new(r, 2 + r % 2), r % 3 == 0);
                }
            }
            let mut model = Model::new();
            for _ in 0..6 {
                let (nrows, ncols) = (s.nrows(), s.ncols());
                let (row, col) = (rng.random_range(0..nrows + 3), rng.random_range(0..ncols + 2));
                let (rows, cols) = (rng.random_range(0..1500u32), rng.random_range(0..3u32));
                let (count, insert) = ([1, 3, 1024][rng.random_range(0..3usize)], rng.random());
                let corner = |rows, cols| CellAddr::new(row + rows, col + cols);
                let op = match rng.random_range(0..6) {
                    0 | 1 => {
                        let text = ["", ">600", "=1", "storm", "<>x", "<>"][rng.random_range(0..6usize)];
                        let value = if text.is_empty() { Value::Empty } else { Value::text(text) };
                        let criterion = Criterion::parse(&value);
                        let fill = [Color::GREEN, Color::BLACK][rng.random_range(0..2usize)];
                        let range = Range::new(corner(0, 0), corner(rows, cols));
                        for at in range.clip_to(nrows, ncols).iter().flat_map(Range::iter) {
                            if criterion.matches(&s.value(at)) {
                                model.insert(at, fill);
                            } else if model.get(&at) == Some(&fill) {
                                model.remove(&at);
                            }
                        }
                        Op::CondFormat { range, criterion, fill }
                    }
                    2 => Op::Sort { keys: vec![SortKey::asc(col % ncols)] },
                    3 => {
                        moved(&mut model, |r, c| Some((shifted(r, row, count, insert)?, c)));
                        let at = row;
                        match insert {
                            true => Op::InsertRows { at, count },
                            false => Op::DeleteRows { at, count },
                        }
                    }
                    4 => {
                        let (at, count) = (col, count.min(2));
                        moved(&mut model, |r, c| Some((r, shifted(c, at, count, insert)?)));
                        match insert {
                            true => Op::InsertCols { at, count },
                            false => Op::DeleteCols { at, count },
                        }
                    }
                    _ => {
                        // Near the source, so that the paste often overlaps it.
                        let src = Range::new(corner(0, 0), corner(rows % 40, cols));
                        let (dr, dc) = (row.saturating_sub(rows % 5), col.saturating_sub(cols % 2));
                        let clipboard = src.iter().map(|a| (a, model.get(&a).copied()));
                        for (a, fill) in clipboard.collect::<Vec<_>>() {
                            let to = CellAddr::new(dr + a.row - row, dc + a.col - col);
                            match fill {
                                Some(fill) => model.insert(to, fill),
                                None => model.remove(&to),
                            };
                        }
                        let dst = CellAddr::new(dr, dc);
                        Op::CopyPaste { src, dst }
                    }
                };
                let (before, what) = (kinds(&s), format!("{op:?}"));
                match s.apply(op).unwrap() {
                    OpOutcome::Sorted { permutation } => {
                        let mut to = vec![0; permutation.len()];
                        (0u32..).zip(&permutation).for_each(|(new, &old)| to[old as usize] = new);
                        moved(&mut model, |r, c| Some((to[r as usize], c)));
                    }
                    OpOutcome::Formatted { .. } => assert_eq!(kinds(&s), before, "{what}"),
                    _ => {}
                }
                s.validate_grid();
                for at in s.used_range().iter().flat_map(Range::iter) {
                    assert_eq!(s.fill(at), model.get(&at).copied(), "{what}: fill at {at}");
                }
                let inside = |at: &CellAddr| at.row < s.nrows() && at.col < s.ncols();
                assert!(model.keys().all(inside), "{what}: a fill past the extent");
            }
        });
    }

    #[test]
    fn budgeted_grid_spills_and_reloads_bit_identically() {
        let mut g = GridStore::new(1, 1);
        g.set_budget(Some(32 * 1024)); // ~4 chunks
        let n = 16 * 1024u32; // 16 chunks of numbers
        for r in 0..n {
            g.set(CellAddr::new(r, 0), Cell::value(f64::from(r) * 0.5)).unwrap();
        }
        let stats = g.spill_stats();
        assert!(stats.spills > 0, "budget should have forced spills: {stats:?}");
        assert!(g.resident_spill_bytes() <= 32 * 1024);
        // Every value reads back exactly, whether resident or spilled.
        for r in (0..n).step_by(97) {
            assert_eq!(g.value_at(CellAddr::new(r, 0)), Value::Number(f64::from(r) * 0.5));
        }
        g.validate();
        // Clearing the budget keeps values intact.
        g.set_budget(None);
        assert_eq!(g.value_at(CellAddr::new(n - 1, 0)), Value::Number(f64::from(n - 1) * 0.5));
        g.validate();
    }
}
