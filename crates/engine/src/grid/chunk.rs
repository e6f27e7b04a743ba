//! Typed columnar chunk storage. Every column is a sparse sequence of
//! fixed-size segments (`CHUNK_ROWS` rows each), keyed by chunk index in a
//! `BTreeMap` — an absent key is a fully vacant chunk that occupies no
//! memory, which is what makes a write at row 1M allocate nothing in
//! between (see the far-corner regression test).
//!
//! A chunk is resident in one of three kinds, or on a page:
//!
//! * `Num` — a presence bitmap plus `[f64; CHUNK]`: plain numeric cells.
//!   Range aggregates scan these as contiguous `f64` slices.
//! * `Text` — `[u32; CHUNK]` of interner ids (plain text cells);
//!   `u32::MAX` marks a vacant slot.
//! * `Cells` — a dense `Vec<Cell>`: the fully-general kind, for chunks
//!   holding formulas, bools, or errors. **Invariant: formula cells only
//!   ever live in `Cells`**, so borrowing reads of them
//!   (`CellGet::Borrowed`, `Sheet::formula_expr`) always find real
//!   storage, never a reconstruction.
//! * `Spilled` — a page id in the buffer pool's page file. Only `Num` and
//!   `Text` segments spill (they are plain data with a fixed codec);
//!   `Cells` segments are wired. Spilled chunks reload at `&mut` access
//!   points and are served read-only through the pool's fault cache from
//!   `&self`.
//!
//! One rule places a slot, whoever writes it (`SlotVal`, `put_cell`): a
//! vacant chunk opens in the kind of the first thing written to it — a
//! plain number opens `Num`, a plain text `Text`, anything else `Cells` —
//! a write of its own kind keeps a typed chunk typed, and any other write
//! turns it into `Cells`, once. Nothing turns a `Cells` chunk back.
//!
//! Four writers place slots through that rule. A point write
//! (`GridStore::set`) places one slot in the column's chunk
//! directory. Row and column inserts and deletes shift the storage in
//! place (`GridStore::move_rows`, DESIGN.md §15): typed runs move as
//! slices, general cells by value, and spilled chunks are loaded one at a
//! time. A row permutation — a sort — is a scatter over the same storage
//! (`GridStore::permute_rows`, DESIGN.md §14): a column's chunks are taken
//! out in order, each spilled one loaded once for its own turn, and only
//! their occupied slots are sent to their new rows — numbers as a value and
//! a presence bit, text as the interner id it already is, general cells
//! moved, formulas included, never cloned. The cell-at-a-time rebuild the
//! scatter replaced survives as `permute_rows_reference`, under
//! `#[cfg(test)]`, for the differential tests. Opening a document
//! (`GridStore::bulk_load`, DESIGN.md §17) fills one chunk per column for
//! the 1 024-row band the load is in. The last three assemble destination
//! chunks off to the side and install them with `finish_chunk`.
//!
//! The scan operations assemble nothing (DESIGN.md §18). Filter, pivot
//! and find read columns as the slices the formula kernels read
//! (`GridStore::scan_range`); find-and-replace and conditional formatting
//! and find-and-replace edits a range where it is stored, a chunk of a
//! column at a time (`GridStore::for_each_chunk_mut`, which hands out a
//! `ChunkMut`): a text chunk has interner ids exchanged for interner ids
//! and a general chunk has its cells rewritten in place. A spilled chunk
//! is read through the fault cache and loaded only when an edit lands in
//! it, with the budget enforced after each load. Conditional formatting
//! writes no slot at all: fills are row runs kept per column beside the
//! chunks (`super::fills`), moved by the same loops that move slots.
//!
//! Spill machinery never touches the op meter: a budgeted grid produces
//! bit-identical values, meter counts, and trace signatures to an
//! unbounded one (enforced by the §9 oracle's `budget` dimension).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::Arc;

use crate::addr::{CellAddr, Range};
use crate::cell::{Cell, Formula};
use crate::error::EngineError;
use crate::style::Color;
use crate::value::Value;

use super::empty_cell;
use super::fills::Fills;
use super::pool::{self, PageData, PageKind, Pool, SpillStats, CHUNK, PAGE_BYTES, WORDS};

/// Hard engine limits. Addresses at or beyond these are rejected with
/// [`EngineError::OutOfBounds`]; they also guarantee `row + 1` / chunk
/// arithmetic can never wrap `u32`.
pub const MAX_ROWS: u32 = 1 << 30;
pub const MAX_COLS: u32 = 1 << 20;

/// Rows per chunk (must match `pool::CHUNK`, which the page codec uses).
pub(crate) const CHUNK_ROWS: u32 = CHUNK as u32;

/// Interner id marking a vacant text slot.
const NO_TEXT: u32 = u32::MAX;

static EMPTY_VALUE: Value = Value::Empty;

/// The result of a grid read: a borrow when the cell has real storage
/// (always the case for formulas), an owned
/// reconstruction when the slot lives in a typed or spilled segment.
/// Derefs to [`Cell`]; call [`CellGet::into_cell`] for an owned copy.
#[derive(Debug)]
pub enum CellGet<'a> {
    Borrowed(&'a Cell),
    Owned(Cell),
}

impl Deref for CellGet<'_> {
    type Target = Cell;
    fn deref(&self) -> &Cell {
        match self {
            CellGet::Borrowed(c) => c,
            CellGet::Owned(c) => c,
        }
    }
}

impl CellGet<'_> {
    /// An owned copy of the cell (clones only in the borrowed case).
    pub fn into_cell(self) -> Cell {
        match self {
            CellGet::Borrowed(c) => c.clone(),
            CellGet::Owned(c) => c,
        }
    }
}

/// One run of cells handed to range-scan callbacks. Typed segments emit
/// their backing slices directly — this is what turns the §10 kernels into
/// contiguous `f64` scans.
pub(crate) enum ScanSlice<'a> {
    /// General cells, vacant ones included.
    Cells(&'a [Cell]),
    /// A run of present plain numbers.
    Nums(&'a [f64]),
    /// Interner ids (`u32::MAX` entries are vacant); resolve via
    /// [`Interner::value`].
    Texts(&'a [u32], &'a Interner),
    /// A run of vacant positions. Callbacks must process these as `n`
    /// empty cells (criteria kernels can match empties).
    Empty(usize),
}

impl ScanSlice<'_> {
    /// Positions the run covers.
    pub(crate) fn len(&self) -> usize {
        match self {
            ScanSlice::Cells(cells) => cells.len(),
            ScanSlice::Nums(vals) => vals.len(),
            ScanSlice::Texts(ids, _) => ids.len(),
            ScanSlice::Empty(n) => *n,
        }
    }
}

/// Text interner: plain text cells in typed segments store a `u32` id;
/// the interner owns the canonical `Value::Text` for each id so reads can
/// hand out `&Value` without reconstructing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    vals: Vec<Value>,
    map: HashMap<Arc<str>, u32>,
}

impl Interner {
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        match self.map.get(s.as_ref()) {
            Some(&id) => id,
            None => self.insert(Arc::clone(s)),
        }
    }

    /// [`Self::intern`] from a borrowed string: a text seen before costs a
    /// probe and no allocation.
    pub(crate) fn intern_str(&mut self, s: &str) -> u32 {
        match self.map.get(s) {
            Some(&id) => id,
            None => self.insert(Arc::from(s)),
        }
    }

    fn insert(&mut self, s: Arc<str>) -> u32 {
        let id = u32::try_from(self.vals.len()).expect("interner id space exhausted");
        assert!(id < NO_TEXT, "interner id space exhausted");
        self.vals.push(Value::Text(Arc::clone(&s)));
        self.map.insert(s, id);
        id
    }

    /// The canonical value for `id`; the `NO_TEXT` sentinel resolves to
    /// `Empty` so scan callbacks can pass raw id slices through.
    pub(crate) fn value(&self, id: u32) -> &Value {
        if id == NO_TEXT {
            &EMPTY_VALUE
        } else {
            &self.vals[id as usize]
        }
    }

    fn approx_bytes(&self) -> usize {
        // Ids + map entries + the strings themselves (approximate).
        self.vals
            .iter()
            .map(|v| match v {
                Value::Text(s) => 64 + s.len(),
                _ => 64,
            })
            .sum()
    }
}

/// What a scan decided about each text it met, indexed by interner id. A
/// predicate or a transform of a text cell is a function of the string, and
/// a `Text` chunk stores ids, so a scan op or a criteria kernel decides once
/// per distinct string and the loop over a chunk's `&[u32]` is a table
/// lookup — exact, because the interner never gives one id to two strings
/// or changes the string behind an id.
///
/// The table grows with the ids it meets, and never past one slot per cell
/// the scan reads: a short range on a sheet with a hundred thousand distinct
/// texts stays O(range). An id past that is decided each time it is met —
/// as the vacant-slot marker (`u32::MAX`) always is.
pub(crate) struct IdMemo<T> {
    slots: Vec<Option<T>>,
    cap: usize,
}

impl<T: Copy> IdMemo<T> {
    /// A memo for a scan that reads `cells` cells.
    pub(crate) fn for_cells(cells: u64) -> Self {
        IdMemo { slots: Vec::new(), cap: usize::try_from(cells).unwrap_or(usize::MAX) }
    }

    /// What was decided for `id`, asking `decide` the first time.
    #[inline]
    pub(crate) fn get(&mut self, id: u32, decide: impl FnOnce() -> T) -> T {
        let i = id as usize;
        if i >= self.slots.len() {
            if i >= self.cap {
                return decide();
            }
            self.slots.resize(i + 1, None);
        }
        *self.slots[i].get_or_insert_with(decide)
    }
}

/// Dense plain-numeric segment.
struct NumSeg {
    present: [u64; WORDS],
    count: u16,
    pins: u16,
    /// Clock-evictor reference bit; settable from `&self` readers.
    hot: std::cell::Cell<bool>,
    vals: [f64; CHUNK],
}

impl std::fmt::Debug for NumSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumSeg").field("count", &self.count).field("pins", &self.pins).finish()
    }
}

impl NumSeg {
    fn vacant() -> Self {
        NumSeg {
            present: [0; WORDS],
            count: 0,
            pins: 0,
            hot: true.into(),
            vals: [0.0; CHUNK],
        }
    }

    fn get(&self, off: usize) -> Option<f64> {
        if bit(&self.present, off) {
            Some(self.vals[off])
        } else {
            None
        }
    }

    fn set(&mut self, off: usize, n: f64) {
        let (w, b) = (off / 64, off % 64);
        if self.present[w] >> b & 1 == 0 {
            self.present[w] |= 1 << b;
            self.count += 1;
        }
        self.vals[off] = n;
        *self.hot.get_mut() = true;
    }

    fn clear(&mut self, off: usize) {
        let (w, b) = (off / 64, off % 64);
        if self.present[w] >> b & 1 == 1 {
            self.present[w] &= !(1 << b);
            self.count -= 1;
        }
    }
}

/// Dense plain-text segment (interner ids).
struct TextSeg {
    count: u16,
    pins: u16,
    hot: std::cell::Cell<bool>,
    ids: [u32; CHUNK],
}

impl std::fmt::Debug for TextSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TextSeg").field("count", &self.count).field("pins", &self.pins).finish()
    }
}

impl TextSeg {
    fn vacant() -> Self {
        TextSeg { count: 0, pins: 0, hot: true.into(), ids: [NO_TEXT; CHUNK] }
    }

    fn set(&mut self, off: usize, id: u32) {
        if self.ids[off] == NO_TEXT && id != NO_TEXT {
            self.count += 1;
        } else if self.ids[off] != NO_TEXT && id == NO_TEXT {
            self.count -= 1;
        }
        self.ids[off] = id;
        *self.hot.get_mut() = true;
    }

    fn clear(&mut self, off: usize) {
        self.set(off, NO_TEXT);
    }
}

#[derive(Debug, Clone, Copy)]
struct Spilled {
    page: u32,
    kind: PageKind,
    /// Occupied slots on the page, so a structural edit can charge the
    /// meter for a spilled chunk it only re-keys without reading it back.
    count: u16,
}

#[derive(Debug)]
enum Segment {
    Num(Box<NumSeg>),
    Text(Box<TextSeg>),
    Cells(Vec<Cell>),
    Spilled(Spilled),
}

impl Segment {
    fn vacant_cells() -> Segment {
        Segment::Cells(vec![Cell::empty(); CHUNK])
    }

    /// The chunk's general cells, a typed chunk turned into `Cells` first
    /// (the caller gives up its resident bytes). Precondition: not
    /// `Spilled`.
    fn cells_mut(&mut self, it: &Interner) -> &mut Vec<Cell> {
        if let Segment::Num(_) | Segment::Text(_) = self {
            *self = Segment::Cells(seg_to_cells(self, it));
        }
        match self {
            Segment::Cells(v) => v,
            _ => unreachable!("callers load a spilled chunk before writing to it"),
        }
    }

    /// Spill accounting: resident bytes this segment charges against the
    /// grid budget. Only typed segments are evictable and only they count.
    fn spillable_bytes(&self) -> usize {
        match self {
            Segment::Num(_) | Segment::Text(_) => PAGE_BYTES,
            _ => 0,
        }
    }

    /// Non-vacant cells in this segment (what a structural edit charges
    /// the meter for).
    fn population(&self) -> u64 {
        match self {
            Segment::Num(s) => u64::from(s.count),
            Segment::Text(s) => u64::from(s.count),
            Segment::Cells(v) => v.iter().filter(|c| !c.is_vacant()).count() as u64,
            Segment::Spilled(sp) => u64::from(sp.count),
        }
    }

    /// Clone for `GridStore::clone`; `Spilled` segments are materialized
    /// by the caller before cloning and never reach here.
    fn clone_resident(&self) -> Segment {
        match self {
            Segment::Num(s) => Segment::Num(Box::new(NumSeg {
                present: s.present,
                count: s.count,
                pins: 0,
                hot: true.into(),
                vals: s.vals,
            })),
            Segment::Text(s) => Segment::Text(Box::new(TextSeg {
                count: s.count,
                pins: 0,
                hot: true.into(),
                ids: s.ids,
            })),
            Segment::Cells(v) => Segment::Cells(v.clone()),
            Segment::Spilled(_) => unreachable!("clone materializes spilled segments first"),
        }
    }
}

fn bit(present: &[u64; WORDS], off: usize) -> bool {
    present[off / 64] >> (off % 64) & 1 == 1
}

fn popcount(present: &[u64; WORDS]) -> u16 {
    present.iter().map(|w| w.count_ones() as u16).sum()
}

fn segment_from_page(data: &PageData) -> Segment {
    match data {
        PageData::Num(np) => Segment::Num(Box::new(NumSeg {
            present: np.present,
            count: popcount(&np.present),
            pins: 0,
            hot: true.into(),
            vals: np.vals,
        })),
        PageData::Text(tp) => Segment::Text(Box::new(TextSeg {
            count: tp.ids.iter().filter(|&&id| id != NO_TEXT).count() as u16,
            pins: 0,
            hot: true.into(),
            ids: tp.ids,
        })),
    }
}

/// A value on its way into a slot, classified by the kind of chunk that
/// holds it as it is: a number, a text (as its interner id), or anything
/// else — a bool, an error, a formula — as the cell it is.
enum SlotVal {
    Empty,
    Num(f64),
    TextId(u32),
    Full(Cell),
}

impl SlotVal {
    /// Classifies `cell`, interning a plain text.
    fn of(cell: Cell, it: &mut Interner) -> SlotVal {
        match cell {
            Cell::Value(Value::Number(n)) => SlotVal::Num(n),
            Cell::Value(Value::Text(ref s)) => SlotVal::TextId(it.intern(s)),
            Cell::Value(Value::Empty) => SlotVal::Empty,
            _ => SlotVal::Full(cell),
        }
    }

    /// A vacant chunk of the kind this value, the first written to it,
    /// opens. (No writer opens a chunk to clear a slot of it.)
    fn opens(&self) -> Segment {
        match self {
            SlotVal::Num(_) => Segment::Num(Box::new(NumSeg::vacant())),
            SlotVal::TextId(_) => Segment::Text(Box::new(TextSeg::vacant())),
            SlotVal::Full(_) | SlotVal::Empty => Segment::vacant_cells(),
        }
    }

    fn into_cell(self, it: &Interner) -> Cell {
        match self {
            SlotVal::Empty => Cell::empty(),
            SlotVal::Num(n) => Cell::value(n),
            SlotVal::TextId(id) => Cell::value(it.value(id).clone()),
            SlotVal::Full(cell) => cell,
        }
    }
}

/// A chunk resolved for reading: either direct segment storage or a
/// fault-cache page for spilled data.
enum ChunkRef<'a> {
    Vacant,
    Seg(&'a Segment),
    Page(Arc<PageData>),
}

/// A resolved chunk's slots, the same whether resident or on a page.
#[derive(Clone, Copy)]
enum Slots<'a> {
    Vacant,
    Nums(&'a [u64; WORDS], &'a [f64; CHUNK]),
    Texts(&'a [u32; CHUNK]),
    Cells(&'a [Cell]),
}

impl ChunkRef<'_> {
    fn slots(&self) -> Slots<'_> {
        match self {
            ChunkRef::Vacant => Slots::Vacant,
            ChunkRef::Seg(Segment::Num(s)) => Slots::Nums(&s.present, &s.vals),
            ChunkRef::Seg(Segment::Text(s)) => Slots::Texts(&s.ids),
            ChunkRef::Seg(Segment::Cells(v)) => Slots::Cells(v),
            ChunkRef::Seg(Segment::Spilled(_)) => unreachable!("chunk_ref resolves spills"),
            ChunkRef::Page(page) => match &**page {
                PageData::Num(np) => Slots::Nums(&np.present, &np.vals),
                PageData::Text(tp) => Slots::Texts(&tp.ids),
            },
        }
    }
}

/// The slots of a resident typed segment as general cells.
fn seg_to_cells(seg: &Segment, it: &Interner) -> Vec<Cell> {
    let cref = ChunkRef::Seg(seg);
    let slots = cref.slots();
    (0..CHUNK)
        .map(|off| match slots {
            Slots::Nums(present, vals) if bit(present, off) => Cell::value(vals[off]),
            Slots::Texts(ids) if ids[off] != NO_TEXT => Cell::value(it.value(ids[off]).clone()),
            Slots::Cells(_) => unreachable!("only a typed segment is turned into general cells"),
            _ => Cell::empty(),
        })
        .collect()
}

/// The placement rule, for a slot of a resident chunk (a vacant one was
/// opened by [`SlotVal::opens`]): a number or text landing in a chunk of
/// its kind stays typed, and anything else lands in general cells, which a
/// typed chunk is turned into to take it. `Empty` clears the slot.
fn put_cell(seg: &mut Segment, off: usize, v: SlotVal, it: &Interner) {
    match (&mut *seg, v) {
        (Segment::Num(s), SlotVal::Num(n)) => s.set(off, n),
        (Segment::Num(s), SlotVal::Empty) => s.clear(off),
        (Segment::Text(s), SlotVal::TextId(id)) => s.set(off, id),
        (Segment::Text(s), SlotVal::Empty) => s.clear(off),
        (_, v) => seg.cells_mut(it)[off] = v.into_cell(it),
    }
}

/// One column: chunk index → segment, absent chunks fully vacant; and the
/// column's fills, beside the slots.
#[derive(Debug, Default)]
struct Column {
    segs: BTreeMap<u32, Segment>,
    fills: Fills,
}

impl Column {
    /// Writes `v` at `row` ([`put_cell`]), adding to `resident` the typed
    /// bytes the column gained or gave up. A typed chunk cleared of its
    /// last slot is vacant again. Precondition: the target chunk is not
    /// `Spilled` (callers load it first via `GridStore::make_resident`).
    fn write(&mut self, row: u32, v: SlotVal, it: &Interner, resident: &mut isize) {
        let ci = row / CHUNK_ROWS;
        let off = (row % CHUNK_ROWS) as usize;
        // The common write, a number or a text into a chunk of its kind,
        // first and on one probe of the directory.
        match (self.segs.get_mut(&ci), &v) {
            (Some(Segment::Num(s)), SlotVal::Num(n)) => return s.set(off, *n),
            (Some(Segment::Text(s)), SlotVal::TextId(id)) => return s.set(off, *id),
            _ => {}
        }
        let mut before = 0;
        let seg = match self.segs.entry(ci) {
            Entry::Occupied(e) => {
                before = e.get().spillable_bytes();
                e.into_mut()
            }
            Entry::Vacant(_) if matches!(v, SlotVal::Empty) => return,
            Entry::Vacant(e) => e.insert(v.opens()),
        };
        put_cell(seg, off, v, it);
        let mut after = seg.spillable_bytes();
        let emptied = match seg {
            Segment::Num(s) => s.count == 0,
            Segment::Text(s) => s.count == 0,
            _ => false,
        };
        if emptied {
            self.segs.remove(&ci);
            after = 0;
        }
        *resident += after as isize - before as isize;
    }
}

/// Non-vacant cells in a run of columns.
fn population(cols: &[Column]) -> u64 {
    cols.iter().flat_map(|col| col.segs.values()).map(Segment::population).sum()
}

/// Reads one slot out of a column for [`GridStore::permute_rows_reference`].
/// Text ids move without re-interning; general cells clone.
#[cfg(test)]
fn read_slot_for_move(col: &Column, pool: &Pool, it: &mut Interner, row: u32) -> SlotVal {
    let off = (row % CHUNK_ROWS) as usize;
    let cref = match col.segs.get(&(row / CHUNK_ROWS)) {
        None => ChunkRef::Vacant,
        Some(Segment::Spilled(sp)) => ChunkRef::Page(pool.fault(sp.page, sp.kind)),
        Some(seg) => ChunkRef::Seg(seg),
    };
    match cref.slots() {
        Slots::Nums(present, vals) if bit(present, off) => SlotVal::Num(vals[off]),
        Slots::Texts(ids) if ids[off] != NO_TEXT => SlotVal::TextId(ids[off]),
        Slots::Cells(v) => SlotVal::of(v[off].clone(), it),
        _ => SlotVal::Empty,
    }
}

fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Copies `len` presence bits from `src[a..]` onto `dst[d..]`, a word at a
/// time; returns how many of them are set.
fn copy_bits(src: &[u64; WORDS], a: usize, dst: &mut [u64; WORDS], d: usize, len: usize) -> usize {
    let (mut set, mut done) = (0, 0);
    while done < len {
        let (dw, db) = ((d + done) / 64, (d + done) % 64);
        let take = (64 - db).min(len - done);
        let (sw, sb) = ((a + done) / 64, (a + done) % 64);
        let mut bits = src[sw] >> sb;
        if sb != 0 && sw + 1 < WORDS {
            bits |= src[sw + 1] << (64 - sb);
        }
        let mask = low_mask(take);
        bits &= mask;
        dst[dw] = dst[dw] & !(mask << db) | bits << db;
        set += bits.count_ones() as usize;
        done += take;
    }
    set
}

/// Moves slots `a..b` of the resident segment `src` to slots `d..` of the
/// destination chunk under assembly (`None` = still vacant) and returns
/// how many were occupied. Typed runs move as slices — values plus
/// presence bits, or interner ids — onto a vacant or same-typed
/// destination; general cells, and typed slots landing on anything else,
/// move one by one through [`put_cell`], by value.
fn move_slots(
    dst: &mut Option<Segment>,
    d: usize,
    src: &mut Segment,
    a: usize,
    b: usize,
    it: &mut Interner,
) -> u64 {
    let len = b - a;
    match src {
        Segment::Num(s) => {
            let mut run = [0u64; WORDS];
            let n = copy_bits(&s.present, a, &mut run, d, len);
            if n == 0 {
                return 0;
            }
            match dst.get_or_insert_with(|| Segment::Num(Box::new(NumSeg::vacant()))) {
                Segment::Num(t) => {
                    // The destination run is vacant: chunks are assembled
                    // from disjoint pieces.
                    for (word, bits) in t.present.iter_mut().zip(run) {
                        *word |= bits;
                    }
                    t.vals[d..d + len].copy_from_slice(&s.vals[a..b]);
                    t.count += n as u16;
                }
                other => {
                    for i in a..b {
                        if let Some(v) = s.get(i) {
                            put_cell(other, d + i - a, SlotVal::Num(v), it);
                        }
                    }
                }
            }
            n as u64
        }
        Segment::Text(s) => {
            let n = s.ids[a..b].iter().filter(|&&id| id != NO_TEXT).count();
            if n == 0 {
                return 0;
            }
            match dst.get_or_insert_with(|| Segment::Text(Box::new(TextSeg::vacant()))) {
                Segment::Text(t) => {
                    t.ids[d..d + len].copy_from_slice(&s.ids[a..b]);
                    t.count += n as u16;
                }
                other => {
                    for i in (a..b).filter(|&i| s.ids[i] != NO_TEXT) {
                        put_cell(other, d + i - a, SlotVal::TextId(s.ids[i]), it);
                    }
                }
            }
            n as u64
        }
        Segment::Cells(v) => {
            let mut n = 0;
            for (i, cell) in v[a..b].iter_mut().enumerate() {
                if !cell.is_vacant() {
                    let v = SlotVal::of(std::mem::take(cell), it);
                    put_cell(dst.get_or_insert_with(|| v.opens()), d + i, v, it);
                    n += 1;
                }
            }
            n
        }
        Segment::Spilled(_) => unreachable!("row shifts load spilled chunks before moving slots"),
    }
}

/// The inverse of `perm` (`inv[perm[i]] == i`: where each old row goes), or
/// why `perm` is not a bijection of `0..n`.
fn inverse_permutation(perm: &[u32], n: usize) -> Result<Vec<u32>, EngineError> {
    // No row index reaches the sentinel: `n <= MAX_ROWS`.
    const UNSET: u32 = u32::MAX;
    if perm.len() != n {
        return Err(EngineError::BadPermutation(format!(
            "length {} does not match {n} rows",
            perm.len()
        )));
    }
    let mut inv = vec![UNSET; n];
    for (new, &old) in perm.iter().enumerate() {
        let Some(slot) = inv.get_mut(old as usize) else {
            return Err(EngineError::BadPermutation(format!(
                "index {old} out of range for {n} rows"
            )));
        };
        if *slot != UNSET {
            return Err(EngineError::BadPermutation(format!("duplicate index {old}")));
        }
        *slot = new as u32;
    }
    Ok(inv)
}

/// Scatters the occupied slots of the resident segment `src`, whose first
/// slot is row `base`, to the rows `inv` sends them to, in the destination
/// chunks under assembly (`dst[chunk]`, `None` = still vacant). A typed
/// slot landing on a vacant or same-typed chunk is stored there and then —
/// a number sets its value and presence bit, an interner id is stored as
/// it is; general cells, and typed slots landing on anything else, are
/// placed by [`put_cell`], by value.
fn scatter_slots(
    dst: &mut [Option<Segment>],
    inv: &[u32],
    base: u32,
    src: Segment,
    it: &mut Interner,
) {
    // Occupied slots lie inside the extent, so `to[off]` exists for each.
    let to = &inv[base as usize..];
    let place = |row: u32| ((row / CHUNK_ROWS) as usize, (row % CHUNK_ROWS) as usize);
    match src {
        Segment::Num(s) => {
            for (w, &word) in s.present.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let off = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (ci, d) = place(to[off]);
                    match dst[ci].get_or_insert_with(|| Segment::Num(Box::new(NumSeg::vacant()))) {
                        Segment::Num(t) => t.set(d, s.vals[off]),
                        other => put_cell(other, d, SlotVal::Num(s.vals[off]), it),
                    }
                }
            }
        }
        Segment::Text(s) => {
            for (off, &id) in s.ids.iter().enumerate() {
                if id == NO_TEXT {
                    continue;
                }
                let (ci, d) = place(to[off]);
                match dst[ci].get_or_insert_with(|| Segment::Text(Box::new(TextSeg::vacant()))) {
                    Segment::Text(t) => t.set(d, id),
                    other => put_cell(other, d, SlotVal::TextId(id), it),
                }
            }
        }
        Segment::Cells(v) => {
            for (off, cell) in v.into_iter().enumerate() {
                if !cell.is_vacant() {
                    let (ci, d) = place(to[off]);
                    let v = SlotVal::of(cell, it);
                    put_cell(dst[ci].get_or_insert_with(|| v.opens()), d, v, it);
                }
            }
        }
        Segment::Spilled(_) => unreachable!("a permutation loads spilled chunks before scattering"),
    }
}

/// A bulk load's side of an empty grid (`Sheet::load_rows`). One
/// destination chunk per column is assembled off to the side for the
/// 1 024-row band the load is in; the load fills it in ascending row order,
/// each slot once and each by [`put_cell`]'s rule — so a chunk is what the
/// same cells written one `set_value` at a time would have made it — and
/// the band's chunks are installed ([`GridStore::finish_chunk`]) and the
/// budget enforced when the load moves on to the next band: a load holds
/// at most one chunk per column above the budget.
pub(crate) struct ChunkLoader<'g> {
    grid: &'g mut GridStore,
    /// Per column, the chunk of band `band` under assembly (`None` = still
    /// vacant).
    dst: Vec<Option<Segment>>,
    band: u32,
    /// The current row's slot within the band.
    off: usize,
}

impl ChunkLoader<'_> {
    /// Moves the load to `row`; rows are visited in ascending order.
    pub(crate) fn at_row(&mut self, row: u32) {
        let band = row / CHUNK_ROWS;
        if band != self.band {
            self.install_band();
            self.band = band;
        }
        self.off = (row % CHUNK_ROWS) as usize;
    }

    /// Places a plain number in column `col` of the current row.
    pub(crate) fn number(&mut self, col: usize, n: f64) {
        match self.dst[col].get_or_insert_with(|| Segment::Num(Box::new(NumSeg::vacant()))) {
            Segment::Num(t) => t.set(self.off, n),
            other => put_cell(other, self.off, SlotVal::Num(n), &self.grid.interner),
        }
    }

    /// Places a plain text in column `col` of the current row, interned
    /// from the `&str` (so ids keep first-seen order wherever it lands).
    pub(crate) fn text(&mut self, col: usize, s: &str) {
        let id = self.grid.interner.intern_str(s);
        match self.dst[col].get_or_insert_with(|| Segment::Text(Box::new(TextSeg::vacant()))) {
            Segment::Text(t) => t.set(self.off, id),
            other => put_cell(other, self.off, SlotVal::TextId(id), &self.grid.interner),
        }
    }

    /// Places any other non-vacant cell in column `col` of the current
    /// row.
    pub(crate) fn cell(&mut self, col: usize, cell: Cell) {
        let v = SlotVal::of(cell, &mut self.grid.interner);
        let seg = self.dst[col].get_or_insert_with(|| v.opens());
        put_cell(seg, self.off, v, &self.grid.interner);
    }

    /// Installs the last band's chunks. A load dropped without this has
    /// installed whole bands only and leaves the grid's accounting intact.
    pub(crate) fn finish(mut self) {
        self.install_band();
    }

    fn install_band(&mut self) {
        for (c, dst) in self.dst.iter_mut().enumerate() {
            self.grid.finish_chunk(c, self.band, dst.take());
        }
        self.grid.enforce_budget();
    }
}

/// Non-vacant cells a structural edit left in place (`kept`: lines before
/// the edit point) and relocated (`moved`: lines past the edit band).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShiftCounts {
    pub(crate) kept: u64,
    pub(crate) moved: u64,
}

/// The sheet's cell store: the chunked columnar grid. Storage is by
/// column; range scans walk it in row-major order.
#[derive(Debug)]
pub struct GridStore {
    cols: Vec<Column>,
    nrows: u32,
    ncols: u32,
    interner: Interner,
    pool: Pool,
}

impl GridStore {
    /// A grid covering `rows` × `cols` (vacant cells allocate nothing),
    /// with no budget until `set_budget` gives it one.
    pub fn new(rows: u32, cols: u32) -> Self {
        let rows = rows.min(MAX_ROWS);
        let cols = cols.min(MAX_COLS);
        let mut g = GridStore {
            cols: Vec::new(),
            nrows: rows,
            ncols: 0,
            interner: Interner::default(),
            pool: Pool::new(None),
        };
        g.ensure_size(rows, cols).expect("constructor sizes are clamped to engine limits");
        g
    }

    /// Number of materialized rows.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Number of materialized columns.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Grows the grid so it covers at least `rows` × `cols`.
    pub fn ensure_size(&mut self, rows: u32, cols: u32) -> Result<(), EngineError> {
        if rows > MAX_ROWS || cols > MAX_COLS {
            return Err(EngineError::OutOfBounds { rows, cols });
        }
        if cols as usize > self.cols.len() {
            self.cols.resize_with(cols as usize, Column::default);
        }
        self.ncols = self.ncols.max(cols);
        self.nrows = self.nrows.max(rows);
        Ok(())
    }

    fn grow_for(&mut self, addr: CellAddr) -> Result<(), EngineError> {
        let rows = addr
            .row
            .checked_add(1)
            .ok_or(EngineError::OutOfBounds { rows: addr.row, cols: addr.col })?;
        let cols = addr
            .col
            .checked_add(1)
            .ok_or(EngineError::OutOfBounds { rows: addr.row, cols: addr.col })?;
        self.ensure_size(rows, cols)
    }

    fn in_extent(&self, addr: CellAddr) -> bool {
        addr.row < self.nrows && addr.col < self.ncols
    }

    /// Resolves a chunk for reading; spilled chunks come back as a
    /// fault-cache page. Marks resident typed chunks hot for the clock.
    fn chunk_ref(&self, col: u32, ci: u32) -> ChunkRef<'_> {
        match self.cols[col as usize].segs.get(&ci) {
            None => ChunkRef::Vacant,
            Some(Segment::Spilled(sp)) => ChunkRef::Page(self.pool.fault(sp.page, sp.kind)),
            Some(seg) => {
                match seg {
                    Segment::Num(s) => s.hot.set(true),
                    Segment::Text(s) => s.hot.set(true),
                    _ => {}
                }
                ChunkRef::Seg(seg)
            }
        }
    }

    /// Loads a spilled chunk back into a typed segment. No-op otherwise.
    fn make_resident(&mut self, col: u32, ci: u32) {
        let colv = &mut self.cols[col as usize];
        if let Some(Segment::Spilled(sp)) = colv.segs.get(&ci) {
            let sp = *sp;
            let data = self.pool.load(sp.page, sp.kind);
            colv.segs.insert(ci, segment_from_page(&data));
            self.pool.add_resident(PAGE_BYTES);
        }
    }

    fn apply_resident_delta(&mut self, delta: isize) {
        if delta >= 0 {
            self.pool.add_resident(delta as usize);
        } else {
            self.pool.sub_resident((-delta) as usize);
        }
    }

    /// Returns the cell at `addr` if it is within the materialized area
    /// (vacant in-extent positions read as the shared empty cell).
    pub fn get(&self, addr: CellAddr) -> Option<CellGet<'_>> {
        if !self.in_extent(addr) {
            return None;
        }
        let off = (addr.row % CHUNK_ROWS) as usize;
        let cref = self.chunk_ref(addr.col, addr.row / CHUNK_ROWS);
        if let ChunkRef::Seg(Segment::Cells(v)) = cref {
            return Some(CellGet::Borrowed(&v[off]));
        }
        Some(match cref.slots() {
            Slots::Nums(present, vals) if bit(present, off) => {
                CellGet::Owned(Cell::value(vals[off]))
            }
            Slots::Texts(ids) if ids[off] != NO_TEXT => {
                CellGet::Owned(Cell::value(self.interner.value(ids[off]).clone()))
            }
            _ => CellGet::Borrowed(empty_cell()),
        })
    }

    /// The displayed value at `addr` (`Empty` outside the extent). The
    /// fast read path: typed slots never materialize a `Cell`.
    pub fn value_at(&self, addr: CellAddr) -> Value {
        if !self.in_extent(addr) {
            return Value::Empty;
        }
        let off = (addr.row % CHUNK_ROWS) as usize;
        match self.chunk_ref(addr.col, addr.row / CHUNK_ROWS).slots() {
            Slots::Nums(present, vals) if bit(present, off) => Value::Number(vals[off]),
            Slots::Texts(ids) => self.interner.value(ids[off]).clone(),
            Slots::Cells(v) => v[off].display_value().clone(),
            _ => Value::Empty,
        }
    }

    /// Writes `cell` at `addr`, growing the grid as needed, by the
    /// placement rule; the fill at `addr` is not the cell's and stays.
    pub fn set(&mut self, addr: CellAddr, cell: Cell) -> Result<(), EngineError> {
        self.grow_for(addr)?;
        self.make_resident(addr.col, addr.row / CHUNK_ROWS);
        let v = SlotVal::of(cell, &mut self.interner);
        let mut delta = 0isize;
        self.cols[addr.col as usize].write(addr.row, v, &self.interner, &mut delta);
        self.apply_resident_delta(delta);
        self.enforce_budget();
        Ok(())
    }

    /// The fill at `addr`.
    pub fn fill(&self, addr: CellAddr) -> Option<Color> {
        self.cols.get(addr.col as usize)?.fills.get(addr.row)
    }

    /// Asks `decide` the new fill of every row of `r0..=r1` of column `col`
    /// (inside the extent), given its old one ([`Fills::restyle`]); returns
    /// how many fills it changed. No slot is read or written.
    pub(crate) fn restyle(
        &mut self,
        col: u32,
        r0: u32,
        r1: u32,
        decide: impl FnMut(u32, Option<Color>) -> Option<Color>,
    ) -> u64 {
        debug_assert!(col < self.ncols && r1 < self.nrows, "restyle inside the extent");
        self.cols[col as usize].fills.restyle(r0, r1, decide)
    }

    /// Reorders rows so that new row `i` is old row `perm[i]`. Errs with
    /// [`EngineError::BadPermutation`] unless `perm` is a bijection of
    /// `0..nrows`; the grid is unchanged on error.
    ///
    /// A scatter, one column at a time: the column's chunks are taken out
    /// in order — a spilled one is loaded for the duration of its own
    /// scatter — and only their occupied slots are sent to their new rows
    /// (`scatter_slots`), into destination chunks assembled off to the
    /// side and installed when the column is done. A random permutation
    /// sends every source chunk to every destination chunk, so none of
    /// them can be finished (or spilled) early: the sort holds at most the
    /// column under assembly plus one source chunk above the budget, and
    /// the budget is enforced after every column. The column's fills
    /// are permuted with it (`Fills::permute`).
    pub fn permute_rows(&mut self, perm: &[u32]) -> Result<(), EngineError> {
        let inv = inverse_permutation(perm, self.nrows as usize)?;
        let mut dst: Vec<Option<Segment>> = Vec::new();
        dst.resize_with((self.nrows as usize).div_ceil(CHUNK), || None);
        for c in 0..self.cols.len() {
            self.cols[c].fills.permute(perm);
            if self.cols[c].segs.is_empty() {
                continue;
            }
            for (ci, seg) in std::mem::take(&mut self.cols[c].segs) {
                // From here the source chunk is uncounted: its slots are
                // counted again with the destination chunks they land in.
                self.pool.sub_resident(seg.spillable_bytes());
                let seg = match seg {
                    Segment::Spilled(sp) => segment_from_page(&self.pool.load(sp.page, sp.kind)),
                    resident => resident,
                };
                scatter_slots(&mut dst, &inv, ci * CHUNK_ROWS, seg, &mut self.interner);
            }
            for (ci, seg) in dst.iter_mut().enumerate() {
                self.finish_chunk(c, ci as u32, seg.take());
            }
            self.enforce_budget();
        }
        Ok(())
    }

    /// What [`Self::permute_rows`] did before it scattered chunks: every
    /// column rebuilt one cell at a time through the write path, spilled
    /// chunks read through the fault cache, and its fills copied row by
    /// row by address. Kept as the reference the differential tests
    /// compare the scatter against.
    #[cfg(test)]
    pub(crate) fn permute_rows_reference(&mut self, perm: &[u32]) -> Result<(), EngineError> {
        inverse_permutation(perm, self.nrows as usize)?;
        for c in 0..self.cols.len() {
            let old = std::mem::take(&mut self.cols[c]);
            self.pool.sub_resident(old.segs.values().map(Segment::spillable_bytes).sum());
            let mut newc = Column::default();
            let mut delta = 0isize;
            for (dst, &src) in perm.iter().enumerate() {
                let v = read_slot_for_move(&old, &self.pool, &mut self.interner, src);
                newc.write(dst as u32, v, &self.interner, &mut delta);
            }
            if let Some(last) = perm.len().checked_sub(1) {
                newc.fills.restyle(0, last as u32, |dst, _| old.fills.get(perm[dst as usize]));
            }
            for seg in old.segs.values() {
                if let Segment::Spilled(sp) = seg {
                    self.pool.free_page(sp.page);
                }
            }
            self.cols[c] = newc;
            self.apply_resident_delta(delta);
            self.enforce_budget();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural shifts (used only by `ops::structure`, which validates
    // the new extent against the engine limits first).

    /// Opens `count` vacant rows before row `at`; the extent grows by
    /// `count` wherever `at` lies.
    pub(crate) fn insert_rows(&mut self, at: u32, count: u32) -> ShiftCounts {
        debug_assert!(
            self.nrows.checked_add(count).is_some_and(|n| n <= MAX_ROWS),
            "caller validates the new extent"
        );
        let counts = self.move_rows(at, at, at + count);
        self.nrows += count;
        counts
    }

    /// Removes rows `at..at + count` (clamped to the extent) and closes
    /// the gap.
    pub(crate) fn delete_rows(&mut self, at: u32, count: u32) -> ShiftCounts {
        let lo = at.min(self.nrows);
        let hi = at.saturating_add(count).min(self.nrows);
        let counts = self.move_rows(lo, hi, lo);
        self.nrows -= hi - lo;
        counts
    }

    /// Opens `count` vacant columns before column `at`.
    pub(crate) fn insert_cols(&mut self, at: u32, count: u32) -> ShiftCounts {
        debug_assert!(
            self.ncols.checked_add(count).is_some_and(|n| n <= MAX_COLS),
            "caller validates the new extent"
        );
        let at = (at as usize).min(self.cols.len());
        let counts =
            ShiftCounts { kept: population(&self.cols[..at]), moved: population(&self.cols[at..]) };
        self.cols.splice(at..at, std::iter::repeat_with(Column::default).take(count as usize));
        self.ncols += count;
        counts
    }

    /// Removes columns `at..at + count` (clamped to the extent), freeing
    /// their pages.
    pub(crate) fn delete_cols(&mut self, at: u32, count: u32) -> ShiftCounts {
        let lo = at.min(self.ncols) as usize;
        let hi = at.saturating_add(count).min(self.ncols) as usize;
        let counts =
            ShiftCounts { kept: population(&self.cols[..lo]), moved: population(&self.cols[hi..]) };
        let dropped: Vec<Column> = self.cols.drain(lo..hi).collect();
        for seg in dropped.into_iter().flat_map(|col| col.segs.into_values()) {
            self.discard(seg);
        }
        self.ncols -= (hi - lo) as u32;
        counts
    }

    /// The row shift behind [`Self::insert_rows`] and
    /// [`Self::delete_rows`]: rows before `at` stay, rows `at..from` are
    /// dropped, and row `from + i` becomes row `to + i` (`at == from` on
    /// insert, `at == to` on delete).
    ///
    /// Each column's chunks from `at`'s onward are taken out and their
    /// slots moved, a source chunk at a time, into freshly assembled
    /// destination chunks ([`move_slots`]). A chunk the shift maps onto
    /// one whole destination chunk (the shift is a multiple of the chunk
    /// size) is re-keyed as it is — spilled ones without being read back.
    /// Any other spilled chunk is loaded for the duration of its own move,
    /// and the budget is enforced after every source chunk, so the shift
    /// holds at most two chunks above the budget at any time. The column's
    /// fills shift with it ([`Fills::shift`]).
    fn move_rows(&mut self, at: u32, from: u32, to: u32) -> ShiftCounts {
        let mut counts = ShiftCounts::default();
        let first = at / CHUNK_ROWS;
        let rekey = from.abs_diff(to).is_multiple_of(CHUNK_ROWS);
        for c in 0..self.cols.len() {
            let col = &mut self.cols[c];
            col.fills.shift(at, from.abs_diff(to), to > from);
            counts.kept += col.segs.range(..first).map(|(_, seg)| seg.population()).sum::<u64>();
            let old = col.segs.split_off(&first);
            let mut dst: Option<Segment> = None;
            let mut dst_ci = first;
            for (ci, seg) in old {
                let base = ci * CHUNK_ROWS;
                // Chunk-local slots: `..keep` stay, `keep..mv` are dropped,
                // `mv..` move.
                let keep = (at.saturating_sub(base).min(CHUNK_ROWS)) as usize;
                let mv = (from.saturating_sub(base).min(CHUNK_ROWS)) as usize;
                if keep == 0 && (mv == CHUNK || (mv == 0 && rekey)) {
                    if mv == 0 {
                        counts.moved += seg.population();
                        self.finish_chunk(c, dst_ci, dst.take());
                        self.cols[c].segs.insert((base - from + to) / CHUNK_ROWS, seg);
                    } else {
                        self.discard(seg);
                    }
                    continue;
                }
                // From here the source chunk is uncounted: its slots are
                // counted again with the destination chunks they land in.
                self.pool.sub_resident(seg.spillable_bytes());
                let mut seg = match seg {
                    Segment::Spilled(sp) => segment_from_page(&self.pool.load(sp.page, sp.kind)),
                    resident => resident,
                };
                if keep > 0 {
                    counts.kept += move_slots(&mut dst, 0, &mut seg, 0, keep, &mut self.interner);
                }
                let mut a = mv;
                while a < CHUNK {
                    let row = base + a as u32 - from + to;
                    let (ci, d) = (row / CHUNK_ROWS, (row % CHUNK_ROWS) as usize);
                    if ci != dst_ci {
                        self.finish_chunk(c, dst_ci, dst.take());
                        dst_ci = ci;
                    }
                    let b = (a + CHUNK - d).min(CHUNK);
                    counts.moved += move_slots(&mut dst, d, &mut seg, a, b, &mut self.interner);
                    a = b;
                }
                self.enforce_budget();
            }
            self.finish_chunk(c, dst_ci, dst.take());
            self.enforce_budget();
        }
        counts
    }

    /// Gives up a deleted chunk's resident bytes or page.
    fn discard(&mut self, seg: Segment) {
        self.pool.sub_resident(seg.spillable_bytes());
        if let Segment::Spilled(sp) = seg {
            self.pool.free_page(sp.page);
        }
    }

    /// Installs a destination chunk [`Self::move_rows`],
    /// [`Self::permute_rows`] or a [`ChunkLoader`] assembled.
    fn finish_chunk(&mut self, col: usize, ci: u32, seg: Option<Segment>) {
        if let Some(seg) = seg {
            self.pool.add_resident(seg.spillable_bytes());
            self.cols[col].segs.insert(ci, seg);
        }
    }

    /// Starts a bulk load of this grid, which must not hold a cell yet.
    pub(crate) fn bulk_load(&mut self) -> ChunkLoader<'_> {
        assert!(self.cols.iter().all(|col| col.segs.is_empty()), "a bulk load fills an empty grid");
        let dst = std::iter::repeat_with(|| None).take(self.cols.len()).collect();
        ChunkLoader { grid: self, dst, band: 0, off: 0 }
    }

    /// The formula stored at `addr`, for in-place reference rewriting.
    /// Formulas only live in general storage, so this never converts or
    /// loads a typed chunk.
    pub(crate) fn formula_mut(&mut self, addr: CellAddr) -> Option<&mut Formula> {
        let seg = self.cols.get_mut(addr.col as usize)?.segs.get_mut(&(addr.row / CHUNK_ROWS))?;
        let Segment::Cells(v) = seg else { return None };
        match &mut v[(addr.row % CHUNK_ROWS) as usize] {
            Cell::Formula(f) => Some(f),
            Cell::Value(_) => None,
        }
    }

    /// Visits every formula, column by column and top to bottom. Only
    /// `Cells` chunks are walked: typed and spilled chunks cannot hold one.
    pub(crate) fn for_each_formula(&self, f: &mut dyn FnMut(CellAddr, &Formula)) {
        for (c, col) in self.cols.iter().enumerate() {
            for (&ci, seg) in &col.segs {
                let Segment::Cells(v) = seg else { continue };
                for (off, cell) in v.iter().enumerate() {
                    if let Cell::Formula(formula) = cell {
                        f(CellAddr::new(ci * CHUNK_ROWS + off as u32, c as u32), formula);
                    }
                }
            }
        }
    }

    /// [`Self::for_each_formula`] with the formulas handed out mutably, in
    /// the same order: how a sort rewrites the references of the formulas
    /// it moved without probing every row of every column.
    pub(crate) fn for_each_formula_mut(&mut self, f: &mut dyn FnMut(CellAddr, &mut Formula)) {
        for (c, col) in self.cols.iter_mut().enumerate() {
            for (&ci, seg) in &mut col.segs {
                let Segment::Cells(v) = seg else { continue };
                for (off, cell) in v.iter_mut().enumerate() {
                    if let Cell::Formula(formula) = cell {
                        f(CellAddr::new(ci * CHUNK_ROWS + off as u32, c as u32), formula);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Buffer-pool control surface.

    /// The current resident-byte budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.pool.budget()
    }

    /// Sets (or clears) the resident-byte budget for typed chunks;
    /// immediately evicts down to the new budget.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.pool.set_budget(budget);
        self.enforce_budget();
    }

    /// Bytes of typed chunk data currently resident (counted against the
    /// budget; `Cells` segments are wired and not counted).
    pub fn resident_spill_bytes(&self) -> usize {
        self.pool.resident()
    }

    /// Cumulative spill/load/fault counters for the grid's buffer pool.
    pub fn spill_stats(&self) -> SpillStats {
        self.pool.stats()
    }

    /// Loads and pins every typed chunk intersecting `range`, stopping at
    /// `max_bytes`. Returns the bytes pinned. Pinned chunks are skipped by
    /// the evictor until `unpin_all`.
    pub fn pin_range(&mut self, range: Range, max_bytes: usize) -> usize {
        if self.nrows == 0 || self.ncols == 0 {
            return 0;
        }
        let c0 = range.start.col.min(self.ncols - 1);
        let c1 = range.end.col.min(self.ncols - 1);
        let r1 = range.end.row.min(self.nrows - 1);
        if range.start.col > c1 || range.start.row > r1 {
            return 0;
        }
        let (ci0, ci1) = (range.start.row / CHUNK_ROWS, r1 / CHUNK_ROWS);
        let mut pinned = 0usize;
        for c in c0..=c1 {
            for ci in ci0..=ci1 {
                if pinned + PAGE_BYTES > max_bytes {
                    self.enforce_budget();
                    return pinned;
                }
                if matches!(self.cols[c as usize].segs.get(&ci), Some(Segment::Spilled(_))) {
                    self.make_resident(c, ci);
                }
                match self.cols[c as usize].segs.get_mut(&ci) {
                    Some(Segment::Num(s)) => {
                        s.pins = s.pins.saturating_add(1);
                        pinned += PAGE_BYTES;
                    }
                    Some(Segment::Text(s)) => {
                        s.pins = s.pins.saturating_add(1);
                        pinned += PAGE_BYTES;
                    }
                    _ => {}
                }
            }
        }
        self.enforce_budget();
        pinned
    }

    /// Drops every pin (end of a recalc wave).
    pub fn unpin_all(&mut self) {
        for col in &mut self.cols {
            for seg in col.segs.values_mut() {
                match seg {
                    Segment::Num(s) => s.pins = 0,
                    Segment::Text(s) => s.pins = 0,
                    _ => {}
                }
            }
        }
    }

    /// Evicts typed segments until resident bytes fit the budget (or
    /// nothing evictable remains — everything pinned/wired).
    fn enforce_budget(&mut self) {
        let Some(budget) = self.pool.budget() else { return };
        while self.pool.resident() > budget {
            if !self.evict_one() {
                break;
            }
        }
    }

    /// One clock-sweep eviction: walk columns round-robin from the hand,
    /// skip pinned segments, grant hot segments a second chance (clear the
    /// bit, move on), spill the first cold one. Returns false when a full
    /// double rotation finds nothing evictable.
    fn evict_one(&mut self) -> bool {
        let ncols = self.cols.len() as u32;
        if ncols == 0 {
            return false;
        }
        let (mut hc, mut hk) = self.pool.hand();
        if hc >= ncols {
            hc = 0;
            hk = 0;
        }
        let mut col_visits = 0u32;
        while col_visits < ncols * 2 + 2 {
            let mut victim = None;
            for (&k, seg) in self.cols[hc as usize].segs.range(hk..) {
                let (pins, hot) = match seg {
                    Segment::Num(s) => (s.pins, &s.hot),
                    Segment::Text(s) => (s.pins, &s.hot),
                    _ => continue,
                };
                if pins > 0 {
                    continue;
                }
                if hot.replace(false) {
                    continue; // second chance
                }
                victim = Some(k);
                break;
            }
            if let Some(k) = victim {
                self.pool.set_hand(hc, k + 1);
                return self.spill_seg(hc, k);
            }
            hc = (hc + 1) % ncols;
            hk = 0;
            col_visits += 1;
        }
        self.pool.set_hand(hc, hk);
        false
    }

    fn spill_seg(&mut self, col: u32, ci: u32) -> bool {
        let (encoded, kind, count) = match self.cols[col as usize].segs.get(&ci) {
            Some(Segment::Num(s)) => {
                (pool::encode_num(&s.present, &s.vals), PageKind::Num, s.count)
            }
            Some(Segment::Text(s)) => (pool::encode_text(&s.ids), PageKind::Text, s.count),
            _ => return false,
        };
        match self.pool.store(&encoded) {
            Ok(page) => {
                self.cols[col as usize]
                    .segs
                    .insert(ci, Segment::Spilled(Spilled { page, kind, count }));
                self.pool.sub_resident(PAGE_BYTES);
                true
            }
            // Disk trouble: stay resident. Budgets are best-effort;
            // correctness never depends on spilling.
            Err(_) => false,
        }
    }

    // ------------------------------------------------------------------
    // Visits and scans.

    /// `range` clipped to the materialized area; `None` when none of it
    /// is inside.
    pub(crate) fn clip(&self, range: Range) -> Option<Range> {
        range.clip_to(self.nrows, self.ncols)
    }

    /// Slice scan over `range` (clipped to the materialized area), in
    /// row-major order: typed chunks emit contiguous `f64`/id slices,
    /// general chunks emit cell slices, vacant runs batch into `Empty(n)`.
    /// A single-column window — the common aggregation shape — gets
    /// maximal contiguous runs; a window spanning columns is emitted a
    /// cell at a time, row by row.
    #[inline]
    pub(crate) fn scan_range<F: FnMut(ScanSlice<'_>)>(&self, range: Range, f: &mut F) {
        if range.start.col == range.end.col {
            self.scan_col_major(range, f);
        } else {
            self.scan_row_major(range, f);
        }
    }

    /// One column top to bottom: each chunk's share as maximal runs.
    fn scan_col_major<F: FnMut(ScanSlice<'_>)>(&self, range: Range, f: &mut F) {
        let Some(Range { start, end }) = self.clip(range) else { return };
        for (ci, a, b) in chunk_pieces(start.row, end.row) {
            self.scan_ref(&self.chunk_ref(start.col, ci), a, b, f);
        }
    }

    /// Several columns row by row: bands of chunk rows with each column's
    /// chunk resolved once per band, one-cell emissions per slot.
    fn scan_row_major<F: FnMut(ScanSlice<'_>)>(&self, range: Range, f: &mut F) {
        let Some(Range { start, end }) = self.clip(range) else { return };
        for (ci, a, b) in chunk_pieces(start.row, end.row) {
            let refs: Vec<ChunkRef<'_>> =
                (start.col..=end.col).map(|c| self.chunk_ref(c, ci)).collect();
            for off in a..=b {
                for cref in &refs {
                    self.scan_ref(cref, off, off, f);
                }
            }
        }
    }

    /// Slots `a..=b` of one resolved chunk as the slices a scan emits for
    /// them.
    fn scan_ref<F: FnMut(ScanSlice<'_>)>(&self, cref: &ChunkRef<'_>, a: usize, b: usize, f: &mut F) {
        match cref.slots() {
            Slots::Vacant => f(ScanSlice::Empty(b - a + 1)),
            Slots::Nums(present, vals) => emit_num_runs(present, vals, a, b, f),
            Slots::Texts(ids) => f(ScanSlice::Texts(&ids[a..=b], &self.interner)),
            Slots::Cells(v) => f(ScanSlice::Cells(&v[a..=b])),
        }
    }

    /// The `&mut` counterpart of [`Self::scan_range`], for an operation
    /// that rewrites a range where it is stored (find-and-replace): hands
    /// `f` each chunk's share of `range`
    /// (clipped to the materialized area) as a [`ChunkMut`], column by
    /// column and top to bottom — an edit pass has no visit order to
    /// keep. The budget is enforced once after every chunk
    /// the visit loaded, so the pass holds at most one chunk above it.
    pub(crate) fn for_each_chunk_mut(&mut self, range: Range, f: &mut dyn FnMut(&mut ChunkMut<'_>)) {
        let Some(Range { start, end }) = self.clip(range) else { return };
        for col in start.col..=end.col {
            for (ci, a, b) in chunk_pieces(start.row, end.row) {
                let mut chunk = ChunkMut { grid: self, col, ci, a, b, loaded: false };
                f(&mut chunk);
                if chunk.loaded {
                    self.enforce_budget();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests and the harness.

    /// Approximate heap bytes held by the grid (segments + column
    /// directory + interner). Used by the far-corner memory regression
    /// test; deliberately simple, not exact.
    pub fn approx_heap_bytes(&self) -> usize {
        let mut total = self.cols.len() * std::mem::size_of::<Column>();
        for col in &self.cols {
            for seg in col.segs.values() {
                total += 48; // BTreeMap entry overhead, roughly
                total += match seg {
                    Segment::Num(_) | Segment::Text(_) => PAGE_BYTES,
                    Segment::Cells(v) => v.len() * std::mem::size_of::<Cell>(),
                    Segment::Spilled(_) => 0,
                };
            }
        }
        total + self.interner.approx_bytes()
    }

    /// How each chunk of `col` is stored, top to bottom (vacant chunks
    /// left out): what the tests that a pass left typed storage typed, or
    /// put a range over every kind of chunk, look at.
    #[cfg(test)]
    pub(crate) fn chunk_kinds(&self, col: u32) -> Vec<&'static str> {
        let Some(col) = self.cols.get(col as usize) else { return Vec::new() };
        col.segs
            .values()
            .map(|seg| match seg {
                Segment::Num(_) => "num",
                Segment::Text(_) => "text",
                Segment::Cells(_) => "cells",
                Segment::Spilled(_) => "spilled",
            })
            .collect()
    }

    /// Checks every internal invariant; panics on violation. Test/debug
    /// aid (the pin/evict property test calls it after every step).
    pub fn validate(&self) {
        let mut typed = 0usize;
        let mut live_pages = std::collections::HashSet::new();
        for (c, col) in self.cols.iter().enumerate() {
            col.fills.validate(self.nrows, c);
            for (&ci, seg) in &col.segs {
                match seg {
                    Segment::Num(s) => {
                        assert_eq!(
                            popcount(&s.present),
                            s.count,
                            "num seg count mismatch at col {c} chunk {ci}"
                        );
                        assert!(s.count > 0, "empty num seg retained at col {c} chunk {ci}");
                        typed += PAGE_BYTES;
                    }
                    Segment::Text(s) => {
                        let n = s.ids.iter().filter(|&&id| id != NO_TEXT).count() as u16;
                        assert_eq!(n, s.count, "text seg count mismatch at col {c} chunk {ci}");
                        assert!(s.count > 0, "empty text seg retained at col {c} chunk {ci}");
                        typed += PAGE_BYTES;
                    }
                    Segment::Cells(v) => {
                        assert_eq!(v.len(), CHUNK, "cells seg wrong length at col {c} chunk {ci}");
                    }
                    Segment::Spilled(sp) => {
                        assert!(
                            live_pages.insert(sp.page),
                            "page {} referenced by two segments",
                            sp.page
                        );
                    }
                }
            }
        }
        assert_eq!(
            typed,
            self.pool.resident(),
            "resident byte accounting diverged from actual typed segments"
        );
        self.pool.validate(&live_pages);
    }
}

impl Clone for GridStore {
    /// Clones materialize every spilled segment (via the fault cache, so
    /// the source is untouched), then re-enforce the budget on the copy —
    /// the clone gets its own page file and starts with no pins.
    fn clone(&self) -> Self {
        let mut cols = Vec::with_capacity(self.cols.len());
        let mut resident = 0usize;
        for col in &self.cols {
            let mut segs = BTreeMap::new();
            for (&ci, seg) in &col.segs {
                let cloned = match seg {
                    Segment::Spilled(sp) => {
                        segment_from_page(&self.pool.fault(sp.page, sp.kind))
                    }
                    other => other.clone_resident(),
                };
                resident += cloned.spillable_bytes();
                segs.insert(ci, cloned);
            }
            cols.push(Column { segs, fills: col.fills.clone() });
        }
        let mut g = GridStore {
            cols,
            nrows: self.nrows,
            ncols: self.ncols,
            interner: self.interner.clone(),
            pool: Pool::new(self.pool.budget()),
        };
        g.pool.add_resident(resident);
        g.enforce_budget();
        g
    }
}

/// One chunk's share of a range — slots `a..=b` of chunk `ci` of one column
/// — open for editing in place ([`GridStore::for_each_chunk_mut`]). What
/// the visitor does not ask for does not happen: a typed chunk stays typed
/// and a spilled one stays on its page unless an edit has to land in it.
pub(crate) struct ChunkMut<'g> {
    grid: &'g mut GridStore,
    col: u32,
    ci: u32,
    a: usize,
    b: usize,
    /// Set when the visit read a spilled page back in.
    loaded: bool,
}

impl ChunkMut<'_> {
    /// The column this chunk belongs to.
    pub(crate) fn col(&self) -> u32 {
        self.col
    }

    /// The row of the chunk's first slot.
    fn base(&self) -> u32 {
        self.ci * CHUNK_ROWS
    }


    /// Rewrites the texts of a text chunk as interner ids: `rewrite` is
    /// asked once per occupied slot what its text becomes (`None`: it
    /// stays), the slot is overwritten with the id it answers, and
    /// `changed` hears the row, the old value and the new. A spilled page
    /// is asked through the fault cache first and loaded only if one of
    /// its slots changes — `rewrite` is therefore called twice for those,
    /// and must answer the same both times. Any other chunk is left alone.
    pub(crate) fn rewrite_texts(
        &mut self,
        rewrite: &mut dyn FnMut(u32, &mut Interner) -> Option<u32>,
        changed: &mut dyn FnMut(u32, &Value, &Value),
    ) {
        let (a, b) = (self.a, self.b);
        if let Some(&Segment::Spilled(sp)) = self.grid.cols[self.col as usize].segs.get(&self.ci) {
            if sp.kind != PageKind::Text {
                return;
            }
            let page = self.grid.pool.fault(sp.page, sp.kind);
            let PageData::Text(tp) = &*page else { unreachable!("a text page decodes as text") };
            let interner = &mut self.grid.interner;
            let hit =
                tp.ids[a..=b].iter().any(|&id| id != NO_TEXT && rewrite(id, interner).is_some());
            // Given up before the load, which can then take the cached
            // page over instead of copying it.
            drop(page);
            if !hit {
                return;
            }
            self.grid.make_resident(self.col, self.ci);
            self.loaded = true;
        }
        let base = self.base();
        let GridStore { cols, interner, .. } = &mut *self.grid;
        let Some(Segment::Text(seg)) = cols[self.col as usize].segs.get_mut(&self.ci) else {
            return;
        };
        // Ids are exchanged for ids, so the occupancy count stands.
        *seg.hot.get_mut() = true;
        for (off, slot) in seg.ids[a..=b].iter_mut().enumerate() {
            let old = *slot;
            if old == NO_TEXT {
                continue;
            }
            if let Some(new) = rewrite(old, interner) {
                assert!(new != NO_TEXT, "a text is rewritten to a text");
                *slot = new;
                changed(base + (a + off) as u32, interner.value(old), interner.value(new));
            }
        }
    }

    /// Hands `f` every cell of the share if the chunk is `Cells`, vacant
    /// ones included, with its row, for a content edit where it lies; a
    /// typed or vacant chunk has none. `f` must leave formulas as
    /// they are: nothing here keeps the dependency graph in step.
    pub(crate) fn stored_cells_mut(&mut self, f: &mut dyn FnMut(u32, &mut Cell)) {
        let first = self.base() + self.a as u32;
        if let Some(Segment::Cells(v)) = self.grid.cols[self.col as usize].segs.get_mut(&self.ci) {
            v[self.a..=self.b].iter_mut().zip(first..).for_each(|(cell, row)| f(row, cell));
        }
    }
}

/// The chunks rows `r0..=r1` fall in, each with the first and last slot of
/// its share of them.
fn chunk_pieces(r0: u32, r1: u32) -> impl Iterator<Item = (u32, usize, usize)> {
    (r0 / CHUNK_ROWS..=r1 / CHUNK_ROWS).map(move |ci| {
        let lo = r0.max(ci * CHUNK_ROWS);
        let hi = r1.min(ci * CHUNK_ROWS + (CHUNK_ROWS - 1));
        (ci, (lo % CHUNK_ROWS) as usize, (hi % CHUNK_ROWS) as usize)
    })
}

fn emit_num_runs<F: FnMut(ScanSlice<'_>)>(
    present: &[u64; WORDS],
    vals: &[f64; CHUNK],
    a: usize,
    b: usize,
    f: &mut F,
) {
    let mut i = a;
    while i <= b {
        let on = bit(present, i);
        let end = run_end(present, i, b, on);
        if on {
            f(ScanSlice::Nums(&vals[i..end]));
        } else {
            f(ScanSlice::Empty(end - i));
        }
        i = end;
    }
}

/// First index past `i` (exclusive, capped at `b + 1`) where the presence
/// bit flips away from `on`. Word-at-a-time: the aggregate kernels scan
/// fully-present chunks, so this is one inverted compare per 64 cells
/// instead of a bit test per cell.
fn run_end(present: &[u64; WORDS], i: usize, b: usize, on: bool) -> usize {
    let flip = |x: u64| if on { !x } else { x };
    let mut w = i / 64;
    let first = flip(present[w]) >> (i % 64);
    if first != 0 {
        return (i + first.trailing_zeros() as usize).min(b + 1);
    }
    let mut idx = (w + 1) * 64;
    while idx <= b {
        w += 1;
        let word = flip(present[w]);
        if word != 0 {
            return (idx + word.trailing_zeros() as usize).min(b + 1);
        }
        idx += 64;
    }
    b + 1
}
