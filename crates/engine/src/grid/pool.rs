//! The grid buffer pool: a page file plus a read-through fault cache that
//! lets typed chunks (`Num`/`Text` segments, see `grid::chunk`) spill to
//! disk under a configurable memory budget and reload transparently.
//!
//! Responsibilities are split with the chunk layer:
//!
//! * the **pool** owns the page file (fixed 8320-byte slots, a free-slot
//!   list), the resident-byte counter, the clock hand, the spill/load/fault
//!   statistics, and a bounded FIFO fault cache that serves *read-only*
//!   accesses to spilled pages from `&self` (residency never changes on the
//!   read path, which is what keeps the grid `Sync` for parallel recalc);
//! * the **chunk layer** decides *what* to evict (clock sweep over typed
//!   segments, skipping pinned ones and granting hot ones a second chance)
//!   and performs the actual segment ⇄ page conversions at `&mut` points.
//!
//! The page file is created lazily in the OS temp directory and unlinked
//! immediately after opening, so the kernel reclaims it when the process
//! exits no matter how it exits; it is never visible to other processes.
//!
//! Invariants (checked by `GridStore::validate`):
//!
//! * `resident` equals `PAGE_BYTES` × the number of resident typed
//!   segments — `Cells` segments are wired (never spilled, never
//!   counted) and vacant chunks occupy nothing;
//! * every `Spilled` segment names a live page slot, no two segments name
//!   the same slot, and the free list is disjoint from live slots;
//! * segments are clean-on-spill: a page is written exactly once when its
//!   segment is evicted and freed when the segment reloads — for a write
//!   (an in-place edit pass, `GridStore::for_each_chunk_mut`, peeks at a
//!   page through the fault cache and reloads it only if an edit lands in
//!   it), or for the duration of its own move in a row shift or a
//!   permutation, which `load` each spilled chunk once and never go
//!   through the fault cache — or is deleted by a structural edit, so
//!   there is no dirty-writeback state;
//! * a chunk a row shift or a permutation has taken out of its column is
//!   uncounted from that moment, and the chunks it is assembling are
//!   counted only when installed: in between, the grid holds at most two
//!   chunks (a shift) or one column plus one chunk (a permutation) that
//!   `resident` does not know about, and `resident ≤ budget` is restored
//!   before the operation returns.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// One page slot: a `Num` segment's 128-byte presence bitmap plus 1024
/// little-endian `f64` bit patterns. `Text` segments (4096 bytes of
/// interner ids) use the same slot size so slots are freely reusable; the
/// tail is simply unused.
pub(crate) const PAGE_BYTES: usize = 128 + 1024 * 8;

/// Rows per chunk (mirrored in `grid::chunk`; the codec needs it too).
pub(crate) const CHUNK: usize = 1024;

/// Presence-bitmap words per chunk.
pub(crate) const WORDS: usize = CHUNK / 64;

/// How a spilled page decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageKind {
    Num,
    Text,
}

/// A decoded numeric page.
#[derive(Clone)]
pub(crate) struct NumPage {
    pub(crate) present: [u64; WORDS],
    pub(crate) vals: [f64; CHUNK],
}

/// A decoded text page (interner ids; `u32::MAX` marks a vacant slot).
#[derive(Clone)]
pub(crate) struct TextPage {
    pub(crate) ids: [u32; CHUNK],
}

/// A decoded page held by the fault cache, boxed at its own size.
#[derive(Clone)]
pub(crate) enum PageData {
    Num(Box<NumPage>),
    Text(Box<TextPage>),
}

impl PageKind {
    /// Bytes a page of this kind holds — a text page its interner ids, not
    /// its whole slot: what a fault reads back and the fault cache counts.
    fn bytes(self) -> usize {
        match self {
            PageKind::Num => PAGE_BYTES,
            PageKind::Text => CHUNK * 4,
        }
    }
}

impl PageData {
    fn kind(&self) -> PageKind {
        match self {
            PageData::Num(_) => PageKind::Num,
            PageData::Text(_) => PageKind::Text,
        }
    }
}

/// Spill/reload counters, exposed for tests and the harness scenario.
/// These are observability only — they never feed the op meter, so budgeted
/// and unbudgeted runs stay bit-identical in traces and digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments written to the page file by the evictor.
    pub spills: u64,
    /// Segments read back at a `&mut` access (page freed afterwards).
    pub loads: u64,
    /// Read-only page decodes served to `&self` readers (cache misses).
    pub faults: u64,
}

pub(crate) fn encode_num(present: &[u64; WORDS], vals: &[f64; CHUNK]) -> Box<[u8; PAGE_BYTES]> {
    let mut buf = vec![0u8; PAGE_BYTES].into_boxed_slice();
    for (i, w) in present.iter().enumerate() {
        buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    let base = WORDS * 8;
    for (i, v) in vals.iter().enumerate() {
        buf[base + i * 8..base + i * 8 + 8].copy_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.try_into().expect("encoded page is PAGE_BYTES long")
}

pub(crate) fn encode_text(ids: &[u32; CHUNK]) -> Box<[u8; PAGE_BYTES]> {
    let mut buf = vec![0u8; PAGE_BYTES].into_boxed_slice();
    for (i, id) in ids.iter().enumerate() {
        buf[i * 4..i * 4 + 4].copy_from_slice(&id.to_le_bytes());
    }
    buf.try_into().expect("encoded page is PAGE_BYTES long")
}

/// Decodes the first `kind.bytes()` bytes of a slot.
fn decode(kind: PageKind, buf: &[u8]) -> PageData {
    match kind {
        PageKind::Num => {
            let mut present = [0u64; WORDS];
            for (i, w) in present.iter_mut().enumerate() {
                *w = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            }
            let base = WORDS * 8;
            let mut vals = [0f64; CHUNK];
            for (i, v) in vals.iter_mut().enumerate() {
                let raw = buf[base + i * 8..base + i * 8 + 8].try_into().expect("8 bytes");
                *v = f64::from_bits(u64::from_le_bytes(raw));
            }
            PageData::Num(Box::new(NumPage { present, vals }))
        }
        PageKind::Text => {
            let mut ids = [0u32; CHUNK];
            for (i, id) in ids.iter_mut().enumerate() {
                *id = u32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
            }
            PageData::Text(Box::new(TextPage { ids }))
        }
    }
}

/// The anonymous page file plus its slot allocator.
struct Pager {
    file: File,
    free: Vec<u32>,
    next: u32,
}

impl Pager {
    fn open() -> io::Result<Self> {
        use std::sync::atomic::AtomicU32;
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "ssbench-grid-{}-{}.pages",
            std::process::id(),
            SEQ.fetch_add(1, Relaxed),
        ));
        let file = File::options().read(true).write(true).create_new(true).open(&path)?;
        // Unlink immediately: the open fd keeps the data alive (Linux
        // semantics) and the kernel reclaims the space on process exit,
        // crash included. No Drop impl needed.
        let _ = std::fs::remove_file(&path);
        Ok(Pager { file, free: Vec::new(), next: 0 })
    }

    /// Reads the page of `kind` in slot `page`.
    fn read(&self, page: u32, kind: PageKind) -> io::Result<PageData> {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; PAGE_BYTES];
        let buf = &mut buf[..kind.bytes()];
        self.file.read_exact_at(buf, u64::from(page) * PAGE_BYTES as u64)?;
        Ok(decode(kind, buf))
    }
}

/// Read-through cache of decoded spilled pages, bounded to the grid budget
/// in the bytes the pages hold (a text page is half a numeric one).
/// FIFO replacement: correctness does not depend on the policy, and FIFO
/// keeps the `&self` read path to one queue push per miss.
struct FaultCache {
    pages: HashMap<u32, Arc<PageData>>,
    order: VecDeque<u32>,
    bytes: usize,
}

impl FaultCache {
    fn invalidate(&mut self, page: u32) {
        if let Some(data) = self.pages.remove(&page) {
            self.bytes = self.bytes.saturating_sub(data.kind().bytes());
            self.order.retain(|&p| p != page);
        }
    }
}

/// The buffer pool. Owned by `GridStore`; see the module docs for the
/// split of responsibilities.
pub(crate) struct Pool {
    budget: Option<usize>,
    resident: usize,
    /// Clock hand for the chunk layer's evictor: (column, next chunk key).
    hand: (u32, u32),
    pager: Option<Pager>,
    cache: Mutex<FaultCache>,
    spills: u64,
    loads: u64,
    faults: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("budget", &self.budget)
            .field("resident", &self.resident)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Pool {
    pub(crate) fn new(budget: Option<usize>) -> Self {
        Pool {
            budget,
            resident: 0,
            hand: (0, 0),
            pager: None,
            cache: Mutex::new(FaultCache {
                pages: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
            }),
            spills: 0,
            loads: 0,
            faults: AtomicU64::new(0),
        }
    }

    pub(crate) fn budget(&self) -> Option<usize> {
        self.budget
    }

    pub(crate) fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    pub(crate) fn resident(&self) -> usize {
        self.resident
    }

    pub(crate) fn add_resident(&mut self, bytes: usize) {
        self.resident += bytes;
    }

    pub(crate) fn sub_resident(&mut self, bytes: usize) {
        debug_assert!(self.resident >= bytes, "resident byte accounting went negative");
        self.resident = self.resident.saturating_sub(bytes);
    }

    pub(crate) fn hand(&self) -> (u32, u32) {
        self.hand
    }

    pub(crate) fn set_hand(&mut self, col: u32, key: u32) {
        self.hand = (col, key);
    }

    pub(crate) fn stats(&self) -> SpillStats {
        SpillStats { spills: self.spills, loads: self.loads, faults: self.faults.load(Relaxed) }
    }

    /// Writes an encoded segment to a free page slot. On I/O failure the
    /// caller keeps the segment resident (budgets are best-effort when the
    /// disk misbehaves; correctness never depends on spilling).
    pub(crate) fn store(&mut self, buf: &[u8; PAGE_BYTES]) -> io::Result<u32> {
        use std::os::unix::fs::FileExt;
        if self.pager.is_none() {
            self.pager = Some(Pager::open()?);
        }
        let pager = self.pager.as_mut().expect("pager just created");
        let page = pager.free.pop().unwrap_or_else(|| {
            let p = pager.next;
            pager.next += 1;
            p
        });
        match pager.file.write_all_at(&buf[..], u64::from(page) * PAGE_BYTES as u64) {
            Ok(()) => {
                self.spills += 1;
                Ok(page)
            }
            Err(e) => {
                pager.free.push(page);
                Err(e)
            }
        }
    }

    /// Reads a page back for a `&mut` access and frees its slot.
    pub(crate) fn load(&mut self, page: u32, kind: PageKind) -> PageData {
        // Serve from the fault cache when possible; the slot is freed
        // either way, so the cached copy must be dropped too.
        let cached = self.cache.lock().map_or(None, |mut c| {
            let hit = c.pages.get(&page).cloned();
            c.invalidate(page);
            hit
        });
        let data = match cached {
            Some(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
            None => self
                .pager
                .as_ref()
                .expect("load of a page that was never stored")
                .read(page, kind)
                .expect("page file read failed: spilled grid data is unrecoverable"),
        };
        self.free_page(page);
        self.loads += 1;
        data
    }

    /// Read-only access to a spilled page from `&self`, via the bounded
    /// fault cache. Used by scans, `get`, and `value_at`.
    pub(crate) fn fault(&self, page: u32, kind: PageKind) -> Arc<PageData> {
        let mut cache = match self.cache.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(p) = cache.pages.get(&page) {
            return p.clone();
        }
        let data = self
            .pager
            .as_ref()
            .expect("fault of a page that was never stored")
            .read(page, kind)
            .expect("page file read failed: spilled grid data is unrecoverable");
        self.faults.fetch_add(1, Relaxed);
        let data = Arc::new(data);
        // Cap the cache at the grid budget (a few pages minimum so tiny
        // budgets do not thrash the page just faulted in).
        let cap = self.budget.unwrap_or(usize::MAX).max(4 * PAGE_BYTES);
        while cache.bytes + kind.bytes() > cap {
            let Some(old) = cache.order.pop_front() else { break };
            if let Some(evicted) = cache.pages.remove(&old) {
                cache.bytes = cache.bytes.saturating_sub(evicted.kind().bytes());
            }
        }
        cache.pages.insert(page, data.clone());
        cache.order.push_back(page);
        cache.bytes += kind.bytes();
        data
    }

    /// Returns a slot to the free list (segment reloaded or discarded).
    pub(crate) fn free_page(&mut self, page: u32) {
        if let Ok(mut c) = self.cache.lock() {
            c.invalidate(page);
        }
        if let Some(pager) = self.pager.as_mut() {
            debug_assert!(!pager.free.contains(&page), "double free of page {page}");
            pager.free.push(page);
        }
    }

    /// Invariant check support: free-list slots must be disjoint from the
    /// live set and every slot must have been allocated.
    pub(crate) fn validate(&self, live: &std::collections::HashSet<u32>) {
        let Some(pager) = self.pager.as_ref() else {
            assert!(live.is_empty(), "spilled segments but no page file");
            return;
        };
        for &p in live {
            assert!(p < pager.next, "live page {p} beyond high-water mark {}", pager.next);
            assert!(!pager.free.contains(&p), "live page {p} is on the free list");
        }
        for &p in &pager.free {
            assert!(p < pager.next, "freed page {p} beyond high-water mark {}", pager.next);
        }
    }
}

/// Cloning a pool clones its *configuration*, not its pages: the chunk
/// layer materializes every spilled segment into the clone and re-enforces
/// the budget, so the clone starts with an empty page file of its own.
impl Clone for Pool {
    fn clone(&self) -> Self {
        Pool::new(self.budget)
    }
}

/// Parses `SSBENCH_GRID_BUDGET`: plain integer bytes, or with a `K`/`M`/`G`
/// suffix (case-insensitive, powers of 1024). Unset, empty, `0`, or
/// unparseable means unbounded.
pub(crate) fn env_grid_budget() -> Option<usize> {
    let raw = std::env::var("SSBENCH_GRID_BUDGET").ok()?;
    parse_budget(&raw)
}

pub(crate) fn parse_budget(raw: &str) -> Option<usize> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'M' => (&s[..s.len() - 1], 1usize << 20),
        b'G' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    let n: usize = digits.trim().parse().ok()?;
    if n == 0 {
        return None;
    }
    n.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budget("65536"), Some(65536));
        assert_eq!(parse_budget("64K"), Some(64 << 10));
        assert_eq!(parse_budget("64M"), Some(64 << 20));
        assert_eq!(parse_budget("2g"), Some(2 << 30));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("0"), None);
        assert_eq!(parse_budget("garbage"), None);
    }

    #[test]
    fn num_page_roundtrip() {
        let mut present = [0u64; WORDS];
        present[0] = 0b1011;
        present[15] = 1 << 63;
        let mut vals = [0f64; CHUNK];
        vals[0] = 1.5;
        vals[1] = -0.0;
        vals[3] = f64::MIN_POSITIVE;
        vals[1023] = 12345.678;
        let buf = encode_num(&present, &vals);
        match decode(PageKind::Num, &buf[..]) {
            PageData::Num(np) => {
                assert_eq!(np.present, present);
                // Bit-exact round trip, including -0.0.
                for i in 0..CHUNK {
                    assert_eq!(np.vals[i].to_bits(), vals[i].to_bits(), "slot {i}");
                }
            }
            PageData::Text(_) => panic!("wrong kind"),
        }
    }

    #[test]
    fn text_page_roundtrip() {
        let mut ids = [u32::MAX; CHUNK];
        ids[0] = 0;
        ids[7] = 42;
        ids[1023] = 7;
        let buf = encode_text(&ids);
        match decode(PageKind::Text, &buf[..]) {
            PageData::Text(tp) => assert_eq!(tp.ids, ids),
            PageData::Num(_) => panic!("wrong kind"),
        }
    }

    #[test]
    fn store_load_fault_cycle() {
        let mut pool = Pool::new(Some(1 << 20));
        let present = [u64::MAX; WORDS];
        let mut vals = [0f64; CHUNK];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as f64;
        }
        let page = pool.store(&encode_num(&present, &vals)).expect("store");
        // Read-only fault twice: one disk read, one cache hit.
        let a = pool.fault(page, PageKind::Num);
        let b = pool.fault(page, PageKind::Num);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.stats().faults, 1);
        match &*a {
            PageData::Num(np) => assert_eq!(np.vals[513], 513.0),
            PageData::Text(_) => panic!("wrong kind"),
        }
        // Mutable load frees the slot; the next store reuses it.
        match pool.load(page, PageKind::Num) {
            PageData::Num(np) => assert_eq!(np.vals[1023], 1023.0),
            PageData::Text(_) => panic!("wrong kind"),
        }
        let again = pool.store(&encode_text(&[u32::MAX; CHUNK])).expect("store");
        assert_eq!(again, page, "freed slot is reused");
        assert_eq!(pool.stats(), SpillStats { spills: 2, loads: 1, faults: 1 });
    }
}
