//! The compiled evaluation backend: template-keyed bytecode programs.
//!
//! The paper finds that all three benchmarked systems "end up leaving
//! formulae uninterpreted, individually looking up the arguments
//! cell-by-cell" (§5.6) and names shared computation across fill-down
//! columns as the biggest missed optimization (Figs 11–12). This module is
//! that optimization: a 500k-row fill-down column is one *template*
//! (Tyszkiewicz's view of spreadsheets as programs over relative-reference
//! templates), so it is compiled exactly once and executed 500k times.
//!
//! ## Pipeline
//!
//! 1. **Normalize** — [`formula::r1c1::normalize`] spells the formula in
//!    R1C1-relative form; the resulting string is the cache key. Fill
//!    copies share a key; distinct formulas never collide.
//! 2. **Cache** — [`ProgramCache`] (one per sheet) maps key →
//!    [`Arc<Program>`] under an `RwLock`, so the PR-1 parallel recalc
//!    workers share programs read-only. Hit/miss tallies live on the cache
//!    itself (they are diagnostics, not simulated-cost primitives, so they
//!    deliberately stay out of the [`crate::meter::Meter`]).
//! 3. **Lower** — [`lower::compile`] flattens the AST to stack bytecode:
//!    literal-pure subtrees constant-fold at compile time (via the exact
//!    `apply_unary`/`apply_binary` the interpreter uses), literals land in
//!    a shared constant pool (`Arc<str>` texts clone by refcount), and
//!    function names resolve to dense [`lower::FuncId`]s.
//! 4. **Run** — [`vm::run`] executes the program against the same
//!    [`EvalCtx`](crate::eval::EvalCtx) the interpreter uses. Aggregate
//!    calls over ranges dispatch to vectorized kernels that walk the grid's
//!    row/column slices directly and charge the meter in bulk.
//!
//! ## Correctness contract
//!
//! Values and meter counts are **bit-identical** to the tree-walking
//! interpreter on every formula: scalar semantics are shared code
//! (`apply_unary`/`apply_binary`, the function library), kernels replicate
//! each grid layout's clipping and iteration order exactly, and the
//! differential oracle and proptests in `tests/` prove it on random
//! expression trees and full op sequences. Programs are pure functions of
//! their cache key — a key encodes the whole template, so a cached program
//! can never go stale. Every program additionally carries the static facts
//! [`crate::analyze`] proved about it (verified max stack depth,
//! volatility, read-set); those facts gate the *invalidation* policy: only
//! the per-address memo tracks sheet state, so a formula edit drops one
//! memo entry ([`ProgramCache::invalidate_addr`]) and a structural rebuild
//! keeps every pure template ([`ProgramCache::retain_pure`]).

pub mod lower;
pub mod vm;

pub use lower::{compile, Program};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::addr::CellAddr;
use crate::formula::ast::Expr;
use crate::formula::r1c1;

/// Hasher for the addr-memo map: a cell address is already a unique
/// 64-bit pattern, so a fixed avalanche (the splitmix64 finalizer) beats
/// SipHash on the per-eval hot path (the memo is probed once per formula
/// evaluation). A plain multiply is not enough: hashbrown buckets on the
/// *low* hash bits, and `(row << 32 | col) * odd` leaves them a function
/// of the column alone — every row of a fill-down column would collide.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | u64::from(n);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct BuildAddrHasher;

impl std::hash::BuildHasher for BuildAddrHasher {
    type Hasher = AddrHasher;
    fn build_hasher(&self) -> AddrHasher {
        AddrHasher::default()
    }
}

/// A per-sheet cache of compiled programs, keyed by the R1C1-normalized
/// template string. Shared read-mostly: parallel recalc workers hold
/// `&Sheet` and take the read lock only on lookup; the precompile pass in
/// `recalc::run_plan` warms the cache before any worker starts.
///
/// Two layers: `by_template` is the ground truth (normalized string →
/// program; fill copies share one entry), and `by_addr` memoizes the
/// per-cell resolution so steady-state evaluation pays one cheap address
/// hash instead of re-normalizing the formula every pass. Only the memo
/// can go stale — template entries are pure functions of their key — so
/// invalidation is scoped to what an edit can actually invalidate: a
/// formula mutation at one address drops that address's memo entry
/// ([`invalidate_addr`](ProgramCache::invalidate_addr)); a structural
/// rebuild (addresses reshuffled wholesale) clears the memo but keeps
/// every pure template ([`retain_pure`](ProgramCache::retain_pure)).
/// Volatile programs never enter the memo at all.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: RwLock<HashMap<String, Arc<Program>>>,
    by_addr: RwLock<HashMap<CellAddr, Arc<Program>, BuildAddrHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// The program for `expr` anchored at `at`, compiling on first sight
    /// of its template. The first call for a given address normalizes the
    /// formula and resolves it through the template map; later calls hit
    /// the address memo directly.
    pub fn get_or_compile(&self, expr: &Expr, at: CellAddr) -> Arc<Program> {
        if let Some(p) = self.by_addr.read().expect("program cache poisoned").get(&at) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        let key = r1c1::normalize(expr, at);
        // Clone out of the read guard before matching: the `None` arm
        // takes the write lock on the same `RwLock`.
        let cached = self.map.read().expect("program cache poisoned").get(&key).cloned();
        let prog = match cached {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Compile outside the write lock; a racing compile of the
                // same template is wasted work, not an error — first
                // insert wins.
                let compiled = Arc::new(lower::compile(expr, at));
                Arc::clone(
                    self.map
                        .write()
                        .expect("program cache poisoned")
                        .entry(key)
                        .or_insert(compiled),
                )
            }
        };
        // Volatile templates bypass the memo: keeping them out means no
        // invalidation path ever has to reason about them, and the memo
        // stays a cache of *pure* address → program bindings.
        if !prog.is_volatile() {
            self.by_addr
                .write()
                .expect("program cache poisoned")
                .insert(at, Arc::clone(&prog));
        }
        prog
    }

    /// Drops the per-address memo entry for one cell. The sheet calls this
    /// when the formula at `addr` changes (edit, or a value overwriting a
    /// formula): only that address's template binding is affected, so the
    /// template map — and every other cell's memo entry — stays warm.
    pub fn invalidate_addr(&self, addr: CellAddr) {
        self.by_addr.write().expect("program cache poisoned").remove(&addr);
    }

    /// Structural-rebuild invalidation: the address memo is dropped
    /// wholesale (any address may now hold any formula), and the template
    /// map retains exactly the *pure* programs — non-volatile, statically
    /// bounded read-sets per `analyze`. Purity is what makes retention
    /// sound: a pure template's program depends only on its R1C1 key,
    /// which restructuring does not change.
    pub fn retain_pure(&self) {
        self.by_addr.write().expect("program cache poisoned").clear();
        self.map
            .write()
            .expect("program cache poisoned")
            .retain(|_, p| !p.is_volatile() && p.reads().is_bounded());
    }

    /// The memoized program bound to `addr`, if any. Used by the
    /// structural-edit paths to probe which bindings are candidates for
    /// retention before the rebuild discards the memo.
    pub fn memo_get(&self, addr: CellAddr) -> Option<Arc<Program>> {
        self.by_addr.read().expect("program cache poisoned").get(&addr).cloned()
    }

    /// [`retain_pure`](ProgramCache::retain_pure) plus re-insertion of
    /// memo bindings the caller proved still valid at their (possibly
    /// moved) addresses — the structural memo-retention path. The caller
    /// is responsible for the proof: each program's static read-set
    /// windows must resolve at the new address to the same cells they
    /// covered before the edit (see `Sheet::permute_rows` /
    /// `ops::structure`).
    pub(crate) fn retain_pure_with(&self, retained: Vec<(CellAddr, Arc<Program>)>) {
        self.retain_pure();
        let mut memo = self.by_addr.write().expect("program cache poisoned");
        for (addr, prog) in retained {
            memo.insert(addr, prog);
        }
    }

    /// Number of cached programs (distinct templates seen).
    pub fn len(&self) -> usize {
        self.map.read().expect("program cache poisoned").len()
    }

    /// True when no template has been compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live per-address memo entries (diagnostics/tests — lets
    /// tests observe that volatile programs bypass the memo).
    pub fn memo_len(&self) -> usize {
        self.by_addr.read().expect("program cache poisoned").len()
    }

    /// Drops every cached program. Called on structural rebuilds and
    /// formula edits; safe at any time because programs are pure functions
    /// of their key.
    pub fn clear(&self) {
        self.map.write().expect("program cache poisoned").clear();
        self.by_addr.write().expect("program cache poisoned").clear();
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::parse;

    fn at(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    #[test]
    fn fill_down_column_compiles_once() {
        let cache = ProgramCache::new();
        let origin = at("K1");
        let e = parse("SUM(J1:J100)").unwrap();
        let first = cache.get_or_compile(&e, origin);
        for row in 1..50u32 {
            let to = CellAddr::new(row, origin.col);
            let copy = e.adjusted(origin, to);
            let p = cache.get_or_compile(&copy, to);
            assert!(Arc::ptr_eq(&first, &p), "row {row} must share the program");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 49);
    }

    #[test]
    fn distinct_templates_get_distinct_programs() {
        // Distinct addresses: the address memo assumes one formula per
        // cell between clears (the sheet's edit hooks guarantee it).
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&parse("A1+1").unwrap(), at("B1"));
        let b = cache.get_or_compile(&parse("A1+2").unwrap(), at("C1"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn addr_memo_answers_repeat_lookups() {
        let cache = ProgramCache::new();
        let e = parse("A1*2").unwrap();
        let first = cache.get_or_compile(&e, at("B1"));
        let again = cache.get_or_compile(&e, at("B1"));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // The memo is keyed by address alone, which is why every formula
        // edit path must drop the edited address's entry (set_formula and
        // value-over-formula call invalidate_addr; rebuild_deps clears the
        // memo via retain_pure).
        cache.invalidate_addr(at("B1"));
        let other = cache.get_or_compile(&parse("A1*3").unwrap(), at("B1"));
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.len(), 2); // both templates remain ground truth
    }

    #[test]
    fn invalidate_addr_is_scoped_to_one_cell() {
        let cache = ProgramCache::new();
        let e = parse("A1*2").unwrap();
        cache.get_or_compile(&e, at("B1"));
        cache.get_or_compile(&e.adjusted(at("B1"), at("B2")), at("B2"));
        assert_eq!(cache.memo_len(), 2);
        cache.invalidate_addr(at("B1"));
        assert_eq!(cache.memo_len(), 1);
        // B2 still answers from the memo; B1 re-resolves through the
        // template map without recompiling.
        let hits = cache.hits();
        cache.get_or_compile(&e.adjusted(at("B1"), at("B2")), at("B2"));
        cache.get_or_compile(&e, at("B1"));
        assert_eq!(cache.hits(), hits + 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn retain_pure_keeps_pure_templates_and_drops_volatile() {
        let cache = ProgramCache::new();
        cache.get_or_compile(&parse("A1*2").unwrap(), at("B1"));
        cache.get_or_compile(&parse("NOW()+A1").unwrap(), at("C1"));
        cache.get_or_compile(&parse("OFFSET(A1,1,0)").unwrap(), at("D1"));
        assert_eq!(cache.len(), 3);
        cache.retain_pure();
        // Only the pure bounded template survives; the memo is gone.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.memo_len(), 0);
        let misses = cache.misses();
        cache.get_or_compile(&parse("A1*2").unwrap(), at("B1"));
        assert_eq!(cache.misses(), misses, "pure template must not recompile");
    }

    #[test]
    fn volatile_programs_bypass_the_addr_memo() {
        let cache = ProgramCache::new();
        let e = parse("NOW()+A1").unwrap();
        let p = cache.get_or_compile(&e, at("B1"));
        assert!(p.is_volatile());
        assert_eq!(cache.memo_len(), 0);
        // Repeat lookups still hit — through the template map.
        cache.get_or_compile(&e, at("B1"));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn clear_empties_and_recompiles() {
        let cache = ProgramCache::new();
        cache.get_or_compile(&parse("A1*2").unwrap(), at("B1"));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compile(&parse("A1*2").unwrap(), at("B1"));
        assert_eq!(cache.misses(), 2);
    }
}
