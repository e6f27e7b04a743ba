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
//! 1. **Normalize** — [`r1c1::normalize`] spells the formula in
//!    R1C1-relative form; the resulting string is the cache key. Fill
//!    copies share a key; distinct formulas never collide.
//! 2. **Cache** — [`ProgramCache`] (one per sheet) maps key →
//!    [`Arc<Program>`]. Hit/miss tallies live on the cache itself (they
//!    are diagnostics, not simulated-cost primitives, so they deliberately
//!    stay out of the [`crate::meter::Meter`]).
//! 3. **Lower** — [`lower::compile`] flattens the AST to stack bytecode:
//!    literal-pure subtrees constant-fold at compile time (via the exact
//!    `apply_unary`/`apply_binary` the interpreter uses), literals land in
//!    a shared constant pool (`Arc<str>` texts clone by refcount), and
//!    function names resolve to dense [`lower::FuncId`]s.
//! 4. **Bind** — the formula cell keeps the `Arc` it resolved
//!    ([`Formula::program`](crate::cell::Formula::program)), so steps 1–2
//!    run once per formula, not once per evaluation: a recalculation pass
//!    reads expression and program from the one grid lookup it does anyway.
//!    A sort or structural edit that moves the cell keeps the binding
//!    unless its reference rewrite changed the template key. A document's
//!    formulas are bound as it is opened, and there the steps run once per
//!    *template*: `OpenTemplates` recognises a fill-down copy by its token
//!    stream before it is ever parsed.
//! 5. **Run** — [`vm::run`] executes the program against the same
//!    [`EvalCtx`](crate::eval::EvalCtx) the interpreter uses. Aggregate
//!    calls over ranges dispatch to vectorized kernels that walk the grid's
//!    row/column slices directly and charge the meter in bulk.
//!
//! ## Correctness contract
//!
//! Values and meter counts are **bit-identical** to the tree-walking
//! interpreter on every formula: scalar semantics are shared code
//! (`apply_unary`/`apply_binary`, the function library), kernels replicate
//! the grid scan's clipping and row-major order exactly, and the
//! differential oracle and property tests in `tests/` prove it on random
//! expression trees and full op sequences. Programs are pure functions of
//! their cache key — a key encodes the whole template, and a volatile
//! builtin reads the clock from the evaluation context at run time — so a
//! cached program can never go stale and nothing is ever evicted. What can
//! go stale is a *binding*: it is right for as long as
//! `normalize(expr, address)` is the key it was resolved under. A typed-in
//! formula starts unbound (one loaded from a document arrives bound to its
//! template's program), and a sort or structural shift carries the binding
//! along with the cell. The reference rewriters of the two places that
//! relocate a stored expression report whether the key changed —
//! [`Expr::adjust`] (for `Sheet::permute_rows`) when a reference fell off
//! the sheet, `ops::structure`'s `shift_expr` when a reference died or
//! changed its R1C1 spelling — and the binding is cleared exactly then.
//! [`analyze::check_sheet`](crate::analyze::check_sheet) re-derives every
//! bound formula's key and fails on a program that is not the template
//! map's.

pub mod lower;
pub mod vm;

pub use lower::{compile, Program};

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use crate::addr::CellAddr;
use crate::cell::Formula;
use crate::error::EngineError;
use crate::formula::ast::Expr;
use crate::formula::{parse_with, r1c1, NameResolver};

/// A per-sheet cache of compiled programs, keyed by the R1C1-normalized
/// template string (fill copies share one entry), filled through `&self`
/// by the first evaluation of each unbound formula.
///
/// Entries are pure functions of their key, so nothing here tracks sheet
/// state and no edit invalidates anything. Which program a given cell runs
/// is remembered by the cell itself (see the module docs); a resolve
/// through this map happens once per formula per binding.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: RefCell<HashMap<String, Arc<Program>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl ProgramCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// The program for `expr` anchored at `at`, compiling on first sight
    /// of its template.
    pub fn get_or_compile(&self, expr: &Expr, at: CellAddr) -> Arc<Program> {
        let key = r1c1::normalize(expr, at);
        if let Some(program) = self.map.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Arc::clone(program);
        }
        self.misses.set(self.misses.get() + 1);
        let program = Arc::new(lower::compile(expr, at));
        self.map.borrow_mut().insert(key, Arc::clone(&program));
        program
    }

    /// The program cached for the template `key`, if any, without
    /// counting a lookup or compiling anything: the read-only access
    /// `analyze::check_sheet` checks bindings through.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<Program>> {
        self.map.borrow().get(key).cloned()
    }

    /// Number of cached programs (distinct templates seen).
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when no template has been compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

/// The formula front end of one bulk load (`Sheet::load_rows`): a
/// document's fill-down columns are thousands of texts that differ only in
/// the row numbers of their references, so each distinct
/// [`r1c1::token_key`] is parsed and resolved through the [`ProgramCache`]
/// once, and every later cell with that key gets the parsed expression
/// re-pointed at itself and a clone of the program's `Arc`. The table lives
/// for one load; the programs it resolved live in the sheet's cache.
#[derive(Default)]
pub(crate) struct OpenTemplates {
    by_key: HashMap<Vec<u8>, Template>,
    /// The key under construction, kept for its allocation.
    key: Vec<u8>,
}

/// A parsed formula, the cell it was written at, and its program.
struct Template {
    expr: Expr,
    origin: CellAddr,
    program: Arc<Program>,
}

impl OpenTemplates {
    /// The formula cell content for the body `src` (no leading `=`) at
    /// `at`: what `parse_with(src, names)` builds, bound to the program
    /// `programs` holds for it. A text [`r1c1::token_key`] will not vouch
    /// for is parsed on its own and left unbound, as a typed-in formula is.
    pub(crate) fn formula(
        &mut self,
        src: &str,
        at: CellAddr,
        names: &dyn NameResolver,
        programs: &ProgramCache,
    ) -> Result<Formula, EngineError> {
        self.key.clear();
        if !r1c1::token_key(src, at, &mut self.key) {
            return Ok(Formula::new(parse_with(src, names)?));
        }
        if let Some(t) = self.by_key.get(self.key.as_slice()) {
            return Ok(Formula::bound(t.expr.adjusted(t.origin, at), Arc::clone(&t.program)));
        }
        let expr = parse_with(src, names)?;
        let program = programs.get_or_compile(&expr, at);
        let template = Template { expr: expr.clone(), origin: at, program: Arc::clone(&program) };
        self.by_key.insert(self.key.clone(), template);
        Ok(Formula::bound(expr, program))
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
impl ProgramCache {
    /// Lookups so far, hit or miss. A bound formula never looks anything
    /// up, so across a `recalc_all` the delta is the number of formulas
    /// that had to bind: 0 = every binding survived whatever came before.
    pub(crate) fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, Analysis};
    use crate::formula::parse;
    use crate::recalc::recalc_all;
    use crate::sheet::Sheet;
    use crate::value::Value;

    fn at(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn bound(sheet: &Sheet, addr: &str) -> Arc<Program> {
        Arc::clone(sheet.formula_at(at(addr)).unwrap().program().expect("evaluated, so bound"))
    }

    /// What the analyzer proves about the formula at `addr`.
    fn facts(sheet: &Sheet, addr: &str) -> Analysis {
        analyze(&sheet.formula_at(at(addr)).unwrap().expr, at(addr))
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
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&parse("A1+1").unwrap(), at("B1"));
        let b = cache.get_or_compile(&parse("A1+2").unwrap(), at("B1"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    /// The name dates from when the address → program relation was a side
    /// table; it is the cell's own binding that answers now.
    #[test]
    fn addr_memo_answers_repeat_lookups() {
        let mut s = Sheet::new();
        s.set_value(at("A1"), 3);
        s.set_formula_str(at("B1"), "=A1*2").unwrap();
        assert!(s.formula_at(at("B1")).unwrap().program().is_none(), "a new formula is unbound");
        recalc_all(&mut s);
        // One resolve binds; the evaluation that follows reads the binding.
        assert_eq!((s.program_cache().misses(), s.program_cache().hits()), (1, 0));
        let first = bound(&s, "B1");
        recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), 1, "a bound formula never touches the cache");
        assert!(Arc::ptr_eq(&first, &bound(&s, "B1")));
        // A different formula at the same address is a new cell with no
        // binding — there is nothing to invalidate.
        s.set_formula_str(at("B1"), "=A1*3").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.value(at("B1")), Value::Number(9.0));
        assert!(!Arc::ptr_eq(&first, &bound(&s, "B1")));
        assert_eq!(s.program_cache().len(), 2); // both templates remain ground truth
    }

    #[test]
    fn a_formula_edit_rebinds_exactly_one_cell() {
        let mut s = Sheet::new();
        s.set_formula_str(at("B1"), "=A1*2").unwrap();
        s.set_formula_str(at("B2"), "=A2*2").unwrap();
        recalc_all(&mut s);
        assert_eq!((s.program_cache().misses(), s.program_cache().hits()), (1, 1));
        // Retyping B1 leaves B2 bound; B1 re-resolves through the template
        // map without recompiling.
        s.set_formula_str(at("B1"), "=A1*2").unwrap();
        recalc_all(&mut s);
        assert_eq!((s.program_cache().misses(), s.program_cache().hits()), (1, 2));
        assert!(Arc::ptr_eq(&bound(&s, "B1"), &bound(&s, "B2")));
        // A value over a formula needs no hook either: the binding went
        // with the cell.
        s.set_value(at("B1"), 7);
        recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), 3);
    }

    #[test]
    fn rebuild_deps_evicts_nothing_and_clears_no_binding() {
        let mut s = Sheet::new();
        s.set_value(at("A1"), 1);
        s.set_value(at("A2"), 5);
        s.set_formula_str(at("B1"), "=A1*2").unwrap();
        s.set_formula_str(at("C1"), "=NOW()+A1").unwrap();
        s.set_formula_str(at("D1"), "=OFFSET(A1,1,0)").unwrap();
        recalc_all(&mut s);
        assert_eq!(s.program_cache().len(), 3);
        assert!(facts(&s, "C1").volatile);
        assert!(!facts(&s, "D1").reads.is_bounded());
        let lookups = s.program_cache().lookups();
        s.rebuild_deps();
        // Pure, volatile, unbounded: programs are functions of their key,
        // and the dependency graph is not part of the key.
        assert_eq!(s.program_cache().len(), 3);
        recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups);
        assert_eq!(s.value(at("D1")), Value::Number(5.0));
    }

    #[test]
    fn volatile_programs_bind_like_any_other() {
        let mut s = Sheet::new();
        s.set_value(at("A1"), 1);
        s.set_formula_str(at("B1"), "=NOW()+A1").unwrap();
        s.set_now_serial(100.0);
        recalc_all(&mut s);
        assert!(facts(&s, "B1").volatile);
        assert_eq!(s.value(at("B1")), Value::Number(101.0));
        // The clock is an input of the run, not of the program.
        s.set_now_serial(200.0);
        recalc_all(&mut s);
        assert_eq!(s.value(at("B1")), Value::Number(201.0));
        assert_eq!((s.program_cache().misses(), s.program_cache().hits()), (1, 0));
    }
}
