//! The sheet: a grid of cells, its dependency graph, filter state, and the
//! cost meter. This is the engine's main API surface.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::addr::{CellAddr, CellRef, Range};
use crate::cell::{Cell, Formula};
use crate::compile::{compile, vm, OpenTemplates, Program, ProgramCache};
use crate::depgraph::DepGraph;
use crate::error::EngineError;
use crate::eval::context::DEFAULT_NOW_SERIAL;
use crate::eval::{CellSource, EvalCtx, LookupStrategy};
use crate::formula::{Expr, NameResolver, RangeRef};
use crate::grid::{CellGet, ChunkMut, GridStore, IdMemo, ScanSlice, CHUNK_ROWS};
use crate::index::{ColumnBuilder, IndexStore};
use crate::meter::{Meter, Primitive};
use crate::style::Color;
use crate::value::{classify, Input, Value};

pub use crate::grid::Layout;

/// A single spreadsheet sheet.
#[derive(Debug)]
pub struct Sheet {
    grid: GridStore,
    deps: DepGraph,
    meter: Meter,
    /// Per-row hidden flags (filter state); empty means nothing hidden.
    hidden: Vec<bool>,
    lookup: LookupStrategy,
    now_serial: f64,
    /// Named ranges (uppercased name → range).
    names: NameTable,
    /// Compiled-backend program cache, keyed by R1C1 template. Programs
    /// are pure functions of their key, so no edit invalidates an entry;
    /// which program a cell runs is bound in the cell's own `Formula`.
    programs: ProgramCache,
    /// Maintained column indexes (the optimized fourth system's lookup
    /// path) and the auto-index flag. Empty — and costing nothing — unless
    /// columns are registered or [`Sheet::set_auto_index`] is on.
    indexes: IndexStore,
}

/// The hook [`Sheet::edit_chunks`] hands its visitor, to be told of each
/// value cell it rewrote: address, old value, new value.
pub(crate) type Wrote<'a> = dyn FnMut(CellAddr, &Value, &Value) + 'a;

/// The sheet's named ranges — the parser's name resolver — and the
/// programs of the one-shot queries parsed against them. A query's program
/// is a function of its text and of this table, so the memo lives here and
/// every change to a range clears it; nothing else on the sheet can change
/// what a query text means.
#[derive(Debug, Default)]
struct NameTable {
    /// Uppercased name → range.
    ranges: HashMap<String, Range>,
    /// Query body (no leading `=`) → its program, compiled at A1. Not the
    /// template [`ProgramCache`]: its key is the R1C1 text of a parsed
    /// formula, and an entry there is forever, which a name change would
    /// make wrong here.
    queries: RefCell<HashMap<String, Arc<Program>>>,
}

impl NameResolver for NameTable {
    fn resolve(&self, name: &str) -> Option<RangeRef> {
        self.ranges.get(&name.to_ascii_uppercase()).map(|r| RangeRef {
            start: CellRef::absolute(r.start),
            end: CellRef::absolute(r.end),
        })
    }
}

impl NameTable {
    /// Defines or redefines `name` (uppercased).
    fn define(&mut self, name: String, range: Range) {
        self.ranges.insert(name, range);
        self.forget_queries();
    }

    /// Removes `name` (uppercased); `true` when it existed.
    fn remove(&mut self, name: &str) -> bool {
        let existed = self.ranges.remove(name).is_some();
        if existed {
            self.forget_queries();
        }
        existed
    }

    /// Moves every range through `map`, dropping those it maps to `None`.
    fn remap(&mut self, map: impl Fn(Range) -> Option<Range>) {
        self.ranges.retain(|_, range| match map(*range) {
            Some(moved) => {
                *range = moved;
                true
            }
            None => false,
        });
        self.forget_queries();
    }

    fn forget_queries(&mut self) {
        self.queries.get_mut().clear();
    }

    /// The program of the query `body`: memoized by its text, or parsed
    /// against these names and compiled at A1 — and memoized only then, so
    /// a text that does not parse is parsed again each time it is asked.
    fn query(&self, body: &str) -> Result<Arc<Program>, EngineError> {
        if let Some(program) = self.queries.borrow().get(body) {
            return Ok(Arc::clone(program));
        }
        let program = Arc::new(compile(&crate::formula::parse_with(body, self)?, QUERY_AT));
        self.queries.borrow_mut().insert(body.to_owned(), Arc::clone(&program));
        Ok(program)
    }
}

/// The cell a one-shot query is compiled at and evaluated as: compiled and
/// run at the same address, every reference reads the cell it names.
const QUERY_AT: CellAddr = CellAddr::new(0, 0);

impl Sheet {
    /// An empty sheet.
    pub fn new() -> Self {
        Sheet::with_size(0, 0)
    }

    /// An empty sheet with the given initial extent.
    pub fn with_size(rows: u32, cols: u32) -> Self {
        Sheet {
            grid: GridStore::new(rows, cols),
            deps: DepGraph::new(),
            meter: Meter::new(),
            hidden: Vec::new(),
            lookup: LookupStrategy::default(),
            now_serial: DEFAULT_NOW_SERIAL,
            names: NameTable::default(),
            programs: ProgramCache::new(),
            indexes: IndexStore::default(),
        }
    }

    // --- introspection -------------------------------------------------

    /// The cost meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The compiled-backend program cache (templates compiled so far,
    /// hit/miss tallies).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    /// The underlying grid storage, for slice-level access by the
    /// compiled backend's range kernels.
    pub(crate) fn grid_store(&self) -> &GridStore {
        &self.grid
    }

    /// Mutable grid access for `ops::structure`, which shifts rows and
    /// columns in place and then repairs everything else the sheet keyed
    /// by coordinate (formulas, names, filter flags, indexes, deps), and
    /// for `ops::cond_format` and `ops::copy_paste`, which restyle the
    /// fills beside the cells (nothing else on the sheet is keyed by a
    /// fill).
    pub(crate) fn grid_store_mut(&mut self) -> &mut GridStore {
        &mut self.grid
    }

    /// The serial `NOW()` returns (see [`Sheet::set_now_serial`]).
    pub fn now_serial(&self) -> f64 {
        self.now_serial
    }

    /// Materialized row count.
    pub fn nrows(&self) -> u32 {
        self.grid.nrows()
    }

    /// Materialized column count.
    pub fn ncols(&self) -> u32 {
        self.grid.ncols()
    }

    /// The used range (`None` for an empty sheet).
    pub fn used_range(&self) -> Option<Range> {
        if self.nrows() == 0 || self.ncols() == 0 {
            None
        } else {
            Some(Range::new(
                CellAddr::new(0, 0),
                CellAddr::new(self.nrows() - 1, self.ncols() - 1),
            ))
        }
    }

    /// The cell at `addr`, when inside the materialized extent. Since the
    /// chunked grid (§14), typed slots reconstruct their `Cell` on read —
    /// the result is a [`CellGet`] that derefs to [`Cell`] (formulas
    /// always borrow real storage).
    pub fn cell(&self, addr: CellAddr) -> Option<CellGet<'_>> {
        self.grid.get(addr)
    }

    /// The fill at `addr`: what conditional formatting (or a paste) left
    /// there. A fill is kept beside the cell, not in it, so no content
    /// write — a value, a formula, a clear — changes it.
    pub fn fill(&self, addr: CellAddr) -> Option<Color> {
        self.grid.fill(addr)
    }

    /// The displayed value at `addr` (empty outside the grid). Does not
    /// charge the meter — metered reads go through evaluation contexts and
    /// operations.
    pub fn value(&self, addr: CellAddr) -> Value {
        self.grid.value_at(addr)
    }

    /// The formula-bar text at `addr`.
    pub fn input_text(&self, addr: CellAddr) -> String {
        self.grid.get(addr).map(|c| c.input_text()).unwrap_or_default()
    }

    /// Whether `addr` holds a formula.
    pub fn is_formula(&self, addr: CellAddr) -> bool {
        self.grid.get(addr).is_some_and(|c| c.is_formula())
    }

    /// Number of formula cells.
    pub fn formula_count(&self) -> usize {
        self.deps.len()
    }

    /// The dependency graph (read-only).
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    /// The formula at `addr`: expression, program binding and cached
    /// result behind one grid lookup.
    pub(crate) fn formula_at(&self, addr: CellAddr) -> Option<&Formula> {
        // Formulas always live in general storage, so the borrowed arm is
        // the only one that can hold one (typed slots are plain values).
        match self.grid.get(addr)? {
            CellGet::Borrowed(Cell::Formula(f)) => Some(f),
            _ => None,
        }
    }

    /// The parsed expression of the formula at `addr`.
    pub fn formula_expr(&self, addr: CellAddr) -> Option<&Expr> {
        self.formula_at(addr).map(|f| &f.expr)
    }

    // --- configuration --------------------------------------------------

    /// Sets the lookup strategy used by `VLOOKUP`-family evaluation.
    pub fn set_lookup_strategy(&mut self, lookup: LookupStrategy) {
        self.lookup = lookup;
    }

    /// The current lookup strategy.
    pub fn lookup_strategy(&self) -> LookupStrategy {
        self.lookup
    }

    /// Sets the serial returned by `NOW()` (deterministic clock).
    pub fn set_now_serial(&mut self, serial: f64) {
        self.now_serial = serial;
    }

    // --- grid memory ------------------------------------------------------

    /// Sets (or clears) the grid's resident-byte budget; immediately
    /// spills down to fit.
    pub fn set_grid_budget(&mut self, budget: Option<usize>) {
        self.grid.set_budget(budget);
    }

    /// The grid's resident-byte budget, if any.
    pub fn grid_budget(&self) -> Option<usize> {
        self.grid.budget()
    }

    /// Bytes of typed chunk data currently resident (what the budget
    /// bounds; general-storage chunks are wired and not counted).
    pub fn grid_resident_bytes(&self) -> usize {
        self.grid.resident_spill_bytes()
    }

    /// Cumulative spill/load/fault counters for the grid's buffer pool.
    pub fn grid_spill_stats(&self) -> crate::grid::SpillStats {
        self.grid.spill_stats()
    }

    /// Approximate heap bytes held by the grid (memory regression gates).
    pub fn grid_heap_bytes(&self) -> usize {
        self.grid.approx_heap_bytes()
    }

    /// Checks every grid storage invariant; panics on violation (test and
    /// harness aid).
    pub fn validate_grid(&self) {
        self.grid.validate();
    }

    /// Loads and pins the typed chunks under `ranges` (up to `max_bytes`
    /// in total) so a recalc wave's read set stays resident; paired with
    /// [`Sheet::unpin_grid`]. Returns the bytes pinned.
    pub(crate) fn pin_grid_windows(&mut self, ranges: &[Range], max_bytes: usize) -> usize {
        let mut pinned = 0usize;
        for r in ranges {
            if pinned >= max_bytes {
                break;
            }
            pinned += self.grid.pin_range(*r, max_bytes - pinned);
        }
        pinned
    }

    /// Drops every grid pin.
    pub(crate) fn unpin_grid(&mut self) {
        self.grid.unpin_all();
    }

    // --- column indexes ---------------------------------------------------

    /// Enables automatic column indexing: every recalculation entry point
    /// first registers and builds an index over each formula-free column.
    /// It also prices what the engine's own shortcuts save: a sum window
    /// the delta cache slid charges the cells the slide walked, and a
    /// find or replace charges one `IndexProbe` per distinct literal text
    /// and a `CellRead` per formula cell and per hit (DESIGN.md §13).
    pub fn set_auto_index(&mut self, on: bool) {
        self.indexes.set_auto(on);
    }

    /// Whether automatic column indexing is on.
    pub fn auto_index(&self) -> bool {
        self.indexes.auto()
    }

    /// The column-index store (probe state, for tests and reports).
    pub fn index_store(&self) -> &IndexStore {
        &self.indexes
    }

    /// Registers one column for indexing (built by the next
    /// [`Sheet::ensure_indexes`]); no-op on a column that ever held a
    /// formula.
    #[cfg(test)]
    pub(crate) fn register_index(&mut self, col: u32) {
        self.indexes.register(col);
    }

    /// Builds every registered-but-pending column index; with auto-indexing
    /// on, first registers every materialized column (columns holding
    /// formulas are permanently excluded by the build). Rebuild cost is
    /// charged to the meter as one `IndexProbe` per indexed cell.
    pub fn ensure_indexes(&mut self) {
        if self.auto_index() {
            for col in 0..self.ncols() {
                self.indexes.register(col);
            }
        }
        for col in self.indexes.pending_cols() {
            self.build_index(col);
        }
    }

    /// Builds one pending column index from the grid.
    fn build_index(&mut self, col: u32) {
        let nrows = self.nrows();
        if col >= self.ncols() {
            // Registered beyond the materialized extent: nothing to index
            // yet; stays pending until the column exists.
            return;
        }
        let mut builder = ColumnBuilder::default();
        if nrows > 0 {
            let range = Range::new(CellAddr::new(0, col), CellAddr::new(nrows - 1, col));
            let meter = &self.meter;
            self.visit_range(range, &mut |addr, value, is_formula| {
                builder.add(meter, addr.row, value, is_formula);
            });
        }
        match builder.finish() {
            Ok(ix) => self.indexes.install(col, ix),
            Err(()) => self.indexes.drop_col(col),
        }
    }

    /// Moves index registrations with their columns for a structural
    /// column edit (`None` = the column was deleted); every live index
    /// demotes to pending and rebuilds at the next `ensure_indexes`.
    pub(crate) fn remap_index_cols(&mut self, map: impl Fn(u32) -> Option<u32>) {
        self.indexes.remap_cols(map);
    }

    // --- mutation --------------------------------------------------------

    /// Writes a literal value, unregistering any formula that was there. A
    /// number that is not finite is stored as `#NUM!`, as an arithmetic
    /// result would be ([`Value::num`]).
    pub fn set_value(&mut self, addr: CellAddr, v: impl Into<Value>) {
        self.meter.tick(Primitive::CellWrite);
        self.deps.remove(addr);
        let v = match v.into() {
            Value::Number(n) => Value::num(n),
            v => v,
        };
        if self.indexes.has_built(addr.col) {
            // Maintain the column index incrementally: capture the old
            // value before the write (a built column never holds a
            // formula, so the displayed value is the literal content).
            let old = self.grid.value_at(addr);
            self.indexes.on_write(&self.meter, addr, &old, &v);
        }
        // A typed write; beyond-limit addresses are a programmer error on
        // this infallible path (user input funnels through `set_input`,
        // which pre-validates).
        self.grid.set(addr, Cell::value(v)).expect("set_value: address beyond engine limits");
    }

    /// Installs a parsed formula (uncomputed until a recalculation runs).
    /// An address past the engine limits is [`EngineError::OutOfBounds`],
    /// and the sheet is left as it was.
    pub fn set_formula(&mut self, addr: CellAddr, expr: Expr) -> Result<(), EngineError> {
        check_addr(addr)?;
        self.meter.tick(Primitive::CellWrite);
        self.deps.add(addr, &expr);
        self.grid.set(addr, Cell::formula(expr))?;
        // A formula's displayed value changes during recalc without
        // passing through `set_value`, so its column can never be
        // indexed again (deterministic degradation to the scan path).
        self.indexes.drop_col(addr.col);
        Ok(())
    }

    /// Parses and installs `src` (with or without a leading `=`),
    /// resolving any defined named ranges.
    pub fn set_formula_str(&mut self, addr: CellAddr, src: &str) -> Result<(), EngineError> {
        check_addr(addr)?;
        let body = src.strip_prefix('=').unwrap_or(src);
        let expr = crate::formula::parse_with(body, &self.names)?;
        self.set_formula(addr, expr)
    }

    // --- named ranges ------------------------------------------------------

    /// Defines (or redefines) a named range. Names are case-insensitive,
    /// must start with a letter or `_`, and must not collide with a cell
    /// reference (`Q1` is a cell, not a valid name) — the constraints of
    /// the real systems' name managers.
    pub fn define_name(&mut self, name: &str, range: Range) -> Result<(), EngineError> {
        let valid = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            && CellRef::parse(name).is_err();
        if !valid {
            return Err(EngineError::Invalid(format!("invalid range name {name:?}")));
        }
        self.names.define(name.to_ascii_uppercase(), range);
        Ok(())
    }

    /// Looks up a named range.
    pub fn name_range(&self, name: &str) -> Option<Range> {
        self.names.ranges.get(&name.to_ascii_uppercase()).copied()
    }

    /// Removes a named range; `true` when it existed.
    pub fn remove_name(&mut self, name: &str) -> bool {
        self.names.remove(&name.to_ascii_uppercase())
    }

    /// Defined names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.names.ranges.keys().map(String::as_str).collect();
        out.sort_unstable();
        out
    }

    /// Moves every named range with a structural edit; a name whose whole
    /// range was deleted (`None`) is removed.
    pub(crate) fn remap_names(&mut self, map: impl Fn(Range) -> Option<Range>) {
        self.names.remap(map);
    }

    /// Sets a cell from user input: `=...` becomes a formula, numeric text
    /// a number, `TRUE`/`FALSE` booleans, an error spelling that error,
    /// everything else text (`value::classify`).
    pub fn set_input(&mut self, addr: CellAddr, input: &str) -> Result<(), EngineError> {
        // Parsed addresses can name rows past the engine's hard limits
        // (e.g. `A1073741825`); reject them here with a typed error so the
        // infallible internal setters below can't be reached with one.
        check_addr(addr)?;
        let v = match classify(input) {
            Input::Formula(body) => return self.set_formula_str(addr, body),
            Input::Number(n) => Value::Number(n),
            Input::Bool(b) => Value::Bool(b),
            Input::Error(e) => Value::Error(e),
            Input::Text(s) => Value::text(s),
        };
        self.set_value(addr, v);
        Ok(())
    }

    /// Loads a document's rows of cell texts into this sheet, which must
    /// not hold a cell yet — the body of `io::open` (DESIGN.md §17). The
    /// result is cell for cell what a [`Sheet::set_input`] of every
    /// non-blank text, row by row, leaves behind, meter included (one
    /// `CellParse` per cell, one `CellWrite` per non-blank one); it is
    /// built in one pass instead. Values go straight into the typed chunk
    /// their column is assembling ([`GridStore::bulk_load`]); a
    /// formula is parsed and resolved once per template and arrives bound
    /// ([`OpenTemplates`]). An `Err` — a formula that does not parse, a
    /// document larger than the engine's limits — leaves the sheet partly
    /// loaded and fit only to be dropped.
    pub(crate) fn load_rows(&mut self, rows: &[Vec<String>]) -> Result<(), EngineError> {
        let extent = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        let ncols = rows.iter().map(Vec::len).max().unwrap_or(0);
        self.grid.ensure_size(extent(rows.len()), extent(ncols))?;
        // Nothing to maintain cell by cell: a live index is rebuilt from
        // the loaded grid by the next `ensure_indexes`.
        self.indexes.invalidate_built();
        let mut load = self.grid.bulk_load();
        let mut templates = OpenTemplates::default();
        let mut formula_cols = vec![false; ncols];
        let (mut cells, mut written, mut formulas) = (0u64, 0u64, 0usize);
        for (r, row) in rows.iter().enumerate() {
            load.at_row(r as u32);
            cells += row.len() as u64;
            for (c, text) in row.iter().enumerate() {
                if text.is_empty() {
                    continue;
                }
                written += 1;
                match classify(text) {
                    Input::Number(n) => load.number(c, n),
                    Input::Text(s) => load.text(c, s),
                    Input::Bool(b) => load.cell(c, Cell::value(b)),
                    Input::Error(e) => load.cell(c, Cell::value(e)),
                    Input::Formula(body) => {
                        let at = CellAddr::new(r as u32, c as u32);
                        let formula = templates.formula(body, at, &self.names, &self.programs)?;
                        load.cell(c, Cell::Formula(Box::new(formula)));
                        formula_cols[c] = true;
                        formulas += 1;
                    }
                }
            }
        }
        load.finish();
        self.meter.bump(Primitive::CellParse, cells);
        self.meter.bump(Primitive::CellWrite, written);
        // Register the formulas where they landed, now that their number
        // is known (the walk `rebuild_deps` does): into a reserved graph
        // this measured 3 % off the 7 000-formula open against an `add`
        // per formula inside the pass, and nothing without the `reserve`.
        self.deps.reserve(formulas);
        let deps = &mut self.deps;
        self.grid.for_each_formula(&mut |addr, formula| deps.add(addr, &formula.expr));
        for col in (0..ncols).filter(|&c| formula_cols[c]) {
            self.indexes.drop_col(col as u32);
        }
        Ok(())
    }

    /// Pre-sizes the grid. Sizes beyond the engine's hard limits
    /// (`grid::MAX_ROWS` × `grid::MAX_COLS`) are
    /// [`EngineError::OutOfBounds`], and the sheet is left as it was.
    pub fn ensure_size(&mut self, rows: u32, cols: u32) -> Result<(), EngineError> {
        self.grid.ensure_size(rows, cols)
    }

    /// Stores an evaluated result into a formula cell's cache: recalc's
    /// write path, public while callers outside the engine still store
    /// results directly. A no-op on non-formula cells.
    pub fn store_formula_result(&mut self, addr: CellAddr, v: Value) {
        if let Some(f) = self.grid.formula_mut(addr) {
            f.cached = v;
        }
    }

    /// Edits the cells of `range` where they are stored, one chunk of one
    /// column at a time ([`GridStore::for_each_chunk_mut`]). `f` is handed
    /// each chunk and a hook to report every value cell whose content it
    /// rewrote — address, old value, new value — to: the writes are charged
    /// to the meter and a built index of the column is kept in step, as
    /// [`Sheet::set_value`] would have. `f` must leave formulas alone (no
    /// dependency is maintained here) and its own reads are its to charge.
    pub(crate) fn edit_chunks(
        &mut self,
        range: Range,
        f: &mut dyn FnMut(&mut ChunkMut<'_>, &mut Wrote<'_>),
    ) {
        let Sheet { grid, indexes, meter, .. } = self;
        let mut written = 0u64;
        grid.for_each_chunk_mut(range, &mut |chunk| {
            let indexed = indexes.has_built(chunk.col());
            f(chunk, &mut |addr, old, new| {
                written += 1;
                if indexed {
                    indexes.on_write(meter, addr, old, new);
                }
            });
        });
        meter.bump(Primitive::CellWrite, written);
    }

    /// Mutable dependency-graph access: recalc lends out and takes back
    /// its calc chain, and tests corrupt the graph on purpose.
    pub(crate) fn deps_mut(&mut self) -> &mut DepGraph {
        &mut self.deps
    }

    /// Reorders rows (new row `i` = old row `perm[i]`), keeping filter
    /// state aligned and re-registering moved formulae.
    ///
    /// As in the real systems, a moved formula's *relative* references are
    /// rewritten by the row delta (the formula keeps pointing at its own
    /// row's cells), while *absolute* references stay pinned — exactly the
    /// distinction behind §6's "detecting what needs recomputation":
    /// relative same-row formulae keep their value under any row sort;
    /// absolute ones may not.
    pub fn permute_rows(&mut self, perm: &[u32]) -> Result<(), EngineError> {
        self.grid.permute_rows(perm)?;
        self.permute_hidden(perm);
        // Rewrite the relative references of every moved formula, in one
        // walk over the chunks that can hold one. Its program binding rode
        // the permutation with it and stays right when every window of the
        // program's static read-set resolves at the destination address —
        // then `normalize(adjusted(e, old, new), new) == normalize(e, old)`,
        // the R1C1 key is unchanged, and the compiled program (a pure
        // function of that key) is still the right one; otherwise the
        // binding is cleared.
        self.grid.for_each_formula_mut(&mut |addr, f| {
            let old_row = perm[addr.row as usize];
            if old_row == addr.row {
                return;
            }
            if f.program().is_some_and(|prog| !windows_resolve_at(prog.reads(), addr)) {
                f.unbind();
            }
            f.expr.adjust(CellAddr::new(old_row, addr.col), addr);
        });
        self.rebuild_deps();
        Ok(())
    }

    /// Carries the filter flags along with a row permutation.
    fn permute_hidden(&mut self, perm: &[u32]) {
        if !self.hidden.is_empty() {
            let mut hidden = vec![false; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                hidden[i] = self.hidden.get(p as usize).copied().unwrap_or(false);
            }
            self.hidden = hidden;
        }
    }

    /// What [`Sheet::permute_rows`] did before it moved chunks: the grid
    /// rebuilt cell by cell, then every row of every column probed for a
    /// formula whose expression is replaced by an adjusted copy. Kept as
    /// the reference the differential test compares the scatter against.
    #[cfg(test)]
    pub(crate) fn permute_rows_reference(&mut self, perm: &[u32]) -> Result<(), EngineError> {
        self.grid.permute_rows_reference(perm)?;
        self.permute_hidden(perm);
        for (new_row, &old_row) in perm.iter().enumerate() {
            let new_row = new_row as u32;
            if new_row == old_row {
                continue;
            }
            for col in 0..self.ncols() {
                let addr = CellAddr::new(new_row, col);
                let Some(f) = self.grid.formula_mut(addr) else { continue };
                if f.program().is_some_and(|prog| !windows_resolve_at(prog.reads(), addr)) {
                    f.unbind();
                }
                f.expr = f.expr.adjusted(CellAddr::new(old_row, col), addr);
            }
        }
        self.rebuild_deps();
        Ok(())
    }

    /// Rebuilds the dependency graph by scanning the grid (used after bulk
    /// structural changes). Compiled programs and their bindings are not
    /// its business: neither depends on the graph.
    pub fn rebuild_deps(&mut self) {
        self.deps.clear();
        // Rows were reshuffled wholesale, so column indexes demote to
        // pending: row postings no longer match the grid, and the next
        // `ensure_indexes` rebuilds them.
        self.indexes.invalidate_built();
        let deps = &mut self.deps;
        self.grid.for_each_formula(&mut |addr, formula| deps.add(addr, &formula.expr));
    }

    // --- filter state ----------------------------------------------------

    /// Hides or unhides a row. A row at or past the extent is vacant and
    /// visible: it has no flag, and asking for one is a no-op.
    #[cfg(test)]
    pub(crate) fn set_row_hidden(&mut self, row: u32, hidden: bool) {
        if row >= self.nrows() {
            return;
        }
        if self.hidden.len() <= row as usize {
            self.hidden.resize(self.nrows() as usize, false);
        }
        self.hidden[row as usize] = hidden;
    }

    /// Whether a row is hidden.
    pub fn is_row_hidden(&self, row: u32) -> bool {
        self.hidden.get(row as usize).copied().unwrap_or(false)
    }

    /// Unhides every row.
    pub(crate) fn unhide_all_rows(&mut self) {
        self.hidden.clear();
    }

    /// The per-row hidden flags themselves: structural edits splice them
    /// along with the rows, and a filter writes them straight from its
    /// scan.
    pub(crate) fn hidden_flags_mut(&mut self) -> &mut Vec<bool> {
        &mut self.hidden
    }

    /// Number of visible (unhidden) rows.
    pub fn visible_rows(&self) -> u32 {
        let hidden = self.hidden.iter().filter(|&&h| h).count() as u32;
        self.nrows() - hidden.min(self.nrows())
    }

    // --- evaluation plumbing ----------------------------------------------

    /// An evaluation context for the formula at `current`.
    pub fn eval_ctx(&self, current: CellAddr) -> EvalCtx<'_> {
        self.eval_ctx_with(current, &self.meter)
    }

    /// An evaluation context charging an explicit meter instead of the
    /// sheet's own — what the differential tests use to count one
    /// evaluator's work apart from another's.
    pub fn eval_ctx_with<'a>(&'a self, current: CellAddr, meter: &'a Meter) -> EvalCtx<'a> {
        EvalCtx {
            cells: self,
            meter,
            current,
            lookup: self.lookup,
            now_serial: self.now_serial,
            indexes: Some(&self.indexes),
        }
    }

    /// Evaluates an expression against this sheet without installing it:
    /// compiled at A1 and run on the VM, range kernels and all, with the
    /// values and meter counts of the interpreter. Nothing is memoized —
    /// [`Sheet::eval_str`] keeps the programs of the texts it is asked.
    pub fn eval_expr(&self, expr: &Expr) -> Value {
        self.run_query(&compile(expr, QUERY_AT))
    }

    /// Evaluates a one-shot formula (with or without a leading `=`; named
    /// ranges resolve) as [`Sheet::eval_expr`] does. The program is
    /// memoized by the text: a text asked again is not parsed again, until
    /// a named range is defined, removed or moved (DESIGN.md §20). A text
    /// that does not parse is an `Err`, and is not memoized.
    pub fn eval_str(&self, src: &str) -> Result<Value, EngineError> {
        let body = src.strip_prefix('=').unwrap_or(src);
        let program = self.names.query(body)?;
        Ok(self.run_query(&program))
    }

    fn run_query(&self, program: &Program) -> Value {
        vm::run(program, &self.eval_ctx(QUERY_AT), &self.grid)
    }
}

impl Default for Sheet {
    fn default() -> Self {
        Sheet::new()
    }
}

/// Rejects addresses at or beyond the engine's hard limits before they
/// reach the infallible internal setters.
fn check_addr(addr: CellAddr) -> Result<(), EngineError> {
    if addr.row >= crate::grid::MAX_ROWS || addr.col >= crate::grid::MAX_COLS {
        return Err(EngineError::OutOfBounds { rows: addr.row, cols: addr.col });
    }
    Ok(())
}

/// The binding-retention predicate for a moved formula: every window of a
/// bounded read-set resolves at `at`. Read windows are derived
/// one-per-reference, so resolution of every window corner is exactly the
/// condition under which the adjusted expression keeps its R1C1
/// normalization — and with it its compiled program. `Unbounded` proves
/// nothing and never retains.
pub(crate) fn windows_resolve_at(reads: &crate::analyze::ReadSet, at: CellAddr) -> bool {
    match reads.windows() {
        Some(ws) => {
            ws.iter().all(|w| w.start.resolve(at).is_some() && w.end.resolve(at).is_some())
        }
        None => false,
    }
}

impl CellSource for Sheet {
    fn value_at(&self, addr: CellAddr) -> Value {
        self.value(addr)
    }

    fn is_formula_at(&self, addr: CellAddr) -> bool {
        self.is_formula(addr)
    }

    fn bounds(&self) -> (u32, u32) {
        (self.nrows(), self.ncols())
    }

    fn visit_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value, bool)) {
        // The scan hands over the clipped window's cells in row-major
        // order — one column as typed runs, several a cell at a time — so
        // the address of each is a cursor stepped across the window.
        let Some(window) = self.grid.clip(range) else { return };
        let mut at = window.start;
        let mut visit = |value: &Value, is_formula: bool| {
            f(at, value, is_formula);
            at = if at.col == window.end.col {
                CellAddr::new(at.row + 1, window.start.col)
            } else {
                CellAddr::new(at.row, at.col + 1)
            };
        };
        self.grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
            ScanSlice::Nums(vals) => vals.iter().for_each(|&n| visit(&Value::Number(n), false)),
            ScanSlice::Texts(ids, interner) => {
                ids.iter().for_each(|&id| visit(interner.value(id), false))
            }
            ScanSlice::Cells(cells) => {
                cells.iter().for_each(|c| visit(c.display_value(), c.is_formula()))
            }
            ScanSlice::Empty(n) => (0..n).for_each(|_| visit(&Value::Empty, false)),
        });
    }

    /// The row loop of the trait's body, run over the typed slices a chunk
    /// band at a time: a number run is searched by `f64 ==`, a text run by
    /// one `sheet_eq` per interned id, a vacant run by one test, and under
    /// `stop_early` no band past the hit's is scanned (or faulted in). The
    /// counts are the row loop's.
    fn find_exact(&self, window: Range, needle: &Value, stop_early: bool) -> (Option<u32>, u64, u64) {
        let mut scan = ExactScan {
            needle,
            stop_early,
            memo: IdMemo::for_cells(u64::from(window.rows())),
            hit: None,
            visited: 0,
            formulas: 0,
        };
        let column = Range::column_segment(window.start.col, window.start.row, window.end.row);
        let clipped = self.grid.clip(column);
        if let Some(clipped) = clipped {
            let mut top = clipped.start.row;
            while !scan.done() {
                let bottom = clipped.end.row.min(top / CHUNK_ROWS * CHUNK_ROWS + (CHUNK_ROWS - 1));
                let mut at = top;
                self.grid.scan_range(Range::column_segment(clipped.start.col, top, bottom), &mut |slice| {
                    scan.take(at, &slice);
                    at += slice.len() as u32;
                });
                if bottom == clipped.end.row {
                    break;
                }
                top = bottom + 1;
            }
        }
        // What lies past the extent is one vacant run the scan did not emit.
        let tail = clipped.map_or(column.start.row, |c| c.end.row + 1);
        if tail <= column.end.row {
            scan.take(tail, &ScanSlice::Empty((column.end.row - tail) as usize + 1));
        }
        (scan.hit, scan.visited, scan.formulas)
    }
}

/// The state of [`Sheet::find_exact`]'s scan.
struct ExactScan<'a> {
    needle: &'a Value,
    stop_early: bool,
    /// Whether each interned text met so far equals the needle.
    memo: IdMemo<bool>,
    hit: Option<u32>,
    visited: u64,
    formulas: u64,
}

impl ExactScan<'_> {
    /// Whether the row loop would have stopped reading by now.
    fn done(&self) -> bool {
        self.stop_early && self.hit.is_some()
    }

    /// Takes in `slice`, whose first position is row `at`.
    fn take(&mut self, at: u32, slice: &ScanSlice<'_>) {
        if self.done() {
            return;
        }
        let needle = self.needle;
        let found = if self.hit.is_some() {
            None
        } else {
            match slice {
                ScanSlice::Nums(vals) => match needle {
                    Value::Number(k) => vals.iter().position(|n| n == k),
                    _ => None,
                },
                ScanSlice::Texts(ids, interner) => {
                    let memo = &mut self.memo;
                    ids.iter().position(|&id| memo.get(id, || interner.value(id).sheet_eq(needle)))
                }
                ScanSlice::Cells(cells) => cells.iter().position(|c| c.display_value().sheet_eq(needle)),
                ScanSlice::Empty(_) => Value::Empty.sheet_eq(needle).then_some(0),
            }
        };
        // The row loop reads through its hit under `stop_early`, and every
        // row otherwise.
        let read = match found {
            Some(i) => {
                self.hit = Some(at + i as u32);
                if self.stop_early { i + 1 } else { slice.len() }
            }
            None => slice.len(),
        };
        self.visited += read as u64;
        if let ScanSlice::Cells(cells) = slice {
            self.formulas += cells[..read].iter().filter(|c| c.is_formula()).count() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recalc;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    /// A `Sheet` moves between threads (DESIGN.md §7): everything it
    /// shares through `&self` is `Cell`/`RefCell`/`OnceCell`, and the
    /// dependency graph's calc chain is owned, not reference-counted.
    #[test]
    fn sheet_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Sheet>();
    }

    #[test]
    fn set_and_read_values() {
        let mut s = Sheet::new();
        s.set_value(a("B2"), 42);
        assert_eq!(s.value(a("B2")), Value::Number(42.0));
        assert_eq!(s.value(a("Z9")), Value::Empty);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
    }

    /// A fill lies beside its cell: a value, a formula and a clear written
    /// over a filled cell each leave the fill where it was.
    #[test]
    fn content_writes_never_touch_a_fill() {
        use crate::ops::Op;
        use crate::value::Criterion;
        let mut s = Sheet::new();
        for r in 0..3 {
            s.set_value(CellAddr::new(r, 0), 1);
        }
        let range = Range::parse("A1:A3").unwrap();
        let criterion = Criterion::parse(&Value::Number(1.0));
        s.apply(Op::CondFormat { range, criterion, fill: Color::GREEN }).unwrap();
        s.set_input(a("A1"), "5").unwrap();
        s.set_input(a("A2"), "=A1*2").unwrap();
        s.set_value(a("A3"), Value::Empty);
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("A2")), Value::Number(10.0));
        for at in ["A1", "A2", "A3"] {
            assert_eq!(s.fill(a(at)), Some(Color::GREEN), "{at}");
        }
    }

    #[test]
    fn set_input_detects_types() {
        let mut s = Sheet::new();
        s.set_input(a("A1"), " 3.5 ").unwrap();
        s.set_input(a("A2"), "true").unwrap();
        s.set_input(a("A3"), "storm").unwrap();
        s.set_input(a("A4"), "=1+1").unwrap();
        assert_eq!(s.value(a("A1")), Value::Number(3.5));
        assert_eq!(s.value(a("A2")), Value::Bool(true));
        assert_eq!(s.value(a("A3")), Value::text("storm"));
        assert!(s.is_formula(a("A4")));
    }

    #[test]
    fn set_input_treats_non_finite_spellings_as_text() {
        // `parse::<f64>()` accepts these; cell input must not: a grid cell
        // may never hold NaN or ±inf (the real systems store them as text).
        let mut s = Sheet::new();
        for (i, input) in ["inf", "NaN", "infinity", "-inf", "1e999"].iter().enumerate() {
            let addr = CellAddr::new(i as u32, 0);
            s.set_input(addr, input).unwrap();
            assert_eq!(s.value(addr), Value::text(*input), "{input:?} must stay text");
        }
    }

    /// No cell stores a non-finite number: `set_value` takes one as
    /// `#NUM!`, whether it arrives as an `f64` or as a `Value::Number`.
    #[test]
    fn set_value_stores_a_non_finite_number_as_num() {
        use crate::error::CellError;
        let mut s = Sheet::new();
        s.set_value(a("A1"), f64::INFINITY);
        s.set_value(a("A2"), Value::Number(f64::NAN));
        s.set_value(a("A3"), f64::NEG_INFINITY);
        for cell in ["A1", "A2", "A3"] {
            assert_eq!(s.value(a(cell)), Value::Error(CellError::Num), "{cell}");
        }
        crate::audit::check_finite_grid(&s).unwrap();
    }

    /// The public setters that size the grid return `OutOfBounds` past the
    /// engine limits instead of panicking, and leave the sheet as it was.
    #[test]
    fn setters_past_the_engine_limits_are_out_of_bounds() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        let far = CellAddr::new(u32::MAX, u32::MAX);
        let expr = crate::formula::parse("1+1").unwrap();
        assert!(matches!(s.set_formula(far, expr), Err(EngineError::OutOfBounds { .. })));
        assert!(matches!(s.ensure_size(u32::MAX, 1), Err(EngineError::OutOfBounds { .. })));
        assert!(matches!(s.ensure_size(1, u32::MAX), Err(EngineError::OutOfBounds { .. })));
        assert_eq!((s.nrows(), s.ncols(), s.formula_count()), (1, 1, 0));
        assert_eq!(s.meter().snapshot().get(Primitive::CellWrite), 1);
    }

    /// `visit_range` derives each address from its place in the scan, so
    /// it is held to cell-at-a-time reads in row-major order: windows that
    /// span the first chunk boundary, over every kind of chunk.
    #[test]
    fn visit_range_addresses_a_2d_window_in_row_major_order() {
        let mut s = Sheet::new();
        for r in 0..1100u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r) * 0.5); // A: numbers
            s.set_value(CellAddr::new(r, 1), format!("t{}", r % 9)); // B: text
            if r % 2 == 0 {
                s.set_value(CellAddr::new(r, 2), r % 3 == 0); // C: bools and formulas
            } else {
                s.set_formula_str(CellAddr::new(r, 2), &format!("=A{}+1", r + 1)).unwrap();
            }
        }
        for r in [3, 1020, 1023, 1024, 1030] {
            s.set_value(CellAddr::new(r, 3), i64::from(r)); // D: a few cells; E: none
        }
        s.set_value(CellAddr::new(0, 5), "edge"); // F: the last column
        recalc::recalc_all(&mut s);
        let kinds = |s: &Sheet, col| s.grid_store().chunk_kinds(col);
        assert_eq!(kinds(&s, 0), ["num", "num"]);
        assert_eq!(kinds(&s, 1), ["text", "text"]);
        assert_eq!(kinds(&s, 2), ["cells", "cells"]);
        assert_eq!(kinds(&s, 3), ["num", "num"]);
        assert!(kinds(&s, 4).is_empty());

        for capped in [false, true] {
            if capped {
                s.set_grid_budget(Some(8320));
                assert!(kinds(&s, 0).contains(&"spilled") && kinds(&s, 1).contains(&"spilled"));
            }
            // Across the boundary, one row, one column, and past the
            // extent below and to the right.
            for window in ["A1000:F1050", "B1024:E1025", "C1024:F1024", "D900:D1100", "B1090:H1200"] {
                let window = Range::parse(window).unwrap();
                let mut visited = Vec::new();
                s.visit_range(window, &mut |addr, value, is_formula| {
                    visited.push((addr, value.clone(), is_formula));
                });
                let read: Vec<_> = window
                    .clip_to(s.nrows(), s.ncols())
                    .unwrap()
                    .iter()
                    .map(|addr| {
                        let cell = s.cell(addr).unwrap();
                        (addr, cell.display_value().clone(), cell.is_formula())
                    })
                    .collect();
                assert_eq!(visited, read, "capped={capped} {window:?}");
            }
        }
    }

    #[test]
    fn formula_lifecycle_and_deps() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_formula_str(a("B1"), "=A1+1").unwrap();
        assert_eq!(s.formula_count(), 1);
        // Overwriting with a value unregisters the formula.
        s.set_value(a("B1"), 9);
        assert_eq!(s.formula_count(), 0);
    }

    #[test]
    fn eval_str_one_shot() {
        let mut s = Sheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i, 0), i + 1);
        }
        assert_eq!(s.eval_str("=SUM(A1:A10)").unwrap(), Value::Number(55.0));
        assert_eq!(s.eval_str("COUNTIF(A1:A10,\">5\")").unwrap(), Value::Number(5.0));
    }

    /// A `COUNTIF`/`COUNTIFS` window that reaches past the materialized
    /// extent counts what lies there as empty cells, so growing the sheet
    /// under it changes no count — scanned or answered by an index — and
    /// the part past the extent is not read, so not charged. A three-argument
    /// `SUMIF`/`AVERAGEIF` folds the targets of those empty cells, which lie
    /// inside the extent when the sum window starts higher.
    #[test]
    fn counts_over_a_window_past_the_extent_do_not_depend_on_it() {
        let queries = [
            ("=COUNTIF(A1:A20,\"<>x\")", 20.0),
            ("=COUNTIF(A3:B20,\"<>2\")", 35.0),
            ("=COUNTIF(A30,\"<>x\")", 1.0),
            ("=COUNTIF(A1:A20,C1)", 15.0),
            ("=COUNTIF(A1:A20,\">0\")", 4.0),
            ("=COUNTIFS(A1:A20,\"<>x\")", 20.0),
            ("=SUMIF(A3:A20,\"<>x\",A1:A18)", 10.0),
            ("=AVERAGEIF(A3:A20,\"<>x\",A1:A18)", 2.0),
            ("=SUMIF(A6:A20,\"<>x\",A1:A15)", 10.0),
            ("=SUMIF(A3:B20,\"<>x\",A1:B18)", 10.0),
            ("=SUMIF(C1:C5,\"<>x\",A1:A5)", 10.0),
        ];
        for indexed in [false, true] {
            let mut s = Sheet::new();
            s.set_auto_index(indexed);
            for i in 0..5u32 {
                s.set_value(CellAddr::new(i, 0), i); // A1:A5 = 0..4
            }
            recalc::recalc_all(&mut s);
            let reads = |s: &Sheet, q: &str| {
                let before = s.meter().snapshot().get(Primitive::CellRead);
                s.eval_str(q).unwrap();
                s.meter().snapshot().get(Primitive::CellRead) - before
            };
            if !indexed {
                assert_eq!(reads(&s, queries[0].0), 5, "the five cells inside the extent");
            }
            for grown in [false, true] {
                if grown {
                    s.set_value(a("D40"), 1);
                    recalc::recalc_all(&mut s);
                }
                for (q, want) in queries {
                    let what = format!("indexed={indexed} grown={grown} {q}");
                    assert_eq!(s.eval_str(q).unwrap(), Value::Number(want), "{what}");
                }
            }
        }
    }

    #[test]
    fn permute_rows_moves_formulas_and_rebuilds_deps() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 10);
        s.set_value(a("A2"), 20);
        s.set_formula_str(a("B2"), "=A2*2").unwrap();
        recalc::recalc_all(&mut s);
        s.permute_rows(&[1, 0]).unwrap();
        // The formula moved to B1 with its relative reference rewritten to
        // its new row (real-system sort semantics): =A1*2 over A1=20.
        assert!(s.is_formula(a("B1")));
        assert!(!s.is_formula(a("B2")));
        assert_eq!(s.input_text(a("B1")), "=A1*2");
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("B1")), Value::Number(40.0));
        // Its value is unchanged by the sort — §6's relative-reference
        // invariance.
    }

    #[test]
    fn permute_retains_memo_for_window_stable_templates() {
        let mut s = Sheet::new();
        for r in 0..8u32 {
            s.set_value(CellAddr::new(r, 0), i64::from(r + 1));
            s.set_formula_str(CellAddr::new(r, 1), &format!("=A{}*2", r + 1)).unwrap();
        }
        recalc::recalc_all(&mut s);
        let lookups = s.program_cache().lookups();
        assert_eq!(lookups, 8, "one resolve per formula binds it");
        // Reverse the rows: every formula's same-row window resolves at
        // its destination, so every binding rides the sort (8 of 8).
        let perm: Vec<u32> = (0..8).rev().collect();
        s.permute_rows(&perm).unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups, "same-row templates survive a sort");
        for r in 0..8u32 {
            assert_eq!(
                s.value(CellAddr::new(r, 1)),
                Value::Number(f64::from((8 - r) * 2)),
                "row {r}"
            );
        }
    }

    #[test]
    fn permute_drops_memo_when_windows_break() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 1);
        s.set_value(a("A2"), 2);
        s.set_value(a("A3"), 3);
        // Both reference the *previous* row.
        s.set_formula_str(a("B2"), "=A1*2").unwrap();
        s.set_formula_str(a("B3"), "=A2*2").unwrap();
        recalc::recalc_all(&mut s);
        let lookups = s.program_cache().lookups();
        // Old row 2 (B2) moves to the top: its previous-row window walks
        // off the sheet, so that binding must drop; unmoved B3 survives.
        s.permute_rows(&[1, 0, 2]).unwrap();
        assert!(s.formula_at(a("B1")).unwrap().program().is_none());
        assert!(s.formula_at(a("B3")).unwrap().program().is_some());
        recalc::recalc_all(&mut s);
        assert_eq!(s.program_cache().lookups(), lookups + 1, "1 of 2 bindings was cleared");
        assert_eq!(s.value(a("B1")), Value::Error(crate::error::CellError::Ref));
        // B3 still reads the row above it, which now holds old A1's 1.
        assert_eq!(s.value(a("B3")), Value::Number(2.0));
    }

    #[test]
    fn hidden_rows_tracking() {
        let mut s = Sheet::new();
        for i in 0..5u32 {
            s.set_value(CellAddr::new(i, 0), i);
        }
        s.set_row_hidden(1, true);
        s.set_row_hidden(3, true);
        assert!(s.is_row_hidden(1));
        assert!(!s.is_row_hidden(0));
        assert_eq!(s.visible_rows(), 3);
        s.unhide_all_rows();
        assert_eq!(s.visible_rows(), 5);
    }

    #[test]
    fn a_row_past_the_extent_has_no_hidden_flag() {
        use crate::ops::Op;
        let mut s = Sheet::new();
        for i in 0..5u32 {
            s.set_value(CellAddr::new(i, 0), i);
        }
        s.set_row_hidden(5, true);
        s.set_row_hidden(10, true);
        // Returns at once: no flag vector of four billion entries.
        s.set_row_hidden(u32::MAX, true);
        assert!(!s.is_row_hidden(5) && !s.is_row_hidden(10) && !s.is_row_hidden(u32::MAX));
        assert_eq!(s.visible_rows(), 5);
        let before = s.meter().snapshot().get(Primitive::RowToggle);
        s.apply(Op::ClearFilter).unwrap();
        assert_eq!(s.meter().snapshot().get(Primitive::RowToggle), before);
        // Inside the extent nothing changed.
        s.set_row_hidden(4, true);
        assert!(s.is_row_hidden(4));
        assert_eq!(s.visible_rows(), 4);
        s.apply(Op::ClearFilter).unwrap();
        assert_eq!(s.meter().snapshot().get(Primitive::RowToggle), before + 1);
    }

    #[test]
    fn used_range() {
        let s = Sheet::new();
        assert!(s.used_range().is_none());
        let mut s = Sheet::new();
        s.set_value(a("C3"), 1);
        assert_eq!(s.used_range().unwrap(), Range::parse("A1:C3").unwrap());
    }
}

#[cfg(test)]
mod name_tests {
    use super::*;
    use crate::recalc;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    #[test]
    fn named_ranges_resolve_in_formulas() {
        let mut s = Sheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.define_name("Scores", Range::parse("A1:A10").unwrap()).unwrap();
        s.set_formula_str(a("C1"), "=SUM(Scores)").unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("C1")), Value::Number(55.0));
        // Names are case-insensitive and survive eval_str too.
        assert_eq!(s.eval_str("=COUNTIF(scores,\">5\")").unwrap(), Value::Number(5.0));
        assert_eq!(s.name_range("SCORES"), Some(Range::parse("A1:A10").unwrap()));
    }

    #[test]
    fn single_cell_name_acts_as_scalar() {
        let mut s = Sheet::new();
        s.set_value(a("B2"), 21);
        // Redefinition is allowed and replaces the previous binding.
        s.define_name("Rate", Range::parse("B1").unwrap()).unwrap();
        s.define_name("Rate", Range::parse("B2").unwrap()).unwrap();
        assert_eq!(s.eval_str("=Rate*2").unwrap(), Value::Number(42.0));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut s = Sheet::new();
        let r = Range::parse("A1:A3").unwrap();
        assert!(s.define_name("Q1", r).is_err(), "collides with a cell ref");
        assert!(s.define_name("", r).is_err());
        assert!(s.define_name("1up", r).is_err());
        assert!(s.define_name("has space", r).is_err());
        assert!(s.define_name("_ok.name2", r).is_ok());
    }

    #[test]
    fn unknown_names_still_error() {
        let mut s = Sheet::new();
        assert!(s.set_formula_str(a("A1"), "=SUM(NoSuchName)").is_err());
    }

    #[test]
    fn remove_and_list_names() {
        let mut s = Sheet::new();
        let r = Range::parse("A1:A3").unwrap();
        s.define_name("beta", r).unwrap();
        s.define_name("alpha", r).unwrap();
        assert_eq!(s.names(), ["ALPHA", "BETA"]);
        assert!(s.remove_name("Beta"));
        assert!(!s.remove_name("Beta"));
        assert_eq!(s.names(), ["ALPHA"]);
    }

    fn memoized(s: &Sheet) -> usize {
        s.names.queries.borrow().len()
    }

    /// A query text is parsed once and its program kept until the name
    /// table changes; each of the three changes is seen by the very text
    /// that was memoized before it.
    #[test]
    fn the_query_memo_forgets_what_a_name_change_changes() {
        use crate::ops::Op;
        let mut s = Sheet::new();
        for i in 0..6u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1)); // A1:A6 = 1..6
        }
        let sum = |s: &Sheet| s.eval_str("=SUM(Data)");
        s.define_name("Data", Range::parse("A1:A3").unwrap()).unwrap();
        assert_eq!(sum(&s).unwrap(), Value::Number(6.0));
        let first = s.names.query("SUM(Data)").unwrap();
        assert!(Arc::ptr_eq(&first, &s.names.query("SUM(Data)").unwrap()), "a hit, not a parse");
        assert_eq!(memoized(&s), 1);

        // A redefinition.
        s.define_name("data", Range::parse("A4:A6").unwrap()).unwrap();
        assert_eq!(memoized(&s), 0);
        assert_eq!(sum(&s).unwrap(), Value::Number(15.0));
        // Removing another name changes nothing a query can mean.
        assert!(!s.remove_name("Other"));
        assert_eq!(memoized(&s), 1);

        // Rows inserted above the range move it down with its cells.
        s.apply(Op::InsertRows { at: 0, count: 2 }).unwrap();
        assert_eq!(s.name_range("Data"), Some(Range::parse("A6:A8").unwrap()));
        assert_eq!(sum(&s).unwrap(), Value::Number(15.0));
        // Rows deleted from its top shrink it.
        s.apply(Op::DeleteRows { at: 5, count: 1 }).unwrap();
        assert_eq!(sum(&s).unwrap(), Value::Number(11.0));
        // Deleting all of its rows deletes it.
        s.apply(Op::DeleteRows { at: 5, count: 2 }).unwrap();
        assert_eq!(s.name_range("Data"), None);
        assert!(sum(&s).is_err());

        // And a removal.
        s.define_name("Data", Range::parse("A1:A2").unwrap()).unwrap();
        assert_eq!(sum(&s).unwrap(), Value::Number(0.0));
        assert!(s.remove_name("DATA"));
        assert!(sum(&s).is_err());
        assert_eq!(memoized(&s), 0);
    }

    /// A text that does not parse — bad syntax, an unknown name — is an
    /// `Err` and leaves nothing behind; and one-shot queries never reach
    /// the template cache the formula cells share.
    #[test]
    fn failed_parses_and_the_template_cache_are_left_alone() {
        let mut s = Sheet::new();
        s.set_value(a("A1"), 4);
        for text in ["=SUM(", "=SUM(Later)", "=1+"] {
            assert!(s.eval_str(text).is_err(), "{text}");
        }
        assert_eq!(memoized(&s), 0);
        s.define_name("Later", Range::parse("A1").unwrap()).unwrap();
        assert_eq!(s.eval_str("=SUM(Later)").unwrap(), Value::Number(4.0));

        s.set_formula_str(a("B1"), "=A1*2").unwrap();
        recalc::recalc_all(&mut s);
        let programs = s.program_cache().len();
        for i in 0..50 {
            s.eval_str(&format!("=A1*{i}+COUNTIF(A1:A9,\">0\")")).unwrap();
            s.eval_expr(&crate::formula::parse(&format!("A1-{i}")).unwrap());
        }
        assert_eq!(s.program_cache().len(), programs);
        assert_eq!(memoized(&s), 51);
    }

    #[test]
    fn named_ranges_are_absolute_for_copy_paste() {
        let mut s = Sheet::new();
        for i in 0..5u32 {
            s.set_value(CellAddr::new(i, 0), i64::from(i + 1));
        }
        s.define_name("Data", Range::parse("A1:A5").unwrap()).unwrap();
        s.set_formula_str(a("C1"), "=SUM(Data)").unwrap();
        // Copying the formula keeps the named range pinned.
        s.apply(crate::ops::Op::CopyPaste { src: Range::parse("C1").unwrap(), dst: a("D7") })
            .unwrap();
        recalc::recalc_all(&mut s);
        assert_eq!(s.value(a("D7")), Value::Number(15.0));
    }
}
