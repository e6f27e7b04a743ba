//! The stack VM that executes compiled programs, plus the range-aggregate
//! kernels.
//!
//! The VM runs against the same [`EvalCtx`] as the interpreter, so every
//! cell read charges the meter identically. The kernels are the one place
//! execution diverges *mechanically*: an aggregate over a contiguous range
//! folds the grid's typed slices a run at a time (`GridStore::scan_range`:
//! `&[f64]` runs, interner-id runs, general cells, vacant runs as a count)
//! instead of going through the per-cell `read_range` callback, then
//! charges the meter in bulk with the exact counts the callback path would
//! have produced. Values are bit-identical because each kernel replicates
//! its builtin's semantics (skip/abort rules) *and* the scan's clipping
//! and row-major order — a float sum is one chain of adds in scan order,
//! never reassociated — and `compile/differential.rs` holds every kernel
//! to the interpreter over every kind of chunk (DESIGN.md §19).

use crate::addr::{CellAddr, Range};
use crate::cell::Cell;
use crate::error::CellError;
use crate::eval::{apply_binary, apply_unary, EvalCtx};
use crate::functions::{scalar, Arg};
use crate::grid::{GridStore, IdMemo, ScanSlice, CHUNK_ROWS};
use crate::index::{self, IndexStore};
use crate::meter::Primitive;
use crate::value::{Criterion, Matcher, Value};

use super::lower::{Agg, IfFold, Inst, Kernel, Program};
use crate::formula::r1c1::RangeSpec;

/// Executes `prog` for the cell `ctx.current`; the range kernels fold
/// `grid`'s typed slices.
pub fn run(prog: &Program, ctx: &EvalCtx<'_>, grid: &GridStore) -> Value {
    run_with(prog, ctx, grid, None)
}

/// [`run`] with an optional sliding-window delta cache. When the cache is
/// present, single-range SUM/AVERAGE/COUNT/MIN/MAX kernels over 1-D
/// windows evaluate incrementally from a previously computed window where
/// one forward-overlaps it (the fill-down shape), doing O(slide) physical
/// work. The meter is charged the full-window counts the interpreter
/// would, unless the sheet is auto-indexed: then a slid window charges the
/// cells its slide walked (see [`DeltaCache`]). Values stay bit-identical;
/// see [`DeltaCache`] for the exactness gates and the staleness contract.
pub fn run_with(
    prog: &Program,
    ctx: &EvalCtx<'_>,
    grid: &GridStore,
    delta: Option<&mut DeltaCache>,
) -> Value {
    // One scratch stack per thread: a fill-down recalc runs millions of
    // short programs, and a fresh heap allocation per run is measurable
    // against a ~100-cell kernel scan. `take` leaves an empty Vec behind,
    // so a (currently impossible) reentrant run degrades to allocating.
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<Arg>> =
            std::cell::RefCell::new(Vec::with_capacity(16));
    }
    SCRATCH.with(|scratch| {
        let mut stack = scratch.take();
        stack.clear();
        // The verifier proved the program needs at most `max_stack` slots,
        // so one up-front reserve makes every push below a checked-capacity
        // write, never a mid-run reallocation.
        let need = prog.max_stack() as usize;
        if stack.capacity() < need {
            stack.reserve(need);
        }
        let v = exec(prog, ctx, grid, delta, &mut stack);
        scratch.replace(stack);
        v
    })
}

fn exec(
    prog: &Program,
    ctx: &EvalCtx<'_>,
    grid: &GridStore,
    mut delta: Option<&mut DeltaCache>,
    stack: &mut Vec<Arg>,
) -> Value {
    let mut pc = 0usize;
    while let Some(inst) = prog.code.get(pc) {
        pc += 1;
        match inst {
            Inst::Const(i) => stack.push(Arg::Value(prog.consts[*i as usize].clone())),
            Inst::ReadCell(spec) => {
                let v = match spec.resolve(ctx.current) {
                    Some(a) => ctx.read(a),
                    None => Value::Error(CellError::Ref),
                };
                stack.push(Arg::Value(v));
            }
            Inst::Intersect(spec) => {
                // Bare range in scalar position: the interpreter collapses
                // a single cell (implicit intersection), else `#VALUE!`.
                let v = match resolve_range(spec, ctx) {
                    Ok(r) if r.len() == 1 => ctx.read(r.start),
                    Ok(_) => Value::Error(CellError::Value),
                    Err(e) => Value::Error(e),
                };
                stack.push(Arg::Value(v));
            }
            Inst::CellArg(spec) => stack.push(match spec.resolve(ctx.current) {
                Some(a) => Arg::Range(Range::cell(a)),
                None => Arg::Value(Value::Error(CellError::Ref)),
            }),
            Inst::RangeArg(spec) => stack.push(match resolve_range(spec, ctx) {
                Ok(r) => Arg::Range(r),
                Err(e) => Arg::Value(Value::Error(e)),
            }),
            Inst::Unary(op) => {
                let v = pop_value(stack, ctx);
                stack.push(Arg::Value(apply_unary(*op, v)));
            }
            Inst::Binary(op) => {
                let b = pop_value(stack, ctx);
                let a = pop_value(stack, ctx);
                stack.push(Arg::Value(apply_binary(*op, a, b)));
            }
            Inst::Call { id, argc, kernel } => {
                let base = stack.len().saturating_sub(*argc as usize);
                let args = &stack[base..];
                let v = kernel
                    .and_then(|k| run_kernel(k, prog, grid, ctx, args, delta.as_deref_mut()))
                    .unwrap_or_else(|| (id.row().f)(ctx, args));
                stack.truncate(base);
                stack.push(Arg::Value(v));
            }
            Inst::NameError(argc) => {
                let base = stack.len().saturating_sub(*argc as usize);
                stack.truncate(base);
                stack.push(Arg::Value(Value::Error(CellError::Name)));
            }
            Inst::Jump(t) => pc = *t as usize,
            Inst::IfCond { on_false, on_end } => {
                let c = pop_value(stack, ctx);
                match c.coerce_bool() {
                    Ok(true) => {}
                    Ok(false) => pc = *on_false as usize,
                    Err(e) => {
                        stack.push(Arg::Value(Value::Error(e)));
                        pc = *on_end as usize;
                    }
                }
            }
            Inst::SkipIfNotError(t) => {
                let v = pop_value(stack, ctx);
                if !v.is_error() {
                    stack.push(Arg::Value(v));
                    pc = *t as usize;
                }
            }
        }
    }
    pop_value(stack, ctx)
}

/// Pops a scalar. Scalar positions only ever hold `Arg::Value` by
/// construction; the range arm is defensive (a lowering bug would degrade
/// to the interpreter's implicit-intersection rule, not a panic).
fn pop_value(stack: &mut Vec<Arg>, ctx: &EvalCtx<'_>) -> Value {
    match stack.pop() {
        Some(Arg::Value(v)) => v,
        Some(arg @ Arg::Range(_)) => scalar(ctx, &arg),
        None => Value::Error(CellError::Value),
    }
}

/// Resolves both corners at the evaluating cell. `Range::new` re-normalizes
/// the corners exactly like `RangeRef::range()` does for the interpreter.
fn resolve_range(spec: &RangeSpec, ctx: &EvalCtx<'_>) -> Result<Range, CellError> {
    match (spec.start.resolve(ctx.current), spec.end.resolve(ctx.current)) {
        (Some(a), Some(b)) => Ok(Range::new(a, b)),
        _ => Err(CellError::Ref),
    }
}

// ---------------------------------------------------------------------
// Range-aggregate kernels: every one folds `GridStore::scan_range`'s typed
// slices a run at a time (DESIGN.md §19).
// ---------------------------------------------------------------------

/// Runs the kernel, or `None` when an argument turned out not to have the
/// shape the kernel walks (an off-sheet `#REF!` where the range should be,
/// a sum range that does not line up with the criteria range), in which
/// case the caller falls back to the generic builtin. Every `None` is
/// returned before anything is read, so the builtin charges from zero.
fn run_kernel(
    k: Kernel,
    prog: &Program,
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    delta: Option<&mut DeltaCache>,
) -> Option<Value> {
    let Some(Arg::Range(range)) = args.first() else {
        return None;
    };
    match k {
        Kernel::Plain(agg) => Some(plain_aggregate(agg, grid, ctx, *range, delta)),
        Kernel::If { fold, literal } => {
            criteria_kernel(fold, literal, prog, grid, ctx, *range, args)
        }
    }
}

/// Bulk meter charge for a completed scan: one `CellRead` per visited cell
/// plus one `FormulaRecheck` per visited formula cell — the same totals
/// `EvalCtx::read_range` ticks one cell at a time.
fn charge(ctx: &EvalCtx<'_>, visited: u64, formulas: u64) {
    ctx.meter.bump(Primitive::CellRead, visited);
    ctx.meter.bump(Primitive::FormulaRecheck, formulas);
}

// ---------------------------------------------------------------------
// Plain aggregates: SUM / AVERAGE / COUNT / MIN / MAX of one range, each an
// answer read off a window state built from the slices — and, for a 1-D
// window with a cache at hand, slid from the previous one (the paper's
// Fig 11 shared-computation optimization on the hot path).
// ---------------------------------------------------------------------

/// What a pass over a window hands on of the cells an aggregate folds:
/// runs of numbers, in scan order among themselves, and single errors, in
/// scan order among themselves. Text, booleans and vacant cells are counted
/// by the pass and fold into nothing.
enum Run<'a> {
    Nums(&'a [f64]),
    Error(CellError),
}

/// Numbers gathered from a general chunk before they are handed on as a run.
const GATHER: usize = 64;

/// Walks `range` (clipped to the materialized extent, in the store's own
/// scan order) a typed run at a time. Returns `(visited, formula_cells)`,
/// the meter's charge for the pass.
fn walk<F: FnMut(Run<'_>)>(grid: &GridStore, range: Range, f: &mut F) -> (u64, u64) {
    let mut visited = 0u64;
    let mut formulas = 0u64;
    let mut gathered = [0.0f64; GATHER];
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            f(Run::Nums(vals));
        }
        // An interned value is a text (the vacant marker reads as empty).
        ScanSlice::Texts(ids, _) => visited += ids.len() as u64,
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            let mut n = 0;
            for cell in cells {
                let v = match cell {
                    Cell::Value(v) => v,
                    Cell::Formula(fm) => {
                        formulas += 1;
                        &fm.cached
                    }
                };
                match v {
                    Value::Number(x) => {
                        if n == GATHER {
                            f(Run::Nums(&gathered));
                            n = 0;
                        }
                        gathered[n] = *x;
                        n += 1;
                    }
                    // Ahead of the numbers gathered before it: a window
                    // holding an error has no total to keep in order.
                    Value::Error(e) => f(Run::Error(*e)),
                    _ => {}
                }
            }
            f(Run::Nums(&gathered[..n]));
        }
        ScanSlice::Empty(n) => visited += n as u64,
    });
    (visited, formulas)
}

/// Exact-summation bound: every integer-valued f64 with magnitude at most
/// 2^53 is exactly representable, so while a window's sum of *absolute*
/// values stays at or under this, every partial sum of a left-to-right
/// f64 accumulation is an exactly-representable integer — the maintained
/// i128 total reproduces the scan's float total bit-for-bit.
const MAX_EXACT_SUM: i128 = 1 << 53;

/// Numbers summed into `i64` partials before these are folded into the
/// `i128` sums: 512 magnitudes of at most 2^53 stay under 2^63. Integer
/// adds are associative, so the blocking is invisible — unlike the float
/// fold, which has to stay one left-to-right chain.
const EXACT_BLOCK: usize = 512;

/// `n` as the integer it is, when it qualifies for the exact integer sum:
/// it survives the round trip through `i64` and its magnitude is at most
/// 2^53. (`as i64` saturates and sends NaN to 0, so fractions, NaN,
/// infinities and anything past ±2^63 fail the round trip; the magnitude
/// test catches the integers in between.) While a number that does not
/// qualify is inside a slid window, SUM/AVERAGE answer by rescan.
#[inline]
fn exact_int(n: f64) -> Option<i64> {
    let i = n as i64;
    (i as f64 == n && i.unsigned_abs() <= MAX_EXACT_SUM as u64).then_some(i)
}

/// One block's share of a window's exact sums, in `i64`.
#[derive(Default)]
struct ExactBlock {
    sum: i64,
    sum_abs: i64,
    inexact: u64,
}

impl ExactBlock {
    #[inline]
    fn add(&mut self, n: f64) {
        match exact_int(n) {
            Some(i) => {
                self.sum += i;
                self.sum_abs += i.abs();
            }
            None => self.inexact += 1,
        }
    }
}

/// The interpreter's own fold of a window, kept by the full scan that built
/// a [`WindowState`]: the numbers added left to right from `+0.0`, and the
/// first error in scan order — which, when there is one, is the value of
/// every aggregate but COUNT, so the total is then never looked at.
#[derive(Debug, Clone, Copy)]
struct Fold {
    total: f64,
    first_err: Option<CellError>,
}

/// Running aggregation state over one window. Every field but `fold` is a
/// pure function of (grid contents, `range`), independent of how the window
/// got here — which is what lets adjacent fill-down instances share a state
/// by sliding it forward (evict the departed prefix, fold in the entered
/// suffix) instead of rescanning `O(window)` cells per instance.
#[derive(Debug, Clone)]
struct WindowState {
    /// The clipped window this state currently covers.
    range: Range,
    /// Cells in the window (the meter's `CellRead` charge).
    visited: u64,
    /// Formula cells in the window (the `FormulaRecheck` charge).
    formulas: u64,
    /// `Value::Number` cells.
    nums: u64,
    /// `Value::Error` cells. While nonzero, every kernel but COUNT answers
    /// with the *first* error in scan order, which a multiset summary
    /// cannot name: from the fold, or by rescan.
    errs: u64,
    /// Numeric cells outside the exact-integer envelope (fractional or
    /// magnitude above 2^53); while nonzero, SUM/AVERAGE need the fold.
    unsafe_nums: u64,
    /// Exact sum over the qualifying integer cells.
    sum: i128,
    /// Exact sum of their absolute values (bounds every partial sum).
    sum_abs: i128,
    /// Running extrema over *all* numeric cells, ignoring errors.
    min: f64,
    max: f64,
    /// Cleared when a cell equal to the extremum is evicted (the survivor
    /// may have been elsewhere — or nowhere); a rescan re-seeds.
    min_valid: bool,
    max_valid: bool,
    /// The float fold of the full scan that built this state; gone once the
    /// window slides, since a float sum cannot give back what it added. With
    /// it every kernel answers outright — a same-window hit outside the
    /// exact-integer envelope (`AVERAGE(D:D)` then `SUM(D:D)` over
    /// fractions) needs no second pass.
    fold: Option<Fold>,
}

impl WindowState {
    fn empty(range: Range) -> WindowState {
        WindowState {
            range,
            visited: 0,
            formulas: 0,
            nums: 0,
            errs: 0,
            unsafe_nums: 0,
            sum: 0,
            sum_abs: 0,
            min: 0.0,
            max: 0.0,
            min_valid: true,
            max_valid: true,
            fold: None,
        }
    }

    /// Folds in a run of entering numbers, and returns `total` with the run
    /// added to it left to right — one pass keeps the float fold, the
    /// extrema and the exact sums, and the float adds, a single dependent
    /// chain, set its pace. Entered cells always extend the high edge, i.e.
    /// come *after* every surviving cell in scan order, so keep-first
    /// tie-breaking (a later equal value — including the other zero sign —
    /// never replaces the incumbent) matches the interpreter's fold, as do
    /// its comparisons: `!(best <= n)` lets a NaN in and out exactly as
    /// `extremum` does.
    fn enter_nums(&mut self, vals: &[f64], mut total: f64) -> f64 {
        let Some(&first) = vals.first() else { return total };
        if self.nums == 0 {
            self.min = first;
            self.max = first;
        }
        // An extremum that is not valid is not updated: the rescan that
        // revalidates it starts from nothing.
        let (mut min, mut max) = (self.min, self.max);
        for block in vals.chunks(EXACT_BLOCK) {
            let mut exact = ExactBlock::default();
            for &n in block {
                total += n;
                if !(min <= n) {
                    min = n;
                }
                if !(max >= n) {
                    max = n;
                }
                exact.add(n);
            }
            self.sum += i128::from(exact.sum);
            self.sum_abs += i128::from(exact.sum_abs);
            self.unsafe_nums += exact.inexact;
        }
        if self.min_valid {
            self.min = min;
        }
        if self.max_valid {
            self.max = max;
        }
        self.nums += vals.len() as u64;
        total
    }

    /// Unfolds a run of evicted numbers (the window's low edge slid past
    /// them).
    fn evict_nums(&mut self, vals: &[f64]) {
        for block in vals.chunks(EXACT_BLOCK) {
            let mut exact = ExactBlock::default();
            block.iter().for_each(|&n| exact.add(n));
            self.sum -= i128::from(exact.sum);
            self.sum_abs -= i128::from(exact.sum_abs);
            self.unsafe_nums -= exact.inexact;
        }
        self.nums -= vals.len() as u64;
        // `==` deliberately pairs -0.0 with 0.0: the fold distinguishes
        // their representations by scan position, which eviction destroys —
        // invalidate and let a rescan re-establish which sign the
        // interpreter would return.
        if self.min_valid && vals.contains(&self.min) {
            self.min_valid = false;
        }
        if self.max_valid && vals.contains(&self.max) {
            self.max_valid = false;
        }
        if self.nums == 0 {
            // Nothing numeric left: the next entering number re-seeds both
            // extrema from scratch.
            self.min_valid = true;
            self.max_valid = true;
        }
    }

    /// The aggregate's value from the summary alone — what a slid window
    /// has — or `None` when the summary cannot name it: an error inside
    /// (the value is the first in scan order), a sum outside the
    /// exact-integer envelope, an evicted extremum.
    fn by_summary(&self, agg: Agg) -> Option<Value> {
        // COUNT is a pure multiset count: always answerable, errors and
        // all (the interpreter counts `Number` cells and skips the rest).
        if agg == Agg::Count {
            return Some(Value::Number(self.nums as f64));
        }
        if self.errs > 0 {
            return None;
        }
        // Exactness: see MAX_EXACT_SUM. `0 as f64` is +0.0, and the scan's
        // accumulator (seeded +0.0, round-to-nearest) can never produce
        // -0.0 — signs agree too.
        let exact = self.unsafe_nums == 0 && self.sum_abs <= MAX_EXACT_SUM;
        match agg {
            Agg::Sum if exact => Some(Value::Number(self.sum as f64)),
            Agg::Average if exact => Some(self.average(self.sum as f64)),
            Agg::Min if self.min_valid => Some(self.extremum(self.min)),
            Agg::Max if self.max_valid => Some(self.extremum(self.max)),
            _ => None,
        }
    }

    /// The aggregate's value given the fold of a full scan of this window.
    fn by_fold(&self, agg: Agg, fold: Fold) -> Value {
        match (agg, fold.first_err) {
            (Agg::Count, _) => Value::Number(self.nums as f64),
            (_, Some(e)) => Value::Error(e),
            (Agg::Sum, None) => Value::Number(fold.total),
            (Agg::Average, None) => self.average(fold.total),
            // A full scan evicts nothing: both extrema stand.
            (Agg::Min, None) => self.extremum(self.min),
            (Agg::Max, None) => self.extremum(self.max),
        }
    }

    /// `total` over the window's numbers; same dividend bits as the scan's
    /// total and the same divisor, so the quotient is bit-identical.
    fn average(&self, total: f64) -> Value {
        match self.nums {
            0 => Value::Error(CellError::Div0),
            n => Value::Number(total / n as f64),
        }
    }

    /// `best`, or the `0` MIN/MAX give over no numbers.
    fn extremum(&self, best: f64) -> Value {
        Value::Number(if self.nums == 0 { 0.0 } else { best })
    }
}

/// A window state from one full scan of `range`; it keeps that scan's fold.
fn scan_state(grid: &GridStore, range: Range) -> WindowState {
    let mut state = WindowState::empty(range);
    let mut fold = Fold { total: 0.0, first_err: None };
    let (visited, formulas) = walk(grid, range, &mut |run| match run {
        Run::Nums(vals) => fold.total = state.enter_nums(vals, fold.total),
        Run::Error(e) => {
            state.errs += 1;
            fold.first_err.get_or_insert(e);
        }
    });
    state.visited = visited;
    state.formulas = formulas;
    state.fold = Some(fold);
    state
}

/// The aggregate over `state`'s window: read off the state, or — when a slid
/// state cannot name it — off a full rescan, which also replaces the state.
/// The flag says whether it rescanned.
fn aggregate(agg: Agg, state: &mut WindowState, grid: &GridStore) -> (Value, bool) {
    let mut rescanned = false;
    if state.fold.is_none() {
        if let Some(v) = state.by_summary(agg) {
            return (v, false);
        }
        *state = scan_state(grid, state.range);
        rescanned = true;
    }
    let fold = state.fold.expect("`scan_state` sets the fold");
    (state.by_fold(agg, fold), rescanned)
}

/// One plain aggregate over `range`. A scan or a rescan charges the full
/// window. A window the cache slid charges the full window too — the meter
/// models the naive system — unless the sheet is auto-indexed (the
/// Optimized system's `indexed` policy): then it charges the cells its
/// slide walked, entered plus evicted, which is what §5.3's shared
/// computation saves.
fn plain_aggregate(
    agg: Agg,
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    range: Range,
    delta: Option<&mut DeltaCache>,
) -> Value {
    let mut scanned;
    let (state, walked) = match (delta, grid.clip(range)) {
        // A 1-D window can slide from the one before it on its line.
        (Some(cache), Some(window))
            if window.start.row == window.end.row || window.start.col == window.end.col =>
        {
            cache.window(grid, window)
        }
        _ => {
            scanned = scan_state(grid, range);
            (&mut scanned, None)
        }
    };
    let (value, rescanned) = aggregate(agg, state, grid);
    match walked {
        Some((visited, formulas)) if !rescanned && ctx.indexes.is_some_and(IndexStore::auto) => {
            charge(ctx, visited, formulas)
        }
        _ => charge(ctx, state.visited, state.formulas),
    }
    value
}

/// Caches sliding-window aggregate state across the formula evaluations
/// of one pass.
///
/// Keyed by window *geometry* alone — a [`WindowState`] is a pure function
/// of (grid contents, clipped range) — so any single-range
/// SUM/AVERAGE/COUNT/MIN/MAX whose 1-D window forward-overlaps a cached
/// one advances it in O(slide) instead of rescanning. Every instance of a
/// fill-down `=SUM(window)` column thereby shares one sliding entry per
/// source line, and every whole-column aggregate of one column one scan.
/// Values stay bit-identical to a full scan: the exactness gates
/// (integer-exact sums, extremum-eviction invalidation, error-order) force
/// a rescan whenever the summary could not reproduce the fold. Every
/// answer charges full-window counts, as the interpreter does, except on
/// an auto-indexed sheet, where a slid window charges only the cells its
/// slide walked.
///
/// ## Staleness contract
///
/// A cached state is valid only while the cells under its window are
/// unchanged — the cache must not outlive writes to those cells. The
/// recalc executor keeps one cache per topological level (a result stored
/// within a level can never sit inside another same-level formula's
/// static read window: the dependency edge would have stratified them
/// into different levels), and [`EvalSession`](crate::recalc::EvalSession)
/// documents the same contract for manual drivers.
#[derive(Debug, Default)]
pub struct DeltaCache {
    states: Vec<WindowState>,
}

/// States kept per cache: a pass usually slides a handful of distinct
/// aggregate lines; the oldest entry falls off when a ninth appears.
const DELTA_CAP: usize = 8;

impl DeltaCache {
    /// An empty cache.
    pub fn new() -> DeltaCache {
        DeltaCache::default()
    }

    /// Cached window states (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of the clipped 1-D window `range`: the one cached for its
    /// line, slid forward when the windows overlap, else built by a full
    /// scan. A slid state comes with the `(cells, formula cells)` its slide
    /// walked.
    fn window(
        &mut self,
        grid: &GridStore,
        range: Range,
    ) -> (&mut WindowState, Option<(u64, u64)>) {
        let (vert, line, lo, hi) = window_axis(range);
        let found = self.states.iter().position(|s| {
            let (sv, sl, _, _) = window_axis(s.range);
            sv == vert && sl == line
        });
        let (idx, walked) = match found {
            Some(i) => {
                let state = &mut self.states[i];
                let (_, _, slo, shi) = window_axis(state.range);
                if lo >= slo && hi >= shi && u64::from(lo) <= u64::from(shi) + 1 {
                    (i, Some(advance(state, grid, range)))
                } else {
                    // Same line, incompatible window (a restart or a
                    // backward jump): rebuild this entry in place.
                    *state = scan_state(grid, range);
                    (i, None)
                }
            }
            None => {
                if self.states.len() == DELTA_CAP {
                    self.states.remove(0);
                }
                self.states.push(scan_state(grid, range));
                (self.states.len() - 1, None)
            }
        };
        (&mut self.states[idx], walked)
    }
}

/// Decomposes a clipped 1-D range into (vertical?, fixed line, lo, hi).
/// Single cells count as vertical.
fn window_axis(range: Range) -> (bool, u32, u32, u32) {
    if range.start.col == range.end.col {
        (true, range.start.col, range.start.row, range.end.row)
    } else {
        (false, range.start.row, range.start.col, range.end.col)
    }
}

/// Slides `state` forward along its line to the window `to`, which starts
/// and ends no earlier, by walking only the evicted prefix and the entered
/// suffix. These sub-walks never touch the meter; they return the
/// `(cells, formula cells)` they walked, and the caller decides what to
/// charge.
fn advance(state: &mut WindowState, grid: &GridStore, to: Range) -> (u64, u64) {
    let (vert, line, slo, shi) = window_axis(state.range);
    let (_, _, lo, hi) = window_axis(to);
    let seg = |a: u32, b: u32| {
        if vert {
            Range { start: CellAddr::new(a, line), end: CellAddr::new(b, line) }
        } else {
            Range { start: CellAddr::new(line, a), end: CellAddr::new(line, b) }
        }
    };
    let mut walked = (0, 0);
    if lo > slo {
        let (v, f) = walk(grid, seg(slo, lo - 1), &mut |run| match run {
            Run::Nums(vals) => state.evict_nums(vals),
            Run::Error(_) => state.errs -= 1,
        });
        state.visited -= v;
        state.formulas -= f;
        state.fold = None;
        walked = (v, f);
    }
    if hi > shi {
        let (v, f) = walk(grid, seg(shi + 1, hi), &mut |run| match run {
            Run::Nums(vals) => {
                state.enter_nums(vals, 0.0);
            }
            Run::Error(_) => state.errs += 1,
        });
        state.visited += v;
        state.formulas += f;
        state.fold = None;
        walked = (walked.0 + v, walked.1 + f);
    }
    state.range = to;
    walked
}

// ---------------------------------------------------------------------
// Criteria kernels: COUNTIF / SUMIF / AVERAGEIF.
// ---------------------------------------------------------------------

/// `COUNTIF(range, c)`, `SUMIF`/`AVERAGEIF(range, c, [sum_range])`; `None`
/// leaves the call to the builtin (see [`run_kernel`]).
fn criteria_kernel(
    fold: IfFold,
    literal: Option<u32>,
    prog: &Program,
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    range: Range,
    args: &[Arg],
) -> Option<Value> {
    // A second range is walked in step with the first, which takes two
    // single columns of one height; anything else is the builtin's.
    let sum_range = match args.get(2) {
        None => None,
        Some(Arg::Range(sr))
            if fold != IfFold::Count
                && range.start.col == range.end.col
                && sr.start.col == sr.end.col
                && sr.rows() == range.rows() =>
        {
            Some(*sr)
        }
        Some(_) => return None,
    };
    // Criterion first: resolving its scalar may read a cell, and the
    // interpreter charges that read before the range scan.
    let compiled;
    let matcher = match literal {
        Some(i) => &prog.criteria[i as usize],
        None => {
            compiled = Matcher::new(Criterion::parse(&scalar(ctx, args.get(1)?)));
            &compiled
        }
    };
    let (total, count) = match fold {
        IfFold::Count => {
            let n = index::countif_probe(ctx, range, matcher.criterion())
                .unwrap_or_else(|| count_matches(grid, ctx, range, matcher) as f64);
            return Some(Value::Number(n));
        }
        IfFold::Sum | IfFold::Average => {
            index::sumif_probe(ctx, range, sum_range, matcher.criterion()).unwrap_or_else(|| {
                match sum_range {
                    None => fold_matches(grid, ctx, range, matcher),
                    Some(sr) => fold_aligned(grid, ctx, range, sr, matcher),
                }
            })
        }
    };
    Some(match fold {
        IfFold::Average if count == 0 => Value::Error(CellError::Div0),
        IfFold::Average => Value::Number(total / count as f64),
        _ => Value::Number(total),
    })
}

/// How many cells of `range` match. A text chunk is decided once per
/// distinct string; a vacant run all at once, and so is the part of the
/// range past the materialized extent, which is not charged.
fn count_matches(grid: &GridStore, ctx: &EvalCtx<'_>, range: Range, m: &Matcher) -> u64 {
    // A fill-down `COUNTIF(C2,"STORM")` is a one-cell range seven thousand
    // times a pass: one grid read, charged as a scan of the range would be
    // (nothing outside the materialized extent), not a scan set up for one
    // cell.
    if range.start == range.end {
        let Some(cell) = grid.get(range.start) else { return u64::from(m.matches_empty()) };
        charge(ctx, 1, u64::from(cell.is_formula()));
        return u64::from(m.matches(cell.display_value()));
    }
    let (mut visited, mut formulas, mut count) = (0u64, 0u64, 0u64);
    let mut memo = IdMemo::for_cells(range.len());
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            count += vals.iter().filter(|&&n| m.matches_num(n)).count() as u64;
        }
        ScanSlice::Texts(ids, interner) => {
            visited += ids.len() as u64;
            for &id in ids {
                count += u64::from(memo.get(id, || m.matches(interner.value(id))));
            }
        }
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            for cell in cells {
                formulas += u64::from(cell.is_formula());
                count += u64::from(m.matches(cell.display_value()));
            }
        }
        ScanSlice::Empty(n) => {
            visited += n as u64;
            if m.matches_empty() {
                count += n as u64;
            }
        }
    });
    charge(ctx, visited, formulas);
    if m.matches_empty() {
        count += range.len() - visited;
    }
    count
}

/// `(sum, count)` of the numbers of `range` that match, added in scan order
/// — the two-argument `SUMIF`/`AVERAGEIF`, where only a number has anything
/// to add, so text and vacant runs are only counted as visited.
fn fold_matches(grid: &GridStore, ctx: &EvalCtx<'_>, range: Range, m: &Matcher) -> (f64, u64) {
    let (mut total, mut count) = (0.0f64, 0u64);
    let mut add = |n: f64| {
        if m.matches_num(n) {
            total += n;
            count += 1;
        }
    };
    let (mut visited, mut formulas) = (0u64, 0u64);
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            vals.iter().copied().for_each(&mut add);
        }
        ScanSlice::Texts(ids, _) => visited += ids.len() as u64,
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            for cell in cells {
                formulas += u64::from(cell.is_formula());
                if let Value::Number(n) = cell.display_value() {
                    add(*n);
                }
            }
        }
        ScanSlice::Empty(n) => visited += n as u64,
    });
    charge(ctx, visited, formulas);
    (total, count)
}

/// The three-argument `SUMIF`/`AVERAGEIF` over two single columns of one
/// height: `(sum, count)` of the numbers of `sum` on the rows where
/// `criteria` matches. The columns are walked in step, a chunk of the
/// criteria column at a time — its slices become the list of matching rows,
/// then the slices under the same rows of the sum column are folded at those
/// rows only — so a spilled chunk faults once and matches add up in
/// ascending row order, as the interpreter's row-at-a-time point reads do.
/// Charged like them: a read per criteria cell, and one more (with a recheck
/// on a formula) per matching row, whatever its target holds. The criteria
/// rows past the extent are empty cells, unread; when they match, their
/// targets are folded last, as the builtin does.
fn fold_aligned(
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    criteria: Range,
    sum: Range,
    m: &Matcher,
) -> (f64, u64) {
    let (crit_col, sum_col) = (criteria.start.col, sum.start.col);
    let (mut total, mut count) = (0.0f64, 0u64);
    let (mut reads, mut formulas) = (0u64, 0u64);
    let window = grid.clip(criteria);
    if let Some(window) = window {
        let mut memo = IdMemo::for_cells(window.len());
        // Offsets into the band of the rows that match, ascending.
        let mut hits = [0u16; CHUNK_ROWS as usize];
        for chunk in window.start.row / CHUNK_ROWS..=window.end.row / CHUNK_ROWS {
            let top = window.start.row.max(chunk * CHUNK_ROWS);
            let bottom = window.end.row.min(chunk * CHUNK_ROWS + (CHUNK_ROWS - 1));
            let (mut at, mut n_hits) = (0usize, 0usize);
            let mut hit = |offset: usize| {
                hits[n_hits] = offset as u16;
                n_hits += 1;
            };
            grid.scan_range(Range::column_segment(crit_col, top, bottom), &mut |slice| match slice {
                ScanSlice::Nums(vals) => {
                    for (i, &n) in vals.iter().enumerate() {
                        if m.matches_num(n) {
                            hit(at + i);
                        }
                    }
                    at += vals.len();
                }
                ScanSlice::Texts(ids, interner) => {
                    for (i, &id) in ids.iter().enumerate() {
                        if memo.get(id, || m.matches(interner.value(id))) {
                            hit(at + i);
                        }
                    }
                    at += ids.len();
                }
                ScanSlice::Cells(cells) => {
                    for (i, cell) in cells.iter().enumerate() {
                        formulas += u64::from(cell.is_formula());
                        if m.matches(cell.display_value()) {
                            hit(at + i);
                        }
                    }
                    at += cells.len();
                }
                ScanSlice::Empty(n) => {
                    if m.matches_empty() {
                        (at..at + n).for_each(&mut hit);
                    }
                    at += n;
                }
            });
            reads += (at + n_hits) as u64;
            if n_hits > 0 {
                // The band's targets; what lies past the extent is not emitted,
                // and holds no number.
                let first = sum.start.row + (top - criteria.start.row);
                let targets = Range::column_segment(sum_col, first, first + (bottom - top));
                let mut hits = hits[..n_hits].iter().map(|&h| usize::from(h)).peekable();
                let mut at = 0usize;
                grid.scan_range(targets, &mut |slice| {
                    let len = slice.len();
                    while let Some(h) = hits.next_if(|&h| h < at + len) {
                        let n = match &slice {
                            ScanSlice::Nums(vals) => vals[h - at],
                            ScanSlice::Cells(cells) => {
                                let cell = &cells[h - at];
                                formulas += u64::from(cell.is_formula());
                                match cell.display_value() {
                                    Value::Number(n) => *n,
                                    _ => continue,
                                }
                            }
                            ScanSlice::Texts(..) | ScanSlice::Empty(_) => continue,
                        };
                        total += n;
                        count += 1;
                    }
                    at += len;
                });
            }
        }
    }
    let past = window.map_or(criteria.start.row, |w| w.end.row + 1);
    if m.matches_empty() && past <= criteria.end.row {
        let first = sum.start.row + (past - criteria.start.row);
        reads += u64::from(sum.end.row - first + 1);
        grid.scan_range(Range::column_segment(sum_col, first, sum.end.row), &mut |slice| {
            match slice {
                ScanSlice::Nums(vals) => {
                    total = vals.iter().fold(total, |t, &n| t + n);
                    count += vals.len() as u64;
                }
                ScanSlice::Cells(cells) => {
                    for cell in cells {
                        formulas += u64::from(cell.is_formula());
                        if let Value::Number(n) = cell.display_value() {
                            total += n;
                            count += 1;
                        }
                    }
                }
                ScanSlice::Texts(..) | ScanSlice::Empty(_) => {}
            }
        });
    }
    charge(ctx, reads, formulas);
    (total, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
    use crate::compile::compile;
    use crate::eval::{evaluate, LookupStrategy};
    use crate::formula::parse;
    use crate::meter::Meter;
    use crate::recalc::recalc_all;
    use crate::sheet::Sheet;
    use crate::value::Value;

    /// A sheet exercising every value kind the kernels must handle: a
    /// numeric column, text, booleans, errors, empties, and formula cells.
    fn fixture() -> Sheet {
        let mut s = Sheet::with_size(12, 4);
        for r in 0..10u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r) + 0.5);
        }
        s.set_value(CellAddr::new(1, 1), "text");
        s.set_value(CellAddr::new(2, 1), true);
        s.set_value(CellAddr::new(3, 1), 42.0);
        s.set_formula(CellAddr::new(4, 1), parse("1/0").unwrap()).unwrap();
        s.set_formula(CellAddr::new(5, 1), parse("A1+A2").unwrap()).unwrap();
        s.set_value(CellAddr::new(6, 1), 7.0);
        recalc_all(&mut s);
        s.meter().reset();
        s
    }

    /// Evaluates `src` at D1 under both backends on fresh meters and
    /// asserts identical values *and* identical primitive counts.
    fn assert_identical(sheet: &Sheet, src: &str) -> Value {
        let origin = CellAddr::parse("D1").unwrap();
        let expr = parse(src).unwrap();

        let interp_meter = Meter::new();
        let ictx = sheet.eval_ctx_with(origin, &interp_meter);
        let want = evaluate(&expr, &ictx);

        let vm_meter = Meter::new();
        let vctx = sheet.eval_ctx_with(origin, &vm_meter);
        let prog = compile(&expr, origin);
        let got = run(&prog, &vctx, sheet.grid_store());

        assert_eq!(got, want, "{src}: value diverged");
        assert_eq!(
            vm_meter.snapshot(),
            interp_meter.snapshot(),
            "{src}: meter diverged"
        );
        want
    }

    #[test]
    fn kernels_match_interpreter_on_clean_numeric_column() {
        let s = &fixture();
        assert_eq!(assert_identical(s, "SUM(A1:A10)"), Value::Number(50.0));
        assert_identical(s, "AVERAGE(A1:A10)");
        assert_identical(s, "COUNT(A1:A10)");
        assert_identical(s, "MIN(A1:A10)");
        assert_identical(s, "MAX(A1:A10)");
        assert_identical(s, "COUNTIF(A1:A10,\">4\")");
        assert_identical(s, "SUMIF(A1:A10,\">=2.5\")");
    }

    #[test]
    fn kernels_match_on_mixed_types_errors_and_formulas() {
        let s = &fixture();
        // B5 is `1/0` → #DIV/0!: aborts SUM/MIN/MAX but not COUNT*.
        for src in [
            "SUM(B1:B8)",
            "AVERAGE(B1:B8)",
            "COUNT(B1:B8)",
            "MIN(B1:B8)",
            "MAX(B1:B8)",
            "COUNTIF(B1:B8,42)",
            "COUNTIF(B1:B8,\"text\")",
            "SUMIF(B1:B8,\">0\")",
            // 2-D range spanning both columns.
            "SUM(A1:B4)",
            "COUNTIF(A1:B10,\">1\")",
        ] {
            assert_identical(s, src);
        }
    }

    #[test]
    fn kernels_match_on_clipped_and_empty_ranges() {
        let s = &fixture();
        // Extends past the materialized grid → clipped identically.
        assert_identical(s, "SUM(A1:A500)");
        assert_identical(s, "AVERAGE(A11:A500)"); // fully past content: #DIV/0!
        assert_identical(s, "COUNT(C1:C12)"); // materialized but empty
        assert_identical(s, "SUM(Z100:Z200)"); // fully off-grid
        assert_identical(s, "MIN(A11:A12)"); // empty → 0
    }

    #[test]
    fn generic_path_and_control_flow_match() {
        let s = &fixture();
        for src in [
            "A1+A2*2",
            "-A3%",
            "SUM(A1:A3,B7,4)",       // multi-arg: no kernel
            "SUMIF(A1:A4,\">1\",A5:A8)", // two columns walked in step
            "SUMIF(A1:A4,\">1\",A5:B8)", // 2-D sum range: no kernel
            "IF(A1>0,SUM(A1:A10),1/0)",
            "IF(A1>100,1/0,\"ok\")",
            "IF(B5>0,1,2)",          // error condition propagates
            "IFERROR(B5,\"fallback\")",
            "IFERROR(A1,B5)",
            "CONCATENATE(B2,\"-\",A1)",
            "VLOOKUP(2.5,A1:B10,1)",
            "NOSUCHFN(A1,2)",
            "A1:A10+1", // bare range in scalar position → #VALUE!
            "B6:B6*2",  // single-cell range collapses
            "ROW(A5)+COLUMN(C1)",
            "NOW()-TODAY()",
        ] {
            assert_identical(s, src);
        }
    }

    /// Exact `VLOOKUP` and vertical `MATCH` charge their scan in bulk
    /// (`CellSource::find_exact`); under either strategy a hit, a miss, a
    /// formula key column and a window past the extent charge what a read
    /// per row did.
    #[test]
    fn exact_lookups_match_under_both_strategies() {
        let mut s = fixture();
        for strategy in [LookupStrategy::FullScan, LookupStrategy::StopEarly] {
            s.set_lookup_strategy(strategy);
            for src in [
                "VLOOKUP(2.5,A1:B10,2,FALSE)",
                "VLOOKUP(9.5,A1:B12,2,FALSE)",
                "VLOOKUP(99,A1:B12,2,FALSE)",
                "VLOOKUP(42,B1:C40,1,FALSE)",
                "VLOOKUP(\"TEXT\",B1:B12,1,FALSE)",
                "VLOOKUP(A4,A1:A500,1,FALSE)",
                "MATCH(7,B1:B10,0)",
                "MATCH(A1+A2,B1:B8,0)",
                "MATCH(TRUE,B1:B12,0)",
                "MATCH(1/0,B1:B12,0)",
                "MATCH(C1,B1:B12,0)",
                "MATCH(3.5,A1:A500,0)",
                "MATCH(7,A7:C7,0)",
            ] {
                assert_identical(&s, src);
            }
        }
    }

    #[test]
    fn off_sheet_relative_refs_are_ref_errors() {
        let s = &fixture();
        // Compile at D1, but run at A1 so a left-relative ref walks off
        // the sheet: the spec fails to resolve and the VM yields #REF!.
        let origin = CellAddr::parse("D1").unwrap();
        let prog = compile(&parse("A1+1").unwrap(), origin);
        let meter = Meter::new();
        let ctx = s.eval_ctx_with(CellAddr::parse("A1").unwrap(), &meter);
        assert_eq!(
            run(&prog, &ctx, s.grid_store()),
            Value::Error(CellError::Ref)
        );
        // Same for a range corner.
        let prog = compile(&parse("SUM(A1:B2)").unwrap(), origin);
        assert_eq!(
            run(&prog, &ctx, s.grid_store()),
            Value::Error(CellError::Ref)
        );
    }

    /// Evaluates `src` at D1 under the interpreter and under the VM with
    /// the shared delta `cache`, asserting identical values (bit-identical
    /// for numbers — the zero sign matters) and identical meter counts.
    fn assert_delta_identical(sheet: &Sheet, cache: &mut DeltaCache, src: &str) -> Value {
        let origin = CellAddr::parse("D1").unwrap();
        let expr = parse(src).unwrap();

        let interp_meter = Meter::new();
        let ictx = sheet.eval_ctx_with(origin, &interp_meter);
        let want = evaluate(&expr, &ictx);

        let vm_meter = Meter::new();
        let vctx = sheet.eval_ctx_with(origin, &vm_meter);
        let prog = compile(&expr, origin);
        let got = run_with(&prog, &vctx, sheet.grid_store(), Some(cache));

        assert_eq!(got, want, "{src}: value diverged under delta");
        if let (Value::Number(a), Value::Number(b)) = (&got, &want) {
            assert_eq!(a.to_bits(), b.to_bits(), "{src}: bit pattern diverged");
        }
        assert_eq!(
            vm_meter.snapshot(),
            interp_meter.snapshot(),
            "{src}: meter diverged under delta"
        );
        want
    }

    #[test]
    fn delta_slide_matches_full_scan_on_integer_column() {
        let mut s = Sheet::with_size(64, 2);
        for r in 0..60u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r % 7));
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        for func in ["SUM", "AVERAGE", "COUNT", "MIN", "MAX"] {
            for r in 0..60u32 {
                let (lo, hi) = (r.saturating_sub(9) + 1, r + 1);
                assert_delta_identical(&s, &mut cache, &format!("{func}(A{lo}:A{hi})"));
            }
        }
        // Every window slid one shared per-line state.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn delta_slide_matches_along_a_row() {
        let mut s = Sheet::with_size(2, 64);
        for c in 0..60u32 {
            s.set_value(CellAddr::new(0, c), f64::from(c % 11));
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        for c in 9..60u32 {
            let lo = CellAddr::new(0, c - 9).to_a1();
            let hi = CellAddr::new(0, c).to_a1();
            assert_delta_identical(&s, &mut cache, &format!("SUM({lo}:{hi})"));
            assert_delta_identical(&s, &mut cache, &format!("MAX({lo}:{hi})"));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn delta_handles_errors_text_and_empties_in_the_window() {
        let mut s = Sheet::with_size(48, 2);
        for r in 0..40u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r));
        }
        s.set_value(CellAddr::new(10, 0), "text");
        s.set_value(CellAddr::new(11, 0), true);
        s.set_formula(CellAddr::new(20, 0), parse("1/0").unwrap()).unwrap();
        s.set_value(CellAddr::new(21, 0), Value::Empty);
        recalc_all(&mut s);
        s.meter().reset();
        let mut cache = DeltaCache::new();
        // Windows slide across the text cells, over the error (forcing
        // first-error-in-scan-order rescans while it is inside), past
        // it again, and finally off the materialized grid.
        for func in ["SUM", "AVERAGE", "COUNT", "MIN", "MAX"] {
            for r in 0..46u32 {
                let (lo, hi) = (r.saturating_sub(7) + 1, r + 1);
                assert_delta_identical(&s, &mut cache, &format!("{func}(A{lo}:A{hi})"));
            }
        }
    }

    #[test]
    fn delta_rescans_on_evicted_extrema() {
        let mut s = Sheet::with_size(40, 1);
        // Strictly decreasing: every slide evicts the window's MAX;
        // strictly increasing would do the same for MIN, so interleave
        // a sawtooth to exercise both.
        for r in 0..40u32 {
            let v = if r % 2 == 0 { f64::from(100 - r) } else { f64::from(r) };
            s.set_value(CellAddr::new(r, 0), v);
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        for r in 4..40u32 {
            let (lo, hi) = (r - 3, r + 1);
            assert_delta_identical(&s, &mut cache, &format!("MIN(A{lo}:A{hi})"));
            assert_delta_identical(&s, &mut cache, &format!("MAX(A{lo}:A{hi})"));
        }
    }

    #[test]
    fn delta_falls_back_outside_the_exact_integer_envelope() {
        let huge = 9_007_199_254_740_992.0; // 2^53
        let mut s = Sheet::with_size(32, 1);
        for r in 0..30u32 {
            // Fractionals, magnitudes at/above 2^53, and sign flips:
            // sum_abs overflows the exactness bound almost immediately.
            let v = match r % 4 {
                0 => huge,
                1 => -huge * 0.5,
                2 => 0.1 + f64::from(r),
                _ => f64::from(r),
            };
            s.set_value(CellAddr::new(r, 0), v);
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        for func in ["SUM", "AVERAGE", "MIN", "MAX", "COUNT"] {
            for r in 0..30u32 {
                let (lo, hi) = (r.saturating_sub(5) + 1, r + 1);
                assert_delta_identical(&s, &mut cache, &format!("{func}(A{lo}:A{hi})"));
            }
        }
    }

    #[test]
    fn delta_preserves_zero_signs_in_extrema() {
        let mut s = Sheet::with_size(16, 1);
        let vals = [-0.0, 0.0, 5.0, 0.0, -0.0, -1.0, 0.0, 3.0, -0.0, 2.0];
        for (r, v) in vals.iter().enumerate() {
            s.set_value(CellAddr::new(r as u32, 0), *v);
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        for r in 2..10u32 {
            let (lo, hi) = (r - 1, r + 1);
            assert_delta_identical(&s, &mut cache, &format!("MIN(A{lo}:A{hi})"));
            assert_delta_identical(&s, &mut cache, &format!("MAX(A{lo}:A{hi})"));
            assert_delta_identical(&s, &mut cache, &format!("SUM(A{lo}:A{hi})"));
        }
    }

    #[test]
    fn delta_rebuilds_on_backward_jumps_and_skips_2d_windows() {
        let s = &fixture();
        let mut cache = DeltaCache::new();
        // Forward, far jump, backward jump, partial backward overlap:
        // only the first pair slides; the rest rebuild in place.
        for src in [
            "SUM(A1:A5)",
            "SUM(A2:A6)",
            "SUM(A8:A10)",
            "SUM(A1:A3)",
            "SUM(A2:A4)",
            // 2-D and criteria shapes bypass the delta cache entirely.
            "SUM(A1:B4)",
            "COUNTIF(A1:A10,\">4\")",
        ] {
            assert_delta_identical(s, &mut cache, src);
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn delta_cache_evicts_oldest_line_beyond_capacity() {
        let mut s = Sheet::with_size(4, 12);
        for r in 0..4u32 {
            for c in 0..12u32 {
                s.set_value(CellAddr::new(r, c), f64::from(r * 12 + c));
            }
        }
        recalc_all(&mut s);
        let mut cache = DeltaCache::new();
        // Ten distinct vertical lines against a capacity of eight.
        for c in 0..10u32 {
            let lo = CellAddr::new(0, c).to_a1();
            let hi = CellAddr::new(3, c).to_a1();
            assert_delta_identical(&s, &mut cache, &format!("SUM({lo}:{hi})"));
        }
        assert_eq!(cache.len(), 8);
        // The evicted lines still answer correctly when revisited.
        assert_delta_identical(&s, &mut cache, "SUM(A1:A4)");
    }
}
