//! The stack VM that executes compiled programs, plus the vectorized
//! range-aggregate kernels.
//!
//! The VM runs against the same [`EvalCtx`] as the interpreter, so every
//! cell read charges the meter identically. The kernels are the one place
//! execution diverges *mechanically*: an aggregate over a contiguous range
//! walks the grid's row/column slices directly instead of going through the
//! per-cell `read_range` callback, then charges the meter in bulk with the
//! exact counts the callback path would have produced. Values are
//! bit-identical because each kernel replicates its builtin's semantics
//! (skip/abort rules) *and* the layout's clipping and iteration order, so
//! even floating-point accumulation order matches.

use crate::addr::{CellAddr, Range};
use crate::error::CellError;
use crate::eval::{apply_binary, apply_unary, EvalCtx};
use crate::functions::{scalar, Arg};
use crate::grid::GridStore;
use crate::meter::Primitive;
use crate::value::{Criterion, Value};

use super::lower::{Inst, Kernel, Program, BUILTINS};
use crate::formula::r1c1::RangeSpec;

/// Executes `prog` for the cell `ctx.current`. `grid` enables the
/// vectorized kernels; pass `None` when evaluating against a non-grid
/// [`CellSource`](crate::eval::CellSource) and every call takes the generic
/// builtin path (still value- and meter-identical, just not vectorized).
pub fn run(prog: &Program, ctx: &EvalCtx<'_>, grid: Option<&GridStore>) -> Value {
    run_with(prog, ctx, grid, None)
}

/// [`run`] with an optional sliding-window delta cache. When the cache is
/// present, single-range SUM/AVERAGE/COUNT/MIN/MAX kernels over 1-D
/// windows evaluate incrementally from a previously computed window where
/// one forward-overlaps it (the fill-down shape), doing O(slide) physical
/// work while still charging the meter the full-window counts the
/// interpreter would — the meter models the naive system, the cache
/// accelerates wall clock. Values stay bit-identical; see [`DeltaCache`]
/// for the exactness gates and the staleness contract.
pub fn run_with(
    prog: &Program,
    ctx: &EvalCtx<'_>,
    grid: Option<&GridStore>,
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
    grid: Option<&GridStore>,
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
                let v = match (*kernel, grid) {
                    (Some(k), Some(g)) => run_kernel(k, g, ctx, args, delta.as_deref_mut())
                        .unwrap_or_else(|| (BUILTINS[id.0 as usize].1)(ctx, args)),
                    _ => (BUILTINS[id.0 as usize].1)(ctx, args),
                };
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
// Vectorized range-aggregate kernels.
// ---------------------------------------------------------------------

/// Runs the kernel, or `None` when the range argument turned out not to be
/// a range at run time (e.g. an off-sheet `#REF!`), in which case the
/// caller falls back to the generic builtin.
fn run_kernel(
    k: Kernel,
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    args: &[Arg],
    delta: Option<&mut DeltaCache>,
) -> Option<Value> {
    let Some(Arg::Range(range)) = args.first() else {
        return None;
    };
    let range = *range;
    // Plain single-range aggregates over 1-D windows can slide: try the
    // delta cache first. 2-D windows, criteria kernels, and fully-clipped
    // ranges fall through to the scan kernels below.
    if matches!(k, Kernel::Sum | Kernel::Average | Kernel::Count | Kernel::Min | Kernel::Max) {
        if let Some(cache) = delta {
            if let Some(clipped) = clip(grid, range) {
                if clipped.start.row == clipped.end.row || clipped.start.col == clipped.end.col {
                    return Some(delta_aggregate(k, cache, grid, ctx, clipped));
                }
            }
        }
    }
    Some(match k {
        Kernel::Sum => match sum_scan(grid, ctx, range) {
            Ok(total) => Value::Number(total),
            Err(e) => Value::Error(e),
        },
        Kernel::Average => {
            let mut total = 0.0;
            let mut count = 0u64;
            match numeric_scan(grid, ctx, range, |n| {
                total += n;
                count += 1;
            }) {
                Ok(()) if count > 0 => Value::Number(total / count as f64),
                Ok(()) => Value::Error(CellError::Div0),
                Err(e) => Value::Error(e),
            }
        }
        Kernel::Count => {
            let mut n = 0u64;
            let (visited, formulas) = scan(grid, range, &mut |v| {
                if matches!(v, Value::Number(_)) {
                    n += 1;
                }
            });
            charge(ctx, visited, formulas);
            Value::Number(n as f64)
        }
        Kernel::Min => extremum_scan(grid, ctx, range, |best, n| best <= n),
        Kernel::Max => extremum_scan(grid, ctx, range, |best, n| best >= n),
        Kernel::CountIf => {
            // Criterion first: its scalar resolution may read a cell, and
            // the interpreter charges that read before the range scan.
            let criterion = Criterion::parse(&scalar(ctx, &args[1]));
            if let Some(count) = crate::index::countif_probe(ctx, range, &criterion) {
                return Some(Value::Number(count));
            }
            let mut n = 0u64;
            let (visited, formulas) = scan(grid, range, &mut |v| {
                if criterion.matches(v) {
                    n += 1;
                }
            });
            charge(ctx, visited, formulas);
            Value::Number(n as f64)
        }
        Kernel::SumIf => {
            let criterion = Criterion::parse(&scalar(ctx, &args[1]));
            if let Some((total, _)) = crate::index::sumif_probe(ctx, range, None, &criterion) {
                return Some(Value::Number(total));
            }
            let mut total = 0.0;
            let (visited, formulas) = scan(grid, range, &mut |v| {
                if criterion.matches(v) {
                    if let Value::Number(n) = v {
                        total += n;
                    }
                }
            });
            charge(ctx, visited, formulas);
            Value::Number(total)
        }
    })
}

/// The `fold_numbers` contract over one range: number cells feed `f`,
/// text/bool/empty are skipped, the first error aborts accumulation — but
/// the scan (and its metering) still covers the whole range, exactly like
/// the interpreter's `read_range`-based fold.
/// `SUM` gets its own monomorphic scan: the `&[f64]` fold sits directly
/// in the slice match arm with no abstraction between the run and the
/// accumulator, so the hot loop stays at float-add latency.
fn sum_scan(grid: &GridStore, ctx: &EvalCtx<'_>, range: Range) -> Result<f64, CellError> {
    use crate::grid::ScanSlice;
    let mut total = 0.0f64;
    let mut first_err: Option<CellError> = None;
    let mut visited = 0u64;
    let mut formulas = 0u64;
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            if first_err.is_none() {
                for &n in vals {
                    total += n;
                }
            }
        }
        ScanSlice::Texts(ids, interner) => {
            visited += ids.len() as u64;
            if first_err.is_none() {
                for &id in ids {
                    match interner.value(id) {
                        Value::Number(n) => total += n,
                        Value::Error(e) => {
                            first_err = Some(*e);
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            for cell in cells {
                let v = match &cell.content {
                    crate::cell::CellContent::Value(v) => v,
                    crate::cell::CellContent::Formula(fm) => {
                        formulas += 1;
                        &fm.cached
                    }
                };
                if first_err.is_some() {
                    continue;
                }
                match v {
                    Value::Number(n) => total += n,
                    Value::Error(e) => first_err = Some(*e),
                    _ => {}
                }
            }
        }
        ScanSlice::Empty(n) => visited += n as u64,
    });
    charge(ctx, visited, formulas);
    match first_err {
        Some(e) => Err(e),
        None => Ok(total),
    }
}

fn numeric_scan(
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    range: Range,
    mut f: impl FnMut(f64),
) -> Result<(), CellError> {
    use crate::grid::ScanSlice;
    let mut first_err: Option<CellError> = None;
    let mut visited = 0u64;
    let mut formulas = 0u64;
    // Consumes typed runs directly: a numeric chunk is a plain `&[f64]`
    // fold with no per-cell `Value` round-trip or error-flag branch —
    // the aggregate hot loop. Visit counts keep accumulating after an
    // error (the meter charges every visited cell either way).
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            if first_err.is_none() {
                for &n in vals {
                    f(n);
                }
            }
        }
        ScanSlice::Texts(ids, interner) => {
            visited += ids.len() as u64;
            if first_err.is_none() {
                for &id in ids {
                    match interner.value(id) {
                        Value::Number(n) => f(*n),
                        Value::Error(e) => {
                            first_err = Some(*e);
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            for cell in cells {
                let v = match &cell.content {
                    crate::cell::CellContent::Value(v) => v,
                    crate::cell::CellContent::Formula(fm) => {
                        formulas += 1;
                        &fm.cached
                    }
                };
                if first_err.is_some() {
                    continue;
                }
                match v {
                    Value::Number(n) => f(*n),
                    Value::Error(e) => first_err = Some(*e),
                    _ => {}
                }
            }
        }
        ScanSlice::Empty(n) => visited += n as u64,
    });
    charge(ctx, visited, formulas);
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// MIN/MAX over one range, `0` when no numbers (the interpreter's
/// `extremum` with a single range argument).
fn extremum_scan(
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    range: Range,
    better: fn(f64, f64) -> bool,
) -> Value {
    let mut best: Option<f64> = None;
    match numeric_scan(grid, ctx, range, |n| {
        best = Some(match best {
            Some(b) if better(b, n) => b,
            _ => n,
        });
    }) {
        Ok(()) => Value::Number(best.unwrap_or(0.0)),
        Err(e) => Value::Error(e),
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
// Sliding-window delta aggregation (the paper's Fig 11 shared-computation
// optimization on the hot path).
// ---------------------------------------------------------------------

/// Exact-summation bound: every integer-valued f64 with magnitude at most
/// 2^53 is exactly representable, so while a window's sum of *absolute*
/// values stays at or under this, every partial sum of a left-to-right
/// f64 accumulation is an exactly-representable integer — the maintained
/// i128 total reproduces the scan's float total bit-for-bit.
const MAX_EXACT_SUM: i128 = 1 << 53;

/// Whether `n` participates in the exact integer sum. Non-qualifying
/// numbers are tracked by count instead; while any is inside the window,
/// SUM/AVERAGE answer by rescan.
fn exact_int(n: f64) -> bool {
    n.fract() == 0.0 && n.abs() <= MAX_EXACT_SUM as f64
}

/// Running aggregation state over one 1-D window. Every field is a pure
/// function of (grid contents, `range`), independent of how the window got
/// here — which is what lets adjacent fill-down instances share a state by
/// sliding it forward (evict the departed prefix, fold in the entered
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
    /// `Value::Error` cells. While nonzero, every kernel but COUNT must
    /// rescan — the result is the *first* error in scan order, which a
    /// multiset summary cannot name.
    errs: u64,
    /// Numeric cells outside the exact-integer envelope (fractional or
    /// magnitude above 2^53); while nonzero, SUM/AVERAGE rescan.
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
        }
    }

    /// Folds one entering cell. Entered cells always extend the high edge,
    /// i.e. come *after* every surviving cell in scan order, so keep-first
    /// tie-breaking (a later equal value — including the other zero sign —
    /// never replaces the incumbent) matches the interpreter's fold.
    fn enter(&mut self, v: &Value) {
        match v {
            Value::Number(n) => {
                let n = *n;
                if self.nums == 0 {
                    self.min = n;
                    self.max = n;
                } else {
                    if self.min_valid && !(self.min <= n) {
                        self.min = n;
                    }
                    if self.max_valid && !(self.max >= n) {
                        self.max = n;
                    }
                }
                self.nums += 1;
                if exact_int(n) {
                    self.sum += n as i128;
                    self.sum_abs += n.abs() as i128;
                } else {
                    self.unsafe_nums += 1;
                }
            }
            Value::Error(_) => self.errs += 1,
            _ => {}
        }
    }

    /// Unfolds one evicted cell (the window's low edge slid past it).
    fn evict(&mut self, v: &Value) {
        match v {
            Value::Number(n) => {
                let n = *n;
                self.nums -= 1;
                if exact_int(n) {
                    self.sum -= n as i128;
                    self.sum_abs -= n.abs() as i128;
                } else {
                    self.unsafe_nums -= 1;
                }
                // `==` deliberately pairs -0.0 with 0.0: the fold
                // distinguishes their representations by scan position,
                // which eviction destroys — invalidate and let a rescan
                // re-establish which sign the interpreter would return.
                if self.min_valid && n == self.min {
                    self.min_valid = false;
                }
                if self.max_valid && n == self.max {
                    self.max_valid = false;
                }
                if self.nums == 0 {
                    // Nothing numeric left: the next entering number
                    // re-seeds both extrema from scratch.
                    self.min_valid = true;
                    self.max_valid = true;
                }
            }
            Value::Error(_) => self.errs -= 1,
            _ => {}
        }
    }
}

/// Caches sliding-window aggregate state across the formula evaluations
/// of one pass.
///
/// Keyed by window *geometry* alone — a [`WindowState`] is a pure function
/// of (grid contents, clipped range) — so any single-range
/// SUM/AVERAGE/COUNT/MIN/MAX whose 1-D window forward-overlaps a cached
/// one advances it in O(slide) instead of rescanning. Every instance of a
/// fill-down `=SUM(window)` column thereby shares one sliding entry per
/// source line. Values and meter counts stay bit-identical to a full
/// scan: the exactness gates (integer-exact sums, extremum-eviction
/// invalidation, error-order) force a rescan whenever the summary could
/// not reproduce the fold, and every answer charges full-window counts.
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

/// Evaluates one plain aggregate over a clipped 1-D `range` through the
/// delta cache: find (or build) the state for this window's line, slide it
/// forward when the windows overlap, and answer from the state when the
/// per-kernel exactness gate holds — otherwise fall back to a full rescan
/// that also re-seeds the state. Either way the meter is charged the
/// full-window counts the naive per-cell scan would have produced.
fn delta_aggregate(
    k: Kernel,
    cache: &mut DeltaCache,
    grid: &GridStore,
    ctx: &EvalCtx<'_>,
    range: Range,
) -> Value {
    let (vert, line, lo, hi) = window_axis(range);
    let found = cache
        .states
        .iter()
        .position(|s| {
            let (sv, sl, _, _) = window_axis(s.range);
            sv == vert && sl == line
        });
    let idx = match found {
        Some(i) => {
            let (_, _, slo, shi) = window_axis(cache.states[i].range);
            if lo >= slo && hi >= shi && u64::from(lo) <= u64::from(shi) + 1 {
                advance(&mut cache.states[i], grid, vert, line, slo, shi, lo, hi);
                cache.states[i].range = range;
            } else {
                // Same line, incompatible window (a restart or a backward
                // jump): rebuild this entry in place.
                cache.states[i] = scan_state(grid, range);
            }
            i
        }
        None => {
            if cache.states.len() == DELTA_CAP {
                cache.states.remove(0);
            }
            cache.states.push(scan_state(grid, range));
            cache.states.len() - 1
        }
    };
    let state = &mut cache.states[idx];
    charge(ctx, state.visited, state.formulas);
    match k {
        // COUNT is a pure multiset count: always answerable, errors and
        // all (the interpreter counts `Number` cells and skips the rest).
        Kernel::Count => Value::Number(state.nums as f64),
        Kernel::Sum => {
            if state.errs == 0 && state.unsafe_nums == 0 && state.sum_abs <= MAX_EXACT_SUM {
                // Exactness: see MAX_EXACT_SUM. `0 as f64` is +0.0, and
                // the scan's accumulator (seeded +0.0, round-to-nearest)
                // can never produce -0.0 — signs agree too.
                Value::Number(state.sum as f64)
            } else {
                rescan(state, grid, k)
            }
        }
        Kernel::Average => {
            if state.errs == 0 && state.unsafe_nums == 0 && state.sum_abs <= MAX_EXACT_SUM {
                if state.nums == 0 {
                    Value::Error(CellError::Div0)
                } else {
                    // Same dividend bits as the scan's total (see SUM) and
                    // the same divisor — the quotient is bit-identical.
                    Value::Number(state.sum as f64 / state.nums as f64)
                }
            } else {
                rescan(state, grid, k)
            }
        }
        Kernel::Min => {
            if state.errs == 0 && state.nums == 0 {
                Value::Number(0.0)
            } else if state.errs == 0 && state.min_valid {
                Value::Number(state.min)
            } else {
                rescan(state, grid, k)
            }
        }
        Kernel::Max => {
            if state.errs == 0 && state.nums == 0 {
                Value::Number(0.0)
            } else if state.errs == 0 && state.max_valid {
                Value::Number(state.max)
            } else {
                rescan(state, grid, k)
            }
        }
        Kernel::CountIf | Kernel::SumIf => {
            unreachable!("criteria kernels never take the delta path")
        }
    }
}

/// Slides `state` (covering `[slo, shi]` on its line) forward to
/// `[lo, hi]` by scanning only the evicted prefix and the entered suffix.
/// These sub-scans never touch the meter — the caller charges the full new
/// window, exactly what a fresh scan would have.
fn advance(
    state: &mut WindowState,
    grid: &GridStore,
    vert: bool,
    line: u32,
    slo: u32,
    shi: u32,
    lo: u32,
    hi: u32,
) {
    let seg = |a: u32, b: u32| {
        if vert {
            Range { start: CellAddr::new(a, line), end: CellAddr::new(b, line) }
        } else {
            Range { start: CellAddr::new(line, a), end: CellAddr::new(line, b) }
        }
    };
    if lo > slo {
        let (v, f) = scan(grid, seg(slo, lo - 1), &mut |val| state.evict(val));
        state.visited -= v;
        state.formulas -= f;
    }
    if hi > shi {
        let (v, f) = scan(grid, seg(shi + 1, hi), &mut |val| state.enter(val));
        state.visited += v;
        state.formulas += f;
    }
}

/// A fresh window state from one full scan of `range`.
fn scan_state(grid: &GridStore, range: Range) -> WindowState {
    let mut state = WindowState::empty(range);
    let (v, f) = scan(grid, range, &mut |val| state.enter(val));
    state.visited = v;
    state.formulas = f;
    state
}

/// Full-window fallback: recomputes the interpreter's fold (the first
/// error in scan order aborts accumulation) and rebuilds the state —
/// re-seeding the extrema — in the same pass. Never charges the meter;
/// the caller already charged the full window.
fn rescan(state: &mut WindowState, grid: &GridStore, k: Kernel) -> Value {
    let range = state.range;
    *state = WindowState::empty(range);
    let mut first_err: Option<CellError> = None;
    let mut total = 0.0f64;
    let mut count = 0u64;
    let mut best: Option<f64> = None;
    let better: fn(f64, f64) -> bool = match k {
        Kernel::Min => |b, n| b <= n,
        _ => |b, n| b >= n,
    };
    let (v, f) = scan(grid, range, &mut |val| {
        state.enter(val);
        if first_err.is_some() {
            return;
        }
        match val {
            Value::Number(n) => {
                total += n;
                count += 1;
                best = Some(match best {
                    Some(b) if better(b, *n) => b,
                    _ => *n,
                });
            }
            Value::Error(e) => first_err = Some(*e),
            _ => {}
        }
    });
    state.visited = v;
    state.formulas = f;
    if let Some(e) = first_err {
        return Value::Error(e);
    }
    match k {
        Kernel::Sum => Value::Number(total),
        Kernel::Average => {
            if count > 0 {
                Value::Number(total / count as f64)
            } else {
                Value::Error(CellError::Div0)
            }
        }
        Kernel::Min | Kernel::Max => Value::Number(best.unwrap_or(0.0)),
        Kernel::Count | Kernel::CountIf | Kernel::SumIf => {
            unreachable!("COUNT answers from the state; criteria kernels never delta")
        }
    }
}

/// Walks `range` clipped to the materialized extent in the store's own
/// iteration order (row-major / column-major), feeding each cell's
/// displayed value to `f`. Returns `(visited, formula_cells)` for the
/// meter. Dispatches to the store's monomorphized `scan_range` — which
/// has a strided fast path for windows that cross the layout (a column
/// window on a row store and vice versa) — so every orientation stays on
/// the kernel path instead of degrading to per-cell reads.
fn scan<F: FnMut(&Value)>(grid: &GridStore, range: Range, f: &mut F) -> (u64, u64) {
    use crate::grid::ScanSlice;
    let mut visited = 0u64;
    let mut formulas = 0u64;
    // The chunked stores hand over typed runs: contiguous `f64` slices
    // for numeric chunks (the aggregate hot loop — no `Cell` tag branch
    // at all), interner-id slices for text chunks, cell slices for
    // general chunks, and batched empty runs for vacant gaps (criteria
    // kernels can match empties, so every position is fed through `f`).
    grid.scan_range(range, &mut |slice: ScanSlice<'_>| match slice {
        ScanSlice::Nums(vals) => {
            visited += vals.len() as u64;
            for n in vals {
                f(&Value::Number(*n));
            }
        }
        ScanSlice::Texts(ids, interner) => {
            visited += ids.len() as u64;
            for &id in ids {
                f(interner.value(id));
            }
        }
        ScanSlice::Cells(cells) => {
            visited += cells.len() as u64;
            for cell in cells {
                match &cell.content {
                    crate::cell::CellContent::Value(v) => f(v),
                    crate::cell::CellContent::Formula(fm) => {
                        formulas += 1;
                        f(&fm.cached);
                    }
                }
            }
        }
        ScanSlice::Empty(n) => {
            visited += n as u64;
            for _ in 0..n {
                f(&Value::Empty);
            }
        }
    });
    (visited, formulas)
}

/// `range` clipped to the grid's materialized extent; `None` when nothing
/// materialized falls inside it. Mirrors the clipping every scan applies.
fn clip(grid: &GridStore, range: Range) -> Option<Range> {
    let (nrows, ncols) = (grid.nrows(), grid.ncols());
    if nrows == 0 || ncols == 0 {
        return None;
    }
    let end = crate::addr::CellAddr::new(range.end.row.min(nrows - 1), range.end.col.min(ncols - 1));
    if range.start.row > end.row || range.start.col > end.col {
        return None;
    }
    Some(Range { start: range.start, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CellAddr;
    use crate::compile::compile;
    use crate::eval::evaluate;
    use crate::formula::parse;
    use crate::meter::Meter;
    use crate::recalc::recalc_all;
    use crate::sheet::{Layout, Sheet};
    use crate::value::Value;

    /// A sheet exercising every value kind the kernels must handle: a
    /// numeric column, text, booleans, errors, empties, and formula cells.
    fn fixture(layout: Layout) -> Sheet {
        let mut s = Sheet::with_layout(layout, 12, 4);
        for r in 0..10u32 {
            s.set_value(CellAddr::new(r, 0), f64::from(r) + 0.5);
        }
        s.set_value(CellAddr::new(1, 1), "text");
        s.set_value(CellAddr::new(2, 1), true);
        s.set_value(CellAddr::new(3, 1), 42.0);
        s.set_formula(CellAddr::new(4, 1), parse("1/0").unwrap());
        s.set_formula(CellAddr::new(5, 1), parse("A1+A2").unwrap());
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
        let got = run(&prog, &vctx, Some(sheet.grid_store()));

        assert_eq!(got, want, "{src}: value diverged");
        assert_eq!(
            vm_meter.snapshot(),
            interp_meter.snapshot(),
            "{src}: meter diverged"
        );
        want
    }

    fn both_layouts(f: impl Fn(&Sheet)) {
        f(&fixture(Layout::RowMajor));
        f(&fixture(Layout::ColumnMajor));
    }

    #[test]
    fn kernels_match_interpreter_on_clean_numeric_column() {
        both_layouts(|s| {
            assert_eq!(assert_identical(s, "SUM(A1:A10)"), Value::Number(50.0));
            assert_identical(s, "AVERAGE(A1:A10)");
            assert_identical(s, "COUNT(A1:A10)");
            assert_identical(s, "MIN(A1:A10)");
            assert_identical(s, "MAX(A1:A10)");
            assert_identical(s, "COUNTIF(A1:A10,\">4\")");
            assert_identical(s, "SUMIF(A1:A10,\">=2.5\")");
        });
    }

    #[test]
    fn kernels_match_on_mixed_types_errors_and_formulas() {
        both_layouts(|s| {
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
        });
    }

    #[test]
    fn kernels_match_on_clipped_and_empty_ranges() {
        both_layouts(|s| {
            // Extends past the materialized grid → clipped identically.
            assert_identical(s, "SUM(A1:A500)");
            assert_identical(s, "AVERAGE(A11:A500)"); // fully past content: #DIV/0!
            assert_identical(s, "COUNT(C1:C12)"); // materialized but empty
            assert_identical(s, "SUM(Z100:Z200)"); // fully off-grid
            assert_identical(s, "MIN(A11:A12)"); // empty → 0
        });
    }

    #[test]
    fn generic_path_and_control_flow_match() {
        both_layouts(|s| {
            for src in [
                "A1+A2*2",
                "-A3%",
                "SUM(A1:A3,B7,4)",       // multi-arg: no kernel
                "SUMIF(A1:A4,\">1\",A5:A8)", // 3-arg: no kernel
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
        });
    }

    #[test]
    fn off_sheet_relative_refs_are_ref_errors() {
        both_layouts(|s| {
            // Compile at D1, but run at A1 so a left-relative ref walks off
            // the sheet: the spec fails to resolve and the VM yields #REF!.
            let origin = CellAddr::parse("D1").unwrap();
            let prog = compile(&parse("A1+1").unwrap(), origin);
            let meter = Meter::new();
            let ctx = s.eval_ctx_with(CellAddr::parse("A1").unwrap(), &meter);
            assert_eq!(
                run(&prog, &ctx, Some(s.grid_store())),
                Value::Error(CellError::Ref)
            );
            // Same for a range corner.
            let prog = compile(&parse("SUM(A1:B2)").unwrap(), origin);
            assert_eq!(
                run(&prog, &ctx, Some(s.grid_store())),
                Value::Error(CellError::Ref)
            );
        });
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
        let got = run_with(&prog, &vctx, Some(sheet.grid_store()), Some(cache));

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
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 64, 2);
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
    }

    #[test]
    fn delta_slide_matches_along_a_row() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 2, 64);
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
    }

    #[test]
    fn delta_handles_errors_text_and_empties_in_the_window() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 48, 2);
            for r in 0..40u32 {
                s.set_value(CellAddr::new(r, 0), f64::from(r));
            }
            s.set_value(CellAddr::new(10, 0), "text");
            s.set_value(CellAddr::new(11, 0), true);
            s.set_formula(CellAddr::new(20, 0), parse("1/0").unwrap());
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
    }

    #[test]
    fn delta_rescans_on_evicted_extrema() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 40, 1);
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
    }

    #[test]
    fn delta_falls_back_outside_the_exact_integer_envelope() {
        let huge = 9_007_199_254_740_992.0; // 2^53
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 32, 1);
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
    }

    #[test]
    fn delta_preserves_zero_signs_in_extrema() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let mut s = Sheet::with_layout(layout, 16, 1);
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
    }

    #[test]
    fn delta_rebuilds_on_backward_jumps_and_skips_2d_windows() {
        both_layouts(|s| {
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
        });
    }

    #[test]
    fn delta_cache_evicts_oldest_line_beyond_capacity() {
        let mut s = Sheet::with_layout(Layout::RowMajor, 4, 12);
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

    #[test]
    fn without_grid_slices_kernels_fall_back_generically() {
        both_layouts(|s| {
            let origin = CellAddr::parse("D1").unwrap();
            let expr = parse("SUM(A1:A10)").unwrap();
            let prog = compile(&expr, origin);
            let m1 = Meter::new();
            let with_grid = run(&prog, &s.eval_ctx_with(origin, &m1), Some(s.grid_store()));
            let m2 = Meter::new();
            let without = run(&prog, &s.eval_ctx_with(origin, &m2), None);
            assert_eq!(with_grid, without);
            assert_eq!(m1.snapshot(), m2.snapshot());
        });
    }
}
