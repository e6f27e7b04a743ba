//! Static analysis over formula ASTs and compiled bytecode (DESIGN.md §11).
//!
//! Three passes:
//!
//! 1. **Bytecode verification** ([`verify`]) — an abstract execution of a
//!    [`Program`]'s stack effects: every operand pop is backed by a push,
//!    constant-pool and builtin-table indices are in bounds, jump targets
//!    land inside the program (or exactly at its end, the valid exit),
//!    control-flow merge points agree on stack depth, and execution
//!    provably terminates with exactly one value on the stack. The proven
//!    maximum stack depth is stored on the program so `compile::vm` can
//!    pre-reserve its scratch stack.
//! 2. **Read-set and volatility** ([`analyze`]) — a syntactic walk of the
//!    AST that collects the *static read-set*, one R1C1-relative window
//!    per reference ([`ReadSet`]), and *volatility* (NOW/TODAY-rooted
//!    templates): facts for pass 3 and its reports, which the engine never
//!    reads.
//! 3. **Dep-graph soundness** ([`check_sheet`]) — proves, per formula
//!    instance, that every statically predicted read window is covered by
//!    the precedents `rebuild_deps` registered. Where `audit::check_deps`
//!    re-derives the registration dynamically, this pass closes the other
//!    half of the loop: the registration covers everything evaluation can
//!    *read*, so dirty propagation can never miss an edit.
//!
//! Of all this the engine reads only [`verify`]'s proven stack depth,
//! which [`compile`](crate::compile::compile) stores on each program.
//! Whether a moved formula's program binding is still the right one is
//! decided by the reference rewriters themselves (`Expr::adjust`,
//! `ops::structure`), and [`check_sheet`] holds every binding to the
//! template map.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::addr::{CellAddr, Range};
use crate::compile::lower::{compile, func_id, Inst, Kernel, Program};
use crate::eval::CellSource;
use crate::formula::ast::Expr;
use crate::formula::r1c1::{self, RangeSpec, RefSpec};
use crate::functions;
use crate::sheet::Sheet;
use crate::value::Value;

/// Maximum operand-stack depth the verifier accepts — the bytecode-side
/// analog of the parser's
/// [`MAX_FORMULA_DEPTH`](crate::formula::parser::MAX_FORMULA_DEPTH): a
/// formula that parses within the depth limit lowers to a program within
/// this bound (nesting adds at most one slot per level; only call *arity*,
/// which is breadth, can exceed it).
pub const MAX_STACK_DEPTH: u32 = 512;

// ---------------------------------------------------------------------
// Pass 1: bytecode verification
// ---------------------------------------------------------------------

/// A structural defect in a compiled program. Everything except
/// [`VerifyError::StackLimit`] indicates a lowerer bug: the bytecode could
/// underflow, read out of bounds, or leave the stack unbalanced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction pops more operands than the stack provably holds.
    StackUnderflow { pc: usize },
    /// A `Const` index exceeds the literal pool.
    ConstOutOfBounds { pc: usize, index: u32 },
    /// A `Call`'s dense function ID exceeds the builtin table.
    FuncOutOfBounds { pc: usize, id: u16 },
    /// A criteria kernel's literal index exceeds the criterion pool.
    CriterionOutOfBounds { pc: usize, index: u32 },
    /// A jump target lies beyond the end of the program.
    JumpOutOfBounds { pc: usize, target: u32 },
    /// Two control-flow paths reach the same pc with different depths.
    DepthMismatch { pc: usize, expected: u32, found: u32 },
    /// An instruction no path can reach (forward-only control flow means
    /// every reachable pc has a recorded depth by the time we visit it).
    UnreachableCode { pc: usize },
    /// Execution exits with a stack depth other than exactly one value.
    BadExitDepth { depth: u32 },
    /// The program is well-formed but its proven maximum stack depth
    /// exceeds [`MAX_STACK_DEPTH`] (e.g. a call with thousands of
    /// arguments). It still *runs* — the VM's stack grows — but strict
    /// verification contexts reject it, mirroring the parser depth limit.
    StackLimit { depth: u32 },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StackUnderflow { pc } => write!(f, "stack underflow at pc {pc}"),
            VerifyError::ConstOutOfBounds { pc, index } => {
                write!(f, "constant index {index} out of bounds at pc {pc}")
            }
            VerifyError::FuncOutOfBounds { pc, id } => {
                write!(f, "function id {id} out of bounds at pc {pc}")
            }
            VerifyError::CriterionOutOfBounds { pc, index } => {
                write!(f, "criterion index {index} out of bounds at pc {pc}")
            }
            VerifyError::JumpOutOfBounds { pc, target } => {
                write!(f, "jump target {target} out of bounds at pc {pc}")
            }
            VerifyError::DepthMismatch { pc, expected, found } => write!(
                f,
                "control-flow merge at pc {pc} disagrees on stack depth \
                 (expected {expected}, found {found})"
            ),
            VerifyError::UnreachableCode { pc } => write!(f, "unreachable instruction at pc {pc}"),
            VerifyError::BadExitDepth { depth } => {
                write!(f, "program exits with stack depth {depth}, expected 1")
            }
            VerifyError::StackLimit { depth } => write!(
                f,
                "proven stack depth {depth} exceeds the limit {MAX_STACK_DEPTH}"
            ),
        }
    }
}

/// Verifies `prog` by abstract execution of its stack effects and returns
/// the proven maximum operand-stack depth.
///
/// The lowerer emits forward jumps only, so a single in-order pass works:
/// by the time a pc is visited, every edge into it (fallthrough or jump)
/// has already recorded its expected depth, and a pc with no recorded
/// depth is dead code. Index `code_len()` is the exit; its recorded depth
/// must be exactly 1.
pub fn verify(prog: &Program) -> Result<u32, VerifyError> {
    let len = prog.code_len();
    // depth_at[pc] = stack depth on entry to pc; depth_at[len] = exit depth.
    let mut depth_at: Vec<Option<u32>> = vec![None; len + 1];
    depth_at[0] = Some(0);
    let mut max = 0u32;

    fn record(
        depth_at: &mut [Option<u32>],
        max: &mut u32,
        pc: usize,
        target: u32,
        depth: u32,
    ) -> Result<(), VerifyError> {
        let slot = depth_at
            .get_mut(target as usize)
            .ok_or(VerifyError::JumpOutOfBounds { pc, target })?;
        match *slot {
            Some(expected) if expected != depth => {
                return Err(VerifyError::DepthMismatch { pc: target as usize, expected, found: depth })
            }
            _ => *slot = Some(depth),
        }
        *max = (*max).max(depth);
        Ok(())
    }

    for pc in 0..len {
        let Some(depth) = depth_at[pc] else {
            return Err(VerifyError::UnreachableCode { pc });
        };
        let need = |n: u32| -> Result<(), VerifyError> {
            if depth < n {
                return Err(VerifyError::StackUnderflow { pc });
            }
            Ok(())
        };
        // `Some(d)` = fall through to pc+1 at depth d; `None` = no
        // fallthrough (unconditional jump).
        let fall = match &prog.code[pc] {
            Inst::Const(i) => {
                if *i as usize >= prog.const_count() {
                    return Err(VerifyError::ConstOutOfBounds { pc, index: *i });
                }
                Some(depth + 1)
            }
            Inst::ReadCell(_) | Inst::Intersect(_) | Inst::CellArg(_) | Inst::RangeArg(_) => {
                Some(depth + 1)
            }
            Inst::Unary(_) => {
                need(1)?;
                Some(depth)
            }
            Inst::Binary(_) => {
                need(2)?;
                Some(depth - 1)
            }
            Inst::Call { id, argc, kernel } => {
                if id.0 as usize >= functions::BUILTINS.len() {
                    return Err(VerifyError::FuncOutOfBounds { pc, id: id.0 });
                }
                if let Some(Kernel::If { literal: Some(index), .. }) = *kernel {
                    if index as usize >= prog.criteria.len() {
                        return Err(VerifyError::CriterionOutOfBounds { pc, index });
                    }
                }
                need(*argc)?;
                Some(depth - argc + 1)
            }
            Inst::NameError(argc) => {
                need(*argc)?;
                Some(depth - argc + 1)
            }
            Inst::Jump(t) => {
                record(&mut depth_at, &mut max, pc, *t, depth)?;
                None
            }
            Inst::IfCond { on_false, on_end } => {
                need(1)?;
                // Else-branch entry: condition popped. Error exit: the
                // condition is replaced by the error value, depth unchanged.
                record(&mut depth_at, &mut max, pc, *on_false, depth - 1)?;
                record(&mut depth_at, &mut max, pc, *on_end, depth)?;
                Some(depth - 1)
            }
            Inst::SkipIfNotError(t) => {
                need(1)?;
                // Non-error: value pushed back, jump past the fallback.
                // Error: value consumed, fall into the fallback.
                record(&mut depth_at, &mut max, pc, *t, depth)?;
                Some(depth - 1)
            }
        };
        if let Some(d) = fall {
            record(&mut depth_at, &mut max, pc, (pc + 1) as u32, d)?;
        }
    }

    match depth_at[len] {
        Some(1) => {}
        Some(depth) => return Err(VerifyError::BadExitDepth { depth }),
        None => return Err(VerifyError::BadExitDepth { depth: 0 }),
    }
    if max > MAX_STACK_DEPTH {
        return Err(VerifyError::StackLimit { depth: max });
    }
    Ok(max)
}

// ---------------------------------------------------------------------
// Pass 2: the read-set and volatility walk
// ---------------------------------------------------------------------

/// The static read-set of a template, as R1C1-relative windows: resolving
/// each window at an instance address yields the concrete ranges that
/// instance may read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadSet {
    /// Evaluation reads only cells inside these windows (resolved at the
    /// evaluating cell). A window that fails to resolve at some address is
    /// never read there (evaluation yields `#REF!` instead).
    Windows(Vec<RangeSpec>),
    /// The template calls a builtin whose reads are computed from argument
    /// *values* at run time (OFFSET; 3-argument SUMIF/AVERAGEIF, whose sum
    /// range is offset-aligned to the criteria range's shape; 3-argument
    /// LOOKUP, whose result range is not shape-checked against the lookup
    /// range) — no syntactic window bounds them.
    Unbounded,
}

impl ReadSet {
    /// Whether the read-set is statically bounded.
    pub fn is_bounded(&self) -> bool {
        matches!(self, ReadSet::Windows(_))
    }
}

impl fmt::Display for ReadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadSet::Unbounded => write!(f, "unbounded"),
            ReadSet::Windows(ws) => {
                write!(f, "[")?;
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// What the walk proves about one template: the facts [`check_sheet`]
/// checks the dependency graph against and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Whether the template calls a volatile builtin (NOW, TODAY)
    /// anywhere in its tree. A fact for reports: the
    /// program is still a pure function of its template (the builtins read
    /// the clock from the evaluation context at run time).
    pub volatile: bool,
    /// The static read-set.
    pub reads: ReadSet,
}

/// Builtins whose reads escape their syntactic argument windows for the
/// given arity (see [`ReadSet::Unbounded`]). Every other builtin either
/// reads only through its `Range`/`Ref` arguments or bounds-checks into
/// them before reading.
fn dynamic_reads(name: &str, argc: usize) -> bool {
    match name {
        "OFFSET" => true,
        "SUMIF" | "AVERAGEIF" => argc == 3,
        "LOOKUP" => argc == 3,
        _ => false,
    }
}

/// Walks `expr` anchored at `origin`. It is a walk of the expression, not
/// of the bytecode: a wrong-arity `IF` lowers no code for its arguments,
/// yet the dependency graph registers every reference in the text, and
/// so the read-set names every one.
pub fn analyze(expr: &Expr, origin: CellAddr) -> Analysis {
    let mut w = Walk { origin, volatile: false, unbounded: false, windows: Vec::new() };
    w.go(expr);
    let reads = if w.unbounded { ReadSet::Unbounded } else { ReadSet::Windows(w.windows) };
    Analysis { volatile: w.volatile, reads }
}

struct Walk {
    origin: CellAddr,
    volatile: bool,
    unbounded: bool,
    windows: Vec<RangeSpec>,
}

impl Walk {
    /// One window per reference, in syntactic order, deduplicated. (A
    /// reference in argument position that is never dereferenced —
    /// `ROW(C7)` — still contributes a window: the read-set is a superset
    /// of actual reads, matching the superset the dep graph registers.)
    fn go(&mut self, e: &Expr) {
        let window = match e {
            Expr::Ref(r) => {
                let spec = RefSpec::from_ref(*r, self.origin);
                RangeSpec { start: spec, end: spec }
            }
            Expr::RangeRef(r) => RangeSpec::from_range(r, self.origin),
            Expr::Unary(_, a) => return self.go(a),
            Expr::Binary(_, a, b) => {
                self.go(a);
                return self.go(b);
            }
            Expr::Call(name, args) => {
                args.iter().for_each(|a| self.go(a));
                self.volatile |= func_id(name).is_some_and(|id| id.row().volatile);
                self.unbounded |= dynamic_reads(name, args.len());
                return;
            }
            Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::Error(_) => return,
        };
        if !self.windows.contains(&window) {
            self.windows.push(window);
        }
    }
}

// ---------------------------------------------------------------------
// Read instrumentation (for the soundness property tests)
// ---------------------------------------------------------------------

/// A [`CellSource`] wrapper that records every cell address evaluation
/// actually reads — the dynamic ground truth the static read-set must
/// over-approximate. Single-threaded by design (tests drive one
/// evaluation at a time).
pub struct RecordingSource<'a> {
    inner: &'a dyn CellSource,
    seen: RefCell<Vec<CellAddr>>,
}

impl<'a> RecordingSource<'a> {
    /// Wraps `inner`, starting with an empty record.
    pub fn new(inner: &'a dyn CellSource) -> Self {
        RecordingSource { inner, seen: RefCell::new(Vec::new()) }
    }

    /// The addresses read so far, in read order (duplicates preserved).
    pub fn reads(&self) -> Vec<CellAddr> {
        self.seen.borrow().clone()
    }
}

impl CellSource for RecordingSource<'_> {
    fn value_at(&self, addr: CellAddr) -> Value {
        self.seen.borrow_mut().push(addr);
        self.inner.value_at(addr)
    }

    fn is_formula_at(&self, addr: CellAddr) -> bool {
        self.inner.is_formula_at(addr)
    }

    fn bounds(&self) -> (u32, u32) {
        self.inner.bounds()
    }

    fn visit_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &Value, bool)) {
        let seen = &self.seen;
        self.inner.visit_range(range, &mut |addr, v, is_formula| {
            seen.borrow_mut().push(addr);
            f(addr, v, is_formula);
        });
    }
}

// ---------------------------------------------------------------------
// Pass 3: dep-graph soundness
// ---------------------------------------------------------------------

/// Per-template facts gathered by [`check_sheet`], for reports
/// (`fuzz --analyze`) and diagnostics.
#[derive(Debug, Clone)]
pub struct TemplateReport {
    /// The R1C1-normalized template string (the program-cache key).
    pub template: String,
    /// The first instance address encountered (row-major scan order).
    pub anchor: CellAddr,
    /// How many formula cells instantiate the template.
    pub instances: usize,
    /// Verifier-proven maximum operand-stack depth.
    pub max_stack: u32,
    /// Whether the template is volatile.
    pub volatile: bool,
    /// The static read-set.
    pub reads: ReadSet,
}

impl fmt::Display for TemplateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} @{} x{}: stack={} {} reads={}",
            self.template,
            self.anchor.to_a1(),
            self.instances,
            self.max_stack,
            if self.volatile { "volatile" } else { "pure" },
            self.reads,
        )
    }
}

/// Statically verifies every formula on the sheet:
///
/// * each template's compiled bytecode passes [`verify`] strictly
///   (including the [`MAX_STACK_DEPTH`] bound);
/// * a formula that has a program bound runs the template map's program
///   for its own `normalize(expr, address)` — the same `Arc`, not a
///   look-alike, and a program missing from the map is no exception — so
///   a binding that outlived a rewrite or a move it should not have is
///   caught here, whatever the values happen to be;
/// * for every instance with a bounded read-set, each window that resolves
///   at the instance address is covered by the precedents the dep graph
///   registered for that instance (a window that does not resolve is never
///   read — evaluation yields `#REF!` there).
///
/// The check leaves the sheet's program cache as it found it: no lookup
/// counted, no template inserted.
///
/// Returns the per-template reports (sorted by template string), or the
/// first violation, naming the template and — for coverage failures — the
/// missing window.
pub fn check_sheet(sheet: &Sheet) -> Result<Vec<TemplateReport>, String> {
    let mut reports: BTreeMap<String, TemplateReport> = BTreeMap::new();
    let Some(used) = sheet.used_range() else { return Ok(Vec::new()) };
    let deps = sheet.deps();
    for addr in used.iter() {
        let Some(formula) = sheet.formula_at(addr) else { continue };
        let expr = &formula.expr;
        let key = r1c1::normalize(expr, addr);
        let analysis = analyze(expr, addr);
        // Read-only: the map is consulted without counting a lookup, and
        // a template it lacks is compiled here, only to be verified.
        let cached = sheet.program_cache().get(&key);
        let stale = formula
            .program()
            .is_some_and(|bound| !cached.as_ref().is_some_and(|prog| Arc::ptr_eq(bound, prog)));
        if stale {
            return Err(format!(
                "template {key:?}: the program bound to the instance at {} is not the \
                 template map's (a stale binding survived an edit)",
                addr.to_a1()
            ));
        }
        if let Some(report) = reports.get_mut(&key) {
            report.instances += 1;
        } else {
            let prog = cached.unwrap_or_else(|| Arc::new(compile(expr, addr)));
            let max_stack = verify(&prog).map_err(|e| {
                format!("template {key:?} at {}: bytecode verification failed: {e}", addr.to_a1())
            })?;
            reports.insert(
                key.clone(),
                TemplateReport {
                    template: key.clone(),
                    anchor: addr,
                    instances: 1,
                    max_stack,
                    volatile: analysis.volatile,
                    reads: analysis.reads.clone(),
                },
            );
        }

        // Dep-graph coverage, per instance: the registration must cover
        // everything this instance can read.
        let ReadSet::Windows(windows) = &analysis.reads else { continue };
        let Some(prec) = deps.precedents_of(addr) else {
            return Err(format!(
                "template {key:?}: instance at {} is not registered in the dep graph",
                addr.to_a1()
            ));
        };
        for w in windows {
            let (Some(start), Some(end)) = (w.start.resolve(addr), w.end.resolve(addr)) else {
                continue; // off-sheet here: evaluation yields #REF!, no read
            };
            let resolved = Range::new(start, end);
            if !prec.covers(resolved) {
                return Err(format!(
                    "template {key:?} at {}: static read window {w} (resolves to {}) \
                     is not covered by the registered precedents {prec:?}",
                    addr.to_a1(),
                    resolved.to_a1(),
                ));
            }
        }
    }
    Ok(reports.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower::{compile, FuncId, IfFold};
    use crate::formula::ast::BinOp;
    use crate::eval::{evaluate, EvalCtx};
    use crate::formula::parse;
    use crate::meter::Meter;
    use crate::recalc;
    use crate::value::Value;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn analyzed(src: &str) -> Analysis {
        analyze(&parse(src).unwrap(), a("D4"))
    }

    fn verified(src: &str) -> u32 {
        let prog = compile(&parse(src).unwrap(), a("D4"));
        verify(&prog).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    // -- verifier ------------------------------------------------------

    #[test]
    fn verifier_proves_depths_on_real_programs() {
        assert_eq!(verified("1+2*3"), 1); // folds to one const
        assert_eq!(verified("A1+B2*2"), 3);
        assert_eq!(verified("SUM(A1:A9)"), 1);
        assert_eq!(verified("SUM(A1,B1,C1,D1)"), 4);
        for src in [
            "IF(A1>0,SUM(A1:A10),1/0)",
            "IF(A1>0,B1)",
            "IFERROR(A1/B1,\"fallback\")",
            "IF(A1,IF(B1,1,2),IFERROR(C1,3))",
            "NOSUCHFN(A1,2)",
            "A1:A10+1",
            "-A3%",
            "VLOOKUP(2.5,A1:B10,1)",
        ] {
            let d = verified(src);
            assert!(d >= 1, "{src}: depth {d}");
        }
    }

    #[test]
    fn verifier_depth_matches_stored_max_stack() {
        for src in ["A1+B2*2", "IF(A1>0,B1,C1)", "SUM(A1:A3,B1,4)"] {
            let prog = compile(&parse(src).unwrap(), a("D4"));
            assert_eq!(verify(&prog), Ok(prog.max_stack()), "{src}");
        }
    }

    /// Hand-corrupted programs: each structural defect class is caught.
    #[test]
    fn verifier_rejects_malformed_bytecode() {
        let prog = |code: Vec<Inst>, consts: Vec<Value>| Program::for_tests(code, consts);
        assert_eq!(
            verify(&prog(vec![Inst::Binary(BinOp::Add)], vec![])),
            Err(VerifyError::StackUnderflow { pc: 0 })
        );
        assert_eq!(
            verify(&prog(vec![Inst::Const(0)], vec![])),
            Err(VerifyError::ConstOutOfBounds { pc: 0, index: 0 })
        );
        assert_eq!(
            verify(&prog(vec![Inst::Jump(5)], vec![])),
            Err(VerifyError::JumpOutOfBounds { pc: 0, target: 5 })
        );
        let two = vec![Value::Number(1.0), Value::Number(2.0)];
        assert_eq!(
            verify(&prog(vec![Inst::Const(0), Inst::Const(1)], two.clone())),
            Err(VerifyError::BadExitDepth { depth: 2 })
        );
        assert_eq!(
            verify(&prog(
                vec![Inst::Const(0), Inst::Call { id: FuncId(9999), argc: 1, kernel: None }],
                two.clone()
            )),
            Err(VerifyError::FuncOutOfBounds { pc: 1, id: 9999 })
        );
        let countif = |literal| Inst::Call {
            id: func_id("COUNTIF").unwrap(),
            argc: 2,
            kernel: Some(Kernel::If { fold: IfFold::Count, literal }),
        };
        assert_eq!(
            verify(&prog(vec![Inst::Const(0), Inst::Const(1), countif(Some(0))], two.clone())),
            Err(VerifyError::CriterionOutOfBounds { pc: 2, index: 0 })
        );
        assert_eq!(
            verify(&prog(vec![Inst::Const(0), Inst::Const(1), countif(None)], two.clone())),
            Ok(2)
        );
        // Jump skipping an instruction leaves it unreachable.
        assert_eq!(
            verify(&prog(vec![Inst::Jump(2), Inst::Const(0), Inst::Const(1)], two)),
            Err(VerifyError::UnreachableCode { pc: 1 })
        );
    }

    #[test]
    fn breadth_monsters_hit_the_stack_limit() {
        // 600 arguments: parse depth is tiny (breadth, not nesting) but
        // the operand stack provably needs 600 slots.
        let src = format!("SUM({})", vec!["A1"; 600].join(","));
        let prog = compile(&parse(&src).unwrap(), a("D4"));
        assert_eq!(verify(&prog), Err(VerifyError::StackLimit { depth: 600 }));
        // The depth is still stored so the VM pre-reserves what it needs.
        assert_eq!(prog.max_stack(), 600);
    }

    // -- read-set and volatility walk ---------------------------------

    #[test]
    fn volatility_is_rooted_at_volatile_builtins() {
        assert!(analyzed("NOW()").volatile);
        assert!(analyzed("TODAY()+1").volatile);
        assert!(analyzed("IF(A1>0,1,NOW())").volatile); // anywhere in tree
        assert!(!analyzed("SUM(A1:A9)+A2").volatile);
    }

    #[test]
    fn read_windows_collect_and_dedup() {
        let an = analyzed("A1+A1*SUM(B1:B9)");
        let ReadSet::Windows(ws) = &an.reads else { panic!("bounded") };
        assert_eq!(ws.len(), 2, "{ws:?}"); // A1 deduped, B1:B9
        assert!(an.reads.is_bounded());
    }

    #[test]
    fn dynamic_read_builtins_are_unbounded() {
        assert_eq!(analyzed("OFFSET(A1,1,1)").reads, ReadSet::Unbounded);
        assert_eq!(analyzed("SUMIF(A1:A9,1,B1:B9)").reads, ReadSet::Unbounded);
        assert_eq!(analyzed("AVERAGEIF(A1:A9,1,B1:B9)").reads, ReadSet::Unbounded);
        assert_eq!(analyzed("LOOKUP(1,A1:A9,B1:B9)").reads, ReadSet::Unbounded);
        // The bounded arities stay bounded.
        assert!(analyzed("SUMIF(A1:A9,1)").reads.is_bounded());
        assert!(analyzed("LOOKUP(1,A1:B9)").reads.is_bounded());
        assert!(analyzed("VLOOKUP(1,A1:B9,2)").reads.is_bounded());
    }

    // -- read recording vs static read-set ----------------------------

    #[test]
    fn recorded_reads_fall_inside_static_windows() {
        let mut s = Sheet::new();
        for r in 0..6u32 {
            s.set_value(CellAddr::new(r, 0), i64::from(r));
        }
        s.set_value(a("B1"), 10i64);
        for src in ["SUM(A1:A6)+B1", "IF(B1>5,SUM(A1:A3),A5)", "COUNTIF(A1:A6,\">2\")+B1*2"] {
            let expr = parse(src).unwrap();
            let origin = a("D1");
            let an = analyze(&expr, origin);
            let ReadSet::Windows(ws) = &an.reads else { panic!("{src}: bounded") };
            let resolved: Vec<Range> = ws
                .iter()
                .filter_map(|w| {
                    Some(Range::new(w.start.resolve(origin)?, w.end.resolve(origin)?))
                })
                .collect();
            let rec = RecordingSource::new(&s);
            let meter = Meter::new();
            evaluate(&expr, &EvalCtx::new(&rec, &meter, origin));
            for read in rec.reads() {
                assert!(
                    resolved.iter().any(|r| r.contains(read)),
                    "{src}: read {} outside static windows {resolved:?}",
                    read.to_a1()
                );
            }
        }
    }

    // -- dep-graph soundness ------------------------------------------

    fn demo_sheet() -> Sheet {
        let mut s = Sheet::new();
        for r in 0..8u32 {
            s.set_value(CellAddr::new(r, 0), i64::from(r + 1));
        }
        s.set_formula_str(a("B1"), "=SUM(A1:A8)").unwrap();
        s.set_formula_str(a("B2"), "=A2*2+$A$1").unwrap();
        s.set_formula_str(a("B3"), "=A3*2+$A$1").unwrap(); // same template as B2
        s.set_formula_str(a("C1"), "=IF(B1>10,B2,NOW())").unwrap();
        recalc::recalc_all(&mut s);
        s
    }

    #[test]
    fn clean_sheet_proves_coverage_and_reports_templates() {
        let s = demo_sheet();
        let reports = check_sheet(&s).unwrap();
        assert_eq!(reports.len(), 3); // B2/B3 share one template
        let fill = reports.iter().find(|r| r.instances == 2).expect("shared template");
        assert!(!fill.volatile);
        assert!(fill.reads.is_bounded());
        let volatile = reports.iter().find(|r| r.volatile).expect("NOW template");
        assert!(volatile.template.contains("NOW"));
    }

    /// The acceptance-criteria mutation test: a deliberately broken
    /// `rebuild_deps` (simulated by re-registering one formula with the
    /// wrong precedents) is caught statically, with the template and the
    /// missing window named in the diagnostic.
    #[test]
    fn broken_dep_registration_is_caught_with_named_window() {
        let mut s = demo_sheet();
        // B1 really reads A1:A8, but the graph now claims it reads only A1.
        s.deps_mut().add(a("B1"), &parse("A1").unwrap());
        let err = check_sheet(&s).unwrap_err();
        assert!(err.contains("SUM("), "template not named: {err}");
        assert!(err.contains("not covered"), "coverage not blamed: {err}");
        assert!(err.contains("A1:A8"), "missing window not resolved: {err}");
    }

    #[test]
    fn unregistered_formula_instance_is_caught() {
        let mut s = demo_sheet();
        s.deps_mut().remove(a("B2"));
        let err = check_sheet(&s).unwrap_err();
        assert!(err.contains("not registered"), "{err}");
        assert!(err.contains("B2"), "{err}");
    }

    #[test]
    fn unresolvable_windows_are_skipped() {
        // A window that walks off the sheet at some address is never read
        // there (evaluation yields #REF!), so coverage must not demand it.
        let origin = a("B1");
        let an = analyze(&parse("A1+1").unwrap(), origin); // reads RC[-1]
        let ReadSet::Windows(ws) = &an.reads else { panic!("bounded") };
        assert_eq!(ws.len(), 1);
        // Resolving the template's window at column A falls off the sheet.
        assert_eq!(ws[0].start.resolve(a("A1")), None);
        assert!(ws[0].start.resolve(origin).is_some());
    }

    /// The check reads the template map and never writes it: a bound
    /// formula's lookup is not counted, and a template no recalculation
    /// has compiled yet is verified without being inserted.
    #[test]
    fn checking_a_sheet_leaves_the_program_cache_alone() {
        let mut s = demo_sheet();
        s.set_formula_str(a("D1"), "=B1-A8").unwrap(); // a new template, not yet compiled
        let (lookups, len) = (s.program_cache().lookups(), s.program_cache().len());
        let reports = check_sheet(&s).unwrap();
        assert_eq!(reports.len(), 4, "the uncompiled template is verified too");
        assert_eq!(s.program_cache().lookups(), lookups, "check_sheet counted a lookup");
        assert_eq!(s.program_cache().len(), len, "check_sheet inserted a template");
    }

    /// A bound program the template map does not hold is a stale binding
    /// as surely as one the map holds another program for.
    #[test]
    fn a_binding_missing_from_the_template_map_is_stale() {
        let mut s = demo_sheet();
        let f = s.grid_store_mut().formula_mut(a("B1")).unwrap();
        f.unbind();
        let own = Arc::new(compile(&f.expr, a("B1")));
        f.program_or_bind(|| own);
        let err = check_sheet(&s).unwrap_err();
        assert!(err.contains("stale binding"), "{err}");
    }

    #[test]
    fn precedents_covers_matches_geometry() {
        let prec = crate::depgraph::Precedents::of(&parse("A1+SUM(B1:B9)").unwrap());
        assert!(prec.covers(Range::cell(a("A1"))));
        assert!(prec.covers(Range::cell(a("B5"))));
        assert!(prec.covers(Range::parse("B2:B4").unwrap()));
        assert!(!prec.covers(Range::cell(a("C1"))));
        assert!(!prec.covers(Range::parse("B8:B10").unwrap())); // spills out
    }
}
