//! Lowering: AST → flat stack bytecode.
//!
//! The compiler performs exactly four optimizations, all decided at
//! compile time so the VM's hot loop stays branch-light:
//!
//! * **Constant folding** — literal-pure subtrees (no refs, ranges, or
//!   calls) are evaluated once here, using the interpreter's own
//!   `apply_unary`/`apply_binary`, so folding can never change semantics;
//!   a folded subtree may legitimately be an error constant (`1/0`).
//! * **Literal pooling** — constants live in a per-program pool; text
//!   literals are `Arc<str>`, so pushing one at run time is a refcount
//!   bump, never a string allocation.
//! * **Dense function IDs** — call sites store an index into a fixed
//!   builtin table instead of a name, replacing the per-call string match
//!   with an array load. `IF`/`IFERROR` lower to explicit jumps, keeping
//!   the interpreter's lazy-branch semantics.
//! * **Criterion pooling** — a literal `COUNTIF`/`SUMIF`/`AVERAGEIF`
//!   criterion is parsed and compiled ([`Matcher`]) once here, into a
//!   per-program pool beside the constants, instead of once per evaluation.

use crate::addr::CellAddr;
use crate::analyze;
use crate::error::CellError;
use crate::eval::{apply_binary, apply_unary};
use crate::formula::ast::{BinOp, Expr, UnaryOp};
use crate::formula::r1c1::{RangeSpec, RefSpec};
use crate::functions;
use crate::value::{Criterion, Matcher, Value};

/// A dense builtin-function identifier: an index into
/// [`functions::BUILTINS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncId(pub(crate) u16);

impl FuncId {
    /// The builtin's row of the table.
    pub(crate) fn row(self) -> &'static functions::Builtin {
        &functions::BUILTINS[self.0 as usize]
    }

    /// The builtin's uppercase name.
    pub fn name(self) -> &'static str {
        self.row().name
    }
}

/// Resolves an uppercase name to its dense ID with one probe of a hash
/// index over the table. Not a search of it: the interpreter's string
/// dispatch (`functions::call`) resolves here too, on a path — a one-shot
/// `COUNTIF` answered by a column index — that is 0.5 µs in all.
pub fn func_id(name: &str) -> Option<FuncId> {
    let mut slot = first_slot(name);
    loop {
        let id = FuncId(INDEX[slot].checked_sub(1)?);
        if id.name() == name {
            return Some(id);
        }
        slot = (slot + 1) % INDEX.len();
    }
}

/// Where the probe for `name` starts: its length and its end bytes, cheap
/// to read and spread well enough; a collision moves on to the next slot.
const fn first_slot(name: &str) -> usize {
    let b = name.as_bytes();
    if b.is_empty() {
        return 0;
    }
    (b.len() * 67 + b[0] as usize * 31 + b[b.len() - 1] as usize * 7) % INDEX.len()
}

/// `INDEX[slot]` is a table row + 1, or 0 where no name landed.
static INDEX: [u16; 256] = {
    let mut index = [0; 256];
    let mut row = 0;
    while row < functions::BUILTINS.len() {
        let mut slot = first_slot(functions::BUILTINS[row].name);
        while index[slot] != 0 {
            slot = (slot + 1) % index.len();
        }
        row += 1;
        index[slot] = row as u16;
    }
    index
};

/// A vectorized range-aggregate kernel the VM may dispatch to. Chosen at
/// compile time from the function and the *shape* of its arguments; the VM
/// still falls back to the generic builtin when an evaluated argument turns
/// out not to have the shape the kernel walks (an off-sheet `#REF!` where
/// the range should be, a sum range that does not line up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `SUM`, `AVERAGE`, `COUNT`, `MIN` or `MAX` of one range.
    Plain(Agg),
    /// `COUNTIF`, `SUMIF` or `AVERAGEIF`. `literal` indexes the program's
    /// criterion pool when the criterion argument is a literal; otherwise
    /// the criterion is compiled from the evaluated argument on each call.
    If { fold: IfFold, literal: Option<u32> },
}

/// The single-range aggregates with a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Average,
    Count,
    Min,
    Max,
}

/// What a criteria kernel does with the cells that match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfFold {
    /// `COUNTIF(range, criterion)`.
    Count,
    /// `SUMIF(range, criterion, [sum_range])`.
    Sum,
    /// `AVERAGEIF(range, criterion, [avg_range])`.
    Average,
}

/// One bytecode instruction. Jump targets are absolute code indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Inst {
    /// Push `consts[i]`.
    Const(u32),
    /// Resolve + read one cell (scalar position).
    ReadCell(RefSpec),
    /// Bare range in scalar position: single-cell collapses to a read
    /// (implicit intersection), anything larger is `#VALUE!`.
    Intersect(RangeSpec),
    /// Push a one-cell range argument (bare ref in call-argument position,
    /// keeping reference semantics for `ROW(C7)`-style builtins).
    CellArg(RefSpec),
    /// Push a range argument.
    RangeArg(RangeSpec),
    /// Apply a unary operator to the top of stack.
    Unary(UnaryOp),
    /// Apply a binary operator to the top two (b above a).
    Binary(BinOp),
    /// Call a builtin on the top `argc` arguments.
    Call { id: FuncId, argc: u32, kernel: Option<Kernel> },
    /// Unknown function: discard `argc` evaluated arguments, push `#NAME?`.
    NameError(u32),
    /// Unconditional jump.
    Jump(u32),
    /// `IF` dispatch: pops the condition; true falls through (then-branch),
    /// false jumps to `on_false` (else-branch), a coercion error pushes the
    /// error and jumps to `on_end`.
    IfCond { on_false: u32, on_end: u32 },
    /// `IFERROR` dispatch: pops the value; a non-error pushes it back and
    /// jumps past the fallback, an error falls through into the fallback.
    SkipIfNotError(u32),
}

/// A compiled formula template: flat code plus its constant pool and the
/// stack depth the verifier proved for it. Shared via `Arc` by every cell
/// instantiating the template.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) code: Vec<Inst>,
    pub(crate) consts: Vec<Value>,
    /// Literal criteria of the criteria kernels, compiled once per program
    /// (see [`Kernel::If`]).
    pub(crate) criteria: Vec<Matcher>,
    /// Verifier-proven maximum operand-stack depth (`analyze::verify`);
    /// the VM pre-reserves this many scratch slots before executing.
    pub(crate) max_stack: u32,
}

impl Program {
    /// Number of instructions (diagnostics/tests).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Number of pooled constants (diagnostics/tests).
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Verifier-proven maximum operand-stack depth.
    pub fn max_stack(&self) -> u32 {
        self.max_stack
    }

    /// Assembles a raw program for verifier tests — the only way to build
    /// one that did not come out of the lowerer.
    #[cfg(test)]
    pub(crate) fn for_tests(code: Vec<Inst>, consts: Vec<Value>) -> Program {
        Program { code, consts, criteria: Vec::new(), max_stack: 0 }
    }
}

/// Compiles `expr`, anchored at `origin`, into a program. The program is a
/// pure function of the formula's R1C1 template, so any cell whose formula
/// normalizes to the same key may execute it. Every program is verified
/// here: the stored `max_stack` is the proven bound, so the VM never
/// executes unchecked bytecode.
pub fn compile(expr: &Expr, origin: CellAddr) -> Program {
    let mut l = Lowerer { code: Vec::new(), consts: Vec::new(), criteria: Vec::new(), origin };
    l.lower_scalar(expr);
    let mut prog = Program { code: l.code, consts: l.consts, criteria: l.criteria, max_stack: 0 };
    prog.max_stack = match analyze::verify(&prog) {
        Ok(depth) => depth,
        // Well-formed but deeper than the strict limit (breadth: a call
        // with hundreds of arguments). The depth is still the true
        // requirement, and the VM's stack is a growable Vec, so store it;
        // strict contexts (`analyze::check_sheet`) reject it separately.
        Err(analyze::VerifyError::StackLimit { depth }) => depth,
        Err(e) => {
            debug_assert!(false, "lowerer produced unverifiable bytecode: {e}");
            0
        }
    };
    prog
}

/// What an emitted call argument is, for kernel selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Scalar,
    Range,
}

struct Lowerer {
    code: Vec<Inst>,
    consts: Vec<Value>,
    criteria: Vec<Matcher>,
    origin: CellAddr,
}

impl Lowerer {
    fn konst(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn emit_const(&mut self, v: Value) {
        let i = self.konst(v);
        self.code.push(Inst::Const(i));
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Lowers `expr` in scalar position (its value ends on the stack).
    fn lower_scalar(&mut self, expr: &Expr) {
        if let Some(v) = fold(expr) {
            self.emit_const(v);
            return;
        }
        match expr {
            // Literal leaves are always folded above.
            Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::Error(_) => unreachable!(),
            Expr::Ref(r) => self.code.push(Inst::ReadCell(RefSpec::from_ref(*r, self.origin))),
            Expr::RangeRef(r) => {
                self.code.push(Inst::Intersect(RangeSpec::from_range(r, self.origin)));
            }
            Expr::Unary(op, a) => {
                self.lower_scalar(a);
                self.code.push(Inst::Unary(*op));
            }
            Expr::Binary(op, a, b) => {
                self.lower_scalar(a);
                self.lower_scalar(b);
                self.code.push(Inst::Binary(*op));
            }
            Expr::Call(name, args) => self.lower_call(name, args),
        }
    }

    fn lower_call(&mut self, name: &str, args: &[Expr]) {
        if name == "IF" {
            return self.lower_if(args);
        }
        if name == "IFERROR" {
            return self.lower_iferror(args);
        }
        let mut shapes = Vec::with_capacity(args.len());
        for a in args {
            match a {
                Expr::RangeRef(r) => {
                    self.code.push(Inst::RangeArg(RangeSpec::from_range(r, self.origin)));
                    shapes.push(Shape::Range);
                }
                Expr::Ref(r) => {
                    self.code.push(Inst::CellArg(RefSpec::from_ref(*r, self.origin)));
                    shapes.push(Shape::Range);
                }
                other => {
                    self.lower_scalar(other);
                    shapes.push(Shape::Scalar);
                }
            }
        }
        let argc = args.len() as u32;
        match func_id(name) {
            Some(id) => {
                let mut kernel = kernel_for(name, &shapes);
                if let Some(Kernel::If { literal, .. }) = &mut kernel {
                    // A literal criterion reads no cell, so compiling it
                    // here instead of per call moves no meter charge.
                    if let Some(v) = fold(&args[1]) {
                        self.criteria.push(Matcher::new(Criterion::parse(&v)));
                        *literal = Some((self.criteria.len() - 1) as u32);
                    }
                }
                self.code.push(Inst::Call { id, argc, kernel });
            }
            None => self.code.push(Inst::NameError(argc)),
        }
    }

    /// `IF(cond, then, [else])` with the interpreter's lazy semantics: the
    /// untaken branch never executes (its reads never happen, its errors
    /// never surface), and a condition error is the result.
    fn lower_if(&mut self, args: &[Expr]) {
        if args.len() < 2 || args.len() > 3 {
            // `eval_if` rejects the arity without evaluating anything.
            return self.emit_const(Value::Error(CellError::Value));
        }
        self.lower_scalar(&args[0]);
        let dispatch = self.here() as usize;
        self.code.push(Inst::IfCond { on_false: u32::MAX, on_end: u32::MAX });
        self.lower_scalar(&args[1]);
        let jump_end = self.here() as usize;
        self.code.push(Inst::Jump(u32::MAX));
        let on_false = self.here();
        match args.get(2) {
            Some(e) => self.lower_scalar(e),
            None => self.emit_const(Value::Bool(false)),
        }
        let on_end = self.here();
        self.code[dispatch] = Inst::IfCond { on_false, on_end };
        self.code[jump_end] = Inst::Jump(on_end);
    }

    /// `IFERROR(value, fallback)`: the fallback only executes when the
    /// value is an error.
    fn lower_iferror(&mut self, args: &[Expr]) {
        if args.len() != 2 {
            return self.emit_const(Value::Error(CellError::Value));
        }
        self.lower_scalar(&args[0]);
        let dispatch = self.here() as usize;
        self.code.push(Inst::SkipIfNotError(u32::MAX));
        self.lower_scalar(&args[1]);
        let end = self.here();
        self.code[dispatch] = Inst::SkipIfNotError(end);
    }
}

/// Evaluates a literal-pure subtree at compile time; `None` when the
/// subtree touches the sheet (refs/ranges) or calls any function (calls
/// may be volatile or context-dependent, so they never fold).
fn fold(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Number(n) => Some(Value::Number(*n)),
        Expr::Text(s) => Some(Value::Text(s.clone())),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Error(e) => Some(Value::Error(*e)),
        Expr::Unary(op, a) => Some(apply_unary(*op, fold(a)?)),
        Expr::Binary(op, a, b) => Some(apply_binary(*op, fold(a)?, fold(b)?)),
        Expr::Ref(_) | Expr::RangeRef(_) | Expr::Call(..) => None,
    }
}

/// Kernel selection: the aggregate's range argument must be an actual
/// reference (so the kernel can walk grid slices) and the arity must be
/// the simple form whose semantics the kernel replicates.
fn kernel_for(name: &str, shapes: &[Shape]) -> Option<Kernel> {
    let range0 = shapes.first() == Some(&Shape::Range);
    let plain = |agg: Agg| (shapes.len() == 1 && range0).then_some(Kernel::Plain(agg));
    // The criteria range, the criterion, and for the folding two an
    // optional range the matched rows are read from. Whether two ranges
    // line up for the column walk is a run-time fact (`vm::run_kernel`).
    let criteria = |fold: IfFold| {
        let arity_ok = match fold {
            IfFold::Count => shapes.len() == 2,
            IfFold::Sum | IfFold::Average => {
                shapes.len() == 2 || (shapes.len() == 3 && shapes[2] == Shape::Range)
            }
        };
        (range0 && arity_ok).then_some(Kernel::If { fold, literal: None })
    };
    match name {
        "SUM" => plain(Agg::Sum),
        "AVERAGE" => plain(Agg::Average),
        "COUNT" => plain(Agg::Count),
        "MIN" => plain(Agg::Min),
        "MAX" => plain(Agg::Max),
        "COUNTIF" => criteria(IfFold::Count),
        "SUMIF" => criteria(IfFold::Sum),
        "AVERAGEIF" => criteria(IfFold::Average),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::parse;

    fn lower(src: &str) -> Program {
        compile(&parse(src).unwrap(), CellAddr::new(4, 3))
    }

    #[test]
    fn literal_pure_trees_fold_to_one_const() {
        for (src, want) in [
            ("1+2*3", Value::Number(7.0)),
            ("-(4)%", Value::Number(-0.04)),
            ("\"a\"&\"b\"", Value::text("ab")),
            ("1/0", Value::Error(CellError::Div0)), // errors fold too
            ("2<3", Value::Bool(true)),
        ] {
            let p = lower(src);
            assert_eq!(p.code_len(), 1, "{src}");
            assert_eq!(p.code[0], Inst::Const(0), "{src}");
            assert_eq!(p.consts[0], want, "{src}");
        }
    }

    #[test]
    fn refs_block_folding_but_siblings_still_fold() {
        let p = lower("A1+(2*3)");
        // ReadCell, Const(6), Binary(Add)
        assert_eq!(p.code_len(), 3);
        assert_eq!(p.consts, vec![Value::Number(6.0)]);
        assert!(matches!(p.code[0], Inst::ReadCell(_)));
        assert!(matches!(p.code[2], Inst::Binary(BinOp::Add)));
    }

    #[test]
    fn calls_never_fold() {
        let p = lower("PI()");
        assert!(matches!(p.code[0], Inst::Call { .. }));
        let p = lower("NOW()");
        assert!(matches!(p.code[0], Inst::Call { .. }));
    }

    #[test]
    fn kernels_selected_by_shape() {
        let kernel_of = |src: &str| -> Option<Kernel> {
            lower(src).code.iter().find_map(|i| match i {
                Inst::Call { kernel, .. } => Some(*kernel),
                _ => None,
            })?
        };
        assert_eq!(kernel_of("SUM(A1:A9)"), Some(Kernel::Plain(Agg::Sum)));
        assert_eq!(kernel_of("AVERAGE(B1:B4)"), Some(Kernel::Plain(Agg::Average)));
        let literal = |fold| Some(Kernel::If { fold, literal: Some(0) });
        assert_eq!(kernel_of("COUNTIF(J1:J100,1)"), literal(IfFold::Count));
        assert_eq!(kernel_of("SUMIF(A1:A9,\">2\")"), literal(IfFold::Sum));
        assert_eq!(kernel_of("SUMIF(A1:A9,\">2\",C1:C9)"), literal(IfFold::Sum));
        assert_eq!(kernel_of("AVERAGEIF(A1:A9,\">\"&1+1,C1)"), literal(IfFold::Average));
        // A criterion that reads the sheet is compiled when it is known.
        assert_eq!(
            kernel_of("COUNTIF(J1:J100,B5)"),
            Some(Kernel::If { fold: IfFold::Count, literal: None })
        );
        // Multi-argument SUM, scalar-only aggregates and a scalar where the
        // range to fold should be stay generic.
        assert_eq!(kernel_of("SUM(A1:A9,B1)"), None);
        assert_eq!(kernel_of("SUM(1,2)"), None);
        assert_eq!(kernel_of("SUMIF(A1:A9,\">2\",5)"), None);
        assert_eq!(kernel_of("COUNTIF(A1:A9,1,2)"), None);
    }

    #[test]
    fn literal_criteria_are_compiled_into_the_program() {
        let p = lower("COUNTIF(A1:A9,\">=2\")+SUMIF(A1:A9,B1)+AVERAGEIF(A1:A9,\"x*\",C1:C9)");
        assert_eq!(p.criteria.len(), 2);
        assert_eq!(p.criteria[0], Matcher::new(Criterion::Ge(2.0)));
        assert_eq!(p.criteria[1], Matcher::new(Criterion::Eq(Value::text("x*"))));
        // The argument is still pushed: the builtin the kernel falls back
        // to (no grid, an off-sheet range) takes it from the stack.
        assert!(p.consts.contains(&Value::text(">=2")));
    }

    #[test]
    fn unknown_functions_lower_to_name_error() {
        let p = lower("FROBNICATE(A1,2)");
        assert!(matches!(p.code.last(), Some(Inst::NameError(2))));
    }

    #[test]
    fn if_lowering_has_patched_jumps() {
        let p = lower("IF(A1>0,B1,C1)");
        let (on_false, on_end) = p
            .code
            .iter()
            .find_map(|i| match i {
                Inst::IfCond { on_false, on_end } => Some((*on_false, *on_end)),
                _ => None,
            })
            .expect("IfCond emitted");
        assert!(on_false < p.code_len() as u32);
        assert_eq!(on_end, p.code_len() as u32);
        // Wrong arity collapses to the interpreter's #VALUE!.
        let p = lower("IF(1)");
        assert_eq!(p.consts, vec![Value::Error(CellError::Value)]);
    }

    #[test]
    fn table_is_sorted_and_every_func_id_names_its_own_row() {
        // Strictly ascending: sorted by name, and so duplicate-free.
        for pair in functions::BUILTINS.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} before {}", pair[0].name, pair[1].name);
        }
        assert_eq!(functions::BUILTINS.len(), 82);
        for (i, b) in functions::BUILTINS.iter().enumerate() {
            assert_eq!(func_id(b.name), Some(FuncId(i as u16)), "{}", b.name);
            assert_eq!(FuncId(i as u16).name(), b.name);
        }
        // IF/IFERROR are control flow, never table entries.
        assert_eq!(func_id("IF"), None);
        assert_eq!(func_id("IFERROR"), None);
        let volatile: Vec<&str> =
            functions::BUILTINS.iter().filter(|b| b.volatile).map(|b| b.name).collect();
        assert_eq!(volatile, ["NOW", "TODAY"]);
    }
}
