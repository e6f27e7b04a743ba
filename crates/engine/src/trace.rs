//! Structured, span-level tracing.
//!
//! The paper (§3.3) can only report opaque end-to-end timings because the
//! benchmarked systems are black boxes. This white-box reproduction can do
//! strictly better: every sheet operation, every recalculation pass and
//! topological level, and every simulated measurement opens a hierarchical
//! [`Span`] carrying its wall-clock time *and* the [`Meter`] [`Counts`]
//! delta it produced, so every simulated millisecond is attributable to
//! the span (and the primitives) that produced it.
//!
//! ## Design
//!
//! * **Off by default, near-free when off.** A thread-local `Cell<bool>`
//!   gates everything; span names are built lazily from closures, so a
//!   disabled `Span::open` is one thread-local load and no allocation.
//! * **Per-thread state.** Each thread owns its on/off switch, a span
//!   stack and a bounded ring buffer of *completed root* span trees.
//!   Nothing is shared, so recording never takes a lock, and nothing is
//!   process-global (threads share only the clock origin span times count
//!   from): [`enable`] on one thread leaves every other thread's recording
//!   as it was.
//! * **Deterministic.** Span structure, names, and counts repeat run to
//!   run; only the wall-clock fields differ, and [`SpanNode::signature`]
//!   excludes them so determinism is testable.
//! * **Meters are borrowed transiently.** A span never stores `&Meter`
//!   (that would freeze the `&mut Sheet` the traced operation needs);
//!   [`Span::open_metered`] and [`Span::finish_metered`] each take the
//!   meter for one snapshot only.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::meter::{Counts, Meter, ALL_PRIMITIVES};

/// What kind of work a span covers. Doubles as the Chrome trace `cat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// One full experiment (a paper figure).
    Experiment,
    /// One (size, series) point of a sweep.
    Point,
    /// One `SimSystem::measure` call (a simulated scripted operation).
    Measure,
    /// One sheet operation dispatched through the `Op` API.
    Op,
    /// One recalculation pass.
    Recalc,
    /// One topological level of a recalculation pass.
    Level,
}

impl Category {
    /// Stable lowercase name (used in exports and signatures).
    pub const fn name(self) -> &'static str {
        match self {
            Category::Experiment => "experiment",
            Category::Point => "point",
            Category::Measure => "measure",
            Category::Op => "op",
            Category::Recalc => "recalc",
            Category::Level => "level",
        }
    }
}

/// A completed span: one node of a trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Human-readable name, e.g. `"op:sort"` or `"level 2 (500 formulas)"`.
    pub name: String,
    /// The span's category.
    pub cat: Category,
    /// Start time in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Meter delta recorded across the span (zero when unmetered).
    pub counts: Counts,
    /// Simulated milliseconds attributed to this span (0 when the span
    /// carries counts only; set by `SimSystem::measure` and the harness).
    pub sim_ms: f64,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// This node plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Sum of `sim_ms` over this node and all descendants of `cat`.
    pub fn sim_ms_deep(&self, cat: Category) -> f64 {
        let own = if self.cat == cat { self.sim_ms } else { 0.0 };
        own + self.children.iter().map(|c| c.sim_ms_deep(cat)).sum::<f64>()
    }

    /// The deterministic shape of the tree: names, categories, counts, and
    /// simulated times — everything *except* the wall-clock fields, which
    /// legitimately vary run to run. Two traces of the same workload must
    /// produce identical signatures.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out);
        out
    }

    fn write_signature(&self, out: &mut String) {
        let _ = write!(out, "{}:{}[{}|{:.6}]", self.cat.name(), self.name, self.counts, self.sim_ms);
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_signature(out);
            }
            out.push(')');
        }
    }
}

// --- the switch ---------------------------------------------------------

/// Default per-thread ring capacity (completed root trees).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Turns tracing on for the calling thread, with the given root-buffer
/// capacity (oldest roots are dropped beyond it; see [`dropped`]).
pub fn enable(capacity: usize) {
    TLS.with(|t| t.borrow_mut().capacity = capacity.max(1));
    ENABLED.set(true);
}

/// Turns tracing off for the calling thread. Open spans finish silently;
/// already completed roots stay buffered until drained.
pub fn disable() {
    ENABLED.set(false);
}

/// Whether tracing is on for the calling thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// --- thread-local recording state ---------------------------------------

struct PendingSpan {
    name: String,
    cat: Category,
    start_us: u64,
    before: Option<Counts>,
    counts: Option<Counts>,
    sim_ms: f64,
    children: Vec<SpanNode>,
}

impl PendingSpan {
    fn into_node(self, after: Option<Counts>) -> SpanNode {
        let counts = match (self.counts, self.before, after) {
            (Some(explicit), _, _) => explicit,
            (None, Some(b), Some(a)) => a.since(&b),
            _ => Counts::default(),
        };
        SpanNode {
            name: self.name,
            cat: self.cat,
            start_us: self.start_us,
            dur_us: now_us().saturating_sub(self.start_us),
            counts,
            sim_ms: self.sim_ms,
            children: self.children,
        }
    }
}

struct ThreadTrace {
    stack: Vec<PendingSpan>,
    roots: VecDeque<SpanNode>,
    dropped: u64,
    capacity: usize,
}

impl ThreadTrace {
    fn push_root(&mut self, node: SpanNode) {
        while self.roots.len() >= self.capacity {
            self.roots.pop_front();
            self.dropped += 1;
        }
        self.roots.push_back(node);
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TLS: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            stack: Vec::new(),
            roots: VecDeque::new(),
            dropped: 0,
            capacity: DEFAULT_CAPACITY,
        })
    };
}

/// Takes this thread's completed root spans (in completion order). Open
/// spans are unaffected.
pub fn drain() -> Vec<SpanNode> {
    TLS.with(|t| t.borrow_mut().roots.drain(..).collect())
}

/// Roots dropped on this thread because the ring buffer overflowed.
pub fn dropped() -> u64 {
    TLS.with(|t| t.borrow().dropped)
}

/// Discards this thread's entire trace state (open spans included).
pub fn clear() {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.roots.clear();
        t.dropped = 0;
    });
}

// --- the span guard ------------------------------------------------------

/// An open span. Close with [`finish`](Span::finish) /
/// [`finish_metered`](Span::finish_metered); dropping it unclosed also
/// finishes it (without a counts delta).
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    armed: bool,
    depth: usize,
}

impl Span {
    /// Opens a span. `name` is only invoked when tracing is enabled.
    pub fn open(cat: Category, name: impl FnOnce() -> String) -> Span {
        if !enabled() {
            return Span { armed: false, depth: 0 };
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let depth = t.stack.len();
            t.stack.push(PendingSpan {
                name: name(),
                cat,
                start_us: now_us(),
                before: None,
                counts: None,
                sim_ms: 0.0,
                children: Vec::new(),
            });
            Span { armed: true, depth }
        })
    }

    /// Opens a span that will record the delta of `meter` across its
    /// lifetime (pair with [`finish_metered`](Span::finish_metered)). The
    /// meter is only borrowed for one snapshot.
    pub fn open_metered(cat: Category, name: impl FnOnce() -> String, meter: &Meter) -> Span {
        let span = Span::open(cat, name);
        if span.armed {
            let snap = meter.snapshot();
            span.with_pending(|p| p.before = Some(snap));
        }
        span
    }

    /// Replaces the span's name (e.g. once an experiment's id is known).
    pub fn set_name(&self, name: impl Into<String>) {
        if self.armed {
            let name = name.into();
            self.with_pending(|p| p.name = name);
        }
    }

    /// Attributes simulated milliseconds to this span.
    pub fn set_sim_ms(&self, ms: f64) {
        if self.armed {
            self.with_pending(|p| p.sim_ms = ms);
        }
    }

    /// Overrides the span's counts explicitly (used where a delta is
    /// computed out of band, e.g. `open_doc`'s fresh-sheet meter).
    pub fn set_counts(&self, counts: Counts) {
        if self.armed {
            self.with_pending(|p| p.counts = Some(counts));
        }
    }

    /// Closes the span without a closing meter snapshot.
    pub fn finish(mut self) {
        self.close(None);
    }

    /// Closes the span, recording `meter`'s delta since
    /// [`open_metered`](Span::open_metered).
    pub fn finish_metered(mut self, meter: &Meter) {
        let snap = meter.snapshot();
        self.close(Some(snap));
    }

    fn with_pending(&self, f: impl FnOnce(&mut PendingSpan)) {
        TLS.with(|t| {
            if let Some(p) = t.borrow_mut().stack.get_mut(self.depth) {
                f(p);
            }
        });
    }

    fn close(&mut self, after: Option<Counts>) {
        if !self.armed {
            return;
        }
        self.armed = false;
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.stack.len() <= self.depth {
                return; // cleared mid-span
            }
            // Defensively fold any unclosed children first (leaked guards).
            while t.stack.len() > self.depth + 1 {
                let dangling = t.stack.pop().expect("stack checked non-empty");
                let node = dangling.into_node(None);
                match t.stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => t.push_root(node),
                }
            }
            let pending = t.stack.pop().expect("stack checked non-empty");
            let node = pending.into_node(after);
            match t.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => t.push_root(node),
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(None);
    }
}

// --- convenience ---------------------------------------------------------

/// Runs `f` inside a metered `op:<name>` span: what the `&Sheet` query ops
/// (`ops::pivot`, `ops::find_all`) wrap themselves in. `Sheet::apply` opens
/// the same span inline, since its closure would need `&mut` to the sheet
/// whose meter is borrowed here.
pub fn with_op_span<R>(name: &'static str, meter: &Meter, f: impl FnOnce() -> R) -> R {
    let span = Span::open_metered(Category::Op, || format!("op:{name}"), meter);
    let result = f();
    span.finish_metered(meter);
    result
}

/// Aggregate totals over a set of root trees (used by reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceTotals {
    /// Total number of spans.
    pub spans: usize,
    /// Total counts over every span that carries a counts delta. Note:
    /// parents and children both record deltas, so this double-counts by
    /// design — it is a volume indicator, not a cost.
    pub primitive_events: u64,
}

/// Computes totals over root trees.
pub fn totals(roots: &[SpanNode]) -> TraceTotals {
    fn walk(node: &SpanNode, t: &mut TraceTotals) {
        t.spans += 1;
        for p in ALL_PRIMITIVES {
            t.primitive_events += node.counts.get(p);
        }
        for c in &node.children {
            walk(c, t);
        }
    }
    let mut t = TraceTotals::default();
    for r in roots {
        walk(r, &mut t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Primitive;

    #[test]
    fn disabled_spans_are_inert() {
        disable();
        clear();
        let span = Span::open(Category::Op, || panic!("name must not be built when disabled"));
        span.finish();
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_capture_meter_deltas() {
        enable(64);
        clear();
        let m = Meter::new();
        let outer = Span::open_metered(Category::Recalc, || "outer".into(), &m);
        m.bump(Primitive::CellRead, 3);
        let inner = Span::open_metered(Category::Level, || "inner".into(), &m);
        m.bump(Primitive::FormulaEval, 2);
        inner.finish_metered(&m);
        outer.finish_metered(&m);
        let roots = drain();
        disable();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.counts.get(Primitive::CellRead), 3);
        assert_eq!(outer.counts.get(Primitive::FormulaEval), 2, "outer includes inner");
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.counts.get(Primitive::FormulaEval), 2);
        assert_eq!(inner.counts.get(Primitive::CellRead), 0);
        assert_eq!(outer.span_count(), 2);
    }

    #[test]
    fn dropping_a_span_closes_it() {
        enable(64);
        clear();
        {
            let _span = Span::open(Category::Op, || "dropped".into());
        }
        let roots = drain();
        disable();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "dropped");
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        enable(2);
        clear();
        for i in 0..5 {
            Span::open(Category::Op, || format!("s{i}")).finish();
        }
        let roots = drain();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].name, "s3");
        assert_eq!(roots[1].name, "s4");
        assert_eq!(dropped(), 3);
        clear();
        disable();
    }

    #[test]
    fn the_switch_belongs_to_the_thread() {
        enable(64);
        clear();
        Span::open(Category::Op, || "mine".into()).finish();
        let theirs = std::thread::spawn(|| {
            assert!(!enabled(), "a new thread starts with tracing off");
            enable(1);
            Span::open(Category::Op, || "theirs".into()).finish();
            let roots = drain();
            disable();
            roots
        })
        .join()
        .expect("the tracing thread finishes");
        let names = |roots: &[SpanNode]| roots.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&theirs), ["theirs"]);
        assert!(enabled(), "another thread's disable switched this thread off");
        Span::open(Category::Op, || "mine again".into()).finish();
        let mine = drain();
        disable();
        assert_eq!(names(&mine), ["mine", "mine again"], "another thread's capacity applied here");
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn signature_ignores_wall_clock() {
        let mut a = SpanNode {
            name: "n".into(),
            cat: Category::Op,
            start_us: 1,
            dur_us: 10,
            counts: Counts::default(),
            sim_ms: 1.5,
            children: vec![],
        };
        let sig = a.signature();
        a.start_us = 999;
        a.dur_us = 0;
        assert_eq!(a.signature(), sig);
        a.sim_ms = 2.0;
        assert_ne!(a.signature(), sig);
    }

    #[test]
    fn sim_ms_deep_sums_category() {
        let leaf = |ms| SpanNode {
            name: "m".into(),
            cat: Category::Measure,
            start_us: 0,
            dur_us: 0,
            counts: Counts::default(),
            sim_ms: ms,
            children: vec![],
        };
        let root = SpanNode {
            name: "e".into(),
            cat: Category::Experiment,
            start_us: 0,
            dur_us: 0,
            counts: Counts::default(),
            sim_ms: 3.0,
            children: vec![leaf(1.0), leaf(2.0)],
        };
        assert_eq!(root.sim_ms_deep(Category::Measure), 3.0);
        assert_eq!(root.sim_ms_deep(Category::Experiment), 3.0);
        assert_eq!(totals(&[root]).spans, 3);
    }
}
