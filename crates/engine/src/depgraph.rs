//! The formula dependency graph: which cells each formula reads
//! (precedents) and, inverted, which formulae each cell feeds (dependents).
//!
//! Used for dirty propagation after edits and for ordering recalculation.
//! Range precedents are tracked separately from single-cell precedents so
//! that aggregate formulae over large ranges stay cheap to register.
//!
//! Every map and set here is keyed by a [`CellAddr`] or a column number
//! and hashed by `AddrHasher`, not by std's SipHash. Registering a
//! formula and planning a recalculation are a handful of probes per
//! formula and nothing else, so the hash *is* their cost: with SipHash over
//! 8-byte keys it was 70 % of what a sort of a formula sheet had left to
//! do once the grid moved chunks (`rebuild_deps` re-registers every
//! formula), and most of `full_order`. What SipHash buys — keys an
//! adversary cannot make collide — protects a server that hashes strangers'
//! input; this graph belongs to one sheet, its keys are coordinates below
//! `MAX_ROWS`/`MAX_COLS`, and the worst a crafted document does is slow its
//! own recalculation. (PR 16 deleted an earlier `AddrHasher`: that one
//! served the per-address program memo in `compile`, which no longer
//! exists; the graph had always been on SipHash.) No result depends on
//! iteration order — it was per-process random before, it is fixed now,
//! and `order_subset` sorts every frontier either way.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{CellAddr, Range};
use crate::formula::Expr;

/// Multiply-rotate hasher for the graph's coordinate keys. Each `u32` of
/// the key (row, then column) is xored into the state and multiplied by an
/// odd constant. A multiply only mixes upwards — the low bits of `row * K`
/// are a function of the low bits of `row` — while hashbrown takes the
/// bucket from the *low* bits of the hash and its tag from the top seven.
/// So the state is rotated by half a word between the two coordinates (the
/// column meets the well-mixed half of the row's product, not its low
/// bits: without that, a block of 16 columns × 4 096 rows fills a third of
/// the buckets a random function would) and `finish` rotates the high half
/// down. `addr_hasher_spreads_coordinate_keys` holds it to a random
/// function's spread on the key families a sheet produces.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(32) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Not reached by the graph's keys (`u32` fields only); correct for
    /// any other.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;
type AddrSet = HashSet<CellAddr, BuildHasherDefault<AddrHasher>>;

/// The precedents of one formula.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Precedents {
    pub cells: Vec<CellAddr>,
    pub ranges: Vec<Range>,
}

impl Precedents {
    /// Extracts the precedents of an expression, in syntactic order.
    pub fn of(expr: &Expr) -> Self {
        let mut prec = Precedents::default();
        expr.visit_refs(&mut |c| prec.cells.push(c.addr), &mut |r| prec.ranges.push(r.range()));
        prec
    }

    /// Whether this precedent set covers the read window `w`: a single
    /// cell may be covered by a registered cell or by any registered range
    /// containing it; a multi-cell window needs one registered range
    /// containing it whole (corner containment suffices — ranges are
    /// axis-aligned rectangles). Containment, not equality, is the right
    /// relation for dirty-propagation soundness: any edit inside `w` also
    /// lands inside the covering range, so the watcher still fires. Used
    /// by `analyze::check_sheet`.
    pub fn covers(&self, w: Range) -> bool {
        if w.len() == 1 && self.cells.contains(&w.start) {
            return true;
        }
        self.ranges.iter().any(|r| r.contains(w.start) && r.contains(w.end))
    }
}

/// Ranges spanning more than this many columns are kept on a flat
/// overflow list instead of being fanned out into per-column buckets:
/// whole-row references would otherwise bucket into thousands of columns.
const WIDE_RANGE_COLS: u32 = 16;

/// Column-bucketed index over `(range, watcher)` pairs.
///
/// `dependents_of` is on the hot path of every edit (dirty propagation
/// starts there), so point queries must not scan every range formula on
/// the sheet. Narrow ranges are indexed under each column they cover as
/// `(start_row, end_row, watcher)` row intervals; point lookup touches
/// only the changed cell's column bucket plus the (rare) wide list.
#[derive(Debug, Clone, Default)]
struct RangeIndex {
    by_col: AddrMap<u32, Vec<(u32, u32, CellAddr)>>,
    wide: Vec<(Range, CellAddr)>,
}

impl RangeIndex {
    fn insert(&mut self, range: Range, watcher: CellAddr) {
        if range.end.col - range.start.col >= WIDE_RANGE_COLS {
            self.wide.push((range, watcher));
        } else {
            for col in range.start.col..=range.end.col {
                self.by_col
                    .entry(col)
                    .or_default()
                    .push((range.start.row, range.end.row, watcher));
            }
        }
    }

    /// Removes one entry matching `(range, watcher)` — the exact inverse
    /// of one `insert` call, so duplicate registrations stay balanced.
    fn remove(&mut self, range: Range, watcher: CellAddr) {
        if range.end.col - range.start.col >= WIDE_RANGE_COLS {
            if let Some(i) = self.wide.iter().position(|&(r, w)| r == range && w == watcher) {
                self.wide.remove(i);
            }
        } else {
            for col in range.start.col..=range.end.col {
                let Some(bucket) = self.by_col.get_mut(&col) else { continue };
                if let Some(i) = bucket
                    .iter()
                    .position(|&(lo, hi, w)| lo == range.start.row && hi == range.end.row && w == watcher)
                {
                    bucket.remove(i);
                }
                if bucket.is_empty() {
                    self.by_col.remove(&col);
                }
            }
        }
    }

    fn watchers_of(&self, addr: CellAddr, out: &mut Vec<CellAddr>) {
        if let Some(bucket) = self.by_col.get(&addr.col) {
            for &(lo, hi, watcher) in bucket {
                if (lo..=hi).contains(&addr.row) {
                    out.push(watcher);
                }
            }
        }
        for &(range, watcher) in &self.wide {
            if range.contains(addr) {
                out.push(watcher);
            }
        }
    }

    fn clear(&mut self) {
        self.by_col.clear();
        self.wide.clear();
    }
}

/// The dependency graph over formula cells.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// cell → formulae that reference it directly.
    dependents: AddrMap<CellAddr, Vec<CellAddr>>,
    /// Range references, indexed by column for point lookup.
    range_watchers: RangeIndex,
    /// formula → its precedents (for removal and ordering).
    precedents: AddrMap<CellAddr, Precedents>,
    /// The calc chain: the full plan of the last full pass, kept until the
    /// graph changes. `add`, `clear` and a `remove` that unregisters a
    /// formula drop it; recalc lends it out for a pass and takes it back
    /// (`take_chain`/`keep_chain`). An owned value, so `Sheet` stays `Send`.
    chain: Option<DirtyPlan>,
}

impl DepGraph {
    /// An empty graph.
    pub fn new() -> Self {
        DepGraph::default()
    }

    /// Number of registered formulae.
    pub fn len(&self) -> usize {
        self.precedents.len()
    }

    /// True when no formulae are registered.
    pub fn is_empty(&self) -> bool {
        self.precedents.is_empty()
    }

    /// Whether `addr` is a registered formula.
    pub fn contains(&self, addr: CellAddr) -> bool {
        self.precedents.contains_key(&addr)
    }

    /// Iterates registered formula addresses (unordered).
    pub fn formula_addrs(&self) -> impl Iterator<Item = CellAddr> + '_ {
        self.precedents.keys().copied()
    }

    /// The precedents of a registered formula.
    pub fn precedents_of(&self, addr: CellAddr) -> Option<&Precedents> {
        self.precedents.get(&addr)
    }

    /// Makes room for `formulas` more registrations, so a bulk load does
    /// not grow the map a doubling at a time.
    pub(crate) fn reserve(&mut self, formulas: usize) {
        self.precedents.reserve(formulas);
    }

    /// Registers (or re-registers) the formula at `addr`.
    pub fn add(&mut self, addr: CellAddr, expr: &Expr) {
        self.remove(addr);
        self.chain = None;
        let prec = Precedents::of(expr);
        for &p in &prec.cells {
            self.dependents.entry(p).or_default().push(addr);
        }
        for &r in &prec.ranges {
            self.range_watchers.insert(r, addr);
        }
        self.precedents.insert(addr, prec);
    }

    /// Unregisters the formula at `addr` (no-op when absent). Cost is
    /// proportional to the formula's own precedents — the range index is
    /// unwound entry by entry, never scanned wholesale.
    pub fn remove(&mut self, addr: CellAddr) {
        let Some(prec) = self.precedents.remove(&addr) else {
            return;
        };
        self.chain = None;
        for p in &prec.cells {
            if let Some(deps) = self.dependents.get_mut(p) {
                deps.retain(|&d| d != addr);
                if deps.is_empty() {
                    self.dependents.remove(p);
                }
            }
        }
        for &r in &prec.ranges {
            self.range_watchers.remove(r, addr);
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.dependents.clear();
        self.range_watchers.clear();
        self.precedents.clear();
        self.chain = None;
    }

    /// Lends out the calc chain, ordering every formula first when none is
    /// held. [`DepGraph::keep_chain`] takes it back after the pass.
    pub(crate) fn take_chain(&mut self) -> DirtyPlan {
        self.chain.take().unwrap_or_else(|| self.full_order())
    }

    /// Holds `plan`, the full plan of the graph as it stands, as the calc
    /// chain until the graph next changes.
    pub(crate) fn keep_chain(&mut self, plan: DirtyPlan) {
        self.chain = Some(plan);
    }

    /// The calc chain, when one is held.
    pub(crate) fn chain(&self) -> Option<&DirtyPlan> {
        self.chain.as_ref()
    }

    /// Appends the formulae that directly depend on `addr` to `out`.
    pub fn dependents_of(&self, addr: CellAddr, out: &mut Vec<CellAddr>) {
        if let Some(deps) = self.dependents.get(&addr) {
            out.extend_from_slice(deps);
        }
        self.range_watchers.watchers_of(addr, out);
    }

    /// Computes the transitive dirty set reachable from `changed` and
    /// returns it in a safe evaluation order (precedents before
    /// dependents). Formulae on a dependency cycle are returned separately.
    ///
    /// The changed cells themselves are included in the dirty set only when
    /// they are formulae.
    pub fn dirty_order(&self, changed: &[CellAddr]) -> DirtyPlan {
        // 1. BFS over dependents.
        let mut dirty = AddrSet::default();
        let mut queue: VecDeque<CellAddr> = VecDeque::new();
        let mut scratch: Vec<CellAddr> = Vec::new();
        for &c in changed {
            if self.contains(c) && dirty.insert(c) {
                queue.push_back(c);
            }
            scratch.clear();
            self.dependents_of(c, &mut scratch);
            for &d in &scratch {
                if dirty.insert(d) {
                    queue.push_back(d);
                }
            }
        }
        while let Some(f) = queue.pop_front() {
            scratch.clear();
            self.dependents_of(f, &mut scratch);
            for &d in &scratch {
                if dirty.insert(d) {
                    queue.push_back(d);
                }
            }
        }
        self.order_subset(dirty.iter().copied(), |a| dirty.contains(a))
    }

    /// Orders every registered formula: the plan of a full recalculation.
    /// Recomputed on every call; the recalc keeps its result as the calc
    /// chain until the graph changes.
    pub fn full_order(&self) -> DirtyPlan {
        self.order_subset(self.precedents.keys().copied(), |a| self.precedents.contains_key(a))
    }

    /// Kahn's algorithm over the sub-graph induced by `subset`, whose
    /// membership `in_subset` answers.
    fn order_subset(
        &self,
        subset: impl ExactSizeIterator<Item = CellAddr> + Clone,
        in_subset: impl Fn(&CellAddr) -> bool,
    ) -> DirtyPlan {
        let len = subset.len();
        // Index subset formula cells by column with sorted rows, so range
        // precedents can locate contained subset formulae by binary search
        // instead of scanning the whole range or the whole subset.
        let mut by_col: AddrMap<u32, Vec<u32>> = AddrMap::default();
        for a in subset.clone() {
            by_col.entry(a.col).or_default().push(a.row);
        }
        for rows in by_col.values_mut() {
            rows.sort_unstable();
        }

        // In-degree and adjacency within the subset. A formula's in-degree
        // is final once its own precedents are counted, so the ready
        // frontier is seeded in the same walk.
        let mut indeg: AddrMap<CellAddr, u32> =
            AddrMap::with_capacity_and_hasher(len, Default::default());
        let mut edges: AddrMap<CellAddr, Vec<CellAddr>> = AddrMap::default();
        let mut frontier: Vec<CellAddr> = Vec::new();
        for f in subset {
            let mut d = 0;
            if let Some(prec) = self.precedents.get(&f) {
                for &p in &prec.cells {
                    if in_subset(&p) {
                        // Self-references (p == f) register an in-degree
                        // that is never released, correctly classifying
                        // the formula as cyclic.
                        edges.entry(p).or_default().push(f);
                        d += 1;
                    }
                }
                for &r in &prec.ranges {
                    for c in r.start.col..=r.end.col {
                        let Some(rows) = by_col.get(&c) else { continue };
                        let lo = rows.partition_point(|&row| row < r.start.row);
                        let hi = rows.partition_point(|&row| row <= r.end.row);
                        for &row in &rows[lo..hi] {
                            edges.entry(CellAddr::new(row, c)).or_default().push(f);
                            d += 1;
                        }
                    }
                }
            }
            indeg.insert(f, d);
            if d == 0 {
                frontier.push(f);
            }
        }

        // Wave-synchronous Kahn: process the entire ready frontier as one
        // topological *level* before admitting its successors. Level k
        // therefore holds exactly the formulae whose longest in-subset
        // precedent chain has length k — within a level no formula reads
        // another, so no store of a level lands in a window another
        // formula of that level reads, and the recalc slides one delta
        // cache across each level.
        let mut order: Vec<CellAddr> = Vec::with_capacity(len);
        let mut level_starts: Vec<usize> = Vec::new();
        waves(frontier, &edges, &mut indeg, &mut order, &mut level_starts);
        if order.len() == len {
            return DirtyPlan { order, level_starts, cyclic: Vec::new() };
        }
        // Kahn stalled: what is left lies on a cycle or downstream of one
        // (exactly the formulas whose in-degree never reached zero). Only
        // the cycle members are `#CIRC!`; the recalc stores them before its
        // levels run, so the rest is ordered with their edges treated as
        // satisfied and reads `#CIRC!` like any other error.
        let stalled: Vec<CellAddr> =
            indeg.iter().filter(|&(_, &d)| d > 0).map(|(&a, _)| a).collect();
        let mut cyclic = on_cycles(&stalled, &edges);
        let on_cycle: AddrSet = cyclic.iter().copied().collect();
        let mut frontier = Vec::new();
        for &n in cyclic.iter().filter_map(|c| edges.get(c)).flatten() {
            if on_cycle.contains(&n) {
                continue;
            }
            let d = indeg.get_mut(&n).expect("node in subset");
            *d -= 1;
            if *d == 0 {
                frontier.push(n);
            }
        }
        waves(frontier, &edges, &mut indeg, &mut order, &mut level_starts);
        cyclic.sort_unstable();
        DirtyPlan { order, level_starts, cyclic }
    }
}

/// Runs Kahn's waves from `frontier`, appending one level per wave.
fn waves(
    mut frontier: Vec<CellAddr>,
    edges: &AddrMap<CellAddr, Vec<CellAddr>>,
    indeg: &mut AddrMap<CellAddr, u32>,
    order: &mut Vec<CellAddr>,
    level_starts: &mut Vec<usize>,
) {
    // Deterministic order regardless of hash iteration.
    frontier.sort_unstable();
    while !frontier.is_empty() {
        level_starts.push(order.len());
        let mut newly: Vec<CellAddr> = Vec::new();
        for &f in &frontier {
            order.push(f);
            let Some(next) = edges.get(&f) else { continue };
            for &n in next {
                let d = indeg.get_mut(&n).expect("node in subset");
                *d -= 1;
                if *d == 0 {
                    newly.push(n);
                }
            }
        }
        newly.sort_unstable();
        frontier = newly;
    }
}

/// The formulae of `stalled` that lie on a cycle: the members of every
/// strongly connected component of more than one formula or with an edge
/// to itself (Tarjan's algorithm, iterative). Every successor of a stalled
/// formula is stalled too, so the walk never leaves the set.
fn on_cycles(stalled: &[CellAddr], edges: &AddrMap<CellAddr, Vec<CellAddr>>) -> Vec<CellAddr> {
    let succ = |v: CellAddr| edges.get(&v).map_or(&[][..], Vec::as_slice);
    // Per visited formula: its discovery index, the lowest index it
    // reaches, and whether it is still on the component stack.
    let mut index: AddrMap<CellAddr, (usize, usize, bool)> = AddrMap::default();
    let (mut stack, mut out) = (Vec::new(), Vec::new());
    let visit = |v: CellAddr, index: &mut AddrMap<_, _>, stack: &mut Vec<CellAddr>| {
        let i = index.len();
        index.insert(v, (i, i, true));
        stack.push(v);
    };
    for &root in stalled {
        if index.contains_key(&root) {
            continue;
        }
        visit(root, &mut index, &mut stack);
        let mut calls: Vec<(CellAddr, usize)> = vec![(root, 0)];
        while let Some(&(v, i)) = calls.last() {
            if let Some(&w) = succ(v).get(i) {
                let top = calls.len() - 1;
                calls[top].1 += 1;
                match index.get(&w) {
                    None => {
                        visit(w, &mut index, &mut stack);
                        calls.push((w, 0));
                    }
                    Some(&(wi, _, true)) => {
                        let low = &mut index.get_mut(&v).expect("visited").1;
                        *low = (*low).min(wi);
                    }
                    Some(_) => {}
                }
                continue;
            }
            calls.pop();
            let (vi, vlow, _) = index[&v];
            if let Some(&(u, _)) = calls.last() {
                let low = &mut index.get_mut(&u).expect("visited").1;
                *low = (*low).min(vlow);
            }
            if vi == vlow {
                let start = stack.iter().rposition(|&w| w == v).expect("on the stack");
                let component = stack.split_off(start);
                for w in &component {
                    index.get_mut(w).expect("visited").2 = false;
                }
                if component.len() > 1 || succ(v).contains(&v) {
                    out.extend(component);
                }
            }
        }
    }
    out
}

/// The result of dirty-set planning: formulae in evaluation order, plus any
/// formulae on dependency cycles.
///
/// The order is stratified into topological levels: `level_starts[k]` is
/// the index in `order` where level `k` begins, and every formula in a
/// level depends only on formulae in strictly earlier levels, so no
/// formula's result can land inside the read window of another formula of
/// its own level (which is what lets recalc slide one delta cache across a
/// level).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirtyPlan {
    /// Formulae to evaluate, precedents-first, grouped by level.
    pub order: Vec<CellAddr>,
    /// Start index in `order` of each topological level (first entry 0
    /// whenever `order` is non-empty).
    pub level_starts: Vec<usize>,
    /// Formulae on a cycle — every member of a strongly connected
    /// component of more than one formula, or with an edge to itself — to
    /// be marked `#CIRC!` before the levels run. A formula downstream of a
    /// cycle is in `order`, after it. A dirty set is closed under
    /// dependents, so it holds every cycle through its members whole: a
    /// dirty plan marks and orders what the full plan does.
    pub cyclic: Vec<CellAddr>,
}

impl DirtyPlan {
    /// Number of topological levels.
    pub fn level_count(&self) -> usize {
        self.level_starts.len()
    }

    /// Iterates the levels as slices of `order`, precedents-first.
    pub fn levels(&self) -> impl Iterator<Item = &[CellAddr]> {
        (0..self.level_starts.len()).map(move |k| self.level(k))
    }

    /// The `k`-th level as a slice of `order`.
    pub fn level(&self, k: usize) -> &[CellAddr] {
        let start = self.level_starts[k];
        let end = self.level_starts.get(k + 1).copied().unwrap_or(self.order.len());
        &self.order[start..end]
    }

    /// Size of the widest level: how many formulas one delta cache and one
    /// set of pinned windows serve.
    pub fn max_level_width(&self) -> usize {
        self.levels().map(<[CellAddr]>::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::parse;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse(s).unwrap()
    }

    fn graph(entries: &[(&str, &str)]) -> DepGraph {
        let mut g = DepGraph::new();
        for (addr, src) in entries {
            g.add(a(addr), &parse(src).unwrap());
        }
        g
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut g = graph(&[("B1", "A1+A2")]);
        assert!(g.contains(a("B1")));
        let mut deps = Vec::new();
        g.dependents_of(a("A1"), &mut deps);
        assert_eq!(deps, vec![a("B1")]);
        g.remove(a("B1"));
        assert!(g.is_empty());
        deps.clear();
        g.dependents_of(a("A1"), &mut deps);
        assert!(deps.is_empty());
    }

    #[test]
    fn range_watchers_fire_for_contained_cells() {
        let g = graph(&[("C1", "SUM(A1:A10)")]);
        let mut deps = Vec::new();
        g.dependents_of(a("A5"), &mut deps);
        assert_eq!(deps, vec![a("C1")]);
        deps.clear();
        g.dependents_of(a("B5"), &mut deps);
        assert!(deps.is_empty());
    }

    #[test]
    fn dirty_order_respects_chains() {
        // C1 = B1+1, B1 = A1+1: editing A1 must order B1 before C1.
        let g = graph(&[("C1", "B1+1"), ("B1", "A1+1")]);
        let plan = g.dirty_order(&[a("A1")]);
        assert_eq!(plan.order, vec![a("B1"), a("C1")]);
        assert!(plan.cyclic.is_empty());
    }

    #[test]
    fn dirty_order_through_ranges() {
        // B1 = SUM(A1:A3); C1 = B1*2. Editing A2 dirties both, in order.
        let g = graph(&[("B1", "SUM(A1:A3)"), ("C1", "B1*2")]);
        let plan = g.dirty_order(&[a("A2")]);
        assert_eq!(plan.order, vec![a("B1"), a("C1")]);
    }

    #[test]
    fn range_over_formula_cells_creates_edges() {
        // A1, A2 are formulas; B1 = SUM(A1:A2) must come after both.
        let g = graph(&[("A1", "1+1"), ("A2", "A1+1"), ("B1", "SUM(A1:A2)")]);
        let plan = g.full_order();
        let pos =
            |addr: CellAddr| plan.order.iter().position(|&x| x == addr).expect("in order");
        assert!(pos(a("A1")) < pos(a("A2")));
        assert!(pos(a("A2")) < pos(a("B1")));
    }

    #[test]
    fn cycles_are_reported() {
        let g = graph(&[("A1", "B1+1"), ("B1", "A1+1"), ("C1", "5+1")]);
        let plan = g.full_order();
        assert_eq!(plan.order, vec![a("C1")]);
        assert_eq!(plan.cyclic, vec![a("A1"), a("B1")]);
    }

    #[test]
    fn self_reference_is_cyclic() {
        let g = graph(&[("A1", "A1+1")]);
        let plan = g.dirty_order(&[a("A1")]);
        assert!(plan.order.is_empty());
        assert_eq!(plan.cyclic, vec![a("A1")]);
    }

    #[test]
    fn changed_value_cell_is_not_in_order() {
        let g = graph(&[("B1", "A1+1")]);
        let plan = g.dirty_order(&[a("A1")]);
        assert_eq!(plan.order, vec![a("B1")]);
    }

    #[test]
    fn reregistering_replaces_precedents() {
        let mut g = graph(&[("B1", "A1+1")]);
        g.add(a("B1"), &parse("A2+1").unwrap());
        let mut deps = Vec::new();
        g.dependents_of(a("A1"), &mut deps);
        assert!(deps.is_empty());
        g.dependents_of(a("A2"), &mut deps);
        assert_eq!(deps, vec![a("B1")]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn cumulative_chain_orders_linearly() {
        // The Fig-11 "reusable" pattern: C1=A1, Ci = Ai + C(i-1).
        let mut g = DepGraph::new();
        g.add(a("C1"), &parse("A1").unwrap());
        for i in 2..=50u32 {
            g.add(
                CellAddr::new(i - 1, 2),
                &parse(&format!("A{i}+C{}", i - 1)).unwrap(),
            );
        }
        let plan = g.dirty_order(&[a("A1")]);
        assert_eq!(plan.order.len(), 50);
        for (i, addr) in plan.order.iter().enumerate() {
            assert_eq!(*addr, CellAddr::new(i as u32, 2));
        }
        // A pure chain stratifies into one formula per level.
        assert_eq!(plan.level_count(), 50);
        assert_eq!(plan.max_level_width(), 1);
    }

    #[test]
    fn levels_partition_order_and_respect_dependencies() {
        // Two independent chains plus a join:
        //   B1=A1, C1=B1 and B2=A1, C2=B2, D1=C1+C2.
        let g = graph(&[
            ("B1", "A1+1"),
            ("C1", "B1+1"),
            ("B2", "A1+2"),
            ("C2", "B2+2"),
            ("D1", "C1+C2"),
        ]);
        let plan = g.dirty_order(&[a("A1")]);
        assert_eq!(plan.levels().collect::<Vec<_>>(), vec![
            &[a("B1"), a("B2")][..],
            &[a("C1"), a("C2")][..],
            &[a("D1")][..],
        ]);
        // level_starts indexes a partition of `order`.
        assert_eq!(plan.level_starts[0], 0);
        assert_eq!(plan.levels().map(<[CellAddr]>::len).sum::<usize>(), plan.order.len());
        assert_eq!(plan.max_level_width(), 2);
    }

    /// 2 000 formulas of every edge shape — a running-total chain, sliding
    /// windows over that chain (range edges onto formula cells), a fan-in
    /// through an absolute cell, and a three-formula cycle (F1:F3) with a
    /// chain of 497 dependents below it — registered in `order`.
    fn mixed_graph(order: impl Iterator<Item = u32>) -> DepGraph {
        let src = |i: u32| -> (CellAddr, String) {
            let (k, row) = (i / 4, i / 4 + 1);
            match (i % 4, k) {
                (0, 0) => (CellAddr::new(0, 2), "A1".into()),
                (0, _) => (CellAddr::new(k, 2), format!("A{row}+C{k}")),
                (1, _) => {
                    (CellAddr::new(k, 3), format!("SUM(C{}:C{row})", row.saturating_sub(5).max(1)))
                }
                (2, _) => (CellAddr::new(k, 4), format!("D{row}*2+$C$1")),
                (_, 0) => (CellAddr::new(0, 5), "F2+1".into()),
                (_, 1) => (CellAddr::new(1, 5), "F3+1".into()),
                (_, 2) => (CellAddr::new(2, 5), "F1+E3".into()),
                (_, _) => (CellAddr::new(k, 5), format!("F{k}+B{row}")),
            }
        };
        let mut g = DepGraph::new();
        for i in order {
            let (addr, text) = src(i);
            g.add(addr, &parse(&text).unwrap());
        }
        g
    }

    /// Maps iterate in an order that depends on how they were filled; no
    /// plan may. Two fills of the same graph — forwards, and in a stride
    /// that scatters neighbours — must plan identically.
    #[test]
    fn plans_do_not_depend_on_insertion_order() {
        let forwards = mixed_graph(0..2000);
        let scattered = mixed_graph((0..2000).map(|i| (i * 1441 + 17) % 2000));
        assert_eq!(forwards.len(), 2000);
        assert_eq!(scattered.len(), 2000);
        let full = forwards.full_order();
        assert_eq!(full, scattered.full_order());
        // F1:F3 are the cycle; the rest of column F orders below it.
        assert_eq!(full.cyclic, vec![a("F1"), a("F2"), a("F3")]);
        assert_eq!(full.order.len(), 1997);
        assert!(full.level_count() >= 500, "the running total is a chain");
        for changed in [&[a("A1")][..], &[a("A250"), a("C10")], &[a("B400")], &[a("E3")]] {
            let plan = forwards.dirty_order(changed);
            assert_eq!(plan, scattered.dirty_order(changed), "{changed:?}");
            assert!(!plan.order.is_empty() || !plan.cyclic.is_empty(), "{changed:?}");
        }
    }

    /// The calc chain lives until the graph changes: re-adding a formula,
    /// removing one and clearing drop it, removing an address that holds
    /// no formula (what every `set_value` does) keeps it, and a chain the
    /// graph holds is always the full order of the graph as it stands.
    #[test]
    fn the_calc_chain_is_dropped_by_exactly_the_changes_to_the_graph() {
        fn pass(g: &mut DepGraph) {
            let chain = g.take_chain();
            assert_eq!(chain, g.full_order());
            g.keep_chain(chain);
        }
        fn held(g: &DepGraph, step: &str) -> bool {
            if let Some(chain) = g.chain() {
                assert_eq!(*chain, g.full_order(), "{step}");
            }
            g.chain().is_some()
        }
        let mut g = mixed_graph(0..2000);
        assert!(!held(&g, "registered"));
        pass(&mut g);
        assert!(held(&g, "after a pass"));
        assert_eq!(g.chain().unwrap().cyclic, vec![a("F1"), a("F2"), a("F3")]);

        g.add(a("C10"), &parse("A10+C9").unwrap());
        assert!(!held(&g, "re-added"));
        pass(&mut g);
        assert!(held(&g, "re-added, then a pass"));

        g.remove(a("F2"));
        assert!(!held(&g, "removed a formula"));
        pass(&mut g);
        assert!(held(&g, "removed a formula, then a pass"));
        assert!(g.chain().unwrap().cyclic.is_empty(), "removing F2 broke the cycle");

        g.remove(a("A5"));
        assert!(held(&g, "removed a value address"));

        g.clear();
        assert!(!held(&g, "cleared"));
        pass(&mut g);
        assert_eq!(g.chain(), Some(&DirtyPlan::default()));
    }

    /// hashbrown buckets on the low bits of the hash and tags with the top
    /// seven. For the key families a sheet produces — a column of
    /// consecutive rows, a row of consecutive columns, blocks of a few
    /// columns, every other row, chunk-aligned rows, bare column numbers —
    /// both must spread as a random function's would: 2^16 keys hit
    /// 1 − 1/e ≈ 63 % of 2^16 buckets (41 400) and every tag.
    #[test]
    fn addr_hasher_spreads_coordinate_keys() {
        use std::hash::{BuildHasher, Hash};
        fn spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
            let build = BuildHasherDefault::<AddrHasher>::default();
            let (mut buckets, mut tags) = (HashSet::new(), HashSet::new());
            for key in keys {
                let h = build.hash_one(key);
                buckets.insert(h & 0xFFFF);
                tags.insert(h >> 57);
            }
            assert!(buckets.len() > 38_000, "{what}: {} of 65536 buckets", buckets.len());
            assert_eq!(tags.len(), 128, "{what}: tags");
        }
        spread("a column", (0..1 << 16).map(|r| CellAddr::new(r, 3)));
        spread("a row", (0..1 << 16).map(|c| CellAddr::new(7, c)));
        for width in [4, 16, 256] {
            let block = (0..1 << 16).map(|i| CellAddr::new(1000 + i / width, 20 + i % width));
            spread(&format!("a block {width} wide"), block);
        }
        spread("every other row", (0..1 << 16).map(|i| CellAddr::new(i * 2, 5)));
        spread("chunk starts", (0..1 << 16).map(|i| CellAddr::new(i * 1024, 0)));
        spread("column numbers", 0..1u32 << 16);
    }

    /// Reference implementation: the answer `dependents_of` must give for
    /// range precedents, derived by scanning every formula's own ranges.
    fn linear_range_watchers(g: &DepGraph, addr: CellAddr) -> Vec<CellAddr> {
        let mut out: Vec<CellAddr> = g
            .formula_addrs()
            .filter(|&f| {
                g.precedents_of(f)
                    .is_some_and(|p| p.ranges.iter().any(|r| r.contains(addr)))
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn bucketed_range_index_agrees_with_linear_scan() {
        // Mix of narrow ranges, duplicate ranges, overlapping ranges, and
        // a wide range that lands on the overflow list.
        let g = graph(&[
            ("F1", "SUM(A1:A100)"),
            ("F2", "SUM(A50:C150)"),
            ("F3", "SUM(A1:A100)+SUM(B1:B10)"),
            ("F4", "SUM(A1:Z5)"), // 26 columns: wide
            ("F5", "SUM(C3:C3)"),
            ("F6", "COUNT(B5:D60)"),
        ]);
        for addr in [
            a("A1"), a("A50"), a("A100"), a("A101"), a("B1"), a("B5"), a("B10"),
            a("B11"), a("C3"), a("C150"), a("D60"), a("Z5"), a("Z6"), a("AA1"),
        ] {
            let mut bucketed = Vec::new();
            g.dependents_of(addr, &mut bucketed);
            bucketed.sort_unstable();
            assert_eq!(
                bucketed,
                linear_range_watchers(&g, addr),
                "disagreement at {addr:?}"
            );
        }
    }

    #[test]
    fn reregistering_formula_with_changed_ranges_unwinds_index() {
        let mut g = graph(&[("F1", "SUM(A1:A10)+SUM(A1:Z2)")]);
        // Replace both the narrow and the wide range with new ones.
        g.add(a("F1"), &parse("SUM(B1:B5)+SUM(B1:Z9)").unwrap());
        let mut deps = Vec::new();
        g.dependents_of(a("A5"), &mut deps); // old narrow range only
        assert!(deps.is_empty(), "stale narrow entry: {deps:?}");
        g.dependents_of(a("A2"), &mut deps); // old narrow + old wide range
        assert!(deps.is_empty(), "stale wide entry: {deps:?}");
        g.dependents_of(a("B3"), &mut deps); // both new ranges
        assert_eq!(deps, vec![a("F1"), a("F1")]);
        deps.clear();
        g.dependents_of(a("M9"), &mut deps); // new wide range only
        assert_eq!(deps, vec![a("F1")]);
        // Full removal leaves the index truly empty.
        g.remove(a("F1"));
        assert!(g.is_empty());
        assert!(g.range_watchers.by_col.is_empty());
        assert!(g.range_watchers.wide.is_empty());
    }
}
