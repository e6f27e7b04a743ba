//! Replays a [`Script`] across the configuration matrix — plus once on
//! the reference evaluator ([`recalc::recalc_reference`], the tree-walking
//! interpreter), which every replay's outcomes and digests are compared
//! against — and checks everything that is *specified* to be
//! configuration-independent:
//!
//! * per-op outcomes (sort permutations, filter visibility, pivot tables);
//! * a per-op digest of every stored value, the hidden-row set and every
//!   fill, so two configurations cannot briefly diverge and reconverge
//!   unnoticed;
//! * the final workbook (input texts and bit-exact values);
//! * the final workbook *reopened*: `io::open(&io::save(&sheet))` +
//!   `open_recalc` under the configuration's budget must save
//!   to the same document and — unless a volatile formula is on the sheet
//!   — hold bit-identical values, so every script also drives the bulk
//!   load (DESIGN.md §17) and the save/open type round trip;
//! * trace span-tree signatures, within groups that share the settings
//!   which legitimately change the work done (lookup strategy changes
//!   read counts, incremental recalc changes which formulas run) —
//!   across budgets the trees must be identical;
//! * per-op structural invariants on every configuration: the dep-graph
//!   audit and finite-grid check ([`ssbench_engine::audit`]), plus "the
//!   sheet keeps its configured lookup strategy, auto-index flag and grid
//!   budget" — the two regressions this oracle exists to catch (see
//!   `tests/corpus/`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use ssbench_engine::addr::{CellAddr, Range};
use ssbench_engine::analyze::{self, TemplateReport};
use ssbench_engine::audit;
use ssbench_engine::eval::LookupStrategy;
use ssbench_engine::io;
use ssbench_engine::ops::{Op, PivotAgg, SortKey};
use ssbench_engine::recalc;
use ssbench_engine::sheet::{Layout, Sheet};
use ssbench_engine::trace;
use ssbench_engine::value::{Criterion, Value};
use ssbench_engine::style::Color;

use super::gen;
use super::script::{Script, ScriptOp};

/// One cell of the configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Lookup/scan strategy (§6's variable).
    pub lookup: LookupStrategy,
    /// Recalculate incrementally from each edit's dirty set instead of
    /// the whole sheet (Figs 13–14's variable).
    pub incremental: bool,
    /// Maintain auto-built column indexes and let COUNTIF/SUMIF/VLOOKUP/
    /// MATCH answer through them (the fourth system's variable). Indexed
    /// probes must produce bit-identical values, and the indexes must ride
    /// every structural edit (insert/delete/sort) without drifting from
    /// the grid.
    pub indexed: bool,
    /// Grid resident-byte budget (the spill-to-disk buffer pool's
    /// variable). A deliberately tiny cap forces constant spill/fault
    /// churn through every replayed op; values, digests, and meter counts
    /// must be bit-identical to the unbounded configurations — spilling
    /// is purely a memory-placement concern.
    pub budget: Option<usize>,
}

impl OracleConfig {
    /// Compact label for failure messages, e.g.
    /// `opt-lookup/inc/ix/cap32k`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            match self.lookup {
                LookupStrategy::FullScan => "naive-lookup",
                LookupStrategy::StopEarly => "opt-lookup",
            },
            if self.incremental { "inc" } else { "full" },
            if self.indexed { "ix" } else { "noix" },
            if self.budget.is_some() { "cap32k" } else { "nocap" },
        )
    }

    /// Settings that legitimately change the *work performed* (and thus
    /// trace signatures and meter counts). Configurations sharing this key
    /// must produce identical span trees. Indexing is part of the key
    /// because index builds and probes replace scan reads (IndexProbe vs
    /// CellRead); within the indexed half the replays must still be
    /// deterministic. The grid budget is deliberately NOT part of the key:
    /// spilling and faulting never touch the meter, so a capped replay must
    /// produce the same span signatures as its unbounded twin.
    fn signature_group(&self) -> (bool, bool, bool) {
        (self.incremental, self.lookup == LookupStrategy::StopEarly, self.indexed)
    }
}

/// Label of the reference replay in failure messages: the plainest
/// configuration (`matrix()[0]`), every formula evaluated by the
/// tree-walking interpreter instead of the shipped compiled path.
const REFERENCE_LABEL: &str = "reference";

/// The configuration matrix of the shipped engine: 2 lookup strategies ×
/// full/incremental × indexed or not × unbounded/32 KB grid budget. The
/// first entry is the plainest one; the reference replay runs on it too.
pub fn matrix() -> Vec<OracleConfig> {
    // Small enough that even the oracle's little workbooks overflow it
    // (each typed chunk page is ~8 KB), so the capped half of the matrix
    // actually exercises spill/fault during the replay.
    let cap = Some(32 * 1024);
    let mut out = Vec::new();
    for lookup in [LookupStrategy::FullScan, LookupStrategy::StopEarly] {
        for incremental in [false, true] {
            for indexed in [false, true] {
                for budget in [None, cap] {
                    out.push(OracleConfig { lookup, incremental, indexed, budget });
                }
            }
        }
    }
    out
}

/// A divergence or invariant violation found by the oracle.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Label of the offending configuration (or pair, for divergences).
    pub config: String,
    /// Index of the op after which the problem appeared, when localized.
    pub op_index: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "[{}] after op #{i}: {}", self.config, self.detail),
            None => write!(f, "[{}]: {}", self.config, self.detail),
        }
    }
}

/// Everything one configuration's replay produced, reduced to the
/// comparable essentials.
struct Replay {
    /// Per-op `(outcome, grid digest)`.
    per_op: Vec<(String, u64)>,
    /// Final workbook as input text.
    final_inputs: Vec<Vec<String>>,
    /// Final bit-exact value digest.
    final_digest: u64,
    /// Concatenated root-span signatures of the op replay.
    signature: String,
}

/// Which cells an op dirtied, for the incremental recalc policy.
enum Dirty {
    /// Nothing value-bearing changed; skip recalculation.
    None,
    /// Exactly these cells changed; incremental configs recalc from them.
    Cells(Vec<CellAddr>),
    /// References were rewritten or rows moved; all configs recalc fully.
    Full,
}

/// Tracing is process-global state; oracle replays capture span trees, so
/// two concurrent `check_script` calls (e.g. `cargo test` threads) must
/// not interleave enable/disable.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Replays `script` on the reference evaluator and under every
/// configuration in [`matrix`], and returns the first divergence or
/// invariant violation, if any.
pub fn check_script(script: &Script) -> Result<(), Failure> {
    let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let configs = matrix();
    let ref_run = replay(script, configs[0], true)?;
    let mut replays = Vec::with_capacity(configs.len());
    for config in &configs {
        replays.push(replay(script, *config, false)?);
    }
    drop(guard);

    // Outcome + value digests: every shipped replay equals the reference.
    for (config, run) in configs.iter().zip(&replays) {
        let pair = format!("{REFERENCE_LABEL} vs {}", config.label());
        for (i, (a, b)) in ref_run.per_op.iter().zip(&run.per_op).enumerate() {
            if a.0 != b.0 {
                return Err(Failure {
                    config: pair,
                    op_index: Some(i),
                    detail: format!("op outcomes diverge: {} != {}", a.0, b.0),
                });
            }
            if a.1 != b.1 {
                return Err(Failure {
                    config: pair,
                    op_index: Some(i),
                    detail: "grid digests diverge".to_owned(),
                });
            }
        }
        if ref_run.final_inputs != run.final_inputs {
            return Err(Failure {
                config: pair,
                op_index: None,
                detail: "final workbooks diverge (input text)".to_owned(),
            });
        }
        if ref_run.final_digest != run.final_digest {
            return Err(Failure {
                config: pair,
                op_index: None,
                detail: "final workbooks diverge (values)".to_owned(),
            });
        }
    }

    // Span signatures: identical within each (recalc mode, lookup,
    // indexed) group of shipped replays.
    let mut groups: HashMap<(bool, bool, bool), (String, &str)> = HashMap::new();
    for (config, run) in configs.iter().zip(&replays) {
        match groups.get(&config.signature_group()) {
            None => {
                groups.insert(
                    config.signature_group(),
                    (config.label(), run.signature.as_str()),
                );
            }
            Some((first_label, first_sig)) => {
                if *first_sig != run.signature {
                    return Err(Failure {
                        config: format!("{} vs {}", first_label, config.label()),
                        op_index: None,
                        detail: "trace span signatures diverge".to_owned(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Replays one configuration, enforcing per-op invariants as it goes. The
/// `reference` replay differs in exactly one thing: every recalculation is
/// a full [`recalc::recalc_reference`] pass.
fn replay(script: &Script, config: OracleConfig, reference: bool) -> Result<Replay, Failure> {
    let fail = |op_index: Option<usize>, detail: String| Failure {
        config: if reference { REFERENCE_LABEL.to_owned() } else { config.label() },
        op_index,
        detail,
    };
    let recalc = |sheet: &mut Sheet, changed: Option<&[CellAddr]>| {
        if reference {
            recalc::recalc_reference(sheet, None);
        } else if let (true, Some(cells)) = (config.incremental, changed) {
            recalc::recalc_from(sheet, cells);
        } else {
            recalc::recalc_all(sheet);
        }
    };

    let mut sheet = gen::build_workbook(script);
    sheet.set_grid_budget(config.budget);
    sheet.set_lookup_strategy(config.lookup);
    // Indexed configs auto-maintain column indexes from here on: every
    // recalc entry point re-registers and rebuilds as needed, and every
    // value write routes through the maintenance hook.
    sheet.set_auto_index(config.indexed);
    recalc(&mut sheet, None);

    // Capture spans for the op replay only (workbook construction is
    // already covered by the digest of the state after op 0).
    trace::clear();
    trace::enable(trace::DEFAULT_CAPACITY);
    let mut per_op = Vec::with_capacity(script.ops.len());
    for (i, op) in script.ops.iter().enumerate() {
        let (outcome, dirty) =
            apply_script_op(&mut sheet, op).map_err(|e| fail(Some(i), e))?;
        match dirty {
            Dirty::None => {}
            Dirty::Full => recalc(&mut sheet, None),
            Dirty::Cells(cells) => {
                recalc(&mut sheet, Some(&cells));
                if config.incremental && !reference {
                    check_full_recalc_agrees(&sheet, config).map_err(|e| fail(Some(i), e))?;
                }
            }
        }
        check_invariants(&sheet, config).map_err(|e| fail(Some(i), e))?;
        per_op.push((outcome, grid_digest(&sheet)));
    }
    let signature: String =
        trace::drain().iter().map(|s| s.signature()).collect::<Vec<_>>().join("\n");
    trace::disable();

    let saved = io::save(&sheet);
    check_reopen(&saved, &sheet, config, reference).map_err(|e| fail(None, e))?;
    Ok(Replay {
        per_op,
        final_inputs: saved.rows,
        final_digest: grid_digest(&sheet),
        signature,
    })
}

/// Opens the document `sheet` was just saved to, under the same
/// configuration, and holds the reopened sheet to every per-op invariant,
/// to saving as the same document (formula texts and value types made the
/// trip), and to the values `sheet` holds. What a document does not carry
/// is not compared: fills, filter flags, names (a formula has its names
/// resolved when it is entered). A sheet with a volatile formula is
/// reopened and checked but its values are not compared.
fn check_reopen(
    saved: &io::SheetData,
    sheet: &Sheet,
    config: OracleConfig,
    reference: bool,
) -> Result<(), String> {
    let mut reopened = io::open(saved, Layout::RowMajor)
        .map_err(|e| format!("reopen: the saved workbook does not open: {e}"))?;
    reopened.set_grid_budget(config.budget);
    reopened.set_lookup_strategy(config.lookup);
    reopened.set_auto_index(config.indexed);
    reopened.set_now_serial(sheet.now_serial());
    if reference {
        recalc::recalc_reference(&mut reopened, None);
    } else {
        recalc::open_recalc(&mut reopened);
    }
    let templates =
        check_invariants(&reopened, config).map_err(|e| format!("reopen: {e}"))?;
    if io::save(&reopened) != *saved {
        return Err("reopen: the reopened workbook saves to a different document".to_owned());
    }
    if templates.iter().any(|t| t.volatile) {
        return Ok(());
    }
    if value_digest(&reopened) != value_digest(sheet) {
        return Err("reopen: values diverge from the workbook that was saved".to_owned());
    }
    Ok(())
}

/// Applies one [`ScriptOp`], returning its outcome descriptor and dirty
/// set. Errors are corpus problems (unparsable ranges), not divergences.
fn apply_script_op(sheet: &mut Sheet, op: &ScriptOp) -> Result<(String, Dirty), String> {
    let parse_range = |s: &str| Range::parse(s).map_err(|e| format!("bad range {s:?}: {e}"));
    let outcome = |o: ssbench_engine::ops::OpOutcome| format!("{o:?}");
    match op {
        ScriptOp::Set { row, col, text } => {
            let addr = CellAddr::new(*row, *col);
            match sheet.set_input(addr, text) {
                Ok(()) => Ok((format!("set {}", addr.to_a1()), Dirty::Cells(vec![addr]))),
                // A rejected formula edits nothing; record it as an
                // outcome so all configurations must reject identically.
                Err(e) => Ok((format!("set {} rejected: {e}", addr.to_a1()), Dirty::None)),
            }
        }
        ScriptOp::Sort { col, asc } => {
            let key = if *asc { SortKey::asc(*col) } else { SortKey::desc(*col) };
            let o = sheet.apply(Op::Sort { keys: vec![key] }).map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Full))
        }
        ScriptOp::Filter { col, criterion } => {
            let crit = Criterion::parse(&Value::text(criterion.clone()));
            let o = sheet
                .apply(Op::Filter { col: *col, criterion: crit })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::None))
        }
        ScriptOp::ClearFilter => {
            let o = sheet.apply(Op::ClearFilter).map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::None))
        }
        ScriptOp::CondFormat { range, criterion } => {
            let crit = Criterion::parse(&Value::text(criterion.clone()));
            let o = sheet
                .apply(Op::CondFormat {
                    range: parse_range(range)?,
                    criterion: crit,
                    fill: Color::GREEN,
                })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::None))
        }
        ScriptOp::FindReplace { range, needle, replacement } => {
            let range = parse_range(range)?;
            // The hit list *is* the set of cells the replace will rewrite;
            // computed up front so incremental configs know what dirtied.
            let hits = ssbench_engine::ops::find_all(sheet, range, needle);
            let o = sheet
                .apply(Op::FindReplace {
                    range,
                    needle: needle.clone(),
                    replacement: replacement.clone(),
                })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Cells(hits)))
        }
        ScriptOp::CopyPaste { src, dst } => {
            let dst = CellAddr::parse(dst).map_err(|e| format!("bad dst {dst:?}: {e}"))?;
            let o = sheet
                .apply(Op::CopyPaste { src: parse_range(src)?, dst })
                .map_err(|e| e.to_string())?;
            let dirty = match &o {
                ssbench_engine::ops::OpOutcome::Pasted { dst } => dst.iter().collect(),
                _ => Vec::new(),
            };
            Ok((outcome(o), Dirty::Cells(dirty)))
        }
        ScriptOp::Pivot { dim_col, measure_col, agg } => {
            let agg = match agg.as_str() {
                "sum" => PivotAgg::Sum,
                "count" => PivotAgg::Count,
                "average" => PivotAgg::Average,
                "min" => PivotAgg::Min,
                "max" => PivotAgg::Max,
                other => return Err(format!("bad pivot agg {other:?}")),
            };
            let o = sheet
                .apply(Op::Pivot { dim_col: *dim_col, measure_col: *measure_col, agg })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::None))
        }
        ScriptOp::InsertRows { at, count } => {
            let o = sheet
                .apply(Op::InsertRows { at: *at, count: *count })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Full))
        }
        ScriptOp::DeleteRows { at, count } => {
            let o = sheet
                .apply(Op::DeleteRows { at: *at, count: *count })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Full))
        }
        ScriptOp::InsertCols { at, count } => {
            let o = sheet
                .apply(Op::InsertCols { at: *at, count: *count })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Full))
        }
        ScriptOp::DeleteCols { at, count } => {
            let o = sheet
                .apply(Op::DeleteCols { at: *at, count: *count })
                .map_err(|e| e.to_string())?;
            Ok((outcome(o), Dirty::Full))
        }
        ScriptOp::Recalc => Ok(("recalc".to_owned(), Dirty::Full)),
    }
}

/// Per-op invariants: the configured recalc options must survive every
/// op (the restructure-options-reset bug class), the grid and
/// dep graph must audit clean (the non-finite-coercion and stale-edge bug
/// classes), and every formula template must pass the static analyzer —
/// bytecode verification plus dep-graph read-set coverage
/// ([`ssbench_engine::analyze::check_sheet`]). Running the static pass
/// here means every template the matrix or a fuzz run ever
/// compiles is proven, not just spot-checked.
fn check_invariants(sheet: &Sheet, config: OracleConfig) -> Result<Vec<TemplateReport>, String> {
    if sheet.lookup_strategy() != config.lookup {
        return Err(format!(
            "lookup strategy changed to {:?} (configured {:?})",
            sheet.lookup_strategy(),
            config.lookup
        ));
    }
    if sheet.auto_index() != config.indexed {
        return Err(format!(
            "auto-index changed to {} (configured {})",
            sheet.auto_index(),
            config.indexed
        ));
    }
    if sheet.grid_budget() != config.budget {
        return Err(format!(
            "grid budget changed to {:?} (configured {:?})",
            sheet.grid_budget(),
            config.budget
        ));
    }
    if let Some(budget) = config.budget {
        let resident = sheet.grid_resident_bytes();
        if resident > budget {
            return Err(format!("grid resident {resident} B exceeds the {budget} B budget"));
        }
    }
    // Buffer-pool invariants (pin counts, page accounting, chunk
    // bookkeeping) panic on violation.
    sheet.validate_grid();
    audit::check_all(sheet)?;
    analyze::check_sheet(sheet)
}

/// Incremental recalculation equals full recalculation: a copy of the
/// sheet — every cell of its extent, values and formulas as stored —
/// recalculated in full holds the same value in every formula as the sheet
/// a dirty pass just left. Tracing is off while the copy recalculates, so
/// the op's span tree is the one it would be without the check.
fn check_full_recalc_agrees(sheet: &Sheet, config: OracleConfig) -> Result<(), String> {
    let Some(used) = sheet.used_range() else { return Ok(()) };
    let mut copy = Sheet::new();
    copy.set_lookup_strategy(config.lookup);
    copy.set_auto_index(config.indexed);
    copy.set_now_serial(sheet.now_serial());
    for addr in used.iter() {
        match sheet.formula_expr(addr) {
            Some(expr) => copy.set_formula(addr, expr.clone()).map_err(|e| e.to_string())?,
            None => copy.set_value(addr, sheet.value(addr)),
        }
    }
    let tracing = trace::enabled();
    trace::disable();
    recalc::recalc_all(&mut copy);
    if tracing {
        trace::enable(trace::DEFAULT_CAPACITY);
    }
    for addr in used.iter().filter(|&a| sheet.formula_expr(a).is_some()) {
        let (kept, full) = (sheet.value(addr), copy.value(addr));
        let same = match (&kept, &full) {
            (Value::Number(a), Value::Number(b)) => a.to_bits() == b.to_bits(),
            _ => kept == full,
        };
        if !same {
            return Err(format!(
                "incremental recalc left {} = {kept:?}, a full recalc of a copy gives {full:?}",
                addr.to_a1()
            ));
        }
    }
    Ok(())
}

/// Replays `script` on the reference configuration and statically
/// verifies the sheet after every op, collecting the per-template facts.
/// This is the `fuzz --verify` / `--analyze` entry point: unlike
/// [`check_script`], it runs one configuration and returns the final
/// sheet's [`TemplateReport`]s for display.
pub fn verify_script(script: &Script) -> Result<Vec<TemplateReport>, Failure> {
    let config = matrix()[0];
    let fail = |op_index: Option<usize>, detail: String| Failure {
        config: config.label(),
        op_index,
        detail,
    };
    let mut sheet = gen::build_workbook(script);
    recalc::recalc_all(&mut sheet);
    let mut reports =
        analyze::check_sheet(&sheet).map_err(|e| fail(None, e))?;
    for (i, op) in script.ops.iter().enumerate() {
        let (_, dirty) = apply_script_op(&mut sheet, op).map_err(|e| fail(Some(i), e))?;
        if !matches!(dirty, Dirty::None) {
            recalc::recalc_all(&mut sheet);
        }
        reports = analyze::check_sheet(&sheet).map_err(|e| fail(Some(i), e))?;
    }
    Ok(reports)
}

/// FNV-1a, fed a slice at a time.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// FNV-1a digest of every stored value (bit-exact for numbers) plus the
/// hidden-row set and every fill — without the fills a conditional format
/// would be compared by its count alone. Cheap enough to run after every
/// op, strong enough that a transient divergence cannot cancel itself out
/// before the final comparison.
fn grid_digest(sheet: &Sheet) -> u64 {
    let mut h = Fnv(value_digest(sheet));
    for row in 0..sheet.nrows() {
        if sheet.is_row_hidden(row) {
            h.eat(&[5]);
            h.eat(&row.to_le_bytes());
        }
    }
    for addr in sheet.used_range().iter().flat_map(Range::iter) {
        if let Some(fill) = sheet.fill(addr) {
            h.eat(&[6]);
            h.eat(&addr.row.to_le_bytes());
            h.eat(&addr.col.to_le_bytes());
            h.eat(&[fill.r, fill.g, fill.b]);
        }
    }
    h.0
}

/// The values half of [`grid_digest`]: all of it that a saved document
/// carries (filter flags and fills are not saved).
fn value_digest(sheet: &Sheet) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    if let Some(used) = sheet.used_range() {
        for addr in used.iter() {
            let v = sheet.value(addr);
            if v == Value::Empty {
                continue;
            }
            h.eat(&addr.row.to_le_bytes());
            h.eat(&addr.col.to_le_bytes());
            match v {
                Value::Empty => unreachable!(),
                Value::Number(n) => {
                    h.eat(&[1]);
                    h.eat(&n.to_bits().to_le_bytes());
                }
                Value::Text(s) => {
                    h.eat(&[2]);
                    h.eat(s.as_bytes());
                }
                Value::Bool(b) => h.eat(&[3, u8::from(b)]),
                Value::Error(e) => {
                    h.eat(&[4]);
                    h.eat(format!("{e:?}").as_bytes());
                }
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::gen;

    #[test]
    fn matrix_covers_all_dimensions() {
        let m = matrix();
        assert_eq!(m.len(), 16, "2 lookups × 2 recalc modes × 2 index modes × 2 budgets");
        assert!(m.iter().any(|c| c.lookup == LookupStrategy::StopEarly));
        assert!(m.iter().any(|c| c.incremental));
        assert!(m.iter().any(|c| c.indexed));
        assert!(m.iter().any(|c| c.budget.is_some()));
        // The reference replay runs on the plainest configuration — full
        // recalc, no indexes, unbounded grid memory — under a label no
        // shipped configuration carries.
        assert_eq!(m[0].label(), "naive-lookup/full/noix/nocap");
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len(), "configuration labels must be distinct");
        assert!(!labels.contains(REFERENCE_LABEL));
    }

    #[test]
    fn small_generated_script_passes_the_oracle() {
        let script = gen::generate(0xD1FF, 32, 30);
        if let Err(f) = check_script(&script) {
            panic!("oracle failed on a healthy engine: {f}");
        }
    }

    #[test]
    fn digest_sees_value_changes_and_hidden_rows() {
        let script = gen::generate(5, 16, 0);
        let mut sheet = gen::build_workbook(&script);
        recalc::recalc_all(&mut sheet);
        let before = grid_digest(&sheet);
        sheet.set_value(CellAddr::new(0, 0), 123_456i64);
        recalc::recalc_all(&mut sheet);
        assert_ne!(before, grid_digest(&sheet));
        let unhidden = grid_digest(&sheet);
        // Only A1 holds 123456, so the filter hides every other row.
        let criterion = Criterion::parse(&Value::Number(123_456.0));
        sheet.apply(Op::Filter { col: 0, criterion }).expect("filter applies");
        assert!(sheet.is_row_hidden(3));
        assert_ne!(unhidden, grid_digest(&sheet));
        // A fill shows in the grid digest, and which fill; it is no part
        // of the values a saved document carries.
        let (unfilled, values) = (grid_digest(&sheet), value_digest(&sheet));
        let mut fill = |fill| {
            let range = Range::parse("A1:A4").unwrap();
            let criterion = Criterion::parse(&Value::text(">=0"));
            sheet.apply(Op::CondFormat { range, criterion, fill }).expect("format applies");
            (grid_digest(&sheet), value_digest(&sheet))
        };
        let (green, black) = (fill(Color::GREEN), fill(Color::BLACK));
        assert_ne!(unfilled, green.0);
        assert_ne!(green.0, black.0);
        assert_eq!((values, values), (green.1, black.1));
    }
}
