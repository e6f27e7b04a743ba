//! Memory-capped grid scenario: builds a tall numeric sheet, recalculates
//! a set of whole-column aggregates, sorts it, inserts and deletes a row
//! mid-sheet, filters it, pivots it and asks it two one-shot queries, and
//! digests the result of each phase.
//!
//! ```text
//! cargo run --release -p ssbench-harness --bin spill -- [--rows N]
//! ```
//!
//! Environment:
//!
//! * `SSBENCH_GRID_BUDGET` — resident-byte cap for typed grid chunks
//!   (e.g. `64M`), set on the run's sheet. Unset means unbounded. The run
//!   asserts the grid honors the cap after every phase.
//! * `SSBENCH_RSS_LIMIT_MB` — optional hard gate on the process peak RSS
//!   (`VmHWM`); the run exits non-zero when exceeded.
//!
//! The digests printed are bit-exact FNV-1a — over every stored value, over
//! the hidden rows a filter left, over a pivot table, over the answers of
//! the queries; a capped run must
//! print the same digests as an unbounded one (`scripts/check.sh` compares
//! them).

use ssbench_engine::addr::CellAddr;
use ssbench_engine::ops::{Op, OpOutcome, PivotAgg, SortKey};
use ssbench_engine::recalc;
use ssbench_engine::sheet::Sheet;
use ssbench_engine::value::{Criterion, Value};

fn main() {
    let rows = parse_rows().unwrap_or(5_000_000);
    let budget = std::env::var("SSBENCH_GRID_BUDGET").ok().and_then(|raw| parse_budget(&raw));
    eprintln!(
        "spill scenario: {rows} rows x 4 data cols, grid budget {}",
        budget.map_or("unbounded".to_owned(), |b| format!("{b} B")),
    );

    // Phase 1: build. Column A holds a pseudo-random sort key, B the row
    // number, C a low-cardinality bucket, D a derived value. All numeric,
    // so the grid stores them as typed chunks — the spillable kind. The
    // wall time is the cell-at-a-time write path's (`Sheet::set_value`, a
    // budget check per cell), not a bulk load's.
    let started = std::time::Instant::now();
    let mut sheet = Sheet::new();
    sheet.set_grid_budget(budget);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for r in 0..rows {
        // xorshift64* keeps the key column deterministic but unsorted.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let key = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
        sheet.set_value(CellAddr::new(r, 0), Value::Number(key));
        sheet.set_value(CellAddr::new(r, 1), Value::Number(f64::from(r)));
        sheet.set_value(CellAddr::new(r, 2), Value::Number(f64::from(r % 1000)));
        sheet.set_value(CellAddr::new(r, 3), Value::Number(f64::from(r / 2)));
    }
    // Whole-column aggregates in column E, pinned with absolute references
    // so the sort cannot rewrite them.
    let aggs = [
        format!("=SUM($A$1:$A${rows})"),
        format!("=COUNT($A$1:$A${rows})"),
        format!("=AVERAGE($B$1:$B${rows})"),
        format!("=MIN($A$1:$A${rows})"),
        format!("=MAX($A$1:$A${rows})"),
        format!("=SUM($D$1:$D${rows})"),
        format!("=COUNTIF($C$1:$C${rows},500)"),
        format!("=SUM($B$1:$B${rows})"),
    ];
    for (i, src) in aggs.iter().enumerate() {
        sheet.set_formula_str(CellAddr::new(i as u32, 4), src).expect("aggregate parses");
    }
    let build = started.elapsed();
    report_phase(&sheet, "build");
    println!("build_ms={:.1}", build.as_secs_f64() * 1e3);

    // Phase 2: full recalculation (the read set is every data column:
    // eight whole-column aggregates, 8 x rows cell reads). The wall time is
    // the pass alone, not the digest.
    let started = std::time::Instant::now();
    recalc::recalc_all(&mut sheet);
    let recalc_time = started.elapsed();
    report_phase(&sheet, "recalc");
    println!("digest_recalc={:016x}", digest(&sheet));
    println!("recalc_ms={:.1}", recalc_time.as_secs_f64() * 1e3);

    // Phase 3: sort every row by the pseudo-random key column. The wall
    // time covers the sort and its recalculation, not the digest.
    let started = std::time::Instant::now();
    sheet.apply(Op::Sort { keys: vec![SortKey::asc(0)] }).expect("sort applies");
    recalc::recalc_all(&mut sheet);
    let sort = started.elapsed();
    report_phase(&sheet, "sort");
    println!("digest_sorted={:016x}", digest(&sheet));
    println!("sort_ms={:.1}", sort.as_secs_f64() * 1e3);

    // Phase 4: one row in, then out again, mid-sheet: every chunk below
    // the edit point shifts by one slot, spilled or not. The wall time
    // covers the two edits and their recalculations, not the digests.
    let mut restructure = std::time::Duration::ZERO;
    for (op, phase) in [
        (Op::InsertRows { at: rows / 2, count: 1 }, "inserted"),
        (Op::DeleteRows { at: rows / 2, count: 1 }, "restructured"),
    ] {
        let started = std::time::Instant::now();
        sheet.apply(op).expect("structural edit applies");
        recalc::recalc_all(&mut sheet);
        restructure += started.elapsed();
        report_phase(&sheet, phase);
        println!("digest_{phase}={:016x}", digest(&sheet));
    }
    println!("restructure_ms={:.1}", restructure.as_secs_f64() * 1e3);

    // Phase 5: the two scan ops, each one pass over columns of mostly
    // spilled chunks. The filter keeps the lower half of the buckets; the
    // pivot sums the derived value per bucket — 1 000 groups under number
    // keys. The wall times cover the ops alone, not the digests.
    let started = std::time::Instant::now();
    let criterion = Criterion::parse(&Value::text("<500"));
    let filtered = sheet.apply(Op::Filter { col: 2, criterion }).expect("filter applies");
    let filter = started.elapsed();
    report_phase(&sheet, "filter");
    let mut hidden = Fnv::default();
    (0..sheet.nrows()).filter(|&r| sheet.is_row_hidden(r)).for_each(|r| hidden.eat(&r.to_le_bytes()));
    println!("digest_filtered={:016x}", hidden.0);
    println!("filter_ms={:.1}", filter.as_secs_f64() * 1e3);
    eprintln!("filter: {filtered:?}");

    let started = std::time::Instant::now();
    let pivoted = sheet
        .apply(Op::Pivot { dim_col: 2, measure_col: 3, agg: PivotAgg::Sum })
        .expect("pivot applies");
    let pivot = started.elapsed();
    report_phase(&sheet, "pivot");
    let OpOutcome::Pivoted(table) = pivoted else { unreachable!("a pivot answers with its table") };
    let mut groups = Fnv::default();
    for (key, sum, count) in &table.groups {
        groups.eat(key.display().as_bytes());
        groups.eat(&sum.to_bits().to_le_bytes());
        groups.eat(&count.to_le_bytes());
    }
    println!("digest_pivot={:016x}", groups.0);
    println!("pivot_ms={:.1}", pivot.as_secs_f64() * 1e3);
    eprintln!("pivot: {} groups", table.len());

    // Phase 6: two one-shot queries over the whole sheet — an exact
    // VLOOKUP of the last row's key (after the sort, a scan down a column
    // of mostly spilled chunks to its last one) and a COUNTIF. The wall
    // time covers the two queries, not the digest.
    let key = sheet.value(CellAddr::new(rows - 1, 0));
    let started = std::time::Instant::now();
    let found = sheet
        .eval_str(&format!("=VLOOKUP({},$A$1:$D${rows},2,FALSE)", key.display()))
        .expect("lookup parses");
    let counted = sheet.eval_str(&format!("=COUNTIF($C$1:$C${rows},\"<500\")")).expect("count parses");
    let query = started.elapsed();
    report_phase(&sheet, "query");
    let mut answers = Fnv::default();
    for v in [&found, &counted] {
        answers.eat(v.display().as_bytes());
    }
    println!("digest_query={:016x}", answers.0);
    println!("query_ms={:.1}", query.as_secs_f64() * 1e3);
    eprintln!("query: VLOOKUP {} = {found:?}, COUNTIF = {counted:?}", key.display());

    let stats = sheet.grid_spill_stats();
    println!(
        "spills={} loads={} faults={} resident_bytes={}",
        stats.spills,
        stats.loads,
        stats.faults,
        sheet.grid_resident_bytes(),
    );
    if sheet.grid_budget().is_some() && stats.spills == 0 {
        eprintln!("FAIL: a budgeted run of this size must spill");
        std::process::exit(1);
    }

    let hwm = peak_rss_kb();
    println!("peak_rss_mb={}", hwm / 1024);
    if let Some(limit_mb) = std::env::var("SSBENCH_RSS_LIMIT_MB")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        if hwm / 1024 > limit_mb {
            eprintln!("FAIL: peak RSS {} MB exceeds the {limit_mb} MB limit", hwm / 1024);
            std::process::exit(1);
        }
    }
}

fn parse_rows() -> Option<u32> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--rows" {
            return args.next()?.parse().ok();
        }
    }
    None
}

/// Parses a grid budget: plain integer bytes, or with a `K`/`M`/`G` suffix
/// (case-insensitive, powers of 1024). Empty, `0`, or unparseable means
/// unbounded.
fn parse_budget(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, shift) = match s.as_bytes().last()?.to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 10),
        b'M' => (&s[..s.len() - 1], 20),
        b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: usize = digits.trim().parse().ok().filter(|&n| n > 0)?;
    n.checked_mul(1 << shift)
}

/// Asserts the per-phase budget invariant and validates the grid.
fn report_phase(sheet: &Sheet, phase: &str) {
    sheet.validate_grid();
    let resident = sheet.grid_resident_bytes();
    if let Some(budget) = sheet.grid_budget() {
        assert!(
            resident <= budget,
            "{phase}: resident {resident} B exceeds the {budget} B budget"
        );
    }
    eprintln!("{phase}: resident {} KB, heap ~{} MB", resident / 1024, sheet.grid_heap_bytes() >> 20);
}

/// FNV-1a, fed a slice at a time.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// FNV-1a over every non-empty stored value, bit-exact for numbers. Same
/// shape as the oracle's digest; budget-independent.
fn digest(sheet: &Sheet) -> u64 {
    let mut h = Fnv::default();
    let Some(used) = sheet.used_range() else { return h.0 };
    for addr in used.iter() {
        let v = sheet.value(addr);
        if v == Value::Empty {
            continue;
        }
        h.eat(&addr.row.to_le_bytes());
        h.eat(&addr.col.to_le_bytes());
        match v {
            Value::Empty => unreachable!("skipped above"),
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
    h.0
}

/// Peak resident set size in KB (`VmHWM` from `/proc/self/status`).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budget("65536"), Some(65536));
        assert_eq!(parse_budget("64K"), Some(64 << 10));
        assert_eq!(parse_budget("64M"), Some(64 << 20));
        assert_eq!(parse_budget("2g"), Some(2 << 30));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("0"), None);
        assert_eq!(parse_budget("garbage"), None);
    }
}
