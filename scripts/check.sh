#!/usr/bin/env bash
# Canonical verification for this repository: build everything, run the
# full test suite, then re-run it on one test thread. Tracing is switched
# on and off process-wide, so a test that traces runs beside others in the
# first pass and alone in the second; both must pass. `cargo test` covers
# the root package and every member crate (Cargo.toml's default-members).
# Every stage must pass.
#
# The bulk load behind `io::open` (DESIGN.md §17) has no stage of its own:
# every oracle replay ends by reopening the workbook it saved and comparing
# it with the one it had, so the fuzz and corpus stages below drive the
# loader on every script, and `cargo test` runs `io/differential.rs`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Verification must not rewrite the tree it verifies: a dirty work tree is
# fine, a tree this script dirtied is not (checked again at the bottom).
tree_before="$(git status --porcelain)"

# The option surface stays collapsed by a gate, not by memory (ROADMAP aim
# 2): the engine reads exactly one environment variable, by its
# literal name, the second visit order and per-cell range reader PR 21
# deleted do not come back under their old names, nor the fourth resident
# chunk kind and the two thresholds PR 23 deleted, nor the three serde
# stand-ins PR 22 replaced with `harness::json`, nor the proptest stand-in
# PR 25 replaced with seeded `SmallRng` loops: one shim, `rand`, and no
# manifest or source file that names a serde crate or the proptest DSL;
# nor the Optimized system's own delta views, formula memo and update
# policy — its updates go through the engine like everyone else's; nor a
# style inside the cell — fills are row runs kept per column beside the
# values, and no write path carries a style; nor the analyzer's type
# lattice and constant folding — pass 2 proves the read-set and volatility,
# the two facts the engine reads — nor the three laziness flags and the
# window size that always equalled `remote` and 50, nor the level-parallel
# recalc executor and its knobs: recalculation is sequential; nor the
# Optimized system's token index and prefix-family pass, which bypassed the
# engine: Figs 9 and 11 run the engine under the `indexed` policy.
echo "==> option surface: engine env vars, deleted knobs, shims"
env_reads="$({ grep -rhoE 'env::vars?(_os)?\([^)]*\)' crates/engine/src || true; } | sort -u | tr '\n' ' ')"
if [ "$env_reads" != 'env::var("SSBENCH_GRID_BUDGET") ' ]; then
  echo "the engine's environment reads changed (expected exactly" \
    "SSBENCH_GRID_BUDGET, by literal name): $env_reads" >&2
  exit 1
fi
if grep -rnwE 'RecalcOptions|set_recalc_options|recalc_options|run_level_parallel|RECALC_PARALLELISM|MIN_CHUNK' \
  crates src tests examples; then
  echo "the deleted parallel executor or one of its knobs is back (see above);" \
    "recalculation is sequential" >&2
  exit 1
fi
if grep -rn 'ColumnMajor\|for_each_in_range' crates src tests examples ||
  grep -rn 'SparseSeg\|SPARSE_PROMOTE\|SPARSE_TO_CELLS\|sparse_if_small\|maybe_promote' crates src tests examples; then
  echo "a deleted visit order, range reader or chunk kind is back (see above)" >&2
  exit 1
fi
if grep -rnwE 'IncrementalAggregate|IncrementalRegistry|FormulaMemo|incremental_update|eval_memoized|incrementalize' \
  crates src tests examples; then
  echo "a deleted delta view, formula memo or update policy is back (see above);" \
    "an update goes through set_value and recalc_from" >&2
  exit 1
fi
if grep -rnwE 'keep_style|set_style|CellContent|all_cells_mut|font_color' crates src tests examples; then
  echo "a per-cell style is back (see above); a cell is its content, and a fill" \
    "is a per-column row run beside the values (grid::fills)" >&2
  exit 1
fi
if grep -rnwE 'TySet|AbsVal|const_value|binop_ty|call_ty' crates src tests examples ||
  grep -rnwE 'lazy_viewport_open|lazy_open_resolves_formulas|lazy_formatting|viewport_rows' \
    crates src tests examples; then
  echo "a deleted analyzer type lattice or system laziness flag is back (see above);" \
    "the analyzer walks read-sets and volatility, and laziness is the remote flag" >&2
  exit 1
fi
if grep -rnwE 'InvertedIndex|token_index|find_replace_indexed|recalc_shared|apply_shared_computation' \
  crates src tests examples; then
  echo "a deleted bypass of the engine is back (see above); the Optimized system" \
    "finds and recalculates through the engine, priced by its indexed policy" >&2
  exit 1
fi

if [ "$(ls shims | tr '\n' ' ')" != 'rand ' ]; then
  echo "shims/ must hold exactly rand, found: $(ls shims | tr '\n' ' ')" >&2
  exit 1
fi
if grep -rnw 'serde\|serde_json\|serde_derive' Cargo.toml Cargo.lock crates src tests examples \
  --include='*.rs' --include='*.toml' --include='Cargo.lock'; then
  echo "a serde crate is named again (see above); JSON goes through harness::json" >&2
  exit 1
fi
if grep -rn --include='*.toml' --include='Cargo.lock' --exclude-dir=target --exclude-dir=.git \
  'proptest' . ||
  grep -rn 'proptest!\|prop_assert\|prop_oneof\|TestCaseError\|use proptest' crates src tests examples; then
  echo "the proptest DSL is back (see above); a random test is a seeded SmallRng loop" >&2
  exit 1
fi

# One way in (ROADMAP item 13): every public method of `Sheet` besides
# `apply` is another door a mutation can take past the op log, the stats
# and the error handling `apply` gives. The sorted list of `pub fn`s in
# `impl Sheet` blocks is pinned here. A change that removes one shortens
# the pin; one that adds a method has to argue for it in the same change.
echo "==> Sheet's public methods: the pinned list"
sheet_api="$(find crates/engine/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    /^impl Sheet \{/ { on = 1; next }
    on && /^\}/ { on = 0 }
    on && match($0, /^    pub fn [A-Za-z0-9_]+/) { print substr($0, RSTART + 11, RLENGTH - 11) }' |
  sort | tr '\n' ' ')"
pinned_api='apply auto_index cell define_name deps ensure_indexes ensure_size eval_ctx eval_ctx_with '
pinned_api+='eval_expr eval_str fill formula_count formula_expr grid_budget grid_heap_bytes '
pinned_api+='grid_resident_bytes grid_spill_stats index_store input_text is_formula is_row_hidden '
pinned_api+='lookup_strategy meter name_range names ncols new now_serial nrows permute_rows '
pinned_api+='program_cache rebuild_deps remove_name set_auto_index set_formula set_formula_str '
pinned_api+='set_grid_budget set_input set_lookup_strategy set_now_serial set_value '
pinned_api+='store_formula_result used_range validate_grid value visible_rows with_size '
if [ "$sheet_api" != "$pinned_api" ]; then
  echo "the public methods of Sheet changed (- pinned, + found):" >&2
  diff <(tr ' ' '\n' <<< "$pinned_api") <(tr ' ' '\n' <<< "$sheet_api") >&2 || true
  exit 1
fi

# One evaluator on the user path (DESIGN.md §20): formulas and one-shot
# queries run on the VM, and the tree-walking interpreter is the reference
# they are held to. Outside the interpreter itself (eval/, the lazy IF and
# IFERROR of functions/logical.rs) and test code — a differential.rs
# module, or whatever follows a file's first top-level #[cfg(test)] — the
# one function that may call eval::evaluate is recalc_reference.
echo "==> one evaluator: recalc_reference is the interpreter's only caller"
interp_callers="$(find crates/engine/src -name '*.rs' ! -path '*/eval/*' \
  ! -path '*/functions/logical.rs' ! -name differential.rs -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    match($0, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/) {
      name = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", name)
    }
    !test && $0 !~ /^[[:space:]]*\/\// && $0 ~ /(^|[^A-Za-z0-9_])evaluate\(/ {
      print FILENAME ":" name
    }' | sort -u | tr '\n' ' ')"
if [ "$interp_callers" != 'crates/engine/src/recalc.rs:recalc_reference ' ]; then
  echo "eval::evaluate is called outside recalc_reference: $interp_callers" >&2
  exit 1
fi

echo "==> cargo build --release --workspace --all-targets (warnings are errors)"
# --workspace: the root manifest is a package, so a bare build would skip
# the member crates' bin targets (bct, fuzz, spill) the later stages
# execute. --all-targets: examples and integration tests compile under
# -D warnings too, so a type they import cannot be deleted unnoticed.
RUSTFLAGS="-D warnings" cargo build --release --workspace --all-targets

# Intra-doc links name methods, and deleting a method does not fail the
# build of a comment that links to it; rustdoc does, when told to.
echo "==> cargo doc -p ssbench-engine (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --no-deps -p ssbench-engine --offline

echo "==> cargo test -q"
cargo test -q

echo "==> RUST_TEST_THREADS=1 cargo test -q"
RUST_TEST_THREADS=1 cargo test -q

# A traced BCT experiment end to end: the bct binary exits non-zero if the
# trace JSON fails to re-parse or the measure spans don't sum to the
# figure's reported total (DESIGN.md §8).
echo "==> traced BCT smoke run"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
./target/release/bct --quick --trace "$trace_dir" fig3 > /dev/null
test -s "$trace_dir/trace.json" || { echo "missing trace.json" >&2; exit 1; }
test -s "$trace_dir/trace.txt" || { echo "missing trace.txt" >&2; exit 1; }

# Differential oracle (DESIGN.md §9): a bounded fixed-seed fuzz sweep —
# deterministic, so CI cannot flake — plus a replay of every shrunk
# reproducer in the corpus. The fuzz binary prints the size of the
# configuration matrix it replays (plus the reference-evaluator replay
# every digest is compared against) and exits non-zero on any divergence
# or invariant violation.
echo "==> differential fuzz smoke (10 seeds x 200 ops)"
for seed in 1 2 3 5 7 11 13 17 19 23; do
  ./target/release/fuzz --seed "$seed" --ops 200
done

echo "==> corpus replay"
./target/release/fuzz replay --corpus tests/corpus

# Static verifier sweep (DESIGN.md §11): replay every corpus script and,
# after every op, run bytecode verification plus the dep-graph read-set
# coverage proof over every template on the sheet. Exits non-zero on the
# first template whose bytecode fails to verify or whose registered
# precedents do not cover its static read-set.
echo "==> corpus static verification (bytecode + dep-graph soundness)"
./target/release/fuzz replay --verify --corpus tests/corpus

# Benchmark smoke (benchmark/README.md): every BENCHMARK.json workload at
# 1/50 of its rows, one round, every output checked against the plain-Rust
# reference. Exits non-zero on a failed check or if the benchmark crate no
# longer compiles against the engine.
echo "==> benchmark smoke"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- smoke

# Memory-capped grid scenario (DESIGN.md §14): a 5M-row x 4-col numeric
# sheet is built, recalculated through whole-column aggregates, sorted,
# has one row inserted and deleted again mid-sheet (the in-place
# structural edit shifting 2.5M rows of mostly spilled chunks), is
# filtered and pivoted (the scan ops reading spilled chunks a slice at a
# time, DESIGN.md §18), and answers an exact VLOOKUP of its last key and a
# COUNTIF (the one-shot queries' slice scans, DESIGN.md §20), once
# unbounded and once under a 64 MB grid budget with a hard 384 MB
# peak-RSS gate. The spill binary asserts resident <= budget after every
# phase and that the budgeted run actually spilled; this stage then
# requires the two runs' digests — values, hidden rows, pivot table, query
# answers — to be bit-identical: spilling is memory placement, never
# semantics.
echo "==> spill scenario: 5M rows under a 64 MB grid budget"
nocap="$(./target/release/spill --rows 5000000 2> /dev/null)"
cap="$(SSBENCH_GRID_BUDGET=64M SSBENCH_RSS_LIMIT_MB=384 \
  ./target/release/spill --rows 5000000 2> /dev/null)"
for phase in digest_recalc digest_sorted digest_inserted digest_restructured \
  digest_filtered digest_pivot digest_query; do
  a="$(grep -o "${phase}=[0-9a-f]*" <<< "$nocap")"
  b="$(grep -o "${phase}=[0-9a-f]*" <<< "$cap")"
  test -n "$a" || { echo "spill: unbounded run printed no $phase" >&2; exit 1; }
  if [ "$a" != "$b" ]; then
    echo "spill: $phase diverges under the budget (unbounded $a vs capped $b)" >&2
    exit 1
  fi
done
grep -o 'spills=[0-9]*' <<< "$cap"

tree_after="$(git status --porcelain)"
if [ "$tree_before" != "$tree_after" ]; then
  echo "check.sh changed the work tree:" >&2
  diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
  exit 1
fi

echo "==> all checks passed"
