#!/usr/bin/env bash
# Two sets of k full runs of the same code, alternating (A B A B ...), then
# per metric x workload: the two medians, their relative gap and the bound
# from BENCHMARK.json. Exits non-zero when a gap exceeds its bound or when
# any meter.* count differs between any two runs.
#
#   benchmark/repeat.sh [k]        (default k = 3; about 2 minutes per run)
set -euo pipefail
k="${1:-3}"
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$here/out/repeat"
mkdir -p "$out"
rm -f "$out"/*.txt

for i in $(seq 1 "$k"); do
  for set in A B; do
    echo "== run $i of set $set"
    cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- run "${@:2}" > "$out/$set$i.txt"
    tail -n 1 "$out/$set$i.txt"
  done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import glob, json, re, statistics, sys
bench = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
line = re.compile(r"^\s+([\w.]+)@(\w+) = (\S+) ")
runs = {"A": [], "B": []}
for path in sorted(glob.glob(sys.argv[2] + "/*.txt")):
    values = {}
    for text in open(path):
        m = line.match(text)
        if m:
            values[(m.group(1), m.group(2))] = float(m.group(3))
    runs[path.rsplit("/", 1)[1][0]].append(values)
bad = 0
print(f"{'metric@workload':44s} {'median A':>14s} {'median B':>14s} {'gap':>8s} {'bound':>6s}")
for key in sorted(runs["A"][0]):
    name, workload = key
    a = [r[key] for r in runs["A"]]
    b = [r[key] for r in runs["B"]]
    label = f"{name}@{workload}"
    if name.startswith("meter."):
        if len(set(a + b)) != 1:
            bad += 1
            print(f"{label:44s} counts differ between runs: {sorted(set(a + b))}")
        continue
    if name not in bounds:
        continue
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
    gap = abs(worse)
    flag = ""
    if gap > bounds[name]:
        bad += 1
        flag = "  OVER BOUND"
    print(f"{label:44s} {ma:14.6f} {mb:14.6f} {100 * gap:7.2f}% {100 * bounds[name]:5.0f}%{flag}")
failed = [k for r in runs["A"] + runs["B"] for k, v in r.items() if k[0] == "failed_ops_share" and v != 0]
if failed:
    bad += 1
    print("failed operations:", sorted(set(failed)))
print("meter counts identical across all runs" if not bad else f"{bad} problem(s)")
sys.exit(1 if bad else 0)
EOF
