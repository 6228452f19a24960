#!/usr/bin/env bash
# A/A harness: two sets of runs of the same code, the way the driver
# judges the benchmark. Set A uses seeds 1..N, set B seeds N+1..2N. For
# every workload x end-to-end metric it prints both medians, the spread
# of each set (interquartile range / median over the set's runs), the gap
# (how much worse set B's median is than set A's), the cv over all runs
# next to the cv of the metric's uncalibrated twin, and the bound from
# BENCHMARK.json. The table in README.md is this script's output.
#
#   bash benchmark/aa.sh [runs-per-set=10] [seconds=run_seconds] [workload...]
#
# Run logs are kept under benchmark/out/aa/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json;print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}"
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(lowchurn highchurn bigcorpus)
fi
out="$here/out/aa"
mkdir -p "$out"
for w in "${workloads[@]}"; do
	for seed in $(seq 1 $((2 * runs))); do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$out/$w-$seed.json" 2>"$out/$w-$seed.log"
		echo "ran $w seed $seed" >&2
	done
done
python3 - "$here/../BENCHMARK.json" "$out" "$runs" "${workloads[@]}" <<'EOF'
import json, re, statistics, sys

spec = json.load(open(sys.argv[1]))
out, runs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
# Uncalibrated twins of the calibrated timings, from the diagnostics table.
twins = {"slide_to_swap_p50_ms": "raw.slide_to_swap_p50_ms",
         "search_p50_us": "raw.search_p50_us", "browse_p50_us": "raw.browse_p50_us"}

def load(w, seed):
    res = json.loads(open(f"{out}/{w}-{seed}.json").read().strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, (w, seed)
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    for line in open(f"{out}/{w}-{seed}.log"):
        m = re.match(r"^  (\S+)\s+(-?[\d.]+) \S+", line)
        if m:
            vals.setdefault(m.group(1), float(m.group(2)))
    return vals

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

def cv(xs):
    return statistics.stdev(xs) / statistics.mean(xs)

print("| workload | metric | median A | median B | gap | spread A | spread B | cv | raw cv | bound |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    a = [load(w, s) for s in range(1, runs + 1)]
    b = [load(w, s) for s in range(runs + 1, 2 * runs + 1)]
    for m in spec["end_to_end"]:
        name = m["name"]
        xa, xb = [r[name] for r in a], [r[name] for r in b]
        ma, mb = statistics.median(xa), statistics.median(xb)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        raw = cv([r[twins[name]] for r in a + b]) if name in twins else None
        print(f"| {w} | {name} | {ma:.5g} | {mb:.5g} | {gap:+.2%} | {spread(xa):.2%} | {spread(xb):.2%} "
              f"| {cv(xa + xb):.2%} | {'' if raw is None else f'{raw:.2%}'} | {m['bound']:.1%} |")
EOF
