#!/usr/bin/env bash
# Alternating benchmark pairs of a revision and the working tree, run from
# one checkout with only src/ swapped.
#
#     scripts/bench_pairs.sh <rev> <workload> <pairs> [first seed]
#
# Run from the root of a checkout. Pair i runs `perfbench/run.py
# --workload <workload> --seed <first seed + i>` (first seed defaults to
# 1) once on <rev>'s src/ and once on the working src/: <rev> first in
# even pairs, the working tree first in odd ones. Everything else,
# perfbench/ included, is the working tree's, so the two sides differ in
# src/ alone. While <rev>'s side runs, the working src/ is moved aside to
# .bench_src_working, never deleted; a trap moves it back on exit, failure
# or interrupt.
#
# Prints each pair's end-to-end metrics as it completes, then per metric
# the number of pairs the working tree won (ties count for neither side)
# and each side's median and quartiles. After BENCHMARK.json's metrics
# comes largest_peak_rss_mb: the largest "peak rss" of a run's "trajectory
# k:" lines, where peak_rss_mb is their median. A run that reports a
# failed check stops the script.
set -euo pipefail
if [ $# -lt 3 ]; then
    echo "usage: $0 <rev> <workload> <pairs> [first seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 first=${4:-1}
if [ ! -d src ] || [ ! -f BENCHMARK.json ]; then
    echo "$0: run from the root of a checkout" >&2
    exit 2
fi
aside=.bench_src_working
if [ -e "$aside" ]; then
    echo "$0: $aside exists, so an earlier run did not restore src/; move it back to src/ first" >&2
    exit 2
fi

tmp=$(mktemp -d)
results=$tmp/results.jsonl

restore() {
    if [ -e "$aside" ]; then
        # src/ here, if any, is <rev>'s copy
        if [ -e src ]; then
            mv src "$tmp/src"
        fi
        mv "$aside" src
    fi
    rm -rf "$tmp"
}
trap restore EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
git archive "$rev" src | tar -x -C "$tmp"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# run <side> <pair> <seed>: one benchmark run, its JSON line appended to results
run() {
    local out
    if [ "$1" = rev ]; then
        mv src "$aside"
        mv "$tmp/src" src
    fi
    out=$(python3 perfbench/run.py --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0)
    if [ "$1" = rev ]; then
        mv src "$tmp/src"
        mv "$aside" src
    fi
    printf '%s\n' "$out" | python3 -c "$record" "$1" "$2" "$3" >> "$results"
}

# record <side> <pair> <seed>: run.py's output on stdin -> its JSON line, with
# the largest peak rss of its "trajectory k:" lines added as a metric
record=$(cat <<'EOF'
import json, re, sys

lines = sys.stdin.read().splitlines()
r = json.loads(lines[-1])
peaks = [float(m[1]) for line in lines if (m := re.match(r"trajectory \d+: .* peak rss ([0-9.]+)MB ", line))]
r["metrics"]["largest_peak_rss_mb"] = {"value": max(peaks), "unit": "MB"}
r.update(side=sys.argv[1], pair=int(sys.argv[2]), seed=int(sys.argv[3]))
print(json.dumps(r))
EOF
)

report=$(cat <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))["end_to_end"]
spec.append({"name": "largest_peak_rss_mb", "unit": "MB", "better": "lower"})
runs = [json.loads(line) for line in open(sys.argv[1])]
by_pair = {}
for r in runs:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r
for r in runs:
    if not r["correct"] or r["failed"]:
        sys.exit(f"{r['side']} run of pair {r['pair']} (seed {r['seed']}): correct {r['correct']}, "
                 f"{r['failed']} of {r['attempted']} failed")


def value(run, name):
    return run["metrics"][name]["value"]


if sys.argv[2] == "last":
    pair = max(by_pair)
    sides = by_pair[pair]
    print(f"pair {pair} seed {sides['rev']['seed']} ({'rev' if pair % 2 == 0 else 'working'} first): rev -> working")
    for m in spec:
        a, b = value(sides["rev"], m["name"]), value(sides["work"], m["name"])
        change = f"{100 * (b - a) / a:+.1f} %" if a else "n/a"
        print(f"  {m['name']}: {a:.6g} -> {b:.6g} {m['unit']} ({change})")
    sys.exit()


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"{len(by_pair)} pairs; working tree wins per metric (ties count for neither)")
for m in spec:
    a = [value(p["rev"], m["name"]) for p in by_pair.values()]
    b = [value(p["work"], m["name"]) for p in by_pair.values()]
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    print(f"  {m['name']} ({m['better']} is better): {wins}/{len(a)} won, {losses} lost; "
          f"rev {a2:.6g} ({a1:.6g}-{a3:.6g}) -> working {b2:.6g} ({b1:.6g}-{b3:.6g}) {m['unit']}")
EOF
)

for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run rev "$i" "$seed"
        run work "$i" "$seed"
    else
        run work "$i" "$seed"
        run rev "$i" "$seed"
    fi
    python3 -c "$report" "$results" last
done
python3 -c "$report" "$results" summary
