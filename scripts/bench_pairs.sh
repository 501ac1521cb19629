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
# come largest_peak_rss_mb, the largest "peak rss" of a run's "trajectory
# k:" lines, where peak_rss_mb is their median, and minor_faults, the
# minor page faults of the whole run: run.py and every trajectory process
# it waited for, read by a wrapper with getrusage(RUSAGE_CHILDREN). Unlike
# the times, that count barely moves between runs of the same code. A run
# that reports a failed check stops the script.
#
# Each pair also compares the "history sha256" of its two runs' trajectory
# lines, trajectory by trajectory, and prints how many differ; the summary
# prints the total. Zero in every pair shows that the working tree keeps
# the seeded numerics of every trajectory the pairs ran.
#
# The summary is also appended to the ledger BENCH_<workload>.json, a JSON
# list with one entry per completed run of this script, one entry a line,
# each holding:
# - "rev" and "working": each a commit and the sha256 of the working
#   src/'s diff against it (`git diff --binary`, untracked files
#   included), or null when src/ is the commit's;
# - "seeds" and "pairs";
# - "machine": the available processor count ("nproc"), every
#   *_NUM_THREADS, VECLIB_MAXIMUM_THREADS and MALLOC_* environment
#   variable set, and the Python and numpy versions;
# - "metrics": per metric its unit, which way is better, the working
#   tree's wins and losses, and each side's q1, median and q3;
# - "differing_histories": the number of trajectories, over all pairs,
#   whose history sha256 differs between the sides.
#
# Last, per metric, it prints this run's working/rev median ratio and the
# A/A band of the ledger: the min-max of that ratio over the A/A entries,
# those whose rev and working commits are equal and whose working src/ has
# no diff (`scripts/bench_pairs.sh HEAD <workload> <pairs>` on a clean
# checkout), with their count. Their two sides run the same code, so the
# band is the noise of the machine. A speed claim counts only when its
# median ratio lies outside the band.
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

# the revisions, read before any run swaps src/; the diff is taken through
# a scratch index, so that untracked files count and the real index stays
rev_commit=$(git rev-parse --verify "$rev^{commit}")
head_commit=$(git rev-parse --verify HEAD)
GIT_INDEX_FILE=$tmp/index git read-tree HEAD
GIT_INDEX_FILE=$tmp/index git add -A -- src
src_diff=
if ! GIT_INDEX_FILE=$tmp/index git diff --cached --quiet HEAD -- src; then
    src_diff=$(GIT_INDEX_FILE=$tmp/index git diff --cached --binary HEAD -- src | sha256sum | cut -d' ' -f1)
fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# run <side> <pair> <seed>: one benchmark run, its JSON line appended to results
run() {
    local out
    if [ "$1" = rev ]; then
        mv src "$aside"
        mv "$tmp/src" src
    fi
    out=$(python3 -c "$faults" python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0)
    if [ "$1" = rev ]; then
        mv src "$tmp/src"
        mv "$aside" src
    fi
    printf '%s\n' "$out" | python3 -c "$record" "$1" "$2" "$3" >> "$results"
}

# faults <command>...: runs the command, then prints "minor faults <n>", the
# minor page faults of the command and of every process it waited for
faults=$(cat <<'EOF'
import resource, subprocess, sys

code = subprocess.run(sys.argv[1:]).returncode
if code:
    sys.exit(code)
print(f"minor faults {resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt}")
EOF
)

# record <side> <pair> <seed>: run.py's output and the fault line on stdin ->
# its JSON line, with the largest peak rss of its "trajectory k:" lines and
# the fault count added as metrics and their history sha256s kept, in
# trajectory order
record=$(cat <<'EOF'
import json, re, sys

lines = sys.stdin.read().splitlines()
faults = int(re.fullmatch(r"minor faults (\d+)", lines.pop())[1])
r = json.loads(lines[-1])
r["metrics"]["minor_faults"] = {"value": faults, "unit": "count"}
peaks = [float(m[1]) for line in lines if (m := re.match(r"trajectory \d+: .* peak rss ([0-9.]+)MB ", line))]
r["metrics"]["largest_peak_rss_mb"] = {"value": max(peaks), "unit": "MB"}
r["histories"] = [m[1] for line in lines
                  if (m := re.match(r"trajectory \d+: .* history sha256 ([0-9a-f]{64})$", line))]
r.update(side=sys.argv[1], pair=int(sys.argv[2]), seed=int(sys.argv[3]))
print(json.dumps(r))
EOF
)

report=$(cat <<'EOF'
import datetime, json, os, platform, re, statistics, sys

import numpy

spec = json.load(open("BENCHMARK.json"))["end_to_end"]
spec.append({"name": "largest_peak_rss_mb", "unit": "MB", "better": "lower"})
spec.append({"name": "minor_faults", "unit": "count", "better": "lower"})
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


def differing(sides):
    """The trajectories of one pair whose histories differ between the sides."""
    return sum(a != b for a, b in zip(sides["rev"]["histories"], sides["work"]["histories"]))


if sys.argv[2] == "last":
    pair = max(by_pair)
    sides = by_pair[pair]
    print(f"pair {pair} seed {sides['rev']['seed']} ({'rev' if pair % 2 == 0 else 'working'} first): rev -> working")
    for m in spec:
        a, b = value(sides["rev"], m["name"]), value(sides["work"], m["name"])
        change = f"{100 * (b - a) / a:+.1f} %" if a else "n/a"
        print(f"  {m['name']}: {a:.6g} -> {b:.6g} {m['unit']} ({change})")
    print(f"  histories: {differing(sides)} of {len(sides['rev']['histories'])} trajectories differ")
    sys.exit()


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"{len(by_pair)} pairs; working tree wins per metric (ties count for neither)")
metrics = {}
for m in spec:
    a = [value(p["rev"], m["name"]) for p in by_pair.values()]
    b = [value(p["work"], m["name"]) for p in by_pair.values()]
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    print(f"  {m['name']} ({m['better']} is better): {wins}/{len(a)} won, {losses} lost; "
          f"rev {a2:.6g} ({a1:.6g}-{a3:.6g}) -> working {b2:.6g} ({b1:.6g}-{b3:.6g}) {m['unit']}")
    metrics[m["name"]] = {
        "unit": m["unit"], "better": m["better"], "wins": wins, "losses": losses,
        "rev": {"q1": a1, "median": a2, "q3": a3}, "working": {"q1": b1, "median": b2, "q3": b3},
    }

differ = sum(differing(p) for p in by_pair.values())
trajectories = sum(len(p["rev"]["histories"]) for p in by_pair.values())
print(f"  histories: {differ} of {trajectories} trajectories differ between the sides")

workload, rev_commit, head_commit, src_diff = sys.argv[3:7]
entry = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "workload": workload,
    "rev": {"commit": rev_commit, "src_diff_sha256": None},
    "working": {"commit": head_commit, "src_diff_sha256": src_diff or None},
    "seeds": sorted(r["seed"] for r in runs if r["side"] == "rev"),
    "pairs": len(by_pair),
    "machine": {
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in sorted(os.environ.items())
                if re.fullmatch(r".+_NUM_THREADS|VECLIB_MAXIMUM_THREADS|MALLOC_.+", k)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    },
    "metrics": metrics,
    "differing_histories": differ,
}
ledger = f"BENCH_{workload}.json"
entries = json.load(open(ledger)) if os.path.exists(ledger) else []
with open(f"{ledger}.tmp", "w") as fh:
    # one entry a line, so that an appended run is one added line of diff
    fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries + [entry]) + "\n]\n")
os.replace(f"{ledger}.tmp", ledger)
print(f"appended to {ledger} (entry {len(entries) + 1})")


def ratio(e, name):
    """An entry's working/rev median ratio of a metric; None when the entry
    lacks the metric or its rev median is 0."""
    m = e["metrics"].get(name)
    return m["working"]["median"] / m["rev"]["median"] if m and m["rev"]["median"] else None


aa = [e for e in entries + [entry]
      if e["rev"]["commit"] == e["working"]["commit"] and e["working"]["src_diff_sha256"] is None]
if not aa:
    print(f"A/A band: {ledger} holds no A/A entry, so no speed claim can be judged yet")
    sys.exit()
print(f"A/A band: {len(aa)} A/A entries in {ledger}; per metric, the working/rev "
      "median ratio of this run and its min-max over the A/A entries")
for m in spec:
    ratios = [r for e in aa if (r := ratio(e, m["name"])) is not None]
    here = ratio(entry, m["name"])
    here = "n/a" if here is None else f"{here:.3f}"
    band = f"{min(ratios):.3f}-{max(ratios):.3f} ({len(ratios)} entries)" if ratios else "none"
    print(f"  {m['name']}: this run {here}, A/A band {band}")
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
python3 -c "$report" "$results" summary "$workload" "$rev_commit" "$head_commit" "$src_diff"
