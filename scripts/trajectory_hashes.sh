#!/bin/sh
# Print the history sha256 of every benchmark trajectory, one
# "workload index sha256" line each, for every workload in BENCHMARK.json.
#
#     scripts/trajectory_hashes.sh [seed]      (seed defaults to 1)
#
# Run from the root of a checkout. Two checkouts whose seeded histories
# are bit-identical print the same lines, so a change that must keep the
# numerics can be checked with one diff of the two outputs. Exits
# non-zero when a run fails or reports a CHECK FAILED line.
set -eu
seed=${1:-1}
status=0
workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    if ! out=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 45 --trace 0); then
        echo "$workload: perfbench/run.py failed" >&2
        status=1
    fi
    printf '%s\n' "$out" |
        sed -n "s/^trajectory \([0-9]*\): .* history sha256 \([0-9a-f]*\)\$/$workload \1 \2/p"
    if printf '%s\n' "$out" | grep '^CHECK FAILED' >&2; then
        status=1
    fi
done
exit "$status"
