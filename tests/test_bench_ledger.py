"""The perf ledgers BENCH_<workload>.json, which scripts/bench_pairs.sh
appends to, hold entries of one schema that name only the benchmark's
workloads and metrics."""

import copy
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
# bench_pairs.sh reports every end-to-end metric, then the largest trajectory
# peak and the run's minor page faults (entries written before it counted
# faults lack that metric)
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
METRICS["largest_peak_rss_mb"] = {"name": "largest_peak_rss_mb", "unit": "MB", "better": "lower"}
METRICS["minor_faults"] = {"name": "minor_faults", "unit": "count", "better": "lower"}
LEDGERS = sorted(ROOT.glob("BENCH_*.json"))

COMMIT = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")
DATE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")


def check_entry(entry, workload):
    keys = {"date", "workload", "rev", "working", "seeds", "pairs", "machine", "metrics"}
    # entries written before bench_pairs.sh compared histories lack the count
    assert set(entry) in (keys, keys | {"differing_histories"})
    differ = entry.get("differing_histories", 0)
    assert type(differ) is int and differ >= 0
    assert DATE.fullmatch(entry["date"])
    assert entry["workload"] == workload
    for side in ("rev", "working"):
        assert set(entry[side]) == {"commit", "src_diff_sha256"}
        assert COMMIT.fullmatch(entry[side]["commit"])
        assert entry[side]["src_diff_sha256"] is None or SHA256.fullmatch(
            entry[side]["src_diff_sha256"])
    pairs, seeds = entry["pairs"], entry["seeds"]
    assert type(pairs) is int and pairs >= 1
    assert all(type(s) is int for s in seeds) and sorted(set(seeds)) == seeds
    assert len(seeds) == pairs
    machine = entry["machine"]
    assert set(machine) == {"nproc", "env", "python", "numpy"}
    assert type(machine["nproc"]) is int and machine["nproc"] >= 1
    for key, value in machine["env"].items():
        assert re.fullmatch(r".+_NUM_THREADS|VECLIB_MAXIMUM_THREADS|MALLOC_.+", key)
        assert type(value) is str
    assert type(machine["python"]) is str and type(machine["numpy"]) is str
    assert entry["metrics"]
    for name, m in entry["metrics"].items():
        assert name in METRICS, f"{name} is not a metric of BENCHMARK.json"
        assert set(m) == {"unit", "better", "wins", "losses", "rev", "working"}
        assert (m["unit"], m["better"]) == (METRICS[name]["unit"], METRICS[name]["better"])
        assert type(m["wins"]) is int and type(m["losses"]) is int
        assert 0 <= m["wins"] and 0 <= m["losses"] and m["wins"] + m["losses"] <= pairs
        for side in ("rev", "working"):
            q = m[side]
            assert set(q) == {"q1", "median", "q3"}
            assert all(type(v) in (int, float) and math.isfinite(v) for v in q.values())
            assert q["q1"] <= q["median"] <= q["q3"]


def _workload(path):
    return path.stem.removeprefix("BENCH_")


def test_every_ledger_is_a_workload_of_the_benchmark():
    assert LEDGERS
    assert {_workload(path) for path in LEDGERS} <= WORKLOADS


@pytest.mark.parametrize("path", LEDGERS, ids=lambda path: path.name)
def test_ledger_entries_follow_the_schema(path):
    entries = json.loads(path.read_text())
    assert type(entries) is list and entries
    for entry in entries:
        check_entry(entry, _workload(path))


def test_schema_check_takes_a_history_count_and_refuses_a_negative_one():
    entry = copy.deepcopy(json.loads(LEDGERS[0].read_text())[0])
    entry["differing_histories"] = 0
    check_entry(entry, _workload(LEDGERS[0]))
    entry["differing_histories"] = -1
    with pytest.raises(AssertionError):
        check_entry(entry, _workload(LEDGERS[0]))


def test_schema_check_refuses_an_undeclared_metric():
    entry = copy.deepcopy(json.loads(LEDGERS[0].read_text())[0])
    entry["metrics"]["rounds_per_hour"] = next(iter(entry["metrics"].values()))
    with pytest.raises(AssertionError, match="rounds_per_hour is not a metric"):
        check_entry(entry, _workload(LEDGERS[0]))
