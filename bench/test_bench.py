"""Self-tests of the benchmark (not tier-1):

    PYTHONPATH=src python -m pytest bench -q

Everything runs at the ``--quick`` tier, so the whole file takes well
under a minute and never touches the committed results in ``bench/out``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import harness, stats
from bench.workloads import WORKLOADS, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = list(WORKLOADS)
EXACT = sorted(stats.EXACT)


def quick(name, seed, trace=False):
    result, _lines = harness.run(name, seed, 1.0, trace, quick=True)
    return result


@pytest.fixture(scope="module")
def runs():
    """Three untraced quick runs per workload: seed 1 twice, seed 2."""
    return {(name, label): quick(name, seed)
            for name in NAMES
            for label, seed in (("a", 1), ("a-again", 1), ("b", 2))}


@pytest.fixture(scope="module")
def traced():
    """One traced quick run per workload, with its recorder."""
    out = {}
    for name in NAMES:
        workload = WORKLOADS[name](1, 1.0, quick=True)
        metrics, total, _notes, recorder = harness.run_traced(workload, None)
        out[name] = (metrics, total, recorder)
    return out


def exact(result):
    return {m: result["metrics"][m]["value"] for m in EXACT}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_exact_counts(runs, name):
    assert exact(runs[name, "a"]) == exact(runs[name, "a-again"])


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_changes_exact_counts(runs, name):
    assert exact(runs[name, "a"]) != exact(runs[name, "b"])


@pytest.mark.parametrize("name", NAMES)
def test_result_object_follows_the_contract(runs, name):
    result = runs[name, "a"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m for m, _u, _b in harness.END_TO_END]
    for cell in result["metrics"].values():
        assert cell["value"] > 0  # end-to-end metrics are never 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(traced, name):
    metrics, total, _recorder = traced[name]
    assert list(metrics) == [m for m, _u, _b in harness.PER_LAYER]
    assert total.finish() == (total.programs, 0)
    assert metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_every_span_is_enclosed_by_its_parent(traced, name):
    _metrics, _total, recorder = traced[name]
    for phase in recorder.phases.values():
        assert phase.spans, phase.name
        for span in phase.spans:
            assert span is not None
            _name, start, end, parent, _txn = span
            assert phase.start <= start <= end <= phase.end
            if parent >= 0:
                _pname, pstart, pend, _pp, _ptxn = phase.spans[parent]
                assert pstart <= start and end <= pend


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_the_phase(traced, name):
    _metrics, _total, recorder = traced[name]
    for phase in recorder.phases.values():
        total = sum(acc[1] for acc in phase.totals.values())
        assert total == pytest.approx(phase.duration, rel=0.01)


def test_spans_of_one_transaction_share_its_id(traced):
    _metrics, _total, recorder = traced["cad_sessions"]
    spans = recorder.phases["load"].spans
    commits = [i for i, s in enumerate(spans) if s[0] == "client.commit"]
    assert commits
    for index in commits[:50]:
        children = [s for s in spans if s[3] == index]
        assert children
        assert {s[4] for s in children} == {spans[index][4]}


def test_oracle_counts_a_lost_write():
    workload = WORKLOADS["cad_sessions"](1, 1.0, quick=True)
    cx = workload.build()
    check(cx, cx.rids)
    assert cx.misses == 0
    rid = cx.rids[0]
    cx.shadow[rid] = "a write the system never saw"
    check(cx, cx.rids)
    assert cx.misses == 1
    assert harness.Totals(misses=cx.misses).finish() == (0, 1)


def test_quick_tier_fits_twenty_seconds_and_leaves_results_alone():
    out = os.path.join(HERE, "out")
    kept = {f: os.stat(os.path.join(out, f)).st_mtime_ns
            for f in os.listdir(out) if not f.startswith("trace_")}
    start = time.perf_counter()
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             name, "--seed", "3", "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] is True
    assert time.perf_counter() - start <= 20.0
    assert kept == {f: os.stat(os.path.join(out, f)).st_mtime_ns
                    for f in os.listdir(out) if not f.startswith("trace_")}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trace_*"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_matches_the_code_and_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        doc = json.load(fp)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == NAMES
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == harness.PER_LAYER
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for entry in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
        assert name.match(entry["name"])
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert unit.match(entry["unit"])
    for entry in doc["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(doc["per_layer"]) <= 128


# -- bench.stats -------------------------------------------------------------

TIGHT = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]


def test_spread_is_the_contracts_quartile_distance():
    import statistics
    q1, _q2, q3 = statistics.quantiles(TIGHT, n=4)
    assert stats.spread(TIGHT) == (q3 - q1) / statistics.median(TIGHT)


@pytest.mark.parametrize("factor, better, expected", [
    (1.00, "lower", "same"),
    (1.03, "lower", "same"),
    (1.08, "lower", "worse"),
    (0.92, "lower", "better"),
    (1.08, "higher", "better"),
    (0.92, "higher", "worse"),
])
def test_verdicts(factor, better, expected):
    other = [v * factor for v in TIGHT]
    assert stats.verdict(TIGHT, other, better, bound=0.05) == expected


def test_noisy_side_is_unresolved_not_same():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    assert stats.verdict(TIGHT, noisy, "lower", bound=0.05) == "unresolved"


def test_calibrate_floors_and_flags():
    def one_set(scale):
        return {"runs": [
            {"workload": "w", "metrics": {
                "commit_txn_per_s": {"value": v * scale, "unit": "1/s"},
                "msgs_per_commit": {"value": 4.0, "unit": "count"}}}
            for v in TIGHT]}
    table = stats.calibrate([one_set(1.0), one_set(1.04), one_set(0.99)])["w"]
    assert table["msgs_per_commit"]["bound"] == stats.EXACT_FLOOR
    timing = table["commit_txn_per_s"]
    assert timing["median_gap"] == pytest.approx(0.05, abs=0.002)
    assert timing["bound"] == pytest.approx(0.10, abs=0.004)
    assert not timing["over_contract_cap"]
