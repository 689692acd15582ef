"""Run sets: medians, quartile spreads, bounds and verdicts.

A *set* is what ``python -m bench set`` writes: the result objects of N
runs per workload, each run on its own seed, workloads interleaved.
``compare`` judges two sets against the bounds in ``BENCHMARK.json``;
``calibrate`` derives those bounds from several same-code sets.

Spread is defined exactly as the benchmark contract defines it: the
distance between the first and third quartile of a metric's values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of their
median.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Tuple

#: Metrics that are pure functions of (seed, seconds): they must repeat
#: bit-for-bit on the same seed, so their floor is 1% instead of 5%.
EXACT = frozenset({"msgs_per_commit", "net_bytes_per_commit",
                   "log_bytes_per_commit", "txn_ok_share"})

TIMING_FLOOR = 0.05
EXACT_FLOOR = 0.01
#: What this issue wanted no bound to exceed, and what the contract
#: allows at most.  A bound between the two is flagged, not refused.
WANTED_CAP = 0.10
CONTRACT_CAP = 0.25


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def by_workload_metric(runs: Iterable[Dict[str, Any]]
                       ) -> Dict[Tuple[str, str], List[float]]:
    """Set rows -> {(workload, metric): values in run order}."""
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for metric, cell in run["metrics"].items():
            table.setdefault((run["workload"], metric), []).append(
                cell["value"])
    return table


def worsening(before: float, after: float, better: str) -> float:
    """Signed relative change, positive when ``after`` is worse."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one row.

    Unresolved means a side's own run-to-run spread is wider than the
    bound, so a difference of bound size could not be told from noise.
    """
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = worsening(statistics.median(a), statistics.median(b), better)
    if change > bound:
        return "worse"
    if -change > bound:
        return "better"
    return "same"


def compare_rows(set_a: Dict[str, Any], set_b: Dict[str, Any],
                 metrics: List[Dict[str, Any]],
                 workload_bounds: Dict[Tuple[str, str], float]
                 ) -> List[Dict[str, Any]]:
    """One row per workload x metric present in both sets.

    A row is judged against its own (workload, metric) bound when the
    calibration recorded one, else against the metric's bound.
    """
    table_a = by_workload_metric(set_a["runs"])
    table_b = by_workload_metric(set_b["runs"])
    spec = {m["name"]: m for m in metrics}
    rows = []
    for (workload, metric), a in table_a.items():
        b = table_b.get((workload, metric))
        if b is None or metric not in spec:
            continue
        better = spec[metric]["better"]
        bound = workload_bounds.get((workload, metric),
                                    spec[metric]["bound"])
        rows.append({
            "workload": workload, "metric": metric,
            "unit": spec[metric]["unit"], "bound": bound,
            "a": quartiles(a), "b": quartiles(b),
            "change": worsening(statistics.median(a), statistics.median(b),
                                better),
            "verdict": verdict(a, b, better, bound),
        })
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<18} {'metric':<22} {'A q1/median/q3':>34} "
             f"{'B q1/median/q3':>34} {'worse by':>9} {'bound':>6}  verdict"]
    for row in rows:
        a = "/".join(f"{v:.5g}" for v in row["a"])
        b = "/".join(f"{v:.5g}" for v in row["b"])
        lines.append(
            f"{row['workload']:<18} {row['metric']:<22} {a:>34} {b:>34} "
            f"{row['change']:>+9.2%} {row['bound']:>6.0%}  {row['verdict']}")
    return "\n".join(lines)


def calibrate(sets: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per (workload, metric): the bound the same-code sets support.

    A bound is twice the largest difference between set medians and —
    because the driver also refuses a metric whose quartile spread
    exceeds its bound, and asks for a factor of three in hand — three
    times the largest spread, floored at 5% (1% for exact counts).
    """
    tables = [by_workload_metric(s["runs"]) for s in sets]
    out: Dict[str, Dict[str, Any]] = {}
    for key in tables[0]:
        columns = [t[key] for t in tables if key in t]
        medians = [statistics.median(c) for c in columns]
        centre = statistics.median(medians)
        gap = (max(medians) - min(medians)) / centre if centre else 0.0
        widest = max(spread(c) for c in columns)
        floor = EXACT_FLOOR if key[1] in EXACT else TIMING_FLOOR
        bound = max(floor, 2 * gap, 3 * widest)
        out.setdefault(key[0], {})[key[1]] = {
            "medians": medians, "median_gap": gap, "spread": widest,
            "samples": [len(c) for c in columns],
            "bound": min(bound, CONTRACT_CAP),
            "over_wanted_cap": bound > WANTED_CAP,
            "over_contract_cap": bound > CONTRACT_CAP,
        }
    return out


def metric_bounds(calibration: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """``BENCHMARK.json`` holds one bound per metric: the loosest any
    workload needs, rounded up to a whole percent."""
    bounds: Dict[str, float] = {}
    for per_metric in calibration.values():
        for metric, cell in per_metric.items():
            percent = -(-cell["bound"] * 100 // 1) / 100
            bounds[metric] = max(bounds.get(metric, 0.0), percent)
    return bounds
