"""Engine throughput benchmark: event-driven engine vs polling scheduler.

Standalone runner (no pytest required) that drives the zipfian workload
driver (``repro.workloads.driver``) at increasing client populations
through both executors and records the headline claim of the engine PR:
the ready-queue/wait-set engine sustains contended populations the
round-robin polling scheduler cannot, because a parked waiter costs
nothing until its blocker actually terminates.  A full run writes
``BENCH_engine_throughput.json`` at the repo root so EXPERIMENTS can
cite the speedup; a ``--quick`` run writes only where ``--out`` points.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick --check

``--check`` exits non-zero unless the engine beats the legacy polling
scheduler by the tier's required factor on the shared comparison row
(1k clients in full mode, 100 in quick).  The full run also records a
completed 10k-client zipfian row — engine only; polling at that
population does not finish in benchmarkable time.

All rows are deterministic from ``SystemConfig.seed``: same binary,
same numbers (modulo wall-clock noise in the ops/s column).
"""

import argparse
import json
import time
from pathlib import Path

from repro.workloads import DriverSpec, run_driver

#: Required engine-over-polling ops/s factor on the comparison row.
REQUIRED_SPEEDUP_FULL = 5.0    # at 1k clients
REQUIRED_SPEEDUP_QUICK = 2.0   # at 100 clients (CI smoke)

#: Where a full run writes its figures.
FULL_OUT = (Path(__file__).resolve().parent.parent
            / "BENCH_engine_throughput.json")


def spec_for(clients):
    """One benchmark tier: zipfian hot keys, ordered record access.

    ``ordered_access`` keeps the contended run queueing-bound instead of
    victim-bound (the classic deadlock-avoidance discipline), which is
    what a throughput comparison wants; the 10k tier grows the table so
    the population outnumbers records "only" 5:1.
    """
    return DriverSpec(
        clients=clients,
        ordered_access=True,
        table_pages=256 if clients >= 3000 else 64,
    )


def run_row(clients, executor):
    spec = spec_for(clients)
    start = time.perf_counter()
    report = run_driver(spec, executor=executor)
    elapsed = time.perf_counter() - start
    return {
        "clients": clients,
        "executor": executor,
        "elapsed_s": round(elapsed, 3),
        "ops": report.ops,
        "ops_per_s": round(report.ops / elapsed, 1),
        "committed": report.committed,
        "aborted": report.aborted,
        "deadlock_victims": report.deadlock_victims,
        "p50_latency_ticks": report.p50_latency_ticks(),
        "p95_latency_ticks": report.p95_latency_ticks(),
        "p99_latency_ticks": report.p99_latency_ticks(),
        "rounds": max(report.rounds_per_wave, default=0),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="100-client tiers only (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the engine beats polling by "
                             "the tier's required factor")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    if opts.quick:
        tiers = [(100, "engine"), (100, "polling")]
        compare_clients = 100
        required = REQUIRED_SPEEDUP_QUICK
    else:
        tiers = [(100, "engine"), (1000, "engine"), (1000, "polling"),
                 (10000, "engine")]
        compare_clients = 1000
        required = REQUIRED_SPEEDUP_FULL

    rows = []
    for clients, executor in tiers:
        print(f"running {executor} @ {clients} clients ...", flush=True)
        rows.append(run_row(clients, executor))
        print(f"  {rows[-1]['ops_per_s']:>8.1f} ops/s  "
              f"p95 {rows[-1]['p95_latency_ticks']} ticks  "
              f"({rows[-1]['elapsed_s']}s)", flush=True)

    by_key = {(r["clients"], r["executor"]): r for r in rows}
    engine = by_key[(compare_clients, "engine")]
    polling = by_key[(compare_clients, "polling")]
    speedup = engine["ops_per_s"] / polling["ops_per_s"]

    result = {
        "mode": "quick" if opts.quick else "full",
        "rows": rows,
        "comparison_clients": compare_clients,
        "engine_over_polling_speedup": round(speedup, 2),
        "required_speedup": required,
    }
    out = opts.out if opts.out is not None or opts.quick else FULL_OUT
    if out is not None:
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    print(f"  engine over polling @ {compare_clients} clients: "
          f"{speedup:.2f}x (required {required}x)")

    if opts.check and speedup < required:
        print(f"FAIL: engine speedup {speedup:.2f}x < {required}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
