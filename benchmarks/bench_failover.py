"""Failover benchmark: warm-standby promotion vs cold restart.

Standalone runner (no pytest required) that builds the same primary
fail-stop twice over an identical committed history — once on a
single-node complex that must cold-restart the crashed server, once on
a replicated complex whose standby detects the failure and promotes —
and times service resumption for each.  A full run writes
``BENCH_failover.json`` at the repo root so EXPERIMENTS can cite the
win; a ``--quick`` run writes only where ``--out`` points.

The corpus is adversarial for the cold restart on purpose: one early
server checkpoint, then a long committed bulk with no further
checkpoints, so the cold path re-scans (analysis + redo) nearly the
whole log and rebuilds its log bookkeeping with a full header rescan.
The promotion path pays none of that: the standby observed every
``(addr, record)`` pair at ship time (bookkeeping intact by
construction), its apply loop kept the page replica close to the log
tail, and the promotion checkpoint bounds analysis to a handful of
records.  The timed promotion window *includes* failure detection — the
heartbeat misses are part of what a client actually waits through.

Usage::

    PYTHONPATH=src python benchmarks/bench_failover.py           # full (8k txns)
    PYTHONPATH=src python benchmarks/bench_failover.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_failover.py --quick --check

``--check`` exits non-zero unless promotion beats the cold restart on
the tier's corpus (CPU time, best of 3 interleaved trials).
"""

import argparse
import gc
import json
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table

#: Promotion must beat cold restart by at least this factor.
REQUIRED_SPEEDUP = 1.0

#: Where a full run writes its figures.
FULL_OUT = Path(__file__).resolve().parent.parent / "BENCH_failover.json"


def build_fail_stop(replication, txns, table_pages, apply_interval):
    """An identical committed history, ending in a primary fail-stop.

    A short warmup and one early server checkpoint come first; the bulk
    of the committed history follows with no further checkpoints; two
    survivor transactions are left in flight (their clients outlive the
    primary in both scenarios).  Returns the complex with the server
    crashed, ready for either recovery path.
    """
    config = SystemConfig(
        client_buffer_frames=table_pages + 8,
        server_buffer_frames=table_pages + 8,
        client_checkpoint_interval=0,
        server_checkpoint_interval=0,
        max_lsn_sync_period=8,
        replication_enabled=replication,
        standby_apply_interval=apply_interval,
    )
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=table_pages, free_pages=8)
    rids = seed_table(system, "C1", "t", table_pages, 3)
    c1, c2 = system.client("C1"), system.client("C2")

    survivor_rids, committed_rids = rids[-6:], rids[:-6]
    for i in range(8):
        client = c1 if i % 2 == 0 else c2
        txn = client.begin(f"warm-{i}")
        client.update(txn, committed_rids[i % len(committed_rids)],
                      ("warm", i))
        client.commit(txn)
    system.server.take_checkpoint()

    # Survivors in flight across the fail-stop: their clients are alive
    # in both scenarios, so both recovery paths replay them the same way.
    s1 = c1.begin("survivor-C1")
    s2 = c2.begin("survivor-C2")
    for j in range(12):
        c1.update(s1, survivor_rids[j % 3], ("survivor", "C1", j))
        c2.update(s2, survivor_rids[3 + j % 3], ("survivor", "C2", j))

    for i in range(txns):
        client = c1 if i % 2 == 0 else c2
        rid = committed_rids[(i * 7) % len(committed_rids)]
        txn = client.begin(f"bench-{i}")
        client.update(txn, rid, ("committed", i))
        client.commit(txn)
    system.crash_server()
    return system


def probe(system):
    """Prove the recovered complex commits new work."""
    client = system.client("C1")
    txn = client.begin("probe")
    rid = system.table_pages("t")[0]
    new_rid = client.insert(txn, rid, ("probe", 1))
    client.commit(txn)
    assert system.current_value(new_rid) == ("probe", 1)


def time_cold_restart(txns, table_pages, apply_interval):
    """One cold-restart CPU-time sample over a fresh fail-stop."""
    system = build_fail_stop(False, txns, table_pages, apply_interval)
    log_records = sum(1 for _ in system.server.log.scan_headers(0))
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        report = system.restart_server()
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    probe(system)
    del system
    gc.collect()
    return elapsed, log_records, report, {}


def time_promotion(txns, table_pages, apply_interval):
    """One detection + promotion CPU-time sample over a fresh fail-stop."""
    system = build_fail_stop(True, txns, table_pages, apply_interval)
    rep = system.replication
    log_records = sum(1 for _ in system.server.log.scan_headers(0))
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        rep.run_failover()
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    report = rep.last_promotion_report
    probe(system)
    extra = {
        "detection_ticks": rep.failover_ticks,
        "heartbeats_missed": rep.heartbeats_missed,
        "frames_shipped": rep.frames_shipped,
        "records_applied_by_standby": rep.records_applied,
    }
    del system
    gc.collect()
    return elapsed, log_records, report, extra


def make_row(mode, txns, elapsed, log_records, report, extra):
    row = {
        "mode": mode,
        "txns": txns,
        "log_records": log_records,
        "elapsed_s": round(elapsed, 4),
        "analysis_records": report.analysis_records,
        "redo_records_scanned": report.redo_records_scanned,
        "redos_applied": report.redos_applied,
        "undo_records_scanned": report.undo_records_scanned,
        "clrs_written": report.clrs_written,
        "txns_rolled_back": report.txns_rolled_back,
        "total_records_processed": report.total_log_records_processed,
    }
    row.update(extra)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless promotion beats cold restart")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    txns = 2400 if opts.quick else 8000
    table_pages = 8
    apply_interval = 64
    trials = 3

    # Interleave trials so allocator/cache drift penalizes both modes
    # equally.
    samplers = (("cold_restart", time_cold_restart),
                ("promotion", time_promotion))
    best = {}
    details = {}
    for trial in range(trials):
        order = samplers if trial % 2 == 0 else tuple(reversed(samplers))
        for mode, sampler in order:
            print(f"trial {trial + 1}/{trials}: {mode} over "
                  f"{txns}-txn corpus ...", flush=True)
            elapsed, log_records, report, extra = sampler(
                txns, table_pages, apply_interval)
            print(f"  {elapsed:>8.4f}s", flush=True)
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
            details[mode] = (log_records, report, extra)

    rows = []
    for mode, _sampler in samplers:
        log_records, report, extra = details[mode]
        rows.append(make_row(mode, txns, best[mode], log_records, report,
                             extra))
        r = rows[-1]
        print(f"{mode}: best {r['elapsed_s']:.4f}s  processed "
              f"{r['total_records_processed']} records "
              f"(analysis {r['analysis_records']}, redo scanned "
              f"{r['redo_records_scanned']})", flush=True)

    by_mode = {r["mode"]: r for r in rows}
    speedup = round(by_mode["cold_restart"]["elapsed_s"]
                    / by_mode["promotion"]["elapsed_s"], 2)

    # The structural claim behind the timing: promotion's analysis and
    # redo windows must be a small fraction of the cold restart's.
    mismatches = []
    cold, promo = by_mode["cold_restart"], by_mode["promotion"]
    if promo["total_records_processed"] * 4 > cold["total_records_processed"]:
        mismatches.append(
            "promotion processed more than 1/4 of the cold restart's log "
            "records — the ship-time bookkeeping is not paying off")

    result = {
        "mode": "quick" if opts.quick else "full",
        "txns": txns,
        "table_pages": table_pages,
        "standby_apply_interval": apply_interval,
        "rows": rows,
        "promotion_speedup_over_cold_restart": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "structural_mismatches": mismatches,
    }
    out = opts.out if opts.out is not None or opts.quick else FULL_OUT
    if out is not None:
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    print(f"  promotion over cold restart: {speedup:.2f}x "
          f"(required > {REQUIRED_SPEEDUP}x)")

    failed = bool(mismatches)
    for mismatch in mismatches:
        print(f"FAIL: {mismatch}")
    if opts.check and speedup <= REQUIRED_SPEEDUP:
        print(f"FAIL: promotion speedup {speedup:.2f}x <= "
              f"{REQUIRED_SPEEDUP}x — promotion did not beat cold restart")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
