"""Log fast-path benchmark: indexed stable log + lazy header decoding.

Standalone runner (no pytest required) that times the stable log's hot
paths and records the headline claim of the log fast path: a filtered
scan that peeks frame headers instead of decoding full records.  A
full run writes ``BENCH_log_fastpath.json`` at the repo root, the
committed figures EXPERIMENTS cites; a ``--quick`` run writes only
where ``--out`` points, so a smoke run never replaces them.

Usage::

    PYTHONPATH=src python benchmarks/bench_log_fastpath.py           # full
    PYTHONPATH=src python benchmarks/bench_log_fastpath.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_log_fastpath.py --quick --check

``--check`` exits non-zero unless the filtered header-peek scan is at
least 2x faster than the same filter over fully decoded records.
"""

import argparse
import json
import time
from pathlib import Path

from repro.core.log_records import (
    CommitRecord,
    CompensationRecord,
    EndRecord,
    TxnOutcome,
    UpdateOp,
    UpdateRecord,
)
from repro.storage.stable_log import StableLog

#: Required headline speedup for --check (filtered scan, headers vs full).
REQUIRED_FILTERED_SPEEDUP = 2.0

#: Where a full run writes its figures.
FULL_OUT = Path(__file__).resolve().parent.parent / "BENCH_log_fastpath.json"


def build_records(count):
    """A realistic mix: mostly updates across many pages, with commit
    machinery and the occasional rollback interleaved."""
    records = []
    lsn = 0
    for i in range(count):
        lsn += 1
        txn_id = f"C1.T{i // 4}"
        phase = i % 4
        if phase < 2:
            records.append(UpdateRecord(
                lsn=lsn, client_id="C1", txn_id=txn_id, prev_lsn=lsn - 1,
                page_id=i % 97, op=UpdateOp.RECORD_MODIFY, slot=i % 8,
                before=b"b" * 48 + bytes(str(i), "ascii"),
                after=b"a" * 48 + bytes(str(i), "ascii"),
                key=i % 13,
            ))
        elif phase == 2:
            if i % 16 == 2:
                records.append(CompensationRecord(
                    lsn=lsn, client_id="C1", txn_id=txn_id, prev_lsn=lsn - 1,
                    undo_next_lsn=lsn - 2, page_id=i % 97,
                    op=UpdateOp.RECORD_MODIFY, slot=i % 8,
                    after=b"a" * 48, key=i % 13,
                ))
            else:
                records.append(CommitRecord(
                    lsn=lsn, client_id="C1", txn_id=txn_id, prev_lsn=lsn - 1))
        else:
            records.append(EndRecord(
                lsn=lsn, client_id="C1", txn_id=txn_id, prev_lsn=lsn - 1,
                outcome=TxnOutcome.COMMITTED))
    return records


def build_log(records):
    """A cold log, as at restart: forced, crashed, so no record object
    survives in memory and every scan decodes its frames from bytes."""
    log = StableLog()
    for record in records:
        log.append(record)
    log.force()
    log.crash()
    return log


def time_ns(fn, iterations):
    """Best-of-N wall time for one call of ``fn``."""
    best = None
    for _ in range(iterations):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def run(record_count, iterations):
    records = build_records(record_count)
    log = build_log(records)

    def do_append():
        fresh = StableLog()
        for record in records:
            fresh.append(record)
        fresh.force()

    def scan_full():
        count = 0
        for _addr, record in log.scan():
            count += 1
        return count

    def scan_headers():
        count = 0
        for _addr, header in log.scan_headers():
            count += 1
        return count

    # The headline workload: "which records touch page 7?" — the shape
    # of every filter in recovery (analysis/redo dispatch, page history,
    # client filters).  Full decode pays for before/after images the
    # filter never looks at; the header peek does not.
    def filtered_full():
        hits = 0
        for _addr, record in log.scan():
            if record.is_redoable() and record.page_id == 7:
                hits += 1
        return hits

    def filtered_headers():
        hits = 0
        for _addr, header in log.scan_headers():
            if header.is_redoable() and header.page_id == 7:
                hits += 1
        return hits

    assert filtered_full() == filtered_headers(), "filter parity broken"
    assert scan_full() == scan_headers() == record_count

    append_ns = time_ns(do_append, iterations)
    full_ns = time_ns(scan_full, iterations)
    headers_ns = time_ns(scan_headers, iterations)
    filtered_full_ns = time_ns(filtered_full, iterations)
    filtered_headers_ns = time_ns(filtered_headers, iterations)

    n = record_count
    return {
        "records": n,
        "iterations": iterations,
        "log_bytes": log.end_of_log_addr,
        "append_ns_per_record": append_ns / n,
        "scan_full_decode_ns_per_record": full_ns / n,
        "scan_headers_ns_per_record": headers_ns / n,
        "filtered_scan_full_decode_ns_per_record": filtered_full_ns / n,
        "filtered_scan_headers_ns_per_record": filtered_headers_ns / n,
        "speedup_scan": full_ns / headers_ns,
        "speedup_filtered_scan": filtered_full_ns / filtered_headers_ns,
        "header_peeks": log.header_peeks,
        "full_decodes": log.full_decodes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small log / few iterations (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless filtered-scan speedup >= "
                             f"{REQUIRED_FILTERED_SPEEDUP}x")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    record_count, iterations = (500, 3) if opts.quick else (4000, 7)
    result = run(record_count, iterations)
    result["mode"] = "quick" if opts.quick else "full"
    result["required_filtered_speedup"] = REQUIRED_FILTERED_SPEEDUP

    out = opts.out if opts.out is not None or opts.quick else FULL_OUT
    if out is not None:
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    for key in ("append_ns_per_record",
                "scan_full_decode_ns_per_record",
                "scan_headers_ns_per_record",
                "filtered_scan_full_decode_ns_per_record",
                "filtered_scan_headers_ns_per_record"):
        print(f"  {key:<44} {result[key]:>10.1f}")
    print(f"  {'speedup_scan':<44} {result['speedup_scan']:>10.2f}x")
    print(f"  {'speedup_filtered_scan':<44} "
          f"{result['speedup_filtered_scan']:>10.2f}x")

    if opts.check and result["speedup_filtered_scan"] < REQUIRED_FILTERED_SPEEDUP:
        print(f"FAIL: filtered-scan speedup "
              f"{result['speedup_filtered_scan']:.2f}x < "
              f"{REQUIRED_FILTERED_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
