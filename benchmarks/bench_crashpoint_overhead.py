"""Crashpoint-overhead benchmark: the cost of the fault-plane hooks.

Every instrumented hot path carries a ``probe.faults is not None`` guard
(DESIGN §9, "Probe").  This standalone runner (no pytest required)
proves the guard is free in practice and that the enabled path still
works:

* **disabled gate** — a mixed log/disk workload run on the
  instrumented classes with no fault plan attached, against baseline
  replicas of the same hot methods with the faults guard lines deleted.
  ``--check`` fails unless the instrumented-disabled run is within
  :data:`MAX_DISABLED_OVERHEAD` of baseline.
* **enabled smoke** — one crash schedule replayed twice through the
  chaos explorer; the run must recover with zero violations and a
  digest that is byte-identical across the replays.

A full run writes ``BENCH_crashpoint_overhead.json`` at the repo root; a
``--quick`` run writes only where ``--out`` points.

Usage::

    PYTHONPATH=src python benchmarks/bench_crashpoint_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_crashpoint_overhead.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_crashpoint_overhead.py --quick --check
"""

import argparse
import json
import time
from pathlib import Path

from repro.core.log_records import UpdateOp, UpdateRecord, encode_record
from repro.storage.disk import Disk
from repro.storage.page import Page, PageKind
from repro.storage.stable_log import FRAME_OVERHEAD, StableLog, _FRAME_LEN

#: --check bound: instrumented-disabled may cost at most 3% over baseline.
MAX_DISABLED_OVERHEAD = 1.03

#: Where a full run writes its figures.
FULL_OUT = (Path(__file__).resolve().parent.parent
            / "BENCH_crashpoint_overhead.json")

#: The schedule the enabled smoke replays (seed travels in the id).
SMOKE_SCHEDULE_ID = "s0:server.commit.before_force@1"


class _BaselineLog(StableLog):
    """StableLog with the faults guard lines deleted (pre-hook body)."""

    def append(self, record):
        probe = self.probe
        frame = encode_record(record)
        addr = self._base + len(self._buf)
        self._buf += _FRAME_LEN.pack(len(frame))
        self._buf += frame
        self._index.append(addr)
        self._remember(addr, record)
        self.appends += 1
        self.bytes_appended += len(frame) + FRAME_OVERHEAD
        if probe.tracer is not None:
            probe.tracer.instant("log", "append", "server", addr=addr,
                                 lsn=int(record.lsn),
                                 nbytes=len(frame) + FRAME_OVERHEAD)
        return addr

    def force(self, up_to_addr=None):
        probe = self.probe
        if up_to_addr is None:
            target = self.end_of_log_addr
        else:
            target = self._frame_end(up_to_addr)
        if target <= self._flushed_addr:
            return
        self._flushed_addr = target
        self.forces += 1
        if probe.tracer is not None:
            probe.tracer.instant("log", "force", "server",
                                 flushed_addr=target)


class _BaselineDisk(Disk):
    """Disk with the faults guard lines deleted (pre-hook body)."""

    def write_page(self, page):
        image = page.to_bytes()
        self._images[page.page_id] = image
        self._failed_pages.discard(page.page_id)
        self.writes += 1
        self.bytes_written += len(image)


def build_records(count):
    return [
        UpdateRecord(
            lsn=lsn, client_id="C1", txn_id=f"T{lsn % 7}", prev_lsn=lsn - 1,
            page_id=lsn % 24, op=UpdateOp.RECORD_MODIFY, slot=lsn % 4,
            before=b"before-image-bytes", after=b"after-image-bytes",
        )
        for lsn in range(1, count + 1)
    ]


def make_workload(log_cls, disk_cls, records, pages, sweeps):
    """One round of the mixed hot-path workload: log appends + forces
    and page write/read sweeps — every faults-guarded storage method,
    with the realistic surrounding work (encoding, CRC, dict I/O)."""
    def work():
        log = log_cls()
        for record in records:
            log.append(record)
            if record.lsn % 8 == 0:
                log.force()
        log.force()
        disk = disk_cls()
        for _ in range(sweeps):
            for page in pages:
                disk.write_page(page)
                disk.read_page(page.page_id)
        return log.end_of_log_addr + disk.bytes_written
    return work


def interleaved_best_ns(fn_a, fn_b, rounds):
    """Best-of-N for two thunks with A/B alternation inside each round,
    so drift (thermal, scheduler) hits both sides equally."""
    best_a = best_b = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        fn_a()
        elapsed_a = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        fn_b()
        elapsed_b = time.perf_counter_ns() - start
        if best_a is None or elapsed_a < best_a:
            best_a = elapsed_a
        if best_b is None or elapsed_b < best_b:
            best_b = elapsed_b
    return best_a, best_b


def run_disabled_gate(record_count, sweeps, rounds):
    records = build_records(record_count)
    pages = []
    for page_id in range(16):
        page = Page(page_id, PageKind.DATA)
        page.format(PageKind.DATA)
        pages.append(page)

    instrumented = make_workload(StableLog, Disk, records, pages, sweeps)
    baseline = make_workload(_BaselineLog, _BaselineDisk, records, pages,
                             sweeps)
    assert instrumented() == baseline(), "workload parity broken"

    disabled_ns, baseline_ns = interleaved_best_ns(
        instrumented, baseline, rounds)
    return {
        "records": record_count,
        "sweeps": sweeps,
        "rounds": rounds,
        "baseline_ns": baseline_ns,
        "disabled_ns": disabled_ns,
        "disabled_overhead_ratio": disabled_ns / baseline_ns,
    }


def run_enabled_smoke():
    """Replay one crash schedule twice; recovery must be clean and the
    digests byte-identical."""
    from repro.harness.chaos import CrashScheduleExplorer

    explorer = CrashScheduleExplorer()
    first = explorer.replay(SMOKE_SCHEDULE_ID)
    second = explorer.replay(SMOKE_SCHEDULE_ID)
    return {
        "smoke_schedule_id": SMOKE_SCHEDULE_ID,
        "smoke_fired": [list(leg) for leg in first.fired],
        "smoke_violations": list(first.violations),
        "smoke_digest_stable": first.digest == second.digest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds / smaller workload (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless disabled overhead <= "
                             f"{MAX_DISABLED_OVERHEAD:.2f}x and the enabled "
                             "replay is clean and stable")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    record_count, sweeps, rounds = \
        (400, 20, 17) if opts.quick else (2000, 60, 35)
    result = run_disabled_gate(record_count, sweeps, rounds)
    result.update(run_enabled_smoke())
    result["mode"] = "quick" if opts.quick else "full"
    result["max_disabled_overhead"] = MAX_DISABLED_OVERHEAD

    out = opts.out if opts.out is not None or opts.quick else FULL_OUT
    if out is not None:
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    print(f"  {'baseline_ns':<28} {result['baseline_ns']:>12}")
    print(f"  {'disabled_ns':<28} {result['disabled_ns']:>12}")
    print(f"  {'disabled_overhead_ratio':<28} "
          f"{result['disabled_overhead_ratio']:>12.4f}")
    print(f"  {'smoke_digest_stable':<28} "
          f"{str(result['smoke_digest_stable']):>12}")

    failed = False
    if result["smoke_violations"]:
        for violation in result["smoke_violations"]:
            print(f"FAIL: chaos smoke: {violation}")
        failed = True
    if not result["smoke_digest_stable"]:
        print("FAIL: chaos smoke digest changed between replays")
        failed = True
    if opts.check and \
            result["disabled_overhead_ratio"] > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-faults overhead "
              f"{result['disabled_overhead_ratio']:.4f}x > "
              f"{MAX_DISABLED_OVERHEAD}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
