"""Sanitizer-overhead benchmark: the cost of the runtime-monitor hooks.

Every latch/lock/log hot path carries a ``probe.sanitizer is not None``
guard (DESIGN §9, "Probe").  This standalone runner (no pytest
required) proves the guard is cheap and the enabled path still works:

* **disabled gate** — a mixed fix/unfix + lock + log workload run on
  the instrumented classes with no sanitizer attached, against baseline
  replicas of the same hot methods with the sanitizer guard lines
  deleted.  ``--check`` fails unless the instrumented-disabled run is
  within :data:`MAX_DISABLED_OVERHEAD` of baseline.
* **enabled smoke** — the same engine workload run twice on a full
  complex, once with ``SystemConfig(sanitizer=True)`` and once without;
  the armed run must finish violation-free with a non-empty observed
  acquisition-order graph, and the metrics deltas of the two runs must
  be identical (the sanitizer owns no counters).

A full run writes ``BENCH_sanitizer_overhead.json`` at the repo root; a
``--quick`` run writes only where ``--out`` points.

Usage::

    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py --quick --check
"""

import argparse
import json
import time
from pathlib import Path

from repro.core.log_records import UpdateOp, UpdateRecord, encode_record
from repro.core.lsn import NULL_ADDR
from repro.errors import LockConflictError
from repro.locking.lock_modes import LockMode, compatible, supremum
from repro.locking.lock_table import LockEntry, LockTable
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page
from repro.storage.stable_log import FRAME_OVERHEAD, StableLog, _FRAME_LEN

#: --check bound: instrumented-disabled may cost at most 5% over baseline.
MAX_DISABLED_OVERHEAD = 1.05

#: Where a full run writes its figures.
FULL_OUT = (Path(__file__).resolve().parent.parent
            / "BENCH_sanitizer_overhead.json")


class _BaselinePool(BufferPool):
    """BufferPool with the sanitizer guard lines deleted (pre-hook body)."""

    def fix(self, page_id):
        self._frames[page_id].fix_count += 1
        probe = self.probe
        if probe.tracer is not None:
            probe.tracer.instant("buf", "fix", self.name, page_id=page_id)

    def unfix(self, page_id):
        bcb = self._frames[page_id]
        if bcb.fix_count <= 0:
            raise ValueError(f"unfix of unfixed page {page_id}")
        bcb.fix_count -= 1
        probe = self.probe
        if probe.tracer is not None:
            probe.tracer.instant("buf", "unfix", self.name, page_id=page_id)


class _BaselineTable(LockTable):
    """LockTable with the sanitizer guard lines deleted (pre-hook body)."""

    def acquire(self, owner, resource, mode):
        self.requests += 1
        entry = self._entries.get(resource)
        if entry is None:
            entry = LockEntry(resource)
            self._entries[resource] = entry
        held = entry.holders.get(owner)
        target = mode if held is None else supremum(held, mode)
        conflicting = False
        for other_mode, count in entry.mode_counts.items():
            if other_mode is held:
                count -= 1
            if count > 0 and not compatible(other_mode, target):
                conflicting = True
                break
        if conflicting:
            blockers = [other for other, other_mode in entry.holders.items()
                        if other != owner and not compatible(other_mode, target)]
            self.conflicts += 1
            raise LockConflictError(resource, target.value, tuple(blockers))
        entry.holders[owner] = target
        counts = entry.mode_counts
        if held is None:
            owned = self._by_owner.get(owner)
            if owned is None:
                owned = self._by_owner[owner] = {}
            owned[resource] = None
        elif held is not target:
            counts[held] -= 1
        if held is not target:
            counts[target] = counts.get(target, 0) + 1
        self.grants += 1
        return target

    def release_all(self, owner):
        owned = self._by_owner.pop(owner, None)
        if not owned:
            return []
        released = []
        for resource in owned:
            entry = self._entries[resource]
            entry.mode_counts[entry.holders.pop(owner)] -= 1
            self.releases += 1
            released.append(resource)
            if not entry.holders and entry.rec_addr == NULL_ADDR:
                del self._entries[resource]
        return released


class _BaselineLog(StableLog):
    """StableLog with the sanitizer guard lines deleted (pre-hook body)."""

    def append(self, record):
        probe = self.probe
        if probe.faults is not None:
            probe.faults.crashpoint("log.append.before")
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
        if probe.faults is not None:
            probe.faults.crashpoint("log.force.before")
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


def build_records(count):
    return [
        UpdateRecord(
            lsn=lsn, client_id="C1", txn_id=f"T{lsn % 7}", prev_lsn=lsn - 1,
            page_id=lsn % 24, op=UpdateOp.RECORD_MODIFY, slot=lsn % 4,
            before=b"before-image-bytes", after=b"after-image-bytes",
        )
        for lsn in range(1, count + 1)
    ]


def make_workload(pool_cls, table_cls, log_cls, records, sweeps):
    """One round of the mixed hot-path workload: pin/unpin sweeps, lock
    acquire/release cycles, and log appends with periodic forces —
    every sanitizer-guarded method, with its realistic surrounding work."""
    def work():
        pool = pool_cls(32, name="bench-pool")
        for page_id in range(24):
            pool.admit(Page(page_id))
        table = table_cls("bench-locks")
        log = log_cls()
        for record in records:
            log.append(record)
            if record.lsn % 8 == 0:
                log.force()
        log.force()
        total = 0
        for sweep in range(sweeps):
            for page_id in range(24):
                pool.fix(page_id)
                pool.fix(page_id)
                pool.unfix(page_id)
                pool.unfix(page_id)
            for txn in range(8):
                owner = f"T{txn}"
                for resource in range(12):
                    table.acquire(owner, ("t", resource), LockMode.S)
                total += len(table.release_all(owner))
        return total + log.end_of_log_addr + pool.hits + table.grants
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
    instrumented = make_workload(BufferPool, LockTable, StableLog,
                                 records, sweeps)
    baseline = make_workload(_BaselinePool, _BaselineTable, _BaselineLog,
                             records, sweeps)
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
    """The same engine workload with and without the sanitizer armed:
    clean, edge-observing, and metrics-identical."""
    from repro.config import SystemConfig
    from repro.core.system import ClientServerSystem
    from repro.engine import Engine
    from repro.harness import metrics
    from repro.workloads.generator import seed_table

    deltas = []
    edges = 0
    for armed in (False, True):
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0,
                              sanitizer=armed)
        system = ClientServerSystem(config, client_ids=["C1", "C2"])
        system.bootstrap(data_pages=8, free_pages=16)
        rids = seed_table(system, "C1", "t", 8, 4)
        programs = [
            ("C1", [("update", rids[0], "a"), ("read", rids[9]),
                    ("commit",)]),
            ("C2", [("update", rids[9], "b"), ("update", rids[0], "b2"),
                    ("commit",)]),
            ("C1", [("update", rids[17], "c"), ("abort",)]),
        ]
        before = metrics.snapshot(system)
        Engine(system).run(programs)
        deltas.append(metrics.snapshot(system).minus(before))
        if armed:
            edges = len(system.probe.sanitizer.observed_edges())
    return {
        "smoke_observed_edges": edges,
        "smoke_metrics_identical": deltas[0] == deltas[1],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds / smaller workload (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless disabled overhead <= "
                             f"{MAX_DISABLED_OVERHEAD:.2f}x and the enabled "
                             "smoke is clean and metrics-identical")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    record_count, sweeps, rounds = \
        (400, 12, 17) if opts.quick else (2000, 40, 35)
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
    print(f"  {'smoke_observed_edges':<28} "
          f"{result['smoke_observed_edges']:>12}")
    print(f"  {'smoke_metrics_identical':<28} "
          f"{str(result['smoke_metrics_identical']):>12}")

    failed = False
    if not result["smoke_metrics_identical"]:
        print("FAIL: metrics differ between armed and unarmed runs")
        failed = True
    if not result["smoke_observed_edges"]:
        print("FAIL: armed smoke observed no acquisition-order edges")
        failed = True
    if opts.check and \
            result["disabled_overhead_ratio"] > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-sanitizer overhead "
              f"{result['disabled_overhead_ratio']:.4f}x > "
              f"{MAX_DISABLED_OVERHEAD}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
