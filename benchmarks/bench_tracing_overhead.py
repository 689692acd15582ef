"""Tracing-overhead benchmark: the cost of the observability hooks.

Every hot path carries a ``probe.tracer is not None`` guard (DESIGN §9,
"Probe").  This standalone runner (no pytest required) proves the guard
is free in practice and that the enabled path produces a valid trace:

* **disabled gate** — a mixed log/buffer workload run on the
  instrumented classes with no tracer attached, against baseline
  replicas of the same hot methods with the guard lines deleted.
  ``--check`` fails unless the instrumented-disabled run is within
  :data:`MAX_DISABLED_OVERHEAD` of baseline.
* **histograms-disabled gate** — the same comparison for the metrics
  guard alone (``probe.metrics is not None`` with no hub attached),
  gated by the same :data:`MAX_DISABLED_OVERHEAD` bound.
* **enabled smoke** — an E5-style client-crash run with tracing and
  metrics on; the Chrome ``trace_event`` export must pass
  :func:`repro.obs.export.validate_chrome_trace` and the OpenMetrics
  text must pass :func:`repro.obs.export.validate_openmetrics` with
  zero problems.

A full run writes ``BENCH_tracing_overhead.json`` at the repo root; a
``--quick`` run writes only where ``--out`` points.

Usage::

    PYTHONPATH=src python benchmarks/bench_tracing_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_tracing_overhead.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_tracing_overhead.py --quick --check
"""

import argparse
import json
import time
from pathlib import Path

from repro.core.log_records import UpdateOp, UpdateRecord, encode_record
from repro.obs.export import (render_openmetrics, to_chrome_trace,
                              validate_chrome_trace, validate_openmetrics)
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page, PageKind
from repro.storage.stable_log import FRAME_OVERHEAD, StableLog, _FRAME_LEN

#: --check bound: instrumented-disabled may cost at most 3% over baseline.
MAX_DISABLED_OVERHEAD = 1.03

#: Where a full run writes its figures.
FULL_OUT = (Path(__file__).resolve().parent.parent
            / "BENCH_tracing_overhead.json")


class _BaselineLog(StableLog):
    """StableLog with the tracer guard lines deleted (pre-hook body)."""

    def append(self, record):
        frame = encode_record(record)
        addr = self._base + len(self._buf)
        self._buf += _FRAME_LEN.pack(len(frame))
        self._buf += frame
        self._index.append(addr)
        self._remember(addr, record)
        self.appends += 1
        self.bytes_appended += len(frame) + FRAME_OVERHEAD
        return addr

    def force(self, up_to_addr=None):
        if up_to_addr is None:
            target = self.end_of_log_addr
        else:
            target = self._frame_end(up_to_addr)
        if target <= self._flushed_addr:
            return
        self._flushed_addr = target
        self.forces += 1


class _HistOnlyLog(_BaselineLog):
    """_BaselineLog plus ONLY the histogram guard in ``force`` — isolates
    the cost of the un-attached ``metrics`` check from the tracer's."""

    def force(self, up_to_addr=None):
        probe = self.probe
        if up_to_addr is None:
            target = self.end_of_log_addr
        else:
            target = self._frame_end(up_to_addr)
        if target <= self._flushed_addr:
            return
        flushed_before = self._flushed_addr
        self._flushed_addr = target
        self.forces += 1
        if probe.metrics is not None:
            probe.metrics.log_force_bytes.observe(target - flushed_before)


class _BaselinePool(BufferPool):
    """BufferPool with the tracer guard lines deleted (pre-hook body)."""

    def fix(self, page_id):
        self._frames[page_id].fix_count += 1

    def unfix(self, page_id):
        bcb = self._frames[page_id]
        if bcb.fix_count <= 0:
            raise ValueError(f"unfix of unfixed page {page_id}")
        bcb.fix_count -= 1


def build_records(count):
    return [
        UpdateRecord(
            lsn=lsn, client_id="C1", txn_id=f"T{lsn % 7}", prev_lsn=lsn - 1,
            page_id=lsn % 24, op=UpdateOp.RECORD_MODIFY, slot=lsn % 4,
            before=b"before-image-bytes", after=b"after-image-bytes",
        )
        for lsn in range(1, count + 1)
    ]


def make_workload(log_cls, pool_cls, records, pages, sweeps):
    """One round of the mixed hot-path workload: log appends + forces,
    buffer fix/unfix and lookup sweeps — every guarded method, with the
    realistic surrounding work (record encoding, LRU, dict lookups)."""
    def work():
        log = log_cls()
        for record in records:
            log.append(record)
            if record.lsn % 8 == 0:
                log.force()
        log.force()
        pool = pool_cls(capacity=len(pages) + 1, name="bench")
        for page in pages:
            pool.admit(page)
        for _ in range(sweeps):
            for page in pages:
                pool.fix(page.page_id)
                pool.get(page.page_id)
                pool.unfix(page.page_id)
        return log.end_of_log_addr
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

    instrumented = make_workload(StableLog, BufferPool, records, pages, sweeps)
    baseline = make_workload(_BaselineLog, _BaselinePool, records, pages,
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


def run_hist_disabled_gate(record_count, sweeps, rounds):
    """The histograms-disabled leg: same workload, baseline log vs a
    replica whose ``force`` carries only the un-attached metrics guard."""
    records = build_records(record_count)
    pages = []
    for page_id in range(16):
        page = Page(page_id, PageKind.DATA)
        page.format(PageKind.DATA)
        pages.append(page)

    guarded = make_workload(_HistOnlyLog, _BaselinePool, records, pages,
                            sweeps)
    baseline = make_workload(_BaselineLog, _BaselinePool, records, pages,
                             sweeps)
    assert guarded() == baseline(), "workload parity broken"

    guarded_ns, baseline_ns = interleaved_best_ns(guarded, baseline, rounds)
    return {
        "hist_baseline_ns": baseline_ns,
        "hist_disabled_ns": guarded_ns,
        "hist_disabled_overhead_ratio": guarded_ns / baseline_ns,
    }


def run_enabled_smoke():
    """A traced client-crash run; its Chrome export must validate."""
    from repro.tools.tracedump import _demo_system

    from repro.harness.metrics import snapshot

    system = _demo_system()
    tracer = system.probe.tracer
    assert tracer is not None
    doc = to_chrome_trace(tracer.events)
    problems = validate_chrome_trace(doc)
    snap = snapshot(system)
    om_text = render_openmetrics(snap.as_dict(), snap.histograms)
    return {
        "trace_events": len(tracer.events),
        "chrome_rows": len(doc["traceEvents"]),
        "chrome_problems": problems,
        "open_spans": len(tracer.open_spans()),
        "openmetrics_lines": len(om_text.splitlines()),
        "openmetrics_problems": validate_openmetrics(om_text),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds / smaller workload (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless disabled overhead <= "
                             f"{MAX_DISABLED_OVERHEAD:.2f}x and the enabled "
                             "trace validates")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON result (default: "
                             f"{FULL_OUT.name} at the repo root for a full "
                             "run, nowhere for --quick)")
    opts = parser.parse_args(argv)

    record_count, sweeps, rounds = \
        (400, 20, 9) if opts.quick else (2000, 60, 21)
    result = run_disabled_gate(record_count, sweeps, rounds)
    result.update(run_hist_disabled_gate(record_count, sweeps, rounds))
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
    print(f"  {'hist_disabled_overhead_ratio':<28} "
          f"{result['hist_disabled_overhead_ratio']:>12.4f}")
    print(f"  {'trace_events (enabled run)':<28} "
          f"{result['trace_events']:>12}")
    print(f"  {'chrome_problems':<28} {len(result['chrome_problems']):>12}")
    print(f"  {'openmetrics_problems':<28} "
          f"{len(result['openmetrics_problems']):>12}")

    failed = False
    if result["chrome_problems"]:
        for problem in result["chrome_problems"]:
            print(f"FAIL: chrome trace: {problem}")
        failed = True
    if result["openmetrics_problems"]:
        for problem in result["openmetrics_problems"]:
            print(f"FAIL: openmetrics: {problem}")
        failed = True
    if result["open_spans"]:
        print(f"FAIL: {result['open_spans']} spans left open after the run")
        failed = True
    if opts.check and \
            result["disabled_overhead_ratio"] > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-tracer overhead "
              f"{result['disabled_overhead_ratio']:.4f}x > "
              f"{MAX_DISABLED_OVERHEAD}x")
        failed = True
    if opts.check and \
            result["hist_disabled_overhead_ratio"] > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-histogram overhead "
              f"{result['hist_disabled_overhead_ratio']:.4f}x > "
              f"{MAX_DISABLED_OVERHEAD}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
