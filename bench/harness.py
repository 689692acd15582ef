"""One benchmark run: phases, measurement, the result object.

:func:`run` is what ``bench/run.py`` calls.  An *untraced* run yields
the ten end-to-end metrics; a *traced* run (``--trace 1``) wraps the
layers (``bench.trace``) and yields the per-layer metrics instead.  The
two never share a run, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.metrics import MetricsSnapshot, snapshot

from bench import trace as tracing
from bench.workloads import WORKLOADS, Complex, Workload

perf = time.perf_counter

#: (name, unit, better) — the same ten on every workload.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("commit_txn_per_s", "1/s", "higher"),
    ("txn_us_p50", "us", "lower"),
    ("txn_us_p95", "us", "lower"),
    ("outage_ms", "ms", "lower"),
    ("msgs_per_commit", "count", "lower"),
    ("net_bytes_per_commit", "B", "lower"),
    ("log_bytes_per_commit", "B", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("txn_ok_share", "ratio", "higher"),
]

#: (name, unit, better), grouped by the module the layer lives in.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("engine.run_self_s", "s", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.deadlock_victims", "count", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("client.read_self_s", "s", "lower"),
    ("client.update_self_s", "s", "lower"),
    ("client.commit_self_s", "s", "lower"),
    ("client.rollback_self_s", "s", "lower"),
    ("client_pool.hit_rate", "ratio", "higher"),
    ("client_pool.evictions", "count", "lower"),
    ("client_log.append_self_s", "s", "lower"),
    ("client_log.records", "count", "lower"),
    ("llm.acquire_self_s", "s", "lower"),
    ("llm.local_grant_share", "ratio", "higher"),
    ("llm.locks_avoided", "count", "higher"),
    ("glm.acquire_self_s", "s", "lower"),
    ("glm.requests", "count", "lower"),
    ("glm.callbacks", "count", "lower"),
    ("glm.callbacks_suppressed", "count", "higher"),
    ("deadlock.find_cycle_self_s", "s", "lower"),
    ("deadlock.calls", "count", "lower"),
    ("commit_lsn.self_s", "s", "lower"),
    ("rpc.call_self_s", "s", "lower"),
    ("rpc.calls", "count", "lower"),
    ("rpc.msgs", "count", "lower"),
    ("rpc.bytes", "B", "lower"),
    ("rpc.batched_share", "ratio", "higher"),
    ("server.get_page_self_s", "s", "lower"),
    ("server.acquire_lock_self_s", "s", "lower"),
    ("server.receive_log_records_self_s", "s", "lower"),
    ("server.force_log_for_commit_self_s", "s", "lower"),
    ("server.checkpoint_self_s", "s", "lower"),
    ("server.checkpoints", "count", "lower"),
    ("server_log.append_self_s", "s", "lower"),
    ("server_log.commit_forces", "count", "lower"),
    ("server_log.forces_saved", "count", "higher"),
    ("stable_log.append_self_s", "s", "lower"),
    ("stable_log.force_self_s", "s", "lower"),
    ("stable_log.appends", "count", "lower"),
    ("stable_log.forces", "count", "lower"),
    ("stable_log.bytes", "B", "lower"),
    ("server_pool.self_s", "s", "lower"),
    ("server_pool.hit_rate", "ratio", "higher"),
    ("server_pool.evictions", "count", "lower"),
    ("disk.self_s", "s", "lower"),
    ("disk.reads", "count", "lower"),
    ("disk.writes", "count", "lower"),
    ("disk.page_writes_per_commit", "count", "lower"),
    ("recovery.analysis_s", "s", "lower"),
    ("recovery.redo_s", "s", "lower"),
    ("recovery.undo_s", "s", "lower"),
    ("recovery.lock_rebuild_s", "s", "lower"),
    ("recovery.records_scanned", "count", "lower"),
    ("recovery.redos_applied", "count", "lower"),
    ("recovery.clrs_written", "count", "lower"),
    ("replication.ship_self_s", "s", "lower"),
    ("replication.frames_shipped", "count", "lower"),
    ("replication.ship_acks", "count", "lower"),
    ("replication.apply_self_s", "s", "lower"),
    ("replication.detect_ticks", "count", "lower"),
    ("replication.promote_s", "s", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("gc.collections", "count", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.load_s", "s", "lower"),
    ("trace.outage_s", "s", "lower"),
    ("trace.load_coverage", "ratio", "higher"),
    ("trace.outage_coverage", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def host_spin_ms() -> float:
    """A fixed pure-Python loop, timed: the machine's speed right now.

    Reported beside the numbers so drift is visible; never used to
    normalise them.
    """
    start = perf()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return (perf() - start) * 1e3


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


class Counters:
    """Cumulative per-layer counters the registry snapshot lacks."""

    def __init__(self, cx: Complex) -> None:
        server = cx.system.server
        self.snapshot: MetricsSnapshot = snapshot(cx.system)
        self.client_evictions = sum(c.pool.evictions for c in cx.clients)
        self.client_log_records = sum(c.log.records_written
                                      for c in cx.clients)
        self.llm_global = sum(c.llm.global_requests for c in cx.clients)
        self.pool_hits = server.pool.hits
        self.pool_misses = server.pool.misses
        self.pool_evictions = server.pool.evictions


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def timed_build(workload: Workload) -> Tuple[Complex, float]:
    gc.collect()
    start = perf()
    cx = workload.build()
    return cx, perf() - start


@dataclass
class Totals:
    """Load-phase tallies summed over the complexes that carried load."""

    programs: int = 0
    attempts: int = 0
    committed: int = 0
    rolled_back: int = 0
    victims: int = 0
    errors: int = 0
    misses: int = 0
    load_s: float = 0.0
    messages: int = 0
    message_bytes: int = 0
    log_bytes: int = 0
    #: (commits per second, p50 s, p95 s) of every load block.
    blocks: List[Tuple[float, float, float]] = field(default_factory=list)

    def absorb(self, cx: Complex, delta: MetricsSnapshot,
               load_s: float) -> None:
        for name in ("programs", "attempts", "committed", "rolled_back",
                     "victims", "errors"):
            setattr(self, name, getattr(self, name) + getattr(cx, name))
        self.load_s += load_s
        self.messages += delta.messages
        self.message_bytes += delta.message_bytes
        self.log_bytes += delta.log_bytes
        self.blocks += block_figures(cx)

    def finish(self) -> Tuple[int, int]:
        """``(attempted, failed)`` of the result object: programs
        submitted, and those that neither committed nor rolled back
        voluntarily (even after a deadlock victim's resubmission) plus
        oracle misses."""
        unfinished = self.programs - self.committed - self.rolled_back
        return self.programs, unfinished + self.misses


def block_figures(cx: Complex) -> List[Tuple[float, float, float]]:
    """``(commits per second, p50 s, p95 s)`` of each load block."""
    figures = []
    done = 0
    for seconds, commits, end in cx.blocks:
        ordered = sorted(cx.latencies[done:end])
        done = end
        figures.append((commits / seconds, percentile(ordered, 0.50),
                        percentile(ordered, 0.95)))
    return figures


def prefix_seconds(workload: Workload, cx: Complex) -> float:
    return sum(block[0] for block in cx.blocks[:workload.PREFIX_BLOCKS])


# ---------------------------------------------------------------------------
# Untraced: the end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(workload: Workload, import_s: float
                 ) -> Tuple[Dict[str, float], Totals, List[str]]:
    notes: List[str] = []
    spin = host_spin_ms()
    setups: List[float] = []
    outages: List[float] = []
    total = Totals()
    for build in range(workload.builds):
        cx, seconds = timed_build(workload)
        setups.append(seconds)
        if build < workload.builds - workload.sessions:
            continue  # a set-up sample only
        gc.collect()
        before = snapshot(cx.system)
        start = perf()
        workload.load(cx)
        load_s = perf() - start
        total.absorb(cx, snapshot(cx.system).minus(before), load_s)
        for rep in range(workload.outage_reps):
            outages.append(workload.outage(cx, rep))
        total.misses += cx.misses
        del cx

    commits = total.committed
    median = statistics.median
    metrics = {
        "setup_s": import_s + median(setups),
        "commit_txn_per_s": median(b[0] for b in total.blocks),
        "txn_us_p50": median(b[1] for b in total.blocks) * 1e6,
        "txn_us_p95": median(b[2] for b in total.blocks) * 1e6,
        "outage_ms": median(outages) * 1e3,
        "msgs_per_commit": total.messages / commits,
        "net_bytes_per_commit": total.message_bytes / commits,
        "log_bytes_per_commit": total.log_bytes / commits,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "txn_ok_share": 1.0 - (total.victims + total.errors + total.misses)
            / total.attempts,
    }
    notes.append(
        f"load {total.load_s:.3f}s over {workload.sessions} complex(es): "
        f"{total.attempts} attempts, {commits} commits, "
        f"{total.rolled_back} voluntary rollbacks, {total.victims} deadlock "
        f"victims (resubmitted), {total.errors} errors")
    notes.append(
        f"rate and txn_us percentiles: medians over {len(total.blocks)} "
        f"blocks of {commits // len(total.blocks)} committed transactions "
        f"each; whole-phase rate {commits / total.load_s:.1f}/s")
    notes.append("setup_s = import %.3fs + median of %d builds (%s)" % (
        import_s, len(setups), " ".join(f"{s:.3f}" for s in setups)))
    notes.append("outage_ms = median of %d (%s)" % (
        len(outages), " ".join(f"{s * 1e3:.1f}" for s in outages)))
    notes.append(f"oracle misses {total.misses}; host.spin_ms {spin:.2f}")
    return metrics, total, notes


# ---------------------------------------------------------------------------
# Traced: the per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(workload: Workload, trace_path: Optional[str]
               ) -> Tuple[Dict[str, float], Totals, List[str],
                          tracing.SpanRecorder]:
    notes: List[str] = []
    spin = host_spin_ms()

    # Untraced reference: the first third of the load on its own
    # complex, for trace.overhead_ratio over the identical prefix.
    reference, _ = timed_build(workload)
    gc.collect()
    workload.load(reference, prefix_only=True)
    untraced_prefix_s = prefix_seconds(workload, reference)
    del reference

    cx, _ = timed_build(workload)
    recorder = tracing.SpanRecorder()
    tracing.instrument_system(recorder, cx.system)
    cx.on_engine = lambda engine: tracing.instrument_engine(recorder, engine)
    gc.collect()
    recorder.watch_gc()
    try:
        before = Counters(cx)
        load = recorder.begin_phase("load")
        workload.load(cx)
        recorder.end_phase()
        after = Counters(cx)
        staged = workload.stage(cx, 0)
        # The recovery passes are only visible through the tracer hooks.
        cx.system.attach_tracer(tracing.WallTracer(recorder))
        gc.collect()
        outage = recorder.begin_phase("outage")
        workload.fail_and_recover(cx, staged)
        recorder.end_phase()
        workload.settle(cx, staged)
    finally:
        recorder.unwatch_gc()
    delta = after.snapshot.minus(before.snapshot)
    commits = cx.committed
    report = cx.system.server.last_recovery
    replication = cx.system.replication
    local_grants = delta.llm_local_grants
    global_requests = after.llm_global - before.llm_global
    pool_hits = after.pool_hits - before.pool_hits
    pool_misses = after.pool_misses - before.pool_misses
    exchanges = load.calls("rpc.call")
    metrics = {
        "engine.run_self_s": load.self_s("engine.run"),
        "engine.rounds": cx.engine_rounds,
        "engine.deadlock_victims": cx.victims,
        "workloads.generate_s": cx.generate_s,
        "client.read_self_s": load.self_s("client.read"),
        "client.update_self_s": load.self_s("client.update"),
        "client.commit_self_s": load.self_s("client.commit"),
        "client.rollback_self_s": load.self_s("client.rollback"),
        "client_pool.hit_rate": delta.client_cache_hit_rate,
        "client_pool.evictions":
            after.client_evictions - before.client_evictions,
        "client_log.append_self_s": load.self_s("client_log.append"),
        "client_log.records":
            after.client_log_records - before.client_log_records,
        "llm.acquire_self_s": load.self_s("llm.acquire"),
        "llm.local_grant_share":
            ratio(local_grants, local_grants + global_requests),
        "llm.locks_avoided": delta.locks_avoided,
        "glm.acquire_self_s": load.self_s("glm.acquire"),
        "glm.requests": delta.glm_requests,
        "glm.callbacks": delta.callbacks,
        "glm.callbacks_suppressed": delta.callbacks_suppressed,
        "deadlock.find_cycle_self_s": load.self_s("deadlock.find_cycle"),
        "deadlock.calls": load.calls("deadlock.find_cycle"),
        "commit_lsn.self_s": load.self_s("commit_lsn."),
        "rpc.call_self_s": load.self_s("rpc."),
        "rpc.calls": exchanges,
        "rpc.msgs": delta.messages,
        "rpc.bytes": delta.message_bytes,
        "rpc.batched_share":
            ratio(load.calls("rpc.call_batch"), exchanges),
        "server.get_page_self_s": load.self_s("server.get_page"),
        "server.acquire_lock_self_s": load.self_s("server.acquire_lock"),
        "server.receive_log_records_self_s":
            load.self_s("server.receive_log_records"),
        "server.force_log_for_commit_self_s":
            load.self_s("server.force_log_for_commit"),
        "server.checkpoint_self_s": load.self_s("server.checkpoint"),
        "server.checkpoints": load.calls("server.checkpoint"),
        "server_log.append_self_s": load.self_s("server_log.append"),
        "server_log.commit_forces": delta.commit_forces,
        "server_log.forces_saved": delta.forces_saved,
        "stable_log.append_self_s": load.self_s("stable_log.append"),
        "stable_log.force_self_s": load.self_s("stable_log.force"),
        "stable_log.appends": delta.log_appends,
        "stable_log.forces": delta.log_forces,
        "stable_log.bytes": delta.log_bytes,
        "server_pool.self_s": load.self_s("server_pool."),
        "server_pool.hit_rate": ratio(pool_hits, pool_hits + pool_misses),
        "server_pool.evictions":
            after.pool_evictions - before.pool_evictions,
        "disk.self_s": load.self_s("disk."),
        "disk.reads": delta.disk_reads,
        "disk.writes": delta.disk_writes,
        "disk.page_writes_per_commit": ratio(delta.disk_writes, commits),
        "recovery.analysis_s": outage.total_s("recovery.analysis"),
        "recovery.redo_s": outage.total_s("recovery.redo"),
        "recovery.undo_s": outage.total_s("recovery.undo"),
        "recovery.lock_rebuild_s": outage.total_s("recovery.lock_rebuild"),
        "recovery.records_scanned":
            report.total_log_records_processed if report else 0,
        "recovery.redos_applied": report.redos_applied if report else 0,
        "recovery.clrs_written": report.clrs_written if report else 0,
        "replication.ship_self_s": load.self_s("replication.ship"),
        "replication.frames_shipped": delta.frames_shipped,
        "replication.ship_acks": delta.ship_acks,
        "replication.apply_self_s":
            load.self_s("replication.apply", "replication.receive"),
        "replication.detect_ticks":
            replication.failover_ticks if replication else 0,
        "replication.promote_s": outage.total_s("replication.promote"),
        "gc.pause_s": load.self_s("gc.pause"),
        "gc.collections": load.calls("gc.pause"),
        "host.spin_ms": spin,
        "trace.overhead_ratio":
            ratio(prefix_seconds(workload, cx), untraced_prefix_s),
        "trace.load_s": load.duration,
        "trace.outage_s": outage.duration,
        "trace.load_coverage": load.coverage(),
        "trace.outage_coverage": outage.coverage(),
    }
    for phase in (load, outage):
        notes.append(f"{phase.name} phase {phase.duration:.3f}s, coverage "
                     f"{phase.coverage():.1%}; top self times:")
        for name, seconds, calls in phase.top(8):
            notes.append(f"  {name:<34} {seconds:8.3f}s "
                         f"{seconds / phase.duration:6.1%} {calls:>9} calls")
    notes.append(f"oracle misses {cx.misses}")
    total = Totals(misses=cx.misses)
    total.absorb(cx, delta, load.duration)
    if trace_path is not None:
        recorder.write_chrome_trace(trace_path, {
            "workload": workload.name, "seed": workload.seed,
            "seconds": workload.seconds, "metrics": metrics})
        notes.append(f"trace written to {trace_path}")
    return metrics, total, notes, recorder


# ---------------------------------------------------------------------------
# The contract's result object
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        quick: bool = False, import_s: float = 0.0,
        out_dir: Optional[str] = None) -> Tuple[Dict[str, Any], List[str]]:
    """One run; returns the result object and human-readable lines."""
    workload = WORKLOADS[name](seed, seconds, quick)
    if trace:
        trace_path = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            suffix = "_quick" if quick else ""
            trace_path = os.path.join(out_dir, f"trace_{name}{suffix}.json")
        metrics, total, notes, _ = run_traced(workload, trace_path)
    else:
        metrics, total, notes = run_untraced(workload, import_s)
    attempted, failed = total.finish()
    lines = [f"{name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}{' quick' if quick else ''}"]
    lines += [f"  {key} = {value:.6g} {UNITS[key]}"
              for key, value in metrics.items()]
    lines += [f"  # {note}" for note in notes]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]}
                    for key, value in metrics.items()},
    }
    return result, lines
