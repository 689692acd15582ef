"""Outside-in layer trace: wall-clock spans around public methods.

Nothing under ``src/`` knows about this module.  A traced run wraps the
*instances'* public methods (and re-registers RPC handlers through the
dispatchers' public ``register``), so every call that crosses a layer
boundary opens a span on one in-memory recorder.  The simulation is
single-threaded and synchronous, so spans nest strictly like the call
stack and one explicit stack is enough.

A span's *self time* is its duration minus the part covered by its
child spans; per-name self times therefore sum exactly to the phase
they were recorded in.  Full span rows (for the Chrome trace and the
enclosure self-test) are kept for the first ``keep`` spans of a phase
only — aggregation covers every span, so memory stays bounded on the
16k-transaction workloads.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

#: (name, start_s, end_s, parent_index, txn_id); parent_index is -1 at
#: the top of a phase.
Span = Tuple[str, float, float, int, Optional[str]]

#: The phase root's own span name: bench loop code plus the recorder's
#: bookkeeping around top-level calls.  It is the *unattributed* part.
DRIVER = "bench.driver"


class Phase:
    """Aggregates and kept spans of one traced phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        #: span name -> [calls, self seconds, inclusive seconds]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[Optional[Span]] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_s(self, *prefixes: str) -> float:
        """Summed self time of every span name starting with a prefix."""
        return sum(acc[1] for name, acc in self.totals.items()
                   if name.startswith(prefixes))

    def total_s(self, name: str) -> float:
        acc = self.totals.get(name)
        return acc[2] if acc else 0.0

    def calls(self, *prefixes: str) -> int:
        return int(sum(acc[0] for name, acc in self.totals.items()
                       if name.startswith(prefixes)))

    def coverage(self) -> float:
        """Wrapped self time over phase time (1 - the driver's share)."""
        if self.duration <= 0:
            return 0.0
        return 1.0 - self.self_s(DRIVER) / self.duration

    def top(self, n: int) -> List[Tuple[str, float, int]]:
        """The ``n`` wrapped spans with most self time: (name, s, calls)."""
        ranked = sorted(((name, acc[1], int(acc[0]))
                         for name, acc in self.totals.items()
                         if name != DRIVER), key=lambda item: -item[1])
        return ranked[:n]


class SpanRecorder:
    """One span stack, one clock, one list of phases.

    The stack is two parallel lists of plain numbers (child seconds and
    kept-span index per open span) rather than one list of frames: a
    span then allocates nothing the garbage collector counts, which
    keeps the recorder from provoking the collections it measures.
    """

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.clock = time.perf_counter
        self.phases: Dict[str, Phase] = {}
        self.phase: Optional[Phase] = None
        self._child: List[float] = []
        self._index: List[int] = []
        self.txn_id: Optional[str] = None
        self._gc_start = 0.0

    # -- phases ------------------------------------------------------------

    def begin_phase(self, name: str) -> Phase:
        assert self.phase is None, "phases do not nest"
        phase = self.phases[name] = Phase(name)
        self.phase = phase
        self._child.append(0.0)
        self._index.append(-1)
        phase.start = self.clock()
        return phase

    def end_phase(self) -> Phase:
        phase = self.phase
        assert phase is not None and len(self._child) == 1
        phase.end = self.clock()
        self._index.pop()
        covered = self._child.pop()
        phase.totals[DRIVER] = [1, phase.duration - covered, phase.duration]
        self.phase = None
        return phase

    # -- spans -------------------------------------------------------------

    def push(self) -> float:
        """Open a span by hand (tracer adapter, GC callback); returns
        its start time for the matching :meth:`pop`."""
        phase = self.phase
        index = -1
        if phase is not None and len(phase.spans) < self.keep:
            index = len(phase.spans)
            phase.spans.append(None)
        self._index.append(index)
        self._child.append(0.0)
        return self.clock()

    def pop(self, name: str, start: float) -> None:
        end = self.clock()
        covered = self._child.pop()
        index = self._index.pop()
        phase = self.phase
        if phase is None:
            return
        dur = end - start
        self._child[-1] += dur
        acc = phase.totals.get(name)
        if acc is None:
            acc = phase.totals[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += dur - covered
        acc[2] += dur
        if index >= 0:
            phase.spans[index] = (name, start, end, self._index[-1],
                                  self.txn_id)

    def wrap(self, name: str, fn: Callable[..., Any],
             txn_arg: bool = False) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``.

        Outside a phase the wrapper is a plain passthrough, so set-up
        and the untimed gaps between phases pay (almost) nothing.  With
        ``txn_arg`` the first positional argument is a transaction whose
        id becomes the identifier every span below shares.
        """
        rec = self
        child = self._child
        indices = self._index
        clock = self.clock
        keep = self.keep

        def span(*args: Any, **kwargs: Any) -> Any:
            phase = rec.phase
            if phase is None:
                return fn(*args, **kwargs)
            if txn_arg:
                rec.txn_id = args[0].txn_id
            spans = phase.spans
            index = -1
            if len(spans) < keep:
                index = len(spans)
                spans.append(None)
            indices.append(index)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                indices.pop()
                dur = end - start
                child[-1] += dur
                acc = phase.totals.get(name)
                if acc is None:
                    acc = phase.totals[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur - covered
                acc[2] += dur
                if index >= 0:
                    spans[index] = (name, start, end, indices[-1],
                                    rec.txn_id)

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    # -- garbage collector -------------------------------------------------

    def gc_callback(self, event: str, info: Dict[str, Any]) -> None:
        """``gc.callbacks`` hook: a collection is a span of its own, so
        its pause is carved out of whichever layer it interrupted."""
        if self.phase is None:
            return
        if event == "start":
            self._gc_start = self.push()
        elif self._gc_start:
            self.pop("gc.pause", self._gc_start)
            self._gc_start = 0.0

    def watch_gc(self) -> None:
        gc.callbacks.append(self.gc_callback)

    def unwatch_gc(self) -> None:
        if self.gc_callback in gc.callbacks:
            gc.callbacks.remove(self.gc_callback)

    # -- export ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per phase: duration, coverage and every span name's
        ``[calls, self seconds, inclusive seconds]``."""
        return {
            phase.name: {"seconds": phase.duration,
                         "coverage": phase.coverage(),
                         "totals": phase.totals}
            for phase in self.phases.values()
        }

    def chrome_trace(self, other: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """Chrome ``trace_event`` document (complete ``X`` events).

        One thread per phase; timestamps are microseconds since the
        first phase began.  ``args.parent`` is the index of the parent
        span within the same phase (-1 at the top).  ``otherData``
        carries :meth:`summary` plus whatever the caller adds, so the
        file explains itself without the run that wrote it.
        """
        rows: List[Dict[str, Any]] = []
        origin = min((p.start for p in self.phases.values()), default=0.0)
        for tid, phase in enumerate(self.phases.values(), start=1):
            rows.append({"ph": "M", "name": "thread_name", "pid": 1,
                         "tid": tid, "args": {"name": phase.name}})
            rows.append({"ph": "X", "name": f"phase:{phase.name}",
                         "cat": "phase", "pid": 1, "tid": tid,
                         "ts": (phase.start - origin) * 1e6,
                         "dur": phase.duration * 1e6,
                         "args": {"spans_kept": len(phase.spans),
                                  "spans_total": phase.calls("")}})
            for index, span in enumerate(phase.spans):
                if span is None:
                    continue  # still open when the phase ended
                name, start, end, parent, txn_id = span
                rows.append({
                    "ph": "X", "name": name, "cat": name.split(".")[0],
                    "pid": 1, "tid": tid, "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"index": index, "parent": parent,
                             "txn": txn_id},
                })
        return {"traceEvents": rows, "displayTimeUnit": "ms",
                "otherData": {"phases": self.summary(), **(other or {})}}

    def write_chrome_trace(self, path: str,
                           other: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w") as fp:
            json.dump(self.chrome_trace(other), fp, separators=(",", ":"))


class WallTracer(Tracer):
    """The repo's tracer hooks, re-timed on the recorder's wall clock.

    The recovery passes are not separately callable from outside, but
    the recovery engines bracket them with ``tracer.begin/end`` in the
    ``recovery`` category; this adapter turns exactly those hooks into
    recorder spans and drops every other event, so attaching it costs
    one cheap call per unrelated hook.  It is attached for the outage
    phase of a traced run only.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self._recorder = recorder
        self._open: Dict[int, Tuple[str, float]] = {}
        self._ids = 0

    def begin(self, cat: str, name: str, node: str, **args: Any) -> int:
        if cat != "recovery":
            return 0
        self._ids += 1
        span_name = f"recovery.{name}"
        self._open[self._ids] = (span_name, self._recorder.push())
        return self._ids

    def end(self, span_id: int, **args: Any) -> None:
        if span_id:
            self._recorder.pop(*self._open.pop(span_id))

    def instant(self, cat: str, name: str, node: str, **args: Any) -> None:
        return None


# ---------------------------------------------------------------------------
# Instrumentation: which public methods become which spans
# ---------------------------------------------------------------------------

#: Server RPC handlers are bound into the dispatch table at construction,
#: so they are re-registered wrapped *and* shadowed on the instance (for
#: the server's own internal calls, e.g. the automatic checkpoint).
SERVER_HANDLERS = (
    "get_page", "acquire_lock", "release_lock", "acquire_update_privilege",
    "release_update_privilege", "receive_log_records",
    "force_log_for_commit", "fetch_log_records", "receive_dirty_page",
    "receive_client_checkpoint",
)

CLIENT_TXN_METHODS = ("read", "update", "insert", "commit", "rollback")
CLIENT_CALLBACKS = (
    "push_page_callback", "release_privilege_callback",
    "downgrade_privilege_callback", "invalidate_page",
    "relinquish_lock_callback", "reduce_lock_callback", "receive_lsn_sync",
    "report_dirty_pages",
)
#: What a surviving client does for the restarted server (section 2.7).
CLIENT_LOCK_REBUILD = (
    "converge_after_server_restart", "report_lock_state",
    "server_restarted",
)
POOL_METHODS = ("get", "admit", "mark_dirty", "mark_clean", "drop")
CLIENT_LOG_METHODS = ("append", "next_lsn", "unshipped", "note_shipped",
                      "prune_stable")
GLM_SPANS = {
    "acquire": "glm.acquire", "acquire_p_lock": "glm.acquire",
    "release": "glm.release", "release_p_lock": "glm.release",
    "release_all": "glm.release", "release_all_p_locks": "glm.release",
    "downgrade": "glm.release", "downgrade_p_lock": "glm.release",
    "holders": "glm.lookup", "p_lock_holders": "glm.lookup",
    "p_lock_s_holders": "glm.lookup", "update_privilege_owner": "glm.lookup",
    "reinstall_client_locks": "recovery.lock_rebuild",
}
TRACKER_METHODS = ("observe", "observe_header", "commit_lsn", "floor_bound",
                   "commit_lsn_by_table", "note_sync_acknowledged")
SERVER_LOG_SPANS = {
    "append_from_client": "server_log.append",
    "append_local": "server_log.append",
    "force": "server_log.force", "commit_force": "server_log.force",
    "addr_for_rec_lsn": "server_log.lookup",
    "addr_of_lsn": "server_log.lookup",
}
STABLE_LOG_METHODS = ("append", "force", "read_at")


def _shadow(recorder: SpanRecorder, obj: Any, method: str, span: str,
            txn_arg: bool = False) -> Callable[..., Any]:
    """Shadow ``obj.method`` on the instance with its span wrapper."""
    wrapped = recorder.wrap(span, getattr(obj, method), txn_arg)
    setattr(obj, method, wrapped)
    return wrapped


def instrument_client(recorder: SpanRecorder, client: Any) -> None:
    for method in CLIENT_TXN_METHODS:
        _shadow(recorder, client, method, f"client.{method}", txn_arg=True)
    for method in CLIENT_CALLBACKS:
        _shadow(recorder, client, method, "client.callback")
    _shadow(recorder, client, "take_checkpoint", "client.take_checkpoint")
    for method in CLIENT_LOCK_REBUILD:
        _shadow(recorder, client, method, "recovery.lock_rebuild")
    for method in POOL_METHODS:
        _shadow(recorder, client.pool, method, f"client_pool.{method}")
    for method in CLIENT_LOG_METHODS:
        _shadow(recorder, client.log, method, f"client_log.{method}")
    _shadow(recorder, client.llm, "acquire", "llm.acquire")
    _shadow(recorder, client.llm, "release_transaction", "llm.release")
    _shadow(recorder, client.llm, "try_relinquish", "llm.callback")
    _shadow(recorder, client.llm, "reduce_to_local_need", "llm.callback")
    _shadow(recorder, client.rpc, "call", "rpc.call")
    _shadow(recorder, client.rpc, "call_batch", "rpc.call_batch")


def instrument_server(recorder: SpanRecorder, server: Any) -> None:
    for method in SERVER_HANDLERS:
        wrapped = _shadow(recorder, server, method, f"server.{method}")
        server.dispatcher.register(method, wrapped)
    _shadow(recorder, server, "take_checkpoint", "server.checkpoint")
    _shadow(recorder, server, "restart", "server.restart")
    _shadow(recorder, server, "recover_failed_client",
            "server.recover_failed_client")
    for method, span in GLM_SPANS.items():
        _shadow(recorder, server.glm, method, span)
    for method in TRACKER_METHODS:
        _shadow(recorder, server.tracker, method, f"commit_lsn.{method}")
    for method, span in SERVER_LOG_SPANS.items():
        _shadow(recorder, server.log, method, span)
    for method in STABLE_LOG_METHODS:
        _shadow(recorder, server.log.stable, method, f"stable_log.{method}")
    for method in POOL_METHODS:
        _shadow(recorder, server.pool, method, f"server_pool.{method}")
    _shadow(recorder, server.disk, "read_page", "disk.read_page")
    _shadow(recorder, server.disk, "write_page", "disk.write_page")


def instrument_replication(recorder: SpanRecorder, manager: Any) -> None:
    _shadow(recorder, manager, "ship", "replication.ship")
    _shadow(recorder, manager, "tick", "replication.detect")
    _shadow(recorder, manager, "promote", "replication.promote")
    standby = manager.standby
    _shadow(recorder, standby, "apply_tail", "replication.apply")
    wrapped = _shadow(recorder, standby, "receive_batch",
                      "replication.receive")
    standby.dispatcher.register("replicate_batch", wrapped)


def instrument_engine(recorder: SpanRecorder, engine: Any) -> None:
    _shadow(recorder, engine, "run", "engine.run")
    _shadow(recorder, engine.graph, "find_cycle", "deadlock.find_cycle")
    _shadow(recorder, engine.graph, "add_wait", "deadlock.add_wait")
    _shadow(recorder, engine.graph, "remove_node", "deadlock.remove_node")


def instrument_system(recorder: SpanRecorder, system: Any) -> None:
    """Wrap every layer boundary of one complex (call once, after build)."""
    _shadow(recorder, system.network, "call", "rpc.deliver")
    _shadow(recorder, system.network, "call_batch", "rpc.deliver")
    instrument_server(recorder, system.server)
    for client in system.clients.values():
        instrument_client(recorder, client)
    if system.replication is not None:
        instrument_replication(recorder, system.replication)
