"""Observability lint: counters and instruments must be readable.

The repo's cost model is counter-based: benchmarks diff
:class:`~repro.harness.metrics.MetricsSnapshot` around a workload, and
``harness.metrics.snapshot`` reads each field straight off the complex.
A counter that a method bumps ad hoc but nothing reads out is
invisible to every benchmark and report — the worst kind of telemetry
bug, because the code *looks* instrumented.

OBS001 — a method increments a public ``self.<attr>`` that
:data:`TRACKED_COUNTER_ATTRS` does not list.  Either add the attribute
to the set (and usually a reading in ``snapshot``), or mark it as
private state with a leading underscore.

OBS002 — a method observes into a ``MetricsHub`` instrument that is not
one of the hub's public ``__slots__``.  Hub instruments are only
reachable through a binding named ``metrics`` (``probe.metrics``,
``self.probe.metrics``, a local ``metrics``), so the rule
keys on ``…metrics.<attr>.observe(...)`` / ``…metrics.<attr>.sample(...)``
call shapes; ``.observe``/``.sample`` on anything else (a local
histogram under construction, the dirty-page tracker) is out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionScope, Project
from repro.obs.hist import MetricsHub

#: Every public ``self.<attr> += ...`` counter the codebase is allowed
#: to maintain.  A new counter must either be listed here (and usually
#: read out by ``harness.metrics.snapshot``) or renamed with a leading
#: underscore if it is internal bookkeeping rather than a metric.
TRACKED_COUNTER_ATTRS = frozenset({
    # net.network.TrafficStats
    "messages", "bytes", "drops", "retries", "timeouts",
    "retries_exhausted", "delay_total", "backoff_ticks",
    "stale_epoch_rejections",
    # net.rpc.RpcDispatcher
    "duplicates_suppressed",
    # storage.buffer_pool.BufferPool
    "hits", "misses", "evictions", "dirty_evictions",
    # storage.disk.Disk
    "reads", "writes", "bytes_read", "bytes_written",
    # storage.stable_log.StableLog
    "appends", "forces", "bytes_appended", "records_lost_last_crash",
    "full_decodes", "header_peeks", "decode_cache_hits",
    # storage.archive.Archive
    "backups_taken", "archive_reads", "archive_writes",
    # core.server_log.GroupForceScheduler / ServerLogManager
    "commit_requests", "sync_requests", "group_forces", "forces_saved",
    "client_records_received",
    # core.server.Server
    "wal_forces", "pages_served", "callbacks_sent", "callbacks_suppressed",
    "invalidations_sent",
    "piggybacks_sent", "commit_forces", "forwards", "transfer_forces",
    "materializations", "records_replayed_for_materialize",
    "serverside_undo_records",
    # core.client.Client
    "lock_calls", "locks_avoided_by_commit_lsn", "commits", "aborts",
    "pages_shipped_at_commit", "rollback_records_fetched_remotely",
    "clrs_written_locally", "smp_updates",
    # core.client_log.ClientLogManager
    "records_written", "batches_shipped", "records_pruned",
    # core.transaction.Transaction
    "updates_logged",
    # core.lsn.LsnClock
    "advances_from_peer",
    # locking.llm.LocalLockManager
    "local_only_grants", "global_requests", "callbacks_honored",
    # locking.lock_table.LockTable
    "requests", "conflicts", "grants", "releases",
    # index.btree.BTree
    "splits", "page_deallocations",
    # faults.FaultPlan
    "faults_injected", "torn_writes", "io_retries", "crashpoints_hit",
    "schedules_explored",
    # replication.* (log shipping, failure detection, failover)
    "frames_shipped", "ship_acks", "records_applied",
    "heartbeats_sent", "heartbeats_missed", "failovers", "failover_ticks",
})

#: Every sanctioned hub instrument: the ``MetricsHub`` attributes.
_HUB_INSTRUMENT_ATTRS = frozenset(
    name for name in MetricsHub.__slots__ if not name.startswith("_"))


def _base_name(node: ast.expr) -> Optional[str]:
    """The trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ObservabilityChecker(Checker):
    RULES = {
        "OBS001": "ad-hoc public counter increment outside "
                  "TRACKED_COUNTER_ATTRS (invisible to snapshots/benchmarks)",
        "OBS002": "observation into an attribute that is not a MetricsHub "
                  "instrument (invisible to snapshots/exporters)",
    }

    def check_function(self, scope: FunctionScope,
                       project: Project) -> Iterator[Finding]:
        yield from self._check_counters(scope)
        yield from self._check_instruments(scope)

    def _check_counters(self, scope: FunctionScope) -> Iterator[Finding]:
        for node in ast.walk(scope.node):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, ast.Add):
                continue
            target = node.target
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            if attr.startswith("_") or attr in TRACKED_COUNTER_ATTRS:
                continue
            yield self.found(
                scope, node, "OBS001",
                f"self.{attr} += ... is not in TRACKED_COUNTER_ATTRS",
                "add the attribute to TRACKED_COUNTER_ATTRS and read it "
                "out in harness.metrics.snapshot, or rename it with a "
                "leading underscore if it is private state",
            )

    def _check_instruments(self, scope: FunctionScope) -> Iterator[Finding]:
        for node in ast.walk(scope.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("observe", "sample")):
                continue
            receiver = node.func.value
            if not isinstance(receiver, ast.Attribute):
                continue  # a local instrument, not a hub attribute
            if _base_name(receiver.value) != "metrics":
                continue  # tracker.observe(...), rng.sample(...), etc.
            attr = receiver.attr
            if attr.startswith("_") or attr in _HUB_INSTRUMENT_ATTRS:
                continue
            yield self.found(
                scope, node, "OBS002",
                f"metrics.{attr}.{node.func.attr}(...) is not a "
                f"MetricsHub instrument",
                "add the instrument to MetricsHub (a slot and its "
                "constructor) so snapshots and exporters can see it",
            )
