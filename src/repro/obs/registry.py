"""The central metrics registry.

Before this module existed, ``harness.metrics.snapshot`` hand-wired
every counter in the complex into :class:`MetricsSnapshot` — and
demonstrably drifted (the group-commit counters of the log fast path
never made it in; archive and space-map I/O were never counted at all).
The registry inverts the dependency: each subsystem registers its
counters once, ``snapshot`` is a pure collection over the registry, and
a static lint rule (OBS001) closes the loop by flagging any counter
attribute incremented in the codebase that the registry manifest does
not know about.

Two artifacts live here:

* :data:`TRACKED_COUNTER_ATTRS` — the **manifest**: a literal frozenset
  naming every sanctioned public counter attribute in the repo.  It is
  deliberately a pure literal so the AST-based linter
  (``repro.analysis`` rule OBS001) and humans can read it without
  importing anything.
* :class:`MetricsRegistry` plus the per-subsystem registration
  functions — the providers behind every ``MetricsSnapshot`` field.

Providers take the whole :class:`~repro.core.system.ClientServerSystem`
(duck-typed to avoid an import cycle) and return a number; they must be
pure reads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.net.messages import MsgType

#: Every public ``self.<attr> += ...`` counter the codebase is allowed
#: to maintain.  Rule OBS001 flags increments of public attributes
#: missing from this set: a new counter must either be registered here
#: (and usually surfaced through a registry provider) or renamed with a
#: leading underscore if it is internal bookkeeping rather than a
#: metric.  Keep the set a pure literal — the linter reads it from the
#: AST, not from an import.
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

#: Every sanctioned distribution metric: a ``MetricsHub`` histogram
#: attribute observed somewhere in the codebase.  Mirrors
#: ``TRACKED_COUNTER_ATTRS``: rule OBS002 flags ``.observe(...)`` calls
#: on public attributes missing from this set, and a unit test asserts
#: the set equals the hub's actual histogram attributes.  Keep it a
#: pure literal — the linter reads it from the AST.
TRACKED_HISTOGRAM_ATTRS = frozenset({
    # engine.core.Engine
    "txn_latency_ticks", "lock_wait_ticks",
    # net.rpc.RpcStub (observed through the network's probe)
    "rpc_roundtrip_attempts", "rpc_batch_calls",
    # storage.stable_log.StableLog
    "log_force_bytes",
    # core.server_log.GroupForceScheduler
    "group_commit_batch",
    # core.recovery.recover (per pass)
    "recovery_pass_records",
    # replication.stream: records the standby trails the primary by,
    # observed at each durable ship ack
    "ship_lag_records",
})

#: Every sanctioned time series: a ``MetricsHub`` ``TimeSeries``
#: attribute sampled somewhere in the codebase.  Rule OBS002 applies
#: the same closed loop to ``.sample(...)`` calls.
TRACKED_TIMESERIES_ATTRS = frozenset({
    # core.recovery.recover: records scanned during restart analysis
    "restart_progress",
    # engine.core: transactions finished over the engine's op clock
    "engine_progress",
})

#: A provider reads one cumulative counter off a complex.
Provider = Callable[[Any], float]

#: A histogram provider returns one instrument's canonical ``state()``
#: dict, or ``None`` when no :class:`~repro.obs.hist.MetricsHub` is
#: attached to the complex.
HistogramProvider = Callable[[Any], Any]


class MetricsRegistry:
    """Named counter providers, collected in registration order."""

    def __init__(self) -> None:
        self._providers: Dict[str, Provider] = {}
        self._histogram_providers: Dict[str, HistogramProvider] = {}

    def register(self, name: str, provider: Provider) -> None:
        if name in self._providers:
            raise ValueError(f"metric {name!r} registered twice")
        self._providers[name] = provider

    def register_histogram(self, name: str,
                           provider: HistogramProvider) -> None:
        if name in self._histogram_providers:
            raise ValueError(f"histogram {name!r} registered twice")
        self._histogram_providers[name] = provider

    def names(self) -> List[str]:
        return list(self._providers)

    def histogram_names(self) -> List[str]:
        return list(self._histogram_providers)

    def collect(self, system: Any) -> Dict[str, float]:
        """Read every registered counter off ``system``."""
        return {
            name: provider(system)
            for name, provider in self._providers.items()
        }

    def collect_histograms(self, system: Any) -> Dict[str, Any]:
        """Histogram/time-series states; empty when no hub is attached."""
        states: Dict[str, Any] = {}
        for name, provider in self._histogram_providers.items():
            state = provider(system)
            if state is not None:
                states[name] = state
        return states


# ---------------------------------------------------------------------------
# Per-subsystem registrations (each called once by build_default_registry)
# ---------------------------------------------------------------------------

def register_network_counters(registry: MetricsRegistry) -> None:
    """Traffic counters: the paper's message/byte cost model."""
    registry.register("messages", lambda s: s.network.stats.messages)
    registry.register("message_bytes", lambda s: s.network.stats.bytes)
    for name, msg_type in (
        ("page_ships", MsgType.PAGE_SHIP),
        ("page_requests", MsgType.PAGE_REQUEST),
        ("log_ships", MsgType.LOG_SHIP),
        ("lock_requests", MsgType.LOCK_REQUEST),
        ("p_lock_requests", MsgType.P_LOCK_REQUEST),
        ("callbacks", MsgType.CALLBACK),
        ("lsn_requests", MsgType.LSN_REQUEST),
    ):
        registry.register(
            name,
            lambda s, _t=msg_type: s.network.stats.count(_t),
        )
    registry.register("message_drops", lambda s: s.network.stats.drops)
    registry.register("message_retries", lambda s: s.network.stats.retries)
    registry.register("rpc_timeouts", lambda s: s.network.stats.timeouts)
    registry.register("backoff_ticks",
                      lambda s: s.network.stats.backoff_ticks)
    registry.register("stale_epoch_rejections",
                      lambda s: s.network.stats.stale_epoch_rejections)


def register_storage_counters(registry: MetricsRegistry) -> None:
    """Disk, stable log (incl. group commit), archive, space maps."""
    registry.register("disk_reads", lambda s: s.server.disk.reads)
    registry.register("disk_writes", lambda s: s.server.disk.writes)
    registry.register("log_appends", lambda s: s.server.log.stable.appends)
    registry.register("log_forces", lambda s: s.server.log.stable.forces)
    registry.register("log_bytes",
                      lambda s: s.server.log.stable.bytes_appended)
    registry.register("forces_saved",
                      lambda s: s.server.log.group.forces_saved)
    registry.register("group_forces",
                      lambda s: s.server.log.group.group_forces)
    registry.register("archive_reads", lambda s: s.server.archive.archive_reads)
    registry.register("archive_writes",
                      lambda s: s.server.archive.archive_writes)
    registry.register(
        "smp_updates",
        lambda s: sum(c.smp_updates for c in s.clients.values()),
    )


def register_server_counters(registry: MetricsRegistry) -> None:
    registry.register("wal_forces", lambda s: s.server.wal_forces)
    registry.register("commit_forces", lambda s: s.server.commit_forces)
    registry.register("glm_requests", lambda s: s.server.glm.logical_requests)
    registry.register("callbacks_suppressed",
                      lambda s: s.server.callbacks_suppressed)


def register_client_counters(registry: MetricsRegistry) -> None:
    """Per-client counters, summed across the complex."""
    def summed(attr: str) -> Provider:
        return lambda s: sum(getattr(c, attr) for c in s.clients.values())

    registry.register("client_lock_calls", summed("lock_calls"))
    registry.register("locks_avoided", summed("locks_avoided_by_commit_lsn"))
    registry.register(
        "llm_local_grants",
        lambda s: sum(c.llm.local_only_grants for c in s.clients.values()),
    )
    registry.register(
        "client_cache_hits",
        lambda s: sum(c.pool.hits for c in s.clients.values()),
    )
    registry.register(
        "client_cache_misses",
        lambda s: sum(c.pool.misses for c in s.clients.values()),
    )
    registry.register("commits", summed("commits"))
    registry.register("aborts", summed("aborts"))
    registry.register("pages_shipped_at_commit",
                      summed("pages_shipped_at_commit"))


def register_fault_counters(registry: MetricsRegistry) -> None:
    """Fault-plane counters; all zero when no plan is attached."""
    def plan_attr(attr: str) -> Provider:
        return lambda s: getattr(s.probe.faults, attr, 0)

    registry.register("faults_injected", plan_attr("faults_injected"))
    registry.register("torn_writes", plan_attr("torn_writes"))
    registry.register("io_retries", plan_attr("io_retries"))
    registry.register("crashpoints_hit", plan_attr("crashpoints_hit"))
    registry.register("schedules_explored", plan_attr("schedules_explored"))


def register_replication_counters(registry: MetricsRegistry) -> None:
    """Log shipping / failure detection / failover counters.

    All zero when the complex has no :class:`ReplicationManager`
    attached (``system.replication is None``) — replication off leaves
    every snapshot identical to the single-node system.
    """
    def repl_attr(attr: str) -> Provider:
        def provider(s: Any) -> float:
            manager = getattr(s, "replication", None)
            return getattr(manager, attr, 0) if manager is not None else 0
        return provider

    registry.register("frames_shipped", repl_attr("frames_shipped"))
    registry.register("ship_acks", repl_attr("ship_acks"))
    registry.register("records_applied", repl_attr("records_applied"))
    registry.register("heartbeats_sent", repl_attr("heartbeats_sent"))
    registry.register("heartbeats_missed", repl_attr("heartbeats_missed"))
    registry.register("failovers", repl_attr("failovers"))
    registry.register("failover_ticks", repl_attr("failover_ticks"))


def register_hub_metrics(registry: MetricsRegistry) -> None:
    """Histogram and time-series providers off ``system.probe.metrics``.

    Providers return the instrument's canonical ``state()`` dict, or
    ``None`` when the complex has no hub attached — ``snapshot`` then
    reports an empty ``histograms`` mapping rather than empty
    instruments, keeping the metrics-disabled path allocation-free.
    """
    def hub_state(attr: str) -> HistogramProvider:
        def provider(s: Any) -> Any:
            hub = s.probe.metrics
            if hub is None:
                return None
            return getattr(hub, attr).state()
        return provider

    for name in sorted(TRACKED_HISTOGRAM_ATTRS | TRACKED_TIMESERIES_ATTRS):
        registry.register_histogram(name, hub_state(name))


def build_default_registry() -> MetricsRegistry:
    """The registry behind ``harness.metrics.snapshot``."""
    registry = MetricsRegistry()
    register_network_counters(registry)
    register_storage_counters(registry)
    register_server_counters(registry)
    register_client_counters(registry)
    register_fault_counters(registry)
    register_replication_counters(registry)
    register_hub_metrics(registry)
    return registry
