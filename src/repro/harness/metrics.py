"""Metric snapshots over a whole complex.

Benchmarks run a workload between two snapshots and report the delta —
messages, bytes, page I/O, log volume, forces, lock calls, cache hit
rates — the counter-based cost model DESIGN.md's substitution table
explains.

:func:`snapshot` reads every counter straight off the complex, one
keyword per :class:`MetricsSnapshot` field.  The counter fields have no
defaults, so a field without a reading (or a reading without a field)
fails with ``TypeError`` the first time a snapshot is taken.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict

from repro.core.server import io_counters
from repro.core.system import ClientServerSystem
from repro.net.messages import MsgType


@dataclass(frozen=True)
class MetricsSnapshot:
    """Cumulative counters for one complex at one instant."""

    messages: int
    message_bytes: int
    page_ships: int
    page_requests: int
    log_ships: int
    lock_requests: int
    p_lock_requests: int
    callbacks: int
    lsn_requests: int

    disk_reads: int
    disk_writes: int
    log_appends: int
    log_forces: int
    log_bytes: int
    #: Group commit (PR 3): commit forces that rode another device force.
    forces_saved: int
    #: Device forces that covered a whole deferred-commit group.
    group_forces: int
    wal_forces: int
    commit_forces: int

    #: Media-recovery I/O: backup copies read back from the archive.
    archive_reads: int
    #: Page copies written into the archive by backups.
    archive_writes: int
    #: Space-map page updates (allocate/deallocate) across all clients.
    smp_updates: int

    client_lock_calls: int
    locks_avoided: int
    llm_local_grants: int
    glm_requests: int
    #: Reduce-callback rounds skipped because a conflicting holder had
    #: already confirmed (since its last interaction) it still needs
    #: the resource — only populated with lock caching off.
    callbacks_suppressed: int

    client_cache_hits: int
    client_cache_misses: int
    commits: int
    aborts: int
    pages_shipped_at_commit: int

    #: Transport-fault counters (all zero under ReliableTransport).
    message_drops: int
    message_retries: int
    rpc_timeouts: int
    #: Whole simulated ticks spent in seeded retry backoff.
    backoff_ticks: int
    #: Requests rejected because the sender was fenced at a stale
    #: failover epoch.
    stale_epoch_rejections: int

    #: Fault-plane counters (all zero with no FaultPlan attached).
    faults_injected: int
    torn_writes: int
    io_retries: int
    crashpoints_hit: int
    schedules_explored: int

    #: Replication counters (all zero with no ReplicationManager).
    frames_shipped: int
    ship_acks: int
    records_applied: int
    heartbeats_sent: int
    heartbeats_missed: int
    failovers: int
    #: Logical ticks spent inside promotions (detection to takeover).
    failover_ticks: int

    #: Histogram / time-series states keyed by ``MetricsHub``
    #: instrument name.  Empty unless a hub is attached to the complex
    #: (``ClientServerSystem.attach_metrics``).  Excluded from equality
    #: and ``minus`` arithmetic: distribution state is cumulative, so a
    #: delta snapshot simply carries the later state.
    histograms: Dict[str, Any] = field(default_factory=dict, compare=False)

    def minus(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Per-field counter difference (this - other).

        The ``histograms`` mapping is not subtractable; the delta
        carries this (the later) snapshot's states unchanged.
        """
        values = {
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self) if f.name != "histograms"
        }
        return MetricsSnapshot(histograms=dict(self.histograms), **values)

    def as_dict(self) -> Dict[str, int]:
        """Counter fields only — the benchmark-JSON shape is stable."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "histograms"}

    def quantiles(self, name: str) -> Dict[str, int]:
        """p50/p95/p99 of one tracked histogram (zeros if absent)."""
        state = self.histograms.get(name) or {}
        return {q: state.get(q, 0) for q in ("p50", "p95", "p99")}

    @property
    def client_cache_hit_rate(self) -> float:
        total = self.client_cache_hits + self.client_cache_misses
        return self.client_cache_hits / total if total else 0.0


def snapshot(system: ClientServerSystem) -> MetricsSnapshot:
    """Capture the complex's cumulative counters.

    Server-node readings cover every server that has served the
    complex: the promoted server's counters do not hold the old
    primary's work, so after a failover the fenced old primary's totals
    are added back and a delta across the promotion never goes negative.
    The promoted server's log and disk are the standby's replicas, with
    the counts of the standby's shipping and apply work; those counts,
    taken as promotion began (``Server.adopted_io``), are subtracted.
    """
    servers = [system.server]
    replication = system.replication
    if replication is not None and replication.old_primary is not None:
        servers.append(replication.old_primary)
    clients = system.clients.values()
    net = system.network.stats
    plan = system.probe.faults
    hub = system.probe.metrics
    io: Counter[str] = Counter()
    for server in servers:
        io.update(io_counters(server.log, server.disk))
        io.subtract(server.adopted_io)

    def on_servers(read: Callable[[Any], int]) -> int:
        return sum(read(server) for server in servers)

    def on_clients(read: Callable[[Any], int]) -> int:
        return sum(read(client) for client in clients)

    def on_plan(attr: str) -> int:
        return getattr(plan, attr) if plan is not None else 0

    def on_replication(attr: str) -> int:
        return getattr(replication, attr) if replication is not None else 0

    return MetricsSnapshot(
        messages=net.messages,
        message_bytes=net.bytes,
        page_ships=net.count(MsgType.PAGE_SHIP),
        page_requests=net.count(MsgType.PAGE_REQUEST),
        log_ships=net.count(MsgType.LOG_SHIP),
        lock_requests=net.count(MsgType.LOCK_REQUEST),
        p_lock_requests=net.count(MsgType.P_LOCK_REQUEST),
        callbacks=net.count(MsgType.CALLBACK),
        lsn_requests=net.count(MsgType.LSN_REQUEST),
        disk_reads=io["disk_reads"],
        disk_writes=io["disk_writes"],
        log_appends=io["log_appends"],
        log_forces=io["log_forces"],
        log_bytes=io["log_bytes"],
        forces_saved=io["forces_saved"],
        group_forces=io["group_forces"],
        wal_forces=on_servers(lambda s: s.wal_forces),
        commit_forces=on_servers(lambda s: s.commit_forces),
        archive_reads=on_servers(lambda s: s.archive.archive_reads),
        archive_writes=on_servers(lambda s: s.archive.archive_writes),
        smp_updates=on_clients(lambda c: c.smp_updates),
        client_lock_calls=on_clients(lambda c: c.lock_calls),
        locks_avoided=on_clients(lambda c: c.locks_avoided_by_commit_lsn),
        llm_local_grants=on_clients(lambda c: c.llm.local_only_grants),
        glm_requests=on_servers(lambda s: s.glm.logical_requests),
        callbacks_suppressed=on_servers(lambda s: s.callbacks_suppressed),
        client_cache_hits=on_clients(lambda c: c.pool.hits),
        client_cache_misses=on_clients(lambda c: c.pool.misses),
        commits=on_clients(lambda c: c.commits),
        aborts=on_clients(lambda c: c.aborts),
        pages_shipped_at_commit=on_clients(
            lambda c: c.pages_shipped_at_commit),
        message_drops=net.drops,
        message_retries=net.retries,
        rpc_timeouts=net.timeouts,
        backoff_ticks=net.backoff_ticks,
        stale_epoch_rejections=net.stale_epoch_rejections,
        faults_injected=on_plan("faults_injected"),
        torn_writes=on_plan("torn_writes"),
        io_retries=on_plan("io_retries"),
        crashpoints_hit=on_plan("crashpoints_hit"),
        schedules_explored=on_plan("schedules_explored"),
        frames_shipped=on_replication("frames_shipped"),
        ship_acks=on_replication("ship_acks"),
        records_applied=on_replication("records_applied"),
        heartbeats_sent=on_replication("heartbeats_sent"),
        heartbeats_missed=on_replication("heartbeats_missed"),
        failovers=on_replication("failovers"),
        failover_ticks=on_replication("failover_ticks"),
        histograms=hub.state() if hub is not None else {},
    )


def measure(system: ClientServerSystem,
            action: Callable[[], object]) -> MetricsSnapshot:
    """Run ``action()`` and return the counter delta it caused."""
    before = snapshot(system)
    action()
    return snapshot(system).minus(before)
