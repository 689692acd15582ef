"""Ship scheduling, failure detection, and the failover state machine.

:class:`ReplicationManager` is the control plane of DESIGN §15.  It
lives beside the complex (``system.replication``) and moves through
three states:

``follower``
    The standby trails the primary.  The primary's log-service hooks
    (:meth:`on_log_appended`, :meth:`on_commit_force`) trigger ships of
    the stable, unshipped log tail.  The commit-path ship is
    synchronous, so a commit acknowledgement implies standby
    durability — the failover durability oracle's premise.

``candidate``
    The heartbeat detector (:meth:`tick`) missed
    :data:`HEARTBEAT_MISS_THRESHOLD` consecutive probes plus a seeded
    jittered slack: the primary is suspected dead and promotion starts.

``primary``
    :meth:`promote` fenced the old primary (pinned at the pre-bump
    epoch, every later envelope from it rejected with
    :class:`~repro.net.rpc.StaleEpochError`), built a fresh
    :class:`~repro.core.server.Server` around the standby's replicas,
    and rolled the unapplied tail forward through restart recovery.
    Clients are repointed; the complex runs on.

A promotion attempt that dies at a crashpoint is retried by calling
:meth:`promote` again: the standby process "restarts" (volatile
bookkeeping rebuilt from its durable replicas) and every step re-runs
idempotently — fencing is guarded, the checkpoint is re-synthesized,
and redo applicability makes re-applied pages a no-op.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.core.lsn import LogAddr
from repro.core.server import RecoveryReport, Server, io_counters
from repro.errors import NodeUnavailableError, ReplicationError
from repro.net.messages import MsgType
from repro.net.rpc import Envelope, MessageDroppedError, StaleEpochError
from repro.replication.standby import StandbyServer
from repro.replication.stream import ShipBatch

if TYPE_CHECKING:
    from repro.core.system import ClientServerSystem

#: Simulated ticks between the failure detector's heartbeat probes.
HEARTBEAT_INTERVAL = 2
#: Consecutive missed heartbeats before the detector suspects the
#: primary and starts an election (the candidate phase).
HEARTBEAT_MISS_THRESHOLD = 3
#: Fraction of the suspicion threshold added as seeded jitter: two
#: same-seed runs detect on the same tick, different seeds do not.
HEARTBEAT_JITTER = 0.25


class ReplicationManager:
    """Warm-standby control plane: ship, detect, fence, promote."""

    def __init__(self, system: "ClientServerSystem") -> None:
        self.system = system
        self.config = system.config
        self.network = system.network
        #: The complex's planes; the standby's own hooks read them too.
        self.probe = system.probe
        self.primary = system.server
        self.state = "follower"
        #: Last address the standby durably acknowledged.
        self.ship_hw: LogAddr = 0

        # Counters (read out by harness.metrics.snapshot).
        self.frames_shipped = 0
        self.ship_acks = 0
        self.records_applied = 0
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0
        self.failovers = 0
        #: Logical ticks from first suspicion to completed takeover.
        self.failover_ticks = 0

        # Failure-detector state.
        self._tick = 0
        self._misses = 0
        self._suspect_tick: Optional[int] = None
        self._suspicion_limit: Optional[float] = None
        #: Seeded jitter stream: same seed -> same detection tick.
        self._rng = random.Random(f"{self.config.seed}:replication")

        self._promotion_attempted = False
        self.promoted: Optional[Server] = None
        self.old_primary: Optional[Server] = None
        #: The promotion restart's RecoveryReport (benchmarks read it).
        self.last_promotion_report: Optional[RecoveryReport] = None

        self.primary.replication = self
        self.primary.dispatcher.changed = set()
        self.primary.dispatcher.register("replication_heartbeat",
                                         lambda sender: True)
        self.standby = StandbyServer(self)

    def note_applied(self, count: int) -> None:
        """The standby's apply loop materialized ``count`` records."""
        self.records_applied += count

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def bootstrap_standby(self) -> LogAddr:
        """(Re)seed the standby from the primary and ship the log tail.

        Called at attach time and again after offline bootstrap
        (``ClientServerSystem.bootstrap`` formats pages without logging,
        so the page snapshot must be retaken).  The replica log opens at
        the primary's low-water mark; everything stable above it ships
        immediately, with every sender's reply slot: the fresh replica
        holds no dedup state.
        """
        primary = self.primary
        base = primary.log.stable.low_water_addr
        pages = [primary.disk.read_page(page_id)
                 for page_id in sorted(primary.disk.page_ids())]
        self.standby.install_bootstrap(base, pages,
                                       primary.master_snapshot())
        self.ship_hw = base
        primary.dispatcher.changed.update(primary.dispatcher.slots)
        self.ship()
        return base

    # ------------------------------------------------------------------
    # Shipping (follower state)
    # ------------------------------------------------------------------

    def on_log_appended(self) -> None:
        """Primary hook: new records may be stable; ship opportunistically.

        An unreachable standby only widens ship lag here — the
        synchronous durability guarantee is enforced at commit force.
        """
        if self.state != "follower":
            return
        try:
            self.ship()
        except NodeUnavailableError:
            pass

    def on_commit_force(self, flushed: LogAddr) -> None:
        """Primary hook: a commit force completed; ship its records.

        A failed ship propagates — the commit is *not* acknowledged
        unless the standby holds it, which is exactly the invariant the
        failover durability oracle checks.
        """
        if self.state != "follower":
            return
        self.ship()

    def ship(self) -> LogAddr:
        """Ship the stable unshipped tail (plus changed reply slots) now."""
        if self.state != "follower":
            return self.ship_hw
        primary = self.primary
        target = primary.log.flushed_addr
        frames = tuple(primary.log.scan(self.ship_hw, target))
        changed = primary.dispatcher.changed
        if not frames and not changed:
            return self.ship_hw
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("replication.ship.before_send")
        slots = primary.dispatcher.slots
        dedup = {sender: dict(slots.get(sender, {})) for sender in changed}
        changed.clear()
        batch = ShipBatch(
            start_addr=self.ship_hw, end_addr=target, frames=frames,
            master=primary.master_snapshot(), dedup=dedup,
        )
        stub = self.network.stub(primary.node_id, self.standby.node_id)
        try:
            ack = stub.call("replicate_batch", MsgType.LOG_SHIP,
                            payload=batch.frames, args=(batch,))
        except BaseException:
            # The snapshots may never have reached the standby: the next
            # ship sends those senders' slots again, as they are then.
            changed.update(dedup)
            raise
        self.ship_hw = ack
        self.frames_shipped += len(frames)
        self.ship_acks += 1
        metrics = self.probe.metrics
        if metrics is not None:
            metrics.ship_lag_records.observe(
                primary.log.stable.records_between(
                    ack, primary.log.end_of_log_addr))
        return ack

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def tick(self) -> bool:
        """One simulated tick of the failure detector.

        Every :data:`HEARTBEAT_INTERVAL` ticks the detector probes the
        primary once (unretried — a miss *is* the signal).  After
        :data:`HEARTBEAT_MISS_THRESHOLD` consecutive misses plus a seeded
        jittered slack it turns candidate and promotes.  Returns True
        on the tick that completes a failover.
        """
        if self.state == "primary":
            return False
        self._tick += 1
        if self._tick % HEARTBEAT_INTERVAL != 0:
            return False
        if self._probe_primary():
            self._misses = 0
            self._suspect_tick = None
            self._suspicion_limit = None
            return False
        self.heartbeats_missed += 1
        self._misses += 1
        if self._suspect_tick is None:
            self._suspect_tick = self._tick
            threshold = float(HEARTBEAT_MISS_THRESHOLD)
            self._suspicion_limit = threshold + self._rng.uniform(
                0.0, HEARTBEAT_JITTER * threshold)
        assert self._suspicion_limit is not None
        if self._misses >= self._suspicion_limit:
            self.state = "candidate"
            if self.probe.tracer is not None:
                self.probe.tracer.instant(
                    "failover", "suspected", self.standby.node_id,
                    misses=self._misses, tick=self._tick)
            suspect_tick = self._suspect_tick
            self.promote()
            self.failover_ticks += self._tick - suspect_tick + 1
            return True
        return False

    def _probe_primary(self) -> bool:
        """One unretried heartbeat exchange standby -> primary."""
        self.heartbeats_sent += 1
        envelope = Envelope(
            request_id=self.network.next_request_id(),
            src=self.standby.node_id, dst=self.primary.node_id,
            msg_type=MsgType.ACK, method="replication_heartbeat",
            payload=None, args=(),
            epoch=self.network.epoch_for(self.standby.node_id),
        )
        try:
            response = self.network.call(envelope)
        except (NodeUnavailableError, MessageDroppedError):
            return False
        return response.ok

    def run_failover(self, max_ticks: int = 1000) -> Server:
        """Drive detector ticks until a failover completes."""
        for _ in range(max_ticks):
            if self.tick():
                assert self.promoted is not None
                return self.promoted
        raise ReplicationError(
            f"no failover completed within {max_ticks} ticks"
        )

    # ------------------------------------------------------------------
    # Promotion (candidate -> primary)
    # ------------------------------------------------------------------

    def promote(self) -> RecoveryReport:
        """Fence the old primary and promote the standby.

        The sequence, each step idempotent so a crashed attempt can be
        re-run from the top:

        1. fence the old primary at the pre-bump epoch, bump the
           cluster epoch (guarded: a retry must not re-pin at the
           *current* epoch, which would unfence the old primary);
        2. append the promotion checkpoint to the replica log;
        3. build a fresh :class:`Server` on the standby's node id,
           adopt the replicas, install the shipped reply slots,
           repoint every client;
        4. restart over the replica: survivors replay against the ship
           high-water (not the replica's flushed address, which the
           promotion checkpoint overshot), analysis starts at the
           promotion checkpoint, and redo covers only the unapplied
           tail — the reason promotion beats a cold restart.
        """
        probe = self.probe
        span = 0
        if probe.tracer is not None:
            span = probe.tracer.begin(
                "failover", "promote", self.standby.node_id,
                retry=self._promotion_attempted,
            )
        if self._promotion_attempted:
            # A previous attempt died mid-promotion: the standby process
            # restarts, losing volatile bookkeeping but not its replicas.
            self.standby.crash()
            self.standby.recover()
        self._promotion_attempted = True
        old = self.primary
        if probe.faults is not None:
            probe.faults.crashpoint("replication.promote.before_fence")
        if not self.network.is_fenced(old.node_id):
            self.network.fence(old.node_id)
            self.network.bump_epoch()
            if probe.tracer is not None:
                probe.tracer.instant(
                    "failover", "fenced", self.standby.node_id,
                    old_primary=old.node_id,
                    epoch=self.network.cluster_epoch)
        if probe.faults is not None:
            probe.faults.crashpoint("replication.promote.before_checkpoint")
        replica_io = io_counters(self.standby.log, self.standby.disk)
        self.standby.promotion_checkpoint()
        boundary = self.standby.ship_high_water
        if probe.faults is not None:
            probe.faults.crashpoint("replication.promote.before_restart")
        new_server = Server(self.config, self.network,
                            node_id=self.standby.node_id, probe=probe)
        new_server.adopt_replica_state(
            self.standby.log, self.standby.disk, self.standby.tracker,
            self.standby.master, replica_io,
        )
        new_server.tracker.table_resolver = old.tracker.table_resolver
        new_server.dispatcher.slots.update(self.standby.shipped_dedup())
        new_server.dispatcher.register("replication_heartbeat",
                                       lambda sender: True)
        system = self.system
        for client_id in sorted(system.clients):
            client = system.clients[client_id]
            client.repoint_server(new_server)
            new_server.connect_client(client)
        system.server = new_server
        report = new_server.restart(
            survivor_boundary=boundary, log_bookkeeping_intact=True)
        self.state = "primary"
        self.failovers += 1
        self.old_primary = old
        self.promoted = new_server
        self.last_promotion_report = report
        old.replication = None
        old.dispatcher.changed = None
        if probe.tracer is not None:
            probe.tracer.end(span, records=report.total_log_records_processed)
        return report

    def stale_primary_probe(self) -> bool:
        """Restore the fenced old primary and verify the fence holds.

        The restored node still stamps the epoch it was fenced at, so
        delivery must reject its envelope with
        :class:`~repro.net.rpc.StaleEpochError` before any handler
        runs.  Returns True when the fence rejected the probe.
        """
        old = self.old_primary
        if old is None or self.promoted is None:
            raise ReplicationError("no failover has happened yet")
        self.network.restore(old.node_id)
        envelope = Envelope(
            request_id=self.network.next_request_id(),
            src=old.node_id, dst=self.promoted.node_id,
            msg_type=MsgType.ACK, method="replication_heartbeat",
            payload=None, args=(),
            epoch=self.network.epoch_for(old.node_id),
        )
        try:
            self.network.call(envelope)
        except StaleEpochError:
            return True
        return False
