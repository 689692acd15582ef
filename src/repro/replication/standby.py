"""The warm standby: a log replica, a page replica, and an apply loop.

A :class:`StandbyServer` is deliberately *not* a :class:`Server`: it
serves no pages, grants no locks, runs no transactions.  It owns three
replicas and the bookkeeping to promote them:

* a **log replica** (:class:`~repro.core.server_log.ServerLogManager`)
  whose addresses are byte-identical to the primary's — every shipped
  frame is appended at the address the primary assigned and the parity
  is asserted per record;
* a **page replica** (:class:`~repro.storage.disk.Disk`) rolled forward
  by the apply loop every ``SystemConfig.standby_apply_interval`` shipped
  records, so promotion redoes only the unapplied tail;
* a :class:`~repro.core.commit_lsn.GlobalTransactionTracker` fed with
  every shipped record, so the promoted server knows each in-flight
  transaction without rescanning the log.

Durability model: the forced log prefix, the disk images, and the
``master`` dict (the stable master record's replica, including the
standby-private ``standby_ship_hw`` / ``standby_applied_addr`` keys and
the shipped reply slots) survive a standby crash; everything else is
rebuilt by :meth:`StandbyServer.recover` from a single replica-log scan,
except the decoded page images, which the apply loop re-reads from the
page replica as it touches them.

Every durable write funnels through the apply-seam methods
(:meth:`_append_frame`, :meth:`_append_checkpoint`,
:meth:`_install_page`, :meth:`install_bootstrap`) — lint rule REP001
pins this, because a durable write outside the seam is exactly how a
replica silently diverges from its primary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import (
    BeginCheckpointRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    LogRecord,
    SERVER_ID,
    TxnTableEntry,
    UpdateRecord,
)
from repro.core.lsn import LogAddr, NULL_ADDR, NULL_LSN
from repro.core.recovery import ReplayPages, redo_kernel
from repro.core.server_log import ServerLogManager
from repro.errors import (
    NodeUnavailableError,
    PageNotFoundError,
    ReplicationError,
)
from repro.net.rpc import Response, RpcDispatcher
from repro.replication.stream import STANDBY_ID, ShipBatch
from repro.storage.disk import Disk
from repro.storage.page import Page, PageKind

if TYPE_CHECKING:
    from repro.replication.manager import ReplicationManager


class StandbyServer:
    """Receives the ship stream; applies it; can be promoted."""

    node_id = STANDBY_ID

    def __init__(self, manager: "ReplicationManager") -> None:
        self.manager = manager
        self.config = manager.config
        self.network = manager.network
        #: The complex's planes, for the standby's own hooks.  The log
        #: and disk replicas keep their own empty probes until
        #: ``Server.adopt_replica_state`` hands them this one.
        self.probe = manager.probe
        self.log = ServerLogManager(0)
        self.disk = Disk()
        self.tracker = GlobalTransactionTracker()
        #: Master-record replica; refreshed by every batch, plus the
        #: standby-private keys (ship high-water, applied boundary,
        #: shipped reply slots) that make :meth:`recover` possible.
        self.master: Dict[str, Any] = {
            "server_ckpt_begin_addr": NULL_ADDR,
            "client_ckpts": {},
            "standby_ship_hw": 0,
            "standby_applied_addr": 0,
        }
        #: Everything below ``applied_addr`` is materialized in the page
        #: replica; the tail above it is durable in the log replica only.
        self.applied_addr: LogAddr = 0
        #: Page id -> address of its first unapplied redoable record:
        #: the promotion checkpoint's dirty page list.
        self._unapplied: Dict[int, LogAddr] = {}
        #: Page id -> decoded image of every page the apply loop has
        #: loaded, equal to the replica disk after each round, so a page
        #: is read from that disk only on first touch.  Volatile.
        self._pages: Dict[int, Page] = {}
        #: Sender -> reply slot, as last shipped, for the promoted
        #: server's dispatcher.  Durable alongside the master (the
        #: simulation's stand-in for persisting it with the ship stream).
        self._dedup: Dict[str, Dict[int, Response]] = {}
        self.crashed = False
        self.network.register(self.node_id)
        self.dispatcher = RpcDispatcher(self.node_id)
        self.dispatcher.register("replicate_batch", self.receive_batch)
        self.dispatcher.register("replication_heartbeat",
                                 lambda sender: True)
        self.network.attach(self.node_id, self.dispatcher)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def install_bootstrap(self, base_addr: LogAddr, pages: List[Page],
                          master: Dict[str, Any]) -> None:
        """(Re)build the replicas from a primary snapshot.

        ``base_addr`` is the primary's log low-water mark: the replica
        log opens empty at that address so shipped frames land at their
        primary-assigned offsets.  ``pages`` are the primary's current
        disk images — they cover every update below ``base_addr``
        (truncation never discards a record a dirty page still needs),
        so applying the shipped tail on top yields the primary's state.
        """
        self.log = ServerLogManager(0)
        self.log.stable.open_at(base_addr)
        self.disk = Disk()
        for page in pages:
            self._install_page(page)
        self.tracker = GlobalTransactionTracker()
        self._unapplied = {}
        self._pages = {}
        self._dedup = {}
        self.applied_addr = base_addr
        fresh = dict(master)
        fresh["client_ckpts"] = dict(master["client_ckpts"])
        fresh["standby_ship_hw"] = base_addr
        fresh["standby_applied_addr"] = base_addr
        self.master = fresh
        self.crashed = False

    # ------------------------------------------------------------------
    # The ship stream (RPC handler)
    # ------------------------------------------------------------------

    def receive_batch(self, sender: str, batch: ShipBatch) -> LogAddr:
        """Append one shipped batch durably; returns the ack high-water.

        The ack (the replica's flushed address) is only sent after the
        frames are forced and the master/dedup soft state installed, so
        an acknowledged byte can never be lost by a standby crash — the
        half of the failover durability oracle the standby owns.
        """
        if self.crashed:
            raise NodeUnavailableError(self.node_id)
        faults = self.probe.faults
        if faults is not None:
            faults.crashpoint("replication.ship.before_append")
        for addr, record in batch.frames:
            end = self.log.end_of_log_addr
            if addr < end:
                # Re-shipped after a lost ack: already durable here.
                continue
            if addr > end:
                raise ReplicationError(
                    f"ship gap: expected next frame at {end}, got {addr}"
                )
            self._append_frame(addr, record)
        self.log.force()
        self._install_master(batch.master)
        self._dedup.update(batch.dedup)
        for sender in [s for s, slot in batch.dedup.items() if not slot]:
            del self._dedup[sender]
        if faults is not None:
            faults.crashpoint("replication.ship.before_ack")
        self._maybe_apply()
        return self.log.flushed_addr

    def _append_frame(self, addr: LogAddr, record: LogRecord) -> None:
        """Apply seam: one shipped frame into the log replica."""
        if record.client_id == SERVER_ID:
            assigned = self.log.append_local(record)
        else:
            # Client-attributed records (including server-written CLRs
            # for failed clients) feed the per-client log index, just
            # as arrival at the primary did; the slightly larger
            # ForceAddr this gives server-written CLRs is conservative.
            (_lsn, assigned), = self.log.append_from_client(
                record.client_id, [record])
        if assigned != addr:
            raise ReplicationError(
                f"address divergence: primary assigned {addr}, "
                f"replica assigned {assigned}"
            )
        self._observe(addr, record)

    def _observe(self, addr: LogAddr, record: LogRecord) -> None:
        """Volatile bookkeeping for one replica-log record."""
        self.tracker.observe(record, addr)
        if record.is_redoable() and record.page_id >= 0 \
                and record.page_id not in self._unapplied:
            self._unapplied[record.page_id] = addr

    def _install_master(self, master: Dict[str, Any]) -> None:
        fresh = dict(master)
        fresh["client_ckpts"] = dict(master["client_ckpts"])
        fresh["standby_applied_addr"] = self.master.get(
            "standby_applied_addr", self.applied_addr)
        fresh["standby_ship_hw"] = self.log.flushed_addr
        self.master = fresh

    def shipped_dedup(self) -> Dict[str, Dict[int, Response]]:
        """A copy of the shipped reply slots, for the promoted dispatcher."""
        return {sender: dict(slot) for sender, slot in self._dedup.items()}

    @property
    def ship_high_water(self) -> LogAddr:
        """Last address the standby durably acknowledged."""
        return self.master.get("standby_ship_hw", 0)

    # ------------------------------------------------------------------
    # The apply loop
    # ------------------------------------------------------------------

    def _maybe_apply(self) -> None:
        interval = max(1, self.config.standby_apply_interval)
        pending = self.log.stable.records_between(self.applied_addr,
                                                  self.log.flushed_addr)
        if pending >= interval:
            self.apply_tail()

    def apply_tail(self) -> int:
        """Redo the shipped tail into the page replica; returns redo count.

        Standard ARIES redo applicability: a record applies iff the
        page's page_LSN is below the record's LSN, so re-applying after
        a crash (``applied_addr`` restored from the master, some pages
        already written) or after a failed round is idempotent.  Every
        page the round touches is written to the replica disk before
        the applied boundary moves.  Pages missing from the replica
        materialize as empty frames — their format records initialize
        them, exactly as in restart redo.
        """
        target = self.log.flushed_addr
        if target <= self.applied_addr:
            return 0
        faults = self.probe.faults
        if faults is not None:
            faults.crashpoint("replication.apply.before_redo")
        # The shipped tail was just appended, so the log hands back the
        # record objects themselves: no header peek, no decode.
        tail = ((addr, record)
                for addr, record in self.log.scan(self.applied_addr, target)
                if isinstance(record, (UpdateRecord, CompensationRecord)))
        replica = ReplayPages({}, load=self._load_page)
        applied = redo_kernel(self.log, tail, replica).redos_applied
        for page_id in sorted(replica.pages):
            self._install_page(replica.pages[page_id])
        self.applied_addr = target
        # Every observed record lies below the flushed address: all of
        # them are applied now.
        self._unapplied.clear()
        self.master["standby_applied_addr"] = target
        self.manager.note_applied(applied)
        return applied

    def _load_page(self, page_id: int) -> Page:
        """A held image, else the replica disk's (first touch)."""
        page = self._pages.get(page_id)
        if page is None:
            try:
                page = self.disk.read_page(page_id)
            except PageNotFoundError:
                page = Page(page_id, PageKind.FREE, self.config.page_size)
            self._pages[page_id] = page
        return page

    def _install_page(self, page: Page) -> None:  # lint: allow[WAL100,REC040] replica install: applies only the forced ship prefix
        """Apply seam: one page image into the page replica.

        No WAL check is needed here: the apply loop only materializes
        records from the *forced* replica prefix (and bootstrap installs
        snapshots of already-durable primary pages), so the log always
        precedes the page by construction.  Crash coverage comes from
        the ship/apply crashpoints around the seam, not per write.
        """
        self.disk.write_page(page)

    # ------------------------------------------------------------------
    # Promotion support
    # ------------------------------------------------------------------

    def promotion_checkpoint(self) -> LogAddr:
        """Append a checkpoint synthesized from ship-time bookkeeping.

        The promoted server's analysis pass starts here instead of at
        the last shipped coordinated checkpoint: the dirty page list is
        exactly the unapplied-tail map and the transaction table is the
        tracker's in-progress view, both maintained record by record as
        the stream arrived.  This is why promotion's analysis scan is a
        handful of records regardless of history length.
        """
        begin = BeginCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN), client_id=SERVER_ID,
            txn_id=None, prev_lsn=NULL_LSN, owner=SERVER_ID,
        )
        begin_addr = self._append_checkpoint(begin)
        dirty = tuple(
            DirtyPageEntry(page_id=page_id, rec_lsn=NULL_LSN,
                           rec_addr=rec_addr)
            for page_id, rec_addr in sorted(self._unapplied.items())
        )
        txns = tuple(
            TxnTableEntry(
                txn_id=txn.txn_id, client_id=txn.client_id, state=txn.state,
                last_lsn=txn.last_lsn, undo_next_lsn=txn.undo_next_lsn,
                first_lsn=txn.first_lsn,
            )
            for txn in sorted(self.tracker.in_progress(),
                              key=lambda txn: txn.txn_id)
        )
        end = EndCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN), client_id=SERVER_ID,
            txn_id=None, prev_lsn=begin.lsn, owner=SERVER_ID,
            dirty_pages=dirty, transactions=txns,
        )
        end_addr = self._append_checkpoint(end)
        self.log.force(end_addr)
        self.master["server_ckpt_begin_addr"] = begin_addr
        return begin_addr

    def _append_checkpoint(self, record: LogRecord) -> LogAddr:
        """Apply seam: one standby-originated checkpoint record."""
        return self.log.append_local(record)

    # ------------------------------------------------------------------
    # Crash model
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """The standby process dies mid-stream or mid-promotion.

        The forced log prefix, the disk images and the master replica
        survive; the unforced tail, the tracker and the unapplied map
        vanish with the process.
        """
        self.log.crash()
        self.tracker.clear()
        self._unapplied.clear()
        self._pages.clear()
        self.crashed = True

    def recover(self) -> None:
        """Rebuild volatile bookkeeping from the durable replicas.

        One forward scan of the retained replica log re-feeds the
        tracker, the per-client log index and the LSN clock; the applied
        boundary comes back from the master, and the unapplied map is
        rebuilt from the records above it.
        """
        self.crashed = False
        self.applied_addr = self.master.get(
            "standby_applied_addr", self.log.stable.low_water_addr)
        for addr, record in self.log.scan():
            self.log.observe_during_restart(record.client_id,
                                            record.lsn, addr)
            if addr >= self.applied_addr:
                self._observe(addr, record)
            else:
                self.tracker.observe(record, addr)
