"""The server: owner of the database disks and the single log (Figure 1).

The server provides every service the paper assigns to it:

* page service with coherency (callbacks to the update-privilege owner,
  invalidations on privilege transfer);
* the global lock manager (logical locks in LLM names, P-locks for
  update privilege, lock-table-resident RecAddrs for the section 2.6.2
  variant);
* the log service: appending client batches, WAL enforcement via
  ForceAddr, RecLSN→RecAddr mapping, commit forcing;
* checkpoints: its own *coordinated* checkpoint (section 2.7 — client
  DPLs gathered before merging its own) and the rewriting/recording of
  client checkpoints (section 2.6.1);
* recovery: its own restart (analysis/redo/undo over all systems'
  records), recovery on behalf of failed clients, in-operation page
  recovery (section 2.5) and media recovery from the archive;
* the Commit_LSN computation and Max_LSN distribution of section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.config import ClientRecoveryInfo, SystemConfig
from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    LogRecord,
    PrepareRecord,
    SERVER_ID,
    TxnTableEntry,
    UpdateRecord,
)
from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN
from repro.core.recovery import (
    AnalysisResult,
    LogicalUndoHandler,
    RecoveryContext,
    RecoveryResult,
    ReplayPages,
    RestartTxn,
    recover,
    redo_kernel,
)
from repro.core.server_log import ServerLogManager
from repro.errors import (
    MediaFailureError,
    NodeUnavailableError,
    PageCorruptedError,
    PageNotFoundError,
    RecoveryError,
    WALViolationError,
)
from repro.faults import io_retry
from repro.locking.glm import GlobalLockManager, LockDenied
from repro.locking.lock_modes import LockMode
from repro.net.messages import MsgType
from repro.net.network import Network
from repro.net.rpc import RpcDispatcher, RpcStub
from repro.probe import Probe
from repro.storage.archive import Archive
from repro.storage.buffer_pool import BufferControlBlock, BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page, PageKind
from repro.storage.space_map import SpaceMapLayout


def io_counters(log: ServerLogManager, disk: Disk) -> Dict[str, int]:
    """The I/O counters of a log and a disk, by ``MetricsSnapshot`` field."""
    return {
        "disk_reads": disk.reads,
        "disk_writes": disk.writes,
        "log_appends": log.stable.appends,
        "log_forces": log.stable.forces,
        "log_bytes": log.stable.bytes_appended,
        "forces_saved": log.group.forces_saved,
        "group_forces": log.group.group_forces,
    }


@dataclass
class RecoveryReport:
    """What one recovery run did — the benchmarks' raw material."""

    kind: str
    analysis_records: int = 0
    redo_records_scanned: int = 0
    redo_considered: int = 0
    redos_applied: int = 0
    undo_records_scanned: int = 0
    clrs_written: int = 0
    txns_rolled_back: int = 0
    dpl_size: int = 0

    @property
    def total_log_records_processed(self) -> int:
        return (self.analysis_records + self.redo_records_scanned
                + self.undo_records_scanned)


class _ServerPageAccess:
    """RecoveryPageAccess over the server's pool and disk."""

    def __init__(self, server: "Server") -> None:
        self._server = server

    def fetch(self, page_id: int) -> Page:
        return self._server._page_for_recovery(page_id)

    def mark_dirty(self, page_id: int, rec_addr: LogAddr) -> None:
        self._server._mark_recovered_dirty(page_id, rec_addr)


class _ServerClrWriter:
    """ClrWriter over the server's log manager (restart / client recovery)."""

    def __init__(self, server: "Server") -> None:
        self._server = server

    def next_lsn(self, page_lsn: LSN) -> LSN:
        return self._server.log.clock.next_lsn(page_lsn)

    def append(self, record: LogRecord) -> LogAddr:
        addr = self._server.log.append_local(record)
        self._server.tracker.observe(record, addr)
        return addr


class Server:
    """The server node of the complex."""

    node_id = SERVER_ID

    def __init__(self, config: SystemConfig, network: Network,
                 node_id: Optional[str] = None,
                 probe: Optional[Probe] = None) -> None:
        self.config = config
        self.network = network
        #: The owning complex's planes, handed to everything built here.
        self.probe = probe if probe is not None else Probe()
        if node_id is not None:
            # Failover promotion builds a second Server around the
            # standby's replicas; it keeps its own network identity so
            # the fenced old primary's node id stays distinct.
            self.node_id = node_id
        self.disk = Disk(self.probe)
        self.log = ServerLogManager(config.group_commit_window, self.probe)
        self.glm = GlobalLockManager(self.probe)
        self.tracker = GlobalTransactionTracker()
        self.archive = Archive(self.probe)
        self.layout = SpaceMapLayout(config.smp_coverage)
        self.pool = BufferPool(
            config.server_buffer_frames, "server-pool",
            on_evict=self._write_back, probe=self.probe,
        )
        network.register(self.node_id)
        self.dispatcher = RpcDispatcher(self.node_id)
        self._register_handlers()
        network.attach(self.node_id, self.dispatcher)

        #: Connected clients, by id (duck-typed Client objects).
        self._clients: Dict[str, Any] = {}
        #: Which clients cache a copy of each page (coherency tracking).
        #: Maintained through :meth:`_note_caching`, which avoids the
        #: throwaway-set-per-call cost of ``setdefault`` on the page
        #: request hot path.
        self._caching: Dict[int, Set[str]] = {}
        #: Per-client interaction counter driving the Max_LSN piggyback.
        self._interactions: Dict[str, int] = {}
        #: Callback-suppression memo, populated only when lock caching
        #: is off: resources a holder's reduce-callback confirmed it
        #: still locally needs.  With caching off a holder's local need
        #: can only shrink through an event the server witnesses (an
        #: RPC from the holder, or server-side recovery of it), so a
        #: memoized answer stays exact until :meth:`_interaction` or a
        #: ``glm.release_all`` clears it — and re-asking in between is
        #: a pure waste (the reduce-callback RPC storm under hot-key
        #: contention).  With caching *on* the memo must stay empty:
        #: local need then shrinks silently at transaction end, and a
        #: stale "still needed" answer would strand waiters.
        self._lock_needed_memo: Dict[str, Set[Any]] = {}
        #: Address of each client's last complete checkpoint's Begin
        #: record — part of the stable master record.
        self._master: Dict[str, Any] = {
            "server_ckpt_begin_addr": NULL_ADDR,
            "client_ckpts": {},
        }
        #: Conservative per-page redo floors used when a RecLSN cannot be
        #: mapped (rebuilt from checkpoints and restart analysis).
        self._rec_addr_floor: Dict[int, LogAddr] = {}
        #: In-doubt transaction info held for failed clients (section
        #: 2.6.1: handed over when the client reconnects).
        self._indoubt_for_client: Dict[str, List[Tuple[str, Tuple]]] = {}
        #: Dirty pages forwarded client-to-client without passing through
        #: the server (section 4.1 discussion): page id -> (conservative
        #: RecAddr, current holder, page_LSN of the forwarded version).
        #: The server answers for these pages' recovery bounds until it
        #: finally receives a version at least as new.
        self._forwarded_dirty: Dict[int, Tuple[LogAddr, str, LSN]] = {}
        #: Appends since the last automatic checkpoint.
        self._appends_since_ckpt = 0

        self.crashed = False
        #: The adopted replicas' I/O counters at promotion, by
        #: ``MetricsSnapshot`` field: standby work a snapshot leaves out.
        self.adopted_io: Dict[str, int] = {}
        #: Attached by the replication manager (repro.replication);
        #: ``None`` keeps every ship hook a single pointer comparison.
        self.replication: Optional[Any] = None
        # Default logical-undo support for the B+-tree: re-traverse from
        # the anchor recorded in the log record's key payload.
        from repro.index.undo import logical_undo_effect
        self.logical_undo_handler: Optional[LogicalUndoHandler] = (
            lambda record, pages: logical_undo_effect(record, pages.fetch)
        )

        # Metrics
        self.wal_forces = 0
        self.pages_served = 0
        self.callbacks_sent = 0
        self.callbacks_suppressed = 0
        self.invalidations_sent = 0
        self.piggybacks_sent = 0
        self.commit_forces = 0
        #: Client-to-client page forwards performed (section 4.1 option).
        self.forwards = 0
        #: Log forces performed for dirty-page privilege transfers.
        self.transfer_forces = 0
        #: Log-replay transport work (the section 5 future-work mode).
        self.materializations = 0
        self.records_replayed_for_materialize = 0
        #: CLRs written while the server performed a normal rollback on a
        #: client's behalf (ESM-CS's server-side rollback; experiment E3).
        self.serverside_undo_records = 0
        self.last_recovery: Optional[RecoveryReport] = None
        self.recovery_reports: List[RecoveryReport] = []

    # ------------------------------------------------------------------
    # RPC dispatch table (what clients may invoke on the server)
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        """Register every service a client envelope may name.

        Service methods already take the calling client's id as their
        first parameter, matching the dispatcher's ``handler(sender,
        *args)`` convention, so most register as bound methods.
        """
        d = self.dispatcher
        d.register("acquire_lock", self.acquire_lock)
        d.register("release_lock", self.release_lock)
        d.register("get_page", self.get_page)
        d.register("acquire_update_privilege", self.acquire_update_privilege)
        d.register("release_update_privilege", self.release_update_privilege)
        d.register("receive_log_records", self.receive_log_records)
        d.register("force_log_for_commit", self.force_log_for_commit)
        d.register("log_cdpl", self.log_cdpl)
        d.register("fetch_log_records", self.fetch_log_records)
        d.register("rollback_transaction_serverside",
                   self.rollback_transaction_serverside)
        d.register("receive_dirty_page", self.receive_dirty_page)
        d.register("materialize_page", self.materialize_page)
        d.register("receive_client_checkpoint", self.receive_client_checkpoint)
        d.register("rebuild_page_for_client", self.rebuild_page_for_client)
        d.register("assign_lsn_rpc", self.assign_lsn_rpc)
        d.register("indoubt_info_for",
                   lambda sender: self.indoubt_info_for(sender))
        d.register("flush_page",
                   lambda sender, page_id: self.flush_page(page_id))
        d.register("max_known_page_id",
                   lambda sender: self.max_known_page_id())

    def _client_stub(self, client_id: str) -> RpcStub:
        return self.network.stub(self.node_id, client_id)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    # lint: allow[WAL100] offline formatting: the database predates its first log record
    def bootstrap(self, data_pages: int, free_pages: int = 0) -> List[int]:
        """Create an initial database: ``data_pages`` allocated DATA pages
        plus capacity for ``free_pages`` future allocations.

        Done offline (no logging), like formatting a database before
        first use.  SMPs are laid out per the segment scheme and written
        to disk; free pages are *not* written — they materialize when a
        client allocates and formats them (section 2.3).  Returns the
        allocated data page ids.
        """
        from repro.storage import space_map as sm
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("server.bootstrap.before_format")
        allocated: List[int] = []
        total_needed = data_pages + free_pages
        covered = 0
        page_id = 0
        smp: Optional[Page] = None
        while covered < total_needed or len(allocated) < data_pages:
            if self.layout.is_smp(page_id):
                if smp is not None:
                    self._disk_write(smp)
                smp = Page(page_id, page_size=self.config.page_size)
                sm.format_smp(smp, self.layout.coverage)
            elif len(allocated) < data_pages:
                page = Page(page_id, PageKind.DATA, self.config.page_size)
                # lint: allow[REC001] offline format: no log exists before first use
                page.format(PageKind.DATA)
                self._disk_write(page)
                assert smp is not None
                sm.set_bit(smp, self.layout.bit_for(page_id), sm.ALLOCATED)
                allocated.append(page_id)
                covered += 1
            else:
                covered += 1  # a free page: laid out but never written
            page_id += 1
        if smp is not None:
            self._disk_write(smp)
        return allocated

    def _disk_write(self, page: Page) -> None:
        """One database-disk page write, retried through the fault
        plane's deterministic transient-I/O policy."""
        probe = self.probe
        if probe.faults is not None:
            probe.faults.crashpoint("disk.write.before")
        if probe.sanitizer is not None:
            probe.sanitizer.on_page_externalize(page.page_id, page.page_lsn)
        io_retry(probe.faults, lambda: self.disk.write_page(page),
                 "disk.write")

    # ------------------------------------------------------------------
    # Client session management
    # ------------------------------------------------------------------

    def connect_client(self, client: Any) -> None:
        self._clients[client.client_id] = client
        self._interactions.setdefault(client.client_id, 0)
        self.tracker.register_client(client.client_id)

    def operational_clients(self) -> List[str]:
        return sorted(
            client_id for client_id in self._clients
            if self.network.is_up(client_id)
        )

    def _require_up(self) -> None:
        if self.crashed:
            raise NodeUnavailableError(self.node_id)

    def _note_caching(self, page_id: int, client_id: str) -> None:
        """Record that ``client_id`` caches ``page_id``.

        Every page request hits this; the get-then-create keeps the
        steady state (token set exists) free of the throwaway ``set()``
        that ``setdefault`` would allocate per call.
        """
        tokens = self._caching.get(page_id)
        if tokens is None:
            tokens = self._caching[page_id] = set()
        tokens.add(client_id)

    def _interaction(self, client_id: str) -> None:
        """Count a client interaction; piggyback LSN sync periodically.

        The piggyback (section 3) distributes Max_LSN (raising the
        client's Lamport clock) and the current Commit_LSN.  The
        synchronous call doubles as the acknowledgement that lets the
        tracker raise the client's floor.
        """
        # Any RPC from the client may have shrunk its local lock needs
        # (commit, rollback, release); its memoized callback answers
        # are stale from here on.
        self._lock_needed_memo.pop(client_id, None)
        period = self.config.max_lsn_sync_period
        count = self._interactions.get(client_id, 0) + 1
        self._interactions[client_id] = count
        if not self.config.commit_lsn_enabled or period <= 0:
            return
        if count % period == 0:
            self._push_sync(client_id)

    def _push_sync(self, client_id: str) -> None:
        if client_id not in self._clients or not self.network.is_up(client_id):
            return
        max_lsn = self.log.max_lsn_seen
        commit_lsn = self.tracker.commit_lsn()
        if self.config.commit_lsn_per_table:
            args = (max_lsn, commit_lsn,
                    self.tracker.commit_lsn_by_table(),
                    self.tracker.floor_bound())
        else:
            args = (max_lsn, commit_lsn)
        try:
            # Uncharged: the sync piggybacks on the interaction being
            # served (section 3); best-effort under a lossy transport.
            self._client_stub(client_id).call("lsn_sync", MsgType.LSN_SYNC,
                                              args=args, charge=False)
        except NodeUnavailableError:
            return
        self.piggybacks_sent += 1
        self.tracker.note_sync_acknowledged(client_id, max_lsn)

    def broadcast_sync(self) -> None:
        """Push Max_LSN / Commit_LSN to every operational client now."""
        for client_id in self.operational_clients():
            self._push_sync(client_id)

    def current_commit_lsn(self) -> LSN:
        return self.tracker.commit_lsn()

    # ------------------------------------------------------------------
    # Page service and coherency
    # ------------------------------------------------------------------

    def _current_page_bcb(self, page_id: int) -> BufferControlBlock:
        """The server's current version of a page, faulted in if needed.

        A page that has never been written (a free page about to be
        allocated and formatted by a client) materializes as an empty
        frame — the client's format record initializes it without any
        disk read, which is the whole point of section 2.3.
        """
        bcb = self.pool.bcb(page_id)
        if bcb is not None:
            self.pool.get(page_id)  # count the hit, bump LRU
            return bcb
        try:
            page = self.disk.read_page(page_id)
        except PageNotFoundError:
            page = Page(page_id, PageKind.FREE, self.config.page_size)
        except PageCorruptedError:
            page = self._heal_torn_page(page_id)
        self.pool.misses += 1
        return self.pool.admit(page, dirty=False,
                               covered_addr=self.log.end_of_log_addr)

    def max_known_page_id(self) -> int:
        """Upper bound of the laid-out page-id space (for SMP scans)."""
        highest = -1
        for page_id in self.disk.page_ids():
            highest = max(highest, page_id)
        for page_id in self.pool.page_ids():
            highest = max(highest, page_id)
        return highest

    def _demote_update_owner(self, page_id: int, requester: str,
                             release: bool,
                             forward_to: Optional[str] = None) -> bool:
        """Make the current update-privilege owner (if any) safe to read.

        ``release=False`` (a reader appeared): the owner ships the
        current version and *downgrades* X -> S, keeping a valid cached
        copy.  ``release=True`` (another writer appeared): the owner
        ships, drops its copy and releases the P-lock entirely.  With
        ``forward_to`` set (and forwarding enabled), a dirty page travels
        directly owner -> requester instead (section 4.1): the owner's
        log records are acknowledged first, and the server records the
        page in its forwarded-dirty table so recovery bounds survive
        without the image.  A crashed, unrecovered owner is recovered
        first (section 2.6.1), which releases its locks as a side effect.

        Returns True when the page was forwarded (the requester already
        holds the current version; nothing should be shipped to it).
        """
        owner = self.glm.update_privilege_owner(page_id)
        if owner is None or owner == requester or owner == self.node_id:
            return False
        if owner not in self._clients or not self.network.is_up(owner):
            self.recover_failed_client(owner)
            return False
        owner_stub = self._client_stub(owner)
        self.callbacks_sent += 1
        if not release:
            owner_stub.call("downgrade_privilege", MsgType.CALLBACK,
                            payload=page_id, args=(page_id,))
            self.glm.downgrade_p_lock(owner, page_id, LockMode.S)
            return False
        forwarded = False
        if forward_to is not None and forward_to in self._clients \
                and self.network.is_up(forward_to):
            result = owner_stub.call("forward_page", MsgType.CALLBACK,
                                     payload=page_id,
                                     args=(page_id, forward_to))
            if result is not None:
                rec_lsn, version_lsn = result
                rec_addr = self._map_rec_lsn(owner, page_id, rec_lsn)
                bcb = self.pool.bcb(page_id)
                if bcb is not None and bcb.dirty and bcb.rec_addr != NULL_ADDR:
                    rec_addr = min(rec_addr, bcb.rec_addr)
                self._forwarded_dirty[page_id] = (rec_addr, forward_to,
                                                  version_lsn)
                self.forwards += 1
                forwarded = True
            else:
                # The owner's copy was clean: it simply dropped it; the
                # server's version is current.
                pass
        else:
            owner_stub.call("release_privilege", MsgType.CALLBACK,
                            payload=page_id, args=(page_id,))
        self.glm.release_p_lock(owner, page_id)
        # Force the log through the transfer's records (the conservative
        # option of the [MoNa91] fast-transfer family): the new owner's
        # lineage must never rest on log records that can still vanish
        # with a server crash while the old owner is also gone.
        self.log.force()
        self.transfer_forces += 1
        return forwarded

    def get_page(self, client_id: str, page_id: int,
                 cached_lsn: Optional[LSN] = None) -> Optional[Page]:
        """Serve a page copy to a reading client, granting an S P-lock.

        The S P-lock is the cache-coherency token: while the reader holds
        it, no other system can take the update privilege without an
        invalidation callback, so the cached copy stays trustworthy.  If
        another client currently owns the update privilege it is called
        back to push the latest version and downgrade to S first.

        ``cached_lsn`` is the page_LSN of the requester's cached copy, if
        any; when already current the server answers "use yours" (returns
        None) without shipping the image.
        """
        self._require_up()
        self._interaction(client_id)
        self._demote_update_owner(page_id, requester=client_id, release=False)
        self.glm.acquire_p_lock(client_id, page_id, LockMode.S)
        bcb = self._current_page_bcb(page_id)
        self._note_caching(page_id, client_id)
        if cached_lsn is not None and cached_lsn >= bcb.page.page_lsn:
            return None
        self.pages_served += 1
        snapshot = bcb.page.snapshot()
        self.network.send(self.node_id, client_id, MsgType.PAGE_SHIP, snapshot)
        return snapshot

    def acquire_update_privilege(self, client_id: str, page_id: int,
                                 cached_lsn: Optional[LSN] = None) -> Optional[Page]:
        """Grant the update-privilege (X) P-lock, transferring if needed.

        The current X owner (if any) is called back to ship its log
        records and the latest page version before the privilege moves
        (section 2.1: reaching the server's *buffer pool* is sufficient —
        no disk write needed).  Every S-token holder is invalidated: its
        cached copy is about to go stale.  Returns the latest page image
        when the requester's copy is stale, else None.
        """
        self._require_up()
        self._interaction(client_id)
        forward_to = client_id if self.config.enable_forwarding else None
        forwarded = self._demote_update_owner(
            page_id, requester=client_id, release=True, forward_to=forward_to
        )
        for holder in self.glm.p_lock_s_holders(page_id):
            if holder == client_id:
                continue
            if holder in self._clients and self.network.is_up(holder):
                self.invalidations_sent += 1
                self._client_stub(holder).call("invalidate_page",
                                               MsgType.CALLBACK,
                                               payload=page_id,
                                               args=(page_id,))
            self.glm.release_p_lock(holder, page_id)
            tokens = self._caching.get(page_id)
            if tokens is not None:
                tokens.discard(holder)
        self.glm.acquire_p_lock(client_id, page_id, LockMode.X)
        self.glm.note_update_grant(page_id, self.log.end_of_log_addr)
        self._caching[page_id] = {client_id}
        if forwarded:
            # The current version already reached the requester directly;
            # the server's own copy is stale and must not be shipped.
            return None
        bcb = self._current_page_bcb(page_id)
        if cached_lsn is not None and cached_lsn >= bcb.page.page_lsn:
            return None
        self.pages_served += 1
        snapshot = bcb.page.snapshot()
        self.network.send(self.node_id, client_id, MsgType.PAGE_SHIP, snapshot)
        return snapshot

    def release_update_privilege(self, client_id: str, page_id: int) -> None:
        """Voluntary release (the client must have pushed the page first)."""
        self._require_up()
        self.glm.release_p_lock(client_id, page_id)

    # ------------------------------------------------------------------
    # Logical locks
    # ------------------------------------------------------------------

    def acquire_lock(self, client_id: str, resource: Any,
                     mode: LockMode) -> Union[LockMode, LockDenied]:
        """GLM request from a client LLM, with cache-callback resolution.

        Answers with the granted mode, or with a :class:`LockDenied`
        reply when the requester must wait.  When the only blockers are
        other clients' *cached* (locally idle) locks, the server calls
        them back; each relinquishes unless a local transaction still
        holds the resource.
        """
        self._require_up()
        self._interaction(client_id)
        reply = self.glm.request(client_id, resource, mode)
        if isinstance(reply, LockDenied) and \
                self._call_back_holders(resource, reply.holders):
            # Retry: the conflict may persist (a local holder genuinely
            # needs an incompatible mode), and then this is the denial.
            reply = self.glm.request(client_id, resource, mode)
        return reply

    def _call_back_holders(self, resource: Any,
                           holders: Tuple[str, ...]) -> bool:
        """One callback round over a denial's holders.

        Returns False when the round is skipped or cut short because a
        retry could not succeed.
        """
        memoize = not self.config.llm_cache_locks
        if memoize:
            # If any conflicting holder already confirmed (since its
            # last interaction) that it still needs this resource, its
            # hold cannot have shrunk — the retry would fail regardless,
            # so skip the whole callback round.
            for holder in holders:
                still_needed = self._lock_needed_memo.get(holder)
                if still_needed is not None and resource in still_needed:
                    self.callbacks_suppressed += 1
                    return False
        for holder in holders:
            if holder not in self._clients or not self.network.is_up(holder):
                # A failed client's locks are released by its recovery;
                # until then the requester must wait.
                return False
            self.callbacks_sent += 1
            # De-escalation: the holder shrinks its cached global lock
            # to what its local transactions still need.
            needed = self._client_stub(holder).call(
                "reduce_lock", MsgType.CALLBACK,
                payload=str(resource), args=(resource,),
            )
            if needed is None:
                self.glm.release(holder, resource)
            else:
                self.glm.downgrade(holder, resource, needed)
                if memoize:
                    memo = self._lock_needed_memo.get(holder)
                    if memo is None:
                        memo = self._lock_needed_memo[holder] = set()
                    memo.add(resource)
        return True

    def release_lock(self, client_id: str, resource: Any) -> None:
        self._require_up()
        self.glm.release(client_id, resource)

    # ------------------------------------------------------------------
    # Log service
    # ------------------------------------------------------------------

    def receive_log_records(self, client_id: str,
                            records: List[LogRecord]) -> Tuple[List[Tuple[LSN, LogAddr]], LogAddr]:
        """Append a shipped batch; returns (assigned pairs, flushed addr).

        Every record is analyzed for the global transaction tracker
        (section 2.4) — this is how the server can later serve rollback
        fetches and compute Commit_LSN.
        """
        self._require_up()
        self._interaction(client_id)
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("server.log_ship.before_append")
        assigned = self.log.append_from_client(client_id, records)
        for record, (_, addr) in zip(records, assigned):
            self.tracker.observe(record, addr)
        self._appends_since_ckpt += len(records)
        self._maybe_auto_checkpoint()
        if self.replication is not None:
            self.replication.on_log_appended()
        return assigned, self.log.flushed_addr

    def force_log_for_commit(self, client_id: str, txn_id: str) -> LogAddr:
        """Commit force: everything up to the commit record goes stable.

        Eligible for group-commit deferral: with an open window the
        returned flushed boundary may not cover the commit record yet,
        and the client keeps its records buffered until it does
        (section 2.1) — which is what makes deferral crash-safe.
        """
        self._require_up()
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("server.commit.before_force")
        flushed = self.log.commit_force()
        self.commit_forces += 1
        if self.replication is not None:
            # Synchronous ship-ack at commit force: the commit
            # acknowledgement implies the records are stable at the
            # standby too, which is what the failover durability oracle
            # relies on (no acked commit lost by a promotion).
            self.replication.on_commit_force(flushed)
        return flushed

    def log_cdpl(self, client_id: str, txn_id: str,
                 pages: List[Tuple[int, LSN]]) -> None:
        """ESM-CS baseline: log the Commit Dirty Page List before the
        commit record (section 4.1)."""
        self._require_up()
        entries = tuple(
            DirtyPageEntry(
                page_id=page_id,
                rec_lsn=rec_lsn,
                rec_addr=self._map_rec_lsn(client_id, page_id, rec_lsn),
            )
            for page_id, rec_lsn in pages
        )
        record = CDPLRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN),
            client_id=SERVER_ID,
            txn_id=txn_id,
            prev_lsn=NULL_LSN,
            entries=entries,
        )
        self.log.append_local(record)

    def fetch_log_records(self, client_id: str, txn_id: str,
                          lsns: List[LSN]) -> List[LogRecord]:
        """Serve a rolling-back client records it pruned locally
        (section 2.4: retrieved from the server's log through the
        client's ``<LSN, address>`` index)."""
        self._require_up()
        self._interaction(client_id)
        out = [self.log.read_at(self._addr_of_lsn(client_id, lsn))
               for lsn in lsns]
        self.network.send(self.node_id, client_id, MsgType.LOG_FETCH, out)
        return out

    def _addr_of_lsn(self, client_id: str, lsn: LSN) -> LogAddr:
        addr = self.log.addr_of_lsn(client_id, lsn)
        if addr is None:
            raise RecoveryError(f"no log record with LSN {lsn} from {client_id}")
        return addr

    # ------------------------------------------------------------------
    # Server-side rollback (ESM-CS baseline, section 4.1)
    # ------------------------------------------------------------------

    def rollback_transaction_serverside(
        self, client_id: str, txn_id: str, stop_lsn: LSN,
        last_lsn: LSN, undo_next_lsn: LSN,
    ) -> Tuple[LSN, LSN]:
        """Roll back a client transaction on the *server's* page versions.

        This is ESM-CS's design: clients perform no recovery actions, so
        undo must be *conditional* (ARIES-RRH style) — the client never
        forced its pages over, so some updates may be absent from the
        server's versions; a CLR is still written as if the undo was
        performed.  The paper points out this precludes logical undo,
        which is why the B+-tree operations reject this path.

        Returns the transaction's new (last_lsn, undo_next_lsn).
        """
        from repro.core.apply import apply_undo_effect, physical_undo_effect
        from repro.core.log_records import CompensationRecord
        self._require_up()
        current = undo_next_lsn
        prev = last_lsn
        while current != NULL_LSN and current > stop_lsn:
            record = self.log.read_at(self._addr_of_lsn(client_id, current))
            if record.is_clr():
                current = record.undo_next_lsn  # type: ignore[union-attr]
                continue
            assert isinstance(record, UpdateRecord)
            if record.redo_only:
                current = record.prev_lsn
                continue
            if record.undo_is_logical():
                raise RecoveryError(
                    "server-side (conditional) rollback cannot perform "
                    "logical undo — the ESM-CS limitation of section 4.1"
                )
            effect = physical_undo_effect(record)
            page = self._page_for_recovery(effect.page_id, pull_current=False)
            clr_lsn = self.log.clock.next_lsn(page.page_lsn)
            if page.page_lsn >= record.lsn:
                # The update is present in the server's version: real undo.
                apply_undo_effect(page, effect, clr_lsn)
                applied = True
            else:
                # Conditional undo: the update never reached the server;
                # log the CLR as if the undo had been performed.
                applied = False
            clr = CompensationRecord(
                lsn=clr_lsn, client_id=client_id, txn_id=txn_id,
                prev_lsn=prev, undo_next_lsn=record.prev_lsn,
                page_id=effect.page_id, op=effect.op, slot=effect.slot,
                after=effect.after, key=effect.key,
            )
            clr_addr = self.log.append_local(clr)
            self.tracker.observe(clr, clr_addr)
            self.serverside_undo_records += 1
            if applied:
                self._mark_recovered_dirty(effect.page_id, clr_addr)
            prev = clr_lsn
            current = record.prev_lsn
        return prev, current

    # ------------------------------------------------------------------
    # Dirty page reception and WAL
    # ------------------------------------------------------------------

    def _map_rec_lsn(self, client_id: str, page_id: int, rec_lsn: LSN) -> LogAddr:
        """RecLSN -> RecAddr with conservative floors (section 2.5.2).

        For a page whose current dirty version was forwarded between
        clients, the server-side forwarded-dirty bound also applies: the
        reporting client's own LSN space cannot express the previous
        owner's still-unmaterialized updates.
        """
        addr = self.log.addr_for_rec_lsn(client_id, rec_lsn)
        if addr is None:
            addr = self._rec_addr_floor.get(page_id, 0)
        forwarded = self._forwarded_dirty.get(page_id)
        if forwarded is not None:
            addr = min(addr, forwarded[0])
        return addr

    def receive_dirty_page(self, client_id: str, page: Page, rec_lsn: LSN) -> None:
        """A dirty page arrives from a client (eviction, transfer, commit
        policy of a baseline, ...).

        The server maps the accompanying RecLSN to a RecAddr for its BCB
        (keeping an older bound if it already held the page dirty) and
        assigns the conservative ForceAddr — the address of the most
        recent log record received from that client (section 2.2).
        """
        self._require_up()
        force_addr = self.log.force_addr_for_client(client_id)
        rec_addr = self._map_rec_lsn(client_id, page.page_id, rec_lsn)
        self.pool.admit(
            page, dirty=True, rec_lsn=rec_lsn, rec_addr=rec_addr,
            force_addr=force_addr, covered_addr=self.log.end_of_log_addr,
        )
        self._note_caching(page.page_id, client_id)
        forwarded = self._forwarded_dirty.get(page.page_id)
        if forwarded is not None and page.page_lsn >= forwarded[2]:
            # The server now holds a version at least as new as the one
            # that traveled client-to-client; its own (merged) BCB bound
            # takes over the recovery responsibility.
            del self._forwarded_dirty[page.page_id]

    def materialize_page(self, client_id: str, page_id: int,
                         rec_lsn: LSN, version_lsn: LSN) -> int:
        """Log-replay transport: bring the server's copy current from the
        log instead of receiving the image (the paper's future-work mode,
        section 5).

        The client has already shipped every log record for the page
        (WAL-to-server holds unchanged); the server rolls its own copy
        forward from the mapped RecAddr.  ``version_lsn`` is the client
        copy's page_LSN — the materialized copy must reach it, or a log
        record went missing.  Returns the number of records replayed.
        """
        self._require_up()
        self._interaction(client_id)
        force_addr = self.log.force_addr_for_client(client_id)
        rec_addr = self._map_rec_lsn(client_id, page_id, rec_lsn)
        bcb = self._current_page_bcb(page_id)
        applied = self._roll_page_forward(bcb.page, rec_addr)
        if bcb.page.page_lsn < version_lsn:
            raise RecoveryError(
                f"materialize of page {page_id}: replay reached LSN "
                f"{bcb.page.page_lsn}, client version is {version_lsn} — "
                "a log record was not shipped before the page turned clean"
            )
        self.pool.mark_dirty(page_id, rec_lsn=rec_lsn, rec_addr=rec_addr,
                             force_addr=force_addr)
        bcb.covered_addr = max(bcb.covered_addr, self.log.end_of_log_addr)
        self.materializations += 1
        self.records_replayed_for_materialize += applied
        self._note_caching(page_id, client_id)
        forwarded = self._forwarded_dirty.get(page_id)
        if forwarded is not None and bcb.page.page_lsn >= forwarded[2]:
            del self._forwarded_dirty[page_id]
        return applied

    def _write_back(self, bcb: BufferControlBlock) -> None:
        """Steal eviction at the server: WAL, then the disk write."""
        self._flush_bcb(bcb)

    def _flush_bcb(self, bcb: BufferControlBlock) -> None:
        probe = self.probe
        if bcb.force_addr != NULL_ADDR and not self.log.stable.is_stable(bcb.force_addr):
            if probe.tracer is not None:
                probe.tracer.instant("log", "wal_force_on_evict", "server",
                                     page_id=bcb.page_id,
                                     force_addr=bcb.force_addr)
            if probe.faults is not None:
                probe.faults.crashpoint("server.flush.before_force")
            self.log.force(bcb.force_addr)
            self.wal_forces += 1
        if bcb.force_addr != NULL_ADDR and not self.log.stable.is_stable(bcb.force_addr):
            raise WALViolationError(
                f"page {bcb.page_id} would reach disk before log addr {bcb.force_addr}"
            )
        if probe.faults is not None:
            probe.faults.crashpoint("server.flush.before_write")
        self._disk_write(bcb.page)
        if probe.faults is not None:
            probe.faults.crashpoint("server.flush.after_write")
        if bcb.covered_addr != NULL_ADDR:
            self.glm.advance_rec_addr(bcb.page_id, bcb.covered_addr)
        bcb.dirty = False
        bcb.rec_lsn = NULL_LSN
        bcb.rec_addr = NULL_ADDR
        bcb.force_addr = NULL_ADDR

    def flush_page(self, page_id: int) -> bool:
        """Write one buffered page to disk (WAL enforced); True if it was dirty."""
        self._require_up()
        bcb = self.pool.bcb(page_id)
        if bcb is None or not bcb.dirty:
            return False
        self._flush_bcb(bcb)
        return True

    def flush_all(self) -> int:
        """Write every dirty buffered page to disk; returns the count."""
        self._require_up()
        count = 0
        for bcb in list(self.pool.dirty_bcbs()):
            self._flush_bcb(bcb)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _maybe_auto_checkpoint(self) -> None:
        interval = self.config.server_checkpoint_interval
        if interval > 0 and self._appends_since_ckpt >= interval:
            self.take_checkpoint()

    def receive_client_checkpoint(
        self, client_id: str,
        begin: BeginCheckpointRecord,
        end: EndCheckpointRecord,
    ) -> Tuple[List[Tuple[LSN, LogAddr]], LogAddr]:
        """Append a client's checkpoint, rewriting RecLSNs to RecAddrs
        (section 2.6.1), and remember it in the master record."""
        self._require_up()
        self._interaction(client_id)
        begin_addr = self.log.append_from_client(client_id, [begin])[0][1]
        rewritten = end.with_dirty_pages(tuple(
            DirtyPageEntry(
                page_id=entry.page_id,
                rec_lsn=entry.rec_lsn,
                rec_addr=self._map_rec_lsn(client_id, entry.page_id, entry.rec_lsn),
            )
            for entry in end.dirty_pages
        ))
        end_pair = self.log.append_from_client(client_id, [rewritten])[0]
        for entry in rewritten.dirty_pages:
            floor = self._rec_addr_floor.get(entry.page_id)
            if floor is None or entry.rec_addr < floor:
                self._rec_addr_floor[entry.page_id] = entry.rec_addr
        probe = self.probe
        # Force both checkpoint records before the master names their
        # address: a crash truncates the unforced tail and reuses its
        # addresses, so an unforced begin_addr would dangle (REC021).
        if probe.faults is not None:
            probe.faults.crashpoint("server.client_checkpoint.before_force")
        self.log.force(end_pair[1])
        if probe.faults is not None:
            probe.faults.crashpoint("server.client_checkpoint.before_master")
        self._master["client_ckpts"][client_id] = begin_addr
        self._appends_since_ckpt += 2
        return [(begin.lsn, begin_addr), end_pair], self.log.flushed_addr

    def take_checkpoint(self) -> LogAddr:
        """The coordinated server checkpoint of section 2.7.

        Ordering matters: the Begin record is written, then *all*
        operational clients report their DPLs, and only then is the
        server's own current dirty list merged in — a page pushed back by
        a client between those two events must land in one list or the
        other.  RecLSNs are converted to RecAddrs, minima win, and the
        End record carries the merged DPL plus every in-progress
        transaction known to the tracker.
        """
        self._require_up()
        probe = self.probe
        if probe.faults is not None:
            probe.faults.crashpoint("server.checkpoint.begin")
        begin = BeginCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN),
            client_id=SERVER_ID, txn_id=None, prev_lsn=NULL_LSN,
            owner=SERVER_ID,
        )
        begin_addr = self.log.append_local(begin)

        merged: Dict[int, LogAddr] = {}
        merged_lsn: Dict[int, LSN] = {}

        def merge(page_id: int, rec_addr: LogAddr, rec_lsn: LSN = NULL_LSN) -> None:
            if rec_addr == NULL_ADDR:
                return
            current = merged.get(page_id)
            if current is None or rec_addr < current:
                merged[page_id] = rec_addr
                merged_lsn[page_id] = rec_lsn

        if not self.config.unsafe_server_checkpoint_excludes_clients:
            # Clients first (the paper's ordering requirement).
            for client_id in self.operational_clients():
                dpl = self._client_stub(client_id).call(
                    "report_dirty_pages", MsgType.CHECKPOINT
                )
                # The DPL reply carries real payload: charge it.
                self.network.send(client_id, self.node_id, MsgType.CHECKPOINT, dpl)
                for page_id, rec_lsn in dpl:
                    merge(page_id, self._map_rec_lsn(client_id, page_id, rec_lsn),
                          rec_lsn)
        # Then the server's own *current* dirty list.
        for bcb in self.pool.dirty_bcbs():
            merge(bcb.page_id, bcb.rec_addr, bcb.rec_lsn)
        # And pages whose dirty versions are traveling client-to-client.
        for page_id, (rec_addr, _holder, _lsn) in self._forwarded_dirty.items():
            merge(page_id, rec_addr)

        entries = tuple(
            DirtyPageEntry(page_id=page_id, rec_lsn=merged_lsn[page_id],
                           rec_addr=rec_addr)
            for page_id, rec_addr in sorted(merged.items())
        )
        txn_entries = tuple(
            TxnTableEntry(
                txn_id=txn.txn_id, client_id=txn.client_id, state=txn.state,
                last_lsn=txn.last_lsn, undo_next_lsn=txn.undo_next_lsn,
                first_lsn=txn.first_lsn,
            )
            for txn in sorted(self.tracker.in_progress(), key=lambda t: t.txn_id)
        )
        end = EndCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN),
            client_id=SERVER_ID, txn_id=None, prev_lsn=begin.lsn,
            owner=SERVER_ID, dirty_pages=entries, transactions=txn_entries,
        )
        end_addr = self.log.append_local(end)
        if probe.faults is not None:
            probe.faults.crashpoint("server.checkpoint.before_force")
        self.log.force(end_addr)
        # The master-record update is the checkpoint's commit point
        # (section 2.5.2): a crash on either side of it must leave a
        # reachable checkpoint — the previous one before, this one after.
        if probe.faults is not None:
            probe.faults.crashpoint("server.checkpoint.before_master")
        self._master["server_ckpt_begin_addr"] = begin_addr
        if probe.faults is not None:
            probe.faults.crashpoint("server.checkpoint.after_master")
        if self.replication is not None:
            # Checkpoints advance the shipped master copy: a standby
            # bootstrapped from it can start analysis at this begin
            # record even before it builds its own applied checkpoint.
            self.replication.on_log_appended()
        for entry in entries:
            floor = self._rec_addr_floor.get(entry.page_id)
            if floor is None or entry.rec_addr < floor:
                self._rec_addr_floor[entry.page_id] = entry.rec_addr
        self._appends_since_ckpt = 0
        return begin_addr

    # ------------------------------------------------------------------
    # Replication support (DESIGN §15)
    # ------------------------------------------------------------------

    def master_snapshot(self) -> Dict[str, Any]:
        """A copy of the stable master record, safe to ship.

        The master is a two-level structure (scalars plus the per-client
        checkpoint map); copying both levels lets a standby install it
        without aliasing the primary's live state.
        """
        snapshot = dict(self._master)
        snapshot["client_ckpts"] = dict(self._master["client_ckpts"])
        return snapshot

    def adopt_replica_state(self, log: ServerLogManager, disk: Disk,
                            tracker: GlobalTransactionTracker,
                            master: Dict[str, Any],
                            replica_io: Dict[str, int]) -> None:
        """Install a standby's replicas as this server's durable state.

        Failover promotion builds a fresh :class:`Server` around the
        standby's log/disk/master replicas and the transaction tracker
        it grew while observing the ship stream, then rolls the
        unapplied log tail forward with :meth:`restart`.  The server is
        left marked crashed on purpose: :meth:`restart` is the only
        legal next step.  The replicas join this server's probe here:
        no plane reaches them while they are the standby's.

        ``replica_io`` is :func:`io_counters` of the replicas as
        promotion began.  The counters come along with the replicas, so
        it is kept as :attr:`adopted_io` for ``harness.metrics.snapshot``
        to subtract: the standby's shipping and apply work is not the
        server's.
        """
        self.adopted_io = replica_io
        log.probe = log.stable.probe = log.group.probe = self.probe
        disk.probe = self.probe
        self.log = log
        self.disk = disk
        self.tracker = tracker
        self._master = master
        self.crashed = True

    # ------------------------------------------------------------------
    # Crash and restart (section 2.7)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Everything volatile disappears; disk, stable log and the
        master record survive."""
        self.pool.clear()
        self.glm.clear()
        self.tracker.clear()
        self.log.crash()
        self._caching.clear()
        self._interactions.clear()
        self._lock_needed_memo.clear()
        self._rec_addr_floor.clear()
        self._forwarded_dirty.clear()
        self.crashed = True
        self.network.crash(self.node_id)

    def restart(self, failed_clients: Optional[Set[str]] = None,
                survivor_boundary: Optional[LogAddr] = None,
                log_bookkeeping_intact: bool = False) -> RecoveryReport:
        """Restart recovery after a server crash.

        ``failed_clients`` names clients that went down with (or during)
        the outage; their in-flight transactions are rolled back along
        with the server's own.  Operational clients' transactions are
        left alone — those clients are still running them — and their
        lock state is re-fetched to rebuild the GLM (section 2.7).

        The two extra knobs exist for failover promotion (DESIGN §15),
        where "restart" runs over a standby's log replica rather than
        the crashed primary's own log:

        * ``survivor_boundary`` overrides the stable boundary survivors
          replay against.  The promotion checkpoint is appended to the
          replica *after* shipping stopped, so the replica's flushed
          address overshoots the last byte the old primary actually
          acknowledged; survivors must replay against the pre-checkpoint
          ship high-water instead.
        * ``log_bookkeeping_intact`` skips the whole-log header rescan
          that rebuilds the per-client <LSN, address> index: a standby
          observed every shipped record as it arrived, so its transplant
          already carries the exact index and clock — this skip is a
          large part of why promotion beats a cold restart.

        Both restart scans fold every LSN they read into the clock, so
        every LSN the server issues afterwards sorts above the log's.
        """
        self.network.restore(self.node_id)
        self.crashed = False
        if failed_clients is None:
            failed_clients = {
                client_id for client_id in self._clients
                if not self.network.is_up(client_id)
            }
        probe = self.probe
        root_span = 0
        if probe.tracer is not None:
            root_span = probe.tracer.begin(
                "recovery", "server-restart", "server",
                failed_clients=sorted(failed_clients),
            )

        # Restart orchestration deliberately bypasses the RPC layer:
        # these are out-of-band recovery interactions (the paper never
        # counts them), and modeling their transport is future work.
        # Phase 0: replay the lost log tail from the survivors' buffers.
        # Clients keep every record until it is stable (section 2.1), so
        # nothing appended-but-unforced is truly gone — but the re-append
        # must happen in the ORIGINAL address order merged across
        # clients: per-page log order is application order, and the
        # update privilege may have moved between clients inside the lost
        # tail.
        boundary = (self.log.flushed_addr if survivor_boundary is None
                    else survivor_boundary)
        replay: List[Tuple[LogAddr, str, LogRecord]] = []
        for client_id in sorted(self._clients):
            if not self.network.is_up(client_id):
                continue
            client = self._clients[client_id]
            for old_addr, record in client.log.unstable_records(boundary):
                replay.append((old_addr, client_id, record))
        replay.sort(key=lambda item: item[0])
        for old_addr, client_id, record in replay:
            (lsn, new_addr), = self.log.append_from_client(client_id, [record])
            self._clients[client_id].log.note_replayed(lsn, new_addr)
        # Then every survivor's never-shipped records: with the whole
        # complex's updates in the log BEFORE the analysis scan, the redo
        # pass materializes every lineage tip at the server, and the
        # survivors can afterwards converge on the recovered state
        # (dropping their caches) without losing a byte.  Records for
        # one page live in at most one client's unshipped buffer (a
        # privilege transfer ships them), so per-client FIFO order
        # suffices.
        for client_id in sorted(self._clients):
            if not self.network.is_up(client_id):
                continue
            client = self._clients[client_id]
            batch = client.log.unshipped()
            if batch:
                assigned = self.log.append_from_client(client_id, batch)
                client.log.note_shipped(assigned)

        start_addr = self._master["server_ckpt_begin_addr"]
        if start_addr == NULL_ADDR:
            start_addr = 0
        # Rebuild the volatile per-client <LSN, address> index over the
        # *whole* log first: RecLSN -> RecAddr mapping must never return
        # an address later than the true first qualifying record, and
        # surviving clients still hold pages dirtied long before the last
        # checkpoint.  (A production system would persist map summaries
        # with its checkpoints instead of rescanning.)
        if not log_bookkeeping_intact:
            for addr, header in self.log.scan_headers(0, start_addr):
                self.log.observe_during_restart(header.client_id,
                                                header.lsn, addr)

        def _after_analysis(analysis: AnalysisResult) -> None:
            # Re-seed the tracker with in-progress transactions whose
            # records all precede the checkpoint (known only via the
            # checkpoint's transaction table) — Commit_LSN safety for
            # surviving clients.
            for txn in analysis.txns.values():
                if txn.state in ("active", "prepared"):
                    self.tracker.reinstall(
                        txn.txn_id, txn.client_id, txn.state,
                        txn.first_lsn, txn.last_lsn, txn.undo_next_lsn,
                    )
            for page_id, rec_addr in analysis.dpl.items():
                self._rec_addr_floor[page_id] = min(
                    self._rec_addr_floor.get(page_id, rec_addr), rec_addr
                )

        def _restart_losers(
            losers: Dict[str, RestartTxn]) -> Dict[str, RestartTxn]:
            return {
                txn_id: txn for txn_id, txn in losers.items()
                if txn.client_id == SERVER_ID or txn.client_id in failed_clients
            }

        result = recover(RecoveryContext(
            log=self.log,
            pages=_ServerPageAccess(self),
            clr_writer=_ServerClrWriter(self),
            kind="server-restart",
            analysis_scan_start=start_addr,
            rebuild_log_bookkeeping=True,
            header_observer=self.tracker.observe_header,
            arm_analysis_scan=True,
            logical_undo=self.logical_undo_handler,
            probe=probe,
            analysis_span_attrs={"start_addr": start_addr},
            after_analysis=_after_analysis,
            loser_filter=_restart_losers,
        ))
        self.log.force()

        # Rebuild the volatile lock table and coherency map from the
        # operational clients, and collect in-doubt info for failed ones.
        if probe.faults is not None:
            probe.faults.crashpoint("server.restart.before_lock_rebuild")
        for client_id in sorted(self._clients):
            if self.network.is_up(client_id):
                client = self._clients[client_id]
                self.tracker.register_client(client_id)
                # Converge: the survivor's caches and P-locks are
                # superseded by the recovered server state (every one of
                # its updates is now materialized here); only its logical
                # locks and transaction table carry over.
                client.converge_after_server_restart()
                logical, p_locks, cached = client.report_lock_state()
                self.glm.reinstall_client_locks(client_id, logical, p_locks)
                for page_id in cached:
                    self._note_caching(page_id, client_id)
                client.server_restarted(self.log.flushed_addr)
            else:
                self._stash_indoubt(client_id, result.analysis,
                                    newest_first=False)
                self.glm.release_all(client_id)
                self._lock_needed_memo.pop(client_id, None)
                self.tracker.forget_client(client_id)

        return self._file_report("server-restart", result, root_span)

    def _file_report(self, kind: str, result: RecoveryResult,
                     root_span: int) -> RecoveryReport:
        """Record one recovery run's report and close its root span."""
        analysis, redo, undo = result.analysis, result.redo, result.undo
        report = RecoveryReport(
            kind=kind,
            analysis_records=analysis.records_scanned,
            redo_records_scanned=redo.records_scanned,
            redo_considered=redo.records_considered,
            redos_applied=redo.redos_applied,
            undo_records_scanned=undo.records_scanned,
            clrs_written=undo.clrs_written,
            txns_rolled_back=undo.txns_rolled_back,
            dpl_size=len(analysis.dpl),
        )
        self.last_recovery = report
        self.recovery_reports.append(report)
        if self.probe.tracer is not None:
            self.probe.tracer.end(
                root_span, total_records=report.total_log_records_processed)
        return report

    def _stash_indoubt(self, client_id: str, analysis: AnalysisResult,
                       newest_first: bool) -> None:
        """Keep a failed client's in-doubt info for its reconnect.

        Section 2.6.1: per prepared branch, the lock list logged in its
        Prepare record plus the LSN chain state the client needs to
        later roll the branch back if the coordinator says abort.  One
        backward walk over the client's own records finds the Prepare
        records and stops at the last one; with nothing prepared the log
        is not touched.  Client
        recovery hands the branches over in log order, newest Prepare
        first; restart in transaction-table order.
        """
        prepared = {
            txn_id: txn for txn_id, txn in analysis.txns.items()
            if txn.client_id == client_id and txn.state == "prepared"
        }
        if not prepared:
            return
        locks: Dict[str, Tuple] = {}
        for addr, header in self.log.scan_client_headers(
                client_id, newest_first=True):
            txn_id = header.txn_id
            if (header.type_tag == "PRE" and txn_id is not None
                    and txn_id in prepared and txn_id not in locks):
                record = self.log.read_at(addr)
                assert isinstance(record, PrepareRecord)
                locks[txn_id] = record.locks
                if len(locks) == len(prepared):
                    break
        indoubt = []
        for txn_id in (locks if newest_first else prepared):
            txn = prepared[txn_id]
            indoubt.append((txn_id, locks.get(txn_id, ()),
                            (txn.last_lsn, txn.undo_next_lsn, txn.first_lsn)))
        self._indoubt_for_client[client_id] = indoubt

    # ------------------------------------------------------------------
    # Failed-client recovery (sections 2.6.1 / 2.6.2)
    # ------------------------------------------------------------------

    def recover_failed_client(self, client_id: str) -> RecoveryReport:
        """Recover on behalf of a failed client, server-side.

        Analysis/redo/undo over only that client's log records, starting
        from its last complete checkpoint (or, in the section 2.6.2
        variant, from the RecAddrs resident in the GLM lock table).  CLRs
        are written in the failed client's name; afterwards all its locks
        are released and nothing remains for the client to do at
        reconnect beyond in-doubt lock reacquisition.
        """
        self._require_up()
        self.dispatcher.forget(client_id)
        probe = self.probe
        root_span = 0
        if probe.tracer is not None:
            root_span = probe.tracer.begin(
                "recovery", "client-recovery", "server", client=client_id)

        def _rebuild_forwarded() -> int:
            # Pages whose forwarded dirty versions died with this client
            # must be rebuilt from ALL clients' records — the previous
            # owner's updates never reached the server's copy either.
            # This must happen BEFORE the client-filtered redo: applying
            # the failed client's records onto a version missing its
            # predecessor's updates would stamp a page_LSN that masks
            # them forever.
            forwarded_redos = 0
            for page_id in sorted(self._forwarded_dirty):
                rec_addr, holder, _version = self._forwarded_dirty[page_id]
                if holder != client_id:
                    continue
                page = self._page_for_recovery(page_id)
                forwarded_redos += self._roll_page_forward(page, rec_addr)
                self._mark_recovered_dirty(page_id, rec_addr)
                del self._forwarded_dirty[page_id]
            return forwarded_redos

        ctx = RecoveryContext(
            log=self.log,
            pages=_ServerPageAccess(self),
            clr_writer=_ServerClrWriter(self),
            kind="client-recovery",
            client_filter={client_id},
            logical_undo=self.logical_undo_handler,
            probe=probe,
            span_attrs={"client": client_id},
            pre_redo=_rebuild_forwarded,
        )
        if self.config.client_recovery_info is ClientRecoveryInfo.CLIENT_CHECKPOINTS:
            # Section 2.6.1: a real analysis scan from the client's last
            # complete checkpoint (historically armed with no faults).
            ctx.analysis_scan_start = self._master["client_ckpts"].get(
                client_id, 0)
        else:
            # Section 2.6.2: no scan at all — the GLM lock table and the
            # global tracker supply the analysis tables directly.
            ctx.analysis_supplier = (
                lambda: self._client_analysis_from_lock_table(client_id))
        result = recover(ctx)
        self.log.force()

        self._stash_indoubt(client_id, result.analysis, newest_first=True)

        # The failed client's lock and cache footprints disappear.
        self.glm.release_all(client_id)
        self.glm.release_all_p_locks(client_id)
        self._lock_needed_memo.pop(client_id, None)
        for caching in self._caching.values():
            caching.discard(client_id)
        self.tracker.drop_transactions_of(client_id)
        self.tracker.forget_client(client_id)

        # Close recovery with a server checkpoint (the ARIES rule).  The
        # redo pass above re-dirtied the failed client's pages at the
        # server from records that PRECEDE the last checkpoint, so no
        # post-checkpoint log record witnesses them: without a fresh DPL
        # a server crash before the next checkpoint would silently skip
        # them during restart redo and lose committed updates.
        if probe.faults is not None:
            probe.faults.crashpoint("server.client_recovery.before_checkpoint")
        self.take_checkpoint()

        return self._file_report(f"client-recovery:{client_id}", result,
                                 root_span)

    def _client_analysis_from_lock_table(self, client_id: str) -> AnalysisResult:
        """Section 2.6.2: DPL = pages under the client's update-privilege
        P-locks, RecAddrs from the lock table; transactions from the
        global tracker."""
        result = AnalysisResult(end_addr=self.log.end_of_log_addr)
        for page_id in self.glm.pages_with_update_privilege(client_id):
            rec_addr = self.glm.lock_table_rec_addr(page_id)
            if rec_addr != NULL_ADDR:
                result.dpl[page_id] = rec_addr
        for txn in self.tracker.in_progress():
            if txn.client_id != client_id:
                continue
            result.txns[txn.txn_id] = RestartTxn(
                txn_id=txn.txn_id, client_id=client_id, state=txn.state,
                first_lsn=txn.first_lsn, last_lsn=txn.last_lsn,
                undo_next_lsn=txn.undo_next_lsn,
            )
        result.redo_addr = min(result.dpl.values()) if result.dpl \
            else result.end_addr
        return result

    def indoubt_info_for(self, client_id: str
                         ) -> Tuple[LSN, List[Tuple[str, Tuple, Tuple]]]:
        """Handed to a reconnecting client (section 2.6.1): Max_LSN, to
        resume its LSN stream above, and per in-doubt branch (txn id,
        logged lock list, (last_lsn, undo_next_lsn, first_lsn))."""
        return (self.log.max_lsn_seen,
                self._indoubt_for_client.pop(client_id, []))

    # ------------------------------------------------------------------
    # Page recovery during normal operation (section 2.5)
    # ------------------------------------------------------------------

    def _page_for_recovery(self, page_id: int, pull_current: bool = True) -> Page:
        """The authoritative image for recovery to read and modify.

        If an *operational* client currently owns the page's update
        privilege, its copy is the lineage tip — recovery must pull it in
        (and revoke the privilege) before touching the page, or the
        server would fork a second lineage from its own stale copy
        (section 2.4's "the update privilege would have to be
        reobtained", applied to server-side recovery).  Cached reader
        copies are invalidated for the same reason.

        ``pull_current=False`` is the ESM-CS conditional-undo mode
        (section 4.1): that design deliberately operates on the server's
        own versions without involving clients.
        """
        if pull_current and not self.crashed:
            owner = self.glm.update_privilege_owner(page_id)
            if owner is not None and owner != self.node_id:
                if owner in self._clients and self.network.is_up(owner):
                    self.callbacks_sent += 1
                    self._client_stub(owner).call("release_privilege",
                                                  MsgType.CALLBACK,
                                                  payload=page_id,
                                                  args=(page_id,))
                    self.glm.release_p_lock(owner, page_id)
            for holder in self.glm.p_lock_s_holders(page_id):
                if holder in self._clients and self.network.is_up(holder):
                    self.invalidations_sent += 1
                    self._client_stub(holder).call("invalidate_page",
                                                   MsgType.CALLBACK,
                                                   payload=page_id,
                                                   args=(page_id,))
                self.glm.release_p_lock(holder, page_id)
        bcb = self.pool.bcb(page_id)
        if bcb is not None and not bcb.page.corrupted:
            return bcb.page
        if bcb is not None:
            self.pool.drop(page_id)
        try:
            page = self.disk.read_page(page_id)
        except PageNotFoundError:
            # Never written: redo begins from a fresh frame; the page's
            # format record will initialize it.
            page = Page(page_id, PageKind.FREE, self.config.page_size)
        except PageCorruptedError:
            # The on-disk image is torn (a write died mid-page, section
            # 2.5.3): rebuild from the archive copy / the log before
            # recovery touches the page.
            page = self._heal_torn_page(page_id)
        bcb = self.pool.admit(page, dirty=False)
        return bcb.page

    def _heal_torn_page(self, page_id: int) -> Page:
        """Rebuild a page whose stored image failed its CRC.

        A torn image is the media-failure case of section 2.5.3 with the
        failure detected by checksum instead of by the device: restore
        the archive copy (or start from a fresh frame when the page's
        whole lineage — its format record included — is in the log),
        roll forward, and heal the disk copy under WAL.
        """
        if self.probe.tracer is not None:
            self.probe.tracer.instant("recovery", "torn_page", "server",
                                      page_id=page_id)
        if self.archive.has_backup(page_id):
            page, redo_start = self.archive.restore_page(page_id)
        else:
            page = Page(page_id, PageKind.FREE, self.config.page_size)
            redo_start = 0
        self._roll_page_forward(page, redo_start)
        self.log.force(self.log.end_of_log_addr)
        self._disk_write(page)
        return page

    def _mark_recovered_dirty(self, page_id: int, rec_addr: LogAddr) -> None:
        self.pool.mark_dirty(page_id, rec_addr=rec_addr,
                             force_addr=self.log.end_of_log_addr)
        bcb = self.pool.bcb(page_id)
        if bcb is not None:
            bcb.covered_addr = self.log.end_of_log_addr

    def recover_corrupted_page(self, page_id: int) -> Tuple[Page, int]:
        """Section 2.5.1: the server's buffered copy was corrupted by a
        process failure mid-update.

        Takes the uncorrupted disk copy and redoes forward from the BCB's
        RecAddr to end-of-log.  Returns (recovered page, records applied).
        """
        self._require_up()
        bcb = self.pool.bcb(page_id)
        rec_addr = bcb.rec_addr if bcb is not None and bcb.rec_addr != NULL_ADDR \
            else self._rec_addr_floor.get(page_id, 0)
        self.pool.drop(page_id)
        try:
            page = self.disk.read_page(page_id)
        except MediaFailureError:
            return self.media_recover_page(page_id)
        except PageCorruptedError:
            page = self._heal_torn_page(page_id)
        applied = self._roll_page_forward(page, rec_addr)
        self.pool.admit(page, dirty=applied > 0, rec_addr=rec_addr,
                        force_addr=self.log.end_of_log_addr if applied else NULL_ADDR,
                        covered_addr=self.log.end_of_log_addr)
        return page, applied

    def rebuild_page_for_client(self, client_id: str, page_id: int,
                                rec_lsn: LSN) -> Tuple[Page, int]:
        """Section 2.5.2: a client's buffered copy was corrupted.

        The client has already shipped its buffered log records (WAL with
        respect to the server).  The server maps the client's RecLSN to a
        RecAddr, applies the log to its own uncorrupted copy, keeps the
        result (dirty) and ships it back.
        """
        self._require_up()
        self._interaction(client_id)
        rec_addr = self._map_rec_lsn(client_id, page_id, rec_lsn)
        page = self._page_for_recovery(page_id).snapshot()
        applied = self._roll_page_forward(page, rec_addr)
        self.pool.admit(page, dirty=True, rec_lsn=rec_lsn, rec_addr=rec_addr,
                        force_addr=self.log.force_addr_for_client(client_id),
                        covered_addr=self.log.end_of_log_addr)
        snapshot = page.snapshot()
        self.network.send(self.node_id, client_id, MsgType.PAGE_SHIP, snapshot)
        return snapshot, applied

    def media_recover_page(self, page_id: int) -> Tuple[Page, int]:
        """Section 2.5.3: the disk copy is unreadable.

        Restore the archive copy and redo from the address recorded with
        the backup; the recovered image is written back to disk.
        """
        self._require_up()
        probe = self.probe
        if probe.faults is not None:
            probe.faults.crashpoint("server.media.before_restore")
        page, redo_start = self.archive.restore_page(page_id)
        if probe.tracer is not None:
            probe.tracer.instant("recovery", "media_recover", "server",
                                      page_id=page_id, redo_start=redo_start)
        applied = self._roll_page_forward(page, redo_start)
        # WAL: the roll-forward replays records from the volatile log
        # tail, so the rebuilt image may carry a page_LSN past the
        # forced prefix.  Force through end-of-log before the image
        # reaches disk, or a crash would leave the page ahead of the log.
        self.log.force(self.log.end_of_log_addr)
        if probe.faults is not None:
            probe.faults.crashpoint("server.media.before_write")
        self._disk_write(page)
        bcb = self.pool.bcb(page_id)
        if bcb is not None:
            bcb.page = page
            self.pool.mark_clean(page_id)
        return page, applied

    def _roll_page_forward(self, page: Page, from_addr: LogAddr) -> int:
        """Apply all missing log records for one page from ``from_addr``."""
        start = max(from_addr, 0)
        return redo_kernel(
            self.log, self.log.scan_headers(start),
            ReplayPages({page.page_id: page}), dpl={page.page_id: start},
        ).redos_applied

    # ------------------------------------------------------------------
    # Log space management
    # ------------------------------------------------------------------

    def compute_truncation_point(self, respect_archive: bool = True) -> LogAddr:
        """The oldest log address any recovery path can still need.

        The minimum over every bound in the system:

        * the server's last checkpoint Begin (restart analysis start);
        * each client's last checkpoint Begin (failed-client analysis);
        * RecAddr of every dirty page — in the server pool, in the
          clients' pools (gathered live, RecLSN-mapped), in the
          forwarded-dirty table, and in GLM lock-table entries (the
          section 2.6.2 variant);
        * the first record of every in-progress transaction (undo's
          backward scan and rollback fetches);
        * optionally the redo-start address of the oldest archive copy
          (media recovery; disable if the archive stores its own log).
        """
        self._require_up()
        bounds: List[LogAddr] = [self.log.flushed_addr]
        master_addr = self._master["server_ckpt_begin_addr"]
        if master_addr != NULL_ADDR:
            bounds.append(master_addr)
        for addr in self._master["client_ckpts"].values():
            bounds.append(addr)
        for bcb in self.pool.dirty_bcbs():
            if bcb.rec_addr != NULL_ADDR:
                bounds.append(bcb.rec_addr)
        for client_id in self.operational_clients():
            dpl = self._client_stub(client_id).call(
                "report_dirty_pages", MsgType.CHECKPOINT
            )
            for page_id, rec_lsn in dpl:
                bounds.append(self._map_rec_lsn(client_id, page_id, rec_lsn))
        for rec_addr, _holder, _lsn in self._forwarded_dirty.values():
            bounds.append(rec_addr)
        for entry in self.glm.physical.entries():
            if entry.rec_addr != NULL_ADDR:
                bounds.append(entry.rec_addr)
        for txn in self.tracker.in_progress():
            first_addr = self.log.addr_of_lsn(txn.client_id, txn.first_lsn)
            if first_addr is not None:
                bounds.append(first_addr)
        if respect_archive:
            for page_id in list(self.disk.page_ids()):
                if self.archive.has_backup(page_id):
                    __, redo_start = self.archive.restore_page(page_id)
                    bounds.append(redo_start)
        return min(bounds)

    def truncate_log(self, respect_archive: bool = True) -> int:
        """Discard the reclaimable log prefix; returns records dropped."""
        point = self.compute_truncation_point(respect_archive)
        return self.log.truncate_prefix(max(point, 0))

    # ------------------------------------------------------------------
    # Archive (media recovery support)
    # ------------------------------------------------------------------

    def take_backup(self) -> int:
        """Fuzzy archive of the on-disk database (section 2.5.3).

        The redo start address recorded with the copies is the minimum
        RecAddr across every dirty page in the complex — computed by the
        same gather the coordinated checkpoint uses.
        """
        self._require_up()
        bounds: List[LogAddr] = []
        for client_id in self.operational_clients():
            dpl = self._client_stub(client_id).call(
                "report_dirty_pages", MsgType.CHECKPOINT
            )
            for page_id, rec_lsn in dpl:
                bounds.append(self._map_rec_lsn(client_id, page_id, rec_lsn))
        for bcb in self.pool.dirty_bcbs():
            if bcb.rec_addr != NULL_ADDR:
                bounds.append(bcb.rec_addr)
        redo_start = min(bounds) if bounds else self.log.end_of_log_addr
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("server.backup.before_archive")
        return self.archive.backup_from_disk(self.disk, redo_start)

    # ------------------------------------------------------------------
    # Inspection helpers (tests, oracles, benchmarks)
    # ------------------------------------------------------------------

    def assign_lsn_rpc(self, client_id: str, page_lsn: LSN) -> LSN:
        """The experiment-E10 strawman: a synchronous round trip to the
        server for every LSN, instead of local assignment (section 2.2
        argues one "cannot afford" this)."""
        self._require_up()
        return self.log.clock.next_lsn(page_lsn)

    def authoritative_page(self, page_id: int) -> Page:
        """The server-visible current version (buffer over disk), without
        disturbing LRU/counters.  Test oracle use only."""
        cached = self.pool.peek(page_id)
        if cached is not None:
            return cached
        reads, bytes_read = self.disk.reads, self.disk.bytes_read
        try:
            image = self.disk.read_page(page_id)
        except PageCorruptedError:
            # Even the oracle must never see a torn image: heal it the
            # way an operational read would (section 2.5.3).
            return self._heal_torn_page(page_id)
        finally:
            self.disk.reads, self.disk.bytes_read = reads, bytes_read  # oracle reads are free
        return image
