"""The client node: caching, updating, local logging, client-side rollback.

A client (Figure 1) caches pages from the server, updates them in place
under record locks and the page's update-privilege P-lock, produces log
records with *locally assigned* LSNs (section 2.2), buffers those
records in virtual storage, and ships them to the server before any
dirty page travels or at commit — whichever is first (section 2.1).

Clients perform their own total and partial rollbacks (section 2.4),
take periodic checkpoints (section 2.6.1), and honor the server's
coherency callbacks (push current version / release privilege /
invalidate) and Max_LSN–Commit_LSN piggybacks (section 3).

All client->server interactions travel as typed RPC envelopes through
``self.rpc`` (a :class:`~repro.net.rpc.RpcStub`); the server reaches
this client through the dispatch table registered in
:meth:`Client._register_handlers`.  The only remaining direct use of
the server object is session establishment (``connect_client``) and the
static page layout — simulation scaffolding outside the message model.

The policy knobs of :class:`repro.config.SystemConfig` turn the same
class into the paper's comparison systems: ESM-CS's force-to-server +
purge at commit with server-side rollback, and the ObjectStore-style
force-to-disk commit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import (
    CommitCachePolicy,
    CommitPagePolicy,
    LockGranularity,
    LsnAssignment,
    PageTransport,
    RollbackSite,
    SystemConfig,
)
from repro.core.apply import (
    UndoEffect,
    apply_undo_effect,
    physical_undo_effect,
)
from repro.core.client_log import ClientLogManager
from repro.core.log_records import (
    BeginCheckpointRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    LogRecord,
    PrepareRecord,
    TxnOutcome,
    UpdateOp,
    UpdateRecord,
)
from repro.core.lsn import LSN, LogAddr, NULL_LSN
from repro.core.server import Server
from repro.core.transaction import Transaction, TransactionTable, TxnState
from repro.errors import (
    NodeUnavailableError,
    RecoveryInvariantError,
    TransactionStateError,
)
from repro.locking.glm import LockDenied
from repro.locking.llm import LocalLockManager
from repro.locking.lock_modes import LockMode
from repro.net.messages import MsgType
from repro.net.network import Network
from repro.net.rpc import BatchCall, RpcDispatcher
from repro.probe import Probe
from repro.records.heap import RecordId, decode_value, encode_value
from repro.storage.buffer_pool import BufferControlBlock, BufferPool
from repro.storage.page import Page, PageKind

#: Hook for logical undo of index operations: (record, page_supplier) ->
#: UndoEffect on the page where the key currently lives.
ClientLogicalUndo = Callable[[UpdateRecord, Callable[[int], Page]], UndoEffect]


class Client:
    """One client workstation of the complex."""

    def __init__(self, client_id: str, config: SystemConfig,
                 network: Network, server: Server,
                 probe: Optional[Probe] = None) -> None:
        self.client_id = client_id
        self.config = config
        self.network = network
        #: The owning complex's planes, handed to the pool and the LLM.
        self.probe = probe if probe is not None else Probe()
        #: Kept only for session establishment (``connect_client``); all
        #: protocol interactions go through ``self.rpc``.
        self.server = server
        self.layout = server.layout
        network.register(client_id)
        #: Caller-side endpoint for every client->server exchange.
        self.rpc = network.stub(client_id, server.node_id)
        self.dispatcher = RpcDispatcher(client_id)
        self._register_handlers()
        network.attach(client_id, self.dispatcher)

        self.pool = BufferPool(
            config.client_buffer_frames, f"{client_id}-pool",
            on_evict=self._evict_dirty, probe=self.probe,
        )
        self.log = ClientLogManager(client_id)
        self.llm = LocalLockManager(
            client_id,
            glm_request=self._glm_request,
            glm_release=self._glm_release,
            cache_locks=config.llm_cache_locks,
            probe=self.probe,
        )
        self.txns = TransactionTable(client_id)
        #: P-locks this client holds: page id -> mode.  X is the
        #: update privilege; S is the cache-coherency token that keeps a
        #: cached copy trustworthy.
        self._p_locks: Dict[int, LockMode] = {}
        #: Latest Commit_LSN distributed by the server (section 3).
        self.commit_lsn: LSN = NULL_LSN
        #: Per-table Commit_LSN map and its floors-only default (only
        #: populated when the per-table refinement is enabled).
        self._table_commit_lsn: Dict[str, LSN] = {}
        self._floor_bound: LSN = NULL_LSN
        #: Maps a page to its table for intent locks; set by the system.
        self.table_of: Callable[[int], Optional[str]] = lambda page_id: None
        from repro.index.undo import logical_undo_effect
        self.logical_undo: Optional[ClientLogicalUndo] = logical_undo_effect
        self.crashed = False
        self._commits_since_ckpt = 0

        # Metrics
        self.lock_calls = 0
        self.locks_avoided_by_commit_lsn = 0
        self.commits = 0
        self.aborts = 0
        self.pages_shipped_at_commit = 0
        self.rollback_records_fetched_remotely = 0
        #: CLRs this client wrote during normal (client-side) rollbacks.
        self.clrs_written_locally = 0
        #: Space-map page updates applied by this client (allocate /
        #: deallocate), surfaced through metric snapshots.
        self.smp_updates = 0

        server.connect_client(self)

    # ------------------------------------------------------------------
    # RPC dispatch table (what the server may invoke on this client)
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        """Register the callbacks the server (and peers) may dispatch.

        Handlers receive the sender's node id first; these wrappers drop
        it because the callbacks are sender-agnostic.
        """
        d = self.dispatcher
        d.register("push_page",
                   lambda sender, page_id: self.push_page_callback(page_id))
        d.register("release_privilege",
                   lambda sender, page_id: self.release_privilege_callback(page_id))
        d.register("downgrade_privilege",
                   lambda sender, page_id: self.downgrade_privilege_callback(page_id))
        d.register("forward_page",
                   lambda sender, page_id, requester_id:
                   self.forward_page_callback(page_id, requester_id))
        d.register("invalidate_page",
                   lambda sender, page_id: self.invalidate_page(page_id))
        d.register("relinquish_lock",
                   lambda sender, resource: self.relinquish_lock_callback(resource))
        d.register("reduce_lock",
                   lambda sender, resource: self.reduce_lock_callback(resource))
        d.register("receive_forwarded_page",
                   lambda sender, page: self.receive_forwarded_page(page))
        d.register("report_dirty_pages",
                   lambda sender: self.report_dirty_pages())
        d.register("lsn_sync",
                   lambda sender, *args: self.receive_lsn_sync(*args))
        d.register("prepare_branch", self._prepare_branch)
        d.register("commit_branch", self._commit_branch)
        d.register("abort_branch", self._abort_branch)

    # -- 2PC participant handlers (coordinator -> client) ---------------

    def _prepare_branch(self, sender: str, txn_id: str) -> None:
        txn = self.txns.maybe_get(txn_id)
        if txn is None:
            raise TransactionStateError(
                f"no branch transaction {txn_id} at {self.client_id}"
            )
        self.prepare(txn)

    def _commit_branch(self, sender: str, txn_id: str) -> None:
        txn = self.txns.maybe_get(txn_id)
        if txn is None:
            return  # already terminated (e.g. resolved at reconnect)
        self.commit_prepared(txn)

    def _abort_branch(self, sender: str, txn_id: str) -> None:
        txn = self.txns.maybe_get(txn_id)
        if txn is None:
            return  # never started here, or client recovery rolled it back
        if txn.state is TxnState.PREPARED:
            txn.state = TxnState.ACTIVE  # leave in-doubt to abort
        if txn.state is TxnState.ACTIVE:
            self.rollback(txn)

    # ------------------------------------------------------------------
    # GLM plumbing (through the counted network)
    # ------------------------------------------------------------------

    def _glm_request(self, resource: Any, mode: LockMode) -> LockMode:
        reply = self.rpc.call("acquire_lock", MsgType.LOCK_REQUEST,
                              payload=str(resource), args=(resource, mode))
        if isinstance(reply, LockDenied):
            # The GLM answered "wait": raised here, fresh, so the
            # exception never outlives the requester's own unwind.
            raise reply.error()
        return reply

    def _glm_release(self, resource: Any) -> None:
        self.rpc.call("release_lock", MsgType.LOCK_RELEASE,
                      payload=str(resource), args=(resource,))

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def _get_page(self, page_id: int) -> Page:
        """The client's working copy for reading.

        A cached copy may be used directly only under a P-lock (S token
        or the X privilege) — otherwise another client may have updated
        the page since it was cached, and the server must be asked for
        the current version (which also grants the S token).
        """
        cached = self.pool.get(page_id)  # counts the cache hit or miss
        if cached is not None and page_id in self._p_locks:
            return cached
        cached_lsn = cached.page_lsn if cached is not None else None
        page = self.rpc.call("get_page", MsgType.PAGE_REQUEST,
                             payload=page_id, args=(page_id, cached_lsn))
        self._p_locks.setdefault(page_id, LockMode.S)
        if page is None:
            assert cached is not None  # server confirmed our copy current
            return cached
        return self.pool.admit(page).page

    def _ensure_update_privilege(self, page_id: int) -> Page:
        """Hold the page's update privilege and a current copy of it."""
        if self._p_locks.get(page_id) is LockMode.X:
            cached = self.pool.get(page_id)
            if cached is not None:
                return cached
        cached_lsn = None
        cached = self.pool.peek(page_id)
        if cached is not None:
            cached_lsn = cached.page_lsn
        latest = self.rpc.call("acquire_update_privilege",
                               MsgType.P_LOCK_REQUEST,
                               payload=page_id, args=(page_id, cached_lsn))
        self._p_locks[page_id] = LockMode.X
        if latest is not None:
            return self.pool.admit(latest).page
        page = self.pool.get(page_id)
        if page is None:
            # Privilege held but no copy cached (evicted earlier).
            shipped = self.rpc.call("get_page", MsgType.PAGE_REQUEST,
                                    payload=page_id, args=(page_id,))
            assert shipped is not None
            page = self.pool.admit(shipped).page
        return page

    # ------------------------------------------------------------------
    # Log shipping and WAL towards the server
    # ------------------------------------------------------------------

    def _ship_log_records(self) -> None:
        """Send every unshipped buffered record to the server (FIFO)."""
        batch = self.log.unshipped()
        if not batch:
            return
        assigned, flushed = self.rpc.call("receive_log_records",
                                          MsgType.LOG_SHIP,
                                          payload=batch, args=(batch,))
        self.log.note_shipped(assigned)
        self.log.prune_stable(flushed)

    def _ship_page(self, page_id: int) -> None:
        """Make the server's copy current: log records first (WAL with
        respect to the server), then the page image — or, in the
        log-replay transport, only a small materialize request."""
        bcb = self.pool.bcb(page_id)
        if bcb is None or not bcb.dirty:
            return
        self._push_dirty_state(bcb)
        self.pool.mark_clean(page_id)

    def _evict_dirty(self, bcb: BufferControlBlock) -> None:
        """Steal at the client: an evicted dirty page goes to the server."""
        self._push_dirty_state(bcb)

    def _push_dirty_state(self, bcb: BufferControlBlock) -> None:
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("client.evict.before_push")
        self._ship_log_records()
        if self.config.page_transport is PageTransport.LOG_REPLAY:
            self.rpc.call("materialize_page", MsgType.MATERIALIZE,
                          payload=bcb.page_id,
                          args=(bcb.page_id, bcb.rec_lsn, bcb.page.page_lsn))
        else:
            self.rpc.call("receive_dirty_page", MsgType.PAGE_SHIP,
                          payload=bcb.page,
                          args=(bcb.page.snapshot(), bcb.rec_lsn))

    # ------------------------------------------------------------------
    # LSN assignment (section 2.2 / experiment E10)
    # ------------------------------------------------------------------

    def _assign_lsn(self, page_lsn: LSN) -> LSN:
        if self.config.lsn_assignment is LsnAssignment.LOCAL:
            return self.log.next_lsn(page_lsn)
        lsn = self.rpc.call("assign_lsn_rpc", MsgType.LSN_REQUEST,
                            payload=page_lsn, args=(page_lsn,))
        self.log.clock.observe_lsn(lsn)
        return lsn

    # ------------------------------------------------------------------
    # Locking helpers
    # ------------------------------------------------------------------

    def _lock_for_read(self, txn: Transaction, rid: RecordId,
                       page: Page) -> None:
        """Acquire read locks, or skip them via Commit_LSN (section 3).

        With the per-table refinement, the threshold for a page is its
        table's Commit_LSN (or the floors-only bound for unconstrained
        tables) — typically much fresher than the global value while a
        long transaction runs elsewhere.
        """
        if self.config.commit_lsn_enabled:
            threshold = self.commit_lsn
            if self.config.commit_lsn_per_table:
                table = self.table_of(rid.page_id)
                if table is not None and self._floor_bound != NULL_LSN:
                    threshold = self._table_commit_lsn.get(
                        table, self._floor_bound
                    )
            if page.page_lsn < threshold:
                self.locks_avoided_by_commit_lsn += 1
                if self.probe.tracer is not None:
                    self.probe.tracer.instant(
                        "lock", "commit_lsn_avoided", self.client_id,
                        page_id=rid.page_id, page_lsn=int(page.page_lsn),
                        threshold=int(threshold),
                    )
                return
        self._acquire_logical(txn, rid, LockMode.S)

    def _lock_for_update(self, txn: Transaction, rid: RecordId) -> None:
        self._acquire_logical(txn, rid, LockMode.X)

    def _acquire_logical(self, txn: Transaction, rid: RecordId,
                         mode: LockMode) -> None:
        granularity = self.config.lock_granularity
        table = self.table_of(rid.page_id)
        self.lock_calls += 1
        if granularity is LockGranularity.TABLE:
            if table is None:
                table = f"page-{rid.page_id}"
            self.llm.acquire(txn.txn_id, ("tab", table), mode)
            return
        if table is not None:
            intent = LockMode.IX if mode is LockMode.X else LockMode.IS
            self.llm.acquire(txn.txn_id, ("tab", table), intent)
        if granularity is LockGranularity.PAGE:
            self.llm.acquire(txn.txn_id, ("page", rid.page_id), mode)
        else:
            self.llm.acquire(txn.txn_id, ("rec", rid.page_id, rid.slot), mode)

    # ------------------------------------------------------------------
    # Transaction API
    # ------------------------------------------------------------------

    def begin(self, txn_id: Optional[str] = None) -> Transaction:
        self._require_up()
        return self.txns.begin(txn_id)

    def read(self, txn: Transaction, rid: RecordId) -> Any:
        """Read one record under cursor-stability semantics."""
        self._require_up()
        txn.require_active()
        page = self._get_page(rid.page_id)
        self._lock_for_read(txn, rid, page)
        return decode_value(page.read_record(rid.slot))

    def update(self, txn: Transaction, rid: RecordId, value: Any) -> None:
        """Replace the record at ``rid`` (the full section 2.2 protocol)."""
        self._write_record(txn, rid, UpdateOp.RECORD_MODIFY, encode_value(value))

    def insert(self, txn: Transaction, page_id: int, value: Any) -> RecordId:
        """Insert a record into ``page_id``; returns its new RecordId."""
        self._require_up()
        txn.require_active()
        page = self._ensure_update_privilege(page_id)
        rid = RecordId(page_id, page.next_free_slot())
        self._write_record(txn, rid, UpdateOp.RECORD_INSERT,
                           encode_value(value), page=page)
        return rid

    def delete(self, txn: Transaction, rid: RecordId) -> None:
        """Delete the record at ``rid``."""
        self._write_record(txn, rid, UpdateOp.RECORD_DELETE, None)

    def _write_record(self, txn: Transaction, rid: RecordId, op: UpdateOp,
                      after: Optional[bytes],
                      page: Optional[Page] = None) -> None:
        self._require_up()
        txn.require_active()
        self._lock_for_update(txn, rid)
        if page is None:
            page = self._ensure_update_privilege(rid.page_id)
        # Pin across the read-log-mutate window: an eviction in between
        # would detach ``page`` from its frame and lose the mutation.
        with self.pool.fixed(rid.page_id):
            if op is UpdateOp.RECORD_INSERT:
                before = None
            else:
                before = page.read_record(rid.slot)
            dirtying = not self._is_dirty(rid.page_id)
            # RecLSN bound (section 2.5.2): the most recent local record
            # just before the page becomes dirty at this client.
            rec_lsn = self.log.clock.local_max_lsn if dirtying else NULL_LSN
            lsn = self._assign_lsn(page.page_lsn)
            record = UpdateRecord(
                lsn=lsn, client_id=self.client_id, txn_id=txn.txn_id,
                prev_lsn=txn.last_lsn, page_id=rid.page_id, op=op,
                slot=rid.slot, before=before, after=after,
            )
            self.log.append(record)
            txn.note_logged(lsn, rid.page_id)
            if op is UpdateOp.RECORD_INSERT:
                assert after is not None
                page.insert_record(after, slot=rid.slot)
            elif op is UpdateOp.RECORD_MODIFY:
                assert after is not None
                page.modify_record(rid.slot, after)
            else:
                page.delete_record(rid.slot)
            page.page_lsn = lsn
            self.pool.mark_dirty(rid.page_id, rec_lsn=rec_lsn)

    def _is_dirty(self, page_id: int) -> bool:
        bcb = self.pool.bcb(page_id)
        return bcb is not None and bcb.dirty

    def savepoint(self, txn: Transaction, name: str) -> None:
        """Establish a savepoint for partial rollback (section 2.4)."""
        self._require_up()
        txn.set_savepoint(name)

    # ------------------------------------------------------------------
    # Generic logged updates (used by allocation and the B+-tree)
    # ------------------------------------------------------------------

    def apply_logged_update(self, txn: Transaction, page: Page, op: UpdateOp,
                            slot: int = -1, before: Optional[bytes] = None,
                            after: Optional[bytes] = None,
                            key: Optional[bytes] = None,
                            redo_only: bool = False,
                            page_kind: Optional[str] = None,
                            lsn_floor: LSN = NULL_LSN) -> LSN:
        """Log one update and apply it to an already-privileged page.

        ``lsn_floor`` injects an extra lower bound into the LSN
        assignment — the section 2.3 mechanism: a page-format record
        passes the covering SMP's LSN, and an SMP-deallocate record
        passes the dead page's LSN, keeping page_LSN monotonic across
        cross-system reallocation.
        """
        self._require_up()
        txn.require_active()
        with self.pool.fixed(page.page_id):
            dirtying = not self._is_dirty(page.page_id)
            rec_lsn = self.log.clock.local_max_lsn if dirtying else NULL_LSN
            lsn = self._assign_lsn(max(page.page_lsn, lsn_floor))
            record = UpdateRecord(
                lsn=lsn, client_id=self.client_id, txn_id=txn.txn_id,
                prev_lsn=txn.last_lsn, page_id=page.page_id, op=op, slot=slot,
                before=before, after=after, redo_only=redo_only, key=key,
                page_kind=page_kind,
            )
            self.log.append(record)
            txn.note_logged(lsn, page.page_id, redo_only=redo_only)
            from repro.core.apply import _apply_op
            _apply_op(page, op, slot, after, key, page_kind)
            page.page_lsn = lsn
            self.pool.mark_dirty(page.page_id, rec_lsn=rec_lsn)
        return lsn

    def begin_nested_top_action(self, txn: Transaction) -> LSN:
        """Start a nested top action; returns the point to chain past."""
        return txn.undo_next_lsn

    def end_nested_top_action(self, txn: Transaction, saved_undo_next: LSN) -> None:
        """Close a nested top action with a dummy CLR.

        The dummy CLR's UndoNxtLSN points at the record preceding the
        action, so a later rollback of the transaction steps over the
        whole structural change (e.g. a page split) without undoing it.
        """
        self._require_up()
        lsn = self._assign_lsn(NULL_LSN)
        dummy = CompensationRecord(
            lsn=lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn, undo_next_lsn=saved_undo_next,
            page_id=-1, op=None,
        )
        self.log.append(dummy)
        txn.note_clr(lsn, saved_undo_next)

    # ------------------------------------------------------------------
    # Page allocation through space map pages (section 2.3)
    # ------------------------------------------------------------------

    def allocate_page(self, txn: Transaction, kind: PageKind,
                      initial_meta: Optional[List[Tuple[str, Any]]] = None) -> Page:
        """Allocate and format a page without reading its dead version.

        Finds a free slot in some SMP, logs the allocation, then logs a
        redo-only format record whose LSN is derived from the SMP's LSN —
        guaranteeing it exceeds whatever LSN the page carried when some
        *other* system deallocated it (section 2.3's correctness
        argument).  Returns the freshly formatted (cached, dirty) page.
        """
        from repro.storage import space_map as sm
        self._require_up()
        txn.require_active()
        # Catalog lookup: rides an already-counted exchange in a real
        # deployment, so the envelope is uncharged.
        max_page_id = self.rpc.call("max_known_page_id", MsgType.PAGE_REQUEST,
                                    charge=False)
        for smp_id in self.layout.smp_ids(max_page_id):
            smp = self._ensure_update_privilege(smp_id)
            bit = sm.find_free_bit(smp)
            if bit is None:
                continue
            page_id = self.layout.page_for(smp_id, bit)
            # Pin the SMP: privileging the data page below may otherwise
            # evict its frame, and the format record's lsn_floor reads
            # smp.page_lsn after that admission.
            with self.pool.fixed(smp_id):
                self.apply_logged_update(
                    txn, smp, UpdateOp.SMP_ALLOCATE, slot=bit,
                    before=bytes([sm.FREE]), after=bytes([sm.ALLOCATED]),
                )
                self.smp_updates += 1
                # The allocation is logged but the format record is not
                # yet: a crash here leaves an allocated-but-unformatted
                # page for undo to reclaim (section 2.3).
                if self.probe.faults is not None:
                    self.probe.faults.crashpoint(
                        "client.alloc.between_smp_and_format")
                # lint: allow[LOCK002] SMP-first order: the data-page P-lock RPC under the SMP pin
                page = self._ensure_update_privilege(page_id)
                meta_image = None
                if initial_meta:
                    from repro.core import codec
                    meta_image = codec.encode(tuple(initial_meta))
                self.apply_logged_update(
                    txn, page, UpdateOp.PAGE_FORMAT, after=meta_image,
                    redo_only=True, page_kind=kind.value,
                    lsn_floor=smp.page_lsn,
                )
            return page
        raise TransactionStateError("no free pages left in any space map")

    def deallocate_page(self, txn: Transaction, page_id: int) -> None:
        """Return an (empty) page to the free pool.

        The SMP update's LSN is forced above the dead page's final LSN
        (section 2.3), so any future reallocation — by any system —
        formats the page with a still-higher LSN.

        Privilege and pin order is SMP-first, the same global order
        :meth:`allocate_page` uses — acquiring the pair in the opposite
        order here is the latch-deadlock seed LOCK001 and the runtime
        sanitizer exist to catch.  The dead page needs no pin at all:
        its ``page_lsn`` is read off the privileged Page object
        immediately, before anything else could evict or re-admit it.
        """
        from repro.storage import space_map as sm
        self._require_up()
        txn.require_active()
        smp_id = self.layout.smp_for(page_id)
        bit = self.layout.bit_for(page_id)
        smp = self._ensure_update_privilege(smp_id)
        # Pin the SMP: privileging the dead page below may otherwise
        # evict the SMP frame before the update is applied.
        with self.pool.fixed(smp_id):
            # lint: allow[LOCK002] SMP-first order: the dead-page P-lock RPC under the SMP pin
            page = self._ensure_update_privilege(page_id)
            self.apply_logged_update(
                txn, smp, UpdateOp.SMP_DEALLOCATE, slot=bit,
                before=bytes([sm.ALLOCATED]), after=bytes([sm.FREE]),
                lsn_floor=page.page_lsn,
            )
            self.smp_updates += 1

    # ------------------------------------------------------------------
    # Commit / prepare
    # ------------------------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        """Commit: log records forced at the server; pages per policy.

        ARIES/CSA ships *nothing but log records*; the baselines force
        modified pages to the server (ESM-CS, with a CDPL logged first)
        or all the way to disk (ObjectStore-style), and ESM-CS purges the
        client cache afterwards.
        """
        self._require_up()
        txn.require_active()
        if self.config.commit_page_policy is not CommitPagePolicy.NO_FORCE:
            if self.config.log_cdpl_at_commit:
                entries = []
                for page_id in sorted(txn.pages_modified):
                    bcb = self.pool.bcb(page_id)
                    if bcb is not None and bcb.dirty:
                        entries.append((page_id, bcb.rec_lsn))
                if entries:
                    self._ship_log_records()
                    # The CDPL rides the commit's log traffic (uncharged).
                    self.rpc.call("log_cdpl", MsgType.COMMIT_REQUEST,
                                  args=(txn.txn_id, entries), charge=False)
            for page_id in sorted(txn.pages_modified):
                if self._is_dirty(page_id):
                    self._ship_page(page_id)
                    self.pages_shipped_at_commit += 1
                if self.config.commit_page_policy is CommitPagePolicy.FORCE_TO_DISK:
                    # Piggybacks on the page ship just sent (uncharged).
                    self.rpc.call("flush_page", MsgType.COMMIT_REQUEST,
                                  args=(page_id,), charge=False)
        probe = self.probe
        if probe.faults is not None:
            probe.faults.crashpoint("client.commit.before_commit_record")
        commit_lsn = self._assign_lsn(NULL_LSN)
        self.log.append(CommitRecord(
            lsn=commit_lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn,
        ))
        txn.last_lsn = commit_lsn
        batch = self.log.unshipped()
        if self.config.rpc_batching and probe.faults is None and batch:
            # Coalesce the commit's ship + force pair into one batched
            # exchange on the client->server edge.  Disabled whenever a
            # fault plan is attached: the before_force crashpoint sits
            # between the two calls, and batching would skip it.
            shipped, forced = self.rpc.call_batch((
                BatchCall("receive_log_records", MsgType.LOG_SHIP,
                          payload=batch, args=(batch,)),
                BatchCall("force_log_for_commit", MsgType.COMMIT_REQUEST,
                          payload=txn.txn_id, args=(txn.txn_id,)),
            ))
            assigned, ship_flushed = shipped
            self.log.note_shipped(assigned)
            self.log.prune_stable(ship_flushed)
            flushed = forced
        else:
            self._ship_log_records()
            if probe.faults is not None:
                probe.faults.crashpoint("client.commit.before_force")
            flushed = self.rpc.call("force_log_for_commit",
                                    MsgType.COMMIT_REQUEST,
                                    payload=txn.txn_id, args=(txn.txn_id,))
        self.log.prune_stable(flushed)
        if probe.faults is not None:
            probe.faults.crashpoint("client.commit.before_end")
        txn.state = TxnState.COMMITTED
        end_lsn = self._assign_lsn(NULL_LSN)
        self.log.append(EndRecord(
            lsn=end_lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn, outcome=TxnOutcome.COMMITTED,
        ))
        self._finish_transaction(txn)
        self.commits += 1
        self._after_termination()
        self._maybe_auto_checkpoint()

    def prepare(self, txn: Transaction) -> None:
        """Two-phase commit: enter the in-doubt state (forced)."""
        self._require_up()
        txn.require_active()
        lock_list = []
        for resource in sorted(self.llm.local.resources_held_by(txn.txn_id),
                               key=str):
            mode = self.llm.local.held_mode(txn.txn_id, resource)
            if mode is None:
                continue
            resource_tuple = (
                tuple(resource) if isinstance(resource, tuple) else (resource,)
            )
            lock_list.append((resource_tuple, mode.value))
        locks = tuple(lock_list)
        lsn = self._assign_lsn(NULL_LSN)
        self.log.append(PrepareRecord(
            lsn=lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn, locks=locks,
        ))
        txn.last_lsn = lsn
        self._ship_log_records()
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("client.prepare.before_force")
        flushed = self.rpc.call("force_log_for_commit", MsgType.COMMIT_REQUEST,
                                payload=txn.txn_id, args=(txn.txn_id,))
        self.log.prune_stable(flushed)
        txn.state = TxnState.PREPARED

    def commit_prepared(self, txn: Transaction) -> None:
        """Second phase: commit an in-doubt transaction."""
        self._require_up()
        if txn.state is not TxnState.PREPARED:
            raise TransactionStateError(
                f"transaction {txn.txn_id} is not prepared"
            )
        txn.state = TxnState.ACTIVE  # momentarily, for the commit path
        self.commit(txn)

    # ------------------------------------------------------------------
    # Rollback (section 2.4)
    # ------------------------------------------------------------------

    def rollback(self, txn: Transaction, savepoint: Optional[str] = None) -> None:
        """Total or partial rollback.

        ARIES/CSA performs it at the client: open a backward scan from
        the transaction's latest record, fetching from the server any
        record already pruned from the local buffer, re-obtaining pages
        (and update privileges) stolen since the update.  The ESM-CS
        baseline delegates the whole rollback to the server instead.
        """
        self._require_up()
        txn.require_active()
        stop_lsn = NULL_LSN
        sp = None
        if savepoint is not None:
            sp = txn.find_savepoint(savepoint)
            stop_lsn = sp.lsn
        if self.config.rollback_site is RollbackSite.SERVER:
            self._rollback_at_server(txn, stop_lsn)
        else:
            self._rollback_at_client(txn, stop_lsn)
        if sp is not None:
            txn.discard_savepoints_after(sp)
            return
        # Total rollback terminates the transaction.
        end_lsn = self._assign_lsn(NULL_LSN)
        self.log.append(EndRecord(
            lsn=end_lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn, outcome=TxnOutcome.ABORTED,
        ))
        self._ship_log_records()
        txn.state = TxnState.ABORTED
        self._finish_transaction(txn)
        self.aborts += 1
        self._after_termination()

    def _rollback_at_client(self, txn: Transaction, stop_lsn: LSN) -> None:
        current = txn.undo_next_lsn
        while current != NULL_LSN and current > stop_lsn:
            record = self._fetch_txn_record(txn, current)
            if isinstance(record, CompensationRecord):
                current = record.undo_next_lsn
                continue
            assert isinstance(record, UpdateRecord)
            if record.redo_only:
                current = record.prev_lsn
                continue
            self._undo_locally(txn, record)
            current = record.prev_lsn
        txn.undo_next_lsn = current

    def _fetch_txn_record(self, txn: Transaction, lsn: LSN) -> LogRecord:
        record = self.log.find_local(txn.txn_id, lsn)
        if record is not None:
            return record
        fetched = self.rpc.call("fetch_log_records", MsgType.LOG_FETCH,
                                payload=lsn, args=(txn.txn_id, [lsn]))
        self.rollback_records_fetched_remotely += 1
        return fetched[0]

    def _undo_locally(self, txn: Transaction, record: UpdateRecord) -> None:
        if record.undo_is_logical() and self.logical_undo is not None:
            effect = self.logical_undo(record, self._ensure_update_privilege)
        else:
            effect = physical_undo_effect(record)
        page = self._ensure_update_privilege(effect.page_id)
        dirtying = not self._is_dirty(effect.page_id)
        rec_lsn = self.log.clock.local_max_lsn if dirtying else NULL_LSN
        clr_lsn = self._assign_lsn(page.page_lsn)
        apply_undo_effect(page, effect, clr_lsn)
        clr = CompensationRecord(
            lsn=clr_lsn, client_id=self.client_id, txn_id=txn.txn_id,
            prev_lsn=txn.last_lsn, undo_next_lsn=record.prev_lsn,
            page_id=effect.page_id, op=effect.op, slot=effect.slot,
            after=effect.after, key=effect.key,
        )
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("client.rollback.before_clr")
        self.log.append(clr)
        txn.note_clr(clr_lsn, record.prev_lsn)
        self.clrs_written_locally += 1
        self.pool.mark_dirty(effect.page_id, rec_lsn=rec_lsn)

    def _rollback_at_server(self, txn: Transaction, stop_lsn: LSN) -> None:
        """ESM-CS style: the server undoes on its own page versions."""
        self._ship_log_records()
        last_lsn, undo_next = self.rpc.call(
            "rollback_transaction_serverside", MsgType.COMMIT_REQUEST,
            payload=(txn.txn_id, stop_lsn),
            args=(txn.txn_id, stop_lsn, txn.last_lsn, txn.undo_next_lsn),
        )
        # The End record must sort above the CLRs the server wrote.
        self.log.clock.observe_lsn(last_lsn)
        txn.last_lsn = last_lsn
        txn.undo_next_lsn = undo_next
        # The client's versions of the touched pages are now stale.
        for page_id in sorted(txn.pages_modified):
            self.pool.drop(page_id)

    def _finish_transaction(self, txn: Transaction) -> None:
        self.llm.release_transaction(txn.txn_id)
        self.txns.remove(txn.txn_id)
        if self.probe.sanitizer is not None:
            # Transaction termination ends the acquisition span: no pin
            # may outlive the transaction that took it.
            self.probe.sanitizer.on_span_exit(self.client_id)

    def _after_termination(self) -> None:
        """Commit-time cache policy: ESM-CS purges everything."""
        if self.config.commit_cache_policy is CommitCachePolicy.PURGE:
            for page_id in list(self.pool.page_ids()):
                bcb = self.pool.bcb(page_id)
                if bcb is not None and bcb.dirty:
                    self._ship_page(page_id)
                self.pool.drop(page_id)
            for page_id in sorted(self._p_locks):
                self.rpc.call("release_update_privilege",
                              MsgType.P_LOCK_RELEASE,
                              payload=page_id, args=(page_id,))
            self._p_locks.clear()

    # ------------------------------------------------------------------
    # Checkpoints (section 2.6.1)
    # ------------------------------------------------------------------

    def _maybe_auto_checkpoint(self) -> None:
        interval = self.config.client_checkpoint_interval
        if interval <= 0:
            return
        self._commits_since_ckpt += 1
        if self._commits_since_ckpt >= interval:
            self.take_checkpoint()
            self._commits_since_ckpt = 0

    def take_checkpoint(self) -> None:
        """Record the client's DPL (with RecLSNs) and transaction states.

        The records travel to the server, which rewrites RecLSNs to
        RecAddrs before appending and remembers where this checkpoint
        lives for failed-client recovery.
        """
        self._require_up()
        self._ship_log_records()
        begin = BeginCheckpointRecord(
            lsn=self._assign_lsn(NULL_LSN), client_id=self.client_id,
            txn_id=None, prev_lsn=NULL_LSN, owner=self.client_id,
        )
        from repro.core.log_records import DirtyPageEntry, EndCheckpointRecord
        entries = tuple(
            DirtyPageEntry(page_id=bcb.page_id, rec_lsn=bcb.rec_lsn)
            for bcb in self.pool.dirty_bcbs()
        )
        end = EndCheckpointRecord(
            lsn=self._assign_lsn(NULL_LSN), client_id=self.client_id,
            txn_id=None, prev_lsn=begin.lsn, owner=self.client_id,
            dirty_pages=entries, transactions=self.txns.to_table_entries(),
        )
        if self.probe.faults is not None:
            self.probe.faults.crashpoint("client.checkpoint.before_send")
        _, flushed = self.rpc.call("receive_client_checkpoint",
                                   MsgType.CHECKPOINT,
                                   payload=[begin, end], args=(begin, end))
        self.log.prune_stable(flushed)

    def report_dirty_pages(self) -> List[Tuple[int, LSN]]:
        """DPL for the server's coordinated checkpoint (section 2.7)."""
        return [(bcb.page_id, bcb.rec_lsn) for bcb in self.pool.dirty_bcbs()]

    def report_lock_state(self) -> Tuple[Dict[Any, LockMode], Dict[int, LockMode], List[int]]:
        """Lock-table reconstruction data after a server restart."""
        logical = self.llm.global_locks_snapshot()
        p_locks = dict(sorted(self._p_locks.items()))
        cached = list(self.pool.page_ids())
        return logical, p_locks, cached

    # ------------------------------------------------------------------
    # Server-issued callbacks
    # ------------------------------------------------------------------

    def push_page_callback(self, page_id: int) -> None:
        """Ship the current version (keeping the privilege) so the server
        can serve an up-to-date copy to a reader."""
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        self._ship_page(page_id)

    def release_privilege_callback(self, page_id: int) -> None:
        """Give up the P-lock entirely (another writer needs the page):
        latest version must reach the server first (section 2.1); the
        local copy is dropped."""
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        self._ship_page(page_id)
        self.pool.drop(page_id)
        self._p_locks.pop(page_id, None)

    def forward_page_callback(self, page_id: int,
                              requester_id: str) -> Optional[Tuple[LSN, LSN]]:
        """Forward the page directly to another client (section 4.1).

        The log records must be received and acknowledged by the server
        before the page may travel to the requesting client; the dirty
        image then skips the server entirely.  Returns (RecLSN bound,
        forwarded version's page_LSN) for the server's forwarded-dirty
        table, or None when the local copy was clean (nothing to
        forward; the server's version is current).
        """
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        bcb = self.pool.bcb(page_id)
        if bcb is None or not bcb.dirty:
            self.pool.drop(page_id)
            self._p_locks.pop(page_id, None)
            return None
        self._ship_log_records()
        rec_lsn = bcb.rec_lsn
        version_lsn = bcb.page.page_lsn
        snapshot = bcb.page.snapshot()
        self.network.stub(self.client_id, requester_id).call(
            "receive_forwarded_page", MsgType.PAGE_SHIP,
            payload=snapshot, args=(snapshot,),
        )
        self.pool.drop(page_id)
        self._p_locks.pop(page_id, None)
        return rec_lsn, version_lsn

    def receive_forwarded_page(self, page: Page) -> None:
        """Admit a page forwarded from another client.

        The page arrives dirty-with-respect-to-the-server; the RecLSN
        slot stays NULL because the sender's recovery bound lives in the
        *sender's* LSN space — the server's forwarded-dirty table answers
        for it until the image finally reaches the server.
        """
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        self.pool.admit(page, dirty=True, rec_lsn=NULL_LSN)

    def downgrade_privilege_callback(self, page_id: int) -> None:
        """A reader appeared: push the current version and keep only an
        S token — the cached copy remains valid until some writer
        invalidates it."""
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        self._ship_page(page_id)
        if page_id in self._p_locks:
            self._p_locks[page_id] = LockMode.S

    def invalidate_page(self, page_id: int) -> None:
        """Another client took the update privilege; the cached copy is
        stale.  Only clean copies are ever invalidated."""
        bcb = self.pool.bcb(page_id)
        if bcb is not None and bcb.dirty:
            raise RecoveryInvariantError(
                f"invalidation of dirty page {page_id} at {self.client_id}"
            )
        self.pool.drop(page_id)
        self._p_locks.pop(page_id, None)

    def relinquish_lock_callback(self, resource: Any) -> bool:
        return self.llm.try_relinquish(resource)

    def reduce_lock_callback(self, resource: Any) -> Optional[LockMode]:
        """De-escalation (section 2.1's LLM optimization, conflict side):
        shrink the cached global lock to the local transactions' need."""
        return self.llm.reduce_to_local_need(resource)

    def receive_lsn_sync(self, max_lsn: LSN, commit_lsn: LSN,
                         table_values: Optional[Dict[str, LSN]] = None,
                         floor_bound: Optional[LSN] = None) -> None:
        """Max_LSN / Commit_LSN piggyback (section 3, Lamport rule).

        With per-table Commit_LSN enabled the server also distributes a
        per-table map plus the floors-only bound used for tables no
        in-progress transaction constrains.
        """
        self.log.clock.observe_max_lsn(max_lsn)
        self.commit_lsn = commit_lsn
        if table_values is not None:
            self._table_commit_lsn = dict(table_values)
            self._floor_bound = floor_bound if floor_bound is not None \
                else commit_lsn

    def converge_after_server_restart(self) -> None:
        """Drop caches and P-locks after a server restart.

        Every update this client ever made is in the server's log (the
        restart's phase 0 shipped the whole buffer) and has been
        materialized into the server's recovered pages, so the cached
        copies carry no unique data — and restart undo of *failed*
        clients' transactions may have written CLRs this cache has never
        seen.  Converging on the server's lineage is both safe and
        necessary; pages refetch on demand.
        """
        self.pool.clear()
        self._p_locks.clear()

    def server_restarted(self, flushed_addr: LogAddr) -> None:
        """The server came back.

        Lost-tail records were already replayed (in merged original
        order) by the server's restart phase 0; here the client only
        pushes records it had never shipped at all.
        """
        self._ship_log_records()

    # ------------------------------------------------------------------
    # Page recovery (section 2.5.2): process failure corrupts a cached page
    # ------------------------------------------------------------------

    def recover_corrupted_page(self, page_id: int) -> Page:
        """Recover a corrupted cached page from the server's copy.

        The client first ships its buffered log records (they survived
        the process failure; only the page image is damaged), then asks
        the server to roll its uncorrupted copy forward and ship the
        result.
        """
        self._require_up()
        bcb = self.pool.bcb(page_id)
        rec_lsn = bcb.rec_lsn if bcb is not None else NULL_LSN
        self.pool.drop(page_id)
        self._ship_log_records()
        page, _ = self.rpc.call("rebuild_page_for_client",
                                MsgType.PAGE_REQUEST,
                                payload=page_id, args=(page_id, rec_lsn))
        # The server now holds the authoritative dirty version; the
        # client's copy is clean relative to it.
        return self.pool.admit(page).page

    # ------------------------------------------------------------------
    # Crash / reconnect
    # ------------------------------------------------------------------

    def _require_up(self) -> None:
        if self.crashed:
            raise NodeUnavailableError(self.client_id)
        if not self.network.is_up(self.server.node_id):
            raise NodeUnavailableError(self.server.node_id)

    def crash(self) -> None:
        """Client failure: buffer pool, log buffer, lock state, and
        transaction table all vanish."""
        self.pool.clear()
        self.log.crash()
        self.llm.crash()
        self.txns.clear()
        self._p_locks.clear()
        self.commit_lsn = NULL_LSN
        self._table_commit_lsn.clear()
        self._floor_bound = NULL_LSN
        self.crashed = True
        self._commits_since_ckpt = 0
        self.network.crash(self.client_id)

    def reconnect(self) -> List[Tuple[str, Tuple]]:
        """Come back after a failure.

        The server already performed recovery on this client's behalf
        (section 2.6.1), so there is nothing to replay locally; only
        in-doubt transaction information is handed over for lock
        reacquisition, with the server's Max_LSN: the crash reset the
        LSN clock, and the stream must resume above every LSN filed under
        this client's id and every Commit_LSN another client has cached.
        """
        self.network.restore(self.client_id)
        self.crashed = False
        self.server.connect_client(self)
        # Session re-establishment hand-over (uncharged, like the
        # connect itself: not part of the paper's message accounting).
        max_lsn, indoubt = self.rpc.call("indoubt_info_for",
                                         MsgType.COMMIT_REQUEST, charge=False)
        self.log.clock.observe_lsn(max_lsn)
        for txn_id, locks, chain in indoubt:
            txn = self.txns.begin(txn_id)
            txn.state = TxnState.PREPARED
            # Restore the LSN chain so a later coordinator "abort" can
            # roll the branch back through the server-held log records.
            txn.last_lsn, txn.undo_next_lsn, txn.first_lsn = chain
            for resource_tuple, mode_value in locks:
                resource = tuple(resource_tuple)
                if len(resource) == 1:
                    resource = resource[0]
                self.llm.acquire(txn.txn_id, resource, LockMode(mode_value))
        return indoubt

    def repoint_server(self, server: Server) -> None:
        """Switch this client's session to a promoted server (DESIGN §15).

        Failover takeover is a stub swap: every protocol interaction
        funnels through ``self.rpc``, so re-pointing it at the new
        primary's node id moves the whole session.  Nothing else is
        touched — transactions, caches, the local log buffer and lock
        state all carry over, exactly as across a server restart (the
        promotion's roll-forward replays this client's unshipped tail
        the same way a restart does).
        """
        self.server = server
        self.layout = server.layout
        self.rpc = self.network.stub(self.client_id, server.node_id)
