"""The server's log manager: the single log plus CSA bookkeeping.

Beyond owning the stable log, the server-side log manager keeps the
mappings section 2.5.2 calls for:

* per client, a set of ``<LSN, address>`` pairs built as records arrive,
  used to map a client-reported RecLSN to an exact (or conservatively
  lower) RecAddr;
* per client, the address of *every* record filed under its identity —
  the complete form of the same pairs, keyed by address so a client
  that reconnects and restarts its LSN stream loses nothing.  Log
  records carry the client's identity precisely so one client's records
  can be read apart from everyone else's (section 2.6.1);
  :meth:`ServerLogManager.scan_client_headers` is that read;
* per client, the address of the most recent record received — the
  conservative ForceAddr assigned to dirty pages arriving from that
  client (section 2.2);
* the global maximum LSN seen across all clients, which is the
  ``Max_LSN`` the server distributes for the Lamport-clock proximity
  scheme of section 3.

All of this is volatile; after a server crash the pairs are rebuilt from
the restart analysis scan, and RecLSNs that cannot be mapped fall back
to conservative bounds supplied by the caller.
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.log_records import FrameHeader, LogRecord
from repro.core.lsn import LSN, LogAddr, LsnClock, NULL_ADDR
from repro.storage.stable_log import StableLog

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


class GroupForceScheduler:
    """Server-side group commit: coalesce commit forces into one I/O.

    The paper's force accounting already treats a force that rides a
    prior one as free (``StableLog.force`` is a counted no-op when the
    target is stable); this scheduler makes the batching *active*.
    Commit forces arriving while the window is open are deferred, and
    one device force covers the whole group once ``window`` of them
    have accumulated — or immediately, merged into the same I/O, when a
    synchronous force (WAL safety, privilege transfer, checkpointing,
    recovery) comes through.

    Deferring a commit force is crash-safe in ARIES/CSA terms: the
    committing client keeps every log record in its virtual-storage
    buffer until the server confirms it stable (section 2.1), and after
    a server crash restart replays the survivors' unstable tails.  What
    the window trades is only *when* the commit acknowledgement becomes
    durable, which is the classic group-commit latency/throughput trade.

    ``window <= 1`` (the default configuration) disables deferral:
    every commit force is issued immediately, preserving the historical
    force counts byte for byte.
    """

    def __init__(self, stable: StableLog, window: int = 0) -> None:
        self.stable = stable
        self.window = window
        #: Attached by the owning complex; ``None`` disables the hooks.
        self.tracer: Optional["Tracer"] = None
        #: Attached by the owning complex; ``None`` disables the
        #: group-commit batch-size histogram (repro.obs.hist).
        self.metrics: Any = None
        self.commit_requests = 0
        self.sync_requests = 0
        #: Device forces that covered more than one deferred commit.
        self.group_forces = 0
        #: Commit forces that never became their own device force.
        self.forces_saved = 0
        self._pending = 0
        self._pending_target: LogAddr = 0

    @property
    def pending(self) -> int:
        """Commit forces currently deferred in the open window."""
        return self._pending

    def commit_force(self, up_to_addr: Optional[LogAddr] = None) -> LogAddr:
        """A commit/ship force request; may be deferred into the window.

        Returns the flushed boundary the caller should report — with an
        open window that boundary may not yet cover the commit record,
        and the client correspondingly keeps its records buffered.
        """
        self.commit_requests += 1
        target = self.stable.end_of_log_addr if up_to_addr is None else up_to_addr
        if self.window <= 1:
            before = self.stable.forces
            self.stable.force(target)
            if self.stable.forces == before:
                self.forces_saved += 1  # rode an earlier force: no I/O
            return self.stable.flushed_addr
        if target <= self.stable.flushed_addr:
            self.forces_saved += 1
            return self.stable.flushed_addr
        self._pending += 1
        if target > self._pending_target:
            self._pending_target = target
        if self.tracer is not None:
            self.tracer.instant("log", "commit_force_deferred", "server",
                                pending=self._pending, target=target)
        if self._pending >= self.window:
            self.flush_pending()
        return self.stable.flushed_addr

    def flush_pending(self) -> None:
        """Issue the single device force covering every deferred commit."""
        if not self._pending:
            return
        riders = self._pending
        target = self._pending_target
        self._pending = 0
        self._pending_target = 0
        before = self.stable.forces
        self.stable.force(target)
        if self.stable.forces > before:
            self.group_forces += 1
            self.forces_saved += riders - 1
            if self.tracer is not None:
                self.tracer.instant("log", "group_force", "server",
                                    riders=riders, target=target)
            if self.metrics is not None:
                self.metrics.group_commit_batch.observe(riders)
        else:
            # An interleaved synchronous force already covered the group.
            self.forces_saved += riders

    def force_now(self, up_to_addr: Optional[LogAddr] = None) -> None:
        """Immediate force (WAL, privilege transfer, checkpoint, recovery).

        Any open commit window is merged into the same device force —
        correctness paths never wait on the group.
        """
        self.sync_requests += 1
        riders = self._pending
        if riders:
            self._pending = 0
            if up_to_addr is not None and self._pending_target > up_to_addr:
                up_to_addr = self._pending_target
            self._pending_target = 0
        before = self.stable.forces
        self.stable.force(up_to_addr)
        if riders:
            if self.stable.forces > before:
                self.group_forces += 1
                if self.tracer is not None:
                    self.tracer.instant("log", "group_force", "server",
                                        riders=riders, sync=True)
                if self.metrics is not None:
                    self.metrics.group_commit_batch.observe(riders)
            self.forces_saved += riders

    def note_crash(self) -> None:
        """The volatile tail is gone; deferred commit forces die with it."""
        self._pending = 0
        self._pending_target = 0


class ServerLogManager:
    """Stable log ownership plus the LSN/address bookkeeping of CSA."""

    def __init__(self, group_commit_window: int = 0) -> None:
        self.stable = StableLog()
        self.group = GroupForceScheduler(self.stable, group_commit_window)
        #: The server's own LSN stream (checkpoint records, CLRs written
        #: on behalf of failed clients, server-resident transactions).
        self.clock = LsnClock()
        #: Per client: parallel sorted lists of LSNs and their addresses.
        self._pair_lsns: Dict[str, List[LSN]] = {}
        self._pair_addrs: Dict[str, List[LogAddr]] = {}
        #: Per client: ascending addresses of every record carrying its
        #: ``client_id``, whoever wrote it (the server's CLRs in a failed
        #: client's name included).
        self._client_addrs: Dict[str, List[LogAddr]] = {}
        self._last_addr_from: Dict[str, LogAddr] = {}
        self.client_records_received = 0

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Enable tracing on the stable log and the group scheduler."""
        self.stable.tracer = tracer
        self.group.tracer = tracer

    def attach_metrics(self, hub: Any) -> None:
        """Enable the force/group-commit histograms (repro.obs.hist)."""
        self.stable.metrics = hub
        self.group.metrics = hub

    # -- appending ----------------------------------------------------------

    def append_local(self, record: LogRecord) -> LogAddr:
        """Append a record produced by the server itself."""
        self.clock.observe_lsn(record.lsn)
        addr = self.stable.append(record)
        self._note_pair(record.client_id, record.lsn, addr)
        self._note_client_addr(record.client_id, addr)
        return addr

    def append_from_client(self, client_id: str,
                           records: List[LogRecord]) -> List[Tuple[LSN, LogAddr]]:
        """Append a shipped batch; returns the assigned (lsn, addr) pairs."""
        assigned: List[Tuple[LSN, LogAddr]] = []
        for record in records:
            addr = self.stable.append(record)
            self._note_pair(client_id, record.lsn, addr)
            self._note_client_addr(record.client_id, addr)
            self._last_addr_from[client_id] = addr
            self.clock.observe_lsn(record.lsn)
            assigned.append((record.lsn, addr))
            self.client_records_received += 1
        return assigned

    def _note_pair(self, client_id: str, lsn: LSN, addr: LogAddr) -> None:
        lsns = self._pair_lsns.setdefault(client_id, [])
        addrs = self._pair_addrs.setdefault(client_id, [])
        if lsns and lsn <= lsns[-1]:
            # LSNs from one system are monotonic; a duplicate would break
            # the binary search.  Tolerate re-observation during restart.
            return
        lsns.append(lsn)
        addrs.append(addr)

    def _note_client_addr(self, client_id: str, addr: LogAddr) -> None:
        """File ``addr`` in the client's address index, keeping it sorted.

        Appends arrive in address order, so the load path pays one
        comparison and one list append.  Restart is the exception: the
        survivors' lost tail is re-appended *before* the rebuild scan
        walks the log from its start (and re-visits that tail), so an
        address at or below the newest one is slotted in, once.
        """
        addrs = self._client_addrs.setdefault(client_id, [])
        if not addrs or addr > addrs[-1]:
            addrs.append(addr)
            return
        at = bisect.bisect_left(addrs, addr)
        if addrs[at] != addr:
            addrs.insert(at, addr)

    def observe_during_restart(self, client_id: str, lsn: LSN,
                               addr: LogAddr) -> None:
        """Rebuild the pair sets while the restart analysis scans the log."""
        self._note_pair(client_id, lsn, addr)
        self._note_client_addr(client_id, addr)
        if addr > self._last_addr_from.get(client_id, NULL_ADDR):
            self._last_addr_from[client_id] = addr

    # -- mapping (section 2.5.2) ------------------------------------------------

    def addr_for_rec_lsn(self, client_id: str, rec_lsn: LSN) -> Optional[LogAddr]:
        """Map a client RecLSN to a RecAddr.

        RecLSN semantics: every update record for the page carries an LSN
        strictly greater than RecLSN.  The exact answer is therefore the
        address of the first record from this client with LSN > RecLSN;
        when only older pairs exist the result is conservatively lower.
        Returns None when nothing is known about the client's stream
        (post-crash; the caller substitutes a conservative floor).  A
        stream whose pairs were all truncated away is still known: every
        record it has yet to send lands at or after end-of-log.
        """
        lsns = self._pair_lsns.get(client_id)
        if lsns is None:
            return None
        index = bisect.bisect_right(lsns, rec_lsn)
        if index < len(lsns):
            return self._pair_addrs[client_id][index]
        # All known records have LSN <= RecLSN: their updates are already
        # covered, so scanning from the current end of log is safe — any
        # qualifying record is yet to arrive.
        return self.stable.end_of_log_addr

    def addr_of_lsn(self, client_id: str, lsn: LSN) -> Optional[LogAddr]:
        """Address of the first record a client wrote with this LSN.

        Restart undo uses this to jump an undo chain (expected
        UndoNxtLSN -> record address) instead of scanning backward: one
        binary search over the pair lists.  LSNs are monotonic within
        one incarnation of a client only — a reconnected client restarts
        its stream and the pair lists keep the first record per LSN —
        so the caller checks the record found is the one it meant.
        Returns ``None`` when the pair is unknown (the caller falls back
        to the scanning undo pass).
        """
        lsns = self._pair_lsns.get(client_id)
        if not lsns:
            return None
        index = bisect.bisect_left(lsns, lsn)
        if index < len(lsns) and lsns[index] == lsn:
            return self._pair_addrs[client_id][index]
        return None

    def force_addr_for_client(self, client_id: str) -> LogAddr:
        """Conservative ForceAddr for a dirty page arriving from a client:
        the address of the most recent log record received from it."""
        return self._last_addr_from.get(client_id, NULL_ADDR)

    @property
    def max_lsn_seen(self) -> LSN:
        """Global Max_LSN across the complex (section 3)."""
        return self.clock.local_max_lsn

    # -- passthroughs -----------------------------------------------------------

    def force(self, up_to_addr: Optional[LogAddr] = None) -> None:
        """Synchronous force; flushes any open group-commit window too."""
        self.group.force_now(up_to_addr)

    def commit_force(self, up_to_addr: Optional[LogAddr] = None) -> LogAddr:
        """Commit-path force, eligible for group-commit deferral.

        Returns the flushed boundary to report to the committing client.
        """
        return self.group.commit_force(up_to_addr)

    @property
    def flushed_addr(self) -> LogAddr:
        return self.stable.flushed_addr

    @property
    def end_of_log_addr(self) -> LogAddr:
        return self.stable.end_of_log_addr

    def scan(self, from_addr: LogAddr = 0,
             to_addr: Optional[LogAddr] = None) -> Iterator[Tuple[LogAddr, LogRecord]]:
        return self.stable.scan(from_addr, to_addr)

    def scan_backward(self, from_addr: Optional[LogAddr] = None,
                      down_to_addr: LogAddr = 0) -> Iterator[Tuple[LogAddr, LogRecord]]:
        return self.stable.scan_backward(from_addr, down_to_addr)

    def scan_headers(self, from_addr: LogAddr = 0,
                     to_addr: Optional[LogAddr] = None
                     ) -> Iterator[Tuple[LogAddr, FrameHeader]]:
        return self.stable.scan_headers(from_addr, to_addr)

    def scan_headers_backward(self, from_addr: Optional[LogAddr] = None,
                              down_to_addr: LogAddr = 0
                              ) -> Iterator[Tuple[LogAddr, FrameHeader]]:
        return self.stable.scan_headers_backward(from_addr, down_to_addr)

    def scan_client_headers(self, client_id: str, from_addr: LogAddr = 0,
                            to_addr: Optional[LogAddr] = None,
                            newest_first: bool = False
                            ) -> Iterator[Tuple[LogAddr, FrameHeader]]:
        """``scan_headers`` restricted to records carrying ``client_id``.

        Yields exactly what filtering ``scan_headers(from_addr, to_addr)``
        on ``header.client_id`` would, but visits only that client's
        records: the address index names them, so nobody else's header
        is peeked.  ``newest_first`` walks the same records backward.
        """
        addrs: Sequence[LogAddr] = self._client_addrs.get(client_id, ())
        start = bisect.bisect_left(addrs, from_addr)
        stop = (len(addrs) if to_addr is None
                else bisect.bisect_left(addrs, to_addr, start))
        header_at = self.stable.header_at
        for at in (range(stop - 1, start - 1, -1) if newest_first
                   else range(start, stop)):
            addr = addrs[at]
            yield addr, header_at(addr)

    def read_at(self, addr: LogAddr) -> LogRecord:
        return self.stable.read_at(addr)

    def header_at(self, addr: LogAddr) -> FrameHeader:
        return self.stable.header_at(addr)

    # -- truncation ---------------------------------------------------------------

    def truncate_prefix(self, up_to_addr: LogAddr) -> int:
        """Discard the log below ``up_to_addr`` and every pointer into it.

        A lookup can then never name a record ``header_at`` would not
        find.  The address index is ascending, so its cut is one bisect;
        the pair lists ascend by LSN, and only usually by address (a
        restart files a survivor's replayed tail ahead of its older
        records), so they are filtered.  A client whose pairs all go
        keeps its empty lists: its stream is known, just not retained.
        Returns the number of records discarded.
        """
        dropped = self.stable.truncate_prefix(up_to_addr)
        low_water = self.stable.low_water_addr
        for client_id, pair_addrs in self._pair_addrs.items():
            pair_lsns = self._pair_lsns[client_id]
            kept = [pair for pair in zip(pair_lsns, pair_addrs)
                    if pair[1] >= low_water]
            pair_lsns[:] = [lsn for lsn, _addr in kept]
            pair_addrs[:] = [addr for _lsn, addr in kept]
        for addrs in self._client_addrs.values():
            del addrs[:bisect.bisect_left(addrs, low_water)]
        return dropped

    # -- crash model --------------------------------------------------------------

    def crash(self) -> None:
        """Server crash: stable prefix survives, bookkeeping does not."""
        self.group.note_crash()
        self.stable.crash()
        self.clock = LsnClock()
        self._pair_lsns.clear()
        self._pair_addrs.clear()
        self._client_addrs.clear()
        self._last_addr_from.clear()
