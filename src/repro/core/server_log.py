"""The server's log manager: the single log plus CSA bookkeeping.

Beyond owning the stable log, the server-side log manager keeps the
mappings section 2.5.2 calls for:

* per client, the section 2.5.2 ``<LSN, address>`` pairs of every
  record filed under its identity (the server's CLRs in a failed
  client's name included), as ascending addresses with an LSN column.
  No LSN stream filed under one id ever restarts, so both columns
  ascend and one bisect maps a RecLSN to a RecAddr, an undo chain LSN
  to its record, or reads one client's records apart from everyone
  else's (:meth:`ServerLogManager.scan_client_headers`, section 2.6.1);
* per client, the address of the most recent record received — the
  conservative ForceAddr assigned to dirty pages arriving from that
  client (section 2.2);
* the global maximum LSN seen across all clients, which is the
  ``Max_LSN`` the server distributes for the Lamport-clock proximity
  scheme of section 3.

All of this is volatile; after a server crash the index is rebuilt
from the restart scans, and RecLSNs that cannot be mapped fall back
to conservative bounds supplied by the caller.
"""

from __future__ import annotations

import bisect
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.log_records import FrameHeader, LogRecord, RedoEffect
from repro.core.lsn import LSN, LogAddr, LsnClock, NULL_ADDR
from repro.errors import RecoveryInvariantError
from repro.probe import Probe
from repro.storage.stable_log import StableLog


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

    def __init__(self, stable: StableLog, window: int = 0,
                 probe: Optional[Probe] = None) -> None:
        self.stable = stable
        self.window = window
        #: The owning complex's planes (tracer, metrics).
        self.probe = probe if probe is not None else Probe()
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
        if self.probe.tracer is not None:
            self.probe.tracer.instant("log", "commit_force_deferred", "server",
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
            probe = self.probe
            if probe.tracer is not None:
                probe.tracer.instant("log", "group_force", "server",
                                     riders=riders, target=target)
            if probe.metrics is not None:
                probe.metrics.group_commit_batch.observe(riders)
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
                probe = self.probe
                if probe.tracer is not None:
                    probe.tracer.instant("log", "group_force", "server",
                                         riders=riders, sync=True)
                if probe.metrics is not None:
                    probe.metrics.group_commit_batch.observe(riders)
            self.forces_saved += riders

    def note_crash(self) -> None:
        """The volatile tail is gone; deferred commit forces die with it."""
        self._pending = 0
        self._pending_target = 0


class ServerLogManager:
    """Stable log ownership plus the LSN/address bookkeeping of CSA."""

    def __init__(self, group_commit_window: int = 0,
                 probe: Optional[Probe] = None) -> None:
        #: The owning complex's planes, handed to the stable log and the
        #: group scheduler.
        self.probe = probe if probe is not None else Probe()
        self.stable = StableLog(self.probe)
        self.group = GroupForceScheduler(self.stable, group_commit_window,
                                         self.probe)
        #: The server's own LSN stream (checkpoint records, CLRs written
        #: on behalf of failed clients, server-resident transactions).
        self.clock = LsnClock()
        #: Per client: the ascending addresses of every record carrying
        #: its ``client_id`` and, beside them, those records' LSNs.
        self._client_index: Dict[str, Tuple[List[LogAddr], List[LSN]]] = {}
        self._last_addr_from: Dict[str, LogAddr] = {}
        self.client_records_received = 0

    # -- appending ----------------------------------------------------------

    def append_local(self, record: LogRecord) -> LogAddr:
        """Append a record produced by the server itself."""
        self.clock.observe_lsn(record.lsn)
        addr = self.stable.append(record)
        self._note_client_addr(record.client_id, record.lsn, addr)
        return addr

    def append_from_client(self, client_id: str,
                           records: List[LogRecord]) -> List[Tuple[LSN, LogAddr]]:
        """Append a shipped batch; returns the assigned (lsn, addr) pairs."""
        assigned: List[Tuple[LSN, LogAddr]] = []
        for record in records:
            addr = self.stable.append(record)
            self._note_client_addr(record.client_id, record.lsn, addr)
            self._last_addr_from[client_id] = addr
            self.clock.observe_lsn(record.lsn)
            assigned.append((record.lsn, addr))
            self.client_records_received += 1
        return assigned

    def _note_client_addr(self, client_id: str, lsn: LSN,
                          addr: LogAddr) -> None:
        """File the record at ``addr`` in its client's index.

        Appends arrive in address order: the load path is one dict
        lookup, a comparison per column and an insert at each column's
        end.  Restart re-appends the survivors' lost tail *before* the
        rebuild scan walks the log from its start, so the scan slots
        older records in below that tail and skips the tail when it
        meets it again.  An LSN out of step with its neighbours would
        break every bisect.
        """
        index = self._client_index.get(client_id)
        if index is None:
            index = self._client_index[client_id] = ([], [])
        addrs, lsns = index
        at = len(addrs)
        if at and addr <= addrs[-1]:
            at = bisect.bisect_left(addrs, addr)
            if addrs[at] == addr:
                return
        if (at and lsns[at - 1] >= lsn) or (at < len(lsns) and lsns[at] <= lsn):
            raise RecoveryInvariantError(
                f"LSN {lsn} of {client_id} at addr {addr} is out of step "
                "with the LSNs filed under that id")
        addrs.insert(at, addr)
        lsns.insert(at, lsn)

    def observe_during_restart(self, client_id: str, lsn: LSN,
                               addr: LogAddr) -> None:
        """Rebuild the bookkeeping, and fold the LSN into the server's
        clock, while a restart scan reads the log."""
        self.clock.observe_lsn(lsn)
        self._note_client_addr(client_id, lsn, addr)
        if addr > self._last_addr_from.get(client_id, NULL_ADDR):
            self._last_addr_from[client_id] = addr

    # -- mapping (section 2.5.2) ------------------------------------------------

    def addr_for_rec_lsn(self, client_id: str, rec_lsn: LSN) -> Optional[LogAddr]:
        """Map a client RecLSN to a RecAddr.

        RecLSN semantics: every update record for the page carries an LSN
        strictly greater than RecLSN.  The exact answer is therefore the
        address of the first record from this client with LSN > RecLSN.
        Returns None when nothing is known about the client's stream
        (post-crash; the caller substitutes a conservative floor).  A
        stream whose records were all truncated away is still known:
        every record it has yet to send lands at or after end-of-log.
        """
        index = self._client_index.get(client_id)
        if index is None:
            return None
        addrs, lsns = index
        at = bisect.bisect_right(lsns, rec_lsn)
        if at < len(lsns):
            return addrs[at]
        # All known records have LSN <= RecLSN: their updates are already
        # covered, so scanning from the current end of log is safe — any
        # qualifying record is yet to arrive.
        return self.stable.end_of_log_addr

    def addr_of_lsn(self, client_id: str, lsn: LSN) -> Optional[LogAddr]:
        """Address of the record filed under ``client_id`` with this LSN.

        Restart undo follows chains with it instead of scanning
        backward, and rollback fetches find pruned records with it.
        Returns ``None`` when no retained record carries the LSN.
        """
        index = self._client_index.get(client_id)
        if index is None:
            return None
        addrs, lsns = index
        at = bisect.bisect_left(lsns, lsn)
        if at < len(lsns) and lsns[at] == lsn:
            return addrs[at]
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
        is peeked, and each is found at its address without a search of
        the whole log.  ``newest_first`` walks the same records backward.
        """
        index = self._client_index.get(client_id)
        addrs: Sequence[LogAddr] = index[0] if index is not None else ()
        start = bisect.bisect_left(addrs, from_addr)
        stop = (len(addrs) if to_addr is None
                else bisect.bisect_left(addrs, to_addr, start))
        picked = addrs[start:stop]
        return self.stable.headers_at(
            reversed(picked) if newest_first else picked)

    def read_at(self, addr: LogAddr) -> LogRecord:
        return self.stable.read_at(addr)

    def header_at(self, addr: LogAddr) -> FrameHeader:
        return self.stable.header_at(addr)

    def redo_effect_at(self, addr: LogAddr, header: FrameHeader) -> RedoEffect:
        return self.stable.redo_effect_at(addr, header)

    # -- truncation ---------------------------------------------------------------

    def truncate_prefix(self, up_to_addr: LogAddr) -> int:
        """Discard the log below ``up_to_addr`` and every pointer into it.

        A lookup can then never name a record ``header_at`` would not
        find.  Each client's index ascends by address, so both of its
        columns are cut at one bisect.  A client whose records all go
        keeps its empty index: its stream is known, just not retained.
        Returns the number of records discarded.
        """
        dropped = self.stable.truncate_prefix(up_to_addr)
        low_water = self.stable.low_water_addr
        for addrs, lsns in self._client_index.values():
            cut = bisect.bisect_left(addrs, low_water)
            del addrs[:cut]
            del lsns[:cut]
        return dropped

    # -- crash model --------------------------------------------------------------

    def crash(self) -> None:
        """Server crash: stable prefix survives, bookkeeping does not."""
        self.group.note_crash()
        self.stable.crash()
        self.clock = LsnClock()
        self._client_index.clear()
        self._last_addr_from.clear()
