"""Global transaction tracking and the Commit_LSN optimization (section 3).

Whenever a client log record is appended, the server analyzes it to
maintain information about transactions active anywhere in the complex
(section 2.4).  Two consumers:

* **rollback service** — a client rolling back may have pruned records
  from its virtual-storage buffer; the tracker knows each live
  transaction's chain state, and the server log's per-client index finds
  the records to hand back;
* **Commit_LSN** — the LSN of the first record of the oldest update
  transaction still executing anywhere.  Every page whose page_LSN is
  below it provably holds only committed data, so readers can skip
  record locks for committed-data checks.

Safety with unshipped work.  A client may hold log records (and whole
transactions) the server has never seen.  Their LSNs are strictly
greater than the largest LSN the server has observed from that client
*or* pushed to it via a Max_LSN sync it acknowledged — the client's
**floor**.  Commit_LSN is therefore::

    min( min first_lsn over known in-progress update txns,
         min over clients (floor_of_client) + 1 )

which stays a valid lower bound no matter what is still buffered at the
clients.  Raising floors is exactly what the section 3 Lamport piggyback
achieves, and experiment E4 measures how the sync period moves the
achievable Commit_LSN and with it the fraction of lock calls avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.log_records import (
    CommitRecord,
    CompensationRecord,
    EndRecord,
    FrameHeader,
    LogRecord,
    PrepareRecord,
    UpdateRecord,
)
from repro.core.lsn import LSN, LogAddr, NULL_LSN


@dataclass
class TrackedTransaction:
    """Server-side knowledge of one transaction somewhere in the complex."""

    txn_id: str
    client_id: str
    state: str = "active"
    first_lsn: LSN = NULL_LSN
    last_lsn: LSN = NULL_LSN
    #: Tables this transaction has updated (for per-table Commit_LSN,
    #: the "per-file basis" refinement section 3 points at).
    tables: set = field(default_factory=set)
    #: Next record to undo if this transaction must be rolled back; kept
    #: so the section 2.6.2 variant can recover a failed client without
    #: any client checkpoint to analyze from.
    undo_next_lsn: LSN = NULL_LSN


class GlobalTransactionTracker:
    """The server's view of every transaction in the complex."""

    def __init__(self) -> None:
        self._txns: Dict[str, TrackedTransaction] = {}
        #: Per client: a lower bound on the client's Local_Max_LSN.
        self._floors: Dict[str, LSN] = {}
        #: Maps a page id to its table, for per-table Commit_LSN.
        #: Installed by the system catalog; None-returning by default.
        self.table_resolver = lambda page_id: None

    # -- feeding -----------------------------------------------------------

    def register_client(self, client_id: str) -> None:
        self._floors.setdefault(client_id, NULL_LSN)

    def forget_client(self, client_id: str) -> None:
        """A client left the complex; it no longer constrains Commit_LSN."""
        self._floors.pop(client_id, None)

    def observe(self, record: LogRecord, addr: LogAddr) -> None:
        """Analyze one appended record (normal processing or restart)."""
        floor = self._floors.get(record.client_id, NULL_LSN)
        if record.lsn > floor:
            self._floors[record.client_id] = record.lsn
        txn_id = record.txn_id
        if txn_id is None:
            return
        txn = self._txns.get(txn_id)
        if txn is None:
            txn = TrackedTransaction(txn_id, record.client_id)
            self._txns[txn_id] = txn
        if isinstance(record, (UpdateRecord, CompensationRecord)):
            if txn.first_lsn == NULL_LSN:
                txn.first_lsn = record.lsn
            txn.last_lsn = record.lsn
            if record.page_id >= 0:
                table = self.table_resolver(record.page_id)
                if table is not None:
                    txn.tables.add(table)
            if isinstance(record, CompensationRecord):
                txn.undo_next_lsn = record.undo_next_lsn
            elif not record.redo_only:
                txn.undo_next_lsn = record.lsn
        elif isinstance(record, PrepareRecord):
            txn.state = "prepared"
        elif isinstance(record, CommitRecord):
            txn.state = "committed"
        elif isinstance(record, EndRecord):
            self._txns.pop(txn_id, None)

    def observe_header(self, header: FrameHeader, addr: LogAddr) -> None:
        """``observe`` from a decoded frame header alone.

        Every field the tracker reads lives in the filterable frame
        prefix, so restart analysis can feed the tracker without
        materializing each record — the full decode was a large share
        of restart wall-clock on long logs.  Must stay in lockstep with
        ``observe``.
        """
        floor = self._floors.get(header.client_id, NULL_LSN)
        if header.lsn > floor:
            self._floors[header.client_id] = header.lsn
        txn_id = header.txn_id
        if txn_id is None:
            return
        txn = self._txns.get(txn_id)
        if txn is None:
            txn = TrackedTransaction(txn_id, header.client_id)
            self._txns[txn_id] = txn
        tag = header.type_tag
        if tag == "UPD" or tag == "CLR":
            if txn.first_lsn == NULL_LSN:
                txn.first_lsn = header.lsn
            txn.last_lsn = header.lsn
            if header.page_id >= 0:
                table = self.table_resolver(header.page_id)
                if table is not None:
                    txn.tables.add(table)
            if tag == "CLR":
                txn.undo_next_lsn = header.undo_next_lsn
            elif not header.redo_only:
                txn.undo_next_lsn = header.lsn
        elif tag == "PRE":
            txn.state = "prepared"
        elif tag == "CMT":
            txn.state = "committed"
        elif tag == "END":
            self._txns.pop(txn_id, None)

    def reinstall(self, txn_id: str, client_id: str, state: str,
                  first_lsn: LSN, last_lsn: LSN, undo_next_lsn: LSN) -> None:
        """Re-seed a transaction from checkpoint data after a restart.

        Needed for Commit_LSN safety: a surviving client's transaction
        whose records all precede the server's last checkpoint would
        otherwise be invisible to the tracker, letting Commit_LSN climb
        past its first_lsn and unsafely unlock its uncommitted pages.
        """
        if txn_id in self._txns:
            return
        self._txns[txn_id] = TrackedTransaction(
            txn_id=txn_id, client_id=client_id, state=state,
            first_lsn=first_lsn, last_lsn=last_lsn,
            undo_next_lsn=undo_next_lsn,
        )

    def note_sync_acknowledged(self, client_id: str, max_lsn: LSN) -> None:
        """The client acknowledged a Max_LSN piggyback: its Local_Max_LSN
        is now at least ``max_lsn``, so its floor rises (section 3)."""
        if max_lsn > self._floors.get(client_id, NULL_LSN):
            self._floors[client_id] = max_lsn

    def drop_transactions_of(self, client_id: str) -> List[TrackedTransaction]:
        """Remove (and return) tracked transactions of a failed client."""
        doomed = [t for t in self._txns.values() if t.client_id == client_id]
        for txn in doomed:
            del self._txns[txn.txn_id]
        return doomed

    # -- queries --------------------------------------------------------------

    def get(self, txn_id: str) -> Optional[TrackedTransaction]:
        return self._txns.get(txn_id)

    def in_progress(self) -> List[TrackedTransaction]:
        return [
            t for t in self._txns.values() if t.state in ("active", "prepared")
        ]

    def commit_lsn(self) -> LSN:
        """Compute the current global Commit_LSN (see module docstring)."""
        bounds: List[LSN] = []
        first_lsns = [
            t.first_lsn for t in self._txns.values()
            if t.state in ("active", "prepared") and t.first_lsn != NULL_LSN
        ]
        if first_lsns:
            bounds.append(min(first_lsns))
        if self._floors:
            bounds.append(min(self._floors.values()) + 1)
        return min(bounds) if bounds else NULL_LSN + 1

    def floor_of(self, client_id: str) -> LSN:
        return self._floors.get(client_id, NULL_LSN)

    def floor_bound(self) -> LSN:
        """The floors-only Commit_LSN bound (no active-transaction term).

        Any record still unshipped anywhere has an LSN above its
        client's floor, so this is a safe Commit_LSN for every table no
        known in-progress transaction has updated.
        """
        if not self._floors:
            return NULL_LSN + 1
        return min(self._floors.values()) + 1

    def commit_lsn_by_table(self) -> Dict[str, LSN]:
        """Per-table Commit_LSN values (section 3's per-file refinement).

        Only tables constrained by some in-progress transaction appear;
        every other table's value is :meth:`floor_bound`.  A long update
        transaction on one table therefore no longer drags down lock
        avoidance on the others.
        """
        base = self.floor_bound()
        values: Dict[str, LSN] = {}
        for txn in self._txns.values():
            if txn.state not in ("active", "prepared"):
                continue
            if txn.first_lsn == NULL_LSN:
                continue
            for table in txn.tables:
                bound = min(base, txn.first_lsn)
                current = values.get(table)
                if current is None or bound < current:
                    values[table] = bound
        return values

    # -- crash model ------------------------------------------------------------

    def clear(self) -> None:
        self._txns.clear()
        self._floors.clear()
