"""Two-phase commit for distributed transactions (presumed abort).

The paper assumes distributed transactions exist around ARIES/CSA: the
undo pass spares *in-doubt* (prepared) branches (section 1.1.2), and a
recovering client "would have to reacquire some locks for any in-doubt
transactions" from information the server keeps (section 2.6.1).  This
module supplies the missing piece: a presumed-abort coordinator running
at the server.

Protocol (classic presumed abort):

1. each participating client runs its own local branch transaction;
2. ``commit()``: the coordinator sends PREPARE to every branch; each
   client force-logs a prepare record (with its lock list) and enters
   the in-doubt state;
3. once all branches are prepared, the coordinator force-logs its
   COMMIT decision (a server-local commit record for the global id) —
   the commit point;
4. branches are told to commit; stragglers resolve later by asking
   :meth:`TwoPhaseCoordinator.resolve`, which answers from the decision
   log — and *presumes abort* when no decision record exists.

Crash behaviour: a branch crash before prepare aborts the global
transaction (its work was rolled back by client recovery); after
prepare the branch survives restart in-doubt and resolves on reconnect;
a server crash loses nothing because decisions are forced log records,
recovered by scanning (`recover_decisions`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.client import Client
from repro.core.log_records import CommitRecord, SERVER_ID
from repro.core.lsn import NULL_LSN
from repro.core.server import Server
from repro.core.transaction import Transaction, TxnState
from repro.errors import NodeUnavailableError, TransactionStateError
from repro.net.messages import MsgType


@dataclass
class GlobalTransaction:
    """A distributed transaction: one local branch per participant."""

    global_id: str
    branches: List[Tuple[Client, Transaction]] = field(default_factory=list)
    state: str = "active"      # active -> preparing -> committed/aborted

    def branch_for(self, client: Client) -> Optional[Transaction]:
        for branch_client, txn in self.branches:
            if branch_client is client:
                return txn
        return None


class TwoPhaseCoordinator:
    """Presumed-abort coordinator colocated with the server."""

    _ids = itertools.count(1)

    def __init__(self, server: Server) -> None:
        self.server = server
        self.network = server.network
        #: Volatile decision cache; the truth is in the log.
        self._decisions: Dict[str, str] = {}
        # Participants resolve in-doubt branches by asking the server's
        # node; a fresh coordinator re-registers (last one wins — they
        # all answer from the same stable log).
        server.dispatcher.register(
            "resolve_2pc", lambda sender, global_id: self.resolve(global_id)
        )

    def _call_branch(self, client: Client, method: str, txn: Transaction) -> None:
        """One coordinator->participant exchange for one branch."""
        self.network.stub(self.server.node_id, client.client_id).call(
            method, MsgType.COMMIT_REQUEST,
            payload=txn.txn_id, args=(txn.txn_id,),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_global(self, global_id: Optional[str] = None) -> GlobalTransaction:
        if global_id is None:
            global_id = f"G{next(TwoPhaseCoordinator._ids)}"
        return GlobalTransaction(global_id)

    def enlist(self, gtxn: GlobalTransaction, client: Client) -> Transaction:
        """Start (or return) this participant's local branch."""
        if gtxn.state != "active":
            raise TransactionStateError(
                f"global transaction {gtxn.global_id} is {gtxn.state}"
            )
        existing = gtxn.branch_for(client)
        if existing is not None:
            return existing
        txn = client.begin(f"{gtxn.global_id}@{client.client_id}")
        gtxn.branches.append((client, txn))
        return txn

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def commit(self, gtxn: GlobalTransaction) -> str:
        """Run 2PC; returns "committed" or "aborted".

        Any branch failing to prepare (e.g. its client crashed) aborts
        the whole transaction — presumed abort means no decision record
        is needed for that outcome.
        """
        if gtxn.state != "active":
            raise TransactionStateError(
                f"global transaction {gtxn.global_id} is {gtxn.state}"
            )
        gtxn.state = "preparing"
        faults = self.server.probe.faults
        if faults is not None:
            faults.crashpoint("coordinator.2pc.before_prepare")
        prepared: List[Tuple[Client, Transaction]] = []
        for client, txn in gtxn.branches:
            try:
                self._call_branch(client, "prepare_branch", txn)
                prepared.append((client, txn))
            except (NodeUnavailableError, TransactionStateError):
                self._abort_prepared(gtxn, prepared)
                return "aborted"
        if faults is not None:
            faults.crashpoint("coordinator.2pc.before_decision")
        self._log_decision(gtxn.global_id)
        gtxn.state = "committed"
        if faults is not None:
            faults.crashpoint("coordinator.2pc.before_commit_fanout")
        for client, txn in gtxn.branches:
            try:
                self._call_branch(client, "commit_branch", txn)
            except NodeUnavailableError:
                # The branch resolves via resolve() at reconnect.
                pass
        return "committed"

    def abort(self, gtxn: GlobalTransaction) -> None:
        """Unilateral abort before (or instead of) commit."""
        self._abort_prepared(gtxn, list(gtxn.branches))

    def _abort_prepared(self, gtxn: GlobalTransaction,
                        reached: List[Tuple[Client, Transaction]]) -> None:
        gtxn.state = "aborted"
        for client, txn in gtxn.branches:
            if client.crashed:
                continue  # client recovery rolled it back (or will)
            try:
                self._call_branch(client, "abort_branch", txn)
            except (NodeUnavailableError, TransactionStateError):
                pass

    def _log_decision(self, global_id: str) -> None:
        """The commit point: a forced server-local commit record."""
        record = CommitRecord(
            lsn=self.server.log.clock.next_lsn(NULL_LSN),
            client_id=SERVER_ID,
            txn_id=f"2pc:{global_id}",
            prev_lsn=NULL_LSN,
        )
        addr = self.server.log.append_local(record)
        self.server.log.force(addr)
        self._decisions[global_id] = "committed"

    # ------------------------------------------------------------------
    # Resolution (presumed abort)
    # ------------------------------------------------------------------

    def resolve(self, global_id: str) -> str:
        """The coordinator's answer for an in-doubt participant.

        Consults the volatile cache, then the stable log; with no
        decision record anywhere the answer is "aborted" — the presumed-
        abort rule that makes aborts logging-free.
        """
        cached = self._decisions.get(global_id)
        if cached is not None:
            return cached
        marker = f"2pc:{global_id}"
        for addr, record in self.server.log.scan_backward():
            if isinstance(record, CommitRecord) and record.txn_id == marker:
                self._decisions[global_id] = "committed"
                return "committed"
        return "aborted"

    def recover_decisions(self) -> int:
        """Rebuild the volatile decision cache after a server restart."""
        count = 0
        for addr, record in self.server.log.scan():
            if isinstance(record, CommitRecord) and record.txn_id and \
                    record.txn_id.startswith("2pc:"):
                self._decisions[record.txn_id[4:]] = "committed"
                count += 1
        return count

    def resolve_indoubt_at(self, client: Client) -> List[Tuple[str, str]]:
        """Settle every in-doubt branch at a reconnected client.

        Returns (global_id, outcome) per branch resolved.  Branch ids
        have the form ``<global>@<client>``, as created by enlist().
        """
        outcomes: List[Tuple[str, str]] = []
        ask_coordinator = self.network.stub(client.client_id,
                                            self.server.node_id)
        for txn in list(client.txns):
            if txn.state is not TxnState.PREPARED or "@" not in txn.txn_id:
                continue
            global_id = txn.txn_id.split("@", 1)[0]
            decision = ask_coordinator.call("resolve_2pc",
                                            MsgType.COMMIT_REQUEST,
                                            payload=global_id,
                                            args=(global_id,))
            if decision == "committed":
                client.commit_prepared(txn)
            else:
                txn.state = TxnState.ACTIVE
                client.rollback(txn)
            outcomes.append((global_id, decision))
        return outcomes
