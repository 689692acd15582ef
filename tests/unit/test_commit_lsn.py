"""Unit tests for the global transaction tracker and Commit_LSN."""

import pytest

from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import (
    CommitRecord,
    CompensationRecord,
    EndRecord,
    PrepareRecord,
    TxnOutcome,
    UpdateOp,
    UpdateRecord,
)


def upd(lsn, client="C1", txn="T1", redo_only=False):
    return UpdateRecord(lsn=lsn, client_id=client, txn_id=txn, prev_lsn=0,
                        page_id=1, op=UpdateOp.RECORD_MODIFY, slot=0,
                        before=b"a", after=b"b", redo_only=redo_only)


@pytest.fixture
def tracker():
    t = GlobalTransactionTracker()
    t.register_client("C1")
    t.register_client("C2")
    return t


class TestTracking:
    def test_observe_builds_txn(self, tracker):
        tracker.observe(upd(5), 100)
        txn = tracker.get("T1")
        assert txn.first_lsn == 5 and txn.last_lsn == 5
        assert txn.undo_next_lsn == 5

    def test_redo_only_does_not_advance_undo_next(self, tracker):
        tracker.observe(upd(5), 100)
        tracker.observe(upd(6, redo_only=True), 110)
        assert tracker.get("T1").undo_next_lsn == 5

    def test_clr_jumps_undo_next(self, tracker):
        tracker.observe(upd(5), 100)
        clr = CompensationRecord(lsn=7, client_id="C1", txn_id="T1",
                                 prev_lsn=5, undo_next_lsn=0, page_id=1,
                                 op=UpdateOp.RECORD_MODIFY, slot=0, after=b"a")
        tracker.observe(clr, 120)
        assert tracker.get("T1").undo_next_lsn == 0

    def test_states(self, tracker):
        tracker.observe(upd(5), 100)
        tracker.observe(PrepareRecord(lsn=6, client_id="C1", txn_id="T1",
                                      prev_lsn=5), 110)
        assert tracker.get("T1").state == "prepared"
        tracker.observe(CommitRecord(lsn=7, client_id="C1", txn_id="T1",
                                     prev_lsn=6), 120)
        assert tracker.get("T1").state == "committed"
        tracker.observe(EndRecord(lsn=8, client_id="C1", txn_id="T1",
                                  prev_lsn=7, outcome=TxnOutcome.COMMITTED),
                        130)
        assert tracker.get("T1") is None

    def test_drop_transactions_of(self, tracker):
        tracker.observe(upd(5, client="C1", txn="T1"), 100)
        tracker.observe(upd(6, client="C2", txn="T2"), 110)
        dropped = tracker.drop_transactions_of("C1")
        assert [t.txn_id for t in dropped] == ["T1"]
        assert tracker.get("T2") is not None


class TestCommitLsn:
    def test_no_activity_floor(self, tracker):
        """With idle registered clients the floor is conservative: any
        client may hold unshipped work with LSN >= 1."""
        assert tracker.commit_lsn() == 1

    def test_active_txn_bounds(self, tracker):
        tracker.observe(upd(5, client="C1", txn="T1"), 100)
        tracker.note_sync_acknowledged("C1", 50)
        tracker.note_sync_acknowledged("C2", 50)
        assert tracker.commit_lsn() == 5

    def test_idle_client_pins_floor(self, tracker):
        """An idle client that never acked a sync may hold unshipped
        low-LSN work: the floor must stay low (this is exactly why
        section 3 distributes Max_LSN)."""
        tracker.observe(upd(40, client="C1", txn="T1"), 100)
        tracker.observe(CommitRecord(lsn=41, client_id="C1", txn_id="T1",
                                     prev_lsn=40), 105)
        tracker.observe(EndRecord(lsn=42, client_id="C1", txn_id="T1",
                                  prev_lsn=41, outcome=TxnOutcome.COMMITTED),
                        110)
        # C2 never spoke: floor stays 0 -> Commit_LSN stays 1.
        assert tracker.commit_lsn() == 1

    def test_sync_ack_raises_floor(self, tracker):
        tracker.observe(upd(40, client="C1", txn="T1"), 100)
        tracker.observe(EndRecord(lsn=42, client_id="C1", txn_id="T1",
                                  prev_lsn=41, outcome=TxnOutcome.COMMITTED),
                        110)
        tracker.note_sync_acknowledged("C2", 42)
        assert tracker.commit_lsn() == 43

    def test_prepared_txn_still_bounds(self, tracker):
        tracker.observe(upd(5, client="C1", txn="T1"), 100)
        tracker.observe(PrepareRecord(lsn=6, client_id="C1", txn_id="T1",
                                      prev_lsn=5), 105)
        tracker.note_sync_acknowledged("C1", 99)
        tracker.note_sync_acknowledged("C2", 99)
        assert tracker.commit_lsn() == 5

    def test_forget_client_unpins(self, tracker):
        tracker.note_sync_acknowledged("C1", 100)
        # C2 idle at floor 0.
        assert tracker.commit_lsn() == 1
        tracker.forget_client("C2")
        assert tracker.commit_lsn() == 101

    def test_commit_lsn_safety_invariant(self, tracker):
        """page_LSN < Commit_LSN must imply all data committed: any
        in-progress update's LSN is >= Commit_LSN."""
        tracker.observe(upd(10, client="C1", txn="T1"), 100)
        tracker.note_sync_acknowledged("C2", 10)
        commit_lsn = tracker.commit_lsn()
        for txn in tracker.in_progress():
            assert txn.first_lsn >= commit_lsn
