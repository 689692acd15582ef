"""Unit tests for the durability oracle."""

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.harness.oracle import CommittedStateOracle, verify_durability
from repro.records.heap import RecordId
from repro.workloads.generator import seed_table


@pytest.fixture
def small_system():
    config = SystemConfig(client_checkpoint_interval=0,
                          server_checkpoint_interval=0)
    system = ClientServerSystem(config, client_ids=["C1"])
    system.bootstrap(data_pages=2, free_pages=2)
    rids = seed_table(system, "C1", "t", 2, 2)
    return system, rids


class TestOracleBookkeeping:
    def test_clean_system_passes(self, small_system):
        system, rids = small_system
        oracle = CommittedStateOracle()
        for index, rid in enumerate(rids):
            oracle.note_committed_insert(rid, ("init", index))
        # The freshest copies are client-cached (no-force): use the
        # "current" vantage; the "server" vantage applies post-recovery.
        assert oracle.verify(system, where="current") == []

    def test_lost_committed_value_detected(self, small_system):
        system, rids = small_system
        oracle = CommittedStateOracle()
        oracle.note_committed_update(rids[0], "never-actually-written")
        violations = oracle.verify(system)
        assert len(violations) == 1
        assert "committed" in violations[0].reason

    def test_surviving_uncommitted_value_detected(self, small_system):
        system, rids = small_system
        oracle = CommittedStateOracle()
        # The value genuinely in the DB, but marked as uncommitted.
        oracle.note_uncommitted_value(rids[0], ("init", 0))
        violations = oracle.verify(system, where="current")
        assert len(violations) == 1
        assert "uncommitted" in violations[0].reason

    def test_committed_then_same_value_not_forbidden(self, small_system):
        """A value both committed and written by an aborted txn is fine
        if present (the committed write wins)."""
        system, rids = small_system
        oracle = CommittedStateOracle()
        oracle.note_uncommitted_value(rids[0], ("init", 0))
        oracle.note_committed_update(rids[0], ("init", 0))
        assert oracle.verify(system, where="current") == []

    def test_committed_delete_expected_missing(self, small_system):
        system, rids = small_system
        client = system.client("C1")
        txn = client.begin()
        client.delete(txn, rids[0])
        client.commit(txn)
        oracle = CommittedStateOracle()
        oracle.note_committed_delete(rids[0])
        assert oracle.verify(system, where="current") == []

    def test_missing_record_prints_the_same_in_every_process(
            self, small_system):
        # A violation naming a missing record must not print a memory
        # address: chaos reports digest these strings across processes.
        system, rids = small_system
        oracle = CommittedStateOracle()
        oracle.note_committed_delete(rids[1])       # expected: missing
        oracle.note_committed_update(RecordId(rids[0].page_id, 9), "x")
        texts = [str(v) for v in oracle.verify(system, where="current")]
        assert texts == [
            "lost or wrong committed value at 1.1: expected <missing>, "
            "found ('init', 1)",
            "lost or wrong committed value at 1.9: expected 'x', "
            "found <missing>",
        ]
        assert not any("0x" in text for text in texts)

    def test_verify_durability_raises_with_details(self, small_system):
        system, rids = small_system
        oracle = CommittedStateOracle()
        oracle.note_committed_update(rids[0], "ghost")
        with pytest.raises(AssertionError, match="ghost"):
            verify_durability(oracle, system)

    def test_tracked_rids_union(self):
        oracle = CommittedStateOracle()
        oracle.note_committed_insert(RecordId(1, 0), "a")
        oracle.note_uncommitted_value(RecordId(2, 0), "b")
        assert oracle.tracked_rids() == [RecordId(1, 0), RecordId(2, 0)]

    def test_current_vs_server_vantage(self, small_system):
        """A committed value still cached only at the client passes the
        'current' view and the server view after the client ships."""
        system, rids = small_system
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "cached-only")
        client.commit(txn)
        oracle = CommittedStateOracle()
        oracle.note_committed_update(rids[0], "cached-only")
        assert oracle.verify(system, where="current") == []
        client._ship_page(rids[0].page_id)
        assert oracle.verify(system, where="server") == []
