"""Integration: the section 4 baselines behave as the paper describes."""

import pytest

from repro.config import SystemConfig
from repro.core.log_records import CDPLRecord
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table


class TestEsmCs:
    def make(self):
        system = ClientServerSystem(SystemConfig.esm_cs(),
                                    client_ids=("C1", "C2"))
        system.bootstrap(data_pages=8, free_pages=8)
        rids = seed_table(system, "C1", "t", 8, 2)
        return system, rids

    def test_pages_forced_to_server_at_commit(self):
        system, rids = self.make()
        client = system.client("C1")
        shipped_before = client.pages_shipped_at_commit
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        assert client.pages_shipped_at_commit > shipped_before
        # The server's version is current right after commit.
        assert system.server_visible_value(rids[0]) == "x"

    def test_cache_purged_at_commit(self):
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        assert len(client.pool) == 0
        assert client._p_locks == {}

    def test_cdpl_logged_before_commit(self):
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        records = [record for _, record in system.server.log.scan()]
        cdpls = [r for r in records if isinstance(r, CDPLRecord)]
        assert cdpls
        # CDPL precedes the matching commit record in the log.
        commit_index = max(
            i for i, r in enumerate(records)
            if r.type_name == "CommitRecord" and r.txn_id == txn.txn_id
        )
        cdpl_index = max(
            i for i, r in enumerate(records)
            if isinstance(r, CDPLRecord) and r.txn_id == txn.txn_id
        )
        assert cdpl_index < commit_index

    def test_rollback_runs_at_server(self):
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "doomed")
        client.rollback(txn)
        assert system.server.serverside_undo_records >= 1
        assert client.clrs_written_locally == 0
        assert system.server_visible_value(rids[0]) == ("init", 0)

    def test_every_record_of_a_server_rollback_has_its_own_lsn(self):
        """The server writes the CLRs in the client's name; the client's
        End record must still sort above them."""
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "doomed")
        client.update(txn, rids[2], "doomed too")
        client.rollback(txn)
        client._ship_log_records()
        records = [record for _, record in system.server.log.scan()
                   if record.txn_id == txn.txn_id]
        assert [r.type_name for r in records].count("CompensationRecord") == 2
        lsns = [record.lsn for record in records]
        assert len(set(lsns)) == len(lsns)
        end = records[-1]
        assert end.type_name == "EndRecord"
        assert end.lsn > end.prev_lsn

    def test_conditional_undo_when_update_absent_at_server(self):
        """The update never reached the server (page not shipped): a CLR
        is logged but nothing is applied — ARIES-RRH conditional undo."""
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "only-at-client")
        client._ship_log_records()     # logs yes, page no
        server_lsn_before = system.server.authoritative_page(rids[0].page_id).page_lsn
        client.rollback(txn)
        assert system.server.serverside_undo_records >= 1
        # Server page untouched by the conditional undo.
        assert system.server.authoritative_page(rids[0].page_id).page_lsn == \
            server_lsn_before

    def test_page_level_locking_blocks_other_records_same_page(self):
        from repro.errors import LockConflictError
        system, rids = self.make()
        c1, c2 = system.client("C1"), system.client("C2")
        rid_a, rid_b = rids[0], rids[1]      # same page
        txn1 = c1.begin()
        c1.update(txn1, rid_a, "x")
        txn2 = c2.begin()
        with pytest.raises(LockConflictError):
            c2.update(txn2, rid_b, "same-page-blocked")
        c1.commit(txn1)

    def test_crash_recovery_still_correct(self):
        """ESM-CS is a correct system too — just a costlier one."""
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "durable")
        client.commit(txn)
        system.crash_all()
        system.restart_all()
        assert system.server_visible_value(rids[0]) == "durable"


class TestObjectStore:
    def make(self):
        system = ClientServerSystem(SystemConfig.objectstore(),
                                    client_ids=("C1",))
        system.bootstrap(data_pages=8, free_pages=8)
        rids = seed_table(system, "C1", "t", 8, 2)
        return system, rids

    def test_pages_forced_to_disk_at_commit(self):
        system, rids = self.make()
        client = system.client("C1")
        writes_before = system.server.disk.writes
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        assert system.server.disk.writes > writes_before
        assert system.server.disk.stored_lsn(rids[0].page_id) is not None

    def test_cache_retained_after_commit(self):
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        assert client.pool.peek(rids[0].page_id) is not None

    def test_recovery_correct(self):
        system, rids = self.make()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "durable")
        client.commit(txn)
        system.crash_all()
        system.restart_all()
        assert system.server_visible_value(rids[0]) == "durable"


class TestNoClientCkptVariant:
    def test_recovery_correct_without_checkpoints(self):
        system = ClientServerSystem(SystemConfig.no_client_checkpoints(),
                                    client_ids=("C1",))
        system.bootstrap(data_pages=8, free_pages=8)
        rids = seed_table(system, "C1", "t", 8, 2)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "committed")
        client.commit(txn)
        txn = client.begin()
        client.update(txn, rids[1], "doomed")
        client._ship_log_records()
        system.crash_client("C1")
        assert system.server_visible_value(rids[0]) == "committed"
        assert system.server_visible_value(rids[1]) == ("init", 1)
