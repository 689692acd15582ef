"""Integration: log space management — truncation never breaks recovery."""

import pytest

from tests.conftest import make_system
from repro.workloads.generator import seed_table


def churn(system, rids, n, client_id="C1"):
    client = system.client(client_id)
    for i in range(n):
        txn = client.begin()
        client.update(txn, rids[i % len(rids)], ("churn", i))
        client.commit(txn)


class TestTruncationPoint:
    def test_advances_after_checkpoint_and_flush(self, seeded):
        system, rids = seeded
        churn(system, rids, 10)
        before = system.server.compute_truncation_point(respect_archive=False)
        # Make everything durable and re-checkpoint: the bound advances.
        for client in system.clients.values():
            for page_id in list(client.pool.page_ids()):
                client._ship_page(page_id)
            client.take_checkpoint()
        system.server.flush_all()
        system.server.take_checkpoint()
        after = system.server.compute_truncation_point(respect_archive=False)
        assert after > before

    def test_dirty_client_page_blocks_truncation(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "pins-the-log")
        client.commit(txn)   # page stays dirty at client (no-force)
        pin = system.server.compute_truncation_point(respect_archive=False)
        churn(system, rids[1:], 10)
        system.server.take_checkpoint()
        # Despite later checkpoints, the bound cannot pass the dirty
        # page's RecAddr.
        assert system.server.compute_truncation_point(
            respect_archive=False) <= pin + 1_000_000
        # Clean the page: the bound is free to advance past it.
        client._ship_page(rids[0].page_id)
        system.server.flush_page(rids[0].page_id)
        system.server.take_checkpoint()
        assert system.server.compute_truncation_point(
            respect_archive=False) > pin

    def test_long_transaction_blocks_truncation(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        long_txn = client.begin()
        client.update(long_txn, rids[0], "old-update")
        client._ship_log_records()
        tracked = system.server.tracker.get(long_txn.txn_id)
        first_addr = system.server.log.addr_of_lsn("C1", tracked.first_lsn)
        churn(system, rids[1:], 12, client_id="C2")
        system.server.take_checkpoint()
        assert system.server.compute_truncation_point(
            respect_archive=False) <= first_addr
        client.rollback(long_txn)

    def test_archive_bound_respected(self, seeded):
        system, rids = seeded
        churn(system, rids, 4)
        for client in system.clients.values():
            for page_id in list(client.pool.page_ids()):
                client._ship_page(page_id)
        system.server.flush_all()
        system.server.take_backup()
        archive_bound = system.server.compute_truncation_point(
            respect_archive=True)
        no_archive = system.server.compute_truncation_point(
            respect_archive=False)
        assert archive_bound <= no_archive


class TestTruncatedRecovery:
    def quiesce(self, system):
        for client in system.clients.values():
            for page_id in list(client.pool.page_ids()):
                client._ship_page(page_id)
            client.take_checkpoint()
        system.server.flush_all()
        system.server.take_checkpoint()

    def test_recovery_after_truncation(self, seeded):
        system, rids = seeded
        churn(system, rids, 20)
        self.quiesce(system)
        dropped = system.server.truncate_log(respect_archive=False)
        assert dropped > 0
        # New work, then every failure mode.
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "post-truncation")
        client.commit(txn)
        txn = client.begin()
        client.update(txn, rids[1], "doomed")
        client._ship_log_records()
        system.crash_all()
        system.restart_all()
        assert system.server_visible_value(rids[0]) == "post-truncation"
        assert system.server_visible_value(rids[1]) == ("churn", 1)

    def test_client_recovery_after_truncation(self, seeded):
        system, rids = seeded
        churn(system, rids, 20)
        self.quiesce(system)
        system.server.truncate_log(respect_archive=False)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[2], "dies")
        client._ship_log_records()
        system.crash_client("C1")
        assert system.server_visible_value(rids[2]) == ("churn", 2)

    def test_truncation_into_volatile_tail_rejected(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "unforced")
        client._ship_log_records()
        with pytest.raises(ValueError):
            system.server.log.stable.truncate_prefix(
                system.server.log.end_of_log_addr
            )
        client.commit(txn)

    def test_truncate_is_idempotent(self, seeded):
        system, rids = seeded
        churn(system, rids, 8)
        self.quiesce(system)
        first = system.server.truncate_log(respect_archive=False)
        second = system.server.truncate_log(respect_archive=False)
        assert second == 0 or second < first

    def test_rollback_after_truncation(self, seeded):
        """A live transaction's records are never truncated away — it
        can still roll back through server fetches."""
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "will-roll-back")
        client._ship_log_records()
        system.server.log.force()
        client.log.prune_stable(system.server.log.flushed_addr)
        churn(system, rids[1:], 10, client_id="C2")
        system.server.truncate_log(respect_archive=False)
        client.rollback(txn)
        assert system.current_value(rids[0]) == ("init", 0)

    def test_truncate_log_prunes_the_log_managers_bookkeeping(self, seeded):
        """No pair or index entry may outlive the record it points at:
        ``header_at`` on a truncated address raises."""
        system, rids = seeded
        churn(system, rids, 20)
        churn(system, rids, 6, client_id="C2")
        self.quiesce(system)
        log = system.server.log
        assert system.server.truncate_log(respect_archive=False) > 0
        low_water = log.stable.low_water_addr
        assert low_water > 0
        for client_id in ("C1", "C2", "SERVER"):
            for addr, header in log.scan_client_headers(client_id):
                assert addr >= low_water and header.client_id == client_id
            for lsn in range(0, int(log.max_lsn_seen) + 2):
                mapped = log.addr_for_rec_lsn(client_id, lsn)
                assert mapped is None or mapped >= low_water
                exact = log.addr_of_lsn(client_id, lsn)
                if exact is not None:
                    assert exact >= low_water
                    assert log.header_at(exact).lsn == lsn
