"""Every LSN stream filed under one id only moves forward.

Section 2.5.2 maps a client's LSNs to log addresses, and the Commit_LSN
argument of section 3 needs every new LSN of a client to sit above what
the server has already seen.  A crash resets the crashed node's clock,
so both restart paths must hand the clock back:

* a reconnecting client folds the server's Max_LSN into its clock;
* a restarted server folds every LSN its restart scans read.

The periodic piggyback is switched off (``max_lsn_sync_period`` far
above what the tests do), so only the explicit ``broadcast_sync`` calls
and the reconnect hand-over move a client's clock.
"""

import pytest

from repro.core.log_records import SERVER_ID
from repro.errors import LockConflictError
from repro.workloads.generator import seed_table
from tests.conftest import make_system

NO_PIGGYBACK = 10_000


def seeded_pair():
    system = make_system(max_lsn_sync_period=NO_PIGGYBACK)
    rids = seed_table(system, "C1", "t", 8, 4)
    return system, rids


def lsns_filed_under(system, client_id):
    return [header.lsn
            for _, header in system.server.log.scan_client_headers(client_id)]


class TestReconnect:
    @pytest.mark.parametrize("writer", ["C1", "C2"])
    def test_reconnected_update_is_not_read_without_a_lock(self, writer):
        """C2 cached a Commit_LSN above everything C1 wrote before its
        crash.  C1's first update after reconnecting lands on a page
        nobody touched since seeding; its LSN must not sort below that
        Commit_LSN, or C2 skips the lock and reads uncommitted data.
        The writer of the committed history is C1 itself, or C2 (then
        Max_LSN is above every LSN filed under C1's id)."""
        system, rids = seeded_pair()
        busy = system.client(writer)
        for i in range(30):
            txn = busy.begin()
            busy.update(txn, rids[0], ("committed", i))
            busy.commit(txn)
        system.server.broadcast_sync()
        system.server.broadcast_sync()
        system.crash_client("C1")
        system.reconnect_client("C1")
        c1, c2 = system.client("C1"), system.client("C2")
        untouched = rids[-1]
        assert untouched.page_id != rids[0].page_id
        c1.update(c1.begin(), untouched, "DIRTY")
        with pytest.raises(LockConflictError):
            c2.read(c2.begin(), untouched)

    def test_next_lsn_is_above_every_lsn_filed_under_the_client(self):
        system, rids = seeded_pair()
        c1 = system.client("C1")
        for i in range(5):
            txn = c1.begin()
            c1.update(txn, rids[i], ("first-life", i))
            c1.commit(txn)
        system.crash_client("C1")
        system.reconnect_client("C1")
        earlier = lsns_filed_under(system, "C1")

        txn = c1.begin()
        c1.update(txn, rids[-1], ("second-life", 0))
        c1._ship_log_records()
        assert txn.last_lsn > max(earlier)
        addr = system.server.log.addr_of_lsn("C1", txn.last_lsn)
        assert addr is not None
        assert system.server.log.header_at(addr).txn_id == txn.txn_id


class TestServerRestart:
    def test_max_lsn_and_new_server_records_sort_above_the_log(self):
        system, rids = seeded_pair()
        for i in range(6):
            client = system.client(("C1", "C2")[i % 2])
            txn = client.begin()
            client.update(txn, rids[i], ("committed", i))
            client.commit(txn)
        system.server.take_checkpoint()
        system.crash_all()
        system.restart_all()

        log = system.server.log
        log_max = max(header.lsn for _, header in log.scan_headers())
        assert log.max_lsn_seen >= log_max
        before = lsns_filed_under(system, SERVER_ID)
        end = log.end_of_log_addr
        system.server.take_checkpoint()
        new = [header.lsn for _, header in log.scan_headers(end)]
        assert len(new) == 2
        assert min(new) > max(before)
        assert min(new) > log_max

