"""Unit tests for the server log manager: pairs, mapping, ForceAddr."""

import pytest

from repro.core.log_records import CommitRecord, UpdateOp, UpdateRecord
from repro.core.lsn import NULL_ADDR
from repro.core.server_log import ServerLogManager
from repro.errors import RecoveryInvariantError
from tests.conftest import plain_headers as plain


def update(lsn, client="C1", page=1):
    return UpdateRecord(lsn=lsn, client_id=client, txn_id="T", prev_lsn=0,
                        page_id=page, op=UpdateOp.RECORD_MODIFY, slot=0,
                        before=b"a", after=b"b")


@pytest.fixture
def slm():
    return ServerLogManager()


class TestAppend:
    def test_append_from_client_returns_pairs(self, slm):
        pairs = slm.append_from_client("C1", [update(1), update(2)])
        assert [lsn for lsn, _ in pairs] == [1, 2]
        addrs = [addr for _, addr in pairs]
        assert addrs == sorted(addrs)

    def test_clock_observes_client_lsns(self, slm):
        slm.append_from_client("C1", [update(50)])
        assert slm.max_lsn_seen == 50
        assert slm.clock.next_lsn() == 51

    def test_force_addr_for_client(self, slm):
        assert slm.force_addr_for_client("C1") == NULL_ADDR
        pairs = slm.append_from_client("C1", [update(1)])
        assert slm.force_addr_for_client("C1") == pairs[0][1]
        slm.append_from_client("C2", [update(5, client="C2")])
        # C1's ForceAddr unaffected by C2's records.
        assert slm.force_addr_for_client("C1") == pairs[0][1]


class TestRecLsnMapping:
    def test_exact_mapping(self, slm):
        pairs = slm.append_from_client("C1", [update(1), update(2), update(3)])
        # RecLSN=1 -> first record with LSN > 1 is lsn 2.
        assert slm.addr_for_rec_lsn("C1", 1) == pairs[1][1]

    def test_rec_lsn_zero_maps_to_first(self, slm):
        pairs = slm.append_from_client("C1", [update(4), update(5)])
        assert slm.addr_for_rec_lsn("C1", 0) == pairs[0][1]

    def test_rec_lsn_beyond_all_maps_to_end(self, slm):
        slm.append_from_client("C1", [update(1)])
        assert slm.addr_for_rec_lsn("C1", 99) == slm.end_of_log_addr

    def test_unknown_client_maps_to_none(self, slm):
        assert slm.addr_for_rec_lsn("ghost", 5) is None

    def test_mapping_is_per_client(self, slm):
        slm.append_from_client("C2", [update(10, client="C2")])
        pairs = slm.append_from_client("C1", [update(1)])
        assert slm.addr_for_rec_lsn("C1", 0) == pairs[0][1]


class TestCrashRebuild:
    def test_crash_clears_bookkeeping(self, slm):
        slm.append_from_client("C1", [update(1)])
        slm.force()
        slm.crash()
        assert slm.addr_for_rec_lsn("C1", 0) is None
        assert slm.force_addr_for_client("C1") == NULL_ADDR

    def test_observe_during_restart_rebuilds(self, slm):
        pairs = slm.append_from_client("C1", [update(1), update(2)])
        slm.force()
        slm.crash()
        for (lsn, addr) in pairs:
            slm.observe_during_restart("C1", lsn, addr)
        assert slm.addr_for_rec_lsn("C1", 1) == pairs[1][1]
        assert slm.force_addr_for_client("C1") == pairs[1][1]

    def test_duplicate_observation_tolerated(self, slm):
        pairs = slm.append_from_client("C1", [update(1)])
        slm.observe_during_restart("C1", 1, pairs[0][1])
        assert slm.addr_for_rec_lsn("C1", 0) == pairs[0][1]


class TestLocalAppend:
    def test_append_local_observes_lsn(self, slm):
        record = CommitRecord(lsn=7, client_id="SERVER", txn_id="T", prev_lsn=0)
        slm.append_local(record)
        assert slm.max_lsn_seen == 7

    def test_scan_passthrough(self, slm):
        slm.append_from_client("C1", [update(1), update(2)])
        assert [r.lsn for _, r in slm.scan()] == [1, 2]
        assert [r.lsn for _, r in slm.scan_backward()] == [2, 1]


def filtered(slm, client, from_addr=0, to_addr=None):
    """What ``scan_client_headers`` must equal: the filtered full scan."""
    return plain((addr, header)
                 for addr, header in slm.scan_headers(from_addr, to_addr)
                 if header.client_id == client)


class TestClientAddressIndex:
    def test_scan_client_headers_is_the_filtered_scan(self, slm):
        slm.append_from_client("C1", [update(1), update(2)])
        slm.append_from_client("C2", [update(1, client="C2")])
        slm.append_local(update(9, client="C1"))  # a server-written CLR stand-in
        slm.append_from_client("C1", [update(10)])
        for client in ("C1", "C2", "ghost"):
            assert plain(slm.scan_client_headers(client)) == \
                filtered(slm, client)
        mine = [addr for addr, _ in filtered(slm, "C1")]
        assert len(mine) == 4
        assert plain(slm.scan_client_headers("C1", mine[1], mine[3])) == \
            filtered(slm, "C1", mine[1], mine[3])

    def test_newest_first_reverses(self, slm):
        slm.append_from_client("C1", [update(1), update(2), update(3)])
        forward = plain(slm.scan_client_headers("C1"))
        assert len(forward) == 3
        assert plain(slm.scan_client_headers("C1", newest_first=True)) == \
            forward[::-1]

    def test_repeated_lsn_raises(self, slm):
        """LSN streams filed under one id never restart; a repeated LSN
        would make every bisect of the index ambiguous."""
        slm.append_from_client("C1", [update(1), update(2)])
        with pytest.raises(RecoveryInvariantError):
            slm.append_from_client("C1", [update(1)])
        with pytest.raises(RecoveryInvariantError):
            slm.append_local(update(2))

    def test_rebuild_scan_checks_lsns_below_a_tail_filed_first(self, slm):
        (_, old_addr), = slm.append_from_client("C1", [update(5)])
        slm.force()
        slm.crash()
        slm.append_from_client("C1", [update(3)])  # a tail below LSN 5
        with pytest.raises(RecoveryInvariantError):
            slm.observe_during_restart("C1", 5, old_addr)

    def test_restart_rebuild_tolerates_tail_filed_first(self, slm):
        pairs = slm.append_from_client("C1", [update(1), update(2)])
        slm.force()
        slm.crash()
        assert list(slm.scan_client_headers("C1")) == []
        # A survivor's lost tail is re-appended before the rebuild scan
        # walks the log from its start and meets that tail again.
        tail = slm.append_from_client("C1", [update(3)])
        for addr, header in slm.scan_headers():
            slm.observe_during_restart(header.client_id, header.lsn, addr)
        assert [addr for addr, _ in slm.scan_client_headers("C1")] == \
            [addr for _, addr in pairs + tail]


class TestTruncation:
    def test_truncate_prunes_pairs_and_index(self, slm):
        pairs = slm.append_from_client(
            "C1", [update(lsn) for lsn in range(1, 7)])
        slm.append_from_client("C2", [update(1, client="C2")])
        slm.force()
        cut = pairs[3][1]
        assert slm.truncate_prefix(cut) == 3
        low_water = slm.stable.low_water_addr
        assert low_water == cut
        for lsn in range(0, 8):
            addr = slm.addr_for_rec_lsn("C1", lsn)
            assert addr is not None and addr >= low_water
            exact = slm.addr_of_lsn("C1", lsn)
            assert exact is None or exact >= low_water
            if exact is not None:
                assert slm.header_at(exact).lsn == lsn
        assert slm.addr_of_lsn("C1", 3) is None
        assert slm.addr_of_lsn("C1", 4) == cut
        scanned = plain(slm.scan_client_headers("C1"))
        assert scanned == filtered(slm, "C1")
        assert [addr for addr, _ in scanned] == [a for _, a in pairs[3:]]

    def test_client_with_everything_truncated_stays_known(self, slm):
        slm.append_from_client("C1", [update(1), update(2)])
        slm.append_from_client("C2", [update(1, client="C2")])
        slm.force()
        slm.truncate_prefix(slm.end_of_log_addr)
        assert list(slm.scan_client_headers("C1")) == []
        assert slm.addr_of_lsn("C1", 1) is None
        # Known stream, nothing retained: the next record lands at the end.
        assert slm.addr_for_rec_lsn("C1", 0) == slm.end_of_log_addr
        (lsn, addr), = slm.append_from_client("C1", [update(3)])
        assert slm.addr_for_rec_lsn("C1", 0) == addr
        assert [a for a, _ in slm.scan_client_headers("C1")] == [addr]
