"""Unit tests for the stable log: addresses, force, crash truncation."""

import pytest

from repro.core.log_records import CommitRecord, UpdateRecord, UpdateOp
from repro.errors import LogRecordNotFoundError
from repro.storage.stable_log import StableLog


def rec(lsn, txn="T1"):
    return UpdateRecord(lsn=lsn, client_id="C1", txn_id=txn, prev_lsn=lsn - 1,
                        page_id=1, op=UpdateOp.RECORD_MODIFY, slot=0,
                        before=b"a", after=b"b")


@pytest.fixture
def log():
    return StableLog()


class TestAppendRead:
    def test_addresses_increase(self, log):
        addrs = [log.append(rec(i)) for i in range(1, 6)]
        assert addrs == sorted(addrs)
        assert len(set(addrs)) == 5
        assert addrs[0] == 0

    def test_read_at(self, log):
        addr = log.append(rec(1))
        log.append(rec(2))
        assert log.read_at(addr).lsn == 1

    def test_read_at_bad_addr(self, log):
        log.append(rec(1))
        with pytest.raises(LogRecordNotFoundError):
            log.read_at(3)

    def test_end_of_log_advances(self, log):
        start = log.end_of_log_addr
        log.append(rec(1))
        assert log.end_of_log_addr > start


class TestScan:
    def test_scan_all(self, log):
        for i in range(1, 4):
            log.append(rec(i))
        lsns = [record.lsn for _, record in log.scan()]
        assert lsns == [1, 2, 3]

    def test_scan_from_addr(self, log):
        log.append(rec(1))
        addr2 = log.append(rec(2))
        log.append(rec(3))
        assert [r.lsn for _, r in log.scan(addr2)] == [2, 3]

    def test_scan_from_between_frames_is_conservative(self, log):
        log.append(rec(1))
        addr2 = log.append(rec(2))
        # An address just before a frame start begins at that frame.
        assert [r.lsn for _, r in log.scan(addr2 - 1)] == [2]

    def test_scan_with_upper_bound(self, log):
        log.append(rec(1))
        addr2 = log.append(rec(2))
        log.append(rec(3))
        assert [r.lsn for _, r in log.scan(0, addr2)] == [1]

    def test_scan_backward(self, log):
        for i in range(1, 5):
            log.append(rec(i))
        assert [r.lsn for _, r in log.scan_backward()] == [4, 3, 2, 1]

    def test_scan_backward_bounded(self, log):
        log.append(rec(1))
        addr2 = log.append(rec(2))
        log.append(rec(3))
        assert [r.lsn for _, r in log.scan_backward(down_to_addr=addr2)] == [3, 2]

    def test_records_between(self, log):
        a1 = log.append(rec(1))
        a2 = log.append(rec(2))
        log.append(rec(3))
        assert log.records_between(a1) == 3
        assert log.records_between(a2) == 2


class TestForceAndCrash:
    def test_unforced_tail_lost(self, log):
        a1 = log.append(rec(1))
        log.append(rec(2))
        log.force(a1)
        log.crash()
        assert log.record_count() == 1
        assert log.records_lost_last_crash == 1

    def test_force_all(self, log):
        for i in range(1, 4):
            log.append(rec(i))
        log.force()
        log.crash()
        assert log.record_count() == 3
        assert log.records_lost_last_crash == 0

    def test_crash_with_nothing_forced_loses_all(self, log):
        log.append(rec(1))
        log.append(rec(2))
        log.crash()
        assert log.record_count() == 0

    def test_is_stable(self, log):
        a1 = log.append(rec(1))
        a2 = log.append(rec(2))
        log.force(a1)
        assert log.is_stable(a1)
        assert not log.is_stable(a2)

    def test_force_is_idempotent(self, log):
        a1 = log.append(rec(1))
        log.force(a1)
        forces = log.forces
        log.force(a1)
        assert log.forces == forces  # no-op not charged

    def test_appends_after_crash_continue_addresses(self, log):
        a1 = log.append(rec(1))
        log.force()
        log.append(rec(2))
        log.crash()
        a3 = log.append(rec(3))
        assert a3 > a1
        assert [r.lsn for _, r in log.scan()] == [1, 3]

    def test_flushed_addr_after_crash_matches_end(self, log):
        log.append(rec(1))
        log.force()
        log.append(rec(2))
        log.crash()
        assert log.flushed_addr == log.end_of_log_addr


class TestHeaderScans:
    def test_scan_headers_matches_scan(self, log):
        for i in range(1, 8):
            log.append(rec(i, txn=f"T{i % 3}"))
        full = list(log.scan())
        headers = list(log.scan_headers())
        assert [a for a, _ in headers] == [a for a, _ in full]
        for (_, record), (_, header) in zip(full, headers):
            assert header.record_class is type(record)
            assert header.lsn == record.lsn
            assert header.client_id == record.client_id
            assert header.txn_id == record.txn_id
            assert header.prev_lsn == record.prev_lsn
            assert header.page_id == record.page_id

    def test_scan_headers_backward_matches_scan_backward(self, log):
        for i in range(1, 6):
            log.append(rec(i))
        full = [(a, r.lsn) for a, r in log.scan_backward()]
        headers = [(a, h.lsn) for a, h in log.scan_headers_backward()]
        assert headers == full

    def test_scan_headers_respects_bounds(self, log):
        addrs = [log.append(rec(i)) for i in range(1, 6)]
        windowed = [a for a, _ in log.scan_headers(addrs[1], addrs[4])]
        assert windowed == addrs[1:4]

    def test_header_at(self, log):
        addr = log.append(rec(7))
        caddr = log.append(CommitRecord(lsn=8, client_id="C1", txn_id="T1",
                                        prev_lsn=7))
        header = log.header_at(addr)
        assert header.lsn == 7
        assert header.is_update()
        cheader = log.header_at(caddr)
        assert cheader.record_class is CommitRecord
        assert not cheader.is_redoable()

    def test_header_scan_counts_peeks_not_decodes(self, log):
        for i in range(1, 5):
            log.append(rec(i))
        decodes = log.full_decodes
        list(log.scan_headers())
        assert log.header_peeks == 4
        assert log.full_decodes == decodes


class TestDecodeCache:
    def test_read_at_caches(self, log):
        addr = log.append(rec(1))
        log.read_at(addr)
        decodes = log.full_decodes
        again = log.read_at(addr)
        assert again.lsn == 1
        assert log.full_decodes == decodes
        assert log.decode_cache_hits >= 1

    def test_cache_bounded(self, log):
        log.DECODE_CACHE_SIZE = 8
        addrs = [log.append(rec(i)) for i in range(1, 40)]
        assert len(log._decoded) <= 8
        for addr in addrs:
            log.read_at(addr)
        assert len(log._decoded) <= 8

    def test_scan_reuses_cached_records(self, log):
        addr = log.append(rec(1))
        cached = log.read_at(addr)
        assert next(log.scan())[1] is cached

    def test_appended_record_reads_back_without_decoding(self, log):
        record = rec(1)
        addr = log.append(record)
        log.append(rec(2))
        assert log.read_at(addr) is record
        assert [r.lsn for _, r in log.scan()] == [1, 2]
        assert next(log.scan_backward())[1].lsn == 2
        assert log.full_decodes == 0

    def test_crash_decodes_survivors_from_bytes(self, log):
        record = rec(1)
        addr = log.append(record)
        log.force()
        log.crash()
        decoded = log.read_at(addr)
        assert log.full_decodes == 1
        assert decoded is not record
        assert decoded == record

    def test_truncation_forgets_appended_records(self, log):
        log.append(rec(1))
        addr = log.append(rec(2))
        log.force()
        log.truncate_prefix(addr)
        assert log.read_at(addr).lsn == 2
        assert log.full_decodes == 1

    def test_redo_effect_files_nothing(self, log):
        """Redo walks every frame in place, cached or not, counts each
        as a decode and leaves the LRU as it was: no hit, no eviction,
        not even a reordering."""
        log.DECODE_CACHE_SIZE = 2
        addrs = [log.append(rec(i)) for i in range(1, 5)]
        headers = dict(log.scan_headers())
        cached = list(log._decoded)
        assert log.redo_effect_at(addrs[-1], headers[addrs[-1]]) == (
            UpdateOp.RECORD_MODIFY, 0, b"b", None, None)
        assert (log.decode_cache_hits, log.full_decodes) == (0, 1)
        assert log.redo_effect_at(addrs[0], headers[addrs[0]]) == (
            UpdateOp.RECORD_MODIFY, 0, b"b", None, None)
        assert (log.decode_cache_hits, log.full_decodes) == (0, 2)
        assert list(log._decoded) == cached
        with pytest.raises(LogRecordNotFoundError):
            log.redo_effect_at(log.end_of_log_addr, headers[addrs[0]])


class TestBoundarySemantics:
    def test_frame_size_matches_wire_bytes(self, log):
        from repro.storage.stable_log import FRAME_OVERHEAD
        a1 = log.append(rec(1))
        a2 = log.append(rec(2))
        assert log.frame_size(a1) == a2 - a1
        assert log.frame_size(a1) > FRAME_OVERHEAD

    def test_empty_log_is_vacuously_stable(self, log):
        # Regression: the old frame-lookup answered False for every
        # address of an empty log, force() or not.
        assert log.is_stable(0)
        log.force()
        assert log.is_stable(0)

    def test_trailing_address_stable_iff_whole_log_is(self, log):
        log.append(rec(1))
        end = log.end_of_log_addr
        assert not log.is_stable(end)
        log.force()
        assert log.is_stable(end)
        log.append(rec(2))
        assert not log.is_stable(log.end_of_log_addr)

    def test_stable_addresses_survive_truncation(self, log):
        a1 = log.append(rec(1))
        a2 = log.append(rec(2))
        log.force()
        log.truncate_prefix(a2)
        assert log.is_stable(a1)
        assert log.low_water_addr == a2

    def test_records_between_counts_from_index(self, log):
        addrs = [log.append(rec(i)) for i in range(1, 6)]
        # Non-boundary addresses count conservatively from the next frame.
        assert log.records_between(addrs[2] + 1) == 2
        assert log.records_between(0, addrs[3]) == 3
        assert log.records_between(log.end_of_log_addr) == 0
