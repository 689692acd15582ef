"""Unit tests for the log-record taxonomy and its byte format."""

import dataclasses

import pytest

from repro.core import log_records
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    CommitRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    EndRecord,
    PrepareRecord,
    SERVER_ID,
    TxnOutcome,
    TxnTableEntry,
    UpdateOp,
    UpdateRecord,
    decode_record,
    encode_record,
)


def roundtrip(record):
    decoded = decode_record(encode_record(record))
    assert decoded == record
    return decoded


#: One record of every kind, with the optional fields exercised.
EVERY_KIND = (
    UpdateRecord(lsn=10, client_id="C1", txn_id="T1", prev_lsn=9, page_id=5,
                 op=UpdateOp.INDEX_INSERT, slot=2, before=None, after=b"new",
                 key=b"\x01k", page_kind="index-leaf"),
    CompensationRecord(lsn=20, client_id="C1", txn_id="T1", prev_lsn=19,
                       undo_next_lsn=5, page_id=5, op=UpdateOp.RECORD_MODIFY,
                       slot=2, after=b"old"),
    CompensationRecord(lsn=21, client_id="C1", txn_id="T1", prev_lsn=20,
                       undo_next_lsn=3),
    CommitRecord(lsn=1, client_id="C1", txn_id="T1", prev_lsn=0),
    PrepareRecord(lsn=2, client_id="C1", txn_id="T1", prev_lsn=1,
                  locks=((("rec", 1, 2), "X"), (("tab", "t"), "IX"))),
    EndRecord(lsn=3, client_id="C1", txn_id="T1", prev_lsn=2,
              outcome=TxnOutcome.ABORTED),
    BeginCheckpointRecord(lsn=30, client_id=SERVER_ID, txn_id=None,
                          prev_lsn=0, owner=SERVER_ID),
    EndCheckpointRecord(lsn=31, client_id="C2", txn_id=None, prev_lsn=30,
                        owner="C2",
                        dirty_pages=(DirtyPageEntry(1, 5, 100),),
                        transactions=(TxnTableEntry("T1", "C2", "active",
                                                    9, 9, 5),)),
    CDPLRecord(lsn=40, client_id=SERVER_ID, txn_id="T2", prev_lsn=0,
               entries=(DirtyPageEntry(3, 7, 80),)),
)


@pytest.fixture
def encodes(monkeypatch):
    """Counts runs of the encoder proper (not of the memo lookup)."""
    calls = []
    real = log_records._encode_frame

    def counting(record):
        calls.append(record)
        return real(record)

    monkeypatch.setattr(log_records, "_encode_frame", counting)
    return calls


class TestRoundTrips:
    def test_update_record(self):
        roundtrip(UpdateRecord(
            lsn=10, client_id="C1", txn_id="T1", prev_lsn=9,
            page_id=5, op=UpdateOp.RECORD_MODIFY, slot=2,
            before=b"old", after=b"new",
        ))

    def test_update_record_with_logical_key(self):
        roundtrip(UpdateRecord(
            lsn=11, client_id="C2", txn_id="T9", prev_lsn=0,
            page_id=7, op=UpdateOp.INDEX_INSERT, slot=0,
            before=None, after=b"entry", key=b"\x01key",
        ))

    def test_page_format_record(self):
        roundtrip(UpdateRecord(
            lsn=3, client_id="C1", txn_id="T1", prev_lsn=2,
            page_id=12, op=UpdateOp.PAGE_FORMAT, redo_only=True,
            page_kind="index-leaf",
        ))

    def test_clr(self):
        roundtrip(CompensationRecord(
            lsn=20, client_id="C1", txn_id="T1", prev_lsn=19,
            undo_next_lsn=5, page_id=5, op=UpdateOp.RECORD_MODIFY,
            slot=2, after=b"old",
        ))

    def test_dummy_clr(self):
        roundtrip(CompensationRecord(
            lsn=21, client_id="C1", txn_id="T1", prev_lsn=20,
            undo_next_lsn=3, page_id=-1, op=None,
        ))

    def test_commit_prepare_end(self):
        roundtrip(CommitRecord(lsn=1, client_id="C1", txn_id="T1", prev_lsn=0))
        roundtrip(PrepareRecord(
            lsn=2, client_id="C1", txn_id="T1", prev_lsn=1,
            locks=((("rec", 1, 2), "X"), (("tab", "t"), "IX")),
        ))
        roundtrip(EndRecord(lsn=3, client_id="C1", txn_id="T1", prev_lsn=2,
                            outcome=TxnOutcome.ABORTED))

    def test_checkpoint_records(self):
        roundtrip(BeginCheckpointRecord(
            lsn=30, client_id=SERVER_ID, txn_id=None, prev_lsn=0,
            owner=SERVER_ID,
        ))
        roundtrip(EndCheckpointRecord(
            lsn=31, client_id=SERVER_ID, txn_id=None, prev_lsn=30,
            owner=SERVER_ID,
            dirty_pages=(DirtyPageEntry(1, 5, 100), DirtyPageEntry(2, 9, 250)),
            transactions=(TxnTableEntry("T1", "C1", "active", 9, 9, 5),),
        ))

    def test_cdpl(self):
        roundtrip(CDPLRecord(
            lsn=40, client_id=SERVER_ID, txn_id="T2", prev_lsn=0,
            entries=(DirtyPageEntry(3, 7, 80),),
        ))


class TestSemantics:
    def test_is_redoable(self):
        update = UpdateRecord(lsn=1, client_id="C", txn_id="T", prev_lsn=0)
        clr = CompensationRecord(lsn=2, client_id="C", txn_id="T", prev_lsn=1)
        commit = CommitRecord(lsn=3, client_id="C", txn_id="T", prev_lsn=2)
        assert update.is_redoable() and clr.is_redoable()
        assert not commit.is_redoable()

    def test_logical_undo_flag(self):
        idx = UpdateRecord(lsn=1, client_id="C", txn_id="T", prev_lsn=0,
                           op=UpdateOp.INDEX_INSERT)
        rec = UpdateRecord(lsn=2, client_id="C", txn_id="T", prev_lsn=1,
                           op=UpdateOp.RECORD_MODIFY)
        assert idx.undo_is_logical()
        assert not rec.undo_is_logical()

    def test_with_dirty_pages_rewrites_dpl_only(self):
        """The server's RecLSN -> RecAddr rewrite (section 2.6.1)."""
        end = EndCheckpointRecord(
            lsn=9, client_id="C1", txn_id=None, prev_lsn=8, owner="C1",
            dirty_pages=(DirtyPageEntry(1, 5, -1),),
            transactions=(TxnTableEntry("T", "C1", "active", 5, 5, 1),),
        )
        rewritten = end.with_dirty_pages((DirtyPageEntry(1, 5, 777),))
        assert rewritten.dirty_pages[0].rec_addr == 777
        assert rewritten.lsn == end.lsn
        assert rewritten.transactions == end.transactions
        # The original is frozen and unchanged.
        assert end.dirty_pages[0].rec_addr == -1

    def test_memo_is_not_a_field(self):
        record = CommitRecord(lsn=1, client_id="C", txn_id="T", prev_lsn=0)
        encode_record(record)
        assert record == CommitRecord(lsn=1, client_id="C", txn_id="T",
                                      prev_lsn=0)
        assert "_frame" not in repr(record)

    def test_records_are_immutable(self):
        record = CommitRecord(lsn=1, client_id="C", txn_id="T", prev_lsn=0)
        with pytest.raises(AttributeError):
            record.lsn = 2  # type: ignore[misc]


class TestFrameMemo:
    def test_encoding_twice_encodes_once(self, encodes):
        record = dataclasses.replace(EVERY_KIND[0])  # no memo yet
        first = encode_record(record)
        assert encode_record(record) is first
        assert encodes == [record]

    def test_replace_copy_encodes_afresh(self, encodes):
        end = EVERY_KIND[7]
        original = encode_record(end)
        rewritten = end.with_dirty_pages((DirtyPageEntry(1, 5, 777),))
        frame = encode_record(rewritten)
        assert frame != original
        assert decode_record(frame).dirty_pages[0].rec_addr == 777
        assert encodes[-1] is rewritten

    def test_decode_seeds_the_memo(self, encodes):
        frame = encode_record(dataclasses.replace(EVERY_KIND[4]))
        encodes.clear()
        decoded = decode_record(frame)
        assert encode_record(decoded) is frame
        assert encodes == []

    @pytest.mark.parametrize("record", EVERY_KIND,
                             ids=lambda r: r.type_name)
    def test_encoder_reproduces_decoded_bytes(self, record, encodes):
        """The memo cannot hide an encoder bug: the encoder proper, run
        on a fresh equal copy of a decoded record, yields the bytes the
        record was decoded from."""
        frame = log_records._encode_frame(record)
        decoded = decode_record(frame)
        fresh = dataclasses.replace(decoded)
        assert fresh == decoded == record
        encodes.clear()
        assert encode_record(fresh) == frame
        assert encodes == [fresh]
