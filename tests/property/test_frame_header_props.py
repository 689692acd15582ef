"""Property tests: header peeking agrees with full decoding.

``peek_header`` is the lazy read under every header-only scan in
recovery; if it ever disagrees with ``decode_record`` on any encodable
record, analysis/redo/undo would silently dispatch on wrong fields.
These properties pin the agreement for every record type, including the
rare shapes the walk hands to the codec's single-value reader (BIGINT
LSNs, unicode ids, ``None`` transaction ids, dummy CLRs).
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import codec
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    CommitRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    EndRecord,
    NULL_LSN,
    PrepareRecord,
    TxnOutcome,
    UpdateOp,
    UpdateRecord,
    decode_record,
    encode_record,
    peek_header,
)

# LSNs including values past 2**63, which the codec stores as BIGINT —
# a tag the frame walk does not read inline.
lsns = st.one_of(
    st.integers(min_value=0, max_value=2 ** 62),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),
)
client_ids = st.text(min_size=1, max_size=12)
txn_ids = st.one_of(st.none(), st.text(min_size=1, max_size=16))
payloads = st.one_of(st.none(), st.binary(max_size=64))


common = {
    "lsn": lsns, "client_id": client_ids,
    "txn_id": txn_ids, "prev_lsn": lsns,
}

updates = st.builds(
    UpdateRecord, **common,
    page_id=st.integers(min_value=0, max_value=2 ** 31),
    op=st.sampled_from(UpdateOp), slot=st.integers(-1, 64),
    before=payloads, after=payloads, redo_only=st.booleans(),
    key=payloads,
    page_kind=st.one_of(st.none(), st.sampled_from(["data", "index"])),
)

clrs = st.builds(
    CompensationRecord, **common,
    undo_next_lsn=st.one_of(st.just(NULL_LSN), lsns),
    # Dummy CLRs (op=None, page_id=-1) are the paper's way of making
    # partial rollbacks restartable; they must peek correctly too.
    page_id=st.integers(min_value=-1, max_value=2 ** 31),
    op=st.one_of(st.none(), st.sampled_from(UpdateOp)),
    slot=st.integers(-1, 64), after=payloads, key=payloads,
)

dpl_entries = st.lists(
    st.builds(DirtyPageEntry, page_id=st.integers(0, 100),
              rec_lsn=st.integers(0, 2 ** 40)),
    max_size=4).map(tuple)

records = st.one_of(
    updates,
    clrs,
    st.builds(CommitRecord, **common),
    st.builds(PrepareRecord, **common,
              locks=st.lists(st.tuples(st.text(max_size=8),
                                       st.text(max_size=4)),
                             max_size=3).map(tuple)),
    st.builds(EndRecord, **common, outcome=st.sampled_from(TxnOutcome)),
    st.builds(BeginCheckpointRecord, **common, owner=client_ids),
    st.builds(EndCheckpointRecord, **common, owner=client_ids,
              dirty_pages=dpl_entries),
    st.builds(CDPLRecord, **common, entries=dpl_entries),
)


class TestPeekHeaderProperties:
    @given(records)
    def test_peek_agrees_with_full_decode(self, record):
        frame = encode_record(record)
        full = decode_record(frame)
        header = peek_header(frame)
        assert header.record_class is type(full)
        assert header.type_name == type(full).__name__
        assert header.lsn == full.lsn
        assert header.client_id == full.client_id
        assert header.txn_id == full.txn_id
        assert header.prev_lsn == full.prev_lsn
        assert header.is_update() == isinstance(full, UpdateRecord)
        assert header.is_clr() == isinstance(full, CompensationRecord)
        assert header.is_redoable() == full.is_redoable()
        if isinstance(full, (UpdateRecord, CompensationRecord)):
            assert header.page_id == full.page_id
        if isinstance(full, UpdateRecord):
            assert header.redo_only == full.redo_only
        if isinstance(full, CompensationRecord):
            assert header.undo_next_lsn == full.undo_next_lsn

    @given(records, st.integers(0, 3), st.integers(0, 3))
    def test_peek_in_concatenated_buffer(self, record, before, after):
        """In-place peeking inside a larger buffer (the stable log's
        backing bytearray) sees exactly the framed record."""
        frame = encode_record(record)
        pre = encode_record(CommitRecord(
            lsn=1, client_id="pad", txn_id="P", prev_lsn=0)) * before
        post = b"\xff" * after
        buf = bytearray(pre + frame + post)
        from repro.core.log_records import peek_header_in
        header = peek_header_in(buf, len(pre), len(pre) + len(frame))
        assert header.lsn == record.lsn
        assert header.record_class is type(record)

    @given(st.binary(max_size=48))
    def test_garbage_never_crashes(self, blob):
        """Random bytes either peek (if they happen to be a valid frame
        prefix shape) or raise CodecError — never anything else."""
        try:
            peek_header(blob)
        except codec.CodecError:
            pass

    @given(records)
    def test_truncated_frames_rejected(self, record):
        frame = encode_record(record)
        with pytest.raises(codec.CodecError):
            peek_header(frame[:4])

    @pytest.mark.parametrize("peek", ["bytes", "in_place"])
    def test_invalid_utf8_id_raises_codec_error(self, peek):
        """A client id that is not valid UTF-8 is malformed input: the
        peek raises CodecError, as decode_record does, and not the
        UnicodeDecodeError of the id cache."""
        frame = encode_record(CommitRecord(
            lsn=5, client_id="C1", txn_id="C1.T1", prev_lsn=4))
        bad = bytearray(frame)
        bad[frame.index(b"C1")] = 0xFF
        with pytest.raises(codec.CodecError):
            decode_record(bytes(bad))
        with pytest.raises(codec.CodecError):
            if peek == "bytes":
                peek_header(bytes(bad))
            else:
                from repro.core.log_records import peek_header_in
                peek_header_in(bytearray(b"pad") + bad, 3, 3 + len(bad))
