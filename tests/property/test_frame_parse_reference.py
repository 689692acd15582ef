"""Property tests: the one-walk frame parser against a codec reference.

``decode_record`` and ``peek_header`` read a frame in one straight-line
walk, with the common tags inline and every other tag handed to the
codec's single-value reader.  The reference below is the plain way to
read a frame: ``codec.decode`` the whole tuple, check that it has as
many items as its kind encodes, then build the record from its fields.
A non-codec error the reference meets while building (an unknown op, a
checkpoint entry that is not a tuple) counts as malformed input, i.e.
as ``CodecError``.  The count check is the one rule the record builder
did not have before the walk: it took the first fields of a commit,
prepare, end, begin-checkpoint or dirty-page-list frame and dropped the
rest, so one changed type-tag byte turned an End_Checkpoint into a
Begin_Checkpoint.

The walk must equal the reference on every encodable record, including
the legal rare shapes (an int ``key``, an LSN of 2**63 or more, a
``None`` txn id, empty and non-ASCII ids, ``page_kind`` set, a CLR with
``op=None``).  On damaged frames, every strict prefix and one-byte
substitutions at every offset, the walk must decode exactly what the
reference decodes or raise ``CodecError`` where it does, never another
exception; a peek in place inside a larger buffer must behave exactly
like a peek of the frame alone.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

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
    TxnTableEntry,
    UpdateOp,
    UpdateRecord,
    decode_record,
    encode_record,
    peek_header,
    peek_header_in,
)

# ---------------------------------------------------------------------------
# The reference decoder
# ---------------------------------------------------------------------------

_CLASSES = {
    "UPD": UpdateRecord, "CLR": CompensationRecord, "CMT": CommitRecord,
    "PRE": PrepareRecord, "END": EndRecord, "BCP": BeginCheckpointRecord,
    "ECP": EndCheckpointRecord, "CDP": CDPLRecord,
}
#: Items in each kind's top-level tuple: five header fields plus the body.
_ITEMS = {"UPD": 13, "CLR": 11, "CMT": 5, "PRE": 6,
          "END": 6, "BCP": 6, "ECP": 8, "CDP": 6}


def _dpl_entry(raw):
    return DirtyPageEntry(page_id=raw[0], rec_lsn=raw[1], rec_addr=raw[2])


def _txn_entry(raw):
    return TxnTableEntry(txn_id=raw[0], client_id=raw[1], state=raw[2],
                         last_lsn=raw[3], undo_next_lsn=raw[4],
                         first_lsn=raw[5])


def _from_fields(fields_):
    tag, lsn, client_id, txn_id, prev_lsn = fields_[:5]
    cls = _CLASSES.get(tag)
    if cls is None:
        raise codec.CodecError(f"unknown log record tag {tag!r}")
    if len(fields_) != _ITEMS[tag]:
        raise codec.CodecError(f"{tag} record with {len(fields_)} items")
    common = dict(lsn=lsn, client_id=client_id, txn_id=txn_id,
                  prev_lsn=prev_lsn)
    body = fields_[5:]
    if cls is UpdateRecord:
        page_id, op, slot, before, after, redo_only, key, page_kind = body
        return UpdateRecord(page_id=page_id, op=UpdateOp(op), slot=slot,
                            before=before, after=after, redo_only=redo_only,
                            key=key, page_kind=page_kind, **common)
    if cls is CompensationRecord:
        undo_next_lsn, page_id, op, slot, after, key = body
        return CompensationRecord(
            undo_next_lsn=undo_next_lsn, page_id=page_id,
            op=UpdateOp(op) if op is not None else None, slot=slot,
            after=after, key=key, **common)
    if cls is CommitRecord:
        return CommitRecord(**common)
    if cls is PrepareRecord:
        return PrepareRecord(locks=body[0], **common)
    if cls is EndRecord:
        return EndRecord(outcome=TxnOutcome(body[0]), **common)
    if cls is BeginCheckpointRecord:
        return BeginCheckpointRecord(owner=body[0], **common)
    if cls is EndCheckpointRecord:
        owner, dpl_raw, txn_raw = body
        return EndCheckpointRecord(
            owner=owner, dirty_pages=tuple(_dpl_entry(e) for e in dpl_raw),
            transactions=tuple(_txn_entry(t) for t in txn_raw), **common)
    return CDPLRecord(entries=tuple(_dpl_entry(e) for e in body[0]), **common)


def reference_decode(frame):
    decoded = codec.decode(frame)
    try:
        return _from_fields(decoded)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise codec.CodecError(f"malformed record: {exc}") from exc


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

FAILED = "CodecError"


def outcome(parse, frame):
    """What ``parse`` makes of ``frame``: its result, or FAILED on a
    CodecError.  Any other exception escapes and fails the test."""
    try:
        return parse(frame)
    except codec.CodecError:
        return FAILED


def typed(values):
    """Values with their types, so ``True`` never passes for ``1``."""
    return tuple((type(value), value) for value in values)


def record_view(record):
    if record == FAILED:
        return FAILED
    return (type(record),
            typed(getattr(record, f.name) for f in fields(record)))


def header_view(header):
    if header == FAILED:
        return FAILED
    return typed((header.type_tag, header.lsn, header.client_id,
                  header.txn_id, header.prev_lsn, header.page_id,
                  header.undo_next_lsn, header.redo_only))


def expected_header(record):
    """The header view a peek must give for a decoded ``record``."""
    tag = next(t for t, cls in _CLASSES.items() if type(record) is cls)
    redoable = isinstance(record, (UpdateRecord, CompensationRecord))
    return typed((
        tag, record.lsn, record.client_id, record.txn_id, record.prev_lsn,
        record.page_id if redoable else -1,
        record.undo_next_lsn if isinstance(record, CompensationRecord)
        else NULL_LSN,
        record.redo_only if isinstance(record, UpdateRecord) else False,
    ))


def peek_in_place(frame):
    """Peek ``frame`` inside a larger bytearray, as the stable log does,
    with bytes on both sides that a bound overrun would read."""
    buf = bytearray(b"\x49" * 7) + frame + bytearray(b"\x54\x00\x00" * 9)
    return peek_header_in(buf, 7, 7 + len(frame))


# ---------------------------------------------------------------------------
# Records, including the legal rare shapes
# ---------------------------------------------------------------------------

lsns = st.one_of(
    st.integers(min_value=0, max_value=2 ** 62),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),
)
ids = st.text(max_size=10)
txn_ids = st.one_of(st.none(), ids)
images = st.one_of(st.none(), st.binary(max_size=40))
keys = st.one_of(images, st.integers(min_value=-2 ** 70, max_value=2 ** 70))
common = {"lsn": lsns, "client_id": ids, "txn_id": txn_ids, "prev_lsn": lsns}

updates = st.builds(
    UpdateRecord, **common,
    page_id=st.integers(min_value=0, max_value=2 ** 31),
    op=st.sampled_from(UpdateOp), slot=st.integers(-1, 64),
    before=images, after=images, redo_only=st.booleans(), key=keys,
    page_kind=st.one_of(st.none(), st.sampled_from(["data", "index"])),
)
clrs = st.builds(
    CompensationRecord, **common,
    undo_next_lsn=st.one_of(st.just(NULL_LSN), lsns),
    page_id=st.integers(min_value=-1, max_value=2 ** 31),
    op=st.one_of(st.none(), st.sampled_from(UpdateOp)),
    slot=st.integers(-1, 64), after=images, key=keys,
)
dpl_entries = st.lists(
    st.builds(DirtyPageEntry, page_id=st.integers(0, 100),
              rec_lsn=st.integers(0, 2 ** 40),
              rec_addr=st.integers(0, 2 ** 40)),
    max_size=3).map(tuple)
txn_entries = st.lists(
    st.builds(TxnTableEntry, txn_id=ids, client_id=ids,
              state=st.sampled_from(["active", "prepared", "committed"]),
              last_lsn=lsns, undo_next_lsn=lsns, first_lsn=lsns),
    max_size=2).map(tuple)

records = st.one_of(
    updates,
    clrs,
    st.builds(CommitRecord, **common),
    st.builds(PrepareRecord, **common,
              locks=st.lists(st.tuples(st.tuples(st.text(max_size=4),
                                                 st.integers(0, 9)),
                                       st.sampled_from(["S", "X"])),
                             max_size=2).map(tuple)),
    st.builds(EndRecord, **common, outcome=st.sampled_from(TxnOutcome)),
    st.builds(BeginCheckpointRecord, **common, owner=ids),
    st.builds(EndCheckpointRecord, **common, owner=ids,
              dirty_pages=dpl_entries, transactions=txn_entries),
    st.builds(CDPLRecord, **common, entries=dpl_entries),
)

#: The codec's tag bytes: substituting one of them re-types a value
#: while keeping the walk going, which random bytes rarely do.
TAG_BYTES = b"NtfIGSBT"

#: One record of every kind in the shape the system writes it, plus the
#: rare shapes, walked deterministically so that every inline read and
#: every bound check meets a truncation and a re-typed byte.
SHAPES = [
    UpdateRecord(lsn=40, client_id="C1", txn_id="C1.T7", prev_lsn=39,
                 page_id=12, op=UpdateOp.RECORD_MODIFY, slot=3,
                 before=b"old", after=b"new"),
    UpdateRecord(lsn=41, client_id="C1", txn_id="C1.T7", prev_lsn=40,
                 page_id=12, op=UpdateOp.PAGE_FORMAT, redo_only=True,
                 page_kind="data"),
    UpdateRecord(lsn=2 ** 63, client_id="", txn_id=None, prev_lsn=2 ** 64,
                 page_id=5, op=UpdateOp.INDEX_INSERT, slot=0,
                 after=b"k", key=-(2 ** 65)),
    CompensationRecord(lsn=42, client_id="C1", txn_id="C1.T7", prev_lsn=41,
                       undo_next_lsn=39, page_id=12,
                       op=UpdateOp.RECORD_MODIFY, slot=3, after=b"old"),
    CompensationRecord(lsn=43, client_id="Ç1", txn_id="Ç1.T8", prev_lsn=42,
                       undo_next_lsn=NULL_LSN),
    CommitRecord(lsn=44, client_id="C1", txn_id="C1.T7", prev_lsn=43),
    PrepareRecord(lsn=45, client_id="C2", txn_id="C2.T1", prev_lsn=0,
                  locks=((("page", 12), "X"),)),
    EndRecord(lsn=46, client_id="C1", txn_id="C1.T7", prev_lsn=44,
              outcome=TxnOutcome.ABORTED),
    BeginCheckpointRecord(lsn=47, client_id="SERVER", txn_id=None,
                          prev_lsn=0, owner="SERVER"),
    EndCheckpointRecord(
        lsn=48, client_id="SERVER", txn_id=None, prev_lsn=47, owner="C1",
        dirty_pages=(DirtyPageEntry(12, 39, 1000),),
        transactions=(TxnTableEntry("C1.T7", "C1", "active", 41, 41, 39),)),
    CDPLRecord(lsn=49, client_id="SERVER", txn_id=None, prev_lsn=48,
               entries=(DirtyPageEntry(12, 39, 1000),)),
    # Not a record the system writes, but a frame the codec reads: the
    # walk must read any value where it expects an LSN or an id, and a
    # frame shorter than the usual fixed prefix.
    CommitRecord(lsn=None, client_id="", txn_id=None, prev_lsn=None),
    EndRecord(lsn=b"\x01", client_id=7, txn_id=(1, "t"), prev_lsn=True),
]


def check_prefixes(record):
    frame = encode_record(record)
    full_header = header_view(peek_header(frame))
    for cut in range(len(frame)):
        prefix = frame[:cut]
        assert outcome(reference_decode, prefix) == FAILED
        assert outcome(decode_record, prefix) == FAILED
        peeked = header_view(outcome(peek_header, prefix))
        assert peeked in (FAILED, full_header), cut
        assert header_view(outcome(
            peek_in_place, bytearray(prefix))) == peeked, cut


def check_substitution(frame, at, byte):
    damaged = bytearray(frame)
    damaged[at] = byte
    damaged = bytes(damaged)
    want = outcome(reference_decode, damaged)
    got = outcome(decode_record, damaged)
    assert record_view(got) == record_view(want), (at, byte)
    peeked = header_view(outcome(peek_header, damaged))
    if want != FAILED:
        assert peeked == expected_header(want), (at, byte)
    assert header_view(outcome(
        peek_in_place, bytearray(damaged))) == peeked, (at, byte)


class TestParserMatchesReference:
    @given(records)
    def test_decode_equals_reference(self, record):
        frame = encode_record(record)
        decoded = decode_record(frame)
        assert record_view(decoded) == record_view(reference_decode(frame))
        assert decoded == record

    @given(records)
    def test_peek_agrees_with_reference(self, record):
        frame = encode_record(record)
        want = expected_header(reference_decode(frame))
        assert header_view(peek_header(frame)) == want
        assert header_view(peek_in_place(bytearray(frame))) == want

    @settings(max_examples=40, deadline=None)
    @given(records)
    def test_strict_prefixes(self, record):
        check_prefixes(record)

    @settings(max_examples=40, deadline=None)
    @given(records, st.randoms(use_true_random=False))
    def test_one_byte_substitutions(self, record, rng):
        frame = encode_record(record)
        for at in range(len(frame)):
            for byte in {frame[at] ^ 0xFF, rng.randrange(256),
                         rng.choice(TAG_BYTES)}:
                check_substitution(frame, at, byte)


@pytest.mark.parametrize("record", SHAPES, ids=lambda r: type(r).__name__)
class TestShapes:
    def test_equals_reference(self, record):
        frame = encode_record(record)
        assert record_view(decode_record(frame)) == record_view(
            reference_decode(frame))
        assert header_view(peek_header(frame)) == expected_header(record)

    def test_strict_prefixes(self, record):
        check_prefixes(record)

    def test_one_byte_substitutions(self, record):
        frame = encode_record(record)
        for at in range(len(frame)):
            for byte in {frame[at] ^ 0xFF, *TAG_BYTES}:
                check_substitution(frame, at, byte)
