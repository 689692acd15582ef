"""Log record taxonomy for ARIES/CSA, with a real byte format.

Every mutation in the complex is described by one of the record classes
here.  Records are written by client log managers (buffered in virtual
storage, section 2.1) or by the server's own log manager, and all end up
appended to the single stable log at the server, where they acquire a
**log address** (byte offset).  The LSN inside a record is the update
sequence number assigned locally by the writing system (section 2.2);
the address is assigned by the server on append.

Record kinds
------------

``UpdateRecord``
    A redo-undo (or redo-only) change to one page: record insert /
    modify / delete, space-map allocate / deallocate, page format, and
    the B+-tree operations.  Index operations carry the key so that undo
    can be *logical* (section 1.1.2): at undo time the key may have moved
    to a different page.

``CompensationRecord`` (CLR)
    Redo-only description of one undone update.  Its ``undo_next_lsn``
    points at the predecessor (``prev_lsn``) of the record it compensates,
    which is what bounds logging under repeated failures.

``CommitRecord`` / ``PrepareRecord`` / ``EndRecord``
    Transaction state transitions.  ``EndRecord`` closes a transaction
    after commit processing or after a total rollback.

``BeginCheckpointRecord`` / ``EndCheckpointRecord``
    Written by the server for its own (coordinated) checkpoints and by
    clients for theirs.  A client's End_Checkpoint carries RecLSNs; the
    server rewrites them to RecAddrs before appending (section 2.6.1),
    which is why :class:`DirtyPageEntry` has both fields.

``CDPLRecord``
    The ESM-CS baseline's Commit Dirty Page List (section 4.1), logged by
    the server just before a commit record.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core import codec
from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN

#: client_id used in records written by the server itself.
SERVER_ID = "SERVER"


class UpdateOp(enum.Enum):
    """The physical operation an update (or CLR) performs on a page."""

    RECORD_INSERT = "rec-insert"
    RECORD_MODIFY = "rec-modify"
    RECORD_DELETE = "rec-delete"
    PAGE_FORMAT = "page-format"
    SMP_ALLOCATE = "smp-allocate"
    SMP_DEALLOCATE = "smp-deallocate"
    INDEX_INSERT = "idx-insert"
    INDEX_DELETE = "idx-delete"
    META_SET = "meta-set"


#: Operations whose undo is logical (re-traverse the index by key) rather
#: than physical (reapply the before-image on the same page/slot).
LOGICAL_UNDO_OPS = frozenset({UpdateOp.INDEX_INSERT, UpdateOp.INDEX_DELETE})


class TxnOutcome(enum.Enum):
    """Terminal state recorded in an :class:`EndRecord`."""

    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class DirtyPageEntry:
    """One dirty-page-list entry inside an End_Checkpoint record.

    ``rec_lsn`` is the client-side bound (no update records for the page
    with LSN <= rec_lsn are missing from the server version); ``rec_addr``
    is the server-side bound in log-address space after the server's
    RecLSN -> RecAddr mapping.  For server-originated entries ``rec_lsn``
    is NULL_LSN and only ``rec_addr`` is meaningful.
    """

    page_id: int
    rec_lsn: LSN = NULL_LSN
    rec_addr: LogAddr = NULL_ADDR


@dataclass(frozen=True)
class TxnTableEntry:
    """One transaction-table entry inside an End_Checkpoint record."""

    txn_id: str
    client_id: str
    state: str
    last_lsn: LSN
    undo_next_lsn: LSN
    first_lsn: LSN


@dataclass(frozen=True)
class LogRecord:
    """Common header shared by all log records."""

    lsn: LSN
    client_id: str
    txn_id: Optional[str]
    prev_lsn: LSN

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def is_update(self) -> bool:
        return isinstance(self, UpdateRecord)

    def is_clr(self) -> bool:
        return isinstance(self, CompensationRecord)

    def is_redoable(self) -> bool:
        """True for records that change a page image (update or CLR)."""
        return isinstance(self, (UpdateRecord, CompensationRecord))

    @cached_property
    def _frame(self) -> bytes:
        """The encoded frame, memoized: a record is immutable, so wire
        sizing and every log that appends it share one encoding.
        ``cached_property`` writes the instance ``__dict__`` directly,
        past the frozen ``__setattr__``; a copy (``with_dirty_pages``)
        is a fresh instance, which encodes afresh."""
        return _encode_frame(self)


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    """A change to one page, logged during forward processing.

    ``before`` / ``after`` are physical images of the affected slot (or
    page metadata value for META_SET / page-level ops).  ``redo_only``
    marks records that are never undone individually: page formats and
    structural changes inside nested top actions.  ``key`` is set for
    index operations and names the logical entity for logical undo.
    """

    page_id: int = 0
    op: UpdateOp = UpdateOp.RECORD_MODIFY
    slot: int = -1
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    redo_only: bool = False
    key: Optional[bytes] = None
    page_kind: Optional[str] = None

    def undo_is_logical(self) -> bool:
        return self.op in LOGICAL_UNDO_OPS


@dataclass(frozen=True)
class CompensationRecord(LogRecord):
    """A CLR: redo-only record of one undone update.

    ``undo_next_lsn`` is the LSN of the next record of this transaction
    that remains to be undone — the ``prev_lsn`` of the record this CLR
    compensates.  A *dummy* CLR (``page_id == -1``, ``op is None``) closes
    a nested top action without performing a page change.
    """

    undo_next_lsn: LSN = NULL_LSN
    page_id: int = -1
    op: Optional[UpdateOp] = None
    slot: int = -1
    after: Optional[bytes] = None
    key: Optional[bytes] = None


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    """Transaction commit.  Forced to stable storage before the commit
    is acknowledged to the application (section 2.1)."""


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """Two-phase-commit prepare: the transaction becomes in-doubt and is
    *not* rolled back by restart recovery (section 1.1.2).

    The locks the transaction holds are logged with the prepare record so
    the server can hand them back to a recovering client for in-doubt
    reacquisition (section 2.6.1).  Each lock is a (resource-tuple,
    mode-string) pair.
    """

    locks: Tuple = ()


@dataclass(frozen=True)
class EndRecord(LogRecord):
    """Transaction completion (after commit processing or rollback)."""

    outcome: TxnOutcome = TxnOutcome.COMMITTED


@dataclass(frozen=True)
class BeginCheckpointRecord(LogRecord):
    """Start of a checkpoint by ``owner`` (a client id or SERVER_ID)."""

    owner: str = SERVER_ID


@dataclass(frozen=True)
class EndCheckpointRecord(LogRecord):
    """End of a checkpoint: the collected DPL and transaction table."""

    owner: str = SERVER_ID
    dirty_pages: Tuple[DirtyPageEntry, ...] = ()
    transactions: Tuple[TxnTableEntry, ...] = ()

    def with_dirty_pages(self, entries: Tuple[DirtyPageEntry, ...]) -> "EndCheckpointRecord":
        """Return a copy with the DPL replaced.

        Used by the server to substitute RecAddrs for the RecLSNs in a
        client's End_Checkpoint before appending it (section 2.6.1).
        The copy is a fresh object, so it encodes afresh.
        """
        return EndCheckpointRecord(self.lsn, self.client_id, self.txn_id,
                                   self.prev_lsn, self.owner, entries,
                                   self.transactions)


@dataclass(frozen=True)
class CDPLRecord(LogRecord):
    """ESM-CS's Commit Dirty Page List, logged before a commit record."""

    entries: Tuple[DirtyPageEntry, ...] = ()


# ---------------------------------------------------------------------------
# Byte format
# ---------------------------------------------------------------------------

_TYPE_TAGS: Dict[str, Type[LogRecord]] = {
    "UPD": UpdateRecord,
    "CLR": CompensationRecord,
    "CMT": CommitRecord,
    "PRE": PrepareRecord,
    "END": EndRecord,
    "BCP": BeginCheckpointRecord,
    "ECP": EndCheckpointRecord,
    "CDP": CDPLRecord,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _TYPE_TAGS.items()}


def encode_record(record: LogRecord) -> bytes:
    """Serialize a log record to bytes (the stable log stores these).

    Encodes on the first call per record object; later calls return the
    same bytes.
    """
    return record._frame


def _encode_frame(record: LogRecord) -> bytes:
    """The encoder proper, run at most once per record object.

    UPD, CLR, CMT, END, BCP and ECP frames are written by one
    straight-line writer each (see "Writing" below); a frame they
    decline, and every PRE and CDP frame, goes through
    :func:`codec.encode` of its fields.
    """
    write = _WRITERS.get(record.__class__)
    if write is not None:
        try:
            frame = write(record)
        except struct.error:  # an int outside i64
            frame = None
        if frame is not None:
            return frame
    return codec.encode(_frame_fields(record))


def _frame_fields(record: LogRecord) -> Tuple:
    """The frame as the tuple the codec encodes: prefix plus body."""
    header = (
        _TAG_BY_TYPE[type(record)],
        record.lsn,
        record.client_id,
        record.txn_id,
        record.prev_lsn,
    )
    body: Tuple = ()
    if isinstance(record, UpdateRecord):
        body = (
            record.page_id,
            record.op.value,
            record.slot,
            record.before,
            record.after,
            record.redo_only,
            record.key,
            record.page_kind,
        )
    elif isinstance(record, CompensationRecord):
        body = (
            record.undo_next_lsn,
            record.page_id,
            record.op.value if record.op is not None else None,
            record.slot,
            record.after,
            record.key,
        )
    elif isinstance(record, PrepareRecord):
        body = (record.locks,)
    elif isinstance(record, EndRecord):
        body = (record.outcome.value,)
    elif isinstance(record, BeginCheckpointRecord):
        body = (record.owner,)
    elif isinstance(record, EndCheckpointRecord):
        body = (
            record.owner,
            tuple(_encode_dpl_entry(e) for e in record.dirty_pages),
            tuple(_encode_txn_entry(t) for t in record.transactions),
        )
    elif isinstance(record, CDPLRecord):
        body = (tuple(_encode_dpl_entry(e) for e in record.entries),)
    return header + body


# ---------------------------------------------------------------------------
# Frame headers: lazy decoding for scan-heavy paths
# ---------------------------------------------------------------------------
#
# ``peek_header`` reads only the fields recovery filters on, so the
# analysis/redo/undo passes can discard non-matching records without
# materializing slot images, lock lists or checkpoint tables.  The byte
# format itself is unchanged: a header peek reads the same bytes a full
# ``decode_record`` would, it just stops early.


class FrameHeader:
    """The filterable prefix of one encoded log record.

    ``page_id`` is ``-1`` for non-page records (matching the dummy-CLR
    convention); ``undo_next_lsn`` is ``NULL_LSN`` except for CLRs;
    ``redo_only`` is ``False`` except for redo-only updates.
    ``body_at`` is where the body starts, counted from the frame's first
    byte: :func:`redo_effect` walks the body from there, so a peeked
    frame's prefix is never parsed twice.
    """

    __slots__ = (
        "type_tag", "lsn", "client_id", "txn_id",
        "prev_lsn", "body_at", "page_id", "undo_next_lsn", "redo_only",
    )

    def __init__(self, type_tag: str, lsn: LSN, client_id: str,
                 txn_id: Optional[str], prev_lsn: LSN, body_at: int,
                 page_id: int = -1, undo_next_lsn: LSN = NULL_LSN,
                 redo_only: bool = False) -> None:
        self.type_tag = type_tag
        self.lsn = lsn
        self.client_id = client_id
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.body_at = body_at
        self.page_id = page_id
        self.undo_next_lsn = undo_next_lsn
        self.redo_only = redo_only

    @property
    def record_class(self) -> Type[LogRecord]:
        return _TYPE_TAGS[self.type_tag]

    @property
    def type_name(self) -> str:
        return _TYPE_TAGS[self.type_tag].__name__

    def is_update(self) -> bool:
        return self.type_tag == "UPD"

    def is_clr(self) -> bool:
        return self.type_tag == "CLR"

    def is_redoable(self) -> bool:
        """True for records that change a page image (update or CLR)."""
        return self.type_tag == "UPD" or self.type_tag == "CLR"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameHeader({self.type_tag} lsn={self.lsn} client={self.client_id}"
            f" txn={self.txn_id} prev={self.prev_lsn} page={self.page_id})"
        )


# ---------------------------------------------------------------------------
# Parsing: one straight-line walk per frame
# ---------------------------------------------------------------------------
#
# Every frame is a top-level tuple whose first five items are the fixed
# prefix (type_tag, lsn, client_id, txn_id, prev_lsn); for the two
# redoable kinds the body leads with the fields recovery filters on
# (page_id for UPD; undo_next_lsn and page_id for CLR).  ``_parse_prefix``
# reads the prefix for both consumers: ``peek_header_in`` stops after the
# filter fields, ``decode_record`` walks on to the frame's end.  A field
# with its usual tag is read inline; any other tag (a BIGINT LSN, an int
# ``key``, a damaged byte) goes through the codec's single-value reader
# at the same offset.  Legal rare shapes therefore decode exactly as the
# codec would, and malformed input raises ``codec.CodecError`` from the
# same walk.  Every read is checked against the frame's end first.

#: Items in a frame's top-level tuple, by kind: the five-field prefix
#: plus the body ``_encode_frame`` writes.
_FIELD_COUNTS: Dict[str, int] = {
    "UPD": 13, "CLR": 11, "CMT": 5, "PRE": 6,
    "END": 6, "BCP": 6, "ECP": 8, "CDP": 6,
}

# Interned type tags and ops keyed by their encoded bytes, so the walk
# never allocates for them.
_TAG_BY_BYTES: Dict[bytes, str] = {tag.encode("ascii"): tag for tag in _TYPE_TAGS}
_OP_BY_BYTES: Dict[bytes, UpdateOp] = {op.value.encode("ascii"): op for op in UpdateOp}
_OP_BY_VALUE: Dict[str, UpdateOp] = {op.value: op for op in UpdateOp}
_OUTCOME_BY_VALUE: Dict[str, TxnOutcome] = {o.value: o for o in TxnOutcome}

_TUPLE = codec.ORD_TUPLE
_STR = codec.ORD_STR
_INT = codec.ORD_INT
_NONE = codec.ORD_NONE
_BYTES = codec.ORD_BYTES
_TRUE = codec.ORD_TRUE
_FALSE = codec.ORD_FALSE
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_str_head = struct.Struct(">BI").unpack_from
# The tuple head and type tag; then, in the common shape, the LSN and
# the client id's string head (see ``_parse_prefix``).
_TAG_HEAD = struct.Struct(">BIBI3s")
_TAG_HEAD_SIZE = _TAG_HEAD.size
_unpack_tag_head = _TAG_HEAD.unpack_from
_HEAD = struct.Struct(">BIBI3sBqBI")
_HEAD_SIZE = _HEAD.size
_unpack_head = _HEAD.unpack_from
_LSN_END = _TAG_HEAD_SIZE + 9
# Two adjacent fields past their tag bytes, which the walk checks first.
_unpack_int_len = struct.Struct(">xqxI").unpack_from
_unpack_two_ints = struct.Struct(">xqxq").unpack_from

# (client_id, txn_id) pairs repeat across a transaction's frames; cache
# their decoding, keyed on the encoded bytes of both (bounded: a scan over
# a hostile buffer must not grow this without limit).
_IDS: Dict[bytes, Tuple[str, Optional[str]]] = {}
_IDS_LIMIT = 4096


def _decode_ids(raw: bytes, txn_at: int) -> Tuple[str, Optional[str]]:
    """Decode the id pair ``raw`` encodes; the txn id's tag is at ``txn_at``."""
    try:
        ids = (raw[5:txn_at].decode("utf-8"),
               raw[txn_at + 5:].decode("utf-8") if raw[txn_at] == _STR
               else None)
    except UnicodeDecodeError as exc:
        raise codec.CodecError(f"invalid utf-8 in id: {exc}") from exc
    if len(_IDS) >= _IDS_LIMIT:
        _IDS.clear()
    _IDS[raw] = ids
    return ids


def _read(buf: codec.Buffer, off: int, end: int) -> Tuple[object, int]:
    """The codec's single-value reader, for a tag the walk does not inline.

    Inside a larger buffer (the stable log's ``bytearray``) it reads a
    copy of the frame's remainder, so values come back as ``bytes``.
    """
    if buf.__class__ is bytes:
        return codec.read_value(buf, off, end)
    rest = bytes(buf[off:end])
    value, used = codec.read_value(rest, 0, len(rest))
    return value, off + used


def _parse_prefix(buf: codec.Buffer, off: int, end: int
                  ) -> Tuple[str, LSN, str, Optional[str], LSN, int]:
    """Read the tuple head and fixed prefix of the frame at ``[off, end)``.

    Returns ``(type_tag, lsn, client_id, txn_id, prev_lsn, body_offset)``.
    The tuple's item count must be the one its kind encodes.
    """
    # Every kind opens with the same 13 bytes, the tuple head and a
    # 3-byte type-tag string.  Then come the LSN, an 8-byte int unless
    # it is huge, and the client id's string tag and length.  One unpack
    # reads all of it from any frame long enough to hold it.
    if off + _HEAD_SIZE <= end:
        (tuple_tag, count, tag_tag, tag_len, raw_tag,
         lsn_tag, lsn, id_tag, id_len) = _unpack_head(buf, off)
    elif off + _TAG_HEAD_SIZE <= end:
        tuple_tag, count, tag_tag, tag_len, raw_tag = _unpack_tag_head(
            buf, off)
        lsn_tag = None
    else:
        raise codec.CodecError("frame shorter than a record prefix")
    if tuple_tag != _TUPLE:
        raise codec.CodecError("frame does not start with a record tuple")
    type_tag = (_TAG_BY_BYTES.get(raw_tag)
                if tag_tag == _STR and tag_len == 3 else None)
    if type_tag is None:
        raise codec.CodecError("unknown log record tag")
    if count != _FIELD_COUNTS[type_tag]:
        raise codec.CodecError(
            f"{type_tag} frame has {count} fields, not {_FIELD_COUNTS[type_tag]}")
    # A helper per field would cost a call per field, so the walk
    # stays inline.
    if lsn_tag == _INT:
        off += _LSN_END
    else:
        lsn, off = _read(buf, off + _TAG_HEAD_SIZE, end)
        id_tag, id_len = (_unpack_str_head(buf, off) if off + 5 <= end
                          else (None, 0))
    # The two ids are one cache lookup, keyed on their encoded bytes:
    # client_id a string, txn_id a string or None.
    nxt = end + 1
    if id_tag == _STR:
        txn_at = off + 5 + id_len
        if txn_at + 5 <= end and buf[txn_at] == _STR:
            nxt = txn_at + 5 + _unpack_u32(buf, txn_at + 1)[0]
        elif txn_at < end and buf[txn_at] == _NONE:
            nxt = txn_at + 1
    if nxt <= end:
        raw = bytes(buf[off:nxt])
        client_id, txn_id = _IDS.get(raw) or _decode_ids(raw, txn_at - off)
        off = nxt
    else:
        client_id, off = _read(buf, off, end)
        txn_id, off = _read(buf, off, end)
    if off + 9 <= end and buf[off] == _INT:
        prev_lsn = _unpack_i64(buf, off + 1)[0]
        off += 9
    else:
        prev_lsn, off = _read(buf, off, end)
    return type_tag, lsn, client_id, txn_id, prev_lsn, off


def peek_header(frame: codec.Buffer) -> FrameHeader:
    """Decode only the header fields of an encoded record frame.

    Agrees with :func:`decode_record` on every shared field (property
    tested) at a fraction of the cost.  Raises :class:`codec.CodecError`
    on malformed input, like a full decode would.
    """
    return peek_header_in(frame, 0, len(frame))


def peek_header_in(buf: codec.Buffer, start: int, end: int) -> FrameHeader:
    """Like :func:`peek_header` for a frame at ``[start, end)`` inside a
    larger buffer — the stable log peeks frames in place, with no slice.
    """
    type_tag, lsn, client_id, txn_id, prev_lsn, off = _parse_prefix(
        buf, start, end)
    body_at = off - start
    if type_tag == "UPD":
        # page_id and the length of the op string in one unpack, then
        # step over op, slot, before and after to reach redo_only.  A
        # length that overruns the frame fails the next bound check.
        if off + 14 <= end and buf[off] == _INT and buf[off + 9] == _STR:
            page_id, op_len = _unpack_int_len(buf, off)
            off += 14 + op_len
        else:
            page_id, off = _read(buf, off, end)
            off = codec.skip_value_at(buf, off, end)
        if off + 9 <= end and buf[off] == _INT:
            off += 9
        else:
            off = codec.skip_value_at(buf, off, end)
        if off + 5 <= end and buf[off] == _BYTES:
            off += 5 + _unpack_u32(buf, off + 1)[0]
        elif off < end and buf[off] == _NONE:
            off += 1
        else:
            off = codec.skip_value_at(buf, off, end)
        if off + 5 <= end and buf[off] == _BYTES:
            off += 5 + _unpack_u32(buf, off + 1)[0]
        elif off < end and buf[off] == _NONE:
            off += 1
        else:
            off = codec.skip_value_at(buf, off, end)
        tag = buf[off] if off < end else None
        if tag == _FALSE:
            redo_only = False
        elif tag == _TRUE:
            redo_only = True
        else:
            redo_only, off = _read(buf, off, end)
        return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn,
                           body_at, page_id, NULL_LSN, redo_only)
    if type_tag == "CLR":
        if off + 18 <= end and buf[off] == _INT and buf[off + 9] == _INT:
            undo_next_lsn, page_id = _unpack_two_ints(buf, off)
        else:
            undo_next_lsn, off = _read(buf, off, end)
            page_id, off = _read(buf, off, end)
        return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn,
                           body_at, page_id, undo_next_lsn)
    return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn, body_at)


def decode_record(data: bytes) -> LogRecord:
    """Deserialize bytes produced by :func:`encode_record`.

    One walk from the first byte to the last: UPD and CLR bodies are
    read inline, other kinds through the codec's single-value reader.
    The record's frame memo is seeded with ``data``, so re-encoding a
    decoded record (shipping it, appending it to a replica) is free.
    """
    end = len(data)
    type_tag, lsn, client_id, txn_id, prev_lsn, off = _parse_prefix(
        data, 0, end)
    record: LogRecord
    if type_tag == "UPD":
        (page_id, op, slot, before, after, redo_only, key, page_kind,
         off) = _update_body(data, off, end)
        record = UpdateRecord(lsn, client_id, txn_id, prev_lsn, page_id, op,
                              slot, before, after, redo_only, key, page_kind)
    elif type_tag == "CLR":
        undo_next_lsn, page_id, op, slot, after, key, off = _clr_body(
            data, off, end)
        record = CompensationRecord(lsn, client_id, txn_id, prev_lsn,
                                    undo_next_lsn, page_id, op, slot, after,
                                    key)
    else:
        body = []
        for _ in range(_FIELD_COUNTS[type_tag] - 5):
            value, off = _read(data, off, end)
            body.append(value)
        record = _build_other(type_tag, lsn, client_id, txn_id, prev_lsn,
                              body)
    if off != end:
        raise codec.CodecError(f"trailing bytes after record ({end - off} left)")
    record.__dict__["_frame"] = data
    return record


#: What redoing one UPD or CLR does to its page: ``(op, slot, after,
#: key, page_kind)``, the arguments of ``apply.apply_redo_effect``.
RedoEffect = Tuple[Optional[UpdateOp], int, Optional[bytes], Optional[bytes],
                   Optional[str]]

#: The first bytes of a UPD or CLR frame: tuple head and type tag.
_REDO_TAG_HEADS: Dict[str, bytes] = {
    tag: _TAG_HEAD.pack(_TUPLE, _FIELD_COUNTS[tag], _STR, 3,
                        tag.encode("ascii"))
    for tag in ("UPD", "CLR")
}


def redo_effect(frame: bytes, header: FrameHeader) -> RedoEffect:
    """The page effect of the UPD or CLR ``frame`` that ``header`` was
    peeked from, with no record object built.

    The walk starts at ``header.body_at``, where the peek's prefix parse
    stopped, and is the body walk :func:`decode_record` runs, so it
    reads what a full decode would and raises :class:`codec.CodecError`
    where a full decode would.  A frame whose type tag, or whose usual
    8-byte LSN, is not the header's is rejected the same way.
    """
    tag = header.type_tag
    end = len(frame)
    if frame[:_TAG_HEAD_SIZE] != _REDO_TAG_HEADS.get(tag):
        raise codec.CodecError(f"frame is not the {tag} its header names")
    if (end >= _LSN_END and frame[_TAG_HEAD_SIZE] == _INT
            and _unpack_i64(frame, _TAG_HEAD_SIZE + 1)[0] != header.lsn):
        raise codec.CodecError(f"frame is not the LSN {header.lsn} its "
                               "header names")
    if tag == "UPD":
        _, op, slot, _, after, _, key, page_kind, off = _update_body(
            frame, header.body_at, end)
    else:
        _, _, op, slot, after, key, off = _clr_body(frame, header.body_at, end)
        page_kind = None
    if off != end:
        raise codec.CodecError(f"trailing bytes after record ({end - off} left)")
    return op, slot, after, key, page_kind


def _update_body(data: bytes, off: int, end: int) -> Tuple[Any, ...]:
    """Walk the UPD body at ``off``: ``(page_id, op, slot, before, after,
    redo_only, key, page_kind, offset past the body)``."""
    if off + 9 <= end and data[off] == _INT:
        page_id = _unpack_i64(data, off + 1)[0]
        off += 9
    else:
        page_id, off = _read(data, off, end)
    op, off = _op_field(data, off, end)
    if off + 9 <= end and data[off] == _INT:
        slot = _unpack_i64(data, off + 1)[0]
        off += 9
    else:
        slot, off = _read(data, off, end)
    before, off = _image_field(data, off, end)
    after, off = _image_field(data, off, end)
    tag = data[off] if off < end else None
    if tag == _FALSE:
        redo_only = False
        off += 1
    elif tag == _TRUE:
        redo_only = True
        off += 1
    else:
        redo_only, off = _read(data, off, end)
    key, off = _image_field(data, off, end)
    if off < end and data[off] == _NONE:
        page_kind = None
        off += 1
    else:
        page_kind, off = _read(data, off, end)
    return page_id, op, slot, before, after, redo_only, key, page_kind, off


def _clr_body(data: bytes, off: int, end: int) -> Tuple[Any, ...]:
    """Walk the CLR body at ``off``: ``(undo_next_lsn, page_id, op, slot,
    after, key, offset past the body)``."""
    if off + 18 <= end and data[off] == _INT and data[off + 9] == _INT:
        undo_next_lsn, page_id = _unpack_two_ints(data, off)
        off += 18
    else:
        undo_next_lsn, off = _read(data, off, end)
        page_id, off = _read(data, off, end)
    op: Optional[UpdateOp]
    if off < end and data[off] == _NONE:
        op = None
        off += 1
    else:
        op, off = _op_field(data, off, end)
    if off + 9 <= end and data[off] == _INT:
        slot = _unpack_i64(data, off + 1)[0]
        off += 9
    else:
        slot, off = _read(data, off, end)
    after, off = _image_field(data, off, end)
    key, off = _image_field(data, off, end)
    return undo_next_lsn, page_id, op, slot, after, key, off


def _op_field(data: bytes, off: int, end: int) -> Tuple[UpdateOp, int]:
    """The op of a UPD or CLR body: its value string, by dict lookup."""
    if off + 5 <= end and data[off] == _STR:
        nxt = off + 5 + _unpack_u32(data, off + 1)[0]
        op = _OP_BY_BYTES.get(data[off + 5:nxt]) if nxt <= end else None
    else:
        raw, nxt = _read(data, off, end)
        op = _OP_BY_VALUE.get(raw)  # type: ignore[arg-type]
    if op is None:
        raise codec.CodecError("unknown update op")
    return op, nxt


def _image_field(data: bytes, off: int, end: int) -> Tuple[object, int]:
    """An optional byte string of a UPD or CLR body (an image or key)."""
    if off + 5 <= end and data[off] == _BYTES:
        nxt = off + 5 + _unpack_u32(data, off + 1)[0]
        if nxt > end:
            raise codec.CodecError("length prefix exceeds buffer")
        return data[off + 5:nxt], nxt
    if off < end and data[off] == _NONE:
        return None, off + 1
    return _read(data, off, end)


def _build_other(type_tag: str, lsn: LSN, client_id: str,
                 txn_id: Optional[str], prev_lsn: LSN,
                 body: List[object]) -> LogRecord:
    """A record of a kind without page effects, from its decoded body."""
    try:
        if type_tag == "CMT":
            return CommitRecord(lsn, client_id, txn_id, prev_lsn)
        if type_tag == "PRE":
            return PrepareRecord(lsn, client_id, txn_id, prev_lsn, body[0])
        if type_tag == "END":
            return EndRecord(lsn, client_id, txn_id, prev_lsn,
                             _OUTCOME_BY_VALUE[body[0]])
        if type_tag == "BCP":
            return BeginCheckpointRecord(lsn, client_id, txn_id, prev_lsn,
                                         body[0])
        if type_tag == "ECP":
            owner, dpl_raw, txn_raw = body
            return EndCheckpointRecord(
                lsn, client_id, txn_id, prev_lsn, owner,
                tuple(_decode_dpl_entry(e) for e in dpl_raw),
                tuple(_decode_txn_entry(t) for t in txn_raw),
            )
        return CDPLRecord(lsn, client_id, txn_id, prev_lsn,
                          tuple(_decode_dpl_entry(e) for e in body[0]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise codec.CodecError(f"malformed {type_tag} body: {exc}") from exc


def _encode_dpl_entry(entry: DirtyPageEntry) -> Tuple:
    return (entry.page_id, entry.rec_lsn, entry.rec_addr)


def _decode_dpl_entry(raw: Tuple) -> DirtyPageEntry:
    return DirtyPageEntry(page_id=raw[0], rec_lsn=raw[1], rec_addr=raw[2])


def _encode_txn_entry(entry: TxnTableEntry) -> Tuple:
    return (
        entry.txn_id,
        entry.client_id,
        entry.state,
        entry.last_lsn,
        entry.undo_next_lsn,
        entry.first_lsn,
    )


def _decode_txn_entry(raw: Tuple) -> TxnTableEntry:
    return TxnTableEntry(
        txn_id=raw[0], client_id=raw[1], state=raw[2],
        last_lsn=raw[3], undo_next_lsn=raw[4], first_lsn=raw[5],
    )


# ---------------------------------------------------------------------------
# Writing: one straight-line writer per commit-path and checkpoint kind
# ---------------------------------------------------------------------------
#
# The mirror of the walk above.  The commit path writes UPD, CLR, CMT and
# END frames and every checkpoint writes BCP and ECP frames, and each
# has a writer: precompiled structs pack the tuple head, the type tag
# and the int fields; the id pair, op and outcome are looked up encoded;
# a byte image gets its head packed inline; a dirty-page entry is one
# pack and a transaction-table entry one head, its ids, its state and
# one pack.  Each piece is the codec's bytes for its field (a field of
# an unusual type is written by ``codec.encode`` alone), so the frame is
# the codec's encoding of ``_frame_fields``.  An int field must be an
# int exactly, since a bool encodes as ``t``/``f``, and an owner or
# state a str exactly; if one is not, or an int lies outside i64, the
# writer declines and ``_encode_frame`` encodes the fields.  Prepare
# and CDPL frames always take that generic path.

_pack_tag_lsn = struct.Struct(">13sBq").pack
_pack_int = struct.Struct(">Bq").pack
_pack_two_ints = struct.Struct(">BqBq").pack
_pack_three_ints = struct.Struct(">BqBqBq").pack
_pack_len = struct.Struct(">BI").pack
_pack_dpl_entry = struct.Struct(">BIBqBqBq").pack

#: Per kind: the frame's tuple head and type-tag string, 13 bytes.
_OPENING: Dict[Type[LogRecord], bytes] = {
    cls: codec.encode((tag,) * _FIELD_COUNTS[tag])[:13]
    for tag, cls in _TYPE_TAGS.items()
}
_OP_FIELD: Dict[UpdateOp, bytes] = {op: codec.encode(op.value)
                                    for op in UpdateOp}
_OUTCOME_FIELD: Dict[TxnOutcome, bytes] = {
    outcome: codec.encode(outcome.value) for outcome in TxnOutcome}
_NONE_FIELD = codec.encode(None)
_TRUE_FIELD = codec.encode(True)
_FALSE_FIELD = codec.encode(False)
#: A transaction-table entry's tuple head: six fields.
_TXN_ENTRY_HEAD = _pack_len(_TUPLE, 6)

# Encoded (client_id, txn_id) pairs, the writer's twin of ``_IDS``.
# Only str ids are filed: a bool key would find an int's entry.
_ID_FIELDS: Dict[Tuple[str, Optional[str]], bytes] = {}


def _ids(client_id: object, txn_id: object) -> bytes:
    """The encoded id pair."""
    if type(client_id) is str and (txn_id is None or type(txn_id) is str):
        key = (client_id, txn_id)
        raw = _ID_FIELDS.get(key)  # type: ignore[arg-type]
        if raw is None:
            head = client_id.encode("utf-8")
            raw = _pack_len(_STR, len(head)) + head
            if txn_id is None:
                raw += _NONE_FIELD
            else:
                tail = txn_id.encode("utf-8")
                raw += _pack_len(_STR, len(tail)) + tail
            if len(_ID_FIELDS) >= _IDS_LIMIT:
                _ID_FIELDS.clear()
            _ID_FIELDS[key] = raw  # type: ignore[index]
        return raw
    return codec.encode((client_id, txn_id))[5:]


def _text(value: str) -> bytes:
    """A str field."""
    raw = value.encode("utf-8")
    return _pack_len(_STR, len(raw)) + raw


def _field(value: object) -> bytes:
    """An optional byte image or key; any other value as the codec has it."""
    if value is None:
        return _NONE_FIELD
    if type(value) is bytes:
        return _pack_len(_BYTES, len(value)) + value
    return codec.encode(value)


def _op(op: object) -> bytes:
    return _OP_FIELD.get(op) or codec.encode(op.value)  # type: ignore


def _write_update(record: UpdateRecord) -> Optional[bytes]:
    lsn, prev_lsn = record.lsn, record.prev_lsn
    page_id, slot, redo_only = record.page_id, record.slot, record.redo_only
    if (type(lsn) is not int or type(prev_lsn) is not int
            or type(page_id) is not int or type(slot) is not int):
        return None
    return b"".join((
        _pack_tag_lsn(_OPENING[UpdateRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_two_ints(_INT, prev_lsn, _INT, page_id),
        _op(record.op),
        _pack_int(_INT, slot),
        _field(record.before),
        _field(record.after),
        _TRUE_FIELD if redo_only is True else
        _FALSE_FIELD if redo_only is False else codec.encode(redo_only),
        _field(record.key),
        _field(record.page_kind),
    ))


def _write_clr(record: CompensationRecord) -> Optional[bytes]:
    lsn, prev_lsn = record.lsn, record.prev_lsn
    undo_next_lsn, page_id, slot = (record.undo_next_lsn, record.page_id,
                                    record.slot)
    if (type(lsn) is not int or type(prev_lsn) is not int
            or type(undo_next_lsn) is not int or type(page_id) is not int
            or type(slot) is not int):
        return None
    op = record.op
    return b"".join((
        _pack_tag_lsn(_OPENING[CompensationRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_three_ints(_INT, prev_lsn, _INT, undo_next_lsn, _INT, page_id),
        _NONE_FIELD if op is None else _op(op),
        _pack_int(_INT, slot),
        _field(record.after),
        _field(record.key),
    ))


def _write_commit(record: CommitRecord) -> Optional[bytes]:
    lsn, prev_lsn = record.lsn, record.prev_lsn
    if type(lsn) is not int or type(prev_lsn) is not int:
        return None
    return b"".join((
        _pack_tag_lsn(_OPENING[CommitRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_int(_INT, prev_lsn),
    ))


def _write_end(record: EndRecord) -> Optional[bytes]:
    lsn, prev_lsn, outcome = record.lsn, record.prev_lsn, record.outcome
    if type(lsn) is not int or type(prev_lsn) is not int:
        return None
    return b"".join((
        _pack_tag_lsn(_OPENING[EndRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_int(_INT, prev_lsn),
        _OUTCOME_FIELD.get(outcome) or codec.encode(outcome.value),
    ))


def _write_begin_checkpoint(record: BeginCheckpointRecord) -> Optional[bytes]:
    lsn, prev_lsn, owner = record.lsn, record.prev_lsn, record.owner
    if (type(lsn) is not int or type(prev_lsn) is not int
            or type(owner) is not str):
        return None
    return b"".join((
        _pack_tag_lsn(_OPENING[BeginCheckpointRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_int(_INT, prev_lsn),
        _text(owner),
    ))


def _write_end_checkpoint(record: EndCheckpointRecord) -> Optional[bytes]:
    lsn, prev_lsn, owner = record.lsn, record.prev_lsn, record.owner
    if (type(lsn) is not int or type(prev_lsn) is not int
            or type(owner) is not str):
        return None
    dirty_pages = _dpl(record.dirty_pages)
    if dirty_pages is None:
        return None
    transactions = record.transactions
    parts = [
        _pack_tag_lsn(_OPENING[EndCheckpointRecord], _INT, lsn),
        _ids(record.client_id, record.txn_id),
        _pack_int(_INT, prev_lsn),
        _text(owner),
        dirty_pages,
        _pack_len(_TUPLE, len(transactions)),
    ]
    append = parts.append
    for txn in transactions:
        state = txn.state
        last_lsn, undo_next_lsn, first_lsn = (txn.last_lsn, txn.undo_next_lsn,
                                              txn.first_lsn)
        if (type(state) is not str or type(last_lsn) is not int
                or type(undo_next_lsn) is not int
                or type(first_lsn) is not int):
            return None
        append(_TXN_ENTRY_HEAD)
        append(_ids(txn.txn_id, txn.client_id))
        append(_text(state))
        append(_pack_three_ints(_INT, last_lsn, _INT, undo_next_lsn,
                                _INT, first_lsn))
    return b"".join(parts)


def _dpl(entries: Tuple[DirtyPageEntry, ...]) -> Optional[bytes]:
    """A dirty-page table, one pack per entry; None if an entry has a
    field that is not an int."""
    parts = [_pack_len(_TUPLE, len(entries))]
    append = parts.append
    for entry in entries:
        page_id, rec_lsn, rec_addr = (entry.page_id, entry.rec_lsn,
                                      entry.rec_addr)
        if (type(page_id) is not int or type(rec_lsn) is not int
                or type(rec_addr) is not int):
            return None
        append(_pack_dpl_entry(_TUPLE, 3, _INT, page_id, _INT, rec_lsn,
                               _INT, rec_addr))
    return b"".join(parts)


_WRITERS: Dict[Type[LogRecord], Callable[[Any], Optional[bytes]]] = {
    UpdateRecord: _write_update,
    CompensationRecord: _write_clr,
    CommitRecord: _write_commit,
    EndRecord: _write_end,
    BeginCheckpointRecord: _write_begin_checkpoint,
    EndCheckpointRecord: _write_end_checkpoint,
}
