"""Database pages: slotted records, a page_LSN field, and a byte format.

A :class:`Page` is the unit of transfer between server and clients and
the unit of atomic disk I/O.  Its header carries ``page_LSN`` — in
ARIES/CSA an *update sequence number* assigned locally by whichever
system performed the latest update (section 2.2), required to be
monotonically increasing per page.

Pages hold records in integer slots (a slotted page), plus a small
``meta`` dictionary used by space-map pages (allocation bitmaps) and
B+-tree pages (level, sibling pointers, separator layout).  Pages
serialize to bytes with a CRC so that the simulated disk stores real
images and corruption (process or media failure, section 2.5) is
detectable exactly the way a real system detects it.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.core import codec
from repro.core.codec import read_value
from repro.core.lsn import LSN, NULL_LSN
from repro.errors import (
    PageCorruptedError,
    PageFullError,
    RecordExistsError,
    RecordNotFoundError,
)

#: Fixed header cost charged against the page's byte budget.
HEADER_OVERHEAD = 64
#: Per-record slot cost charged against the byte budget.
SLOT_OVERHEAD = 16
#: Per-meta-entry cost charged against the byte budget.
META_OVERHEAD = 8

MetaValue = Union[int, str, bytes, None]


class PageKind(enum.Enum):
    """What a page is used for; determines how recovery treats it."""

    FREE = "free"
    DATA = "data"
    SPACE_MAP = "space-map"
    INDEX_LEAF = "index-leaf"
    INDEX_INTERNAL = "index-internal"


# ---------------------------------------------------------------------------
# The image format's fixed shapes
# ---------------------------------------------------------------------------

_TUPLE = codec.ORD_TUPLE
_INT = codec.ORD_INT
_STR = codec.ORD_STR
_BYTES = codec.ORD_BYTES

#: Per kind: the struct that packs the header (the 7-tuple head,
#: page_id, the kind string, page_lsn, page_size, next_slot and the
#: records tuple head) and the kind string's encoding.
_HEAD_BY_KIND = {
    kind: (struct.Struct(f">BIBq{5 + len(kind.value)}sBqBqBqBI").pack,
           codec.encode(kind.value))
    for kind in PageKind
}
_KIND_BY_BYTES = {kind.value.encode("utf-8"): kind for kind in PageKind}
_KIND_BY_VALUE: Dict[Any, PageKind] = {kind.value: kind for kind in PageKind}
#: A tuple head, a tagged i64 and a tagged length: both one
#: ``(slot, bytes)`` record item up to its data and the image's opening
#: up to the kind string.
_OPENING = struct.Struct(">BIBqBI")
_OPENING_SIZE = _OPENING.size
_pack_opening = _OPENING.pack
_unpack_opening = _OPENING.unpack_from
_EMPTY_TUPLE = codec.encode(())
_U32 = struct.Struct(">I")
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
#: page_lsn, page_size, next_slot and the records tuple's item count.
_unpack_ints = struct.Struct(">xqxqxqxI").unpack_from


def _pairs(value: Any) -> Dict[Any, Any]:
    """A decoded records or meta field as its dict."""
    try:
        return {key: item for key, item in value}
    except (TypeError, ValueError) as exc:
        raise codec.CodecError(f"malformed page image field: {exc}") from exc


class Page:
    """One database page.

    Not thread-safe; the simulation is cooperative.  All mutators bump
    nothing themselves — callers set ``page_lsn`` explicitly after
    logging, mirroring the paper's update protocol (look up page_LSN,
    log, then store the returned LSN back into the page).
    """

    __slots__ = (
        "page_id", "kind", "page_lsn", "page_size",
        "_records", "_meta", "_next_slot", "corrupted",
    )

    def __init__(self, page_id: int, kind: PageKind = PageKind.FREE,
                 page_size: int = 4096) -> None:
        self.page_id = page_id
        self.kind = kind
        self.page_lsn: LSN = NULL_LSN
        self.page_size = page_size
        self._records: Dict[int, bytes] = {}
        self._meta: Dict[str, MetaValue] = {}
        self._next_slot = 0
        self.corrupted = False

    # -- integrity ------------------------------------------------------

    def _check(self) -> None:
        if self.corrupted:
            raise PageCorruptedError(self.page_id, "in-memory image")

    def corrupt(self) -> None:
        """Simulate a process failure mid-update: the image is garbage."""
        self.corrupted = True
        self._records.clear()
        self._meta.clear()

    # -- space accounting -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.page_size - HEADER_OVERHEAD

    @property
    def used_bytes(self) -> int:
        used = sum(len(data) + SLOT_OVERHEAD for data in self._records.values())
        for key, value in self._meta.items():
            size = len(value) if isinstance(value, (bytes, str)) else 8
            used += len(key) + size + META_OVERHEAD
        return used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def has_room_for(self, data: bytes) -> bool:
        return self.free_bytes >= len(data) + SLOT_OVERHEAD

    # -- formatting -------------------------------------------------------

    def format(self, kind: PageKind, page_lsn: LSN = NULL_LSN) -> None:
        """(Re)initialize the page as ``kind`` — the section 2.3 path.

        Called when a page is allocated (or reallocated) without reading
        its previous contents from disk.  ``page_lsn`` must come from the
        covering SMP's LSN so per-page monotonicity survives reallocation
        by a different system.
        """
        self.kind = kind
        self.page_lsn = page_lsn
        self._records.clear()
        self._meta.clear()
        self._next_slot = 0
        self.corrupted = False

    # -- records ----------------------------------------------------------

    def insert_record(self, data: bytes, slot: Optional[int] = None) -> int:
        """Insert ``data``; returns the slot used.

        With ``slot=None`` the lowest never-used slot is taken.  Explicit
        slots are used by redo and by undo of deletes (reinsert at the
        original slot).
        """
        self._check()
        if not self.has_room_for(data):
            raise PageFullError(self.page_id)
        if slot is None:
            slot = self._next_slot
        if slot in self._records:
            raise RecordExistsError(self.page_id, slot)
        self._records[slot] = bytes(data)
        if slot >= self._next_slot:
            self._next_slot = slot + 1
        return slot

    def read_record(self, slot: int) -> bytes:
        self._check()
        try:
            return self._records[slot]
        except KeyError:
            raise RecordNotFoundError(self.page_id, slot) from None

    def modify_record(self, slot: int, data: bytes) -> bytes:
        """Replace the record in ``slot``; returns the before-image."""
        self._check()
        if slot not in self._records:
            raise RecordNotFoundError(self.page_id, slot)
        before = self._records[slot]
        grow = len(data) - len(before)
        if grow > 0 and self.free_bytes < grow:
            raise PageFullError(self.page_id)
        self._records[slot] = bytes(data)
        return before

    def delete_record(self, slot: int) -> bytes:
        """Remove the record in ``slot``; returns the before-image."""
        self._check()
        if slot not in self._records:
            raise RecordNotFoundError(self.page_id, slot)
        return self._records.pop(slot)

    def next_free_slot(self) -> int:
        """The slot an auto-placed insert would take (for pre-logging)."""
        self._check()
        return self._next_slot

    def has_record(self, slot: int) -> bool:
        self._check()
        return slot in self._records

    def slots(self) -> Tuple[int, ...]:
        self._check()
        return tuple(sorted(self._records))

    def records(self) -> Iterator[Tuple[int, bytes]]:
        self._check()
        for slot in sorted(self._records):
            yield slot, self._records[slot]

    @property
    def record_count(self) -> int:
        self._check()
        return len(self._records)

    # -- meta ---------------------------------------------------------------

    def get_meta(self, key: str, default: MetaValue = None) -> MetaValue:
        self._check()
        return self._meta.get(key, default)

    def set_meta(self, key: str, value: MetaValue) -> MetaValue:
        """Set a metadata entry; returns the previous value (or None)."""
        self._check()
        before = self._meta.get(key)
        self._meta[key] = value
        return before

    def meta_keys(self) -> Tuple[str, ...]:
        self._check()
        return tuple(sorted(self._meta))

    # -- copying / serialization -------------------------------------------

    def snapshot(self) -> "Page":
        """Deep copy — what crossing the wire or hitting disk produces."""
        self._check()
        clone = Page(self.page_id, self.kind, self.page_size)
        clone.page_lsn = self.page_lsn
        clone._records = dict(self._records)
        clone._meta = dict(self._meta)
        clone._next_slot = self._next_slot
        return clone

    def content_equal(self, other: "Page") -> bool:
        """True when the user-visible content matches (ignores page_lsn)."""
        return (
            self.page_id == other.page_id
            and self.kind == other.kind
            and self._records == other._records
            and self._meta == other._meta
        )

    def to_bytes(self) -> bytes:
        """Serialize with a trailing CRC32 over the payload.

        The payload is the codec encoding of ``(page_id, kind, page_lsn,
        page_size, next_slot, ((slot, data), ...), ((key, value), ...))``
        with records by slot and meta by key, written in one pass:
        precompiled structs pack the header and each ``(slot, bytes)``
        item.  Any other shape (a header field that is not an i64 int,
        a record that is not ``bytes``, a slot outside i64, non-empty
        meta) is written by :func:`codec.encode`, so the bytes are the
        codec's whatever the content.
        """
        self._check()
        records = self._records
        page_id, page_lsn = self.page_id, self.page_lsn
        page_size, next_slot = self.page_size, self._next_slot
        head = None
        if (type(page_id) is int and type(page_lsn) is int
                and type(page_size) is int and type(next_slot) is int):
            pack, kind_field = _HEAD_BY_KIND[self.kind]
            try:
                head = pack(_TUPLE, 7, _INT, page_id, kind_field,
                            _INT, page_lsn, _INT, page_size,
                            _INT, next_slot, _TUPLE, len(records))
            except struct.error:
                pass
        if head is None:
            payload = codec.encode((
                page_id, self.kind.value, page_lsn, page_size, next_slot,
                tuple(sorted(records.items())), self._meta_items()))
        else:
            parts = [head]
            append = parts.append
            for slot, data in sorted(records.items()):
                if type(slot) is int and type(data) is bytes:
                    try:
                        append(_pack_opening(_TUPLE, 2, _INT, slot,
                                             _BYTES, len(data)))
                    except struct.error:  # a slot outside i64
                        pass
                    else:
                        append(data)
                        continue
                append(codec.encode((slot, data)))
            append(codec.encode(self._meta_items()) if self._meta
                   else _EMPTY_TUPLE)
            payload = b"".join(parts)
        return payload + _pack_u32(zlib.crc32(payload))

    def _meta_items(self) -> Tuple[Tuple[str, MetaValue], ...]:
        meta = self._meta
        return tuple((key, meta[key]) for key in sorted(meta))

    @staticmethod
    def from_bytes(data: bytes) -> "Page":
        """Deserialize; raises :class:`PageCorruptedError` on a bad CRC.

        One walk over the payload, the mirror of :meth:`to_bytes`: the
        header and each ``(slot, bytes)`` item are read inline, and a
        field of any other shape through :func:`codec.read_value` at
        the same offset.  A payload that passes its CRC but is not a
        page image raises :class:`codec.CodecError`.
        """
        data = bytes(data)
        end = len(data) - 4
        if end < 0:
            raise PageCorruptedError(-1, "truncated image")
        if zlib.crc32(memoryview(data)[:end]) != _unpack_u32(data, end)[0]:
            raise PageCorruptedError(-1, "crc mismatch")
        if end < _OPENING_SIZE:
            raise codec.CodecError("page image shorter than its header")
        top, count, tag, page_id, kind_tag, kind_len = _unpack_opening(data, 0)
        if top != _TUPLE or count != 7:
            raise codec.CodecError("page image is not a 7-field tuple")
        if tag == _INT and kind_tag == _STR:
            off = _OPENING_SIZE + kind_len
            if off > end:
                raise codec.CodecError("length prefix exceeds buffer")
            kind = _KIND_BY_BYTES.get(data[_OPENING_SIZE:off])
        else:
            if tag == _INT:
                off = 14
            else:
                page_id, off = read_value(data, 5, end)
            value, off = read_value(data, off, end)
            kind = _KIND_BY_VALUE.get(value)
        if kind is None:
            raise codec.CodecError("unknown page kind")
        if (off + 32 <= end and data[off] == _INT and data[off + 9] == _INT
                and data[off + 18] == _INT and data[off + 27] == _TUPLE):
            page_lsn, page_size, next_slot, count = _unpack_ints(data, off)
            off += 32
            records: Dict[int, bytes] = {}
            for _ in range(count):
                nxt = off + _OPENING_SIZE
                if nxt <= end:
                    top, pair, tag, slot, data_tag, size = _unpack_opening(
                        data, off)
                    if (top == _TUPLE and pair == 2 and tag == _INT
                            and data_tag == _BYTES):
                        off = nxt + size
                        if off > end:
                            raise codec.CodecError(
                                "length prefix exceeds buffer")
                        records[slot] = data[nxt:off]
                        continue
                item, off = read_value(data, off, end)
                records.update(_pairs((item,)))
        else:
            page_lsn, off = read_value(data, off, end)
            page_size, off = read_value(data, off, end)
            next_slot, off = read_value(data, off, end)
            value, off = read_value(data, off, end)
            records = _pairs(value)
        if off + 5 <= end and data.startswith(_EMPTY_TUPLE, off):
            meta: Dict[str, MetaValue] = {}
            off += 5
        else:
            value, off = read_value(data, off, end)
            meta = _pairs(value)
        if off != end:
            raise codec.CodecError(
                f"trailing bytes after page image ({end - off} left)")
        page = Page(page_id, kind, page_size)
        page.page_lsn = page_lsn
        page._next_slot = next_slot
        page._records = records
        page._meta = meta
        return page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, kind={self.kind.value}, "
            f"lsn={self.page_lsn}, records={len(self._records)})"
        )
