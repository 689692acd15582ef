"""A tiny self-describing binary codec for log records and pages.

A production recovery log needs a byte format: the stable log stores
bytes, crash truncation happens at byte granularity, and log addresses
are byte offsets.  This codec is deliberately small — five scalar tags
plus tuples — but it is a real format with framing and round-trip
guarantees, property-tested in ``tests/property/test_codec_props.py``.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision),
``str``, ``bytes`` and (possibly nested) tuples of supported values.
Lists are accepted on encode and come back as tuples, which suits log
records: decoded records are immutable snapshots of what was written.

Decoding is one reader, :func:`read_value`: it dispatches on the tag as
an integer (``data[i]``, no one-byte slice) and checks every read
against one bound fixed by the caller, so a value inside a larger
buffer is read without slicing the buffer first.  Tuple items of the
two common scalar shapes, ints and byte strings, are read in the
tuple's own loop; only other tags cost a nested call.
:func:`skip_value_at` is its non-materializing twin, for walks that
want a later field and not the ones before it.

Encoding has the generic writer, :func:`encode`, and straight-line
writers for the two shapes the system writes most: log frames of the
commit path and of checkpoints (``log_records._encode_frame``) and
page images (``Page.to_bytes``).  Those pack their fixed fields and
checkpoint-table entries with precompiled structs and write any field
of another shape with :func:`encode`; any other frame, and one its
writer declines, is :func:`encode` of its fields.  The encoding is
concatenative (a tuple's bytes are its head followed by its items'
bytes), so the pieces they join are exactly this writer's output.
Their byte identity with it is property-tested in
``tests/property/test_writer_reference.py``.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple, Union

#: Buffer types the walkers accept.  ``skip_value_at`` never
#: materializes values, so it works directly against a large backing
#: ``bytearray`` (e.g. the stable log) without slicing.
Buffer = Union[bytes, bytearray, memoryview]

_TAG_NONE = b"N"
_TAG_TRUE = b"t"
_TAG_FALSE = b"f"
_TAG_INT = b"I"      # 8-byte big-endian signed
_TAG_BIGINT = b"G"   # length-prefixed big-endian signed (rare, huge ints)
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_TUPLE = b"T"

#: Integer tag values: ``buf[i]`` of any buffer type is an int.
ORD_NONE = _TAG_NONE[0]
ORD_TRUE = _TAG_TRUE[0]
ORD_FALSE = _TAG_FALSE[0]
ORD_INT = _TAG_INT[0]
ORD_BIGINT = _TAG_BIGINT[0]
ORD_STR = _TAG_STR[0]
ORD_BYTES = _TAG_BYTES[0]
ORD_TUPLE = _TAG_TUPLE[0]

_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_unpack_i64 = _I64.unpack_from
_unpack_u32 = _U32.unpack_from

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


def encode(value: Any) -> bytes:
    """Encode ``value`` into a self-describing byte string."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode a byte string produced by :func:`encode`.

    Raises :class:`CodecError` on truncated or malformed input, or if the
    buffer has trailing bytes.
    """
    end = len(data)
    value, offset = read_value(data, 0, end)
    if offset != end:
        raise CodecError(f"trailing bytes after value ({end - offset} left)")
    return value


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out += _TAG_INT
            out += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _TAG_BIGINT
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, (tuple, list)):
        out += _TAG_TUPLE
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def read_value(data: bytes, offset: int, end: int) -> Tuple[Any, int]:
    """Decode the one value starting at ``offset``; nothing at or past
    ``end`` is read.

    Returns ``(value, next_offset)``; bytes between ``next_offset`` and
    ``end`` belong to sibling values.  ``data`` is ``bytes`` (a
    ``bytearray`` works too, but its ``bytes`` values come back as
    ``bytearray``).  Raises :class:`CodecError` on truncated or
    malformed input.
    """
    if offset >= end:
        raise CodecError("truncated buffer: missing tag")
    tag = data[offset]
    offset += 1
    if tag == ORD_INT:
        nxt = offset + 8
        if nxt > end:
            raise CodecError("truncated int")
        return _unpack_i64(data, offset)[0], nxt
    if tag == ORD_TUPLE:
        nxt = offset + 4
        if nxt > end:
            raise CodecError("truncated length prefix")
        items = []
        append = items.append
        for _ in range(_unpack_u32(data, offset)[0]):
            offset = nxt
            if offset < end:
                tag = data[offset]
                if tag == ORD_INT and offset + 9 <= end:
                    append(_unpack_i64(data, offset + 1)[0])
                    nxt = offset + 9
                    continue
                if tag == ORD_BYTES and offset + 5 <= end:
                    offset += 5
                    nxt = offset + _unpack_u32(data, offset - 4)[0]
                    if nxt > end:
                        raise CodecError("length prefix exceeds buffer")
                    append(data[offset:nxt])
                    continue
            item, nxt = read_value(data, offset, end)
            append(item)
        return tuple(items), nxt
    if tag == ORD_STR or tag == ORD_BYTES or tag == ORD_BIGINT:
        nxt = offset + 4
        if nxt > end:
            raise CodecError("truncated length prefix")
        offset = nxt
        nxt = offset + _unpack_u32(data, offset - 4)[0]
        if nxt > end:
            raise CodecError("length prefix exceeds buffer")
        if tag == ORD_BYTES:
            return data[offset:nxt], nxt
        if tag == ORD_STR:
            try:
                return data[offset:nxt].decode("utf-8"), nxt
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid utf-8 in string: {exc}") from exc
        return int.from_bytes(data[offset:nxt], "big", signed=True), nxt
    if tag == ORD_NONE:
        return None, offset
    if tag == ORD_TRUE:
        return True, offset
    if tag == ORD_FALSE:
        return False, offset
    raise CodecError(f"unknown tag {bytes((tag,))!r} at offset {offset - 1}")


def skip_value_at(data: Buffer, offset: int, end: int) -> int:
    """Advance past one encoded value without materializing it.

    ``end`` bounds the value (typically the frame end); reads past it
    raise :class:`CodecError` exactly as a truncated decode would.
    """
    if offset >= end:
        raise CodecError("truncated buffer: missing tag")
    tag = data[offset]
    offset += 1
    if tag in (ORD_NONE, ORD_TRUE, ORD_FALSE):
        return offset
    if tag == ORD_INT:
        if offset + 8 > end:
            raise CodecError("truncated int")
        return offset + 8
    if tag in (ORD_BIGINT, ORD_STR, ORD_BYTES):
        if offset + 4 > end:
            raise CodecError("truncated length prefix")
        length = _unpack_u32(data, offset)[0]
        offset += 4
        if offset + length > end:
            raise CodecError("length prefix exceeds buffer")
        return offset + length
    if tag == ORD_TUPLE:
        if offset + 4 > end:
            raise CodecError("truncated length prefix")
        count = _unpack_u32(data, offset)[0]
        offset += 4
        for _ in range(count):
            offset = skip_value_at(data, offset, end)
        return offset
    raise CodecError(f"unknown tag {bytes((tag,))!r} at offset {offset - 1}")
