"""Property tests: the straight-line writers and the one-walk page
reader against the generic codec.

``_encode_frame`` writes UPD, CLR, CMT and END frames, and
``Page.to_bytes`` writes page images, with precompiled structs; every
other shape goes through ``codec.encode``.  The oracle is the plain
way to write them, kept in ``tests/conftest.py``: ``codec.encode`` of
the record's or the page's field tuple (``reference_frame``,
``reference_page_image``).  Every frame and image must be
byte-identical to it, including the shapes the writers hand to the
codec: LSNs and slots of 2**63 or more, negative slots, ``bytearray``
data, every meta value type, ints where bools belong and bools where
ints belong, int keys, non-ASCII ids.

``Page.from_bytes`` reads an image in one walk.  Its reference is
``codec.decode`` of the payload and the page built from the decoded
tuple; a build error there (a wrong field count, an unknown kind, a
records field that is not a sequence of pairs) counts as malformed,
i.e. as ``CodecError``.  On truncated and one-byte-substituted images
whose CRC is recomputed, so that they reach the walk, the walk must
build exactly the page the reference builds or raise ``CodecError``
where it fails.
"""

import zlib

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
    _encode_frame,
)
from repro.errors import PageCorruptedError
from repro.storage.page import Page, PageKind
from tests.conftest import reference_frame, reference_page_image

# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

big = st.integers(min_value=2 ** 63, max_value=2 ** 70)
lsns = st.one_of(st.integers(min_value=0, max_value=2 ** 62), big,
                 st.booleans())
ints = st.one_of(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
                 big, st.integers(max_value=-2 ** 63 - 1), st.booleans())
ids = st.text(max_size=10)
txn_ids = st.one_of(st.none(), ids)
images = st.one_of(st.none(), st.binary(max_size=40),
                   st.binary(max_size=8).map(bytearray))
keys = st.one_of(images, ints)
common = {"lsn": lsns, "client_id": ids, "txn_id": txn_ids,
          "prev_lsn": lsns}

updates = st.builds(
    UpdateRecord, **common, page_id=ints, op=st.sampled_from(UpdateOp),
    slot=ints, before=images, after=images,
    redo_only=st.one_of(st.booleans(), st.integers(0, 1)), key=keys,
    page_kind=st.one_of(st.none(), st.sampled_from(["data", "index"])),
)
clrs = st.builds(
    CompensationRecord, **common,
    undo_next_lsn=st.one_of(st.just(NULL_LSN), lsns), page_id=ints,
    op=st.one_of(st.none(), st.sampled_from(UpdateOp)), slot=ints,
    after=images, key=keys,
)
dpl_entries = st.lists(
    st.builds(DirtyPageEntry, page_id=st.integers(0, 100), rec_lsn=lsns,
              rec_addr=lsns),
    max_size=3).map(tuple)
txn_entries = st.lists(
    st.builds(TxnTableEntry, txn_id=ids, client_id=ids,
              state=st.sampled_from(["active", "prepared"]),
              last_lsn=lsns, undo_next_lsn=lsns, first_lsn=lsns),
    max_size=2).map(tuple)
records = st.one_of(
    updates,
    clrs,
    st.builds(CommitRecord, **common),
    st.builds(EndRecord, **common, outcome=st.sampled_from(TxnOutcome)),
    st.builds(PrepareRecord, **common,
              locks=st.lists(st.tuples(st.tuples(st.text(max_size=4),
                                                 st.integers(0, 9)),
                                       st.sampled_from(["S", "X"])),
                             max_size=2).map(tuple)),
    st.builds(BeginCheckpointRecord, **common, owner=ids),
    st.builds(EndCheckpointRecord, **common, owner=ids,
              dirty_pages=dpl_entries, transactions=txn_entries),
    st.builds(CDPLRecord, **common, entries=dpl_entries),
)

#: The shapes the frame writers hand (in part) to the codec.
FRAME_SHAPES = [
    UpdateRecord(lsn=40, client_id="C1", txn_id="C1.T7", prev_lsn=39,
                 page_id=12, op=UpdateOp.RECORD_MODIFY, slot=3,
                 before=b"old", after=b"new"),
    UpdateRecord(lsn=2 ** 63, client_id="C1", txn_id="C1.T7", prev_lsn=39,
                 page_id=12, op=UpdateOp.PAGE_FORMAT, redo_only=True,
                 page_kind="data"),
    UpdateRecord(lsn=40, client_id="C1", txn_id=None, prev_lsn=2 ** 64,
                 page_id=5, op=UpdateOp.INDEX_INSERT, slot=-(2 ** 63) - 1,
                 after=bytearray(b"k"), key=-(2 ** 65)),
    UpdateRecord(lsn=41, client_id="C1", txn_id="C1.T7", prev_lsn=40,
                 page_id=12, op=UpdateOp.RECORD_INSERT, slot=0, after=b"v",
                 redo_only=1, key=7),
    UpdateRecord(lsn=True, client_id="C1", txn_id="C1.T7", prev_lsn=False,
                 page_id=12, op=UpdateOp.RECORD_INSERT, slot=0, after=b"v"),
    UpdateRecord(lsn=41, client_id="C1", txn_id="C1.T7", prev_lsn=40,
                 page_id=True, op=UpdateOp.RECORD_DELETE, slot=False,
                 before=b"v"),
    CompensationRecord(lsn=42, client_id="C1", txn_id="C1.T7", prev_lsn=41,
                       undo_next_lsn=39, page_id=12,
                       op=UpdateOp.RECORD_MODIFY, slot=3, after=b"old"),
    CompensationRecord(lsn=43, client_id="Ç1", txn_id="Ç1.T8", prev_lsn=42,
                       undo_next_lsn=NULL_LSN),
    CompensationRecord(lsn=43, client_id="C1", txn_id="C1.T8", prev_lsn=42,
                       undo_next_lsn=2 ** 63, page_id=4, slot=2 ** 63,
                       key=3),
    CompensationRecord(lsn=44, client_id="C1", txn_id="C1.T8", prev_lsn=43,
                       undo_next_lsn=40, page_id=4, op=UpdateOp.INDEX_DELETE,
                       slot=1, after=bytearray(b"a"), key=-3),
    CommitRecord(lsn=44, client_id="C1", txn_id="C1.T7", prev_lsn=43),
    CommitRecord(lsn=44, client_id="客户", txn_id="客户.T1", prev_lsn=0),
    CommitRecord(lsn=None, client_id="", txn_id=None, prev_lsn=None),
    EndRecord(lsn=46, client_id="C1", txn_id="C1.T7", prev_lsn=44,
              outcome=TxnOutcome.ABORTED),
    EndRecord(lsn=b"\x01", client_id=7, txn_id=(1, "t"), prev_lsn=True),
    PrepareRecord(lsn=45, client_id="C2", txn_id="C2.T1", prev_lsn=0,
                  locks=((("page", 12), "X"),)),
    EndCheckpointRecord(
        lsn=48, client_id="SERVER", txn_id=None, prev_lsn=47, owner="C1",
        dirty_pages=(DirtyPageEntry(12, 39, 1000),),
        transactions=(TxnTableEntry("C1.T7", "C1", "active", 41, 41, 39),)),
]


class TestFrameWriter:
    @given(records)
    def test_equals_reference(self, record):
        assert _encode_frame(record) == reference_frame(record)

    @pytest.mark.parametrize("record", FRAME_SHAPES,
                             ids=lambda r: type(r).__name__)
    def test_shapes_equal_reference(self, record):
        assert _encode_frame(record) == reference_frame(record)

    def test_ids_cache_tells_bool_from_int(self):
        """A bool txn id must not find an equal int's encoding."""
        for txn_id in ("1", 1, True):
            record = CommitRecord(lsn=1, client_id="C1", txn_id=txn_id,
                                  prev_lsn=0)
            assert _encode_frame(record) == reference_frame(record)


# ---------------------------------------------------------------------------
# Page images
# ---------------------------------------------------------------------------

meta_values = st.one_of(st.none(), ints, st.text(max_size=8),
                        st.binary(max_size=8))


@st.composite
def pages(draw):
    page = Page(draw(ints), draw(st.sampled_from(PageKind)),
                draw(st.one_of(st.just(4096), ints)))
    page.page_lsn = draw(lsns)
    page._next_slot = draw(ints)
    page._records = draw(st.dictionaries(
        st.one_of(st.integers(-1, 64), ints),
        st.one_of(st.binary(max_size=24),
                  st.binary(max_size=8).map(bytearray)),
        max_size=6))
    page._meta = draw(st.dictionaries(st.text(max_size=6), meta_values,
                                      max_size=3))
    return page


def _page(page_id=3, kind=PageKind.DATA, records=(), meta=(), page_lsn=17,
          next_slot=None):
    page = Page(page_id, kind)
    page.page_lsn = page_lsn
    page._records = dict(records)
    page._meta = dict(meta)
    page._next_slot = (next_slot if next_slot is not None
                       else max(page._records, default=-1) + 1)
    return page


#: The shapes the page writer hands (in part) to the codec.
PAGE_SHAPES = [
    _page(records={0: b"a", 1: b"bb", 5: b""}),
    _page(),
    _page(kind=PageKind.FREE, page_lsn=0),
    _page(page_lsn=2 ** 63),
    _page(page_id=2 ** 64, records={0: b"a"}),
    _page(records={2 ** 63: b"big", 0: b"a"}, next_slot=1),
    _page(records={-1: b"neg", 3: b"x"}),
    _page(records={0: bytearray(b"ba"), 1: b"b"}),
    _page(kind=PageKind.SPACE_MAP,
          meta={"bits": b"\x0f", "count": 4, "big": 2 ** 66, "name": "smp",
                "none": None, "ünï": "çödé"}),
    _page(kind=PageKind.INDEX_LEAF, records={0: b"k"},
          meta={"level": 0, "next": None}),
    _page(kind=PageKind.INDEX_INTERNAL, next_slot=True),
    _page(page_id=False, records={True: b"t"}),
]


class TestPageWriter:
    @given(pages())
    def test_equals_reference(self, page):
        image = page.to_bytes()
        assert image == reference_page_image(page)
        assert page_view(Page.from_bytes(image)) == page_view(
            reference_from_bytes(image))

    @pytest.mark.parametrize("page", PAGE_SHAPES,
                             ids=lambda p: f"{p.kind.value}-{p.page_id}")
    def test_shapes_equal_reference(self, page):
        image = page.to_bytes()
        assert image == reference_page_image(page)
        assert page_view(Page.from_bytes(image)) == page_view(
            reference_from_bytes(image))

    def test_corrupted_page_raises(self):
        page = _page(records={0: b"a"})
        page.corrupt()
        with pytest.raises(PageCorruptedError):
            page.to_bytes()
        with pytest.raises(PageCorruptedError):
            reference_page_image(page)


# ---------------------------------------------------------------------------
# The one-walk page reader
# ---------------------------------------------------------------------------

FAILED = "CodecError"


def reference_from_bytes(image):
    """The page ``codec.decode`` of the payload gives, built plainly."""
    payload = image[:-4]
    assert zlib.crc32(payload) == int.from_bytes(image[-4:], "big")
    try:
        fields = codec.decode(payload)
        page_id, kind, page_lsn, page_size, next_slot, records, meta = fields
        page = Page(page_id, PageKind(kind), page_size)
        page._records = {slot: data for slot, data in records}
        page._meta = {key: value for key, value in meta}
    except (TypeError, ValueError) as exc:  # CodecError included
        raise codec.CodecError(f"malformed page image: {exc}") from exc
    page.page_lsn = page_lsn
    page._next_slot = next_slot
    return page


def outcome(read, image):
    try:
        return read(image)
    except codec.CodecError:
        return FAILED


def typed(value):
    """A value with its type at every level, so ``True`` never passes
    for ``1`` nor ``bytearray`` for ``bytes``."""
    if isinstance(value, tuple):
        return (tuple, tuple(typed(item) for item in value))
    return (type(value), value)


def page_view(page):
    if page == FAILED:
        return FAILED
    return typed((page.page_id, page.kind.value, page.page_lsn,
                  page.page_size, page._next_slot,
                  tuple(page._records.items()), tuple(page._meta.items())))


def sealed(payload):
    """``payload`` with a correct CRC trailer, so it reaches the walk."""
    return payload + zlib.crc32(payload).to_bytes(4, "big")


#: The codec's tag bytes: substituting one re-types a value while
#: keeping the walk going, which random bytes rarely do.
TAG_BYTES = b"NtfIGSBT"


def check_reads_like_reference(image):
    assert page_view(outcome(Page.from_bytes, image)) == page_view(
        outcome(reference_from_bytes, image))


def check_damage(image, rng=None):
    payload = image[:-4]
    for cut in range(len(payload)):
        check_reads_like_reference(sealed(payload[:cut]))
    for at in range(len(payload)):
        subs = {payload[at] ^ 0xFF, *TAG_BYTES}
        if rng is not None:
            subs = {payload[at] ^ 0xFF, rng.randrange(256),
                    rng.choice(TAG_BYTES)}
        for byte in subs:
            damaged = bytearray(payload)
            damaged[at] = byte
            check_reads_like_reference(sealed(bytes(damaged)))


class TestPageReader:
    @settings(max_examples=30, deadline=None)
    @given(pages(), st.randoms(use_true_random=False))
    def test_damaged_images(self, page, rng):
        check_damage(page.to_bytes(), rng)

    @pytest.mark.parametrize("page", PAGE_SHAPES,
                             ids=lambda p: f"{p.kind.value}-{p.page_id}")
    def test_damaged_shapes(self, page):
        check_damage(page.to_bytes())

    def test_crc_mismatch_and_short_images_raise(self):
        image = _page(records={0: b"a"}).to_bytes()
        for bad in (image[:-1] + bytes([image[-1] ^ 1]), image[:3], b""):
            with pytest.raises(PageCorruptedError):
                Page.from_bytes(bad)
