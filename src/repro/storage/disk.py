"""The server's stable database disk.

The disk stores serialized page images: ``write_page`` encodes each
write once with ``Page.to_bytes``, the page's straight-line writer, and
``read_page`` decodes with ``Page.from_bytes``, one walk over the
image.  The disk adds no framing of its own.  Page writes are atomic —
the simulation's crash model is "everything volatile disappears, the
disk keeps exactly the images last written" — which is the standard
assumption ARIES makes about the storage layer.

Media failures (section 2.5.3) are injected per page: a failed page
raises :class:`MediaFailureError` on read until media recovery rewrites
it.  I/O counters feed the buffer-policy benchmarks (experiment E8).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from repro.errors import MediaFailureError, PageNotFoundError
from repro.faults import TORN_WRITE_CRASH, CrashPointReached
from repro.probe import Probe
from repro.storage.page import Page


class Disk:
    """A crash-surviving, per-page-atomic store of page images."""

    def __init__(self, probe: Optional[Probe] = None) -> None:
        self._images: Dict[int, bytes] = {}
        self._failed_pages: Set[int] = set()
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: The owning complex's planes (faults).
        self.probe = probe if probe is not None else Probe()

    # -- I/O -------------------------------------------------------------

    def write_page(self, page: Page) -> None:
        """Atomically replace the stored image of ``page``.

        With a fault plan attached, the write may fail transiently
        (:class:`~repro.errors.TransientIOError`; callers retry) or
        tear: half the serialized image is persisted and
        :class:`~repro.faults.CrashPointReached` propagates to the
        harness, which crashes the complex — a torn write only exists
        because the writer died mid-write.  The CRC trailer of
        ``Page.to_bytes`` makes the tear detectable on the next read.
        """
        image = page.to_bytes()
        faults = self.probe.faults
        if faults is not None:
            faults.maybe_io_error("disk.write", page.page_id)
            torn = faults.torn_write_len(page.page_id, len(image))
            if torn is not None:
                self._images[page.page_id] = image[:torn]
                self._failed_pages.discard(page.page_id)
                self.writes += 1
                self.bytes_written += torn
                raise CrashPointReached(TORN_WRITE_CRASH)
        self._images[page.page_id] = image
        self._failed_pages.discard(page.page_id)
        self.writes += 1
        self.bytes_written += len(image)

    def read_page(self, page_id: int) -> Page:
        """Read and deserialize a page image.

        Raises :class:`PageNotFoundError` for never-written pages,
        :class:`MediaFailureError` for pages with an injected media
        failure, and :class:`~repro.errors.PageCorruptedError` when the
        stored image fails its CRC (a torn write surfaced).
        """
        if page_id in self._failed_pages:
            raise MediaFailureError(page_id)
        image = self._images.get(page_id)
        if image is None:
            raise PageNotFoundError(page_id)
        self.reads += 1
        self.bytes_read += len(image)
        return Page.from_bytes(image)

    def contains(self, page_id: int) -> bool:
        return page_id in self._images

    def page_ids(self) -> Iterator[int]:
        return iter(sorted(self._images))

    def stored_lsn(self, page_id: int) -> Optional[int]:
        """page_LSN of the on-disk version, without counting as an I/O.

        Test/assertion helper: lets invariants inspect the disk state the
        way a human debugging a recovery log would.
        """
        image = self._images.get(page_id)
        if image is None or page_id in self._failed_pages:
            return None
        return Page.from_bytes(image).page_lsn

    # -- failure injection --------------------------------------------------

    def inject_media_failure(self, page_id: int) -> None:
        """Make subsequent reads of ``page_id`` fail until rewritten."""
        if page_id not in self._images:
            raise PageNotFoundError(page_id)
        self._failed_pages.add(page_id)

    def has_media_failure(self, page_id: int) -> bool:
        return page_id in self._failed_pages
