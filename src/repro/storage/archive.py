"""The archive: backup copies for media recovery (section 2.5.3).

A backup captures, for every page currently on disk, its image *and* a
log address recorded with the copy: the point from which a forward redo
scan is guaranteed to encounter every log record whose update might be
missing from the archived image.  Media recovery then is: load the
backup copy, redo from the recorded address, filtered by the usual
``page_LSN < record.LSN`` test.

The address recorded is supplied by the caller (the server), which knows
the conservative bound: the minimum RecAddr across every dirty page in
the complex at backup time (any update already on disk needs no redo;
any update not on disk is covered by some dirty page's RecAddr or lies
beyond end-of-log at backup time).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.lsn import LogAddr
from repro.errors import ArchiveError
from repro.faults import io_retry
from repro.probe import Probe
from repro.storage.disk import Disk
from repro.storage.page import Page


class Archive:
    """Stores page backups with their media-recovery start addresses."""

    def __init__(self, probe: Optional[Probe] = None) -> None:
        self._copies: Dict[int, Tuple[bytes, LogAddr]] = {}
        self.backups_taken = 0
        #: Page copies written to the archive (media-recovery I/O cost).
        self.archive_writes = 0
        #: Backup copies read back during media recovery.
        self.archive_reads = 0
        #: The owning complex's planes (faults).
        self.probe = probe if probe is not None else Probe()

    def _store_copy(self, page_id: int, image: bytes,
                    redo_start_addr: LogAddr) -> None:
        """One archive copy write, retried through the fault plane's
        deterministic transient-I/O policy."""
        faults = self.probe.faults

        def attempt() -> None:
            if faults is not None:
                faults.maybe_io_error("archive.write", page_id)
            self._copies[page_id] = (image, redo_start_addr)
        io_retry(faults, attempt, "archive.write")
        self.archive_writes += 1

    def backup_from_disk(self, disk: Disk, redo_start_addr: LogAddr) -> int:
        """Archive every page currently on disk; returns the page count.

        ``redo_start_addr`` is the conservative redo bound computed by
        the server at the moment of the backup.
        """
        faults = self.probe.faults
        if faults is not None:
            faults.crashpoint("archive.backup.before_copy")
        count = 0
        for page_id in disk.page_ids():
            if disk.has_media_failure(page_id):
                continue
            page = disk.read_page(page_id)
            self._store_copy(page_id, page.to_bytes(), redo_start_addr)
            count += 1
        self.backups_taken += 1
        return count

    def backup_page(self, page: Page, redo_start_addr: LogAddr) -> None:
        """Archive a single page image."""
        faults = self.probe.faults
        if faults is not None:
            faults.crashpoint("archive.backup.before_copy")
        self._store_copy(page.page_id, page.to_bytes(), redo_start_addr)

    def restore_page(self, page_id: int) -> Tuple[Page, LogAddr]:
        """Return (backup copy, redo start address) for ``page_id``."""
        faults = self.probe.faults
        if faults is not None:
            faults.crashpoint("archive.restore.before")
        entry = self._copies.get(page_id)
        if entry is None:
            raise ArchiveError(f"no backup copy for page {page_id}")

        def attempt() -> Tuple[bytes, LogAddr]:
            if faults is not None:
                faults.maybe_io_error("archive.read", page_id)
            assert entry is not None
            return entry
        image, addr = io_retry(faults, attempt, "archive.read")
        self.archive_reads += 1
        return Page.from_bytes(image), addr

    def has_backup(self, page_id: int) -> bool:
        return page_id in self._copies

    def backup_lsn(self, page_id: int) -> Optional[int]:
        entry = self._copies.get(page_id)
        if entry is None:
            return None
        return Page.from_bytes(entry[0]).page_lsn
