"""Buffer manager: frames, BCBs, steal eviction, WAL bookkeeping.

Both the server and every client run one :class:`BufferPool`.  The pool
implements the mechanics — frames, LRU, fix counts — while the *owner*
supplies the policy through the ``on_evict`` callback:

* the **server** forces its log through the frame's ``force_addr`` and
  writes the page to disk (the WAL protocol of section 2.2);
* a **client** ships its buffered log records and then the dirty page to
  the server (the conservative WAL-with-respect-to-the-server rule of
  section 2.1).

Each buffer control block tracks the recovery bookkeeping the paper
assigns to it: ``rec_lsn`` at clients (the LSN of the most recent local
log record just before the page became dirty *at that client*, section
2.5.2) and ``rec_addr`` at the server (a lower bound for the log address
of the first update possibly missing from the disk version, section
2.5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN
from repro.errors import BufferPoolFullError
from repro.probe import Probe
from repro.storage.page import Page


@dataclass
class BufferControlBlock:
    """Per-frame state (the paper's BCB)."""

    page: Page
    dirty: bool = False
    fix_count: int = 0
    #: Client-side recovery bound (LSN space); NULL_LSN when clean.
    rec_lsn: LSN = NULL_LSN
    #: Server-side recovery bound (log-address space); NULL_ADDR when clean.
    rec_addr: LogAddr = NULL_ADDR
    #: Server-side WAL bound: log must be stable through this address
    #: before this page may be written to disk.
    force_addr: LogAddr = NULL_ADDR
    #: Server-side coverage bound: every log record for this page with a
    #: smaller address is reflected in this image (set to end-of-log when
    #: the image arrives/changes).  Lets the section 2.6.2 variant advance
    #: the GLM-resident RecAddr safely after a disk write (footnote 5).
    covered_addr: LogAddr = NULL_ADDR
    lru_tick: int = 0

    @property
    def page_id(self) -> int:
        return self.page.page_id


class BufferPool:
    """A fixed-capacity page cache with steal eviction."""

    def __init__(self, capacity: int, name: str = "pool",
                 on_evict: Optional[Callable[[BufferControlBlock], None]] = None,
                 probe: Optional[Probe] = None) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.capacity = capacity
        self.name = name
        self.on_evict = on_evict
        #: The owning complex's planes (tracer, faults, sanitizer).
        self.probe = probe if probe is not None else Probe()
        self._frames: Dict[int, BufferControlBlock] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    # -- lookup ------------------------------------------------------------

    def get(self, page_id: int) -> Optional[Page]:
        """Return the cached page, updating LRU and hit/miss counters."""
        bcb = self._frames.get(page_id)
        if bcb is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(bcb)
        return bcb.page

    def peek(self, page_id: int) -> Optional[Page]:
        """Lookup without touching LRU or counters (for assertions)."""
        bcb = self._frames.get(page_id)
        return bcb.page if bcb is not None else None

    def bcb(self, page_id: int) -> Optional[BufferControlBlock]:
        return self._frames.get(page_id)

    def _touch(self, bcb: BufferControlBlock) -> None:
        self._tick += 1
        bcb.lru_tick = self._tick

    # -- admission / eviction -------------------------------------------------

    def admit(self, page: Page, dirty: bool = False,
              rec_lsn: LSN = NULL_LSN, rec_addr: LogAddr = NULL_ADDR,
              force_addr: LogAddr = NULL_ADDR,
              covered_addr: LogAddr = NULL_ADDR) -> BufferControlBlock:
        """Place ``page`` in a frame, evicting if necessary.

        Admitting a page already present replaces the image but merges
        the recovery bookkeeping conservatively: the oldest rec_lsn /
        rec_addr is kept and the largest force_addr wins, exactly the
        server rule for receiving a newer dirty version of a page it
        already holds dirty (section 2.5.2).
        """
        existing = self._frames.get(page.page_id)
        if existing is not None:
            existing.page = page
            existing.covered_addr = max(existing.covered_addr, covered_addr)
            if dirty:
                was_dirty = existing.dirty
                existing.dirty = True
                if not was_dirty:
                    existing.rec_lsn = rec_lsn
                    existing.rec_addr = rec_addr
                else:
                    existing.rec_lsn = _min_lsn(existing.rec_lsn, rec_lsn)
                    existing.rec_addr = _min_addr(existing.rec_addr, rec_addr)
                existing.force_addr = max(existing.force_addr, force_addr)
            self._touch(existing)
            return existing
        if len(self._frames) >= self.capacity:
            self._evict_one()
        bcb = BufferControlBlock(
            page=page, dirty=dirty,
            rec_lsn=rec_lsn if dirty else NULL_LSN,
            rec_addr=rec_addr if dirty else NULL_ADDR,
            force_addr=force_addr,
            covered_addr=covered_addr,
        )
        self._frames[page.page_id] = bcb
        self._touch(bcb)
        return bcb

    def _evict_one(self) -> None:
        victim: Optional[BufferControlBlock] = None
        for bcb in self._frames.values():
            if bcb.fix_count > 0:
                continue
            if victim is None or bcb.lru_tick < victim.lru_tick:
                victim = bcb
        if victim is None:
            raise BufferPoolFullError(
                f"{self.name}: all {self.capacity} frames are fixed"
            )
        probe = self.probe
        if probe.tracer is not None:
            probe.tracer.instant("buf", "evict", self.name,
                                 page_id=victim.page_id, dirty=victim.dirty)
        if victim.dirty:
            # Steal: a dirty (possibly uncommitted) page leaves the pool.
            # The owner's callback must make it durable first.
            if probe.faults is not None:
                probe.faults.crashpoint("pool.evict.before_writeback")
            self.dirty_evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        self.evictions += 1
        del self._frames[victim.page_id]

    # -- dirty-state transitions ------------------------------------------------

    def mark_dirty(self, page_id: int, rec_lsn: LSN = NULL_LSN,
                   rec_addr: LogAddr = NULL_ADDR,
                   force_addr: LogAddr = NULL_ADDR) -> BufferControlBlock:
        """Record that the cached page was modified.

        On the clean->dirty transition the given bounds are stored; on an
        already dirty page only ``force_addr`` advances (the recovery
        bounds must keep covering the earliest unpersisted update).
        """
        bcb = self._frames[page_id]
        if not bcb.dirty:
            bcb.dirty = True
            bcb.rec_lsn = rec_lsn
            bcb.rec_addr = rec_addr
        bcb.force_addr = max(bcb.force_addr, force_addr)
        return bcb

    def mark_clean(self, page_id: int) -> None:
        """The page's updates are now persistent at the next tier."""
        bcb = self._frames.get(page_id)
        if bcb is None:
            return
        bcb.dirty = False
        bcb.rec_lsn = NULL_LSN
        bcb.rec_addr = NULL_ADDR
        bcb.force_addr = NULL_ADDR

    def fix(self, page_id: int) -> None:
        self._frames[page_id].fix_count += 1
        probe = self.probe
        if probe.tracer is not None:
            probe.tracer.instant("buf", "fix", self.name, page_id=page_id)
        if probe.sanitizer is not None:
            probe.sanitizer.on_fix(self.name, page_id)

    def unfix(self, page_id: int) -> None:
        bcb = self._frames[page_id]
        if bcb.fix_count <= 0:
            raise ValueError(f"unfix of unfixed page {page_id}")
        bcb.fix_count -= 1
        probe = self.probe
        if probe.tracer is not None:
            probe.tracer.instant("buf", "unfix", self.name, page_id=page_id)
        if probe.sanitizer is not None:
            probe.sanitizer.on_unfix(self.name, page_id)

    def fixed(self, page_id: int) -> "_PinGuard":
        """Pin a resident page for the duration of a ``with`` block.

        The exception-safe spelling of fix/unfix: while pinned the frame
        cannot be chosen for eviction, so the caller's page object stays
        the cached image and its BCB survives any other admissions the
        block performs.  Entering yields the pinned page.

        Returns a tiny ``__slots__`` guard object rather than a
        ``@contextmanager`` generator: this runs once per record write,
        and the guard is one small allocation where the generator
        protocol costs two plus frame setup.
        """
        return _PinGuard(self, page_id)

    def drop(self, page_id: int) -> None:
        """Remove a frame without writeback (purge / invalidation)."""
        self._frames.pop(page_id, None)

    # -- inspection ----------------------------------------------------------

    def dirty_bcbs(self) -> Iterator[BufferControlBlock]:
        for page_id in sorted(self._frames):
            bcb = self._frames[page_id]
            if bcb.dirty:
                yield bcb

    def page_ids(self) -> Iterator[int]:
        return iter(sorted(self._frames))

    def dirty_count(self) -> int:
        return sum(1 for bcb in self._frames.values() if bcb.dirty)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- crash model ------------------------------------------------------------

    def clear(self) -> None:
        """Crash: all volatile frames disappear."""
        self._frames.clear()
        sanitizer = self.probe.sanitizer
        if sanitizer is not None:
            sanitizer.on_pool_clear(self.name)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0


def _min_lsn(a: LSN, b: LSN) -> LSN:
    if a == NULL_LSN:
        return b
    if b == NULL_LSN:
        return a
    return min(a, b)


def _min_addr(a: LogAddr, b: LogAddr) -> LogAddr:
    if a == NULL_ADDR:
        return b
    if b == NULL_ADDR:
        return a
    return min(a, b)


class _PinGuard:
    """Reusable-shape pin scope returned by :meth:`BufferPool.fixed`."""

    __slots__ = ("_pool", "_page_id")

    def __init__(self, pool: BufferPool, page_id: int) -> None:
        self._pool = pool
        self._page_id = page_id

    def __enter__(self) -> Page:
        pool = self._pool
        entered = False
        pool.fix(self._page_id)
        try:
            page = pool._frames[self._page_id].page
            entered = True
            return page
        finally:
            # A missing frame must not leak the pin count; on the
            # normal path release stays with __exit__.
            if not entered:
                pool.unfix(self._page_id)

    def __exit__(self, *exc_info: object) -> None:
        self._pool.unfix(self._page_id)
