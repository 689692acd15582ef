"""A lock table: resources, owners, modes, conversions.

Used twice: as the server's global lock manager (owners are client ids —
the paper's "locks acquired in the name of the LLMs" optimization) and
as each client's local lock manager (owners are transaction ids).

The table grants or refuses immediately; queueing and deadlock handling
are the executor's job: the event-driven engine (``repro.engine.core``)
catches :class:`LockConflictError` and parks the requester, as does the
legacy polling scheduler (``repro.harness.scheduler``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional

from repro.core.lsn import LogAddr, NULL_ADDR
from repro.errors import LockConflictError, LockNotHeldError
from repro.locking.lock_modes import LockMode, compatible, covers, supremum
from repro.probe import Probe

Resource = Hashable


@dataclass
class LockEntry:
    """State of one locked resource."""

    resource: Resource
    holders: Dict[str, LockMode] = field(default_factory=dict)
    #: Recovery bound kept in the lock table for the section 2.6.2
    #: variant (no client checkpoints): the log address from which a
    #: failed holder's updates to this page must be redone.
    rec_addr: LogAddr = NULL_ADDR
    #: Holder count per mode (the classic "group mode" summary).  Lets
    #: :meth:`LockTable.acquire` decide grant/conflict by scanning the
    #: handful of distinct modes instead of every holder — the
    #: difference between O(modes) and O(crowd) when thousands of
    #: readers share one hot resource.  Maintained only by LockTable's
    #: own mutators; counts may keep zero-valued keys.
    mode_counts: Dict[LockMode, int] = field(default_factory=dict)

    def max_mode(self) -> Optional[LockMode]:
        modes = list(self.holders.values())
        if not modes:
            return None
        strongest = modes[0]
        for mode in modes[1:]:
            strongest = supremum(strongest, mode)
        return strongest


class LockTable:
    """Immediate-grant lock table with conversion support."""

    def __init__(self, name: str = "locks",
                 probe: Optional[Probe] = None) -> None:
        self.name = name
        self._entries: Dict[Resource, LockEntry] = {}
        #: Per-owner index of held resources (dict used as an ordered
        #: set: keys in acquisition order).  Makes ``release_all`` and
        #: ``resources_held_by`` proportional to the owner's own locks
        #: instead of a scan over every entry in the table — the
        #: difference between O(txn footprint) and O(live lock space)
        #: on every transaction termination.
        self._by_owner: Dict[str, Dict[Resource, None]] = {}
        #: The owning complex's planes (sanitizer).
        self.probe = probe if probe is not None else Probe()
        self.requests = 0
        self.grants = 0
        self.conflicts = 0
        self.releases = 0

    # -- acquisition -----------------------------------------------------

    def acquire(self, owner: str, resource: Resource, mode: LockMode) -> LockMode:
        """Grant ``mode`` (or a conversion to cover it) to ``owner``.

        Returns the mode now held.  Raises :class:`LockConflictError`
        when any *other* holder's mode is incompatible with the target
        mode; the exception carries the blocking holders so the caller
        can build waits-for edges.
        """
        self.requests += 1
        entry = self._entries.get(resource)
        if entry is None:
            entry = LockEntry(resource)
            self._entries[resource] = entry
        held = entry.holders.get(owner)
        target = mode if held is None else supremum(held, mode)
        # Grant/conflict decision over the group-mode summary: O(distinct
        # modes), not O(holders).  The owner's own current mode is
        # excluded (conversion never conflicts with itself).
        conflicting = False
        for other_mode, count in entry.mode_counts.items():
            if other_mode is held:
                count -= 1
            if count > 0 and not compatible(other_mode, target):
                conflicting = True
                break
        if conflicting:
            # Slow path, only on an actual conflict: enumerate the
            # blockers in acquisition order for the waits-for edges.
            blockers = [other for other, other_mode in entry.holders.items()
                        if other != owner and not compatible(other_mode, target)]
            self.conflicts += 1
            raise LockConflictError(resource, target.value, tuple(blockers))
        entry.holders[owner] = target
        counts = entry.mode_counts
        if held is None:
            owned = self._by_owner.get(owner)
            if owned is None:
                owned = self._by_owner[owner] = {}
            owned[resource] = None
        elif held is not target:
            counts[held] -= 1
        if held is not target:
            counts[target] = counts.get(target, 0) + 1
        self.grants += 1
        if self.probe.sanitizer is not None:
            self.probe.sanitizer.on_lock_acquire(self.name, owner, resource)
        return target

    def try_acquire(self, owner: str, resource: Resource,
                    mode: LockMode) -> Optional[LockMode]:
        """Like :meth:`acquire` but returns None instead of raising."""
        try:
            return self.acquire(owner, resource, mode)
        except LockConflictError:
            return None

    # -- release --------------------------------------------------------------

    def release(self, owner: str, resource: Resource) -> None:
        entry = self._entries.get(resource)
        if entry is None or owner not in entry.holders:
            raise LockNotHeldError(f"{owner} holds no lock on {resource!r}")
        entry.mode_counts[entry.holders.pop(owner)] -= 1
        self._unindex(owner, resource)
        self.releases += 1
        if not entry.holders and entry.rec_addr == NULL_ADDR:
            del self._entries[resource]
        if self.probe.sanitizer is not None:
            self.probe.sanitizer.on_lock_release(self.name, owner, resource)

    def release_all(self, owner: str) -> List[Resource]:
        """Release every lock held by ``owner``; returns the resources
        in acquisition order."""
        owned = self._by_owner.pop(owner, None)
        if not owned:
            return []
        released = []
        for resource in owned:
            entry = self._entries[resource]
            entry.mode_counts[entry.holders.pop(owner)] -= 1
            self.releases += 1
            released.append(resource)
            if not entry.holders and entry.rec_addr == NULL_ADDR:
                del self._entries[resource]
        if self.probe.sanitizer is not None:
            self.probe.sanitizer.on_lock_release_all(self.name, owner)
        return released

    def downgrade(self, owner: str, resource: Resource, mode: LockMode) -> None:
        """Replace the owner's mode with a weaker one."""
        entry = self._entries.get(resource)
        if entry is None or owner not in entry.holders:
            raise LockNotHeldError(f"{owner} holds no lock on {resource!r}")
        previous = entry.holders[owner]
        if previous is not mode:
            entry.holders[owner] = mode
            entry.mode_counts[previous] -= 1
            entry.mode_counts[mode] = entry.mode_counts.get(mode, 0) + 1

    # -- inspection ---------------------------------------------------------------

    def held_mode(self, owner: str, resource: Resource) -> Optional[LockMode]:
        entry = self._entries.get(resource)
        return entry.holders.get(owner) if entry is not None else None

    def is_held(self, owner: str, resource: Resource, mode: LockMode) -> bool:
        held = self.held_mode(owner, resource)
        return held is not None and covers(held, mode)

    def holders(self, resource: Resource) -> Dict[str, LockMode]:
        entry = self._entries.get(resource)
        return dict(entry.holders) if entry is not None else {}

    def resources_held_by(self, owner: str) -> List[Resource]:
        owned = self._by_owner.get(owner)
        return list(owned) if owned is not None else []

    def entries(self) -> Iterator[LockEntry]:
        return iter(self._entries.values())

    def entry(self, resource: Resource) -> Optional[LockEntry]:
        return self._entries.get(resource)

    def entry_or_create(self, resource: Resource) -> LockEntry:
        entry = self._entries.get(resource)
        if entry is None:
            entry = LockEntry(resource)
            self._entries[resource] = entry
        return entry

    def lock_count(self) -> int:
        return sum(len(entry.holders) for entry in self._entries.values())

    # -- crash model -----------------------------------------------------------

    def clear(self) -> None:
        """Server crash: the lock table is volatile and disappears."""
        self._entries.clear()
        self._by_owner.clear()
        if self.probe.sanitizer is not None:
            self.probe.sanitizer.on_table_clear(self.name)

    # -- internal -------------------------------------------------------------

    def _unindex(self, owner: str, resource: Resource) -> None:
        owned = self._by_owner.get(owner)
        if owned is not None:
            owned.pop(resource, None)
            if not owned:
                del self._by_owner[owner]
