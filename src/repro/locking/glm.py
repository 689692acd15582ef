"""The global lock manager (GLM) hosted at the server.

Two tables (section 2.1):

* **logical locks** — record / page / table locks acquired in the name
  of client LLMs (not individual transactions), which is the
  message-saving optimization the paper cites from the shared-disks
  work;
* **P-locks (physical locks)** — per-page update-privilege ownership.
  At most one system holds a P-lock in update (X) mode at a time, which
  serializes physical page modification under record locking.

The P-lock entries also hold the per-page ``rec_addr`` used by the
section 2.6.2 variant, where the server keeps failed-client recovery
bounds in the lock table instead of relying on client checkpoints.

A logical lock request answered over RPC gets a grant or a wait, and
both are ordinary replies: :meth:`GlobalLockManager.request` returns
the granted mode or a :class:`LockDenied` record.  The requesting
client turns the record back into a
:class:`~repro.errors.LockConflictError` on its own side.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.lsn import LogAddr, NULL_ADDR
from repro.errors import LockConflictError
from repro.locking.lock_modes import LockMode
from repro.locking.lock_table import LockTable, Resource
from repro.probe import Probe


def p_lock_resource(page_id: int) -> Tuple[str, int]:
    return ("P", page_id)


class LockDenied(NamedTuple):
    """The GLM's "wait" answer to a lock request, sent as a reply value.

    It has the three fields of the :class:`LockConflictError` the lock
    table raised. ``requested`` is the conversion target, i.e. the
    supremum of the held and the requested mode. ``holders`` are the
    blocking clients in acquisition order. A denial is plain data.
    Caching it for exactly-once retries, or shipping it to a standby,
    keeps no frame or traceback alive.
    """

    resource: Resource
    requested: str
    holders: Tuple[str, ...]

    def error(self) -> LockConflictError:
        """A fresh exception for the requester to raise."""
        return LockConflictError(self.resource, self.requested, self.holders)


class GlobalLockManager:
    """Server-side lock authority for the whole complex."""

    def __init__(self, probe: Optional[Probe] = None) -> None:
        self.logical = LockTable("glm-logical", probe)
        self.physical = LockTable("glm-physical", probe)

    # -- logical locks -----------------------------------------------------

    def acquire(self, client_id: str, resource: Resource, mode: LockMode) -> LockMode:
        return self.logical.acquire(client_id, resource, mode)

    def request(self, client_id: str, resource: Resource,
                mode: LockMode) -> Union[LockMode, LockDenied]:
        """:meth:`acquire`, with a conflict answered as a reply value."""
        try:
            return self.acquire(client_id, resource, mode)
        except LockConflictError as conflict:
            return LockDenied(conflict.resource, conflict.requested,
                              conflict.holders)

    def release(self, client_id: str, resource: Resource) -> None:
        self.logical.release(client_id, resource)

    def downgrade(self, client_id: str, resource: Resource,
                  mode: LockMode) -> None:
        """De-escalate a client's cached logical lock (callback result)."""
        self.logical.downgrade(client_id, resource, mode)

    def release_all(self, client_id: str) -> List[Resource]:
        """Drop every logical lock of a (failed or departing) client."""
        return self.logical.release_all(client_id)

    def holders(self, resource: Resource) -> Dict[str, LockMode]:
        return self.logical.holders(resource)

    # -- P-locks -----------------------------------------------------------------

    def acquire_p_lock(self, client_id: str, page_id: int,
                       mode: LockMode) -> LockMode:
        """Grant a P-lock; raises on conflict with other systems.

        The *server* orchestrates conflict resolution (asking the update
        owner to ship the latest page version before relinquishing,
        section 2.1); the GLM only does the accounting.
        """
        return self.physical.acquire(client_id, p_lock_resource(page_id), mode)

    def release_p_lock(self, client_id: str, page_id: int) -> None:
        self.physical.release(client_id, p_lock_resource(page_id))

    def downgrade_p_lock(self, client_id: str, page_id: int, mode: LockMode) -> None:
        self.physical.downgrade(client_id, p_lock_resource(page_id), mode)

    def p_lock_holders(self, page_id: int) -> Dict[str, LockMode]:
        return self.physical.holders(p_lock_resource(page_id))

    def update_privilege_owner(self, page_id: int) -> Optional[str]:
        """Which system currently holds the page's update privilege."""
        for owner, mode in self.physical.holders(p_lock_resource(page_id)).items():
            if mode is LockMode.X:
                return owner
        return None

    def p_lock_s_holders(self, page_id: int) -> List[str]:
        """Clients holding the page's P-lock in S mode (cache tokens).

        An S P-lock is a coherency token: while any S holders exist no
        system may modify the page, so their cached copies stay valid.
        """
        return sorted(
            owner
            for owner, mode in self.physical.holders(p_lock_resource(page_id)).items()
            if mode is LockMode.S
        )

    def pages_with_update_privilege(self, client_id: str) -> List[int]:
        """Pages whose update privilege ``client_id`` holds.

        This is the failed client's candidate redo set in section 2.6.1
        ("redo would have to be checked only for those pages for which
        the failed client had P locks") and its entire DPL in the
        section 2.6.2 variant.
        """
        pages = []
        for resource in self.physical.resources_held_by(client_id):
            kind, page_id = resource  # type: ignore[misc]
            if self.physical.held_mode(client_id, resource) is LockMode.X:
                pages.append(page_id)
        return sorted(pages)

    def release_all_p_locks(self, client_id: str) -> List[int]:
        pages = []
        for resource in self.physical.release_all(client_id):
            __, page_id = resource  # type: ignore[misc]
            pages.append(page_id)
        return sorted(pages)

    # -- RecAddr in the lock table (section 2.6.2) ----------------------------

    def note_update_grant(self, page_id: int, current_end_addr: LogAddr) -> None:
        """First update-privilege grant on a page: pin its RecAddr."""
        entry = self.physical.entry_or_create(p_lock_resource(page_id))
        if entry.rec_addr == NULL_ADDR:
            entry.rec_addr = current_end_addr

    def lock_table_rec_addr(self, page_id: int) -> LogAddr:
        entry = self.physical.entry(p_lock_resource(page_id))
        return entry.rec_addr if entry is not None else NULL_ADDR

    def advance_rec_addr(self, page_id: int, new_addr: LogAddr) -> None:
        """Move RecAddr forward after the page reached disk.

        The paper's footnote 5 warns this must exclude only log records
        whose effects are in the disk copy; callers pass the address
        corresponding to the page_LSN of the version written.
        """
        entry = self.physical.entry(p_lock_resource(page_id))
        if entry is not None and new_addr > entry.rec_addr:
            entry.rec_addr = new_addr

    def clear_rec_addr(self, page_id: int) -> None:
        entry = self.physical.entry(p_lock_resource(page_id))
        if entry is not None:
            entry.rec_addr = NULL_ADDR

    # -- crash model / reconstruction --------------------------------------------

    def clear(self) -> None:
        """Server crash: the whole lock table is volatile."""
        self.logical.clear()
        self.physical.clear()

    def reinstall_client_locks(
        self, client_id: str,
        logical_locks: Dict[Resource, LockMode],
        p_locks: Dict[int, LockMode],
    ) -> None:
        """Rebuild entries from a surviving client's report (section 2.7:
        after server restart, operational clients send their lock and
        dirty-page information to reconstruct the lock table)."""
        for resource, mode in logical_locks.items():
            self.logical.acquire(client_id, resource, mode)
        for page_id, mode in p_locks.items():
            self.physical.acquire(client_id, p_lock_resource(page_id), mode)

    # -- metrics ----------------------------------------------------------------

    @property
    def logical_requests(self) -> int:
        return self.logical.requests

    @property
    def physical_requests(self) -> int:
        return self.physical.requests
