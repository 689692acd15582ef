"""Per-client local lock managers (LLMs).

Global locks are acquired from the GLM *in the name of the LLM*, not of
individual transactions (section 2.1).  The LLM then hands sub-locks to
its local transactions out of its own table.  Two effects the paper
cites from the shared-disks work fall out of this design and are
measured by the harness:

* concurrent transactions at one client that touch the same resource
  share the single global lock — message, CPU and storage savings;
* with lock caching enabled, an LLM retains a global lock after its
  local transactions release it, so a later transaction re-acquires it
  with **zero messages** until some other client needs a conflicting
  mode (at which point the server issues a callback and the LLM
  relinquishes if no local transaction still needs it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.locking.lock_modes import LockMode, covers, supremum
from repro.locking.lock_table import LockTable, Resource
from repro.probe import Probe

#: Signature of the client's path to the server GLM: (resource, mode) ->
#: granted mode.  Implemented over the simulated network so every global
#: request counts as a message; raises LockConflictError on conflict.
GlmRequest = Callable[[Resource, LockMode], LockMode]
GlmRelease = Callable[[Resource], None]


class LocalLockManager:
    """A client's lock manager, fronting the GLM."""

    def __init__(self, client_id: str, glm_request: GlmRequest,
                 glm_release: GlmRelease, cache_locks: bool = True,
                 probe: Optional[Probe] = None) -> None:
        self.client_id = client_id
        #: The owning complex's planes (tracer; sanitizer in ``local``).
        self.probe = probe if probe is not None else Probe()
        self._glm_request = glm_request
        self._glm_release = glm_release
        self.cache_locks = cache_locks
        self.local = LockTable(f"llm-{client_id}", self.probe)
        #: Modes this LLM holds globally, by resource.
        self._global_held: Dict[Resource, LockMode] = {}
        #: Requests satisfied without touching the server.
        self.local_only_grants = 0
        #: Requests that needed a GLM round trip.
        self.global_requests = 0
        #: Cached global locks given back on server callback.
        self.callbacks_honored = 0

    # -- acquisition ------------------------------------------------------

    def acquire(self, txn_id: str, resource: Resource, mode: LockMode) -> LockMode:
        """Acquire ``mode`` on behalf of a local transaction.

        Local conflicts (two transactions at this client) surface as
        :class:`LockConflictError` with transaction-id holders; global
        conflicts surface with client-id holders, as raised by the GLM
        path.
        """
        held_global = self._global_held.get(resource)
        needed = mode if held_global is None else supremum(held_global, mode)
        if held_global is None or not covers(held_global, needed):
            if self.probe.tracer is not None:
                self.probe.tracer.instant(
                    "lock", "glm_request", self.client_id,
                    resource=str(resource), mode=needed.name)
            granted = self._glm_request(resource, needed)
            self.global_requests += 1
            self._global_held[resource] = granted
        else:
            self.local_only_grants += 1
            if self.probe.tracer is not None:
                self.probe.tracer.instant(
                    "lock", "local_grant", self.client_id,
                    resource=str(resource), mode=mode.name)
        return self.local.acquire(txn_id, resource, mode)

    def is_held(self, txn_id: str, resource: Resource, mode: LockMode) -> bool:
        return self.local.is_held(txn_id, resource, mode)

    # -- release ------------------------------------------------------------

    def release_transaction(self, txn_id: str) -> None:
        """Drop a terminating transaction's local locks.

        Without lock caching, global locks that no remaining local
        transaction needs are released back to the GLM immediately.
        """
        self.local.release_all(txn_id)
        if not self.cache_locks:
            self._release_unused_globals()

    def _release_unused_globals(self) -> None:
        for resource in list(self._global_held):
            if not self.local.holders(resource):
                self._glm_release(resource)
                del self._global_held[resource]

    def globals_freed_by(self, txn_id: str) -> List[Resource]:
        """The global locks ``txn_id``'s termination gives back.

        Empty with lock caching on (the LLM keeps them).  Without it,
        every global lock no *other* local transaction holds — exactly
        what :meth:`release_transaction` would release — named ahead so
        the commit request can carry them: the server releases them
        after the force, and :meth:`forget_globals` then drops them
        here before the local release.
        """
        if self.cache_locks:
            return []
        freed = []
        for resource in self._global_held:
            entry = self.local.entry(resource)
            if entry is None or entry.holders.keys() <= {txn_id}:
                freed.append(resource)
        return freed

    def forget_globals(self, resources: List[Resource]) -> None:
        """Drop global locks the server already released for us."""
        for resource in resources:
            del self._global_held[resource]

    # -- server callbacks ---------------------------------------------------------

    def try_relinquish(self, resource: Resource) -> bool:
        """Server asks for a cached lock back (another client conflicts).

        Returns True (and drops the global lock) when no local
        transaction currently holds the resource; False when a local
        holder forces the requester to wait.
        """
        if self.local.holders(resource):
            return False
        if resource in self._global_held:
            del self._global_held[resource]
            self.callbacks_honored += 1
            # The GLM-side release happens at the server, which invoked us.
            return True
        return True

    def reduce_to_local_need(self, resource: Resource) -> Optional[LockMode]:
        """De-escalation callback: shrink the cached global lock to the
        strongest mode a local transaction still needs.

        Returns the mode the LLM must keep (the server downgrades the
        GLM entry to it), or None when nothing is needed locally (the
        server releases the entry).  A cached X acquired by an earlier
        update transaction thus stops blocking remote readers when only
        local readers remain.
        """
        entry = self.local.entry(resource)
        needed = entry.max_mode() if entry is not None else None
        if needed is None:
            self._global_held.pop(resource, None)
            self.callbacks_honored += 1
            return None
        held = self._global_held.get(resource)
        if held is not None and held is not needed and covers(held, needed):
            self._global_held[resource] = needed
            self.callbacks_honored += 1
        return needed

    # -- crash / reconnection ----------------------------------------------------

    def crash(self) -> None:
        """Client crash: all local lock state disappears."""
        self.local.clear()
        self._global_held.clear()

    def global_locks_snapshot(self) -> Dict[Resource, LockMode]:
        """For server lock-table reconstruction after a server crash."""
        return dict(self._global_held)
