"""Runtime latch/lock-order and WAL sanitizer (the dynamic plane).

The static linter (``repro.analysis``) proves ordering disciplines over
call paths it can see; this module checks the same disciplines on every
*executed* path.  A :class:`Sanitizer` is attached by
:meth:`repro.core.system.ClientServerSystem.attach_sanitizer` as the
complex probe's ``sanitizer`` plane (DESIGN §9, "Probe"), and it never
touches a metrics counter (disabled runs are byte-identical).

Hook points and what they feed:

* ``BufferPool.fix/unfix/clear`` — per-actor latch (pin) stacks;
* ``LockTable.acquire/release/release_all/clear`` — per-actor lock
  holdings (GLM tables derive the actor from the owner, which is a
  client id; LLM tables derive it from the table name);
* engine ``_park`` / op completion / ``_on_terminated`` and the
  client's transaction-finish path — *span* boundaries;
* ``StableLog.append/force/crash`` and ``Server._disk_write`` — the
  WAL force-before-externalize boundary.

Violations raised (each one a :class:`SanitizerViolation`):

* **latch-order inversion** — two distinct pages pinned in one order
  somewhere, and in the opposite order somewhere else (the classic
  deadlock seed; the global pair-order memory spans actors and runs);
* **unpaired fix** — a latch still held when its actor's span ends
  (op completed, transaction finished, or the actor parked: pins must
  never survive into a wait);
* **WAL violation** — a page externalized to the database disk whose
  ``page_LSN`` names a log record that was appended but never forced.

Acquisition-order *edges* are recorded at resource-class granularity
(:data:`LATCH_PAGE`, :data:`LOCK_LOGICAL`, :data:`LOCK_PHYSICAL`) and
only between acquisitions of the same span — a lock held since a
previous operation does not order the next operation's acquisitions.
That is exactly the call-path-local ordering the static
``repro.analysis.dataflow`` graph computes, which is what makes the
cross-check (static graph must be a superset of the observed graph)
meaningful.

``SanitizerViolation`` subclasses ``BaseException`` for the same reason
``CrashPointReached`` does: it must not be absorbed by ``except
Exception`` domain-error handling (e.g. the RPC dispatcher's error
conversion) on its way out of an arbitrarily deep hook site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

#: Resource classes shared with the static plane
#: (``repro.analysis.dataflow.lockgraph`` imports these literals).
LATCH_PAGE = "latch.page"
LOCK_LOGICAL = "lock.logical"
LOCK_PHYSICAL = "lock.physical"

RESOURCE_CLASSES = (LATCH_PAGE, LOCK_LOGICAL, LOCK_PHYSICAL)


class SanitizerViolation(BaseException):
    """A protocol-ordering invariant broke at runtime.

    BaseException (not ReproError): violations must propagate raw
    through every domain-error handler — a sanitizer trip is a finding
    about the code, never a recoverable condition of the workload.
    """

    def __init__(self, kind: str, actor: str, detail: str) -> None:
        super().__init__(f"[{kind}] actor={actor}: {detail}")
        self.kind = kind
        self.actor = actor
        self.detail = detail


@dataclass(frozen=True)
class _Token:
    """One held resource: class, instance key, and release pairing."""

    cls: str
    key: object
    table: str
    owner: str


def _pool_actor(pool_name: str) -> str:
    """``C1-pool`` -> ``C1``; ``server-pool`` -> ``server``."""
    if pool_name.endswith("-pool"):
        return pool_name[:-len("-pool")]
    return pool_name


def _table_actor(table_name: str, owner: str) -> str:
    """LLM tables belong to one client; GLM owners *are* client ids."""
    if table_name.startswith("llm-"):
        return table_name[len("llm-"):]
    return owner


def _lock_class(table_name: str) -> str:
    return LOCK_PHYSICAL if "physical" in table_name else LOCK_LOGICAL


class Sanitizer:
    """Per-actor held-resource stacks + global acquisition-order state."""

    def __init__(self) -> None:
        #: actor -> every currently held token, in acquisition order.
        self._held: Dict[str, List[_Token]] = {}
        #: actor -> tokens acquired in the current span and still held.
        self._span: Dict[str, List[_Token]] = {}
        #: Unordered latch pair -> the first-seen acquisition direction.
        self._pair_order: Dict[FrozenSet[object], Tuple[object, object]] = {}
        #: Observed class-level acquisition-order edges (for cross-check).
        self._edges: Set[Tuple[str, str]] = set()
        #: LSN -> end address of its log frame, for appended-not-forced
        #: records (pruned as the forced boundary advances).
        self._pending_lsn: Dict[int, int] = {}
        self._flushed_addr: int = 0

    # -- latches (buffer pool pins) ---------------------------------------

    def on_fix(self, pool_name: str, page_id: int) -> None:
        actor = _pool_actor(pool_name)
        self._note_acquire(actor, _Token(LATCH_PAGE, page_id, pool_name, actor))

    def on_unfix(self, pool_name: str, page_id: int) -> None:
        actor = _pool_actor(pool_name)
        self._drop(actor, _Token(LATCH_PAGE, page_id, pool_name, actor))

    def on_pool_clear(self, pool_name: str) -> None:
        """Crash: every pin of this pool's actor vanishes with the frames."""
        actor = _pool_actor(pool_name)
        for stack in (self._held, self._span):
            tokens = stack.get(actor)
            if tokens:
                stack[actor] = [t for t in tokens if t.table != pool_name]

    # -- locks (GLM / LLM tables) -----------------------------------------

    def on_lock_acquire(self, table_name: str, owner: str,
                        resource: object) -> None:
        actor = _table_actor(table_name, owner)
        token = _Token(_lock_class(table_name), resource, table_name, owner)
        held = self._held.setdefault(actor, [])
        if token in held:
            return  # re-grant / conversion of a lock already held
        self._note_acquire(actor, token)

    def on_lock_release(self, table_name: str, owner: str,
                        resource: object) -> None:
        actor = _table_actor(table_name, owner)
        self._drop(actor, _Token(_lock_class(table_name), resource,
                                 table_name, owner))

    def on_lock_release_all(self, table_name: str, owner: str) -> None:
        actor = _table_actor(table_name, owner)
        for stack in (self._held, self._span):
            tokens = stack.get(actor)
            if tokens:
                stack[actor] = [t for t in tokens
                                if not (t.table == table_name
                                        and t.owner == owner)]

    def on_table_clear(self, table_name: str) -> None:
        """Crash: the whole lock table is volatile."""
        for stack in (self._held, self._span):
            for actor, tokens in stack.items():
                if tokens:
                    stack[actor] = [t for t in tokens
                                    if t.table != table_name]

    # -- span boundaries ----------------------------------------------------

    def on_span_exit(self, actor: str) -> None:
        """An operation completed or a transaction finished: no pin may
        survive the span (the repo-wide fix/unfix pairing discipline)."""
        latches = [t for t in self._held.get(actor, ()) if t.cls == LATCH_PAGE]
        if latches:
            pages = sorted({str(t.key) for t in latches})
            raise SanitizerViolation(
                "unpaired-fix", actor,
                f"span ended with {len(latches)} pin(s) still held on "
                f"page(s) {', '.join(pages)}")
        self._span[actor] = []

    def on_park(self, actor: str) -> None:
        """The actor is entering the engine's wait set.  Pins are
        released by the conflict unwind before the park, so any latch
        still held here is a leak about to span a wait."""
        self.on_span_exit(actor)

    # -- WAL boundary ------------------------------------------------------

    def on_log_append(self, lsn: int, frame_end_addr: int) -> None:
        if frame_end_addr > self._flushed_addr:
            self._pending_lsn[int(lsn)] = frame_end_addr

    def on_log_force(self, flushed_addr: int) -> None:
        if flushed_addr <= self._flushed_addr:
            return
        self._flushed_addr = flushed_addr
        if self._pending_lsn:
            self._pending_lsn = {
                lsn: end for lsn, end in self._pending_lsn.items()
                if end > flushed_addr
            }

    def on_log_crash(self, end_of_log_addr: int) -> None:
        """Server log crash: the unforced tail is gone and whatever
        survived is, by definition, stable."""
        self._flushed_addr = end_of_log_addr
        self._pending_lsn.clear()

    def on_page_externalize(self, page_id: int, page_lsn: int) -> None:
        frame_end = self._pending_lsn.get(int(page_lsn))
        if frame_end is not None and frame_end > self._flushed_addr:
            raise SanitizerViolation(
                "wal", "server",
                f"page {page_id} externalized with page_lsn {int(page_lsn)} "
                f"whose log frame ends at {frame_end} but only "
                f"{self._flushed_addr} is forced")

    # -- inspection --------------------------------------------------------

    def observed_edges(self) -> FrozenSet[Tuple[str, str]]:
        """Class-level acquisition-order edges seen so far."""
        return frozenset(self._edges)

    def held_latches(self, actor: str) -> List[object]:
        return [t.key for t in self._held.get(actor, ())
                if t.cls == LATCH_PAGE]

    # -- internals ---------------------------------------------------------

    def _note_acquire(self, actor: str, token: _Token) -> None:
        span = self._span.setdefault(actor, [])
        for prev in span:
            if prev.cls == token.cls and prev.key == token.key:
                continue  # re-entrant pin / re-grant: no self-ordering
            self._edges.add((prev.cls, token.cls))
            if prev.cls == LATCH_PAGE and token.cls == LATCH_PAGE:
                self._check_latch_pair(actor, prev.key, token.key)
        span.append(token)
        self._held.setdefault(actor, []).append(token)

    def _check_latch_pair(self, actor: str, held_key: object,
                          new_key: object) -> None:
        pair = frozenset((held_key, new_key))
        direction = (held_key, new_key)
        first = self._pair_order.setdefault(pair, direction)
        if first != direction:
            raise SanitizerViolation(
                "latch-order", actor,
                f"pages pinned in order {held_key} -> {new_key} but the "
                f"opposite order {first[0]} -> {first[1]} was observed "
                "earlier — a latch deadlock seed")

    def _drop(self, actor: str, token: _Token) -> None:
        for stack in (self._held, self._span):
            tokens = stack.get(actor)
            if tokens is None:
                continue
            for index in range(len(tokens) - 1, -1, -1):
                if tokens[index] == token:
                    del tokens[index]
                    break


__all__ = [
    "Sanitizer", "SanitizerViolation", "RESOURCE_CLASSES",
    "LATCH_PAGE", "LOCK_LOGICAL", "LOCK_PHYSICAL",
]
