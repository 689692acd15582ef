"""The durability oracle: what the database *must* contain.

Tests and the crash-fuzz harness track every acknowledged commit here;
after any crash/recovery sequence, :func:`verify_durability` checks the
two halves of the correctness contract:

1. every committed transaction's final values are present;
2. no uncommitted (rolled-back or in-flight-at-crash) value survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set

from repro.core.system import ClientServerSystem
from repro.errors import RecordNotFoundError
from repro.records.heap import RecordId


@dataclass
class DurabilityViolation:
    rid: RecordId
    expected: Any
    actual: Any
    reason: str

    def __str__(self) -> str:
        return (f"{self.reason} at {self.rid}: expected {self.expected!r}, "
                f"found {self.actual!r}")


class _Missing:
    """The "no such record" sentinel.

    Its ``repr`` is fixed (a bare ``object()`` prints its memory
    address), so a violation naming a missing record reads — and
    digests — the same in every process.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()


class CommittedStateOracle:
    """Mirror of the committed logical database state."""

    def __init__(self) -> None:
        self._committed: Dict[RecordId, Any] = {}
        #: Values written by transactions that must not survive.
        self._forbidden: Dict[RecordId, Set[Any]] = {}

    # -- bookkeeping -------------------------------------------------------

    def note_committed_update(self, rid: RecordId, value: Any) -> None:
        self._committed[rid] = value
        self._forbidden.get(rid, set()).discard(_freeze(value))

    def note_committed_insert(self, rid: RecordId, value: Any) -> None:
        self._committed[rid] = value

    def note_committed_delete(self, rid: RecordId) -> None:
        self._committed[rid] = _MISSING

    def note_uncommitted_value(self, rid: RecordId, value: Any) -> None:
        """A value written by a transaction that did/will not commit."""
        if self._committed.get(rid) == value:
            return  # same value also committed by someone else
        self._forbidden.setdefault(rid, set()).add(_freeze(value))

    def expected(self, rid: RecordId) -> Any:
        return self._committed.get(rid, _MISSING)

    def tracked_rids(self) -> List[RecordId]:
        return sorted(set(self._committed) | set(self._forbidden))

    # -- verification ---------------------------------------------------------

    def verify(self, system: ClientServerSystem,
               where: str = "server") -> List[DurabilityViolation]:
        """Check the system against the oracle; returns violations.

        ``where`` selects the vantage point: "server" (authoritative
        buffer-over-disk state, the right view after full-complex
        recovery) or "current" (including client caches, the right view
        during normal operation).
        """
        violations: List[DurabilityViolation] = []
        reader = (system.server_visible_value if where == "server"
                  else system.current_value)
        for rid in self.tracked_rids():
            try:
                actual = reader(rid)
            except RecordNotFoundError:
                actual = _MISSING
            expected = self._committed.get(rid, _MISSING)
            if rid in self._committed and actual != expected and \
                    not (actual is _MISSING and expected is _MISSING):
                violations.append(DurabilityViolation(
                    rid, expected, actual, "lost or wrong committed value"
                ))
                continue
            if actual is not _MISSING and \
                    _freeze(actual) in self._forbidden.get(rid, set()):
                violations.append(DurabilityViolation(
                    rid, expected, actual, "uncommitted value survived"
                ))
        return violations


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def verify_durability(oracle: CommittedStateOracle,
                      system: ClientServerSystem,
                      where: str = "server") -> None:
    """Assert-style wrapper: raises AssertionError listing violations."""
    violations = oracle.verify(system, where)
    if violations:
        details = "\n  ".join(str(v) for v in violations)
        raise AssertionError(f"durability violated:\n  {details}")
