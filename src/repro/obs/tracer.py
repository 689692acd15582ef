"""Structured event tracer: nested spans on a monotonic logical clock.

Design constraints, in order:

**Determinism.**  The whole repo is a deterministic discrete simulation;
a trace must be a pure function of the run.  Event timestamps therefore
come from a *logical* clock — a tick counter the tracer advances once
per recorded event — never from the host clock.  Because instrumentation
points fire in deterministic execution order, two runs with the same
``SystemConfig`` (same seed) produce byte-identical traces, which is
what makes traces diffable across policy changes and usable as witnesses
in tests.

**Near-zero overhead when disabled.**  Instrumented objects share the
complex's probe (:mod:`repro.probe`), whose ``tracer`` field defaults
to ``None``; every hot-path hook is guarded by ``probe.tracer is not
None``, so a system built without tracing pays that guard per hook and
allocates nothing.  There is no buffering, no formatting, no branch
beyond the guard.

**Self-contained events.**  Every event row carries its category, name,
node (which simulated machine it happened on), span identity and parent
span, so exporters and ``tracedump`` can rebuild span trees and
per-node timelines without replaying tracer state.

The span discipline is strict LIFO: the simulation is single-threaded
and synchronous (cooperative scheduling), so begin/end always nest like
the call stack.  ``end`` asserts it closes the innermost open span —
an unbalanced span is an instrumentation bug, not a runtime condition.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

#: Deterministically ordered (key, value) pairs; values must be JSON
#: serializable (ints, strings, bools, dicts of those).
EventArgs = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: a span boundary or an instant event."""

    #: Logical timestamp (monotonic per tracer; one tick per event).
    tick: int
    #: ``"B"`` span begin, ``"E"`` span end, ``"I"`` instant.
    phase: str
    #: Subsystem category (``"buf"``, ``"log"``, ``"rpc"``, ``"lock"``,
    #: ``"recovery"``) — the Chrome-trace ``cat`` field.
    cat: str
    #: Event name within the category (``"fix"``, ``"force"``, ...).
    name: str
    #: Which simulated node produced the event (``"server"``, ``"C1"``,
    #: a pool name) — exported as the Chrome-trace thread.
    node: str
    #: Identity of the span this boundary belongs to (0 for instants).
    span_id: int
    #: Innermost span open when the event fired (0 at top level).
    parent_id: int
    #: Typed payload, sorted by key at creation for stable serialization.
    args: EventArgs

    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)


def _pack_args(args: Dict[str, Any]) -> EventArgs:
    return tuple(sorted(args.items()))


class Tracer:
    """Collects :class:`TraceEvent` rows on a logical clock.

    A tracer is attached to one complex by
    :meth:`repro.core.system.ClientServerSystem.attach_tracer`, which
    sets the complex probe's ``tracer`` field; hooks fire only while it
    is non-``None``.
    """

    __slots__ = ("events", "flight", "_tick", "_stack", "_next_span_id")

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: Optional :class:`repro.obs.flight.FlightRecorder` tap: when
        #: set, every recorded event is also appended to the recorder's
        #: per-node ring.  Duck-typed (``record(event)``) to keep the
        #: tracer free of obs-internal imports.
        self.flight: Any = None
        self._tick = 0
        self._stack: List[int] = []
        self._next_span_id = 0

    # -- clock -------------------------------------------------------------

    @property
    def tick(self) -> int:
        """Current logical time (the tick of the last recorded event)."""
        return self._tick

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    # -- recording ---------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.flight is not None:
            self.flight.record(event)

    def instant(self, cat: str, name: str, node: str, **args: Any) -> None:
        """Record a point event (no duration)."""
        parent = self._stack[-1] if self._stack else 0
        self._record(TraceEvent(
            tick=self._next_tick(), phase="I", cat=cat, name=name,
            node=node, span_id=0, parent_id=parent, args=_pack_args(args),
        ))

    def begin(self, cat: str, name: str, node: str, **args: Any) -> int:
        """Open a nested span; returns its id for the matching :meth:`end`."""
        parent = self._stack[-1] if self._stack else 0
        self._next_span_id += 1
        span_id = self._next_span_id
        self._stack.append(span_id)
        self._record(TraceEvent(
            tick=self._next_tick(), phase="B", cat=cat, name=name,
            node=node, span_id=span_id, parent_id=parent,
            args=_pack_args(args),
        ))
        return span_id

    def end(self, span_id: int, **args: Any) -> None:
        """Close the innermost open span (must be ``span_id``).

        ``args`` given here carry the span's *results* — counters only
        known once the work is done (records scanned, pages redone).
        """
        if not self._stack or self._stack[-1] != span_id:
            raise ValueError(
                f"unbalanced span end: {span_id} is not the innermost "
                f"open span (stack: {self._stack})"
            )
        self._stack.pop()
        begin = self._find_begin(span_id)
        parent = self._stack[-1] if self._stack else 0
        self._record(TraceEvent(
            tick=self._next_tick(), phase="E", cat=begin.cat,
            name=begin.name, node=begin.node, span_id=span_id,
            parent_id=parent, args=_pack_args(args),
        ))

    def _find_begin(self, span_id: int) -> TraceEvent:
        for event in reversed(self.events):
            if event.phase == "B" and event.span_id == span_id:
                return event
        raise ValueError(f"no begin event recorded for span {span_id}")

    @contextmanager
    def span(self, cat: str, name: str, node: str,
             **args: Any) -> Iterator[Dict[str, Any]]:
        """Context-manager spelling of begin/end.

        Yields a mutable dict; whatever the block stores in it becomes
        the end event's args.
        """
        span_id = self.begin(cat, name, node, **args)
        results: Dict[str, Any] = {}
        try:
            yield results
        finally:
            self.end(span_id, **results)

    # -- maintenance -------------------------------------------------------

    def open_spans(self) -> Tuple[int, ...]:
        return tuple(self._stack)

    def clear(self) -> None:
        """Drop collected events; the clock and span ids keep advancing
        (ticks stay monotonic across clears, like a real trace buffer)."""
        self.events.clear()
