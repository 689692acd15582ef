"""One probe per complex: where the five instrumentation planes attach.

A :class:`Probe` is a slotted holder with one field per plane: the
tracer (:mod:`repro.obs.tracer`), the fault plan (:mod:`repro.faults`),
the sanitizer (:mod:`repro.sanitizer`), the metrics hub
(:mod:`repro.obs.hist`) and the flight recorder (:mod:`repro.obs.flight`).
:class:`~repro.core.system.ClientServerSystem` builds one and hands it
to the network, the server and every client, which hand it on to what
they build; each ``attach_*`` method of the complex sets one field, so
every instrumented object sees a plane the moment it is attached.  An
object built on its own gets a fresh, empty probe.

A field is ``None`` while its plane is off, and every hook is guarded
by ``probe.<plane> is not None``: the disabled cost is two attribute
loads and a pointer comparison (DESIGN §9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.obs.flight import FlightRecorder
    from repro.obs.hist import MetricsHub
    from repro.obs.tracer import Tracer
    from repro.sanitizer import Sanitizer


class Probe:
    """The complex's five instrumentation planes; ``None`` means off."""

    __slots__ = ("tracer", "faults", "sanitizer", "metrics", "flight")

    def __init__(self) -> None:
        self.tracer: Optional["Tracer"] = None
        self.faults: Optional["FaultPlan"] = None
        self.sanitizer: Optional["Sanitizer"] = None
        self.metrics: Optional["MetricsHub"] = None
        #: The flight recorder taps the tracer's stream
        #: (``Tracer.flight``); this field is where the complex keeps it.
        self.flight: Optional["FlightRecorder"] = None
