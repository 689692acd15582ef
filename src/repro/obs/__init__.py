"""Observability: tracing, metrics, histograms, exporters, flight data.

The package has three legs, mirroring the split the recovery papers'
evaluations rely on (per-pass, per-client breakdowns rather than
end-minus-start counter deltas):

* :mod:`repro.obs.tracer` — nested spans and typed instant events on a
  monotonic *logical* clock (no wall time: traces are a pure function of
  the deterministic execution, hence seed-reproducible byte for byte);
* :mod:`repro.obs.hist` — deterministic log2-bucket histograms,
  logical-tick time series, and the :class:`~repro.obs.hist.MetricsHub`
  attachment object, plus :mod:`repro.obs.flight`'s per-node crash
  flight recorder;
* :mod:`repro.obs.export` — JSONL event streams, Chrome ``trace_event``
  JSON (loadable in Perfetto / ``about:tracing``), and OpenMetrics-style
  text, rendered by ``python -m repro.tools.tracedump``.

The cumulative counters themselves live on the subsystems that bump
them; ``repro.harness.metrics.snapshot`` reads them off a complex.
"""

from repro.obs.tracer import TraceEvent, Tracer
from repro.obs.hist import Histogram, MetricsHub, TimeSeries
from repro.obs.flight import FlightRecorder

__all__ = [
    "Tracer",
    "TraceEvent",
    "Histogram",
    "TimeSeries",
    "MetricsHub",
    "FlightRecorder",
]
