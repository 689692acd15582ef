"""Deterministic histograms, time series, and the metrics hub.

PR 4's counters can say *how many* forces happened; they cannot say how
the cost of a force was *distributed*, or how restart progress evolved
over a run — which is what the paper's claims (restart latency,
client-recovery cost, commit-traffic overhead) are actually about.
This module adds the two missing shapes:

* :class:`Histogram` — fixed log2 bucket boundaries, exact
  count/sum/min/max, and p50/p95/p99 queries at bucket resolution.
  Bucket ``i`` holds values ``v`` with ``2**(i-1) < v <= 2**i`` (bucket
  0 holds ``v <= 1``), so the boundaries are a property of the *code*,
  never of the data: two runs of the same seed fill byte-identical
  bucket maps regardless of arrival order within a bucket.
* :class:`TimeSeries` — (logical tick, value) samples in a bounded
  deterministic reservoir.  When the reservoir fills it keeps every
  second sample and doubles its stride, so memory stays O(capacity)
  while coverage stays uniform over the whole run — and the surviving
  sample set is a pure function of the input sequence, never of a
  random choice.

Both serialise through :meth:`state` into canonical dictionaries whose
JSON rendering (``sort_keys``, tight separators) is byte-identical
across same-seed runs.  Neither ever consults a wall clock: ticks come
from the caller's logical clock (the engine's executed-op counter, the
hub's own observation counter), which is the same determinism argument
the tracer makes (DESIGN §9).

:class:`MetricsHub` is the attachment object: one public attribute per
manifest name (``TRACKED_HISTOGRAM_ATTRS`` /
``TRACKED_TIMESERIES_ATTRS`` in :mod:`repro.obs.registry`), attached as
the complex probe's ``metrics`` plane (DESIGN §9, "Probe"), so the
disabled path stays within the obs overhead gate.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Histogram", "TimeSeries", "MetricsHub"]


class Histogram:
    """Fixed-boundary log2 histogram with exact count/sum/min/max."""

    __slots__ = ("count", "sum", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: bucket index -> count; index i covers (2**(i-1), 2**i].
        self._buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_index(value: int) -> int:
        """Index of the log2 bucket covering ``value``.

        Bucket 0 covers everything ``<= 1`` (including zero and, for
        robustness, negatives); bucket i>0 covers ``(2**(i-1), 2**i]``.
        """
        if value <= 1:
            return 0
        return (value - 1).bit_length()

    @staticmethod
    def bucket_upper_bound(index: int) -> int:
        """Inclusive upper boundary of bucket ``index`` (``2**index``)."""
        return 1 << index if index > 0 else 1

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1  # lint: allow[OBS001] the instrument's own state
        self.sum += value  # lint: allow[OBS001] the instrument's own state
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        idx = self.bucket_index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Histogram":
        hist = cls()
        for value in values:
            hist.observe(value)
        return hist

    def quantile(self, q: float) -> int:
        """Value at quantile ``q`` in [0, 1], at bucket resolution.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``ceil(q * count)``, clamped into [min, max] so a
        single-value distribution reports that value exactly.  Empty
        histograms report 0.
        """
        low, high = self.min, self.max
        if self.count == 0 or low is None or high is None:
            return 0
        # ceil without float drift: quantile as integer per-mille,
        # rank in [1, count].
        permille = int(q * 1000 + 0.5)
        rank = max(1, -(-permille * self.count // 1000))
        cumulative = 0
        for idx in sorted(self._buckets):
            cumulative += self._buckets[idx]
            if cumulative >= rank:
                bound = self.bucket_upper_bound(idx)
                return min(max(bound, low), high)
        return high

    def p50(self) -> int:
        return self.quantile(0.50)

    def p95(self) -> int:
        return self.quantile(0.95)

    def p99(self) -> int:
        return self.quantile(0.99)

    def buckets(self) -> Dict[int, int]:
        """Copy of the sparse bucket map (index -> count)."""
        return dict(self._buckets)

    def state(self) -> Dict[str, Any]:
        """Canonical serialisable state (byte-identical per seed)."""
        return {
            "kind": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.p50(),
            "p95": self.p95(),
            "p99": self.p99(),
            "buckets": {str(i): self._buckets[i]
                        for i in sorted(self._buckets)},
        }

    def state_json(self) -> str:
        return json.dumps(self.state(), sort_keys=True,
                          separators=(",", ":"))


class TimeSeries:
    """Logical-tick-indexed samples in a bounded deterministic reservoir.

    ``sample(tick, value)`` appends while the reservoir has room.  At
    capacity, the reservoir keeps every second retained sample and
    doubles its stride, after which only every ``stride``-th offered
    sample is retained — classic deterministic downsampling (no RNG),
    so the retained set depends only on the offered sequence.
    """

    __slots__ = ("capacity", "samples", "meta", "_stride", "_offered")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 2:
            raise ValueError("TimeSeries capacity must be >= 2")
        self.capacity = capacity
        self.samples: List[Tuple[int, int]] = []
        #: Free-form labels (e.g. restart log extent); must stay
        #: deterministic — callers only write seed-derived values here.
        self.meta: Dict[str, int] = {}
        self._stride = 1
        self._offered = 0

    def sample(self, tick: int, value: int) -> None:
        keep = self._offered % self._stride == 0
        self._offered += 1
        if not keep:
            return
        self.samples.append((int(tick), int(value)))
        if len(self.samples) >= self.capacity:
            self.samples = self.samples[::2]
            self._stride *= 2

    def last(self) -> Optional[Tuple[int, int]]:
        return self.samples[-1] if self.samples else None

    def state(self) -> Dict[str, Any]:
        return {
            "kind": "timeseries",
            "capacity": self.capacity,
            "stride": self._stride,
            "offered": self._offered,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "samples": [[t, v] for t, v in self.samples],
        }

    def state_json(self) -> str:
        return json.dumps(self.state(), sort_keys=True,
                          separators=(",", ":"))


class MetricsHub:
    """One public instrument per manifest name, plus a logical clock.

    Attached via ``ClientServerSystem.attach_metrics`` as
    ``system.probe.metrics``; every observation site is guarded by
    ``probe.metrics is not None``.  The attribute names here are the
    single source of truth the registry manifests (and lint rule
    OBS002) must match — a closed loop the unit tests assert.
    """

    __slots__ = (
        # --- histograms ---
        "txn_latency_ticks",      # engine.core: end_tick - begin_tick
        "lock_wait_ticks",        # engine.core: ticks parked on a conflict
        "rpc_roundtrip_attempts",  # net.rpc: deliveries per completed call
        "rpc_batch_calls",        # net.rpc: sub-calls per BatchEnvelope
        "log_force_bytes",        # storage.stable_log: bytes made stable
        "group_commit_batch",     # core.server_log: riders per group force
        "recovery_pass_records",  # core.recovery: records per pass
        "ship_lag_records",       # replication.stream: standby lag per ack
        # --- time series ---
        "restart_progress",       # core.recovery: records scanned
        "engine_progress",        # engine.core: txns finished over ticks
        # --- internal ---
        "_tick",
    )

    def __init__(self) -> None:
        self.txn_latency_ticks = Histogram()
        self.lock_wait_ticks = Histogram()
        self.rpc_roundtrip_attempts = Histogram()
        self.rpc_batch_calls = Histogram()
        self.log_force_bytes = Histogram()
        self.group_commit_batch = Histogram()
        self.recovery_pass_records = Histogram()
        self.ship_lag_records = Histogram()
        self.restart_progress = TimeSeries()
        self.engine_progress = TimeSeries()
        self._tick = 0

    def next_tick(self) -> int:
        """Advance and return the hub's own logical clock.

        Used as the time index by samplers with no natural tick source
        of their own (e.g. the restart progress meter); monotonic and a
        pure function of the observation sequence.
        """
        self._tick += 1
        return self._tick

    def histogram_names(self) -> List[str]:
        return [n for n in self.__slots__
                if not n.startswith("_")
                and isinstance(getattr(self, n), Histogram)]

    def timeseries_names(self) -> List[str]:
        return [n for n in self.__slots__
                if not n.startswith("_")
                and isinstance(getattr(self, n), TimeSeries)]

    def state(self) -> Dict[str, Dict[str, Any]]:
        """Canonical state of every instrument, name-sorted."""
        names = self.histogram_names() + self.timeseries_names()
        return {name: getattr(self, name).state() for name in sorted(names)}

    def state_json(self) -> str:
        return json.dumps(self.state(), sort_keys=True,
                          separators=(",", ":"))
