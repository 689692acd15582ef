"""Unit tests: deterministic histograms, time series, and the hub.

Every public ``MetricsHub`` slot is an instrument, every instrument
shows up in ``harness.metrics.snapshot()``, and instrument states
serialize byte-identically across same-seed runs.
"""

import json

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine import Engine
from repro.harness.metrics import snapshot
from repro.obs.hist import Histogram, MetricsHub, TimeSeries
from repro.workloads.generator import seed_table


class TestHistogram:
    def test_bucket_boundaries_are_log2(self):
        # Bucket 0 holds v <= 1; bucket i>0 holds (2**(i-1), 2**i].
        assert Histogram.bucket_index(0) == 0
        assert Histogram.bucket_index(1) == 0
        assert Histogram.bucket_index(2) == 1
        assert Histogram.bucket_index(3) == 2
        assert Histogram.bucket_index(4) == 2
        assert Histogram.bucket_index(5) == 3
        assert Histogram.bucket_index(1024) == 10
        assert Histogram.bucket_index(1025) == 11
        assert Histogram.bucket_upper_bound(0) == 1
        assert Histogram.bucket_upper_bound(10) == 1024

    def test_exact_aggregates(self):
        hist = Histogram.from_values([3, 1, 4, 1, 5, 9, 2, 6])
        assert hist.count == 8
        assert hist.sum == 31
        assert hist.min == 1
        assert hist.max == 9

    def test_quantiles_at_bucket_resolution(self):
        hist = Histogram.from_values(range(1, 101))
        # rank 50 lands in bucket (32, 64]; upper bound reported.
        assert hist.p50() == 64
        # rank 95 lands in bucket (64, 128]; clamped to max=100.
        assert hist.p95() == 100
        assert hist.p99() == 100

    def test_single_value_reports_exactly(self):
        hist = Histogram.from_values([7] * 5)
        assert hist.p50() == hist.p95() == hist.p99() == 7

    def test_empty_reports_zero(self):
        hist = Histogram()
        assert hist.p50() == 0 and hist.p95() == 0 and hist.p99() == 0
        assert hist.state()["count"] == 0

    def test_quantile_rank_has_no_float_drift(self):
        # 0.95 * 1000 is 949.999...; the permille rounding must not
        # drop the rank to 949/1000ths.
        hist = Histogram.from_values([1] * 95 + [1000] * 5)
        assert hist.quantile(0.95) == 1

    def test_state_bytes_ignore_arrival_order(self):
        values = [17, 3, 250, 3, 99, 1, 17]
        forward = Histogram.from_values(values)
        backward = Histogram.from_values(list(reversed(values)))
        assert forward.state_json() == backward.state_json()
        # Canonical rendering: str-keyed sorted buckets, no floats.
        state = json.loads(forward.state_json())
        assert state["kind"] == "histogram"
        assert all(isinstance(v, int) for v in state["buckets"].values())


class TestTimeSeries:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            TimeSeries(capacity=1)

    def test_bounded_and_stride_doubles(self):
        series = TimeSeries(capacity=8)
        for tick in range(1000):
            series.sample(tick, tick * 2)
        assert len(series.samples) < 8
        state = series.state()
        assert state["offered"] == 1000
        assert state["stride"] > 1
        # First sample always survives downsampling; last() is recent.
        assert series.samples[0] == (0, 0)
        assert series.last() is not None

    def test_retained_set_is_deterministic(self):
        a, b = TimeSeries(capacity=16), TimeSeries(capacity=16)
        for tick in range(777):
            a.sample(tick, tick % 13)
            b.sample(tick, tick % 13)
        assert a.state_json() == b.state_json()

    def test_meta_sorted_in_state(self):
        series = TimeSeries()
        series.meta["z_extent"] = 9
        series.meta["a_extent"] = 1
        assert list(series.state()["meta"]) == ["a_extent", "z_extent"]


#: The hub's public slots: the one list of instrument names.
HUB_INSTRUMENTS = {name for name in MetricsHub.__slots__
                   if not name.startswith("_")}


class TestMetricsHub:
    def test_attrs_close_the_manifest_loop(self):
        hub = MetricsHub()
        histograms = set(hub.histogram_names())
        series = set(hub.timeseries_names())
        assert histograms | series == HUB_INSTRUMENTS
        assert not histograms & series

    def test_state_covers_every_instrument(self):
        hub = MetricsHub()
        state = hub.state()
        assert set(state) == HUB_INSTRUMENTS
        assert hub.state_json() == MetricsHub().state_json()

    def test_next_tick_monotonic(self):
        hub = MetricsHub()
        assert [hub.next_tick() for _ in range(3)] == [1, 2, 3]


def run_contended_engine(seed=7):
    """A metrics-enabled engine run with a real lock conflict."""
    config = SystemConfig(seed=seed, client_checkpoint_interval=0,
                          server_checkpoint_interval=0)
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    system.attach_metrics(MetricsHub())
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 4)
    Engine(system).run([
        ("C1", [("update", rids[0], "a"), ("read", rids[1]),
                ("commit",)]),
        ("C2", [("update", rids[0], "b"), ("commit",)]),
    ])
    return system


class TestEngineInstrumentation:
    def test_snapshot_exposes_latency_and_lock_wait(self):
        system = run_contended_engine()
        snap = snapshot(system)
        latency = snap.histograms["txn_latency_ticks"]
        assert latency["count"] == 2
        for key in ("p50", "p95", "p99"):
            assert latency[key] >= 1
        # C2 parked behind C1's X lock, so a wait was measured.
        wait = snap.histograms["lock_wait_ticks"]
        assert wait["count"] >= 1
        assert snap.quantiles("txn_latency_ticks")["p95"] >= 1
        # Engine progress sampled one point per finished txn.
        progress = snap.histograms["engine_progress"]
        assert progress["kind"] == "timeseries"
        assert progress["samples"][-1][1] == 2

    def test_unattached_hub_keeps_snapshot_empty(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        assert system.probe.metrics is None
        assert snapshot(system).histograms == {}

    def test_same_seed_hub_state_is_byte_identical(self):
        first = run_contended_engine(seed=11)
        second = run_contended_engine(seed=11)
        assert first.probe.metrics.state_json() == \
            second.probe.metrics.state_json()
