"""Unit tests: tracer span discipline, metrics registry, exporters."""

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.harness.metrics import DEFAULT_REGISTRY, MetricsSnapshot, snapshot
from repro.obs.export import (
    chrome_trace_json,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.registry import (
    TRACKED_COUNTER_ATTRS,
    TRACKED_HISTOGRAM_ATTRS,
    TRACKED_TIMESERIES_ATTRS,
    MetricsRegistry,
    build_default_registry,
)
from repro.obs.tracer import Tracer
from repro.workloads.generator import seed_table


class TestTracer:
    def test_instant_records_ordered_ticks(self):
        tracer = Tracer()
        tracer.instant("buf", "fix", "C1", page_id=3)
        tracer.instant("log", "append", "server", addr=0)
        ticks = [e.tick for e in tracer.events]
        assert ticks == [1, 2]
        assert tracer.events[0].args_dict() == {"page_id": 3}
        assert tracer.events[0].span_id == 0

    def test_nested_spans_lifo(self):
        tracer = Tracer()
        outer = tracer.begin("recovery", "restart", "server")
        inner = tracer.begin("recovery", "analysis", "server")
        tracer.instant("log", "append", "server")
        tracer.end(inner, records_scanned=7)
        tracer.end(outer)
        phases = [e.phase for e in tracer.events]
        assert phases == ["B", "B", "I", "E", "E"]
        instant = tracer.events[2]
        assert instant.parent_id == inner
        # End events re-carry the begin's identity and close in order.
        end_inner = tracer.events[3]
        assert (end_inner.cat, end_inner.name) == ("recovery", "analysis")
        assert end_inner.args_dict() == {"records_scanned": 7}
        assert tracer.open_spans() == ()

    def test_unbalanced_end_raises(self):
        tracer = Tracer()
        outer = tracer.begin("a", "x", "n")
        tracer.begin("a", "y", "n")
        with pytest.raises(ValueError, match="unbalanced"):
            tracer.end(outer)

    def test_span_contextmanager_results(self):
        tracer = Tracer()
        with tracer.span("recovery", "redo", "server", redo_addr=0) as out:
            out["pages_redone"] = 4
        assert tracer.events[-1].args_dict() == {"pages_redone": 4}

    def test_clear_keeps_clock_monotonic(self):
        tracer = Tracer()
        tracer.instant("a", "x", "n")
        tracer.clear()
        tracer.instant("a", "y", "n")
        assert tracer.events[0].tick == 2


def make_traced_system():
    system = ClientServerSystem(SystemConfig(trace_enabled=True),
                                client_ids=["C1"])
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 2)
    client = system.client("C1")
    txn = client.begin()
    client.update(txn, rids[0], "traced")
    client.commit(txn)
    return system, rids


class TestRegistry:
    def test_registry_names_match_snapshot_fields(self):
        names = set(DEFAULT_REGISTRY.names())
        fields = {f.name for f in dataclasses.fields(MetricsSnapshot)}
        # ``histograms`` is the one non-counter field: it carries the
        # instrument states collected via the histogram providers.
        assert names == fields - {"histograms"}

    def test_histogram_providers_match_manifests(self):
        assert set(DEFAULT_REGISTRY.histogram_names()) == \
            TRACKED_HISTOGRAM_ATTRS | TRACKED_TIMESERIES_ATTRS

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", lambda s: 0)
        with pytest.raises(ValueError):
            registry.register("x", lambda s: 1)

    def test_collect_sees_live_counters(self):
        system, rids = make_traced_system()
        before = snapshot(system)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[1], "again")
        client.commit(txn)
        delta = snapshot(system).minus(before)
        assert delta.commits == 1
        assert delta.log_appends > 0
        assert delta.messages > 0

    def test_fresh_registry_collects_on_fresh_system(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        values = build_default_registry().collect(system)
        assert all(value == 0 for value in values.values())

    def test_manifest_is_public_attr_names(self):
        for attr in (TRACKED_COUNTER_ATTRS | TRACKED_HISTOGRAM_ATTRS
                     | TRACKED_TIMESERIES_ATTRS):
            assert not attr.startswith("_")


class TestExport:
    def test_jsonl_roundtrip_and_canonical_bytes(self):
        system, _rids = make_traced_system()
        events = system.probe.tracer.events
        text = to_jsonl(events)
        assert text == to_jsonl(events)  # stable re-serialization
        rows = read_jsonl(text)
        assert len(rows) == len(events)
        assert rows[0]["tick"] == events[0].tick
        # Canonical form: sorted keys, compact separators.
        assert '"args"' in text.splitlines()[0]
        assert ": " not in text.splitlines()[0]

    def test_chrome_trace_validates(self):
        system, _rids = make_traced_system()
        doc = to_chrome_trace(system.probe.tracer.events)
        assert validate_chrome_trace(doc) == []
        # Thread names: one metadata row per simulated node.
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        named = {r["args"]["name"] for r in meta}
        assert "server" in named
        assert chrome_trace_json(system.probe.tracer.events) == \
            chrome_trace_json(system.probe.tracer.events)

    def test_validator_flags_broken_docs(self):
        assert validate_chrome_trace([]) == \
            ["document is not a JSON object"]
        assert validate_chrome_trace({}) == \
            ["traceEvents is missing or not a list"]
        bad_phase = {"traceEvents": [
            {"ph": "X", "name": "n", "pid": 1, "tid": 1, "ts": 1},
        ]}
        assert any("unknown phase" in p
                   for p in validate_chrome_trace(bad_phase))
        unbalanced = {"traceEvents": [
            {"ph": "B", "cat": "c", "name": "n", "pid": 1, "tid": 1,
             "ts": 1, "args": {}},
        ]}
        assert any("unclosed" in p
                   for p in validate_chrome_trace(unbalanced))
        backwards = {"traceEvents": [
            {"ph": "i", "cat": "c", "name": "n", "pid": 1, "tid": 1,
             "ts": 5, "s": "t", "args": {}},
            {"ph": "i", "cat": "c", "name": "n", "pid": 1, "tid": 1,
             "ts": 4, "s": "t", "args": {}},
        ]}
        assert any("backwards" in p
                   for p in validate_chrome_trace(backwards))


class TestDisabledByDefault:
    def test_no_tracer_unless_configured(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        assert system.probe.tracer is None
        assert system.server.pool.probe is system.probe
        assert system.network.probe is system.probe

    def test_attach_later_covers_new_clients(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        tracer = Tracer()
        system.attach_tracer(tracer)
        late = system.add_client("C9")
        assert late.probe.tracer is tracer
        assert late.pool.probe is system.probe
        assert late.llm.probe is system.probe
