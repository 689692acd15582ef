"""Unit tests: the crash flight recorder's rings and dumps."""

import json

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.obs.tracer import Tracer


def fill(tracer, count, node="server"):
    for i in range(count):
        tracer.instant("t", f"e{i}", node, i=i)


class TestRings:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_keeps_only_the_tail(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer()
        tracer.flight = recorder
        fill(tracer, 10)
        (ring,) = recorder.snapshot().values()
        assert len(ring) == 4
        assert [row["name"] for row in ring] == ["e6", "e7", "e8", "e9"]

    def test_rings_are_per_node_and_name_sorted(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer()
        tracer.flight = recorder
        tracer.instant("t", "x", "zeta")
        tracer.instant("t", "y", "alpha")
        assert list(recorder.snapshot()) == ["alpha", "zeta"]

    def test_tracer_still_records_without_flight(self):
        tracer = Tracer()
        tracer.instant("t", "x", "n")
        assert len(tracer.events) == 1


class TestDumps:
    def test_capture_freezes_reason_and_sequence(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer()
        tracer.flight = recorder
        fill(tracer, 2)
        first = recorder.capture("crashpoint:log.force.before@1")
        fill(tracer, 3)
        second = recorder.capture("durability-violation")
        assert first["sequence"] == 0 and second["sequence"] == 1
        assert first["reason"] == "crashpoint:log.force.before@1"
        assert len(recorder.dumps) == 2
        # The first dump froze the rings at capture time.
        assert len(first["nodes"]["server"]) == 2

    def test_dump_json_is_canonical(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer()
        tracer.flight = recorder
        fill(tracer, 2)
        recorder.capture("r")
        text = recorder.dumps_json()
        assert text == recorder.dumps_json()
        assert ": " not in text
        assert json.loads(text)[0]["capacity"] == 4

    def test_clear_drops_rings_keeps_dumps(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        tracer.flight = recorder
        fill(tracer, 1)
        recorder.capture("r")
        recorder.clear()
        assert recorder.snapshot() == {}
        assert len(recorder.dumps) == 1


class TestSystemAttachment:
    def test_attach_flight_brings_a_tracer(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        system.attach_flight(FlightRecorder(16))
        assert system.probe.flight is not None
        assert system.probe.flight.capacity == 16
        assert system.probe.tracer is not None
        assert system.probe.tracer.flight is system.probe.flight

    def test_attach_flight_reuses_existing_tracer(self):
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        tracer = Tracer()
        system.attach_tracer(tracer)
        system.attach_flight(FlightRecorder())
        assert system.probe.tracer is tracer
        assert tracer.flight is system.probe.flight

    def test_replacing_the_tracer_keeps_the_recorder_armed(self):
        # Regression: attach_tracer used to leave the new tracer's tap
        # empty, so an armed recorder silently stopped ringing events.
        system = ClientServerSystem(SystemConfig(), client_ids=["C1"])
        recorder = FlightRecorder(64)
        system.attach_flight(recorder)
        tracer = Tracer()
        system.attach_tracer(tracer)
        assert tracer.flight is recorder
        tracer.instant("t", "after-replace", "server")
        assert [row["name"] for row in
                recorder.capture("test")["nodes"]["server"]] == \
            ["after-replace"]

    def test_default_depth_is_reviewable(self):
        assert DEFAULT_FLIGHT_CAPACITY == 128

    def test_workload_fills_rings(self):
        system = ClientServerSystem(
            SystemConfig(client_checkpoint_interval=4), client_ids=["C1"])
        system.attach_flight(FlightRecorder(32))
        system.bootstrap(data_pages=4, free_pages=4)
        from repro.workloads.generator import seed_table
        rids = seed_table(system, "C1", "t", 4, 2)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "v")
        client.commit(txn)
        dump = system.probe.flight.capture("test")
        assert "server" in dump["nodes"]
        assert any(node["name"] == "append"
                   for node in dump["nodes"]["server"])
