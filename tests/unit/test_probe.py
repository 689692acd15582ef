"""Unit tests: one probe per complex reaches every instrumented object."""

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.faults import FaultPlan
from repro.locking.lock_table import LockTable
from repro.obs.flight import FlightRecorder
from repro.obs.hist import MetricsHub
from repro.obs.tracer import Tracer
from repro.probe import Probe
from repro.sanitizer import Sanitizer
from repro.storage.buffer_pool import BufferPool
from repro.storage.stable_log import StableLog
from repro.workloads.generator import seed_table

PLANES = ("tracer", "faults", "sanitizer", "metrics", "flight")


class RecordingSanitizer(Sanitizer):
    """A sanitizer that also remembers which pools and tables fed it."""

    def __init__(self):
        super().__init__()
        self.sources = set()

    def on_fix(self, pool_name, page_id):
        self.sources.add(pool_name)
        super().on_fix(pool_name, page_id)

    def on_lock_acquire(self, table_name, owner, resource):
        self.sources.add(table_name)
        super().on_lock_acquire(table_name, owner, resource)


def armed_complex():
    """A replicated complex with all five planes attached after seeding."""
    system = ClientServerSystem(
        SystemConfig(replication_enabled=True, standby_apply_interval=4),
        client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4, free_pages=8)
    rids = seed_table(system, "C1", "t", 4, 2)
    system.attach_tracer(Tracer())
    system.attach_faults(FaultPlan(seed=3))
    system.attach_sanitizer(RecordingSanitizer())
    system.attach_metrics(MetricsHub())
    system.attach_flight(FlightRecorder())
    return system, rids


def primary_objects(server):
    return [server, server.pool, server.log, server.log.stable,
            server.log.group, server.disk, server.archive,
            server.glm.logical, server.glm.physical]


def client_objects(client):
    return [client, client.pool, client.llm, client.llm.local]


def is_empty(probe):
    return all(getattr(probe, plane) is None for plane in PLANES)


def commit_update(system, client_id, rid, value):
    client = system.client(client_id)
    txn = client.begin()
    client.update(txn, rid, value)
    client.commit(txn)


class TestCensus:
    def test_every_plane_is_attached(self):
        system, _rids = armed_complex()
        assert not any(getattr(system.probe, plane) is None
                       for plane in PLANES)
        assert system.probe.faults.tracer is system.probe.tracer
        assert system.probe.tracer.flight is system.probe.flight

    def test_primary_and_clients_hold_the_complex_probe(self):
        system, _rids = armed_complex()
        objects = [system.network, system.replication,
                   system.replication.standby]
        objects += primary_objects(system.server)
        for client in system.clients.values():
            objects += client_objects(client)
        for obj in objects:
            assert obj.probe is system.probe, type(obj).__name__

    def test_late_client_is_traced_and_sanitized(self):
        system, rids = armed_complex()
        late = system.add_client("C9")
        assert all(obj.probe is system.probe for obj in client_objects(late))
        commit_update(system, "C9", rids[0], "late")
        nodes = {event.node for event in system.probe.tracer.events}
        assert {"C9", "C9-pool"} <= nodes
        assert {"C9-pool", "llm-C9"} <= system.probe.sanitizer.sources


class TestStandbyReplicas:
    def test_replicas_join_the_probe_at_promotion(self):
        system, rids = armed_complex()
        commit_update(system, "C1", rids[0], "before")
        standby = system.replication.standby
        replicas = [standby.log, standby.log.stable, standby.log.group,
                    standby.disk]
        for replica in replicas:
            assert replica.probe is not system.probe
            assert is_empty(replica.probe)
        system.crash_server()
        system.replication.run_failover()
        assert system.server.log is standby.log
        assert system.server.disk is standby.disk
        for replica in replicas:
            assert replica.probe is system.probe
        for obj in primary_objects(system.server):
            assert obj.probe is system.probe, type(obj).__name__
        appends = [event for event in system.probe.tracer.events
                   if event.name == "append" and event.cat == "log"]
        before = len(appends)
        commit_update(system, "C1", rids[1], "after")
        appends = [event for event in system.probe.tracer.events
                   if event.name == "append" and event.cat == "log"]
        assert len(appends) > before


class TestStandalone:
    def test_standalone_objects_get_their_own_empty_probe(self):
        objects = [BufferPool(4), StableLog(), LockTable()]
        probes = [obj.probe for obj in objects]
        assert all(isinstance(probe, Probe) for probe in probes)
        assert all(is_empty(probe) for probe in probes)
        assert len({id(probe) for probe in probes}) == len(probes)

    def test_probe_is_slotted(self):
        probe = Probe()
        assert not hasattr(probe, "__dict__")
        assert set(Probe.__slots__) == set(PLANES)
