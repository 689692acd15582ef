"""The whole complex: one server, N clients, crash/recovery orchestration.

:class:`ClientServerSystem` is the top-level entry point of the library
(see ``examples/quickstart.py``).  It wires the network, the server and
the clients together under one :class:`~repro.config.SystemConfig`,
offers a small catalog (tables as sets of pages, for intent locks and
workloads), and exposes the failure injection the paper's scenarios
need: client crashes (server performs recovery on the client's behalf),
server crashes (restart recovery, lock-table reconstruction from the
survivors), and whole-complex crashes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.client import Client
from repro.core.server import RecoveryReport, Server
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.net.network import Network
from repro.net.rpc import transport_from_config
from repro.obs.flight import FlightRecorder
from repro.obs.hist import MetricsHub
from repro.obs.tracer import Tracer
from repro.probe import Probe
from repro.records.heap import RecordId, decode_value
from repro.sanitizer import Sanitizer
from repro.storage.page import Page

if TYPE_CHECKING:
    from repro.replication.manager import ReplicationManager


class ClientServerSystem:
    """A simulated ARIES/CSA complex."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 client_ids: Iterable[str] = ("C1", "C2")) -> None:
        self.config = config if config is not None else SystemConfig()
        #: The complex's instrumentation planes, one field each; the
        #: ``attach_*`` methods below set them (DESIGN §9, "Probe").
        self.probe = Probe()
        self.network = Network(
            transport=transport_from_config(self.config),
            trace_depth=self.config.message_trace_depth,
            probe=self.probe,
        )
        self.server = Server(self.config, self.network, probe=self.probe)
        self.clients: Dict[str, Client] = {}
        #: Present only when the warm standby is on; attachment is the
        #: enable switch (DESIGN §15).
        self.replication: Optional["ReplicationManager"] = None
        if self.config.trace_enabled:
            self.attach_tracer(Tracer())
        if self.config.fault_plan is not None:
            self.attach_faults(self.config.fault_plan)
        if self.config.sanitizer:
            self.attach_sanitizer(Sanitizer())
        if self.config.metrics_enabled:
            self.attach_metrics(MetricsHub())
        if self.config.flight_recorder_depth > 0:
            self.attach_flight(
                FlightRecorder(self.config.flight_recorder_depth))
        self._tables: Dict[str, List[int]] = {}
        self._page_table: Dict[int, str] = {}
        self._free_pool: List[int] = []
        # The server's transaction tracker resolves pages to tables for
        # per-table Commit_LSN (section 3's per-file refinement).
        self.server.tracker.table_resolver = self._page_table.get
        for client_id in client_ids:
            self.add_client(client_id)
        if self.config.replication_enabled:
            self.attach_replication()

    # -- observability -----------------------------------------------------

    def attach_tracer(self, tracer: Tracer) -> None:
        """Trace the whole complex into ``tracer``, replacing any other.

        An armed flight recorder keeps tapping the new tracer, and the
        fault plan emits its instants into it.
        """
        probe = self.probe
        probe.tracer = tracer
        tracer.flight = probe.flight
        if probe.faults is not None:
            probe.faults.tracer = tracer

    def attach_metrics(self, hub: MetricsHub) -> None:
        """Observe the complex's histograms and time series into ``hub``."""
        self.probe.metrics = hub

    def attach_flight(self, recorder: FlightRecorder) -> None:
        """Arm the crash flight recorder (tapping the tracer's stream).

        The recorder needs a trace stream to ring-buffer, so arming a
        complex with no tracer attaches one first.
        """
        tracer = self.probe.tracer
        if tracer is None:
            tracer = Tracer()
            self.attach_tracer(tracer)
        self.probe.flight = recorder
        tracer.flight = recorder

    # -- replication -------------------------------------------------------

    def attach_replication(self) -> "ReplicationManager":
        """Stand up the warm standby and start shipping (DESIGN §15).

        Attachment is the enable switch: a complex without a manager has
        ``server.replication`` set to None and every ship hook costs one
        pointer comparison — replication off is byte-for-byte the
        pre-replication complex.
        """
        from repro.replication.manager import ReplicationManager

        manager = ReplicationManager(self)
        self.replication = manager
        manager.bootstrap_standby()
        return manager

    # -- fault injection ---------------------------------------------------

    def attach_faults(self, plan: FaultPlan) -> None:
        """Inject ``plan``'s faults into the complex.

        The network transport is attached separately via
        ``SystemConfig.fault_plan`` (``transport_from_config`` folds the
        drop/delay RNG under the plan's ``transport`` namespace).
        """
        self.probe.faults = plan
        plan.tracer = self.probe.tracer

    # -- runtime sanitizer -------------------------------------------------

    def attach_sanitizer(self, sanitizer: Sanitizer) -> None:
        """Check every latch/lock/log hook of the complex with ``sanitizer``.

        One instance watches the whole complex — the acquisition-order
        memory must span actors to catch an inversion split across two
        clients.
        """
        self.probe.sanitizer = sanitizer

    # -- topology ----------------------------------------------------------

    def add_client(self, client_id: str) -> Client:
        if client_id in self.clients:
            raise ReproError(f"client id {client_id} already in use")
        client = Client(client_id, self.config, self.network, self.server,
                        probe=self.probe)
        client.table_of = self._page_table.get
        self.clients[client_id] = client
        return client

    def client(self, client_id: str) -> Client:
        return self.clients[client_id]

    # -- catalog -----------------------------------------------------------

    def bootstrap(self, data_pages: int, free_pages: int = 64) -> List[int]:
        """Format the database offline; returns the allocated page ids."""
        pages = self.server.bootstrap(data_pages, free_pages)
        self._free_pool = list(pages)
        if self.replication is not None:
            # Formatting writes pages without logging them, so the
            # standby's bootstrap snapshot must be retaken.
            self.replication.bootstrap_standby()
        return pages

    def create_table(self, name: str, num_pages: int) -> List[int]:
        """Assign ``num_pages`` bootstrapped pages to a named table.

        Tables drive the lock hierarchy (intent locks at table level,
        record/page locks below) and give workloads stable page sets.
        """
        if name in self._tables:
            raise ReproError(f"table {name} already exists")
        if len(self._free_pool) < num_pages:
            raise ReproError(
                f"not enough bootstrapped pages for table {name}: "
                f"need {num_pages}, have {len(self._free_pool)}"
            )
        pages = [self._free_pool.pop(0) for _ in range(num_pages)]
        self._tables[name] = pages
        for page_id in pages:
            self._page_table[page_id] = name
        return pages

    def table_pages(self, name: str) -> List[int]:
        return list(self._tables[name])

    # -- failure injection ---------------------------------------------------

    def crash_client(self, client_id: str, recover: bool = True) -> Optional[RecoveryReport]:
        """Crash a client; by default the server notices and recovers it
        immediately (section 2.6.1)."""
        self.clients[client_id].crash()
        if recover and not self.server.crashed:
            return self.server.recover_failed_client(client_id)
        return None

    def reconnect_client(self, client_id: str) -> List[Tuple[str, Tuple]]:
        return self.clients[client_id].reconnect()

    def crash_server(self) -> None:
        self.server.crash()

    def restart_server(self) -> RecoveryReport:
        report = self.server.restart()
        return report

    def crash_all(self) -> None:
        """Power failure: every node in the complex goes down at once."""
        for client in self.clients.values():
            if not client.crashed:
                client.crash()
        self.server.crash()

    def restart_all(self) -> RecoveryReport:
        """Recover the whole complex after a total failure.

        The server restarts first (rolling back every in-flight
        transaction, including the crashed clients'), then clients
        reconnect with clean state.
        """
        report = self.server.restart(failed_clients=set(self.clients))
        for client_id in sorted(self.clients):
            self.clients[client_id].reconnect()
        return report

    # -- oracles (tests and examples) -------------------------------------------

    def server_visible_value(self, rid: RecordId) -> Any:
        """The record value as the server's authoritative version has it."""
        page = self.server.authoritative_page(rid.page_id)
        return decode_value(page.read_record(rid.slot))

    def current_value(self, rid: RecordId) -> Any:
        """The logically current value, wherever the freshest copy lives
        (a client holding the update privilege, else the server)."""
        owner = self.server.glm.update_privilege_owner(rid.page_id)
        if owner is not None and owner in self.clients:
            client = self.clients[owner]
            if not client.crashed:
                page = client.pool.peek(rid.page_id)
                if page is not None:
                    return decode_value(page.read_record(rid.slot))
        return self.server_visible_value(rid)

    def server_visible_page(self, page_id: int) -> Page:
        return self.server.authoritative_page(page_id)
