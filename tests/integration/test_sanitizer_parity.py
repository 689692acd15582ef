"""Sanitizer parity and the static/dynamic cross-check.

Three contracts:

* **parity** — arming the sanitizer changes no observable behavior:
  identical ``ScheduleResult`` and bit-identical ``metrics.snapshot()``
  deltas for the same programs, and an identical chaos-run digest;
* **clean under load** — the instrumented protocol paths (engine
  execution, crash/recovery, checkpoints) run violation-free with the
  sanitizer armed;
* **cross-check** — every acquisition-order edge the runtime observes
  is an edge the static analysis (``repro.analysis.dataflow``) already
  proved possible: observed ⊆ static, which is what makes the static
  LOCK001/LOCK002 verdicts trustworthy as *over*-approximations.

The cross-check runs the workload through the event-driven engine only:
engine spans are single operations, matching the call-path-local edges
the static graph computes.  (A direct-API transaction's span covers the
whole transaction, which would manufacture cross-operation edges no
single call path contains.)
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.dataflow import build_lockgraph
from repro.analysis.project import Project
from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine import Engine
from repro.harness import metrics
from repro.harness.chaos import CrashScheduleExplorer
from repro.sanitizer import Sanitizer
from repro.storage.page import PageKind
from repro.workloads.generator import seed_table

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def build_system(sanitizer: bool):
    config = SystemConfig(
        client_buffer_frames=6,
        server_buffer_frames=8,
        client_checkpoint_interval=0,
        server_checkpoint_interval=0,
    )
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    if sanitizer:
        system.attach_sanitizer(Sanitizer())
    system.bootstrap(data_pages=8, free_pages=16)
    rids = seed_table(system, "C1", "t", 8, 4)
    return system, rids


def contended_programs(rids):
    return [
        ("C1", [("update", rids[0], "a1"), ("read", rids[8]), ("commit",)]),
        ("C2", [("update", rids[8], "b1"), ("update", rids[0], "b2"),
                ("commit",)]),
        ("C1", [("read", rids[0]), ("update", rids[16], "c1"), ("commit",)]),
        ("C2", [("insert", rids[1].page_id, "d1"), ("commit",)]),
        ("C1", [("update", rids[9], "e1"), ("abort",)]),
        ("C2", [("delete", rids[17]), ("commit",)]),
    ]


def run_engine_workload(system, rids):
    """Engine programs plus the crash/recovery seams, under one system."""
    result = Engine(system).run(contended_programs(rids))
    # Direct-API traffic the engine vocabulary excludes, each one a
    # latch/lock-ordering seam: allocation (SMP-first order) and
    # checkpoint/flush (server pins under WAL forces).
    c1 = system.client("C1")
    txn = c1.begin()
    page = c1.allocate_page(txn, PageKind.DATA)
    c1.insert(txn, page.page_id, "alloc")
    c1.commit(txn)
    c1.take_checkpoint()
    system.server.take_checkpoint()
    system.crash_client("C2")
    system.reconnect_client("C2")
    system.crash_all()
    system.restart_all()
    return result


class TestParity:
    def test_metrics_identical_with_and_without_sanitizer(self):
        deltas = []
        results = []
        for armed in (False, True):
            system, rids = build_system(sanitizer=armed)
            before = metrics.snapshot(system)
            result = run_engine_workload(system, rids)
            deltas.append(metrics.snapshot(system).minus(before))
            results.append(result)
        assert results[0] == results[1]
        assert deltas[0] == deltas[1]

    def test_chaos_digest_identical_with_and_without_sanitizer(self):
        digests = []
        for armed in (False, True):
            explorer = CrashScheduleExplorer(seed=3, sanitizer=armed)
            digests.append(explorer.run_schedule(()).digest)
        assert digests[0] == digests[1]


class TestCleanUnderLoad:
    def test_engine_workload_with_sanitizer(self):
        system, rids = build_system(sanitizer=True)
        result = run_engine_workload(system, rids)
        assert result.committed >= 4

    def test_chaos_schedules_with_sanitizer(self):
        explorer = CrashScheduleExplorer(seed=0, quick=True, budget=4,
                                         sanitizer=True)
        summary = explorer.explore()
        assert summary.schedules_explored == 4
        assert not summary.violations


class TestCrossCheck:
    def test_observed_edges_subset_of_static_graph(self):
        system, rids = build_system(sanitizer=True)
        run_engine_workload(system, rids)
        observed = system.probe.sanitizer.observed_edges()
        assert observed, "workload must exercise the order hooks"
        project = Project.load([SRC])
        static_edges = build_lockgraph(project).class_edges()
        missing = observed - static_edges
        assert not missing, (
            f"runtime observed acquisition-order edges the static "
            f"analysis cannot derive: {sorted(missing)} — either a "
            f"checker gap (fix repro.analysis.dataflow.lockgraph) or "
            f"an undocumented ordering in the protocol code"
        )
