"""Unit-level tests for the event-driven execution engine."""

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine import Engine, TxnOutcomeKind
from repro.workloads.generator import seed_table


@pytest.fixture
def sys_rids():
    config = SystemConfig(client_checkpoint_interval=0,
                          server_checkpoint_interval=0)
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 4)
    return system, rids


class TestEngineMechanics:
    def test_empty_schedule(self, sys_rids):
        system, _ = sys_rids
        result = Engine(system).run([])
        assert result.committed == 0 and result.rounds == 0

    def test_single_program(self, sys_rids):
        system, rids = sys_rids
        result = Engine(system).run([
            ("C1", [("update", rids[0], "v"), ("commit",)]),
        ])
        assert result.committed == 1
        assert result.outcomes["S0"] is TxnOutcomeKind.COMMITTED
        assert system.current_value(rids[0]) == "v"

    def test_max_rounds_guard(self, sys_rids):
        system, rids = sys_rids
        long_program = [("read", rids[0])] * 10 + [("commit",)]
        with pytest.raises(RuntimeError, match="max rounds"):
            Engine(system).run([("C1", long_program)], max_rounds=3)

    def test_rounds_equal_polling_for_uncontended(self, sys_rids):
        """For conflict-free schedules ``rounds`` keeps the polling
        scheduler's meaning: longest program's step count."""
        system, rids = sys_rids
        result = Engine(system).run([
            ("C1", [("update", rids[0], "a"), ("commit",)]),
            ("C2", [("update", rids[4], "b"), ("read", rids[5]),
                    ("commit",)]),
        ])
        assert result.rounds == 3

    def test_latency_ticks_recorded_per_txn(self, sys_rids):
        system, rids = sys_rids
        result = Engine(system).run([
            ("C1", [("update", rids[0], "a"), ("commit",)]),
            ("C2", [("read", rids[4]), ("read", rids[5]), ("commit",)]),
        ])
        assert len(result.latency_ticks) == 2
        assert all(t >= 1 for t in result.latency_ticks)

    def test_deadlock_resolved_and_victim_rolled_back(self, sys_rids):
        system, rids = sys_rids
        a, b = rids[0], rids[4]
        result = Engine(system).run([
            ("C1", [("update", a, "t1"), ("update", b, "t1"),
                    ("commit",)]),
            ("C2", [("update", b, "t2"), ("update", a, "t2"),
                    ("commit",)]),
        ])
        assert result.deadlock_victims == 1
        assert result.committed == 1
        winner = "t1" if system.current_value(a) == "t1" else "t2"
        assert system.current_value(a) == winner
        assert system.current_value(b) == winner

    def test_waiters_wake_on_holder_commit(self, sys_rids):
        """A blocked writer completes after its blocker terminates —
        the engine wakes it from the wait set, not by polling."""
        system, rids = sys_rids
        rid = rids[0]
        result = Engine(system).run([
            ("C1", [("update", rid, "first"), ("read", rids[1]),
                    ("commit",)]),
            ("C2", [("update", rid, "second"), ("commit",)]),
        ])
        assert result.committed == 2
        assert system.current_value(rid) == "second"

    def test_reader_crowd_admitted_together(self, sys_rids):
        """A writer followed by many readers: the readers are granted
        as a group once the writer finishes."""
        system, rids = sys_rids
        rid = rids[0]
        programs = [("C1", [("update", rid, "w"), ("commit",)])]
        programs += [("C2", [("read", rid), ("commit",)])
                     for _ in range(5)]
        result = Engine(system).run(programs)
        assert result.committed == 6

    def test_stall_without_cycle_raises(self, sys_rids):
        """A lock held by a node outside the schedule can never be
        released by it — the engine must say so instead of spinning."""
        system, rids = sys_rids
        client = system.client("C1")
        outside = client.begin()
        client.update(outside, rids[0], "held-outside")
        with pytest.raises(RuntimeError, match="outside the schedule"):
            Engine(system).run([
                ("C2", [("update", rids[0], "blocked"), ("commit",)]),
            ], max_rounds=50)

    def test_stall_retries_only_stranded_waiters(self, sys_rids):
        """S0 waits for a transaction outside the schedule, so nothing
        parked blocks it: the no-cycle stall retries it.  S1 waits for
        S0, which keeps its lock on ``b`` while parked: a retry could
        only park again, so S1 takes no step at the stall."""
        system, rids = sys_rids
        a, b = rids[0], rids[1]
        client = system.client("C1")
        outside = client.begin()
        client.update(outside, a, "held-outside")

        class Recording(Engine):
            def __init__(self, system):
                super().__init__(system)
                self.pulses = []

            def _resolve_stall(self):
                super()._resolve_stall()
                self.pulses.append([s.name for s in self._ready])

        engine = Recording(system)
        with pytest.raises(RuntimeError, match="outside the schedule"):
            engine.run([
                ("C2", [("update", b, "s0"), ("update", a, "s0"),
                        ("commit",)]),
                ("C2", [("update", b, "s1"), ("commit",)]),
            ], max_rounds=50)
        assert engine.pulses == [["S0"]]
        parked = {s.name: s for s in engine._parked.values()}
        # S0: its update of b, the park on a, the retry at the stall.
        # S1: the park on b only.
        assert {name: s.steps for name, s in parked.items()} == {
            "S0": 3, "S1": 1}
        assert engine.graph.targets(parked["S0"].txn.txn_id) == {
            outside.txn_id}
        assert engine.graph.targets(parked["S1"].txn.txn_id) == {
            parked["S0"].txn.txn_id}

    def test_programs_at_same_client_interleave(self, sys_rids):
        system, rids = sys_rids
        result = Engine(system).run([
            ("C1", [("update", rids[0], "a"), ("commit",)]),
            ("C1", [("update", rids[4], "b"), ("commit",)]),
            ("C1", [("update", rids[8], "c"), ("commit",)]),
        ])
        assert result.committed == 3
