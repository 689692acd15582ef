"""The four workloads: set-up, closed-loop load, injected outage, oracle.

Every workload has the same three phases (see ``bench/README.md``):

* :meth:`Workload.build` — *set-up*: bootstrap, table seeding, program
  generation and an untimed warm-up that fills caches;
* :meth:`Workload.load` — the timed closed-loop commit phase;
* :meth:`Workload.outage` — stage in-flight transactions, inject the
  failure, recover, commit a probe; returns the failure-to-probe time
  and runs the durability oracle afterwards.

Work, not time, is what ``--seconds`` fixes: each workload turns the
requested seconds into a transaction count through a rate measured on
the reference sandbox, so the same seed gives the same inputs, the same
exact counts and the same recovery corpus on both sides of a
comparison.

All four drive only the public API (``ClientServerSystem``,
``Client.begin/read/update/commit/rollback``, ``Engine.run``,
``crash_*``/``restart_server``/``recover_failed_client``/
``replication.run_failover``) from one thread.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine.core import Engine, TxnOutcomeKind
from repro.errors import ReproError
from repro.records.heap import RecordId
from repro.workloads import (
    DriverSpec,
    WorkloadSpec,
    build_system,
    debit_credit_programs,
    generate_programs,
    generate_wave,
    run_program_sequential,
    seed_table,
)
from repro.workloads.driver import client_ids_for
from repro.workloads.generator import Program

perf = time.perf_counter

RECORDS_PER_PAGE = 8


@dataclass
class Complex:
    """One built complex plus what the phases and the oracle need."""

    system: ClientServerSystem
    clients: List[Any]
    rids: List[RecordId]
    #: Last acknowledged value per record (the durability oracle's
    #: shadow map); records never written map to their seeded value.
    shadow: Dict[RecordId, Any]
    #: Seconds spent inside ``repro.workloads`` generators during build.
    generate_s: float = 0.0
    #: Engine instrumentation hook of a traced run (None when untraced).
    on_engine: Optional[Callable[[Engine], None]] = None

    # -- load-phase tallies ------------------------------------------------
    #: begin -> commit seconds of every committed load transaction.
    latencies: List[float] = field(default_factory=list)
    #: Distinct programs submitted / attempts including victim retries.
    programs: int = 0
    attempts: int = 0
    committed: int = 0
    rolled_back: int = 0
    victims: int = 0
    errors: int = 0
    #: Oracle misses over every check made on this complex.
    misses: int = 0
    probes: int = 0
    engine_rounds: int = 0
    #: One entry per load block: (seconds, commits, len(latencies) at
    #: its end).  Headline timings are medians over blocks, so a burst
    #: of machine noise that hits a minority of blocks drops out.
    blocks: List[Tuple[float, int, int]] = field(default_factory=list)
    #: The timed load: (client, program) turns, or engine waves.
    schedule: List[Tuple[Any, Program]] = field(default_factory=list)
    waves: List[List[Tuple[str, Program]]] = field(default_factory=list)
    clock: Optional["_TxnClock"] = None


def check(cx: Complex, rids: Sequence[RecordId]) -> None:
    """Durability oracle: every record reads back its acknowledged value."""
    current = cx.system.current_value
    shadow = cx.shadow
    cx.misses += sum(1 for rid in rids if current(rid) != shadow[rid])


def acknowledge(cx: Complex, program: Program) -> None:
    """Fold one committed program's writes into the shadow map."""
    shadow = cx.shadow
    for op in program:
        if op[0] == "update":
            shadow[op[1]] = op[2]


def run_txn(cx: Complex, client: Any, program: Program) -> bool:
    """One whole transaction at one client; True when it committed."""
    return run_program_sequential(
        cx.system, client.client_id, program) == "committed"


def drive(cx: Complex, schedule: Sequence[Tuple[Any, Program]],
          warm_up: bool = False) -> None:
    """Closed loop, one transaction at a time, clients round-robin.

    The two clock reads around ``begin`` .. ``commit`` are the only
    instrumentation of an untraced run.  A warm-up pass acknowledges
    its commits (the oracle must know them) but tallies nothing.
    """
    latencies: List[float] = []
    committed = 0
    begun = perf()
    for client, program in schedule:
        start = perf()
        try:
            done = run_txn(cx, client, program)
        except ReproError:
            cx.errors += 1
            continue
        if done:
            latencies.append(perf() - start)
            acknowledge(cx, program)
            committed += 1
    if not warm_up:
        cx.latencies += latencies
        cx.programs += len(schedule)
        cx.attempts += len(schedule)
        cx.committed += committed
        cx.rolled_back += len(schedule) - committed
        cx.blocks.append((perf() - begun, committed, len(cx.latencies)))


def stage_in_flight(client: Any, rids: Sequence[RecordId],
                    tag: str) -> Tuple[Any, Program]:
    """Begin a transaction, update ``rids`` and leave it uncommitted."""
    txn = client.begin()
    program: Program = [("update", rid, f"{tag}-{rid}") for rid in rids]
    for _kind, rid, value in program:
        client.update(txn, rid, value)
    return txn, program


def finish_survivors(cx: Complex, staged: Sequence[Tuple[Any, Any, Program]]
                     ) -> None:
    """Survivors finish what they had in flight: alternately commit and
    roll back; the oracle wants the former present, the latter absent."""
    for i, (client, txn, program) in enumerate(staged):
        if i % 2 == 0:
            client.commit(txn)
            acknowledge(cx, program)
        else:
            client.rollback(txn)


def probe(cx: Complex, client: Any, rid: RecordId) -> None:
    """The first post-recovery commit; acknowledged like any other.
    Each probe of a complex writes a value of its own."""
    cx.probes += 1
    program: Program = [("update", rid, f"probe-{cx.probes}"), ("commit",)]
    run_txn(cx, client, program)
    acknowledge(cx, program)


class Workload:
    """Shape shared by the four workloads."""

    name = ""
    why = ""
    #: Complexes built per untraced run; ``setup_s`` is their median.
    builds = 3
    #: How many of them (the last ones) carry a load phase and outages;
    #: the others are set-up samples only.
    sessions = 1
    #: Timed outages taken on the loaded complex, each a fresh failure
    #: with fresh transactions in flight; ``outage_ms`` is their median.
    outage_reps = 3

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds

    def build(self) -> Complex:
        raise NotImplementedError

    #: Load blocks; the first ``PREFIX_BLOCKS`` are what a traced run's
    #: untraced reference complex replays (``trace.overhead_ratio``
    #: compares like for like).
    BLOCKS = 10
    PREFIX_BLOCKS = 2

    def load(self, cx: Complex, prefix_only: bool = False) -> None:
        """The schedule in ``BLOCKS`` equal slices, one block each."""
        size = len(cx.schedule) // self.BLOCKS
        for block in range(self.PREFIX_BLOCKS if prefix_only else self.BLOCKS):
            drive(cx, cx.schedule[block * size:(block + 1) * size])

    # An outage is three steps so that only the middle one is timed
    # (and, in a traced run, is the whole of the ``outage`` phase).

    def stage(self, cx: Complex, rep: int) -> Any:
        """Leave transactions in flight; returns what the next steps need."""
        raise NotImplementedError

    def fail_and_recover(self, cx: Complex, staged: Any) -> None:
        """Inject the failure, recover, commit the probe."""
        raise NotImplementedError

    def settle(self, cx: Complex, staged: Any) -> None:
        """Finish surviving in-flight work, then run the oracle."""
        raise NotImplementedError

    def outage(self, cx: Complex, rep: int = 0) -> float:
        """One failure-injection-to-probe-commit time, oracle included."""
        staged = self.stage(cx, rep)
        # Collect first, so that garbage owed to the load phase is not
        # billed to a window that may be a few milliseconds long; the
        # collector stays enabled inside it.
        gc.collect()
        start = perf()
        self.fail_and_recover(cx, staged)
        elapsed = perf() - start
        self.settle(cx, staged)
        return elapsed

    # -- set-up shared by the round-robin workloads ----------------------

    def _seeded_complex(self, config: SystemConfig, clients: int,
                        table: str, pages: int) -> Complex:
        ids = [f"C{i}" for i in range(clients)]
        system = ClientServerSystem(config, client_ids=ids)
        system.bootstrap(data_pages=pages, free_pages=16)
        rids = seed_table(system, ids[0], table, pages, RECORDS_PER_PAGE)
        return Complex(system, [system.client(i) for i in ids], rids,
                       {rid: ("init", i) for i, rid in enumerate(rids)})

    def _warm_up(self, cx: Complex, schedule: List[Tuple[Any, Program]],
                 warm_txns: int) -> Complex:
        drive(cx, schedule[:warm_txns], warm_up=True)
        cx.schedule = schedule[warm_txns:]
        return cx


def _interleave(clients: Sequence[Any], programs: Sequence[List[Program]]
                ) -> List[Tuple[Any, Program]]:
    """Round-robin: one program per client per turn."""
    return [(client, program)
            for turn in zip(*programs)
            for client, program in zip(clients, turn)]


# ---------------------------------------------------------------------------
# zipf_contended
# ---------------------------------------------------------------------------

class _TxnClock:
    """begin/commit timestamps for engine-driven clients.

    ``Engine.run`` calls ``begin`` and ``commit`` itself, so the
    benchmark's two clock reads sit on per-instance shadows of exactly
    those two methods.  ``begin`` also pairs the new transaction with
    the next program queued for its client (the engine begins a
    client's programs in assignment order), which is what lets the
    oracle acknowledge commits in their true order.  A transaction
    begun with nothing queued (the outage's hand-driven ones) pairs
    with an empty program.
    """

    def __init__(self, cx: Complex) -> None:
        self.cx = cx
        self.started: Dict[str, Tuple[float, Program]] = {}
        self.queued: Dict[str, deque] = {}

    def attach(self, client: Any) -> None:
        begin, commit = client.begin, client.commit
        started = self.started
        queue = self.queued.setdefault(client.client_id, deque())
        cx = self.cx

        def timed_begin(txn_id: Optional[str] = None) -> Any:
            start = perf()
            txn = begin(txn_id)
            started[txn.txn_id] = (start, queue.popleft() if queue else [])
            return txn

        def timed_commit(txn: Any) -> None:
            commit(txn)
            end = perf()
            start, program = started.pop(txn.txn_id)
            cx.latencies.append(end - start)
            acknowledge(cx, program)

        client.begin = timed_begin
        client.commit = timed_commit


class ZipfContended(Workload):
    name = "zipf_contended"
    why = ("rows no more than clients: GLM lock table, waits-for graph, "
           "callbacks and engine parking do the work; restart rebuilds the "
           "lock table from 500 survivors")

    #: Seconds one 500-client wave costs on the reference sandbox.
    WAVE_S = 0.85
    #: A load block is two waves: 1000 latency samples, fifty of them
    #: beyond the block's p95.
    WAVES_PER_BLOCK = 2
    PREFIX_BLOCKS = 1
    IN_FLIGHT = 8

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        super().__init__(seed, seconds, quick)
        self.clients = 100 if quick else 500
        blocks = 1 if quick else max(1, round(
            seconds / self.WAVE_S / self.WAVES_PER_BLOCK))
        self.waves = blocks * self.WAVES_PER_BLOCK
        self.spec = DriverSpec(clients=self.clients, ordered_access=True,
                               waves=self.waves)

    def build(self) -> Complex:
        spec = self.spec
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0,
                              llm_cache_locks=False, rpc_batching=True,
                              seed=self.seed)
        system, rids = build_system(spec, config)
        ids = client_ids_for(spec.clients)
        cx = Complex(system, [system.client(i) for i in ids], rids,
                     {rid: ("init", i) for i, rid in enumerate(rids)})
        rng = random.Random(self.seed)
        start = perf()
        cx.waves = [generate_wave(spec, rids, wave, ids, rng)
                    for wave in range(spec.waves)]
        readers = DriverSpec(clients=spec.clients, read_fraction=1.0,
                             ops_per_txn=16, ordered_access=True)
        warm = generate_wave(readers, rids, 0, ids, rng)
        cx.generate_s = perf() - start
        # Warm-up: one read-only transaction per client pulls the hot
        # pages into its cache (S locks only, no conflicts).
        Engine(system).run(warm, max_rounds=1_000_000)
        cx.clock = _TxnClock(cx)
        for client in cx.clients:
            cx.clock.attach(client)
        return cx

    def load(self, cx: Complex, prefix_only: bool = False) -> None:
        """The engine runs each wave, then each deadlock victim is
        resubmitted on its own (a closed-loop client retries; alone it
        cannot deadlock), so every program commits."""
        system = cx.system
        waves = cx.waves
        if prefix_only:
            waves = waves[:self.PREFIX_BLOCKS * self.WAVES_PER_BLOCK]
        begun = perf()
        committed = cx.committed
        for index, wave in enumerate(waves, start=1):
            for client_id, program in wave:
                cx.clock.queued[client_id].append(program)
            engine = Engine(system)
            if cx.on_engine is not None:
                cx.on_engine(engine)
            result = engine.run(wave, max_rounds=1_000_000)
            cx.clock.started.clear()
            cx.programs += len(wave)
            cx.attempts += len(wave) + result.deadlock_victims
            cx.committed += result.committed
            cx.victims += result.deadlock_victims
            cx.engine_rounds = max(cx.engine_rounds, result.rounds)
            for i, (client_id, program) in enumerate(wave):
                if result.outcomes[f"S{i}"] is not TxnOutcomeKind.DEADLOCK_VICTIM:
                    continue
                cx.clock.queued[client_id].append(program)
                try:
                    run_txn(cx, system.client(client_id), program)
                    cx.committed += 1
                except ReproError:
                    cx.errors += 1
            if index % self.WAVES_PER_BLOCK == 0:
                now = perf()
                cx.blocks.append((now - begun, cx.committed - committed,
                                  len(cx.latencies)))
                begun, committed = now, cx.committed

    def stage(self, cx: Complex, rep: int) -> Any:
        # In-flight work sits on the coldest records at the last k
        # clients; they all survive the server and carry on afterwards.
        k = self.IN_FLIGHT
        cold = cx.rids[-(2 * k + 1):]
        return [(client, *stage_in_flight(
            client, cold[2 * i:2 * i + 2], f"inflight{rep}"))
            for i, client in enumerate(cx.clients[-k:])]

    def fail_and_recover(self, cx: Complex, staged: Any) -> None:
        cx.system.crash_server()
        cx.system.restart_server()
        probe(cx, cx.clients[0], cx.rids[-1])

    def settle(self, cx: Complex, staged: Any) -> None:
        finish_survivors(cx, staged)
        check(cx, cx.rids)


# ---------------------------------------------------------------------------
# cad_sessions
# ---------------------------------------------------------------------------

class CadSessions(Workload):
    name = "cad_sessions"
    why = ("four clients on private working sets that fit their caches: "
           "client cache hits, LLM local grants and the client log do the "
           "work; GLM, disk and the server pool almost none")

    RATE = 3000          # transactions per second on the reference sandbox
    CLIENTS = 4
    PAGES_PER_CLIENT = 32

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        super().__init__(seed, seconds, quick)
        self.load_txns = 1200 if quick else int(self.RATE * seconds)
        self.warm_txns = 200 if quick else 800

    def build(self) -> Complex:
        cx = self._seeded_complex(
            SystemConfig(seed=self.seed), self.CLIENTS, "cad",
            self.CLIENTS * self.PAGES_PER_CLIENT)
        per_client = (self.load_txns + self.warm_txns) // self.CLIENTS
        start = perf()
        programs = [
            generate_programs(WorkloadSpec(
                num_txns=per_client, ops_per_txn=16, read_fraction=0.75,
                abort_fraction=0.05, seed=self.seed * self.CLIENTS + i,
                value_prefix=f"c{i}"), self.working_set(cx, i)[:-8])
            for i in range(self.CLIENTS)
        ]
        cx.generate_s = perf() - start
        return self._warm_up(cx, _interleave(cx.clients, programs),
                             self.warm_txns)

    def working_set(self, cx: Complex, i: int) -> List[RecordId]:
        size = self.PAGES_PER_CLIENT * RECORDS_PER_PAGE
        return cx.rids[i * size:(i + 1) * size]

    def stage(self, cx: Complex, rep: int) -> Any:
        # The last page of each working set is kept out of the programs:
        # its records carry the in-flight update and the probe.
        index = 1 + rep % (self.CLIENTS - 1)
        client = cx.clients[index]
        spare = self.working_set(cx, index)[-8:]
        stage_in_flight(client, spare[:4], f"inflight{rep}")
        return client, spare[4]

    def fail_and_recover(self, cx: Complex, staged: Any) -> None:
        client, probe_rid = staged
        client.crash()
        cx.system.server.recover_failed_client(client.client_id)
        cx.system.reconnect_client(client.client_id)
        probe(cx, client, probe_rid)

    def settle(self, cx: Complex, staged: Any) -> None:
        check(cx, cx.rids)


# ---------------------------------------------------------------------------
# uniform_spill
# ---------------------------------------------------------------------------

class UniformSpill(Workload):
    name = "uniform_spill"
    why = ("working set 32x a client cache and 8x the server pool: "
           "eviction, steal writes, disk I/O and page shipping dominate; "
           "the restart replays the whole uncheckpointed log")

    RATE = 1350
    CLIENTS = 8

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        super().__init__(seed, seconds, quick)
        self.pages = 256 if quick else 2048
        self.load_txns = 600 if quick else int(self.RATE * seconds)
        self.warm_txns = 100 if quick else 400

    def build(self) -> Complex:
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0,
                              llm_cache_locks=False, seed=self.seed)
        cx = self._seeded_complex(config, self.CLIENTS, "spill", self.pages)
        start = perf()
        programs = generate_programs(WorkloadSpec(
            num_txns=self.load_txns + self.warm_txns, ops_per_txn=4,
            read_fraction=0.5, seed=self.seed), cx.rids[:-4 * self.CLIENTS])
        cx.generate_s = perf() - start
        schedule = [(cx.clients[i % self.CLIENTS], program)
                    for i, program in enumerate(programs)]
        return self._warm_up(cx, schedule, self.warm_txns)

    def stage(self, cx: Complex, rep: int) -> Any:
        # The last 4n records are kept out of the programs: two per
        # client for its in-flight transaction, the very last for the
        # probe.
        spare = cx.rids[-4 * self.CLIENTS:]
        return [(client, *stage_in_flight(
            client, spare[3 * i:3 * i + 2], f"inflight{rep}"))
            for i, client in enumerate(cx.clients)]

    def fail_and_recover(self, cx: Complex, staged: Any) -> None:
        # Half the clients go down with the server: their transactions
        # are the losers restart undo rolls back.
        half = self.CLIENTS // 2
        for client, _txn, _program in staged[:half]:
            client.crash()
        cx.system.crash_server()
        cx.system.restart_server()
        probe(cx, cx.clients[half], cx.rids[-1])

    def settle(self, cx: Complex, staged: Any) -> None:
        half = self.CLIENTS // 2
        for client, _txn, _program in staged[:half]:
            cx.system.reconnect_client(client.client_id)
        finish_survivors(cx, staged[half:])
        check(cx, cx.rids)


# ---------------------------------------------------------------------------
# replicated_commit
# ---------------------------------------------------------------------------

class ReplicatedCommit(Workload):
    name = "replicated_commit"
    why = ("write-only and hit-only: the commit path client log -> RPC -> "
           "server log -> force -> ship/ack dominates; the only workload "
           "whose log is a shipped stream; the outage is a failover")

    RATE = 1750
    CLIENTS = 4
    PAGES = 64
    #: A complex fails over once and a failover takes milliseconds, so
    #: the load is five independent sessions of a fifth of the
    #: transactions each, every one ending in its own failover after the
    #: same length of history (promotion cost grows with it).
    builds = 5
    sessions = 5
    outage_reps = 1
    BLOCKS = 2

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        super().__init__(seed, seconds, quick)
        total = 800 if quick else int(self.RATE * seconds)
        self.load_txns = total // self.sessions
        self.warm_txns = 100 if quick else 800

    def build(self) -> Complex:
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0,
                              replication_enabled=True, seed=self.seed)
        cx = self._seeded_complex(config, self.CLIENTS, "accounts",
                                  self.PAGES)
        per_client = (self.load_txns + self.warm_txns) // self.CLIENTS
        start = perf()
        programs = [
            debit_credit_programs(per_client, self.partition(cx, i)[:-8], 4,
                                  seed=self.seed * self.CLIENTS + i)
            for i in range(self.CLIENTS)
        ]
        cx.generate_s = perf() - start
        return self._warm_up(cx, _interleave(cx.clients, programs),
                             self.warm_txns)

    def partition(self, cx: Complex, i: int) -> List[RecordId]:
        size = len(cx.rids) // self.CLIENTS
        return cx.rids[i * size:(i + 1) * size]

    def stage(self, cx: Complex, rep: int) -> Any:
        # The last page of each partition is kept out of the programs.
        return [(client, *stage_in_flight(
            client, self.partition(cx, i)[-8:-6], "inflight"))
            for i, client in enumerate(cx.clients) if i >= 2]

    def fail_and_recover(self, cx: Complex, staged: Any) -> None:
        cx.system.crash_server()
        cx.system.replication.run_failover()
        probe(cx, cx.clients[0], self.partition(cx, 0)[-1])

    def settle(self, cx: Complex, staged: Any) -> None:
        finish_survivors(cx, staged)
        check(cx, cx.rids)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (ZipfContended, CadSessions, UniformSpill, ReplicatedCommit)
}
