"""Large-scale workload driver: zipfian access, hot keys, client churn.

The generators in :mod:`repro.workloads.generator` build small program
mixes for a handful of hand-named clients.  This driver builds the
*system* too: it provisions N clients (10k+ works), seeds a shared
table, generates a zipfian/hot-key program per client per wave, and
executes each wave through the event-driven
:class:`repro.engine.Engine` (or the legacy
:class:`~repro.harness.scheduler.PollingScheduler`, for baseline rows).

Everything is deterministic from ``SystemConfig.seed``: the zipfian
sampler, the read/update coin flips, the churn victim selection, and
the engine's execution order are all pure functions of the seed and the
spec, so a run is replayable bit-for-bit.

Between waves the driver can *churn* clients: a deterministic slice of
the population fails and is recovered (``crash_client``), exercising
the paper's client-recovery path under load, while the remaining
clients' caches and cached locks stay warm.  Churn costs a server
checkpoint per recovery (the coordinated DPL gather), so the knob is
priced for the 100-to-1k-client tiers; the 10k tier typically runs
churn-free.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine.core import Engine, ScheduleResult, TxnOutcomeKind
from repro.workloads.generator import Program, seed_table

__all__ = ["DriverSpec", "DriverReport", "ZipfSampler",
           "build_system", "generate_wave", "run_driver"]


@dataclass(frozen=True)
class DriverSpec:
    """Shape of one driver run.  All randomness derives from the system
    seed; the spec itself is pure structure."""

    #: Concurrent simulated clients (each gets one program per wave).
    clients: int = 100
    #: Record operations per transaction (plus the terminal commit).
    ops_per_txn: int = 4
    #: Probability an operation reads instead of updates.
    read_fraction: float = 0.5
    #: Zipf-like skew exponent over the record space: 0 = uniform,
    #: ~0.99 = YCSB-style hot keys.  Access probability of the i-th
    #: record is proportional to 1/(i+1)^theta.
    zipf_theta: float = 0.99
    #: Restrict all sampled accesses to the first ``hot_records``
    #: records when > 0 — a hard hot set on top of the zipfian skew.
    hot_records: int = 0
    #: Probability a transaction ends in ``abort`` instead of commit.
    abort_fraction: float = 0.0
    #: Sort each transaction's record accesses by record id (the
    #: classic deadlock-avoidance discipline).  Keeps a heavily
    #: contended run queueing-bound instead of victim-bound, which is
    #: what throughput benchmarks want; leave False to exercise the
    #: deadlock detector under skew.
    ordered_access: bool = False
    #: Waves of programs; every wave runs one program per live client.
    waves: int = 1
    #: Fraction of clients crashed + recovered between waves.
    churn_rate: float = 0.0
    #: Table geometry for the seeded record space.
    table_pages: int = 64
    records_per_page: int = 8


@dataclass
class DriverReport:
    """Aggregate, fully deterministic outcome of a driver run."""

    clients: int = 0
    waves: int = 0
    programs: int = 0
    committed: int = 0
    aborted: int = 0
    deadlock_victims: int = 0
    #: Record operations attempted across all programs (excluding the
    #: terminal commit/abort), i.e. the throughput numerator.
    ops: int = 0
    #: Max per-transaction step attempts, per wave.
    rounds_per_wave: List[int] = field(default_factory=list)
    #: Clients crashed + recovered between waves.
    churned: int = 0
    #: Per-transaction latency in executed-op ticks, all waves pooled.
    latency_ticks: List[int] = field(default_factory=list)

    def latency_histogram(self) -> "Histogram":
        """The run's latency distribution as a deterministic log2
        histogram (``repro.obs.hist``) — the same instrument the live
        ``MetricsHub`` fills, built here from the recorded ticks."""
        from repro.obs.hist import Histogram
        return Histogram.from_values(self.latency_ticks)

    def p50_latency_ticks(self) -> int:
        return self.latency_histogram().p50()

    def p95_latency_ticks(self) -> int:
        return self.latency_histogram().p95()

    def p99_latency_ticks(self) -> int:
        return self.latency_histogram().p99()


class ZipfSampler:
    """Deterministic zipfian index sampler over ``[0, n)``.

    Weights ``1/(i+1)^theta`` are precomputed into a cumulative table
    once; each sample is one RNG draw plus a bisect — no per-sample
    allocation, suitable for millions of draws.
    """

    def __init__(self, n: int, theta: float) -> None:
        if n <= 0:
            raise ValueError("ZipfSampler needs a non-empty index space")
        self.n = n
        self.theta = theta
        cumulative: List[float] = []
        total = 0.0
        for i in range(n):
            total += 1.0 / ((i + 1) ** theta) if theta else 1.0
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(
            self._cumulative, rng.random() * self._total)


def client_ids_for(count: int) -> List[str]:
    """Stable client naming: W00000 .. W<count-1>, zero-padded so sort
    order equals creation order at any population size."""
    width = max(5, len(str(count - 1)) if count else 1)
    return [f"W{i:0{width}d}" for i in range(count)]


def build_system(spec: DriverSpec,
                 config: Optional[SystemConfig] = None,
                 ) -> Tuple[ClientServerSystem, List]:
    """Provision the complex and the seeded record space for a run.

    The default config makes two population-scale choices (pass an
    explicit ``config`` to override either of them):

    * periodic checkpoints off — a coordinated checkpoint gathers a
      dirty-page list from every connected client, an O(population)
      RPC burst the hot path must not pay;
    * lock caching off — cached global locks are a locality
      optimization, and under hot-key skew every conflicting acquire
      triggers a reduce-callback to each cached holder (an O(holders)
      RPC storm per hot-record lock).  The commit request then carries
      the locks a commit frees, so releasing them costs no message.
    """
    if config is None:
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0,
                              llm_cache_locks=False)
    ids = client_ids_for(spec.clients)
    system = ClientServerSystem(config, client_ids=ids[:1])
    system.bootstrap(data_pages=spec.table_pages,
                     free_pages=max(16, spec.table_pages // 4))
    rids = seed_table(system, ids[0], "zipf", spec.table_pages,
                      spec.records_per_page)
    for client_id in ids[1:]:
        system.add_client(client_id)
    return system, rids


def generate_wave(spec: DriverSpec, rids: Sequence, wave: int,
                  live_clients: Sequence[str],
                  rng: random.Random) -> List[Tuple[str, Program]]:
    """One program per live client, zipfian over the (hot) record set."""
    space = len(rids)
    if spec.hot_records > 0:
        space = min(space, spec.hot_records)
    sampler = ZipfSampler(space, spec.zipf_theta)
    assignments: List[Tuple[str, Program]] = []
    for seq, client_id in enumerate(live_clients):
        program: Program = []
        for op_index in range(spec.ops_per_txn):
            rid = rids[sampler.sample(rng)]
            if rng.random() < spec.read_fraction:
                program.append(("read", rid))
            else:
                program.append(
                    ("update", rid, f"w{wave}-{seq}-{op_index}"))
        if spec.ordered_access:
            program.sort(key=lambda op: (op[1].page_id, op[1].slot))
        terminal = ("abort",) if (
            spec.abort_fraction > 0
            and rng.random() < spec.abort_fraction) else ("commit",)
        program.append(terminal)
        assignments.append((client_id, program))
    return assignments


def run_driver(spec: DriverSpec,
               config: Optional[SystemConfig] = None,
               executor: str = "engine",
               max_rounds: int = 1_000_000) -> DriverReport:
    """Run the full workload; returns the deterministic report.

    ``executor`` selects ``"engine"`` (event-driven, the default) or
    ``"polling"`` (the legacy round-robin scheduler) so benchmarks can
    produce like-for-like rows from one code path.
    """
    system, rids = build_system(spec, config)
    rng = random.Random((system.config.seed << 8) ^ 0x5EED)
    ids = client_ids_for(spec.clients)
    report = DriverReport(clients=spec.clients, waves=spec.waves)
    for wave in range(spec.waves):
        if wave and spec.churn_rate > 0:
            report.churned += _churn(system, ids, spec, wave, rng)
        assignments = generate_wave(spec, rids, wave, ids, rng)
        result = _execute(system, assignments, executor, max_rounds)
        report.programs += len(assignments)
        report.committed += result.committed
        report.aborted += result.aborted
        report.deadlock_victims += result.deadlock_victims
        report.rounds_per_wave.append(result.rounds)
        report.ops += sum(len(p) - 1 for _, p in assignments)
        report.latency_ticks.extend(result.latency_ticks)
    return report


def _execute(system: ClientServerSystem,
             assignments: List[Tuple[str, Program]],
             executor: str, max_rounds: int) -> ScheduleResult:
    if executor == "engine":
        return Engine(system).run(assignments, max_rounds=max_rounds)
    if executor == "polling":
        from repro.harness.scheduler import PollingScheduler
        return PollingScheduler(system).run(assignments,
                                            max_rounds=max_rounds)
    raise ValueError(f"unknown executor {executor!r}")


def _churn(system: ClientServerSystem, ids: List[str], spec: DriverSpec,
           wave: int, rng: random.Random) -> int:
    """Crash + recover a deterministic slice of the population.

    Victims are sampled without replacement from the full id space;
    each goes through the real client-failure path (server-side client
    recovery, lock release, checkpoint), then rejoins before the next
    wave — its cache cold, everyone else's warm.
    """
    victims = max(1, int(len(ids) * spec.churn_rate))
    for client_id in rng.sample(ids, victims):
        system.crash_client(client_id, recover=True)
        system.reconnect_client(client_id)
    return victims
