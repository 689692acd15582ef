"""The unified fault plane: seed-deterministic injection for the complex.

ARIES/CSA's correctness argument (sections 2.5-2.7) is about surviving
failures at *arbitrary* points — not just at the handful of seams a
hand-written crash test happens to pick.  This module gives the
simulation one deterministic chaos source:

* :class:`FaultPlan` — carried by :class:`~repro.config.SystemConfig`
  and attached as the complex probe's ``faults`` plane (DESIGN §9,
  "Probe"; an unattached plan costs each hook one guard).  The plan owns a
  single seed from which every *namespace* ("transport", "disk", "log")
  derives its own :class:`random.Random` stream, so transport drops,
  torn page writes, transient I/O errors and partial log flushes replay
  bit-for-bit from one knob.  The ``transport`` namespace is seeded
  with the bare integer seed for bit-for-bit parity with PR 1's
  standalone ``FaultyTransport(seed=...)`` (pinned by
  ``test_transport_parity.py``); every other namespace derives a
  distinct stream from ``"<seed>:<namespace>"``.

* **Crashpoints** — named instrumentation sites
  (``"server.checkpoint.before_master"``) threaded through the server,
  client, recovery passes, 2PC coordinator, buffer pool, stable log and
  archive.  A plan *armed* with a schedule raises
  :class:`CrashPointReached` at the scheduled hit of the scheduled
  site; the harness (``repro.harness.chaos``) turns that into a
  whole-complex crash + recovery and checks the durability oracle and
  runtime invariants.  A schedule is a sequence of legs so crashes can
  recur *during recovery* (the section 2.5 restart-is-restartable
  claim).

Every injected fault is emitted as a tracer instant (category
``"fault"``) when a tracer is attached, so ``tracedump`` timelines show
exactly what chaos ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple, TypeVar

from repro.errors import TransientIOError

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

#: Every named crashpoint instrumented in the codebase.  Kept as a pure
#: literal (like ``TRACKED_COUNTER_ATTRS``) so the explorer, the docs
#: and a consistency test can enumerate the sites without executing
#: them.  Naming convention: ``<component>.<operation>.<position>``.
CRASHPOINTS: Tuple[str, ...] = (
    # server.py — checkpointing (section 2.5.2)
    "server.checkpoint.begin",
    "server.checkpoint.before_force",
    "server.checkpoint.before_master",
    "server.checkpoint.after_master",
    "server.client_checkpoint.before_force",
    "server.client_checkpoint.before_master",
    # server.py — WAL / page flush (section 2.5.1)
    "server.flush.before_force",
    "server.flush.before_write",
    "server.flush.after_write",
    "server.log_ship.before_append",
    "server.commit.before_force",
    "server.bootstrap.before_format",
    # server.py — restart recovery (section 2.5)
    "server.restart.before_analysis",
    "server.restart.before_redo",
    "server.restart.before_undo",
    "server.restart.before_lock_rebuild",
    # server.py — client recovery (section 2.6.1)
    "server.client_recovery.before_analysis",
    "server.client_recovery.before_redo",
    "server.client_recovery.before_undo",
    "server.client_recovery.before_checkpoint",
    # server.py — media recovery / backup (section 2.5.3)
    "server.media.before_restore",
    "server.media.before_write",
    "server.backup.before_archive",
    # client.py — commit / prepare / rollback (sections 2.1, 2.4)
    "client.commit.before_commit_record",
    "client.commit.before_force",
    "client.commit.before_end",
    "client.prepare.before_force",
    "client.rollback.before_clr",
    "client.checkpoint.before_send",
    "client.evict.before_push",
    "client.alloc.between_smp_and_format",
    # recovery.py — inside each pass
    "recovery.analysis.scan",
    "recovery.redo.scan",
    "recovery.undo.scan",
    # coordinator.py — 2PC (presumed abort)
    "coordinator.2pc.before_prepare",
    "coordinator.2pc.before_decision",
    "coordinator.2pc.before_commit_fanout",
    # storage hot paths
    "pool.evict.before_writeback",
    "disk.write.before",
    "log.append.before",
    "log.force.before",
    "archive.backup.before_copy",
    "archive.restore.before",
    # replication.py — log shipping and failover (DESIGN §15)
    "replication.ship.before_send",
    "replication.ship.before_append",
    "replication.ship.before_ack",
    "replication.apply.before_redo",
    "replication.promote.before_fence",
    "replication.promote.before_checkpoint",
    "replication.promote.before_restart",
)

#: Synthetic crash names raised by fault draws rather than crashpoint
#: schedules (a torn write *is* a crash mid-write).
TORN_WRITE_CRASH = "disk.write.torn"

#: Retry budget used by the page-flush and archive retry loops.  Kept
#: strictly above the largest allowed ``io_error_burst`` so a retried
#: operation always succeeds deterministically.
MAX_IO_RETRIES = 4


class CrashPointReached(BaseException):
    """Control-flow signal: the armed crashpoint (or a torn write) fired.

    Deliberately **not** a :class:`~repro.errors.ReproError`:
    ``RpcDispatcher.dispatch`` converts domain errors into failed
    responses, but a crash must propagate raw through every layer to
    the harness, which then crashes the complex for real.  Subclassing
    :class:`BaseException` also keeps broad ``except Exception``
    recovery shims from accidentally swallowing a scheduled crash.
    """

    def __init__(self, point: str, leg: int = 0) -> None:
        super().__init__(f"crashpoint {point!r} fired (schedule leg {leg})")
        self.point = point
        self.leg = leg


@dataclass(eq=False)
class FaultPlan:
    """One seeded description of all the chaos a run should see.

    The plan is both configuration (rates, the crash schedule) and
    runtime state (namespace RNGs, hit counters, fault counters), so a
    schedule id plus a seed fully determines a run; build a fresh plan
    per run to replay.
    """

    #: Root seed; every namespace stream derives from it.
    seed: int = 0
    #: Probability a disk page write tears (persists half the image and
    #: crashes the complex mid-write).
    torn_write_rate: float = 0.0
    #: Tear exactly the k-th disk page write (1-based; None disables).
    #: Deterministic alternative to ``torn_write_rate`` for tests.
    torn_write_at: Optional[int] = None
    #: Probability an individual disk/archive I/O fails transiently.
    io_error_rate: float = 0.0
    #: Most consecutive transient failures one operation can see; must
    #: stay below :data:`MAX_IO_RETRIES` so retries always converge.
    io_error_burst: int = 2
    #: Probability that a crash flushes part of the stable log's
    #: unforced suffix instead of losing all of it (section 2.5:
    #: recovery must tolerate *more* log surviving than was promised).
    partial_flush_rate: float = 0.0
    #: Crash schedule: ``((point, hit), ...)`` legs.  Leg k raises
    #: :class:`CrashPointReached` at the ``hit``-th time ``point`` is
    #: reached after leg k-1 fired (hit counts reset per leg, so nested
    #: crash-during-recovery schedules compose naturally).
    schedule: Tuple[Tuple[str, int], ...] = ()

    #: The complex's tracer, kept in sync by its ``attach_*`` methods;
    #: fault instants are emitted here.
    tracer: Optional["Tracer"] = field(default=None, repr=False,
                                       compare=False)

    # -- public counters (read out by harness.metrics.snapshot) -----------
    faults_injected: int = field(default=0, compare=False)
    torn_writes: int = field(default=0, compare=False)
    io_retries: int = field(default=0, compare=False)
    crashpoints_hit: int = field(default=0, compare=False)
    schedules_explored: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.io_error_burst < MAX_IO_RETRIES:
            raise ValueError(
                f"io_error_burst must be in [0, {MAX_IO_RETRIES}), "
                f"got {self.io_error_burst}")
        for point, hit in self.schedule:
            if hit < 1:
                raise ValueError(f"schedule hit for {point!r} must be >= 1")
        self._rngs: Dict[str, random.Random] = {}
        self._leg_hits: Dict[str, int] = {}
        self._total_hits: Dict[str, int] = {}
        self._next_leg = 0
        self._io_failures: Dict[str, int] = {}
        self._disk_writes_seen = 0
        self._partitions: Set[Tuple[str, str]] = set()

    # -- link partitions --------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Sever the link between two nodes (both directions).

        Partitioned deliveries are dropped at the network layer —
        request legs never reach the destination, exactly like a
        transport drop, but deterministically and until :meth:`heal`.
        The replication failure detector sees a partitioned primary the
        same way it sees a crashed one: heartbeats stop arriving.
        """
        self._partitions.add((a, b))
        self._partitions.add((b, a))
        self._instant("partition", src=a, dst=b)

    def heal(self, a: str, b: str) -> None:
        """Restore the link between two nodes (both directions)."""
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))
        self._instant("heal", src=a, dst=b)

    def is_partitioned(self, src: str, dst: str) -> bool:
        return (src, dst) in self._partitions

    # -- namespaced randomness -------------------------------------------

    def rng(self, namespace: str, seed: Optional[int] = None) -> random.Random:
        """The plan-owned RNG stream for ``namespace`` (created lazily).

        With ``seed`` given, the stream is seeded with that bare integer
        — the transport namespace uses this for bit-for-bit parity with
        the standalone ``FaultyTransport(seed=...)`` draws.  Otherwise
        the stream derives from ``"<plan seed>:<namespace>"`` so every
        namespace sees independent, replayable randomness.
        """
        stream = self._rngs.get(namespace)
        if stream is None:
            material: object = (seed if seed is not None
                                else f"{self.seed}:{namespace}")
            stream = self._rngs[namespace] = random.Random(material)
        return stream

    # -- crashpoints ------------------------------------------------------

    def crashpoint(self, name: str) -> None:
        """Note one pass through the named site; crash if armed for it.

        Call sites guard with ``if probe.faults is not None``.  Raises
        :class:`CrashPointReached` when the current schedule leg names
        this site and its per-leg hit count is reached.
        """
        self.crashpoints_hit += 1
        self._total_hits[name] = self._total_hits.get(name, 0) + 1
        leg = self._next_leg
        if leg >= len(self.schedule):
            return
        count = self._leg_hits.get(name, 0) + 1
        self._leg_hits[name] = count
        armed_name, armed_hit = self.schedule[leg]
        if name != armed_name or count != armed_hit:
            return
        self._next_leg = leg + 1
        self._leg_hits = {}
        self.faults_injected += 1
        self._instant("crashpoint", point=name, leg=leg)
        raise CrashPointReached(name, leg)

    def hit_counts(self) -> Dict[str, int]:
        """Total hits per crashpoint over the plan's lifetime (census)."""
        return dict(self._total_hits)

    @property
    def schedule_exhausted(self) -> bool:
        """True once every leg of the crash schedule has fired."""
        return self._next_leg >= len(self.schedule)

    # -- disk faults ------------------------------------------------------

    def torn_write_len(self, page_id: int, size: int) -> Optional[int]:
        """Decide whether this page write tears; return the surviving
        byte count (half the image) or None for a clean write.

        The caller persists the truncated image and then raises
        :class:`CrashPointReached` with :data:`TORN_WRITE_CRASH` — a
        torn write only exists because the writer died mid-write, so
        the tear and the crash are one event.
        """
        self._disk_writes_seen += 1
        fire = self._disk_writes_seen == self.torn_write_at
        if not fire and self.torn_write_rate > 0:
            fire = self.rng("disk").random() < self.torn_write_rate
        if not fire:
            return None
        self.torn_writes += 1
        self.faults_injected += 1
        torn = size // 2
        self._instant("torn_write", page_id=page_id,
                      kept_bytes=torn, lost_bytes=size - torn)
        return torn

    def maybe_io_error(self, what: str, key: int) -> None:
        """Raise a :class:`~repro.errors.TransientIOError` when the disk
        namespace draw fires, bounded to ``io_error_burst`` consecutive
        failures per operation so retry loops always converge."""
        if self.io_error_rate <= 0:
            return
        streak = self._io_failures.get(what, 0)
        if streak >= self.io_error_burst:
            self._io_failures[what] = 0
            return
        if self.rng("disk").random() < self.io_error_rate:
            self._io_failures[what] = streak + 1
            self.faults_injected += 1
            self._instant("io_error", what=what, key=key,
                          attempt=streak + 1)
            raise TransientIOError(what, streak + 1)
        self._io_failures[what] = 0

    def note_io_retry(self, what: str) -> None:
        """Account one retry of a transiently failed I/O."""
        self.io_retries += 1
        self._instant("io_retry", what=what)

    # -- log faults -------------------------------------------------------

    def partial_flush_frames(self, unforced_frames: int) -> int:
        """How many of the crash-lost unforced log frames survive anyway.

        Models a device that had flushed part of its queue when power
        failed: recovery then sees *more* stable log than the forced
        boundary promised, which is always safe (analysis/redo are
        driven by what is actually on stable storage) but exercises
        bookkeeping a clean truncation never would.
        """
        if unforced_frames <= 0 or self.partial_flush_rate <= 0:
            return 0
        stream = self.rng("log")
        if stream.random() >= self.partial_flush_rate:
            return 0
        survivors = stream.randint(1, unforced_frames)
        self.faults_injected += 1
        self._instant("partial_flush", survivors=survivors,
                      unforced=unforced_frames)
        return survivors

    # -- transport faults -------------------------------------------------

    def note_transport_fault(self, kind: str) -> None:
        """Account one transport drop/delay drawn from the plan's RNG."""
        self.faults_injected += 1
        self._instant("transport", kind=kind)

    # -- internals --------------------------------------------------------

    def _instant(self, name: str, **args: object) -> None:
        if self.tracer is not None:
            self.tracer.instant("fault", name, "faults", **args)


_T = TypeVar("_T")


def io_retry(plan: Optional[FaultPlan], fn: Callable[[], _T], what: str) -> _T:
    """Run ``fn`` with the deterministic transient-I/O retry policy.

    With no plan attached this is a plain call (faults off = zero
    behavior change).  With a plan, transient failures are retried up
    to :data:`MAX_IO_RETRIES` times; the burst bound in
    :meth:`FaultPlan.maybe_io_error` guarantees convergence, so the
    final re-raise is unreachable in practice but keeps the loop
    honest.
    """
    if plan is None:
        return fn()
    attempt = 0
    while True:
        try:
            return fn()
        except TransientIOError:
            attempt += 1
            if attempt > MAX_IO_RETRIES:
                raise
            plan.note_io_retry(what)
