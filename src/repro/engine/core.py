"""Event-driven transaction execution engine.

The original harness scheduler (``repro.harness.scheduler``) round-robins
one operation per transaction per round and *rescans every transaction
every round* — a parked waiter retries its conflicting operation each
round until the holder commits.  That is faithful to the paper's
interleaving model but quadratic under contention: with ``k``
transactions queued on one hot record, the polling executor performs
``O(k^2)`` full lock-acquisition retries (each a GLM round trip) before
the queue drains.

This engine keeps the exact same transaction semantics — the same
program format, the same lock conflict handling, the same waits-for
deadlock policy — but replaces polling with events:

* a **ready queue** (FIFO deque) holds transactions that can run now;
  popping, stepping, and re-appending a transaction is O(1) and visits
  no other transaction;
* a **wait set** parks a transaction the moment one of its operations
  raises :class:`~repro.errors.LockConflictError`; the conflict's
  holders are translated to waits-for edges exactly like the polling
  scheduler does, and the waiter is indexed under each blocking node;
* **termination events** (commit, abort, deadlock-victim rollback) wake
  exactly the waiters indexed under the finished transaction's id and
  its client's id — nobody else is touched, and no retry happens until
  a wake makes success plausible.

When the ready queue drains with transactions still parked, the engine
consults the waits-for graph: a cycle picks a victim through the shared
:func:`choose_deadlock_victim` policy (fewest logged updates, ties
broken by transaction id — identical to the legacy scheduler); no cycle
triggers one *pulse* that retries each *stranded* waiter once — a
parked transaction none of whose waits-for targets is parked, whose
blockers are finished transactions, cached-but-idle client locks or
nodes outside the schedule.  A waiter behind a parked blocker is left
alone: under strict 2PL the blocker keeps its locks until it
terminates, so the retry could only park again.  A pulse that executes
nothing proves the blocking lock is held outside the schedule, which is
a configuration error, exactly as the polling scheduler reports it.

``rounds`` in the returned :class:`ScheduleResult` is the maximum
number of step *attempts* any single transaction made.  For uncontended
schedules this equals the polling scheduler's round count bit-for-bit
(each round stepped each live transaction once); under contention it is
smaller, because parked transactions no longer burn a retry per round.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.system import ClientServerSystem
from repro.core.transaction import Transaction
from repro.errors import LockConflictError
from repro.locking.deadlock import WaitsForGraph

if TYPE_CHECKING:
    # Type-only: importing repro.workloads at runtime would be circular
    # (its driver module executes schedules through this engine).
    from repro.core.client import Client
    from repro.workloads.generator import Op, Program


class TxnOutcomeKind(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"
    DEADLOCK_VICTIM = "deadlock-victim"


@dataclass
class ScheduledTxn:
    """One program bound to one client, plus executor bookkeeping.

    ``steps`` counts step attempts (successful or parked); ``begin_tick``
    and ``end_tick`` bracket the transaction's lifetime on the engine's
    global executed-operation clock, so latency in *ticks* is
    ``end_tick - begin_tick`` — a deterministic, wall-clock-free measure
    of how long a transaction sat in the system.
    """

    name: str
    client_id: str
    program: Program
    txn: Optional[Transaction] = None
    next_op: int = 0
    waiting: bool = False
    outcome: Optional[TxnOutcomeKind] = None
    steps: int = 0
    begin_tick: int = -1
    end_tick: int = -1
    #: Tick at which the transaction first parked for its *current*
    #: operation (-1 when not waiting); feeds the lock-wait histogram.
    park_tick: int = -1


@dataclass
class ScheduleResult:
    committed: int = 0
    aborted: int = 0
    deadlock_victims: int = 0
    rounds: int = 0
    outcomes: Dict[str, TxnOutcomeKind] = field(default_factory=dict)
    #: Per-transaction latency in executed-operation ticks, in schedule
    #: order.  The polling scheduler does not track ticks and leaves
    #: this empty, so it is excluded from equality comparisons.
    latency_ticks: List[int] = field(
        default_factory=list, compare=False, repr=False)


def execute_op(client: "Client", scheduled: ScheduledTxn, op: Op) -> None:
    """Run one program operation; sets ``outcome`` on commit/abort.

    Shared verbatim by the engine and the legacy polling scheduler so
    both executors interpret programs identically.
    """
    txn = scheduled.txn
    kind = op[0]
    if kind == "read":
        client.read(txn, op[1])
    elif kind == "update":
        client.update(txn, op[1], op[2])
    elif kind == "insert":
        client.insert(txn, op[1], op[2])
    elif kind == "delete":
        client.delete(txn, op[1])
    elif kind == "savepoint":
        client.savepoint(txn, op[1])
    elif kind == "rollback_to":
        client.rollback(txn, savepoint=op[1])
    elif kind == "commit":
        client.commit(txn)
        scheduled.outcome = TxnOutcomeKind.COMMITTED
    elif kind == "abort":
        client.rollback(txn)
        scheduled.outcome = TxnOutcomeKind.ABORTED
    else:
        raise ValueError(f"unknown op {op!r}")


def choose_deadlock_victim(graph: WaitsForGraph, cycle: List[str],
                           cost: Callable[[str], int]) -> str:
    """The deterministic victim policy shared by both executors.

    The victim is the cycle node with the **fewest logged updates**
    (cheapest rollback, the paper's usual heuristic); ties break on the
    **lexically smallest transaction id**, so for any given cycle the
    choice is a pure function of (cost, name) and the engine and the
    legacy polling scheduler pick the *same* victim.  The assertion
    pins that contract against future edits to
    :meth:`WaitsForGraph.choose_victim`.
    """
    victim = graph.choose_victim(cycle, cost)
    assert victim == min(cycle, key=lambda node: (cost(node), node)), (
        "victim policy must be min by (logged updates, txn id)")
    return victim


def victim_cost(by_txn_id: Dict[str, ScheduledTxn]) -> Callable[[str], int]:
    """Cost function for :func:`choose_deadlock_victim`: logged updates,
    with nodes we cannot abort (not in the schedule) priced unpickable."""
    def cost(name: str) -> int:
        scheduled = by_txn_id.get(name)
        if scheduled is None or scheduled.txn is None:
            return 1 << 30  # never pick nodes we cannot abort
        return scheduled.txn.updates_logged
    return cost


class Engine:
    """Ready-queue/wait-set executor.  One instance runs one schedule."""

    def __init__(self, system: ClientServerSystem) -> None:
        self.system = system
        #: The complex's planes (sanitizer spans, wait/latency metrics).
        self.probe = system.probe
        self.graph = WaitsForGraph()
        self._ready: Deque[ScheduledTxn] = deque()
        #: Parked waiters by transaction id (insertion = park order).
        self._parked: Dict[str, ScheduledTxn] = {}
        #: Blocking node (txn id or client id) -> waiter txn ids, in
        #: park order.  Entries may be stale after a wake or a pulse;
        #: :meth:`_wake` skips ids no longer parked, and one that has
        #: parked again since is merely woken early.
        self._wake_index: Dict[str, List[str]] = {}
        #: Global executed-operation clock (successful ops only).
        self._tick = 0
        self._finished = 0
        #: Event count (ops + terminations) at the last pulse.  A
        #: no-cycle stall with no event since the last pulse means the
        #: pulse re-parked every stranded waiter against blockers
        #: outside the schedule — the genuine configuration error, as
        #: everyone else waits behind them.  Any intervening
        #: event (including a victim kill, which executes no op)
        #: invalidates the mark, because handoff chains may still be
        #: draining.
        self._pulse_events = -1

    # -- main loop ---------------------------------------------------------

    def run(self, assignments: Sequence[Tuple[str, Program]],
            max_rounds: int = 100_000) -> ScheduleResult:
        """Execute all programs; returns aggregate outcomes.

        Same contract as the classic ``Scheduler.run``: ``assignments``
        pairs a client id with each program; programs at the same
        client interleave with each other and with other clients'
        programs.  ``max_rounds`` bounds the step attempts of any
        single transaction.
        """
        txns = [
            ScheduledTxn(name=f"S{i}", client_id=client_id, program=program)
            for i, (client_id, program) in enumerate(assignments)
        ]
        self._ready.extend(txns)
        total = len(txns)
        while self._finished < total:
            if not self._ready:
                self._resolve_stall()
                continue
            scheduled = self._ready.popleft()
            if scheduled.outcome is not None:
                continue  # stale queue entry
            self._step(scheduled, max_rounds)
            if scheduled.outcome is not None:
                self._finished += 1
                self._on_terminated(scheduled)
            elif not scheduled.waiting:
                self._ready.append(scheduled)
        result = ScheduleResult()
        result.rounds = max((t.steps for t in txns), default=0)
        for scheduled in txns:
            assert scheduled.outcome is not None
            result.outcomes[scheduled.name] = scheduled.outcome
            if scheduled.outcome is TxnOutcomeKind.COMMITTED:
                result.committed += 1
            elif scheduled.outcome is TxnOutcomeKind.ABORTED:
                result.aborted += 1
            else:
                result.deadlock_victims += 1
            if scheduled.begin_tick >= 0:
                result.latency_ticks.append(
                    scheduled.end_tick - scheduled.begin_tick)
        return result

    # -- stepping ----------------------------------------------------------

    def _step(self, scheduled: ScheduledTxn, max_rounds: int) -> None:
        """Attempt one operation; parks the transaction on conflict."""
        client = self.system.client(scheduled.client_id)
        if scheduled.txn is None:
            scheduled.txn = client.begin()
        scheduled.steps += 1
        if scheduled.steps > max_rounds:
            raise RuntimeError("scheduler exceeded max rounds")
        if scheduled.begin_tick < 0:
            scheduled.begin_tick = self._tick
        op = scheduled.program[scheduled.next_op]
        try:
            execute_op(client, scheduled, op)
        except LockConflictError as conflict:
            self._park(scheduled, conflict)
            return
        sanitizer = self.probe.sanitizer
        if sanitizer is not None:
            # Each completed operation ends the client's acquisition
            # span: a pin surviving it would span arbitrary other work.
            sanitizer.on_span_exit(scheduled.client_id)
        if scheduled.park_tick >= 0:
            metrics = self.probe.metrics
            if metrics is not None:
                metrics.lock_wait_ticks.observe(
                    self._tick - scheduled.park_tick)
            scheduled.park_tick = -1
        self._tick += 1
        self.graph.clear_waiter(scheduled.txn.txn_id)
        scheduled.waiting = False
        scheduled.next_op += 1

    # -- wait-set bookkeeping ----------------------------------------------

    def _translate_holders(self, conflict: LockConflictError) -> List[str]:
        """Conflict holders -> waits-for edge targets.

        Identical to the polling scheduler's translation: local
        conflicts name transaction ids directly; global conflicts name
        client LLMs, resolved to the transactions currently holding the
        resource locally at that client — or to the client id itself
        when the lock is cached but idle (so detection still
        terminates).
        """
        targets: List[str] = []
        clients = self.system.clients
        for holder in conflict.holders:
            peer = clients.get(holder)
            if peer is not None:
                # entry() avoids the defensive dict copy of holders();
                # this runs once per conflicting holder on every park.
                local_entry = peer.llm.local.entry(conflict.resource)
                if local_entry is not None and local_entry.holders:
                    targets.extend(local_entry.holders)
                else:
                    targets.append(holder)
            else:
                targets.append(holder)
        return targets

    def _park(self, scheduled: ScheduledTxn,
              conflict: LockConflictError) -> None:
        sanitizer = self.probe.sanitizer
        if sanitizer is not None:
            # The conflict unwind released every pin; a latch still held
            # here would sit across the whole wait.
            sanitizer.on_park(scheduled.client_id)
        if scheduled.park_tick < 0:
            # First park for this operation; re-parks extend the same
            # wait, so the histogram sees total ticks blocked per op.
            scheduled.park_tick = self._tick
        scheduled.waiting = True
        assert scheduled.txn is not None
        waiter = scheduled.txn.txn_id
        targets = self._translate_holders(conflict)
        self.graph.add_wait(waiter, targets)
        self._parked[waiter] = scheduled
        # Edges are built *here*, per park, not deferred to the stall:
        # crowds are smallest at park time (holders accumulate as a wave
        # progresses), and a stall — where every live transaction is
        # parked at once — is exactly when re-translating each waiter's
        # crowd would be at its most expensive.  Measured at 3k clients,
        # a stall-time rebuild more than doubled total run time.  The
        # waits-for graph gets every edge (cycle detection needs them)
        # but the wake index gets only the *youngest* blocker: behind a
        # crowd of k shared holders, parking under all k means k
        # wake-retry-repark rounds (each one an O(k) conflict), an
        # O(k^2) drain.  Holders complete roughly in acquisition order,
        # so the youngest is the best single predictor of "the crowd is
        # gone"; a waiter woken early re-parks with fresh edges, and
        # one whose blockers all finish without waking it is stranded
        # and retried by the next stall pulse.
        target = targets[-1]
        waiters = self._wake_index.get(target)
        if waiters is None:
            waiters = self._wake_index[target] = []
        waiters.append(waiter)

    def _wake(self, node: str) -> None:
        """Hand the freed capacity to waiters parked under ``node``.

        Waking *everyone* queued behind a hot lock makes each release a
        thundering herd: k waiters retry, one wins, k-1 re-park — an
        O(k^2) storm of lock round trips that is exactly the polling
        behavior this engine exists to remove.  Instead the wake is a
        **handoff**: the first live waiter is woken — and, when it is a
        reader, the following run of consecutive readers too, since
        shared locks admit them together — while the rest are re-homed
        under the woken transaction's id, so its termination continues
        the chain.  A re-homed waiter whose true blockers all finish
        is left with no waits-for edge, so the next stall finds it
        stranded and retries it (:meth:`_resolve_stall`); the handoff
        is a scheduling heuristic, never a correctness assumption.
        """
        waiters = self._wake_index.pop(node, None)
        if not waiters:
            return
        woken_last: Optional[str] = None
        reading = False
        idx = 0
        total = len(waiters)
        while idx < total:
            waiter_id = waiters[idx]
            scheduled = self._parked.get(waiter_id)
            if scheduled is None or scheduled.outcome is not None:
                idx += 1
                continue  # stale entry
            is_read = scheduled.program[scheduled.next_op][0] == "read"
            if woken_last is not None and not (reading and is_read):
                break
            del self._parked[waiter_id]
            self._ready.append(scheduled)
            woken_last = waiter_id
            reading = is_read
            idx += 1
        if woken_last is None:
            return
        leftovers = [w for w in waiters[idx:] if w in self._parked]
        if leftovers:
            existing = self._wake_index.get(woken_last)
            if existing is None:
                self._wake_index[woken_last] = leftovers
            else:
                existing.extend(leftovers)

    def _on_terminated(self, scheduled: ScheduledTxn) -> None:
        """A transaction finished: its locks are released, so wake the
        waiters parked under its id and under its client's id (cached
        global locks become relinquishable once the client is idle)."""
        scheduled.end_tick = self._tick
        sanitizer = self.probe.sanitizer
        if sanitizer is not None:
            sanitizer.on_span_exit(scheduled.client_id)
        metrics = self.probe.metrics
        if metrics is not None:
            if scheduled.begin_tick >= 0:
                metrics.txn_latency_ticks.observe(
                    scheduled.end_tick - scheduled.begin_tick)
            metrics.engine_progress.sample(self._tick, self._finished)
        if scheduled.txn is not None:
            self.graph.remove_node(scheduled.txn.txn_id)
            self._wake(scheduled.txn.txn_id)
        self._wake(scheduled.client_id)

    # -- stall resolution --------------------------------------------------

    def _resolve_stall(self) -> None:
        """Ready queue empty, parked transactions remain: break a
        deadlock, or pulse-retry the *stranded* waiters.

        A stranded waiter is one none of whose waits-for targets is
        parked, so only a retry can tell whether it runs now.  Everyone
        else waits behind a parked transaction, which under strict 2PL
        gives up no lock before it terminates: a retry could only park
        again, and the blocker's termination wakes it (or strands it
        for the next stall) anyway.
        """
        graph = self.graph
        cycle = graph.find_cycle()
        if cycle is not None:
            self._kill_victim(cycle)
            return
        events = self._tick + self._finished
        if events == self._pulse_events:
            raise RuntimeError(
                "no transaction can progress but no cycle found — "
                "a lock is held by a node outside the schedule"
            )
        self._pulse_events = events
        parked = self._parked
        stranded = [
            waiter for waiter in parked
            if parked.keys().isdisjoint(graph.targets(waiter))
        ]
        # If every parked node had a parked target, following those
        # edges would close a cycle among them, and find_cycle found none.
        assert stranded, "a stall without a cycle has a stranded waiter"
        # Requeue them in park order; each retry either succeeds (a
        # cached-idle peer lock was relinquishable after all) or
        # re-parks with fresh edges.  Their old wake-index entries stay:
        # :meth:`_wake` skips whoever is no longer parked.
        for waiter in stranded:
            self._ready.append(parked.pop(waiter))

    def _kill_victim(self, cycle: List[str]) -> None:
        # At a stall every unfinished transaction is parked, so the
        # schedulable set is exactly the wait set.
        by_txn_id = {
            s.txn.txn_id: s for s in self._parked.values()
            if s.txn is not None
        }
        victim_name = choose_deadlock_victim(
            self.graph, cycle, victim_cost(by_txn_id))
        victim = by_txn_id.get(victim_name)
        if victim is None:
            raise RuntimeError(
                f"deadlock victim {victim_name} is not schedulable")
        client = self.system.client(victim.client_id)
        assert victim.txn is not None
        client.rollback(victim.txn)
        victim.outcome = TxnOutcomeKind.DEADLOCK_VICTIM
        self._finished += 1
        del self._parked[victim_name]
        self._on_terminated(victim)
