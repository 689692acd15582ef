"""Exhaustive crash-point exploration over the fault plane.

ARIES/CSA's recovery argument (sections 2.5-2.7) is quantified over
*arbitrary* failure points.  The :class:`CrashScheduleExplorer` makes
that claim testable: it runs one deterministic scripted workload that
reaches every instrumented crashpoint family (commit, rollback, 2PC,
allocation, checkpoints, client crash recovery, backup, media recovery,
whole-complex restart), takes a **census** of crashpoint hits, then
enumerates **crash schedules** — crash at each censused point, plus
nested schedules that crash again *while recovering from the first
crash* (the restart-is-restartable claim) — and replays the workload
under each.  After every scheduled crash the harness performs real
recovery and checks:

* the durability oracle (committed present, uncommitted absent);
* transaction atomicity for the transactions in flight at the crash
  (all of a transaction's writes survive, or none do — with in-doubt
  2PC branches settled by presumed abort first);
* every runtime invariant (``repro.harness.invariants``);
* that the recovered complex still processes a fresh commit.

Determinism contract: a run is fully determined by ``(seed, schedule)``
— the schedule id string encodes both — so any schedule replays
byte-identically (pinned by each result's ``digest``).  The fault plan
is attached only *after* offline bootstrap/seeding: the sweep models
crashes of a formatted, operating complex (bootstrap is the offline
formatting step; its crashpoint is exercised by dedicated tests).

CLI (the CI chaos-smoke job runs ``--quick`` twice: once plain, once
``--engine`` to drive the script's transactions through the
event-driven execution engine instead of the direct client API)::

    python -m repro.harness.chaos --quick
    python -m repro.harness.chaos --quick --engine
    python -m repro.harness.chaos --seed 7 --out chaos-report.json
    python -m repro.harness.chaos --replay "s7:recovery.undo.scan@1+recovery.undo.scan@1"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.coordinator import TwoPhaseCoordinator
from repro.core.system import ClientServerSystem
from repro.engine import Engine
from repro.errors import ReproError
from repro.faults import CRASHPOINTS, CrashPointReached, FaultPlan
from repro.harness.invariants import check_all
from repro.harness.oracle import CommittedStateOracle
from repro.obs.flight import FlightRecorder
from repro.records.heap import RecordId
from repro.sanitizer import SanitizerViolation
from repro.storage.page import PageKind
from repro.workloads.generator import seed_table

Schedule = Tuple[Tuple[str, int], ...]

#: Crashpoints that fire inside a recovery pass; each gets a nested
#: schedule (crash during the recovery from the first crash).  Failover
#: promotion is a recovery pass: a crash mid-promotion is retried and
#: must complete on the retry (the promotion-is-restartable claim).
RECOVERY_POINT_PREFIXES = ("server.restart.", "server.client_recovery.",
                           "recovery.", "replication.promote.")


def is_recovery_point(point: str) -> bool:
    return point.startswith(RECOVERY_POINT_PREFIXES)


def schedule_id(seed: int, schedule: Schedule) -> str:
    """Canonical replayable id: ``s<seed>:<point>@<hit>[+...]``."""
    if not schedule:
        return f"s{seed}:census"
    legs = "+".join(f"{point}@{hit}" for point, hit in schedule)
    return f"s{seed}:{legs}"


def parse_schedule_id(sid: str) -> Tuple[int, Schedule]:
    """Inverse of :func:`schedule_id`; raises ``ValueError`` on junk."""
    head, sep, body = sid.partition(":")
    if not sep or not head.startswith("s"):
        raise ValueError(f"malformed schedule id {sid!r}")
    seed = int(head[1:])
    if body == "census":
        return seed, ()
    legs: List[Tuple[str, int]] = []
    for leg in body.split("+"):
        point, sep, hit = leg.partition("@")
        if not sep or point not in CRASHPOINTS:
            raise ValueError(f"unknown crashpoint in schedule id: {leg!r}")
        legs.append((point, int(hit)))
    return seed, tuple(legs)


# ---------------------------------------------------------------------------
# One scripted run
# ---------------------------------------------------------------------------

@dataclass
class _LiveTxn:
    """A transaction in flight: its write set, for crash classification."""

    label: str
    writes: Dict[RecordId, Any] = field(default_factory=dict)


@dataclass
class ScheduleResult:
    """Outcome of one workload run under one crash schedule."""

    schedule_id: str
    schedule: Schedule
    #: (point, leg) of every scheduled crash that actually fired.
    fired: List[Tuple[str, int]]
    #: Whether the script ran to its end (no scheduled crash mid-script).
    script_completed: bool
    #: Whether every leg of the schedule fired.
    exhausted: bool
    #: Post-crash classification of in-flight transactions.
    outcomes: Dict[str, str]
    #: Oracle + invariant + atomicity + probe violations (empty = pass).
    violations: List[str]
    #: Crashpoint census of this run (distinct points -> hits).
    hit_counts: Dict[str, int]
    #: sha256 over the canonical run outcome; replays must match.
    digest: str
    #: sha256 over only the *user-visible* outcome (outcomes, violations,
    #: final values) — the slice that must be identical across recovery
    #: engines, which legitimately differ in crashpoint hit counts.
    durability_digest: str = ""
    #: Flight-recorder dumps captured during the run (crashpoints,
    #: sanitizer violations, durability violations); empty unless the
    #: explorer armed the recorder.  Not part of the digests above — the
    #: recorder is an observer, never an input.
    flight_dumps: List[Dict[str, Any]] = field(
        default_factory=list, compare=False, repr=False)
    #: sha256 over the canonical JSON of ``flight_dumps``; replays of
    #: the same schedule id must match byte for byte.
    flight_sha: str = ""

    def to_dict(self) -> Dict[str, Any]:
        base = {
            "schedule_id": self.schedule_id,
            "schedule": [list(leg) for leg in self.schedule],
            "fired": [list(leg) for leg in self.fired],
            "script_completed": self.script_completed,
            "exhausted": self.exhausted,
            "outcomes": dict(sorted(self.outcomes.items())),
            "violations": list(self.violations),
            "digest": self.digest,
            "durability_digest": self.durability_digest,
        }
        if self.flight_sha:
            base["flight_sha"] = self.flight_sha
        return base


class _WorkloadRun:
    """One execution of the chaos script under one fault plan."""

    def __init__(self, seed: int, schedule: Schedule,
                 engine: bool = False, sanitizer: bool = False,
                 flight: bool = False,
                 replication: bool = False) -> None:
        self.seed = seed
        self.schedule = schedule
        #: Replication tier: run the same script against a complex with
        #: a warm standby attached, append a primary fail-stop +
        #: failover coda, and record fencing violations.  The script's
        #: transactions and oracle bookkeeping are untouched, so for
        #: schedules both sweeps share the durability digests must be
        #: byte-identical to the single-node sweep — failover is
        #: durably transparent.
        self.replication = replication
        self.replication_violations: List[str] = []
        #: Route the script's plain commit/rollback transactions through
        #: the event-driven engine instead of the direct client API, so
        #: the sweep also certifies the engine's execution path against
        #: every crash schedule.  The specialised steps (2PC, page
        #: allocation, explicit page shipping) stay on the direct API:
        #: the engine's op vocabulary deliberately excludes them.
        self.engine = engine
        self.plan = FaultPlan(seed=seed, schedule=schedule)
        self.oracle = CommittedStateOracle()
        self.live: Dict[str, _LiveTxn] = {}
        self.outcomes: Dict[str, str] = {}
        # Small pools force steals and evictions; manual checkpoints
        # keep the script in charge of every seam it exercises.
        # ``sanitizer`` arms the runtime latch/lock-order sanitizer for
        # the whole run; a violation is a BaseException and fails the
        # schedule loudly rather than becoming a recorded violation.
        config = SystemConfig(
            client_buffer_frames=6,
            server_buffer_frames=6,
            client_checkpoint_interval=0,
            server_checkpoint_interval=0,
            max_lsn_sync_period=4,
            sanitizer=sanitizer,
            replication_enabled=replication,
            # Small apply interval so the standby's apply loop (and its
            # crashpoint) actually runs during the scripted workload.
            standby_apply_interval=4 if replication else 64,
        )
        self.system = ClientServerSystem(config, client_ids=("C1", "C2"))
        self.system.bootstrap(data_pages=6, free_pages=8)
        self.rids = seed_table(self.system, "C1", "t", 6, 3)
        for index, rid in enumerate(self.rids):
            self.oracle.note_committed_insert(rid, ("init", index))
        # Attach AFTER formatting/seeding: the sweep starts from an
        # operating complex (bootstrap is the offline formatting step).
        # The flight recorder brings a tracer with it.
        if flight:
            self.system.attach_flight(FlightRecorder())
        self.system.attach_faults(self.plan)

    # -- script helpers (oracle updated only on acknowledged outcomes) ----

    def _run_program(self, client_id: str, label: str,
                     writes: Dict[RecordId, Any], terminal: str) -> None:
        """Execute one transaction through the event-driven engine.

        The write set is registered in ``self.live`` *before* the run:
        a scheduled crash can fire after any prefix of the updates, and
        atomicity classification only needs the full intended set (all
        present => committed, none => rolled back).  CrashPointReached
        propagates straight out of the engine — it only absorbs lock
        conflicts — so the explorer's crash handling is unchanged.
        """
        live = self.live[label] = _LiveTxn(label)
        live.writes.update(writes)
        program = [("update", rid, value) for rid, value in writes.items()]
        program.append((terminal,))
        Engine(self.system).run([(client_id, program)])

    def _commit(self, client_id: str, label: str,
                writes: Dict[RecordId, Any]) -> None:
        if self.engine:
            self._run_program(client_id, label, writes, "commit")
        else:
            client = self.system.client(client_id)
            txn = client.begin(label)
            live = self.live[label] = _LiveTxn(label)
            for rid, value in writes.items():
                client.update(txn, rid, value)
                live.writes[rid] = value
            client.commit(txn)
        for rid, value in self.live[label].writes.items():
            self.oracle.note_committed_update(rid, value)
        self.outcomes[label] = "committed"
        del self.live[label]

    def _rollback(self, client_id: str, label: str,
                  writes: Dict[RecordId, Any]) -> None:
        if self.engine:
            self._run_program(client_id, label, writes, "abort")
        else:
            client = self.system.client(client_id)
            txn = client.begin(label)
            live = self.live[label] = _LiveTxn(label)
            for rid, value in writes.items():
                client.update(txn, rid, value)
                live.writes[rid] = value
            client.rollback(txn)
        for rid, value in self.live[label].writes.items():
            self.oracle.note_uncommitted_value(rid, value)
        self.outcomes[label] = "rolled-back"
        del self.live[label]

    def _abandon(self, label: str) -> None:
        """A transaction the script deliberately strands in a crash: it
        can never commit on any continuation, so its values are
        forbidden regardless of where a scheduled crash lands."""
        live = self.live.pop(label)
        for rid, value in live.writes.items():
            self.oracle.note_uncommitted_value(rid, value)
        self.outcomes[label] = "rolled-back"

    def _two_phase(self, label: str, tag: Any) -> None:
        system = self.system
        c1, c2 = system.client("C1"), system.client("C2")
        coordinator = TwoPhaseCoordinator(system.server)
        gtxn = coordinator.begin_global(f"G-{label}")
        branch1 = coordinator.enlist(gtxn, c1)
        branch2 = coordinator.enlist(gtxn, c2)
        live = self.live[label] = _LiveTxn(label)
        c1.update(branch1, self.rids[6], tag)
        live.writes[self.rids[6]] = tag
        c2.update(branch2, self.rids[12], tag)
        live.writes[self.rids[12]] = tag
        outcome = coordinator.commit(gtxn)
        note = (self.oracle.note_committed_update if outcome == "committed"
                else self.oracle.note_uncommitted_value)
        for rid, value in live.writes.items():
            note(rid, value)
        self.outcomes[label] = outcome
        del self.live[label]

    # -- the script -------------------------------------------------------

    def run_script(self) -> None:
        """The deterministic chaos workload.

        Every instrumented crashpoint family is reached at least once;
        the census (``plan.hit_counts()``) is the proof.  Values are
        unique per step so post-crash classification is unambiguous.
        """
        system = self.system
        server = system.server
        c1, c2 = system.client("C1"), system.client("C2")
        rids = self.rids

        # 1. Plain committed transaction (commit + log append/force).
        self._commit("C1", "t1", {rids[0]: ("w", 1), rids[1]: ("w", 2)})
        # 2. Explicit rollback (CLR path).
        self._rollback("C2", "t2", {rids[3]: ("w", 3)})
        # 3. Wide transaction across every table page: client steals
        #    mid-transaction (evict/push) with only 6 client frames.
        self._commit("C1", "t3",
                     {rids[i]: ("w", 10 + i) for i in range(0, 18, 3)})
        # 4. Client checkpoint (client + server checkpoint seams).
        c1.take_checkpoint()
        # 5. Page allocation: the SMP-update/format seam of section 2.3.
        txn = c2.begin("t4")
        live = self.live["t4"] = _LiveTxn("t4")
        page = c2.allocate_page(txn, PageKind.DATA)
        rid = c2.insert(txn, page.page_id, ("w", 30))
        live.writes[rid] = ("w", 30)
        c2.commit(txn)
        self.oracle.note_committed_insert(rid, ("w", 30))
        self.outcomes["t4"] = "committed"
        del self.live["t4"]
        # 6. Distributed transaction through presumed-abort 2PC.
        self._two_phase("g1", ("w", 40))
        # 7. Coordinated server checkpoint (flush + master-record seam).
        server.take_checkpoint()
        # 8. Client crash with an in-flight transaction: the server
        #    recovers the client (section 2.6.1), then it reconnects.
        txn = c2.begin("t5")
        live = self.live["t5"] = _LiveTxn("t5")
        c2.update(txn, rids[10], ("w", 50))
        live.writes[rids[10]] = ("w", 50)
        # Push the dirty page and WAL-force it to disk: the in-flight
        # update is now stable, so every later recovery (including
        # recovery-of-recovery schedules) has real undo work.
        c2._ship_page(rids[10].page_id)
        server.flush_all()
        self._abandon("t5")           # stranded: can never commit
        system.crash_client("C2")
        system.reconnect_client("C2")
        # 9. Wide uncommitted transaction: client steals push dirty
        #    pages into the small server pool (dirty server evictions =
        #    WAL-guarded write-backs), flush_all drains the rest, then
        #    the transaction rolls back.
        txn = c2.begin("w1")
        live = self.live["w1"] = _LiveTxn("w1")
        for i in range(1, 18, 3):
            c2.update(txn, rids[i], ("w", 100 + i))
            live.writes[rids[i]] = ("w", 100 + i)
        # Push the freshest dirty page explicitly: its records are
        # appended but unforced, so the flush below must WAL-force.
        c2._ship_page(rids[16].page_id)
        server.flush_all()
        c2.rollback(txn)
        for rid, value in live.writes.items():
            self.oracle.note_uncommitted_value(rid, value)
        self.outcomes["w1"] = "rolled-back"
        del self.live["w1"]
        # 10. Fuzzy backup, then media recovery of a table page.
        server.take_backup()
        server.media_recover_page(rids[0].page_id)
        # 11. Post-media-recovery committed work.
        self._commit("C2", "t6", {rids[4]: ("w", 60)})
        # 12. Whole-complex crash with undo work in flight, then the
        #     scripted restart (analysis/redo/undo + lock rebuild).
        txn = c1.begin("t7")
        live = self.live["t7"] = _LiveTxn("t7")
        c1.update(txn, rids[7], ("w", 70))
        live.writes[rids[7]] = ("w", 70)
        # Stabilize the in-flight update (push + WAL-forced flush), so
        # the restart's undo pass scans and compensates it; a merely
        # appended record would vanish with the crash (section 2.1).
        c1._ship_page(rids[7].page_id)
        server.flush_all()
        self._abandon("t7")           # stranded by the crash below
        system.crash_all()
        system.restart_all()
        # 13. Post-restart committed transaction.
        self._commit("C1", "t8", {rids[2]: ("w", 80)})
        # 14. (replication tier only) Primary fail-stop: the heartbeat
        #     detector notices, fences the old primary, and promotes
        #     the standby.  No new transactions — the promoted complex
        #     must expose exactly the durable state the single-node
        #     sweep ends with, which is what the digest parity check
        #     quantifies.
        if self.replication:
            rep = system.replication
            assert rep is not None
            system.crash_server()
            rep.run_failover()
            if not rep.stale_primary_probe():
                self.replication_violations.append(
                    "failover: stale-primary probe was not rejected by "
                    "the epoch fence")

    # -- post-crash verification ------------------------------------------

    def resolve_indoubt(self) -> None:
        """Settle every in-doubt 2PC branch (presumed abort) so the
        durability check sees decided state only."""
        coordinator = TwoPhaseCoordinator(self.system.server)
        coordinator.recover_decisions()
        for client_id in sorted(self.system.clients):
            client = self.system.clients[client_id]
            if not client.crashed:
                coordinator.resolve_indoubt_at(client)

    def classify_inflight(self) -> List[str]:
        """Classify transactions in flight at the crash from recovered
        state: all writes visible => committed; none => rolled back;
        a mix is an atomicity violation.

        Classification (and the oracle check below) uses the *current*
        vantage: after in-doubt resolution, a presumed-abort rollback
        lives in the resolving client's cache and log first (no-force),
        so the server-visible copy legitimately lags until the next
        checkpoint or privilege transfer.
        """
        violations: List[str] = []
        for label in sorted(self.live):
            live = self.live[label]
            matches = []
            for rid, value in live.writes.items():
                matches.append(self._value(rid) == value)
            if not matches:
                self.outcomes[label] = "no-writes"
                continue
            if all(matches):
                for rid, value in live.writes.items():
                    self.oracle.note_committed_update(rid, value)
                self.outcomes[label] = "committed"
            elif not any(matches):
                for rid, value in live.writes.items():
                    self.oracle.note_uncommitted_value(rid, value)
                self.outcomes[label] = "rolled-back"
            else:
                survived = sum(matches)
                violations.append(
                    f"atomicity: txn {label} survived partially "
                    f"({survived}/{len(matches)} writes present)"
                )
                self.outcomes[label] = "torn"
        self.live.clear()
        return violations

    def verify(self) -> List[str]:
        violations = [str(v)
                      for v in self.oracle.verify(self.system, "current")]
        violations.extend(check_all(self.system))
        violations.extend(self.replication_violations)
        return violations

    def probe(self) -> List[str]:
        """Prove the recovered complex still commits new work."""
        client = self.system.client("C1")
        txn = client.begin("probe")
        rid = self.rids[5]
        client.update(txn, rid, ("probe", 1))
        client.commit(txn)
        if self.system.current_value(rid) != ("probe", 1):
            return ["post-recovery probe commit is not visible"]
        return []

    def _value(self, rid: RecordId) -> Any:
        try:
            return self.system.current_value(rid)
        except ReproError:
            return _GONE

    def final_values(self) -> List[Tuple[str, str]]:
        """Canonical recovered state over every tracked record."""
        return [(str(rid), repr(self._value(rid)))
                for rid in self.oracle.tracked_rids()]


_GONE = "<missing>"


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------

@dataclass
class ExplorerSummary:
    """Aggregate outcome of one sweep."""

    seed: int
    quick: bool
    census: Dict[str, int]
    results: List[ScheduleResult]
    #: Whether the script's transactions ran through the event-driven
    #: engine (``--engine``) instead of the direct client API.
    engine: bool = False
    #: Whether the sweep ran against a complex with a warm standby
    #: attached (plus the fail-stop + failover coda).
    replication: bool = False

    @property
    def schedules_explored(self) -> int:
        return len(self.results)

    @property
    def points_covered(self) -> int:
        return len(self.census)

    @property
    def nested_schedules(self) -> int:
        return sum(1 for r in self.results if len(r.schedule) > 1)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for result in self.results:
            out.extend(f"{result.schedule_id}: {v}"
                       for v in result.violations)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "quick": self.quick,
            "engine": self.engine,
            "replication": self.replication,
            "schedules_explored": self.schedules_explored,
            "points_covered": self.points_covered,
            "nested_schedules": self.nested_schedules,
            "census": dict(sorted(self.census.items())),
            "violations": self.violations,
            "results": [result.to_dict() for result in self.results],
        }

    def render_text(self) -> str:
        fired = sum(1 for r in self.results if r.fired)
        lines = [
            f"chaos sweep: seed={self.seed} "
            f"mode={'quick' if self.quick else 'full'}"
            f"{' executor=engine' if self.engine else ''}"
            f"{' replication=on' if self.replication else ''}",
            f"  crashpoints censused : {self.points_covered}"
            f" (of {len(CRASHPOINTS)} instrumented)",
            f"  schedules explored   : {self.schedules_explored}"
            f" ({self.nested_schedules} nested crash-during-recovery)",
            f"  schedules that fired : {fired}",
            f"  violations           : {len(self.violations)}",
        ]
        for violation in self.violations:
            lines.append(f"    FAIL {violation}")
        if not self.violations:
            lines.append("  all schedules recovered to a consistent, "
                         "operational complex")
        return "\n".join(lines)


class CrashScheduleExplorer:
    """Enumerate, run and replay crash schedules over the chaos script."""

    def __init__(self, seed: int = 0, quick: bool = False,
                 budget: Optional[int] = None,
                 engine: bool = False, sanitizer: bool = False,
                 flight: bool = False,
                 flight_dir: Optional[str] = None,
                 replication: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.budget = budget
        self.engine = engine
        self.sanitizer = sanitizer
        self.replication = replication
        #: Arm the per-node flight recorder for every run; dumps are
        #: captured on crashpoints / sanitizer violations / durability
        #: violations and hashed into ``ScheduleResult.flight_sha``.
        self.flight = flight or flight_dir is not None
        #: When set, persist each crashing schedule's dumps here as
        #: ``<schedule id>.flight.json`` (canonical, byte-stable).
        self.flight_dir = flight_dir
        self._census: Optional[Dict[str, int]] = None
        self._explored = 0

    # -- census -----------------------------------------------------------

    def census(self) -> Dict[str, int]:
        """Run the script with no schedule; map crashpoint -> hits.

        The census is the ground truth for enumeration: a schedule is
        only worth running if its first leg's point is actually reached
        (at the armed hit count) by the unperturbed script.
        """
        if self._census is None:
            run, _result = self._execute(())
            self._census = run.plan.hit_counts()
        return self._census

    # -- enumeration ------------------------------------------------------

    def schedules(self) -> List[Schedule]:
        """Every schedule the sweep will run, in deterministic order.

        Full mode: one single-leg schedule per censused point at hit 1,
        a second at the midpoint hit for points reached repeatedly, and
        one nested two-leg schedule per recovery-pass point (crash again
        during the recovery from the first crash).  Quick mode keeps one
        representative per crashpoint family plus one nested schedule
        per recovery pass — the CI smoke tier.
        """
        counts = self.census()
        points = [p for p in CRASHPOINTS if counts.get(p, 0) > 0]
        schedules: List[Schedule] = []
        if self.quick:
            families = set()
            for point in points:
                family = point.rsplit(".", 1)[0]
                if family in families:
                    continue
                families.add(family)
                schedules.append(((point, 1),))
            nested = [p for p in ("recovery.analysis.scan",
                                  "recovery.redo.scan",
                                  "recovery.undo.scan") if counts.get(p)]
            # Crash-during-promotion, then crash again during the
            # retried promotion: promotion must be restartable.
            nested.extend(p for p in ("replication.promote.before_fence",
                                      "replication.promote.before_checkpoint",
                                      "replication.promote.before_restart")
                          if counts.get(p))
        else:
            for point in points:
                schedules.append(((point, 1),))
                midpoint = (counts[point] + 1) // 2
                if midpoint > 1:
                    schedules.append(((point, midpoint),))
            nested = [p for p in points if is_recovery_point(p)]
        for point in nested:
            schedules.append(((point, 1), (point, 1)))
        if self.budget is not None:
            schedules = schedules[:self.budget]
        return schedules

    # -- execution --------------------------------------------------------

    def run_schedule(self, schedule: Schedule) -> ScheduleResult:
        """Run the script under one schedule and verify recovery."""
        _run, result = self._execute(schedule)
        return result

    def replay(self, sid: str) -> ScheduleResult:
        """Re-run a schedule from its id (seed travels in the id)."""
        seed, schedule = parse_schedule_id(sid)
        replayer = CrashScheduleExplorer(seed=seed, engine=self.engine,
                                         sanitizer=self.sanitizer,
                                         flight=self.flight,
                                         flight_dir=self.flight_dir,
                                         replication=self.replication)
        return replayer.run_schedule(schedule)

    def explore(self) -> ExplorerSummary:
        """The sweep: census, enumerate, run everything, summarize."""
        census = self.census()
        results = [self.run_schedule(schedule)
                   for schedule in self.schedules()]
        return ExplorerSummary(seed=self.seed, quick=self.quick,
                               census=census, results=results,
                               engine=self.engine,
                               replication=self.replication)

    def _execute(self, schedule: Schedule) -> Tuple[_WorkloadRun,
                                                    ScheduleResult]:
        run = _WorkloadRun(self.seed, schedule, engine=self.engine,
                           sanitizer=self.sanitizer,
                           flight=self.flight,
                           replication=self.replication)
        recorder = run.system.probe.flight

        def capture(reason: str) -> None:
            # Freeze the rings at the failure instant, before recovery
            # runs and overwrites them with its own events.
            if recorder is not None:
                recorder.capture(reason)

        self._explored += 1
        run.plan.schedules_explored += 1
        fired: List[Tuple[str, int]] = []
        script_completed = False
        try:
            run.run_script()
            script_completed = True
        except CrashPointReached as crash:
            fired.append((crash.point, crash.leg))
            capture(f"crashpoint:{crash.point}@{crash.leg}")
        except SanitizerViolation:
            capture("sanitizer")
            raise
        # Every run ends in a whole-complex crash + recovery: either the
        # scheduled crash fired mid-script, or the completed script gets
        # one final clean quiesce.  Recovery itself may crash again
        # (nested legs); restart until it completes.  A crash that fired
        # mid-promotion leaves the manager in "candidate": the promotion
        # is retried first (it is the recovery pass in flight — the old
        # primary is fenced or dead, so a plain restart would be wrong).
        while True:
            rep = run.system.replication
            if rep is not None and rep.state == "candidate":
                try:
                    rep.promote()
                    if not rep.stale_primary_probe():
                        run.replication_violations.append(
                            "failover: stale-primary probe was not "
                            "rejected by the epoch fence")
                except CrashPointReached as crash:
                    fired.append((crash.point, crash.leg))
                    capture(f"crashpoint:{crash.point}@{crash.leg}")
                continue
            run.system.crash_all()
            try:
                run.system.restart_all()
                break
            except CrashPointReached as crash:
                fired.append((crash.point, crash.leg))
                capture(f"crashpoint:{crash.point}@{crash.leg}")
            except SanitizerViolation:
                capture("sanitizer")
                raise
        run.resolve_indoubt()
        violations = run.classify_inflight()
        violations.extend(run.verify())
        final_values = run.final_values()
        violations.extend(run.probe())
        if violations:
            capture("durability-violation")
        sid = schedule_id(self.seed, schedule)
        digest = _digest(sid, fired, script_completed, run.outcomes,
                         violations, final_values, run.plan)
        durability = _durability_digest(sid, run.outcomes, violations,
                                        final_values)
        result = ScheduleResult(
            schedule_id=sid,
            schedule=schedule,
            fired=fired,
            script_completed=script_completed,
            exhausted=run.plan.schedule_exhausted,
            outcomes=dict(run.outcomes),
            violations=violations,
            hit_counts=run.plan.hit_counts(),
            digest=digest,
            durability_digest=durability,
        )
        if recorder is not None:
            result.flight_dumps = list(recorder.dumps)
            dumps_json = recorder.dumps_json()
            result.flight_sha = hashlib.sha256(
                dumps_json.encode()).hexdigest()
            if self.flight_dir is not None and fired:
                self._persist_flight(sid, dumps_json)
        return run, result

    def _persist_flight(self, sid: str, dumps_json: str) -> None:
        assert self.flight_dir is not None
        os.makedirs(self.flight_dir, exist_ok=True)
        name = re.sub(r"[^A-Za-z0-9._-]", "_", sid) + ".flight.json"
        with open(os.path.join(self.flight_dir, name), "w",
                  encoding="utf-8") as handle:
            handle.write(dumps_json)


def _digest(sid: str, fired: List[Tuple[str, int]], script_completed: bool,
            outcomes: Dict[str, str], violations: List[str],
            final_values: List[Tuple[str, str]], plan: FaultPlan) -> str:
    """Canonical sha256 of everything a run decided; replays must match."""
    payload = {
        "schedule_id": sid,
        "fired": [list(leg) for leg in fired],
        "script_completed": script_completed,
        "outcomes": dict(sorted(outcomes.items())),
        "violations": list(violations),
        "final_values": [list(pair) for pair in final_values],
        "counters": {
            "faults_injected": plan.faults_injected,
            "torn_writes": plan.torn_writes,
            "io_retries": plan.io_retries,
            "crashpoints_hit": plan.crashpoints_hit,
        },
        "hits": dict(sorted(plan.hit_counts().items())),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _durability_digest(sid: str, outcomes: Dict[str, str],
                       violations: List[str],
                       final_values: List[Tuple[str, str]]) -> str:
    """sha256 over the slice of a run's outcome every sweep must share.

    The full ``_digest`` pins fault-plan counters and crashpoint hit
    counts, which legitimately differ between sweeps (a replicated
    complex fires ship/apply crashpoints; a change to recovery's scan
    shape moves its per-record crashpoints).  What must NOT differ is
    what the complex *decided*: transaction outcomes, violations, and
    the recovered values.  Replication parity compares exactly this
    slice, schedule id by schedule id.
    """
    payload = {
        "schedule_id": sid,
        "outcomes": dict(sorted(outcomes.items())),
        "violations": list(violations),
        "final_values": [list(pair) for pair in final_values],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Replication parity
# ---------------------------------------------------------------------------

def run_replication_parity(seed: int = 0, quick: bool = False,
                           budget: Optional[int] = None,
                           engine: bool = False) -> Dict[str, Any]:
    """The same sweep single-node and replicated; durability must agree.

    The replicated sweep runs the identical script against a complex
    with a warm standby attached (every commit synchronously shipped)
    plus a fail-stop + failover coda, and additionally explores the
    replication crashpoints.  For every schedule id the two sweeps have
    in common — i.e. every non-replication crashpoint — the durability
    digests must be byte-identical: attaching a standby, shipping every
    log record, and failing over must not change a single transaction
    outcome or recovered value.
    """
    single = CrashScheduleExplorer(seed=seed, quick=quick, budget=budget,
                                   engine=engine).explore()
    replicated = CrashScheduleExplorer(seed=seed, quick=quick,
                                       budget=budget, engine=engine,
                                       replication=True).explore()
    base = {r.schedule_id: r.durability_digest for r in single.results}
    mismatches: List[str] = []
    compared = 0
    replication_only = 0
    for result in replicated.results:
        expected = base.get(result.schedule_id)
        if expected is None:
            replication_only += 1
            continue
        compared += 1
        if result.durability_digest != expected:
            mismatches.append(
                f"{result.schedule_id}: durability diverges between "
                f"single-node and replicated sweeps")
    violations = list(single.violations) + list(replicated.violations)
    return {
        "seed": seed,
        "quick": quick,
        "schedules_compared": compared,
        "replication_only_schedules": replication_only,
        "mismatches": mismatches,
        "violations": violations,
        "single": single.to_dict(),
        "replicated": replicated.to_dict(),
    }


def render_parity_text(report: Dict[str, Any]) -> str:
    lines = [
        f"replication parity: seed={report['seed']} "
        f"mode={'quick' if report['quick'] else 'full'}",
        f"  shared schedules compared : {report['schedules_compared']}",
        f"  replication-only schedules: "
        f"{report['replication_only_schedules']}",
    ]
    for mismatch in report["mismatches"]:
        lines.append(f"    FAIL {mismatch}")
    for violation in report["violations"]:
        lines.append(f"    FAIL {violation}")
    if not report["mismatches"] and not report["violations"]:
        lines.append("  replicated complex recovered every shared "
                     "schedule to the identical durable state")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.chaos",
        description="Exhaustive crash-schedule sweep over the fault plane.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for the fault plan (default 0)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke tier: one schedule per crashpoint "
                             "family (the CI chaos job)")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap the number of schedules run")
    parser.add_argument("--engine", action="store_true",
                        help="drive the script's transactions through "
                             "the event-driven execution engine")
    parser.add_argument("--sanitizer", action="store_true",
                        help="arm the runtime latch/lock-order sanitizer "
                             "for every schedule (a violation aborts the "
                             "sweep with a traceback)")
    parser.add_argument("--replication", action="store_true",
                        help="attach a warm standby to every run, add a "
                             "fail-stop + failover coda, and explore the "
                             "replication crashpoints")
    parser.add_argument("--replication-parity", action="store_true",
                        help="run the sweep single-node AND replicated; "
                             "shared schedule ids must carry identical "
                             "durability digests")
    parser.add_argument("--flight-dir", metavar="DIR",
                        help="arm the per-node flight recorder and persist "
                             "each crashing schedule's dumps here as "
                             "canonical JSON (byte-identical per replay)")
    parser.add_argument("--replay", metavar="SCHEDULE_ID",
                        help="re-run one schedule by id (twice, checking "
                             "the digests match) instead of sweeping")
    parser.add_argument("--list", action="store_true",
                        help="print the schedule ids without running them")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.replication_parity and not args.replay and not args.list:
        report = run_replication_parity(seed=args.seed, quick=args.quick,
                                        budget=args.budget,
                                        engine=args.engine)
        print(render_parity_text(report))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            print(f"report written to {args.out}")
        return 0 if not report["mismatches"] and not report["violations"] \
            else 1

    explorer = CrashScheduleExplorer(seed=args.seed, quick=args.quick,
                                     budget=args.budget,
                                     engine=args.engine,
                                     sanitizer=args.sanitizer,
                                                              flight_dir=args.flight_dir,
                                     replication=args.replication)
    if args.replay:
        first = explorer.replay(args.replay)
        second = explorer.replay(args.replay)
        stable = first.digest == second.digest
        if explorer.flight:
            stable = stable and first.flight_sha == second.flight_sha
        print(f"replay {first.schedule_id}: fired={first.fired} "
              f"outcomes={dict(sorted(first.outcomes.items()))}")
        print(f"digest {first.digest} "
              f"({'stable across replays' if stable else 'UNSTABLE'})")
        if first.flight_sha:
            print(f"flight sha {first.flight_sha} "
                  f"({len(first.flight_dumps)} dump(s))")
        for violation in first.violations:
            print(f"  FAIL {violation}")
        return 0 if stable and not first.violations else 1

    if args.list:
        for schedule in explorer.schedules():
            print(schedule_id(args.seed, schedule))
        return 0

    summary = explorer.explore()
    print(summary.render_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0 if not summary.violations else 1


if __name__ == "__main__":
    sys.exit(main())
