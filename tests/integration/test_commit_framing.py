"""One message per commit: the commit request's framing, pinned exactly.

The commit request (``force_log_for_commit``, also used by ``prepare``)
carries the client's unshipped log tail and, with lock caching off, the
global locks the commit frees; the server appends the records through
the same intake a log ship runs, forces the log, and only then releases
the locks.  A client checkpoint carries the tail the same way.  These
tests count messages by type around each framing, follow a commit whose
response is lost once, and crash on both sides of the force.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.log_records import EndRecord
from repro.faults import CrashPointReached, FaultPlan
from repro.harness.invariants import assert_invariants
from repro.harness.oracle import CommittedStateOracle, verify_durability
from repro.locking.lock_modes import LockMode
from repro.net.messages import MsgType
from repro.net.rpc import DeliveryOutcome, FaultyTransport
from repro.workloads.generator import seed_table
from tests.conftest import make_system

COMMIT = MsgType.COMMIT_REQUEST
SHIP = MsgType.LOG_SHIP
RELEASE = MsgType.LOCK_RELEASE
CHECKPOINT = MsgType.CHECKPOINT


def build(**overrides):
    system = make_system(**overrides)
    rids = seed_table(system, "C1", "t", 4, 2)
    oracle = CommittedStateOracle()
    for index, rid in enumerate(rids):
        oracle.note_committed_insert(rid, ("init", index))
    return system, rids, oracle


def traffic(system, work) -> Counter:
    """Messages by type that ``work()`` sends."""
    before = Counter(system.network.stats.by_type)
    work()
    after = Counter(system.network.stats.by_type)
    after.subtract(before)
    return +after


def glm_locks(system, client_id):
    """The GLM's logical locks held in ``client_id``'s name."""
    glm = system.server.glm
    return {resource: glm.holders(resource)[client_id]
            for resource in glm.logical.resources_held_by(client_id)}


def rec(rid):
    return ("rec", rid.page_id, rid.slot)


TABLE = ("tab", "t")


class TestCommitFraming:
    def test_default_commit_is_one_commit_request(self):
        system, rids, _ = build()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "a")
        client.update(txn, rids[1], "b")

        sent = traffic(system, lambda: client.commit(txn))

        assert sent == Counter({COMMIT: 1})
        # Everything up to the commit record travelled with it.
        assert [type(r) for r in client.log.unshipped()] == [EndRecord]

    def test_commit_without_lock_caching_sends_no_release(self):
        system, rids, _ = build(llm_cache_locks=False)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "a")
        client.update(txn, rids[1], "b")
        assert glm_locks(system, "C1") == {
            TABLE: LockMode.IX, rec(rids[0]): LockMode.X,
            rec(rids[1]): LockMode.X}

        sent = traffic(system, lambda: client.commit(txn))

        assert sent == Counter({COMMIT: 1})
        assert glm_locks(system, "C1") == {}
        assert client.llm.global_locks_snapshot() == {}

    def test_commit_frees_only_what_no_other_local_txn_holds(self):
        system, rids, _ = build(llm_cache_locks=False)
        client = system.client("C1")
        other = client.begin()
        client.update(other, rids[2], "kept")
        txn = client.begin()
        client.update(txn, rids[0], "a")

        sent = traffic(system, lambda: client.commit(txn))

        assert sent == Counter({COMMIT: 1})
        # The table intent lock is shared with the still-active txn.
        assert glm_locks(system, "C1") == {
            TABLE: LockMode.IX, rec(rids[2]): LockMode.X}
        assert client.llm.global_locks_snapshot() == \
            glm_locks(system, "C1")

    def test_rollback_keeps_its_releases(self):
        system, rids, _ = build(llm_cache_locks=False)
        client = system.client("C1")
        committed = client.begin()
        client.update(committed, rids[0], "a")
        aborted = client.begin()
        client.update(aborted, rids[1], "b")
        client.update(aborted, rids[2], "c")

        def work():
            client.rollback(aborted)
            client.commit(committed)

        sent = traffic(system, work)

        # The rollback ships its CLRs and End record and releases its
        # two record locks one by one (the table lock is shared); the
        # commit request then frees the rest.
        assert sent == Counter({SHIP: 1, RELEASE: 2, COMMIT: 1})
        assert glm_locks(system, "C1") == {}

    def test_client_checkpoint_carries_the_log_tail(self):
        system, rids, _ = build()
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "a")
        client.commit(txn)
        assert client.log.has_unshipped()       # the End record

        sent = traffic(system, client.take_checkpoint)

        assert sent == Counter({CHECKPOINT: 1})
        assert not client.log.has_unshipped()
        assert "C1" in system.server._master["client_ckpts"]

    def test_prepare_is_one_commit_request_and_keeps_its_locks(self):
        system, rids, _ = build(llm_cache_locks=False)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "a")

        sent = traffic(system, lambda: client.prepare(txn))

        assert sent == Counter({COMMIT: 1})
        assert not client.log.has_unshipped()
        # In doubt: every lock stays, at the GLM and in the LLM.
        held = {TABLE: LockMode.IX, rec(rids[0]): LockMode.X}
        assert glm_locks(system, "C1") == held
        assert client.llm.global_locks_snapshot() == held

        sent = traffic(system, lambda: client.commit_prepared(txn))

        assert sent == Counter({COMMIT: 1})
        assert glm_locks(system, "C1") == {}


class LoseFirstCommitReply(FaultyTransport):
    """Loses the response leg of every commit request's first attempt."""

    def plan(self, envelope, attempt):
        if envelope.method == "force_log_for_commit" and attempt == 0:
            self.fault_plan.note_transport_fault("drop-response")
            return DeliveryOutcome.DROP_RESPONSE, 0.0
        return DeliveryOutcome.DELIVER, 0.0


def test_lost_commit_reply_appends_and_releases_once():
    system, rids, oracle = build(llm_cache_locks=False)
    client = system.client("C1")
    server = system.server
    txn = client.begin()
    client.update(txn, rids[0], "a")
    client.update(txn, rids[1], "b")
    batch = len(client.log.unshipped()) + 1     # + the commit record
    plan = FaultPlan(seed=0)
    system.network.transport = LoseFirstCommitReply(fault_plan=plan)
    released = []
    glm_release = server.glm.release
    server.glm.release = lambda client_id, resource: (
        released.append(resource), glm_release(client_id, resource))
    received = server.log.client_records_received
    invoked = server.dispatcher.invocations["force_log_for_commit"]
    suppressed = server.dispatcher.duplicates_suppressed

    sent = traffic(system, lambda: client.commit(txn))

    # Both attempts reached the server (only the reply was lost), so
    # both are charged; the handler ran once and the retry was answered
    # from the reply slot.
    assert sent == Counter({COMMIT: 2})
    assert system.network.stats.drops == 1
    assert server.dispatcher.invocations["force_log_for_commit"] == \
        invoked + 1
    assert server.dispatcher.duplicates_suppressed == suppressed + 1
    assert server.log.client_records_received == received + batch
    assert sorted(released, key=str) == sorted(
        [TABLE, rec(rids[0]), rec(rids[1])], key=str)
    assert glm_locks(system, "C1") == {}
    oracle.note_committed_update(rids[0], "a")
    oracle.note_committed_update(rids[1], "b")
    system.network.transport = FaultyTransport(drop_rate=0.0,
                                               fault_plan=plan)
    system.crash_all()
    system.restart_all()
    verify_durability(oracle, system, "server")


class TestFoldedReleaseCrashes:
    """Crashes on both sides of the force, with lock caching off."""

    def start(self):
        system, rids, oracle = build(llm_cache_locks=False)
        client = system.client("C1")
        done = client.begin()
        client.update(done, rids[0], "done")
        client.commit(done)
        oracle.note_committed_update(rids[0], "done")
        inflight = client.begin()
        client.update(inflight, rids[2], "inflight")
        committing = client.begin()
        client.update(committing, rids[1], "committing")
        return system, rids, oracle, client, inflight, committing

    def test_server_crash_before_the_force(self):
        system, rids, oracle, client, inflight, committing = self.start()
        held = {TABLE: LockMode.IX, rec(rids[1]): LockMode.X,
                rec(rids[2]): LockMode.X}
        system.attach_faults(FaultPlan(
            seed=0, schedule=(("server.commit.before_force", 1),)))
        with pytest.raises(CrashPointReached):
            client.commit(committing)
        # Nothing was released: the crash came before the force.
        assert glm_locks(system, "C1") == held
        assert client.llm.global_locks_snapshot() == held

        system.crash_server()
        system.restart_server()

        # The lock table comes back from the surviving client's LLM:
        # both unfinished transactions' locks, and none of the one
        # that committed before the crash.
        assert glm_locks(system, "C1") == held
        # The commit record never reached the stable log at the
        # server, but the client still buffered it: the restart
        # re-appended it, so the transaction committed.  The in-flight
        # one is still the client's to finish.
        client.rollback(inflight)
        oracle.note_committed_update(rids[1], "committing")
        oracle.note_uncommitted_value(rids[2], "inflight")
        verify_durability(oracle, system, "current")
        system.crash_all()
        system.restart_all()
        verify_durability(oracle, system, "server")
        assert_invariants(system)

    def test_client_crash_after_the_force(self):
        system, rids, oracle, client, inflight, committing = self.start()
        system.attach_faults(FaultPlan(
            seed=0, schedule=(("client.commit.before_end", 1),)))
        with pytest.raises(CrashPointReached):
            client.commit(committing)
        # Forced, then released at the server: only the in-flight
        # transaction's locks are left in C1's name.
        assert glm_locks(system, "C1") == {
            TABLE: LockMode.IX, rec(rids[2]): LockMode.X}

        system.crash_client("C1")
        system.reconnect_client("C1")

        assert glm_locks(system, "C1") == {}
        oracle.note_committed_update(rids[1], "committing")
        oracle.note_uncommitted_value(rids[2], "inflight")
        verify_durability(oracle, system, "server")
        assert_invariants(system)
        # Nothing is stranded: another client takes both records.
        other = system.client("C2")
        txn = other.begin()
        other.update(txn, rids[1], "after")
        other.update(txn, rids[2], "after")
        other.commit(txn)
        assert system.current_value(rids[1]) == "after"
