"""Unit tests for log-shipped replication and fenced failover.

Covers the ship stream's byte-exact address parity, re-ship
idempotency, the standby apply loop, the seeded heartbeat failure
detector, promotion (including crash-retry), epoch fencing of the old
primary, replica coherence (log bytes, held page images, a failed apply
round), and the regression for request dedup across the failover
boundary (a retried envelope answered from the shipped cache instead of
double-executing on the promoted standby).
"""

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.core.transaction import TxnState
from repro.errors import (
    NodeUnavailableError,
    ReplicationError,
    TransientIOError,
)
from repro.faults import FaultPlan
from repro.harness.metrics import snapshot
from repro.harness.oracle import CommittedStateOracle, verify_durability
from repro.net.messages import MsgType
from repro.net.rpc import Envelope, StaleEpochError
from repro.records.heap import decode_value
from repro.replication import STANDBY_ID, ShipBatch
from repro.replication.manager import ReplicationManager


def replicated_system(seed=11, apply_interval=64, **overrides):
    config = SystemConfig(replication_enabled=True, seed=seed,
                          standby_apply_interval=apply_interval,
                          **overrides)
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=6)
    system.create_table("t", 6)
    return system


def committed_update(system, value, client_id="C1", rid=None):
    client = system.client(client_id)
    txn = client.begin()
    if rid is None:
        rid = client.insert(txn, system.table_pages("t")[0], value)
    else:
        client.update(txn, rid, value)
    client.commit(txn)
    return rid


# -- the ship stream ----------------------------------------------------------

class TestShipStream:
    def test_addresses_replicate_byte_for_byte(self):
        system = replicated_system()
        rep = system.replication
        rid = committed_update(system, "a")
        committed_update(system, "b", rid=rid)
        primary, standby = system.server, rep.standby
        assert rep.ship_hw == primary.log.flushed_addr
        assert standby.log.flushed_addr == primary.log.flushed_addr
        primary_frames = list(primary.log.scan(0, primary.log.flushed_addr))
        standby_frames = list(standby.log.scan(0, standby.log.flushed_addr))
        assert [(addr, record.lsn, type(record).__name__)
                for addr, record in primary_frames] == \
            [(addr, record.lsn, type(record).__name__)
             for addr, record in standby_frames]

    def test_reship_of_acked_prefix_is_skipped(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "a")
        standby = rep.standby
        end_before = standby.log.end_of_log_addr
        applied = standby.invocations_before = None  # readability only
        # Re-deliver the full history as one overlapping batch: every
        # frame is below the standby's end of log and must be skipped.
        frames = tuple(system.server.log.scan(0, rep.ship_hw))
        batch = ShipBatch(start_addr=0, end_addr=rep.ship_hw,
                          frames=frames,
                          master=system.server.master_snapshot(), dedup={})
        ack = standby.receive_batch(system.server.node_id, batch)
        assert ack == end_before
        assert standby.log.end_of_log_addr == end_before

    def test_gap_in_ship_stream_is_rejected(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "a")
        standby = rep.standby
        end = standby.log.end_of_log_addr
        frames = ((end + 64, next(iter(
            dict(system.server.log.scan(0, rep.ship_hw)).values()))),)
        batch = ShipBatch(start_addr=end + 64, end_addr=end + 128,
                          frames=frames,
                          master=system.server.master_snapshot(), dedup={})
        with pytest.raises(ReplicationError):
            standby.receive_batch(system.server.node_id, batch)

    def test_commit_is_refused_while_the_standby_is_down(self):
        """The commit-path ship is synchronous: a commit the standby
        cannot hold is not acknowledged."""
        system = replicated_system()
        rid = committed_update(system, "v1")
        client = system.client("C1")
        commits = client.commits
        system.replication.standby.crash()
        txn = client.begin()
        client.update(txn, rid, "v2")
        with pytest.raises(NodeUnavailableError):
            client.commit(txn)
        assert txn.state is TxnState.ACTIVE
        assert client.commits == commits

    def test_replication_off_leaves_no_hooks(self):
        system = ClientServerSystem(SystemConfig(), client_ids=("C1",))
        assert system.replication is None
        assert system.server.replication is None
        assert system.server.dispatcher.changed is None
        assert not SystemConfig().replication_enabled


# -- the apply loop -----------------------------------------------------------

class TestApply:
    def test_apply_materializes_committed_values(self):
        system = replicated_system(apply_interval=2)
        rep = system.replication
        rid = committed_update(system, "hello")
        committed_update(system, "world", rid=rid)
        standby = rep.standby
        standby.apply_tail()
        assert standby.applied_addr == standby.log.flushed_addr
        page = standby.disk.read_page(rid.page_id)
        assert decode_value(page.read_record(rid.slot)) == "world"
        assert rep.records_applied > 0

    def test_apply_is_incremental_and_idempotent(self):
        system = replicated_system()
        rep = system.replication
        rid = committed_update(system, "v1")
        standby = rep.standby
        first = standby.apply_tail()
        again = standby.apply_tail()
        assert again == 0
        committed_update(system, "v2", rid=rid)
        assert standby.apply_tail() > 0
        page = standby.disk.read_page(rid.page_id)
        assert decode_value(page.read_record(rid.slot)) == "v2"
        assert first >= 0

    def test_standby_crash_and_recover_rebuilds_bookkeeping(self):
        system = replicated_system()
        rep = system.replication
        rid = committed_update(system, "v1")
        standby = rep.standby
        unapplied_before = dict(standby._unapplied)
        standby.crash()
        with pytest.raises(NodeUnavailableError):
            standby.receive_batch(system.server.node_id, ShipBatch(
                start_addr=0, end_addr=0, frames=(),
                master=system.server.master_snapshot(), dedup={}))
        standby.recover()
        assert dict(standby._unapplied) == unapplied_before
        committed_update(system, "v2", rid=rid)
        assert standby.log.flushed_addr == system.server.log.flushed_addr
        standby.apply_tail()
        page = standby.disk.read_page(rid.page_id)
        assert decode_value(page.read_record(rid.slot)) == "v2"


# -- replica coherence --------------------------------------------------------

def log_bytes(stable, lo, hi):
    """The stored frames of ``stable`` over addresses ``[lo, hi)``."""
    return bytes(stable._buf[lo - stable._base:hi - stable._base])


def assert_held_pages_on_disk(standby):
    """Every image the apply loop holds is the replica disk's image."""
    for page_id, page in standby._pages.items():
        assert page.to_bytes() == standby.disk._images[page_id], page_id


def check_after_each_round(standby):
    """Shadow ``apply_tail`` so every round ends in the held-page check."""
    apply_tail = standby.apply_tail
    rounds = []

    def checked():
        applied = apply_tail()
        assert_held_pages_on_disk(standby)
        rounds.append(applied)
        return applied

    standby.apply_tail = checked
    return rounds


class FailOneWrite(FaultPlan):
    """A transient ``disk.write`` error on the ``nth`` write only."""

    def __init__(self, nth):
        super().__init__()
        self.nth = nth

    def maybe_io_error(self, what, key):
        self.nth -= 1
        if self.nth == 0:
            self.faults_injected += 1
            raise TransientIOError(what, 1)


def seeded_rows(system, oracle):
    """One committed row per table page, inserted by C1."""
    client = system.client("C1")
    txn = client.begin()
    rids = [client.insert(txn, page_id, ("row", page_id))
            for page_id in system.table_pages("t")]
    client.commit(txn)
    for rid in rids:
        oracle.note_committed_insert(rid, ("row", rid.page_id))
    return rids


def committed_round(system, oracle, rids, tag):
    """Each client commits an update to every other row."""
    for index, client_id in enumerate(("C1", "C2")):
        client = system.client(client_id)
        txn = client.begin()
        mine = rids[index::2]
        for rid in mine:
            client.update(txn, rid, (tag, client_id))
        client.commit(txn)
        for rid in mine:
            oracle.note_committed_update(rid, (tag, client_id))


class TestReplicaCoherence:
    def test_replica_log_bytes_and_pages_match(self):
        system = replicated_system(apply_interval=4)
        rep = system.replication
        base = rep.standby.log.stable.low_water_addr
        rounds = check_after_each_round(rep.standby)
        oracle = CommittedStateOracle()
        rids = seeded_rows(system, oracle)
        for step in range(6):
            committed_round(system, oracle, rids, f"v{step}")
            if step % 2 == 0:
                # C2 checkpoints with an update in flight (its records
                # ship, and the server rewrites its End_Checkpoint), then
                # dies; the server's CLRs for it ship too.
                client = system.client("C2")
                txn = client.begin()
                client.update(txn, rids[1], ("lost", step))
                oracle.note_uncommitted_value(rids[1], ("lost", step))
                client.take_checkpoint()
                system.crash_client("C2")
                system.reconnect_client("C2")
        assert len(rounds) > 3 and sum(rounds) > 0
        old = system.server
        system.crash_server()
        rep.run_failover()
        hw = rep.ship_hw
        assert hw > base
        assert log_bytes(rep.standby.log.stable, base, hw) == \
            log_bytes(old.log.stable, base, hw)
        shipped = [type(record).__name__
                   for _, record in rep.standby.log.scan(base, hw)]
        assert "CompensationRecord" in shipped
        assert "EndCheckpointRecord" in shipped
        verify_durability(oracle, system)

    def test_transient_write_error_mid_round_then_retry(self):
        system = replicated_system(apply_interval=10_000)
        rep = system.replication
        standby = rep.standby
        oracle = CommittedStateOracle()
        rids = seeded_rows(system, oracle)
        committed_round(system, oracle, rids, "first")
        standby.apply_tail()
        assert_held_pages_on_disk(standby)
        committed_round(system, oracle, rids, "second")
        applied_before = standby.applied_addr
        unapplied_before = dict(standby._unapplied)
        plan = FailOneWrite(nth=2)
        standby.disk.probe.faults = plan
        with pytest.raises(TransientIOError):
            standby.apply_tail()
        assert plan.faults_injected == 1
        # The failed round moved no boundary, and a held image is ahead
        # of its disk image until the retry writes it.
        assert standby.applied_addr == applied_before
        assert standby._unapplied == unapplied_before
        with pytest.raises(AssertionError):
            assert_held_pages_on_disk(standby)
        standby.apply_tail()  # the retry
        assert standby.applied_addr == standby.log.flushed_addr
        assert_held_pages_on_disk(standby)
        standby.disk.probe.faults = None
        committed_round(system, oracle, rids, "third")
        system.crash_server()
        rep.run_failover()
        verify_durability(oracle, system)


# -- failure detection and promotion ------------------------------------------

class TestFailover:
    def test_failover_preserves_committed_state(self):
        system = replicated_system()
        rep = system.replication
        rid = committed_update(system, "durable")
        system.crash_server()
        promoted = rep.run_failover()
        assert rep.state == "primary"
        assert rep.failovers == 1
        assert system.server is promoted
        assert promoted.node_id == STANDBY_ID
        assert system.server_visible_value(rid) == "durable"
        # The promoted complex keeps committing.
        rid2 = committed_update(system, "fresh")
        assert system.current_value(rid2) == "fresh"

    def test_detector_is_deterministic_per_seed(self):
        ticks = []
        for _ in range(2):
            system = replicated_system(seed=23)
            rep = system.replication
            committed_update(system, "x")
            system.crash_server()
            rep.run_failover()
            ticks.append((rep.heartbeats_sent, rep.heartbeats_missed,
                          rep.failover_ticks))
        assert ticks[0] == ticks[1]

    def test_heartbeats_reset_on_recovered_primary(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "x")
        # Healthy primary: no tick ever suspects it.
        for _ in range(20):
            assert not rep.tick()
        assert rep.heartbeats_missed == 0
        assert rep.state == "follower"

    def test_fencing_rejects_stale_primary(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "x")
        old = system.server
        system.crash_server()
        rep.run_failover()
        assert rep.stale_primary_probe() is True
        # A raw envelope from the fenced node is rejected in delivery.
        envelope = Envelope(
            request_id=system.network.next_request_id(),
            src=old.node_id, dst=STANDBY_ID, msg_type=MsgType.ACK,
            method="replication_heartbeat",
            epoch=system.network.epoch_for(old.node_id))
        with pytest.raises(StaleEpochError):
            system.network.call(envelope)
        # The standby (current epoch) is not fenced.
        assert system.network.epoch_for(STANDBY_ID) == \
            system.network.cluster_epoch

    def test_promotion_boundary_is_ship_high_water(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "x")
        hw = rep.standby.ship_high_water
        assert hw == rep.ship_hw
        system.crash_server()
        rep.run_failover()
        # The promotion checkpoint landed above the ship high-water:
        # survivors replay against what was shipped, not the replica's
        # post-checkpoint end of log.
        assert rep.standby.master["server_ckpt_begin_addr"] >= hw

    def test_stale_probe_before_any_failover_is_misuse(self):
        system = replicated_system()
        with pytest.raises(ReplicationError):
            system.replication.stale_primary_probe()

    def test_snapshot_delta_across_failover_is_nonnegative(self):
        """Regression: the promoted server counts from zero, so a delta
        read only off ``system.server`` went negative (disk reads,
        commit forces) across a promotion."""
        config = SystemConfig(replication_enabled=True, seed=11)
        system = ClientServerSystem(config, client_ids=("C1", "C2"))
        system.bootstrap(data_pages=16)
        client = system.client("C1")

        def insert_committed(page_id, value):
            txn = client.begin()
            client.insert(txn, page_id, value)
            client.commit(txn)

        pages = system.create_table("t", 16)
        for index, page_id in enumerate(pages):
            insert_committed(page_id, ("v", index))
        system.server.flush_all()
        before = snapshot(system)
        system.crash_server()
        system.replication.run_failover()
        insert_committed(pages[0], "after")
        delta = snapshot(system).minus(before)
        assert {name: value for name, value in delta.as_dict().items()
                if value < 0} == {}
        assert delta.failovers == 1
        assert delta.commit_forces >= 1

    def test_snapshot_delta_across_failover_leaves_out_standby_io(self):
        """Regression: the promoted server adopts the standby's replica
        log and disk together with their counters, so a delta across
        the promotion counted the standby's replica appends and forces
        and its apply rounds' disk reads and writes."""
        system = replicated_system(apply_interval=4)
        rid = committed_update(system, "v0")
        for index in range(1, 16):
            committed_update(system, f"v{index}", rid=rid)
        standby = system.replication.standby
        replica, disk = standby.log.stable, standby.disk
        assert disk.writes > 0 and replica.appends > 0
        before = snapshot(system)
        replica_before = (replica.appends, replica.forces,
                          replica.bytes_appended, disk.writes, disk.reads)
        system.crash_server()
        system.replication.run_failover()
        delta = snapshot(system).minus(before)
        assert system.server.log.stable is replica
        # The promotion's own I/O on the adopted log and disk: its
        # checkpoint (Begin and End, one force); the restart over an
        # applied tail writes nothing.
        own = (replica.appends, replica.forces, replica.bytes_appended,
               disk.writes, disk.reads)
        assert (delta.log_appends, delta.log_forces, delta.log_bytes,
                delta.disk_writes, delta.disk_reads) == tuple(
                    after - before_
                    for after, before_ in zip(own, replica_before))
        assert (delta.log_appends, delta.log_forces, delta.disk_writes,
                delta.disk_reads) == (2, 1, 0, 0)


# -- dedup across failover (regression) ---------------------------------------

class TestDedupAcrossFailover:
    def test_retried_envelope_is_answered_from_shipped_cache(self):
        """A client whose acknowledgement was lost retries the same
        envelope; after a failover the retry lands on the promoted
        standby, which must answer from the shipped dedup cache instead
        of re-executing the handler (double-applying the batch)."""
        system = replicated_system()
        rep = system.replication
        committed_update(system, "once")
        # C1's commit reply is stored after its handler shipped, so it
        # rides the next ship: C2's commit.
        committed_update(system, "other", client_id="C2")
        shipped = rep.standby.shipped_dedup()
        assert shipped.get("C1"), "commit produced no reply-slot entries"
        src = "C1"
        request_id, cached = max(shipped[src].items())
        system.crash_server()
        promoted = rep.run_failover()
        end_before = promoted.log.end_of_log_addr
        suppressed_before = promoted.dispatcher.duplicates_suppressed
        # The retried envelope: same (src, request id).  No args on
        # purpose — if dedup failed, the handler would execute and blow
        # up on the missing arguments instead of silently passing.
        retry = Envelope(
            request_id=request_id, src=src, dst=promoted.node_id,
            msg_type=MsgType.ACK, method="force_log_for_commit",
            epoch=system.network.epoch_for(src))
        response = system.network.call(retry)
        assert response.ok == cached.ok
        assert response.result == cached.result
        assert promoted.dispatcher.duplicates_suppressed == \
            suppressed_before + 1
        assert promoted.log.end_of_log_addr == end_before

    def test_every_completed_entry_ships(self):
        system = replicated_system()
        rep = system.replication
        committed_update(system, "a")
        committed_update(system, "b", client_id="C2")
        # An exchange's reply is stored after its handler returns, so
        # the trailing slot change rides the NEXT batch; a dedup-only
        # ship sends it (and a re-executed trailing force is idempotent).
        rep.ship()
        assert rep.standby.shipped_dedup() == system.server.dispatcher.slots
        assert system.server.dispatcher.changed == set()

    def test_retry_after_rebootstrap_is_answered_from_shipped_cache(self):
        """Re-seeding the standby (``system.bootstrap`` does) must ship
        the primary's whole slot table, not only the slots changed since
        the last ship: otherwise C1's retried last request (shipped with
        C2's commit, before the re-seed) re-executes on the promoted
        standby."""
        system = replicated_system(message_trace_depth=256)
        rep = system.replication
        committed_update(system, "once")
        committed_update(system, "other", client_id="C2")
        last = [entry for entry in system.network.stats.trace
                if entry.src == "C1" and entry.dst == system.server.node_id]
        last = last[-1]
        rep.bootstrap_standby()
        system.crash_server()
        promoted = rep.run_failover()
        end_before = promoted.log.end_of_log_addr
        suppressed_before = promoted.dispatcher.duplicates_suppressed
        # No args: a re-execution would fail loudly, not pass silently.
        retry = Envelope(
            request_id=last.request_id, src="C1", dst=promoted.node_id,
            msg_type=last.msg_type, method=last.method,
            epoch=system.network.epoch_for("C1"))
        response = system.network.call(retry)
        assert response.ok
        assert promoted.dispatcher.duplicates_suppressed == \
            suppressed_before + 1
        assert promoted.log.end_of_log_addr == end_before


# -- manager wiring -----------------------------------------------------------

class TestWiring:
    def test_attach_replication_is_the_enable_switch(self):
        system = ClientServerSystem(SystemConfig(), client_ids=("C1",))
        manager = system.attach_replication()
        assert isinstance(manager, ReplicationManager)
        assert system.replication is manager
        assert system.server.replication is manager
        assert system.server.dispatcher.changed == set()

    def test_bootstrap_reseeds_the_standby(self):
        system = ClientServerSystem(
            SystemConfig(replication_enabled=True), client_ids=("C1",))
        rep = system.replication
        system.bootstrap(data_pages=4)
        standby = rep.standby
        assert sorted(standby.disk.page_ids()) == \
            sorted(system.server.disk.page_ids())

    def test_counters_reach_metrics_registry(self):
        system = replicated_system()
        committed_update(system, "x")
        collected = snapshot(system)
        rep = system.replication
        assert collected.frames_shipped == rep.frames_shipped > 0
        assert collected.ship_acks == rep.ship_acks > 0
        # A single-node complex reports every replication counter as 0.
        single = ClientServerSystem(SystemConfig(), client_ids=("C1",))
        zeros = snapshot(single)
        assert zeros.frames_shipped == 0
        assert zeros.failovers == 0
