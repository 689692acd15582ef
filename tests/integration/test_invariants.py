"""The invariant checker: healthy systems pass, seeded faults are caught."""

import pytest

from repro.harness.invariants import (
    assert_invariants,
    check_cache_coherence,
    check_clr_chains,
    check_client_buffer_discipline,
    check_lsn_streams,
    check_per_page_log_order,
    check_privilege_exclusivity,
    check_wal,
)
from repro.workloads.generator import WorkloadSpec, generate_programs, \
    run_program_sequential, seed_table


class TestHealthySystems:
    def test_fresh_system(self, seeded):
        system, _ = seeded
        assert_invariants(system)

    def test_after_mixed_workload(self, seeded):
        system, rids = seeded
        spec = WorkloadSpec(num_txns=20, ops_per_txn=5, read_fraction=0.3,
                            abort_fraction=0.2, seed=8)
        for i, program in enumerate(generate_programs(spec, rids)):
            run_program_sequential(system, "C1" if i % 2 == 0 else "C2",
                                   program)
        assert_invariants(system)

    def test_after_client_crash_recovery(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "doomed")
        client._ship_log_records()
        system.crash_client("C1")
        system.reconnect_client("C1")
        assert_invariants(system)

    def test_after_full_crash_recovery(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        system.crash_all()
        system.restart_all()
        assert_invariants(system)

    def test_after_server_only_crash(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "inflight")
        system.crash_server()
        system.restart_server()
        client.commit(txn)
        assert_invariants(system)

    def test_with_forwarding_and_replay(self):
        from tests.conftest import make_system
        from repro.config import PageTransport
        system = make_system(client_ids=("A", "B"), data_pages=6,
                             enable_forwarding=True,
                             page_transport=PageTransport.LOG_REPLAY)
        rids = seed_table(system, "A", "t", 6, 2)
        a, b = system.client("A"), system.client("B")
        for i in range(8):
            c = a if i % 2 == 0 else b
            txn = c.begin()
            c.update(txn, rids[i % len(rids)], ("x", i))
            c.commit(txn)
        assert_invariants(system)


class TestFaultDetection:
    """Each checker must actually catch its fault class."""

    def test_wal_catches_premature_disk_write(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "unstable")
        client._ship_log_records()           # appended, NOT forced
        # Bypass WAL: write the client's dirty page straight to disk.
        page = client.pool.peek(rids[0].page_id)
        system.server.disk.write_page(page.snapshot())
        assert check_wal(system)
        client.commit(txn)

    def test_log_order_catches_scrambling(self, seeded):
        from repro.core.log_records import UpdateOp, UpdateRecord
        system, rids = seeded
        # Append two records for one page with decreasing LSNs.
        bad1 = UpdateRecord(lsn=900, client_id="C1", txn_id="TX",
                            prev_lsn=0, page_id=rids[0].page_id,
                            op=UpdateOp.RECORD_MODIFY, slot=0,
                            before=b"a", after=b"b")
        bad2 = UpdateRecord(lsn=899, client_id="C1", txn_id="TX",
                            prev_lsn=0, page_id=rids[0].page_id,
                            op=UpdateOp.RECORD_MODIFY, slot=0,
                            before=b"b", after=b"c")
        system.server.log.append_from_client("C1", [bad1])
        system.server.log.stable.append(bad2)  # bypass the index's LSN check
        assert check_per_page_log_order(system)

    def test_lsn_streams_catch_a_restarted_stream(self, seeded):
        from repro.core.log_records import CommitRecord
        system, _ = seeded
        assert check_lsn_streams(system) == []
        # A client whose stream restarted at 1 after a reconnect.
        system.server.log.stable.append(
            CommitRecord(lsn=1, client_id="C1", txn_id="TX", prev_lsn=0))
        violations = check_lsn_streams(system)
        assert len(violations) == 1 and "C1" in violations[0]

    def test_clr_chain_catches_forward_pointer(self, seeded):
        from repro.core.log_records import CompensationRecord, UpdateOp
        system, rids = seeded
        bad = CompensationRecord(lsn=50, client_id="C1", txn_id="TX",
                                 prev_lsn=49, undo_next_lsn=60,
                                 page_id=rids[0].page_id,
                                 op=UpdateOp.RECORD_MODIFY, slot=0, after=b"x")
        system.server.log.stable.append(bad)
        assert check_clr_chains(system)

    def test_coherence_catches_stale_token_copy(self, seeded):
        system, rids = seeded
        c2 = system.client("C2")
        txn = c2.begin()
        c2.read(txn, rids[0])
        c2.commit(txn)
        # Tamper: age C2's cached copy without telling anyone.
        page = c2.pool.peek(rids[0].page_id)
        page.page_lsn -= 1 if page.page_lsn > 0 else 0
        page.page_lsn = max(0, page.page_lsn)
        c1 = system.client("C1")
        txn = c1.begin()
        c1.update(txn, rids[0], "newer")
        c1.commit(txn)
        c1._ship_page(rids[0].page_id)
        # Re-grant C2 a (now lying) token to simulate the fault.
        if rids[0].page_id not in c2._p_locks:
            from repro.locking.lock_modes import LockMode
            c2._p_locks[rids[0].page_id] = LockMode.S
            c2.pool.admit(page)
            violations = check_cache_coherence(system)
            assert violations

    def test_privilege_catches_double_x(self, seeded):
        system, rids = seeded
        glm = system.server.glm
        from repro.locking.glm import p_lock_resource
        from repro.locking.lock_modes import LockMode
        entry = glm.physical.entry_or_create(p_lock_resource(999))
        entry.holders["C1"] = LockMode.X
        entry.holders["C2"] = LockMode.X
        assert check_privilege_exclusivity(system)

    def test_buffer_discipline_catches_early_discard(self, seeded):
        system, rids = seeded
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client._ship_log_records()          # appended, not forced
        client.log._buffer.clear()          # illegal early discard
        client.log._ship_cursor = 0
        assert check_client_buffer_discipline(system)
