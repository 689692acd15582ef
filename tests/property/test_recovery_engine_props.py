"""Property: the restart driver is byte-identical to the reference passes.

On randomized crash states a production ``restart_all()`` (the fused
driver, ``repro.core.recovery.recover``) and the paper's three passes
run back to back must agree on everything durable: record values, page
images including page_LSNs, the redo/CLR/rollback counters, and the
bytes undo appended to the log.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table
from tests.conftest import recovered_state, restart_all_with_reference_passes

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: One step per transaction: (client 0/1, rid choice, outcome, ckpt?).
#: Outcomes: 0 = commit, 1 = rollback, 2 = strand (left in flight).
steps = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5),
              st.integers(0, 2), st.booleans()),
    min_size=1, max_size=14)


def build_crash_state(script):
    """Replay ``script`` deterministically, then crash the complex.

    Each client works a disjoint half of the rid space, and a rid with
    a stranded (still-in-flight) transaction on it is skipped for the
    rest of the run, so the script never deadlocks on stranded locks.
    """
    config = SystemConfig(client_buffer_frames=4,
                          server_buffer_frames=6,
                          client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          max_lsn_sync_period=4)
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    clients = (system.client("C1"), system.client("C2"))
    stranded_rids = set()
    for index, (who, rid_index, outcome, ckpt) in enumerate(script):
        client = clients[who]
        # Clients own alternating rids; dodge rids locked by a stranded
        # transaction (theirs or anyone's).
        mine = [r for i, r in enumerate(rids)
                if i % 2 == who and r not in stranded_rids]
        if not mine:
            continue
        rid = mine[rid_index % len(mine)]
        txn = client.begin(f"p-{index}")
        client.update(txn, rid, ("step", index))
        if outcome == 0:
            client.commit(txn)
        elif outcome == 1:
            client.rollback(txn)
        else:
            stranded_rids.add(rid)
            client._ship_log_records()
            system.server.log.force()
        if ckpt:
            system.server.take_checkpoint()
    system.crash_all()
    return system, rids


class TestDriverEquivalence:
    @SLOW
    @given(steps)
    def test_driver_matches_reference_passes_on_randomized_crash_states(
            self, script):
        system, rids = build_crash_state(script)
        report = system.restart_all()
        reference, _ = build_crash_state(script)
        reference_report = restart_all_with_reference_passes(reference)
        assert (recovered_state(system, report, rids)
                == recovered_state(reference, reference_report, rids))
