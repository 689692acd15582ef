"""The restart driver against the reference passes (DESIGN.md section 13).

Production restart is ``repro.core.recovery.recover``: analysis fused
with redo-candidate collection, then undo along the losers' chains.  The
paper's three passes (``analysis_pass``/``redo_pass``/``undo_pass``) are
the reference: on an identically built crash state they must leave the
same values, page images including page_LSNs, counters, and log bytes.
The randomized form of the contract lives in
``tests/property/test_recovery_engine_props.py``; these tests pin it on
deterministic crash states, including a loser written after its client
crashed and reconnected.
"""

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table
from tests.conftest import recovered_state, restart_all_with_reference_passes


def build_system():
    config = SystemConfig(client_buffer_frames=4,
                          server_buffer_frames=8,
                          client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          max_lsn_sync_period=4)
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    return system, rids


def crash_with_losers():
    """Committed history from both clients plus one stranded loser each."""
    system, rids = build_system()
    c1, c2 = system.client("C1"), system.client("C2")
    for i in range(6):
        client = c1 if i % 2 == 0 else c2
        txn = client.begin(f"ok-{i}")
        client.update(txn, rids[i % 4], ("committed", i))
        client.commit(txn)
    system.server.take_checkpoint()
    loser1, loser2 = c1.begin("loser-1"), c2.begin("loser-2")
    c1.update(loser1, rids[4], ("loser", 1))
    c2.update(loser2, rids[5], ("loser", 2))
    c1._ship_log_records()
    c2._ship_log_records()
    system.server.log.force()
    system.crash_all()
    return system, rids


def crash_with_prepared():
    """A committed transaction and an in-doubt one survive the crash."""
    system, rids = build_system()
    c1 = system.client("C1")
    committed = c1.begin("ok")
    c1.update(committed, rids[0], ("kept", 0))
    c1.commit(committed)
    prepared = c1.begin("in-doubt")
    c1.update(prepared, rids[1], ("prepared", 1))
    c1.prepare(prepared)
    c1._ship_log_records()
    system.server.log.force()
    system.crash_all()
    return system, rids


def crash_with_reconnected_loser():
    """A loser written after its client crashed and reconnected.

    The reconnect resumes the client's LSN stream above every LSN filed
    under its id, so the loser's chain LSN names the loser's own record,
    not one of the client's first incarnation.
    """
    system, rids = build_system()
    c1 = system.client("C1")
    for i in range(3):
        txn = c1.begin(f"first-life-{i}")
        c1.update(txn, rids[0], ("first-life", i))
        c1.commit(txn)
    system.crash_client("C1")
    system.reconnect_client("C1")
    loser = c1.begin("second-life-loser")
    c1.update(loser, rids[4], ("loser", 0))
    c1._ship_log_records()
    system.server.log.force()
    system.crash_all()
    return system, rids


class TestDriverAgainstReferencePasses:
    @pytest.mark.parametrize("crash_state", [
        crash_with_losers, crash_with_prepared, crash_with_reconnected_loser,
    ])
    def test_identical_pages_counters_and_log_bytes(self, crash_state):
        system, rids = crash_state()
        report = system.restart_all()
        reference, _ = crash_state()
        reference_report = restart_all_with_reference_passes(reference)

        assert (recovered_state(system, report, rids)
                == recovered_state(reference, reference_report, rids))

    def test_losers_are_rolled_back_and_committed_values_kept(self):
        system, rids = crash_with_losers()
        report = system.restart_all()
        assert report.txns_rolled_back == 2
        assert report.clrs_written == 2
        assert system.server_visible_value(rids[3]) == ("committed", 3)

    def test_reconnected_clients_loser_is_undone_by_its_chain(self):
        system, rids = crash_with_reconnected_loser()
        report = system.restart_all()
        assert report.txns_rolled_back == 1
        # The chain walk visits the loser's one update; the scanning
        # pass would have read the whole log.
        assert report.undo_records_scanned == 1
        assert system.server_visible_value(rids[0]) == ("first-life", 2)
        assert system.server_visible_value(rids[4]) != ("loser", 0)


class TestRedoByPage:
    """Restart redo loads each dirty page once, whatever the log order."""

    PAGES, FRAMES, ROUNDS = 12, 4, 5

    def crash_after_round_robin_updates(self):
        """Every page updated once per round, so the log revisits each
        page ``ROUNDS`` times with the whole working set in between —
        three server pools' worth."""
        config = SystemConfig(client_buffer_frames=4,
                              server_buffer_frames=self.FRAMES,
                              client_checkpoint_interval=0,
                              server_checkpoint_interval=0)
        system = ClientServerSystem(config, client_ids=("C1", "C2"))
        system.bootstrap(data_pages=self.PAGES, free_pages=4)
        rids = seed_table(system, "C1", "t", self.PAGES, 2)
        per_page = [rid for rid in rids if rid.slot == rids[0].slot]
        assert len(per_page) == self.PAGES
        for round_index in range(self.ROUNDS):
            for index, rid in enumerate(per_page):
                client = system.client(("C1", "C2")[index % 2])
                txn = client.begin()
                client.update(txn, rid, ("round", round_index))
                client.commit(txn)
        system.crash_all()
        return system, per_page

    def test_disk_reads_during_redo_bounded_by_the_dpl(self):
        system, per_page = self.crash_after_round_robin_updates()
        disk = system.server.disk
        reads_before = disk.reads
        report = system.restart_all()
        # Nothing was in flight, so undo fetched nothing: every read of
        # the restart is a redo fetch.
        assert report.clrs_written == 0 and report.txns_rolled_back == 0
        assert report.dpl_size > self.FRAMES
        assert report.redo_considered >= self.ROUNDS * self.PAGES
        assert disk.reads - reads_before <= report.dpl_size
        for rid in per_page:
            assert system.server_visible_value(rid) == \
                ("round", self.ROUNDS - 1)

    def test_reference_passes_agree_and_pay_a_read_per_visit(self):
        """The oracle scans in log order: same recovered state, but the
        pool a third of the working set costs it a fetch per revisit."""
        system, rids = self.crash_after_round_robin_updates()
        report = system.restart_all()
        reference, _ = self.crash_after_round_robin_updates()
        reads_before = reference.server.disk.reads
        reference_report = restart_all_with_reference_passes(reference)
        assert (recovered_state(system, report, rids)
                == recovered_state(reference, reference_report, rids))
        assert reference.server.disk.reads - reads_before > \
            reference_report.dpl_size
