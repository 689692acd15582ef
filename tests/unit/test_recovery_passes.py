"""Unit tests for the ARIES passes over a hand-built log."""

from dataclasses import asdict

import pytest

from repro.core.log_records import (
    BeginCheckpointRecord,
    CommitRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    EndRecord,
    PrepareRecord,
    SERVER_ID,
    TxnOutcome,
    TxnTableEntry,
    UpdateOp,
    UpdateRecord,
)
from repro.config import SystemConfig
from repro.core.lsn import NULL_LSN
from repro.core.recovery import (
    RecoveryContext,
    ReplayPages,
    analysis_pass,
    recover,
    redo_kernel,
)
from repro.core.server_log import ServerLogManager
from repro.core.system import ClientServerSystem
from repro.storage.page import Page, PageKind
from repro.workloads.generator import seed_table
from tests.conftest import make_system, redo_pass, undo_pass


class FakePages:
    """RecoveryPageAccess over an in-memory dict."""

    def __init__(self):
        self.pages = {}
        self.dirtied = {}

    def fetch(self, page_id):
        if page_id not in self.pages:
            page = Page(page_id, PageKind.DATA)
            page.format(PageKind.DATA)
            self.pages[page_id] = page
        return self.pages[page_id]

    def mark_dirty(self, page_id, rec_addr):
        self.dirtied[page_id] = rec_addr


class ClrSink:
    """ClrWriter capturing what undo emits."""

    def __init__(self, log):
        self.log = log
        self.records = []

    def next_lsn(self, page_lsn):
        return self.log.clock.next_lsn(page_lsn)

    def append(self, record):
        self.records.append(record)
        return self.log.append_local(record)


def upd(lsn, txn, page, slot=0, prev=0, client="C1", before=b"o", after=b"n",
        op=UpdateOp.RECORD_MODIFY, redo_only=False):
    return UpdateRecord(lsn=lsn, client_id=client, txn_id=txn, prev_lsn=prev,
                        page_id=page, op=op, slot=slot, before=before,
                        after=after, redo_only=redo_only)


@pytest.fixture
def log():
    return ServerLogManager()


class TestAnalysis:
    def test_dpl_records_first_reference(self, log):
        a1 = log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None)])[0][1]
        log.append_from_client("C1", [upd(2, "T1", page=3, prev=1)])
        result = analysis_pass(log, 0)
        assert result.dpl == {3: a1}
        assert result.redo_addr == a1

    def test_txn_states_followed(self, log):
        log.append_from_client("C1", [
            upd(1, "T1", page=1, op=UpdateOp.RECORD_INSERT, before=None),
            CommitRecord(lsn=2, client_id="C1", txn_id="T1", prev_lsn=1),
        ])
        log.append_from_client("C1", [
            upd(3, "T2", page=2, op=UpdateOp.RECORD_INSERT, before=None),
        ])
        result = analysis_pass(log, 0)
        assert result.txns["T1"].state == "committed"
        assert result.txns["T2"].state == "active"
        assert set(result.losers()) == {"T2"}

    def test_end_record_removes_txn(self, log):
        log.append_from_client("C1", [
            upd(1, "T1", page=1, op=UpdateOp.RECORD_INSERT, before=None),
            CommitRecord(lsn=2, client_id="C1", txn_id="T1", prev_lsn=1),
            EndRecord(lsn=3, client_id="C1", txn_id="T1", prev_lsn=2,
                      outcome=TxnOutcome.COMMITTED),
        ])
        assert analysis_pass(log, 0).txns == {}

    def test_prepared_not_a_loser(self, log):
        log.append_from_client("C1", [
            upd(1, "T1", page=1, op=UpdateOp.RECORD_INSERT, before=None),
            PrepareRecord(lsn=2, client_id="C1", txn_id="T1", prev_lsn=1),
        ])
        result = analysis_pass(log, 0)
        assert result.txns["T1"].state == "prepared"
        assert result.losers() == {}

    def test_redo_only_does_not_set_undo_next(self, log):
        log.append_from_client("C1", [
            upd(1, "T1", page=1, redo_only=True,
                op=UpdateOp.RECORD_INSERT, before=None),
        ])
        result = analysis_pass(log, 0)
        assert result.txns["T1"].undo_next_lsn == NULL_LSN
        assert result.losers() == {}

    def test_checkpoint_dpl_merged_with_min(self, log):
        ckpt = EndCheckpointRecord(
            lsn=1, client_id=SERVER_ID, txn_id=None, prev_lsn=0,
            owner=SERVER_ID,
            dirty_pages=(DirtyPageEntry(7, 0, 5),),
        )
        start = log.append_local(BeginCheckpointRecord(
            lsn=0, client_id=SERVER_ID, txn_id=None, prev_lsn=0,
            owner=SERVER_ID))
        log.append_local(ckpt)
        log.append_from_client("C1", [upd(9, "T1", page=7)])
        result = analysis_pass(log, start)
        assert result.dpl[7] == 5  # checkpoint's older bound wins

    def test_checkpoint_txns_merged_when_unseen(self, log):
        ckpt = EndCheckpointRecord(
            lsn=1, client_id=SERVER_ID, txn_id=None, prev_lsn=0,
            owner=SERVER_ID,
            transactions=(TxnTableEntry("Told", "C2", "active", 4, 4, 2),),
        )
        start = log.append_local(ckpt)
        result = analysis_pass(log, start)
        assert result.txns["Told"].undo_next_lsn == 4
        assert result.txns["Told"].client_id == "C2"

    def test_client_filter(self, log):
        log.append_from_client("C1", [
            upd(1, "T1", page=1, op=UpdateOp.RECORD_INSERT, before=None)])
        log.append_from_client("C2", [
            upd(1, "T2", page=2, client="C2",
                op=UpdateOp.RECORD_INSERT, before=None)])
        result = analysis_pass(log, 0, client_filter={"C1"})
        assert set(result.dpl) == {1}
        assert set(result.txns) == {"T1"}


class TestRedo:
    def test_redo_applies_missing_updates_only(self, log):
        pages = FakePages()
        page = pages.fetch(3)
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"v1"),
            upd(2, "T1", page=3, prev=1, before=b"v1", after=b"v2"),
        ])
        # Disk version already has the first update.
        page.insert_record(b"v1", slot=0)
        page.page_lsn = 1
        result = analysis_pass(log, 0)
        stats = redo_pass(log, result, pages)
        assert stats.redos_applied == 1
        assert page.read_record(0) == b"v2"
        assert page.page_lsn == 2

    def test_redo_respects_dpl_filter(self, log):
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None)])
        result = analysis_pass(log, 0)
        result.dpl = {}  # page not dirty per analysis: nothing to redo
        result.redo_addr = 0
        stats = redo_pass(log, result, pages)
        assert stats.redos_applied == 0

    def test_redo_repeats_loser_updates_too(self, log):
        """Repeating history: even a loser's updates are redone before
        undo compensates them."""
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T-loser", page=4, op=UpdateOp.RECORD_INSERT,
                before=None, after=b"uncommitted")])
        result = analysis_pass(log, 0)
        stats = redo_pass(log, result, pages)
        assert stats.redos_applied == 1
        assert pages.fetch(4).read_record(0) == b"uncommitted"


#: One page's whole life: formatted, inserted into, modified, the
#: modify compensated by a partial rollback, then committed — every
#: record kind the redo kernel applies, and no loser for undo to touch.
ONE_PAGE_HISTORY = [
    UpdateRecord(lsn=1, client_id="C1", txn_id="T1", prev_lsn=0, page_id=9,
                 op=UpdateOp.PAGE_FORMAT, redo_only=True, page_kind="data"),
    upd(2, "T1", page=9, prev=1, op=UpdateOp.RECORD_INSERT, before=None,
        after=b"v1"),
    upd(3, "T1", page=9, prev=2, before=b"v1", after=b"v2"),
    CompensationRecord(lsn=4, client_id="C1", txn_id="T1", prev_lsn=3,
                       undo_next_lsn=2, page_id=9,
                       op=UpdateOp.RECORD_MODIFY, slot=0, after=b"v1"),
    CommitRecord(lsn=5, client_id="C1", txn_id="T1", prev_lsn=4),
    EndRecord(lsn=6, client_id="C1", txn_id="T1", prev_lsn=5,
              outcome=TxnOutcome.COMMITTED),
]


class FreshPages(FakePages):
    """Pages start as unformatted frames, as restart redo finds them."""

    def fetch(self, page_id):
        if page_id not in self.pages:
            self.pages[page_id] = Page(page_id, PageKind.FREE)
        return self.pages[page_id]


def replay_one_page(entry):
    """Replay ONE_PAGE_HISTORY through one entry point; return page 9."""
    if entry in ("redo_pass", "driver"):
        log = ServerLogManager()
        log.append_from_client("C1", list(ONE_PAGE_HISTORY))
        pages = FreshPages()
        if entry == "redo_pass":
            redo_pass(log, analysis_pass(log, 0), pages)
        else:
            recover(RecoveryContext(
                log=log, pages=pages, clr_writer=ClrSink(log),
                kind="server-restart", analysis_scan_start=0))
        return pages.fetch(9)
    system = ClientServerSystem(SystemConfig(replication_enabled=True),
                                client_ids=("C1",))
    # Disk and archive hold the never-formatted frame the log builds on.
    server = system.server
    server.disk.write_page(Page(9, PageKind.FREE, server.config.page_size))
    server.archive.backup_from_disk(server.disk, redo_start_addr=0)
    server.log.append_from_client("C1", list(ONE_PAGE_HISTORY))
    server.log.force()
    if entry == "recover_corrupted_page":
        return server.recover_corrupted_page(9)[0]
    if entry == "media_recover_page":
        return server.media_recover_page(9)[0]
    assert entry == "apply_tail"
    system.replication.ship()
    standby = system.replication.standby
    standby.apply_tail()
    return standby.disk.read_page(9)


class TestOneReplayKernel:
    @pytest.mark.parametrize("entry", [
        "redo_pass", "driver", "recover_corrupted_page",
        "media_recover_page", "apply_tail",
    ])
    def test_every_replay_entry_point_builds_the_same_page(self, entry):
        page = replay_one_page(entry)
        assert page.kind is PageKind.DATA
        assert (page.page_lsn, dict(page._records)) == (4, {0: b"v1"})


def _worked_log():
    """A two-client log of 312 records, more than the decode LRU holds,
    CLRs included; and the disk images it was written against."""
    system = make_system()
    disk = system.server.disk
    images = {page_id: disk.read_page(page_id).to_bytes()
              for page_id in disk.page_ids()}
    rids = seed_table(system, "C1", "t", 8, 4)
    for turn in range(40):
        client_id = ("C1", "C2")[turn % 2]
        client = system.client(client_id)
        txn = client.begin()
        for step in range(4):
            rid = rids[(turn * 5 + step * 7) % len(rids)]
            client.update(txn, rid, f"{client_id}-{turn}-{step}")
        if turn % 5 == 4:
            client.rollback(txn)
        else:
            client.commit(txn)
    return system.server.log, images


class TestRedoItemForms:
    @pytest.mark.parametrize("filtered", [False, True])
    def test_header_and_record_items_agree(self, filtered):
        """Header items apply from the frame, record items from the
        record: same pages, same page_LSNs, same stats."""
        log, images = _worked_log()
        stable = log.stable
        items = list(log.scan_headers())
        dpl = client_filter = None
        if filtered:
            client_filter = {"C1"}
            dpl = {header.page_id: addr for addr, header in reversed(items)
                   if header.is_redoable() and header.page_id >= 0}

        def replay(worklist):
            pages = ReplayPages({}, load=lambda page_id: Page.from_bytes(
                images[page_id]))
            stats = redo_kernel(log, worklist, pages, dpl=dpl,
                                client_filter=client_filter)
            return stats, {page_id: (page.page_lsn, page.to_bytes())
                           for page_id, page in pages.pages.items()}

        decodes, hits = stable.full_decodes, stable.decode_cache_hits
        by_header = replay(items)
        # Every applied header item was walked from its frame, the
        # records the LRU holds included.
        assert stable.full_decodes - decodes == by_header[0].redos_applied
        assert stable.decode_cache_hits == hits
        by_record = replay([(addr, log.read_at(addr)) for addr, _ in items])
        assert by_header[0].redos_applied > 100
        assert asdict(by_header[0]) == asdict(by_record[0])
        assert by_header[1] == by_record[1]


class TestUndo:
    def test_undo_writes_clrs_and_end(self, log):
        pages = FakePages()
        page = pages.fetch(3)
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"v1"),
            upd(2, "T1", page=3, prev=1, before=b"v1", after=b"v2"),
        ])
        result = analysis_pass(log, 0)
        redo_pass(log, result, pages)
        sink = ClrSink(log)
        stats = undo_pass(log, result.losers(), pages, sink)
        assert stats.clrs_written == 2
        assert stats.txns_rolled_back == 1
        assert not page.has_record(0)
        clrs = [r for r in sink.records if isinstance(r, CompensationRecord)]
        assert [c.undo_next_lsn for c in clrs] == [1, 0]
        ends = [r for r in sink.records if isinstance(r, EndRecord)]
        assert len(ends) == 1 and ends[0].outcome is TxnOutcome.ABORTED
        assert ends[0].client_id == "C1"  # written in the loser's name

    def test_undo_skips_already_compensated(self, log):
        """A CLR in the log bounds repeated-failure undo: the already
        undone record is not undone again."""
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"v1"),
            upd(2, "T1", page=3, prev=1, before=b"v1", after=b"v2"),
            CompensationRecord(lsn=3, client_id="C1", txn_id="T1",
                               prev_lsn=2, undo_next_lsn=1, page_id=3,
                               op=UpdateOp.RECORD_MODIFY, slot=0, after=b"v1"),
        ])
        result = analysis_pass(log, 0)
        redo_pass(log, result, pages)
        assert result.losers()["T1"].undo_next_lsn == 1
        sink = ClrSink(log)
        stats = undo_pass(log, result.losers(), pages, sink)
        assert stats.clrs_written == 1  # only lsn 1 left to undo
        assert not pages.fetch(3).has_record(0)

    def test_undo_steps_over_redo_only(self, log):
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"x"),
            upd(2, "T1", page=5, prev=1, redo_only=True,
                op=UpdateOp.RECORD_INSERT, before=None, after=b"struct"),
            upd(3, "T1", page=3, prev=2, slot=0, before=b"x", after=b"y"),
        ])
        result = analysis_pass(log, 0)
        redo_pass(log, result, pages)
        sink = ClrSink(log)
        stats = undo_pass(log, result.losers(), pages, sink)
        assert stats.clrs_written == 2          # lsn 3 and lsn 1, not lsn 2
        assert pages.fetch(5).read_record(0) == b"struct"  # NTA piece stays

    def test_dummy_clr_skips_whole_nta(self, log):
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T1", page=3, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"x"),
            upd(2, "T1", page=5, prev=1,
                op=UpdateOp.RECORD_INSERT, before=None, after=b"inside-nta"),
            CompensationRecord(lsn=3, client_id="C1", txn_id="T1",
                               prev_lsn=2, undo_next_lsn=1, page_id=-1,
                               op=None),
            upd(4, "T1", page=3, prev=3, slot=0, before=b"x", after=b"y"),
        ])
        result = analysis_pass(log, 0)
        redo_pass(log, result, pages)
        sink = ClrSink(log)
        stats = undo_pass(log, result.losers(), pages, sink)
        # lsn 4 and lsn 1 undone; lsn 2 protected by the dummy CLR.
        assert stats.clrs_written == 2
        assert pages.fetch(5).read_record(0) == b"inside-nta"

    def test_multiple_losers_across_clients(self, log):
        pages = FakePages()
        log.append_from_client("C1", [
            upd(1, "T1", page=1, op=UpdateOp.RECORD_INSERT, before=None,
                after=b"a")])
        log.append_from_client("C2", [
            upd(1, "T2", page=2, client="C2", op=UpdateOp.RECORD_INSERT,
                before=None, after=b"b")])
        result = analysis_pass(log, 0)
        redo_pass(log, result, pages)
        sink = ClrSink(log)
        stats = undo_pass(log, result.losers(), pages, sink)
        assert stats.txns_rolled_back == 2
        assert not pages.fetch(1).has_record(0)
        assert not pages.fetch(2).has_record(0)
