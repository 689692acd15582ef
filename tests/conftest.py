"""Shared fixtures for the ARIES/CSA test suite."""

from __future__ import annotations

import zlib

import pytest

from repro.config import SystemConfig
from typing import Dict, Optional, Set, Tuple

from repro.core import codec
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    CommitRecord,
    CompensationRecord,
    EndCheckpointRecord,
    EndRecord,
    FrameHeader,
    LogRecord,
    PrepareRecord,
    UpdateRecord,
)
from repro.core.recovery import (
    AnalysisResult,
    ClrWriter,
    LogicalUndoHandler,
    RecoveryContext,
    RecoveryPageAccess,
    RecoveryResult,
    RedoStats,
    RestartTxn,
    UndoStats,
    analysis_pass,
    redo_kernel,
    undo_kernel,
)
from repro.core.server_log import ServerLogManager
from repro.faults import FaultPlan
from repro.core.system import ClientServerSystem
from repro.errors import RecordNotFoundError
from repro.storage.page import Page
from repro.workloads.generator import seed_table


@pytest.fixture
def config() -> SystemConfig:
    """Default ARIES/CSA configuration with automatic checkpoints off
    (tests drive checkpoints explicitly unless they opt in)."""
    return SystemConfig(
        client_checkpoint_interval=0,
        server_checkpoint_interval=0,
    )


@pytest.fixture
def system(config: SystemConfig) -> ClientServerSystem:
    """A two-client complex with an 8-page bootstrapped database."""
    complex_ = ClientServerSystem(config, client_ids=["C1", "C2"])
    complex_.bootstrap(data_pages=8, free_pages=32)
    return complex_


@pytest.fixture
def seeded(system: ClientServerSystem):
    """(system, rids): an 8-page table with 4 committed records per page,
    seeded by C1."""
    rids = seed_table(system, "C1", "t", 8, 4)
    return system, rids


def make_system(client_ids=("C1", "C2"), data_pages=8, free_pages=32,
                **config_overrides) -> ClientServerSystem:
    """Imperative variant for tests that need custom configurations."""
    defaults = dict(client_checkpoint_interval=0, server_checkpoint_interval=0)
    defaults.update(config_overrides)
    config = SystemConfig(**defaults)
    complex_ = ClientServerSystem(config, client_ids=client_ids)
    complex_.bootstrap(data_pages=data_pages, free_pages=free_pages)
    return complex_


def plain_headers(items) -> list:
    """``(addr, header)`` items as comparable tuples (headers have no eq)."""
    return [(addr, tuple(getattr(header, name)
                         for name in FrameHeader.__slots__))
            for addr, header in items]


# ---------------------------------------------------------------------------
# The byte-format oracle: the generic encoders the writers replaced
# ---------------------------------------------------------------------------

_TYPE_TAG = {
    UpdateRecord: "UPD", CompensationRecord: "CLR", CommitRecord: "CMT",
    PrepareRecord: "PRE", EndRecord: "END", BeginCheckpointRecord: "BCP",
    EndCheckpointRecord: "ECP", CDPLRecord: "CDP",
}


def reference_frame(record: LogRecord) -> bytes:
    """A log frame as ``codec.encode`` writes the record's field tuple."""
    header = (_TYPE_TAG[type(record)], record.lsn,
              record.client_id, record.txn_id, record.prev_lsn)
    body: Tuple = ()
    if isinstance(record, UpdateRecord):
        body = (record.page_id, record.op.value, record.slot, record.before,
                record.after, record.redo_only, record.key, record.page_kind)
    elif isinstance(record, CompensationRecord):
        body = (record.undo_next_lsn, record.page_id,
                record.op.value if record.op is not None else None,
                record.slot, record.after, record.key)
    elif isinstance(record, PrepareRecord):
        body = (record.locks,)
    elif isinstance(record, EndRecord):
        body = (record.outcome.value,)
    elif isinstance(record, BeginCheckpointRecord):
        body = (record.owner,)
    elif isinstance(record, EndCheckpointRecord):
        body = (record.owner,
                tuple((e.page_id, e.rec_lsn, e.rec_addr)
                      for e in record.dirty_pages),
                tuple((t.txn_id, t.client_id, t.state, t.last_lsn,
                       t.undo_next_lsn, t.first_lsn)
                      for t in record.transactions))
    elif isinstance(record, CDPLRecord):
        body = (tuple((e.page_id, e.rec_lsn, e.rec_addr)
                      for e in record.entries),)
    return codec.encode(header + body)


def reference_page_image(page: Page) -> bytes:
    """A page image as ``codec.encode`` writes the page's field tuple,
    with its CRC32 trailer."""
    page._check()
    payload = codec.encode((
        page.page_id, page.kind.value, page.page_lsn, page.page_size,
        page._next_slot,
        tuple((slot, data) for slot, data in sorted(page._records.items())),
        tuple((key, page._meta[key]) for key in sorted(page._meta)),
    ))
    return payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")


# ---------------------------------------------------------------------------
# The restart equivalence oracle
# ---------------------------------------------------------------------------

def redo_pass(
    log: ServerLogManager,
    analysis: AnalysisResult,
    pages: RecoveryPageAccess,
    client_filter: Optional[Set[str]] = None,
    faults: Optional[FaultPlan] = None,
) -> RedoStats:
    """The paper's redo pass: the kernel over ``[redo_addr, end_addr)``."""
    return redo_kernel(
        log, log.scan_headers(analysis.redo_addr, analysis.end_addr), pages,
        dpl=analysis.dpl, client_filter=client_filter, faults=faults,
    )


def undo_pass(
    log: ServerLogManager,
    losers: Dict[str, RestartTxn],
    pages: RecoveryPageAccess,
    clr_writer: ClrWriter,
    logical_undo: Optional[LogicalUndoHandler] = None,
    faults: Optional[FaultPlan] = None,
) -> UndoStats:
    """The paper's undo pass: the kernel over one backward log scan.

    LSNs are not log addresses, so this scan needs no ``<LSN, address>``
    pairs at all.  ``recover`` walks the chains by address instead;
    this pass is the reference the tests compare it against.
    """
    return undo_kernel(log, log.scan_headers_backward(), losers, pages,
                       clr_writer, logical_undo, faults)


def reference_recover(ctx: RecoveryContext) -> RecoveryResult:
    """The paper's three passes, run back to back over one context.

    The reference the production driver (``repro.core.recovery.recover``)
    is compared against: a full analysis scan, a second scan of the redo
    range, and a backward scan of the whole log for undo.
    """
    if ctx.analysis_supplier is not None:
        analysis = ctx.analysis_supplier()
    else:
        analysis = analysis_pass(
            ctx.log, ctx.analysis_scan_start,
            client_filter=ctx.client_filter,
            rebuild_log_bookkeeping=ctx.rebuild_log_bookkeeping,
            header_observer=ctx.header_observer)
    if ctx.after_analysis is not None:
        ctx.after_analysis(analysis)
    forwarded = ctx.pre_redo() if ctx.pre_redo is not None else 0
    redo = redo_pass(ctx.log, analysis, ctx.pages,
                     client_filter=ctx.client_filter)
    redo.redos_applied += forwarded
    losers = analysis.losers()
    if ctx.loser_filter is not None:
        losers = ctx.loser_filter(losers)
    undo = undo_pass(ctx.log, losers, ctx.pages, ctx.clr_writer,
                     ctx.logical_undo)
    return RecoveryResult(analysis, redo, undo)


def restart_all_with_reference_passes(system: ClientServerSystem):
    """``system.restart_all()`` with the driver swapped for the passes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.server.recover", reference_recover)
        return system.restart_all()


def recovered_state(system: ClientServerSystem, report, rids) -> dict:
    """Everything two equivalent restarts must agree on, byte for byte."""
    values = {}
    for rid in rids:
        try:
            values[(rid.page_id, rid.slot)] = system.current_value(rid)
        except RecordNotFoundError:
            values[(rid.page_id, rid.slot)] = None
    pages = {}
    for page_id in sorted({rid.page_id for rid in rids}):
        page = system.server_visible_page(page_id)
        pages[page_id] = (page.page_lsn, dict(page._records))
    return {
        "values": values,
        "pages": pages,
        "counters": (report.redos_applied, report.clrs_written,
                     report.txns_rolled_back),
        # Identical up to the crash by construction, so equality pins
        # exactly the bytes undo (CLRs, rollback Ends) appended.
        "log_bytes": bytes(system.server.log.stable._buf),
    }
