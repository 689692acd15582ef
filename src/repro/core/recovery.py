"""The ARIES passes — analysis, redo, undo — parameterized for CSA.

The same three passes serve both restart flavors the paper describes:

* **server restart** (section 2.7): start at the server's last complete
  checkpoint, consider records from *all* systems;
* **failed-client recovery performed by the server** (section 2.6.1):
  start at the failed client's last complete checkpoint, consider *only*
  that client's records (they carry the client's identity precisely so
  this separation is possible).

One structural difference from single-system ARIES: LSNs are not log
addresses, so the undo pass cannot jump along PrevLSN pointers.  Instead
it scans the log *backward by address*, and undoes a record exactly when
its LSN matches the owning loser's expected UndoNxtLSN.  FIFO shipping
of client log buffers guarantees the prefix property that makes this
terminate: if a record is in the server log, all earlier records of that
client are too.

All three passes scan *headers*, not records: every filter they apply
(client identity, page id, DPL RecAddr, page_LSN, UndoNxtLSN match)
needs only the fields ``peek_header`` surfaces, so a full record is
materialized — via the stable log's decode LRU — only for the records
a pass actually consumes: checkpoint tables, undone updates, and
whatever an ``observer`` asks to see.  A redone update or CLR is not
materialized at all: redo applies it from its frame.

Every replay in the system is one of two kernels over an iterable of
``(addr, header)`` pairs: :func:`redo_kernel` (apply a record iff
``page_LSN < LSN``) and :func:`undo_kernel` (compensate a record iff its
LSN is its loser's expected UndoNxtLSN).  A log scan and a pre-collected
list are just two sources for the same loop, so the paper's redo and
undo passes (kept in ``tests/conftest.py`` as the reference the
equivalence tests compare against), page repair, media recovery and
standby apply are all kernel callers.  The redo kernel's ordering
contract is per page: items ascend by address *within a page*, which is
the only order ``page_LSN < LSN`` can observe; across pages any order
will do.  A log scan satisfies it trivially; the driver uses the freedom.

:func:`recover` is the one restart path on top.  Analysis is fused with
redo-candidate collection, each candidate filed under its page.  Redo
then goes page by page over the dirty page list — one fetch per dirty
page however often the log returns to it, pages the DPL does not list
never touched — which bounds restart by the dirty pages, as sections
2.6.1 and 2.7 do.  The part of the redo range below the analysis start
is read with a supplementary header scan; for a failed client that scan
reads the client's own index (:meth:`ServerLogManager.scan_client_headers`,
the section 2.5.2 per-client ``<LSN, address>`` pairs), so client
recovery reads that client's records and nobody else's.  Undo walks the
losers' chains resolved through the same index; no LSN stream filed
under one id restarts, so a chain LSN names exactly one record.  The
driver reaches pages only through :class:`RecoveryPageAccess` and emits
log records only through :class:`ClrWriter` (lint rule REC060 enforces
both).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from heapq import merge
from itertools import chain
from typing import (
    Callable,
    DefaultDict,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
)

from repro.core.apply import (
    UndoEffect,
    apply_clr_redo,
    apply_redo,
    apply_redo_effect,
    apply_undo_effect,
    physical_undo_effect,
    redo_needed,
)
from repro.core.log_records import (
    CDPLRecord,
    CompensationRecord,
    EndCheckpointRecord,
    EndRecord,
    FrameHeader,
    LogRecord,
    TxnOutcome,
    UpdateRecord,
)
from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN
from repro.core.server_log import ServerLogManager
from repro.errors import RecoveryInvariantError
from repro.faults import FaultPlan
from repro.probe import Probe
from repro.storage.page import Page

#: What the kernels iterate: a record's log address and peeked header.
HeaderItem = Tuple[LogAddr, FrameHeader]
#: The redo kernel also takes, from a scan that decodes anyway, the
#: page-changing record itself in place of its header.
RedoItem = Tuple[LogAddr, Union[FrameHeader, UpdateRecord, CompensationRecord]]
#: The driver's redo worklist: per page, its candidates in address order.
RedoWorklist = DefaultDict[int, List[HeaderItem]]


class RecoveryPageAccess(Protocol):
    """How recovery reaches pages (the server supplies the implementation)."""

    def fetch(self, page_id: int) -> Page:
        """Latest available version (buffer, else disk, else fresh frame)."""
        ...

    def mark_dirty(self, page_id: int, rec_addr: LogAddr) -> None:
        """The page image was changed by recovery; track it as dirty."""
        ...


class ClrWriter(Protocol):
    """How recovery emits log records (CLRs and abort/end records)."""

    def next_lsn(self, page_lsn: LSN) -> LSN: ...

    def append(self, record: LogRecord) -> LogAddr: ...


class ReplayPages:
    """RecoveryPageAccess over images the caller holds and installs itself.

    Single-page repair hands in the one image it is rebuilding; standby
    apply hands in a ``load`` that returns its held replica images, and
    :attr:`pages` collects the pages one apply round touched, which the
    standby then writes.  Both own their dirty tracking, so
    :meth:`mark_dirty` has nothing to do.
    """

    def __init__(self, pages: Dict[int, Page],
                 load: Optional[Callable[[int], Page]] = None) -> None:
        self.pages = pages
        self._load = load

    def fetch(self, page_id: int) -> Page:
        page = self.pages.get(page_id)
        if page is None:
            assert self._load is not None
            page = self.pages[page_id] = self._load(page_id)
        return page

    def mark_dirty(self, page_id: int, rec_addr: LogAddr) -> None:
        return None


#: Logical undo hook: given an index update record, locate the current
#: home of the key and perform nothing — just report where and how to
#: compensate.  ``None`` entries fall back to physical undo.
LogicalUndoHandler = Callable[[UpdateRecord, RecoveryPageAccess], UndoEffect]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

@dataclass
class RestartTxn:
    """Transaction-table entry rebuilt by the analysis pass."""

    txn_id: str
    client_id: str
    state: str = "active"
    first_lsn: LSN = NULL_LSN
    last_lsn: LSN = NULL_LSN
    undo_next_lsn: LSN = NULL_LSN


@dataclass
class AnalysisResult:
    """What the analysis pass learned."""

    dpl: Dict[int, LogAddr] = field(default_factory=dict)
    txns: Dict[str, RestartTxn] = field(default_factory=dict)
    redo_addr: LogAddr = NULL_ADDR
    records_scanned: int = 0
    end_addr: LogAddr = 0
    #: Scanned records attributed to the client that wrote them.
    records_by_client: Dict[str, int] = field(default_factory=dict)

    def losers(self) -> Dict[str, RestartTxn]:
        """In-flight transactions the undo pass must roll back.

        Prepared (in-doubt) transactions survive restart untouched
        (section 1.1.2); committed-without-End transactions are winners.
        """
        return {
            txn_id: txn for txn_id, txn in self.txns.items()
            if txn.state == "active" and txn.undo_next_lsn != NULL_LSN
        }


def analysis_pass(
    log: ServerLogManager,
    start_addr: LogAddr,
    client_filter: Optional[Set[str]] = None,
    rebuild_log_bookkeeping: bool = False,
    observer: Optional[Callable[[LogRecord, LogAddr], None]] = None,
    faults: Optional[FaultPlan] = None,
    header_sink: Optional[Callable[[LogAddr, "FrameHeader"], None]] = None,
    header_observer: Optional[Callable[["FrameHeader", LogAddr], None]] = None,
) -> AnalysisResult:
    """Scan [start_addr, end) rebuilding the DPL and transaction table.

    ``client_filter`` restricts attention to the given clients' records
    (failed-client recovery).  With ``rebuild_log_bookkeeping`` the scan
    also rebuilds the server log manager's per-client index and clock —
    used during server restart, when that volatile state was lost.
    ``observer`` sees every scanned record (the server uses it to
    rebuild its global transaction tracker).  ``faults`` arms the
    per-record crashpoint that lets the explorer kill recovery itself
    mid-scan (restart must be restartable, section 2.5).  ``header_sink``
    sees every ``(addr, header)`` the scan visits — the hook that lets
    :func:`recover` collect redo candidates during analysis instead of
    paying a second header scan over the same range.
    ``header_observer`` is the cheap form of ``observer``: it sees every
    ``(header, addr)`` without the full-record decode, which is all the
    transaction tracker needs; when both are given the header form wins.
    """
    result = AnalysisResult(end_addr=log.end_of_log_addr)
    for addr, header in log.scan_headers(start_addr):
        if faults is not None:
            faults.crashpoint("recovery.analysis.scan")
        if header_sink is not None:
            header_sink(addr, header)
        result.records_scanned += 1
        result.records_by_client[header.client_id] = (
            result.records_by_client.get(header.client_id, 0) + 1
        )
        if rebuild_log_bookkeeping:
            log.observe_during_restart(header.client_id, header.lsn, addr)
        if header_observer is not None:
            header_observer(header, addr)
        elif observer is not None:
            observer(log.read_at(addr), addr)
        tag = header.type_tag
        if tag == "ECP":
            ecp = log.read_at(addr)
            assert isinstance(ecp, EndCheckpointRecord)
            if client_filter is not None and ecp.owner not in client_filter:
                continue
            _merge_checkpoint(result, ecp)
            continue
        if tag == "BCP":
            continue
        if client_filter is not None and header.client_id not in client_filter:
            continue
        if tag == "CDP":
            cdpl = log.read_at(addr)
            assert isinstance(cdpl, CDPLRecord)
            for entry in cdpl.entries:
                _merge_dpl(result, entry.page_id, entry.rec_addr)
            continue
        if tag == "UPD" or tag == "CLR":
            if header.page_id >= 0 and header.page_id not in result.dpl:
                result.dpl[header.page_id] = addr
            txn = _txn_entry(result, header.txn_id, header.client_id)
            txn.last_lsn = header.lsn
            if txn.first_lsn == NULL_LSN:
                txn.first_lsn = header.lsn
            if tag == "CLR":
                txn.undo_next_lsn = header.undo_next_lsn
            elif not header.redo_only:
                txn.undo_next_lsn = header.lsn
            continue
        if tag == "CMT":
            _txn_entry(result, header.txn_id, header.client_id).state = "committed"
        elif tag == "PRE":
            _txn_entry(result, header.txn_id, header.client_id).state = "prepared"
        elif tag == "END" and header.txn_id is not None:
            result.txns.pop(header.txn_id, None)
    result.redo_addr = min(result.dpl.values()) if result.dpl else result.end_addr
    return result


def _txn_entry(result: AnalysisResult, txn_id: Optional[str],
               client_id: str) -> RestartTxn:
    assert txn_id is not None
    txn = result.txns.get(txn_id)
    if txn is None:
        txn = RestartTxn(txn_id, client_id)
        result.txns[txn_id] = txn
    return txn


def _merge_dpl(result: AnalysisResult, page_id: int, rec_addr: LogAddr) -> None:
    if rec_addr == NULL_ADDR:
        return
    current = result.dpl.get(page_id)
    if current is None or rec_addr < current:
        result.dpl[page_id] = rec_addr


def _merge_checkpoint(result: AnalysisResult, record: EndCheckpointRecord) -> None:
    """Fold an End_Checkpoint's DPL and transaction table into the result.

    Minima win for RecAddrs (the checkpoint may know an older bound than
    the first in-scan record for the page); transactions already seen in
    the scan keep their fresher in-scan state.
    """
    for entry in record.dirty_pages:
        _merge_dpl(result, entry.page_id, entry.rec_addr)
    for txn_entry in record.transactions:
        if txn_entry.txn_id in result.txns:
            continue
        result.txns[txn_entry.txn_id] = RestartTxn(
            txn_id=txn_entry.txn_id,
            client_id=txn_entry.client_id,
            state=txn_entry.state,
            first_lsn=txn_entry.first_lsn,
            last_lsn=txn_entry.last_lsn,
            undo_next_lsn=txn_entry.undo_next_lsn,
        )


# ---------------------------------------------------------------------------
# Redo
# ---------------------------------------------------------------------------

@dataclass
class RedoStats:
    records_scanned: int = 0
    records_considered: int = 0
    #: Page fetches: one per run of consecutive same-page items, so one
    #: per page when the items arrive grouped by page.
    pages_visited: int = 0
    redos_applied: int = 0
    #: Applied redos attributed to the client that wrote the record.
    applied_by_client: Dict[str, int] = field(default_factory=dict)


def redo_kernel(
    log: ServerLogManager,
    items: Iterable[RedoItem],
    pages: RecoveryPageAccess,
    dpl: Optional[Dict[int, LogAddr]] = None,
    client_filter: Optional[Set[str]] = None,
    faults: Optional[FaultPlan] = None,
) -> RedoStats:
    """Repeat history over ``items``: the one redo loop in the system.

    A record is considered only if it is a page-bearing update or CLR of
    a client in ``client_filter`` and — when a ``dpl`` is given — its
    page is listed with ``RecAddr <= record address`` (the DPL-as-filter
    rule of section 1.1.2); it is applied only if ``page_LSN < record
    LSN``.  ``items`` must ascend by address *within a page*: per-page
    log order is application order, and the only order ``redo_needed``
    depends on (``check_per_page_log_order`` states the same).  Pages
    may interleave, as in a log scan, or arrive one after another, as
    from :func:`recover`'s worklist; the kernel holds the current page
    across a run of same-page items, so a run costs one ``pages.fetch``
    and — if anything applied — one ``pages.mark_dirty``.  Without a
    ``dpl`` every page is a candidate and the page's dirty bound is the
    first record applied to it.  An item carries the record's peeked
    header or the record itself.  A header item's effect is read only
    if it is applied, by ``log.redo_effect_at``: a walk of the frame's
    body from where the peek stopped, with no second prefix parse, no
    record object and no use of the decode LRU.  A record item (the
    standby's freshly appended tail, the reference passes' tests) is
    applied from its fields.  Both end in ``apply_redo_effect``.
    """
    stats = RedoStats()
    page: Optional[Page] = None  # the run in progress
    run_dirtied = False
    for addr, header in items:
        if faults is not None:
            faults.crashpoint("recovery.redo.scan")
        stats.records_scanned += 1
        if not header.is_redoable():
            continue
        if client_filter is not None and header.client_id not in client_filter:
            continue
        page_id = header.page_id
        if page_id < 0:
            continue  # dummy CLRs have no page effect
        if dpl is None:
            rec_addr = addr
        else:
            known = dpl.get(page_id)
            if known is None or addr < known:
                continue
            rec_addr = known
        stats.records_considered += 1
        if page is None or page.page_id != page_id:
            page = pages.fetch(page_id)
            run_dirtied = False
            stats.pages_visited += 1
        if not redo_needed(page, header.lsn):
            continue
        if isinstance(header, FrameHeader):
            apply_redo_effect(page, header.lsn,
                              *log.redo_effect_at(addr, header))
        elif isinstance(header, UpdateRecord):
            apply_redo(page, header)
        else:
            assert isinstance(header, CompensationRecord)
            apply_clr_redo(page, header)
        if not run_dirtied:
            pages.mark_dirty(page_id, rec_addr)
            run_dirtied = True
        stats.redos_applied += 1
        stats.applied_by_client[header.client_id] = (
            stats.applied_by_client.get(header.client_id, 0) + 1
        )
    return stats


# ---------------------------------------------------------------------------
# Undo
# ---------------------------------------------------------------------------

@dataclass
class UndoStats:
    records_scanned: int = 0
    clrs_written: int = 0
    txns_rolled_back: int = 0
    #: CLRs attributed to the client whose transaction was undone.
    clrs_by_client: Dict[str, int] = field(default_factory=dict)


def undo_kernel(
    log: ServerLogManager,
    items: Iterable[HeaderItem],
    losers: Dict[str, RestartTxn],
    pages: RecoveryPageAccess,
    clr_writer: ClrWriter,
    logical_undo: Optional[LogicalUndoHandler] = None,
    faults: Optional[FaultPlan] = None,
) -> UndoStats:
    """Roll back the losers over ``items``: the one undo loop in the system.

    ``items`` must descend by address and contain every record on the
    losers' undo chains; anything else in it (a backward scan visits the
    whole log) is skipped.  A record is undone when its LSN matches its
    transaction's expected UndoNxtLSN.  CLRs encountered skip the
    expectation past work already compensated, which is what bounds
    logging under repeated failures.
    """
    stats = UndoStats()
    expected: Dict[str, LSN] = {}
    last_lsn: Dict[str, LSN] = {}
    for txn_id, txn in losers.items():
        if txn.undo_next_lsn != NULL_LSN:
            expected[txn_id] = txn.undo_next_lsn
            last_lsn[txn_id] = txn.last_lsn
    for txn_id in list(losers):
        if txn_id not in expected:
            _finish_rollback(clr_writer, losers[txn_id], losers[txn_id].last_lsn)
            stats.txns_rolled_back += 1
    if not expected:
        return stats

    for addr, header in items:
        if not expected:
            break
        if faults is not None:
            faults.crashpoint("recovery.undo.scan")
        stats.records_scanned += 1
        txn_id = header.txn_id
        if txn_id is None or txn_id not in expected:
            continue
        if header.lsn != expected[txn_id]:
            continue
        txn = losers[txn_id]
        if header.is_clr():
            expected[txn_id] = header.undo_next_lsn
        elif header.is_update():
            if header.redo_only:
                expected[txn_id] = header.prev_lsn
            else:
                record = log.read_at(addr)
                assert isinstance(record, UpdateRecord)
                clr_lsn = _undo_one(
                    record, pages, clr_writer, txn, last_lsn[txn_id], logical_undo
                )
                last_lsn[txn_id] = clr_lsn
                expected[txn_id] = record.prev_lsn
                stats.clrs_written += 1
                stats.clrs_by_client[txn.client_id] = (
                    stats.clrs_by_client.get(txn.client_id, 0) + 1
                )
        else:
            raise RecoveryInvariantError(
                f"undo chain of {txn_id} points at non-undoable "
                f"{header.type_name} (lsn {header.lsn})"
            )
        if expected[txn_id] == NULL_LSN:
            del expected[txn_id]
            _finish_rollback(clr_writer, txn, last_lsn[txn_id])
            stats.txns_rolled_back += 1

    if expected:
        raise RecoveryInvariantError(
            f"undo could not resolve chains for {sorted(expected)}; "
            "the prefix property was violated"
        )
    return stats


def _undo_one(
    record: UpdateRecord,
    pages: RecoveryPageAccess,
    clr_writer: ClrWriter,
    txn: RestartTxn,
    prev_lsn: LSN,
    logical_undo: Optional[LogicalUndoHandler],
) -> LSN:
    """Undo a single record: apply the compensation and log the CLR."""
    if record.undo_is_logical() and logical_undo is not None:
        effect = logical_undo(record, pages)
    else:
        effect = physical_undo_effect(record)
    page = pages.fetch(effect.page_id)
    clr_lsn = clr_writer.next_lsn(page.page_lsn)
    apply_undo_effect(page, effect, clr_lsn)
    clr = CompensationRecord(
        lsn=clr_lsn,
        client_id=txn.client_id,
        txn_id=txn.txn_id,
        prev_lsn=prev_lsn,
        undo_next_lsn=record.prev_lsn,
        page_id=effect.page_id,
        op=effect.op,
        slot=effect.slot,
        after=effect.after,
        key=effect.key,
    )
    addr = clr_writer.append(clr)
    pages.mark_dirty(effect.page_id, addr)
    return clr_lsn


def _finish_rollback(clr_writer: ClrWriter, txn: RestartTxn,
                     prev_lsn: LSN) -> None:
    """Write the End record closing a fully undone loser."""
    end = EndRecord(
        lsn=clr_writer.next_lsn(NULL_LSN),
        client_id=txn.client_id,
        txn_id=txn.txn_id,
        prev_lsn=prev_lsn,
        outcome=TxnOutcome.ABORTED,
    )
    clr_writer.append(end)


# ---------------------------------------------------------------------------
# The restart driver
# ---------------------------------------------------------------------------

@dataclass
class RecoveryContext:
    """Everything one recovery run needs.

    The server builds one per ``restart`` / ``recover_failed_client``
    call; hooks carry the between-pass bookkeeping (tracker reinstall
    after analysis, forwarded-dirty rebuild before redo, the restart
    loser filter).
    """

    log: ServerLogManager
    pages: RecoveryPageAccess
    clr_writer: ClrWriter
    #: ``"server-restart"`` or ``"client-recovery"``; picks the
    #: ``server.restart.*`` / ``server.client_recovery.*`` crashpoints.
    kind: str
    #: Where the analysis scan starts (``None`` when a supplier below
    #: provides the analysis without scanning — the 2.6.2 GLM variant).
    analysis_scan_start: Optional[LogAddr] = None
    analysis_supplier: Optional[Callable[[], AnalysisResult]] = None
    client_filter: Optional[Set[str]] = None
    rebuild_log_bookkeeping: bool = False
    #: Sees ``(header, addr)`` per scanned record without the full decode.
    header_observer: Optional[Callable[[FrameHeader, LogAddr], None]] = None
    #: Whether the fault plan also arms the analysis scan's per-record
    #: crashpoint (client recovery historically scans analysis unarmed;
    #: restart arms it).
    arm_analysis_scan: bool = False
    logical_undo: Optional[LogicalUndoHandler] = None
    #: The server's planes: pass spans, crashpoints, the per-pass record
    #: histograms and the restart progress meter.
    probe: Probe = field(default_factory=Probe)
    #: Attributes stamped on every pass span (e.g. ``client=C1``).
    span_attrs: Dict[str, object] = field(default_factory=dict)
    #: Extra attributes for the analysis span only (e.g. ``start_addr``).
    analysis_span_attrs: Dict[str, object] = field(default_factory=dict)
    after_analysis: Optional[Callable[[AnalysisResult], None]] = None
    #: Runs between analysis and redo; returns redos applied out of band
    #: (the forwarded-dirty rebuild of client recovery).
    pre_redo: Optional[Callable[[], int]] = None
    loser_filter: Optional[
        Callable[[Dict[str, RestartTxn]], Dict[str, RestartTxn]]
    ] = None


@dataclass
class RecoveryResult:
    """What one :func:`recover` run produced, for the RecoveryReport."""

    analysis: AnalysisResult
    redo: RedoStats
    undo: UndoStats


def _fire_before(ctx: RecoveryContext, pass_name: str) -> None:
    """Arm the per-pass crashpoint with its literal manifest name.

    The CRASHPOINTS manifest is closed-loop against literal call sites,
    so the names are spelled out per (flavor, pass) rather than built
    from ``ctx.kind``.
    """
    faults = ctx.probe.faults
    if faults is None:
        return
    restart = ctx.kind == "server-restart"
    if pass_name == "analysis":
        if restart:
            faults.crashpoint("server.restart.before_analysis")
        else:
            faults.crashpoint("server.client_recovery.before_analysis")
    elif pass_name == "redo":
        if restart:
            faults.crashpoint("server.restart.before_redo")
        else:
            faults.crashpoint("server.client_recovery.before_redo")
    else:
        if restart:
            faults.crashpoint("server.restart.before_undo")
        else:
            faults.crashpoint("server.client_recovery.before_undo")


#: Restart progress sampling interval, in scanned records.  Coarse
#: enough to stay cheap, fine enough that the time series resolves the
#: shape of a long scan; the final total is always sampled too.
_PROGRESS_SAMPLE_EVERY = 64


def _progress_observer(
    ctx: RecoveryContext,
    inner: Optional[Callable[[FrameHeader, LogAddr], None]],
) -> Callable[[FrameHeader, LogAddr], None]:
    """Wrap the analysis header observer with the restart progress meter.

    Samples ``restart_progress`` (records scanned so far, on the hub's
    logical clock) every :data:`_PROGRESS_SAMPLE_EVERY` records; the
    scan's log extent is stamped into the series meta so consumers can
    express progress as scanned/extent.  Purely additive: the wrapped
    observer (the transaction tracker during restart) sees exactly the
    calls it would have.
    """
    metrics = ctx.probe.metrics
    assert metrics is not None
    series = metrics.restart_progress
    start = ctx.analysis_scan_start or 0
    series.meta["log_extent"] = max(
        0, ctx.log.stable.end_of_log_addr - start)
    scanned = 0

    def observer(header: FrameHeader, addr: LogAddr) -> None:
        nonlocal scanned
        scanned += 1
        if scanned % _PROGRESS_SAMPLE_EVERY == 0:
            series.sample(metrics.next_tick(), scanned)
        if inner is not None:
            inner(header, addr)

    return observer


def _analysis_phase(
    ctx: RecoveryContext,
    header_sink: Callable[[LogAddr, FrameHeader], None],
) -> AnalysisResult:
    probe = ctx.probe
    span = 0
    if probe.tracer is not None:
        span = probe.tracer.begin("recovery", "analysis", "server",
                                  **ctx.span_attrs, **ctx.analysis_span_attrs)
    _fire_before(ctx, "analysis")
    if ctx.analysis_supplier is not None:
        analysis = ctx.analysis_supplier()
    else:
        assert ctx.analysis_scan_start is not None
        header_observer = ctx.header_observer
        if probe.metrics is not None:
            header_observer = _progress_observer(ctx, header_observer)
        analysis = analysis_pass(
            ctx.log, ctx.analysis_scan_start,
            client_filter=ctx.client_filter,
            rebuild_log_bookkeeping=ctx.rebuild_log_bookkeeping,
            faults=probe.faults if ctx.arm_analysis_scan else None,
            header_sink=header_sink,
            header_observer=header_observer,
        )
    if probe.tracer is not None:
        probe.tracer.end(
            span,
            records_scanned=analysis.records_scanned,
            by_client=dict(sorted(analysis.records_by_client.items())),
            dpl_size=len(analysis.dpl),
            redo_addr=analysis.redo_addr,
            end_addr=analysis.end_addr,
        )
    if probe.metrics is not None:
        probe.metrics.recovery_pass_records.observe(analysis.records_scanned)
        # Close the progress meter with the pass total (the in-scan
        # meter samples every _PROGRESS_SAMPLE_EVERY records only).
        probe.metrics.restart_progress.sample(
            probe.metrics.next_tick(), analysis.records_scanned)
    if ctx.after_analysis is not None:
        ctx.after_analysis(analysis)
    return analysis


def _redo_phase(ctx: RecoveryContext, analysis: AnalysisResult,
                fused: RedoWorklist) -> RedoStats:
    """Redo page by page: what analysis collected plus what it did not scan.

    ``fused`` already covers ``[analysis_scan_start, end_addr)``; only
    the pre-checkpoint range ``[redo_addr, analysis_scan_start)`` needs
    a supplementary header scan (the whole redo range when analysis came
    from a supplier and ``fused`` is empty).  For a failed client that
    scan reads the client's own address index and nobody else's records.
    The kernel is then fed one DPL page at a time in ascending page id,
    the supplementary items of a page ahead of its fused ones, so
    address order holds within every page and each page is fetched once.
    """
    probe = ctx.probe
    forwarded = ctx.pre_redo() if ctx.pre_redo is not None else 0
    span = 0
    if probe.tracer is not None:
        span = probe.tracer.begin("recovery", "redo", "server",
                                  **ctx.span_attrs,
                                  redo_addr=analysis.redo_addr)
    _fire_before(ctx, "redo")
    covered_from = (analysis.end_addr if ctx.analysis_scan_start is None
                    else ctx.analysis_scan_start)
    uncovered: Iterable[HeaderItem]
    if ctx.client_filter is None:
        uncovered = ctx.log.scan_headers(analysis.redo_addr, covered_from)
    else:
        uncovered = merge(*(
            ctx.log.scan_client_headers(client_id, analysis.redo_addr,
                                        covered_from)
            for client_id in sorted(ctx.client_filter)))
    early: RedoWorklist = defaultdict(list)
    sink = _candidate_sink(early, ctx.client_filter)
    scanned = 0
    for addr, header in uncovered:
        scanned += 1
        sink(addr, header)
    redo = redo_kernel(
        ctx.log,
        chain.from_iterable(
            chain(early.get(page_id, ()), fused.get(page_id, ()))
            for page_id in sorted(analysis.dpl)),
        ctx.pages, dpl=analysis.dpl, client_filter=ctx.client_filter,
        faults=probe.faults,
    )
    # The kernel counted worklist items; the pass scanned the headers
    # analysis had not (the fused ones are on the analysis count).
    redo.records_scanned = scanned
    redo.redos_applied += forwarded
    if probe.tracer is not None:
        end_attrs: Dict[str, object] = {
            "records_scanned": redo.records_scanned,
            "records_considered": redo.records_considered,
            "pages_visited": redo.pages_visited,
            "pages_redone": redo.redos_applied,
        }
        if ctx.pre_redo is not None:
            end_attrs["forwarded_redos"] = forwarded
        end_attrs["by_client"] = dict(sorted(redo.applied_by_client.items()))
        probe.tracer.end(span, **end_attrs)
    if probe.metrics is not None:
        probe.metrics.recovery_pass_records.observe(redo.records_scanned)
    return redo


def _resolve_chains(ctx: RecoveryContext, losers: Dict[str, RestartTxn]
                    ) -> List[HeaderItem]:
    """Walk every loser's UndoNxtLSN chain via exact address lookups.

    The server's per-client ``<LSN, address>`` index (section 2.5.2) is
    what lets undo follow a chain by address instead of scanning
    backward.  Chains are resolved per loser, then merged in descending
    address order — exactly the order the backward scan of the paper's
    undo pass (kept in ``tests/conftest.py``) visits the same records.
    A chain LSN that names no record, or another transaction's, breaks
    the prefix property or the ascending LSN streams:
    :class:`RecoveryInvariantError`.
    """
    items: List[HeaderItem] = []
    for txn_id, txn in losers.items():
        lsn = txn.undo_next_lsn
        while lsn != NULL_LSN:
            addr = ctx.log.addr_of_lsn(txn.client_id, lsn)
            header = ctx.log.header_at(addr) if addr is not None else None
            if addr is None or header is None or header.txn_id != txn_id:
                raise RecoveryInvariantError(
                    f"undo chain of {txn_id}: no record of it has LSN "
                    f"{lsn} under {txn.client_id}")
            items.append((addr, header))
            if header.is_clr():
                lsn = header.undo_next_lsn
            elif header.is_update():
                lsn = header.prev_lsn
            else:
                raise RecoveryInvariantError(
                    f"undo chain of {txn_id} points at non-undoable "
                    f"{header.type_name} (lsn {header.lsn})"
                )
    items.sort(key=lambda item: item[0], reverse=True)
    return items


def _undo_phase(ctx: RecoveryContext, losers: Dict[str, RestartTxn]
                ) -> UndoStats:
    probe = ctx.probe
    span = 0
    if probe.tracer is not None:
        span = probe.tracer.begin("recovery", "undo", "server",
                                  **ctx.span_attrs, losers=len(losers))
    _fire_before(ctx, "undo")
    undo = undo_kernel(ctx.log, _resolve_chains(ctx, losers), losers,
                       ctx.pages, ctx.clr_writer, ctx.logical_undo,
                       probe.faults)
    if probe.tracer is not None:
        probe.tracer.end(
            span,
            records_scanned=undo.records_scanned,
            clrs_written=undo.clrs_written,
            txns_rolled_back=undo.txns_rolled_back,
            by_client=dict(sorted(undo.clrs_by_client.items())),
        )
    if probe.metrics is not None:
        probe.metrics.recovery_pass_records.observe(undo.records_scanned)
    return undo


def _candidate_sink(
    worklist: RedoWorklist, client_filter: Optional[Set[str]],
) -> Callable[[LogAddr, FrameHeader], None]:
    """The ``header_sink`` that files redo candidates under their page.

    A candidate is a page-bearing update or CLR of a client in the
    filter.  Whether its page is in the DPL, and from which RecAddr, is
    known only once analysis has finished: the redo phase drops the
    pages the DPL does not list, and the kernel applies the RecAddr test.
    """

    def sink(addr: LogAddr, header: FrameHeader) -> None:
        if (header.is_redoable() and header.page_id >= 0
                and (client_filter is None
                     or header.client_id in client_filter)):
            worklist[header.page_id].append((addr, header))

    return sink


def recover(ctx: RecoveryContext) -> RecoveryResult:
    """The one restart path: fused analysis, redo, chain-walk undo.

    The analysis scan files every redo candidate it passes under its
    page, so the redo range is not scanned a second time and redo loads
    each dirty page once; undo visits only the records on the losers'
    chains, found through the per-client ``<LSN, address>`` index.
    """
    fused: RedoWorklist = defaultdict(list)
    analysis = _analysis_phase(ctx, _candidate_sink(fused, ctx.client_filter))
    redo = _redo_phase(ctx, analysis, fused)
    losers = analysis.losers()
    if ctx.loser_filter is not None:
        losers = ctx.loser_filter(losers)
    return RecoveryResult(analysis, redo, _undo_phase(ctx, losers))
