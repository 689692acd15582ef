"""Applying log records to pages: redo, physical undo, CLR redo.

This is the single implementation of "what an update means", shared by
forward processing, normal rollback, and every recovery pass — the
repeating-history discipline of ARIES depends on redo reproducing
exactly the change forward processing made.

Redo is page-oriented and conditional on ``page_LSN < record.LSN``
(section 1.1.1's monotonic page_LSN is what makes this test valid even
though LSNs are no longer log addresses).  Undo of record operations is
physical; undo of index operations is *logical* (section 1.1.2) and
lives with the B+-tree — here we only supply the physical pieces and the
CLR construction they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import codec
from repro.core.log_records import CompensationRecord, UpdateOp, UpdateRecord
from repro.core.lsn import LSN
from repro.errors import RecoveryInvariantError
from repro.storage import space_map
from repro.storage.page import Page, PageKind


def redo_needed(page: Page, record_lsn: LSN) -> bool:
    """The ARIES redo test: is the record's effect missing from this image?"""
    return page.page_lsn < record_lsn


def apply_redo_effect(page: Page, lsn: LSN, op: Optional[UpdateOp],
                      slot: int, after: Optional[bytes],
                      key: Optional[bytes], page_kind: Optional[str]) -> None:
    """Make one redoable record's change to ``page`` and stamp its LSN.

    Takes the record's effect as fields, so redo can apply a record
    straight from its frame (``log_records.redo_effect``) without
    building it.  A dummy CLR (``op is None``) has no page effect.
    """
    if op is None:
        raise RecoveryInvariantError(
            f"dummy CLR {lsn} has no page effect to apply"
        )
    _apply_op(page, op, slot, after, key, page_kind)
    page.page_lsn = lsn


def apply_redo(page: Page, record: UpdateRecord) -> None:
    """Apply an update record's forward effect to ``page``.

    The caller must have checked :func:`redo_needed`; applying blindly
    would corrupt the slotted structure (e.g. double insert).  Sets
    page_LSN to the record's LSN.
    """
    apply_redo_effect(page, record.lsn, record.op, record.slot, record.after,
                      record.key, record.page_kind)


def apply_clr_redo(page: Page, clr: CompensationRecord) -> None:
    """Apply a CLR's (compensating) effect to ``page``.

    CLRs are redo-only: this is the only way their change is ever made.
    """
    apply_redo_effect(page, clr.lsn, clr.op, clr.slot, clr.after, clr.key,
                      None)


@dataclass(frozen=True)
class UndoEffect:
    """What undoing one update record does, expressed as CLR ingredients.

    ``op``/``slot``/``after`` describe the *compensating* physical change
    (so a CLR built from them redoes the undo); ``page_id`` may differ
    from the original record's page for logical undo.
    """

    page_id: int
    op: UpdateOp
    slot: int
    after: Optional[bytes]
    key: Optional[bytes] = None


#: Inverse physical operation per forward operation.
_PHYSICAL_INVERSE = {
    UpdateOp.RECORD_INSERT: UpdateOp.RECORD_DELETE,
    UpdateOp.RECORD_MODIFY: UpdateOp.RECORD_MODIFY,
    UpdateOp.RECORD_DELETE: UpdateOp.RECORD_INSERT,
    UpdateOp.SMP_ALLOCATE: UpdateOp.SMP_DEALLOCATE,
    UpdateOp.SMP_DEALLOCATE: UpdateOp.SMP_ALLOCATE,
    UpdateOp.META_SET: UpdateOp.META_SET,
    UpdateOp.INDEX_INSERT: UpdateOp.INDEX_DELETE,
    UpdateOp.INDEX_DELETE: UpdateOp.INDEX_INSERT,
}


def physical_undo_effect(record: UpdateRecord) -> UndoEffect:
    """Compute the compensating change for a physically undoable record.

    Raises for redo-only records (page formats, nested-top-action pieces)
    — those are never undone individually.
    """
    if record.redo_only:
        raise RecoveryInvariantError(
            f"record {record.lsn} ({record.op.value}) is redo-only, cannot undo"
        )
    if record.op is UpdateOp.PAGE_FORMAT:
        raise RecoveryInvariantError("page formats are redo-only")
    inverse = _PHYSICAL_INVERSE[record.op]
    if record.op in (UpdateOp.RECORD_INSERT, UpdateOp.INDEX_INSERT):
        after = None
    elif record.op in (UpdateOp.RECORD_DELETE, UpdateOp.INDEX_DELETE,
                       UpdateOp.RECORD_MODIFY, UpdateOp.META_SET):
        after = record.before
    elif record.op is UpdateOp.SMP_ALLOCATE:
        after = bytes([space_map.FREE])
    else:  # SMP_DEALLOCATE
        after = bytes([space_map.ALLOCATED])
    return UndoEffect(
        page_id=record.page_id, op=inverse, slot=record.slot,
        after=after, key=record.key,
    )


def apply_undo_effect(page: Page, effect: UndoEffect, clr_lsn: LSN) -> None:
    """Perform the compensating change and stamp the CLR's LSN."""
    _apply_op(page, effect.op, effect.slot, effect.after, effect.key, None)
    page.page_lsn = clr_lsn


# ---------------------------------------------------------------------------
# The single op executor
# ---------------------------------------------------------------------------

def _apply_op(page: Page, op: UpdateOp, slot: int,
              after: Optional[bytes], key: Optional[bytes],
              page_kind: Optional[str]) -> None:
    if op is UpdateOp.PAGE_FORMAT:
        if page_kind is None:
            raise RecoveryInvariantError("page-format record lacks a page kind")
        kind = PageKind(page_kind)
        # The LSN is stamped by the caller; formatting resets content only.
        page.format(kind, page_lsn=page.page_lsn)
        if kind is PageKind.SPACE_MAP:
            coverage = len(after) if after else 0
            space_map.format_smp(page, coverage)
        elif after:
            # Non-SMP formats may carry initial meta (e.g. index level).
            for meta_key, meta_value in codec.decode(after):
                page.set_meta(meta_key, meta_value)
        return
    if op in (UpdateOp.RECORD_INSERT, UpdateOp.INDEX_INSERT):
        if after is None:
            raise RecoveryInvariantError("insert op lacks an after-image")
        page.insert_record(after, slot=slot)
        return
    if op in (UpdateOp.RECORD_MODIFY,):
        if after is None:
            raise RecoveryInvariantError("modify op lacks an after-image")
        page.modify_record(slot, after)
        return
    if op in (UpdateOp.RECORD_DELETE, UpdateOp.INDEX_DELETE):
        page.delete_record(slot)
        return
    if op in (UpdateOp.SMP_ALLOCATE, UpdateOp.SMP_DEALLOCATE):
        state = space_map.ALLOCATED if op is UpdateOp.SMP_ALLOCATE else space_map.FREE
        space_map.set_bit(page, slot, state)
        return
    if op is UpdateOp.META_SET:
        if key is None:
            raise RecoveryInvariantError("meta-set op lacks a key")
        value = codec.decode(after) if after is not None else None
        page.set_meta(key.decode("utf-8"), value)
        return
    raise RecoveryInvariantError(f"unhandled update op {op}")
