"""Executable invariants: DESIGN.md section 6 as runtime checks.

``check_all`` audits a live complex for the structural properties the
recovery argument rests on.  The fuzzers call it after every recovery;
tests call it at interesting moments; it is cheap enough to sprinkle.
Each checker returns a list of violation strings (empty = healthy).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.log_records import CompensationRecord
from repro.core.system import ClientServerSystem
from repro.locking.lock_modes import LockMode


def check_wal(system: ClientServerSystem) -> List[str]:
    """No page version on disk may contain an update whose log record is
    not stable (invariant 3: write-ahead logging)."""
    violations = []
    log = system.server.log
    stable_max: Dict[int, int] = {}
    for addr, record in log.scan(0, log.flushed_addr):
        if record.is_redoable() and record.page_id >= 0:
            stable_max[record.page_id] = max(
                stable_max.get(record.page_id, 0), record.lsn
            )
    for page_id in system.server.disk.page_ids():
        disk_lsn = system.server.disk.stored_lsn(page_id)
        if disk_lsn is None or disk_lsn == 0:
            continue
        bound = stable_max.get(page_id, 0)
        if disk_lsn > bound:
            violations.append(
                f"WAL: disk page {page_id} at LSN {disk_lsn} exceeds the "
                f"stable log's max LSN {bound} for it"
            )
    return violations


def check_per_page_log_order(system: ClientServerSystem) -> List[str]:
    """Within the log, each page's records must appear in increasing LSN
    order (address order == application order per page) — what the redo
    pass's repeat-history discipline needs (invariant 4)."""
    violations = []
    last_lsn: Dict[int, int] = {}
    for addr, record in system.server.log.scan():
        if not record.is_redoable() or record.page_id < 0:
            continue
        previous = last_lsn.get(record.page_id)
        if previous is not None and record.lsn <= previous:
            violations.append(
                f"log order: page {record.page_id} has LSN {record.lsn} at "
                f"addr {addr} after LSN {previous}"
            )
        last_lsn[record.page_id] = record.lsn
    return violations


def check_lsn_streams(system: ClientServerSystem) -> List[str]:
    """Within the retained log, the LSNs filed under each client id must
    strictly increase in address order: a crashed node resumes its
    stream above everything already logged.  The server's per-client
    ``<LSN, address>`` index (section 2.5.2) and the Commit_LSN argument
    (section 3) rest on it."""
    violations = []
    last_lsn: Dict[str, int] = {}
    for addr, header in system.server.log.scan_headers():
        previous = last_lsn.get(header.client_id)
        if previous is not None and header.lsn <= previous:
            violations.append(
                f"LSN stream: {header.client_id} has LSN {header.lsn} at "
                f"addr {addr} after LSN {previous}"
            )
        last_lsn[header.client_id] = header.lsn
    return violations


def check_clr_chains(system: ClientServerSystem) -> List[str]:
    """Every CLR's UndoNxtLSN must point strictly below the record it
    compensates (bounded rollback logging, invariant 5)."""
    violations = []
    for addr, record in system.server.log.scan():
        if isinstance(record, CompensationRecord):
            if record.undo_next_lsn >= record.lsn:
                violations.append(
                    f"CLR at addr {addr} (lsn {record.lsn}) has "
                    f"UndoNxtLSN {record.undo_next_lsn} not below itself"
                )
    return violations


def check_cache_coherence(system: ClientServerSystem) -> List[str]:
    """A client's *clean* cached copy under an S token must match the
    server's authoritative version (invariant: S tokens guarantee
    freshness), and dirty copies must be at least as new."""
    violations = []
    for client_id, client in system.clients.items():
        if client.crashed:
            continue
        for page_id in client.pool.page_ids():
            bcb = client.pool.bcb(page_id)
            mode = client._p_locks.get(page_id)
            if mode is None:
                continue
            server_page = system.server.authoritative_page(page_id)
            if bcb.dirty or mode is LockMode.X:
                if bcb.page.page_lsn < server_page.page_lsn:
                    violations.append(
                        f"coherence: {client_id} holds {mode} on page "
                        f"{page_id} at LSN {bcb.page.page_lsn} but the server "
                        f"is newer ({server_page.page_lsn})"
                    )
            else:
                if bcb.page.page_lsn != server_page.page_lsn:
                    violations.append(
                        f"coherence: {client_id}'s clean S-token copy of page "
                        f"{page_id} (LSN {bcb.page.page_lsn}) diverges from "
                        f"the server's (LSN {server_page.page_lsn})"
                    )
    return violations


def check_privilege_exclusivity(system: ClientServerSystem) -> List[str]:
    """At most one X holder per page, and X excludes S holders."""
    violations = []
    glm = system.server.glm
    pages = set()
    for entry in glm.physical.entries():
        __, page_id = entry.resource  # type: ignore[misc]
        pages.add(page_id)
    for page_id in pages:
        holders = glm.p_lock_holders(page_id)
        x_holders = [o for o, m in holders.items() if m is LockMode.X]
        s_holders = [o for o, m in holders.items() if m is LockMode.S]
        if len(x_holders) > 1:
            violations.append(
                f"privilege: page {page_id} has multiple X holders {x_holders}"
            )
        if x_holders and s_holders:
            violations.append(
                f"privilege: page {page_id} has X holder {x_holders} beside "
                f"S holders {s_holders}"
            )
    return violations


def check_client_buffer_discipline(system: ClientServerSystem) -> List[str]:
    """A client must still hold every log record not yet stable at the
    server (the discard rule of section 2.1, invariant 8)."""
    violations = []
    flushed = system.server.log.flushed_addr
    for client_id, client in system.clients.items():
        if client.crashed:
            continue
        held = {record.lsn for record in client.log.buffered_records()}
        # Every shipped-but-unstable record must still be in the buffer.
        for addr, record in system.server.log.scan(flushed):
            if record.client_id == client_id and record.lsn not in held:
                violations.append(
                    f"discard rule: {client_id}'s record lsn {record.lsn} at "
                    f"unstable addr {addr} is no longer buffered"
                )
    return violations


ALL_CHECKS = (
    check_wal,
    check_per_page_log_order,
    check_lsn_streams,
    check_clr_chains,
    check_cache_coherence,
    check_privilege_exclusivity,
    check_client_buffer_discipline,
)


def check_all(system: ClientServerSystem) -> List[str]:
    """Run every invariant check; returns all violations."""
    violations: List[str] = []
    for check in ALL_CHECKS:
        violations.extend(check(system))
    return violations


def assert_invariants(system: ClientServerSystem) -> None:
    """Assert-style wrapper for tests and fuzzers."""
    violations = check_all(system)
    if violations:
        details = "\n  ".join(violations)
        raise AssertionError(f"invariants violated:\n  {details}")
