"""Integration: how many frames a recovery parses, pinned exactly.

Frame parsing (``StableLog.full_decodes`` and ``header_peeks``) is a
large share of the CPU a client recovery or a server restart spends.
These counts pin how many frames each outage reads, so a faster parser
shows up as the same counts at a lower cost per frame, never as fewer or
different frames read.  A change to the parser must leave them exactly
as they are; only a change to what recovery reads may move them.
"""

from repro.config import SystemConfig
from repro.core import log_records
from repro.core.system import ClientServerSystem
from repro.workloads.generator import (
    WorkloadSpec,
    generate_programs,
    run_program_sequential,
    seed_table,
)
from repro.storage.stable_log import StableLog

RECORDS_PER_PAGE = 8


def _complex(config, clients, pages):
    ids = [f"C{i}" for i in range(clients)]
    system = ClientServerSystem(config, client_ids=ids)
    system.bootstrap(data_pages=pages, free_pages=16)
    rids = seed_table(system, ids[0], "t", pages, RECORDS_PER_PAGE)
    return system, ids, rids


def _run_round_robin(system, ids, programs):
    for turn in range(max(len(p) for p in programs)):
        for client_id, mine in zip(ids, programs):
            if turn < len(mine):
                run_program_sequential(system, client_id, mine[turn])


def _in_flight(system, client_id, rids, tag):
    client = system.client(client_id)
    txn = client.begin()
    for rid in rids:
        client.update(txn, rid, f"{tag}-{rid}")
    return txn


def _parse_delta(system, action):
    log = system.server.log.stable
    decodes, peeks = log.full_decodes, log.header_peeks
    report = action()
    return (log.full_decodes - decodes, log.header_peeks - peeks,
            report.redos_applied, report.analysis_records,
            report.redo_records_scanned)


def _client_recovery_complex():
    """Four clients on private working sets; C1 crashes with an update
    in flight, for the server to recover from C1's own records."""
    pages_each = 8
    system, ids, rids = _complex(SystemConfig(seed=0), 4, 4 * pages_each)
    size = pages_each * RECORDS_PER_PAGE
    programs = [
        generate_programs(WorkloadSpec(
            num_txns=60, ops_per_txn=16, read_fraction=0.75,
            abort_fraction=0.05, seed=i, value_prefix=f"c{i}"),
            rids[i * size:(i + 1) * size - 8])
        for i in range(4)
    ]
    _run_round_robin(system, ids, programs)
    spare = rids[2 * size - 8:2 * size]
    _in_flight(system, "C1", spare[:4], "inflight")
    system.client("C1").crash()
    return system


def test_client_recovery_parse_counts():
    system = _client_recovery_complex()
    delta = _parse_delta(
        system, lambda: system.server.recover_failed_client("C1"))
    # Peeks are the analysis scan plus the redo range's own scan of
    # C1's index: 274 + 322.  Decodes are one walk of each applied
    # record's frame, whether or not the decode LRU holds the record,
    # plus one decode through ``read_at``: 267 + 1.  Redo files nothing
    # in the LRU, so the reads after it still find the recent appends.
    assert delta == (268, 596, 267, 274, 322)


def test_server_restart_parse_counts():
    """Half the clients go down with the server; the survivors' work is
    redone and the losers' in-flight updates are undone."""
    config = SystemConfig(client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          llm_cache_locks=False, seed=0)
    system, ids, rids = _complex(config, 4, 32)
    programs = generate_programs(WorkloadSpec(
        num_txns=160, ops_per_txn=4, read_fraction=0.5, seed=0),
        rids[:-16])
    _run_round_robin(system, ids, [programs[i::4] for i in range(4)])
    spare = rids[-16:]
    for i, client_id in enumerate(ids):
        _in_flight(system, client_id, spare[3 * i:3 * i + 2], "inflight")
    for client_id in ids[:2]:
        system.client(client_id).crash()
    system.crash_server()
    delta = _parse_delta(system, system.restart_server)
    # One fused analysis scan peeks every frame once (and the undo
    # chains a few more).  Redo walks exactly the frames it applies,
    # the four updates the surviving clients re-ship during restart
    # (which the decode LRU holds) included; undo decodes the four
    # losers' updates: 588 + 4.
    assert delta == (592, 976, 588, 972, 0)


def test_client_recovery_parses_each_prefix_once(monkeypatch):
    """Every prefix parse is a header peek or a decode through
    ``read_at``: redo applies a peeked record from its frame, walking
    the body from where the peek stopped, so no frame's prefix is
    parsed twice."""
    system = _client_recovery_complex()
    log = system.server.log.stable
    parses = 0
    parse_prefix = log_records._parse_prefix

    def counting_parse(*args):
        nonlocal parses
        parses += 1
        return parse_prefix(*args)

    read_at_decodes = 0
    read_at = StableLog.read_at

    def counting_read_at(self, addr):
        nonlocal read_at_decodes
        before = self.full_decodes
        record = read_at(self, addr)
        read_at_decodes += self.full_decodes - before
        return record

    monkeypatch.setattr(log_records, "_parse_prefix", counting_parse)
    monkeypatch.setattr(StableLog, "read_at", counting_read_at)
    decodes, peeks = log.full_decodes, log.header_peeks
    system.server.recover_failed_client("C1")
    decodes, peeks = log.full_decodes - decodes, log.header_peeks - peeks
    assert parses == peeks + read_at_decodes
    # The rest of the decodes are redo's, which parse no prefix.
    assert (parses, peeks, read_at_decodes, decodes) == (597, 596, 1, 268)
