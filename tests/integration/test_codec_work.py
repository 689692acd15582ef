"""Codec work on the replicated commit path.

A log record travels client -> primary log -> ship -> standby log ->
apply.  It is encoded once, on its way to the wire, and every later
hop reuses those bytes: the primary's and the standby's appends, the
ship sizing, the ship's read of the unshipped tail and the standby's
apply read all handle the record object, and no frame is decoded.  The
standby decodes a replica page from its disk only on first touch.

The load mirrors the ``replicated_commit`` benchmark workload: four
clients, each updating its own partition of a 64-page table, replication
with synchronous commit, no checkpoints.
"""

import pytest

from repro.config import SystemConfig
from repro.core import log_records
from repro.core.system import ClientServerSystem
from repro.workloads.generator import (
    debit_credit_programs,
    run_program_sequential,
    seed_table,
)

CLIENTS = 4
PAGES = 64
TXNS_PER_CLIENT = 60


def replicated_load():
    """A seeded, warmed-up complex and its round-robin schedule."""
    config = SystemConfig(client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          replication_enabled=True, seed=3)
    ids = [f"C{i}" for i in range(CLIENTS)]
    system = ClientServerSystem(config, client_ids=ids)
    system.bootstrap(data_pages=PAGES, free_pages=16)
    rids = seed_table(system, ids[0], "accounts", PAGES, 8)
    size = len(rids) // CLIENTS
    programs = [debit_credit_programs(TXNS_PER_CLIENT,
                                      rids[i * size:(i + 1) * size], 4,
                                      seed=i)
                for i in range(CLIENTS)]
    schedule = [(ids[i], programs[i][turn])
                for turn in range(TXNS_PER_CLIENT) for i in range(CLIENTS)]
    return system, schedule


def drive(system, schedule):
    for client_id, program in schedule:
        assert run_program_sequential(system, client_id,
                                      program) == "committed"


@pytest.fixture
def encoder_runs(monkeypatch):
    """Every record object the encoder proper ran on."""
    runs = []
    real = log_records._encode_frame

    def counting(record):
        runs.append(record)
        return real(record)

    monkeypatch.setattr(log_records, "_encode_frame", counting)
    return runs


def test_commit_path_encodes_once_and_decodes_nothing(encoder_runs):
    system, schedule = replicated_load()
    warm, load = schedule[:40], schedule[40:]
    drive(system, warm)
    primary = system.server.log.stable
    standby = system.replication.standby
    replica = standby.log.stable
    appends = primary.appends
    decodes = (primary.full_decodes, replica.full_decodes)
    disk_reads = standby.disk.reads
    applied_pages = set(standby._pages)
    encoder_runs.clear()

    drive(system, load)

    appended = primary.appends - appends
    assert appended > len(load) * 4
    # One encoder run per appended record: the client's wire sizing
    # encodes it, and both logs and the ship reuse the frame.
    assert len(encoder_runs) == appended
    assert len({id(record) for record in encoder_runs}) == appended
    assert (primary.full_decodes, replica.full_decodes) == decodes
    # Replica pages are read from disk only on their first apply.
    assert system.replication.records_applied > 0
    touched = set(standby._pages) - applied_pages
    assert standby.disk.reads - disk_reads <= len(touched)
    assert replica.end_of_log_addr == primary.flushed_addr
