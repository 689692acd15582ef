"""Codec work on the replicated commit path and at checkpoints.

A log record travels client -> primary log -> ship -> standby log ->
apply.  It is encoded once, on its way to the wire, and every later
hop reuses those bytes: the primary's and the standby's appends, the
ship sizing, the ship's read of the unshipped tail and the standby's
apply read all handle the record object, and no frame is decoded.  The
standby decodes a replica page from its disk only on first touch, and
an apply round encodes each page image it writes exactly once.

The replicated load mirrors the ``replicated_commit`` benchmark
workload: four clients, each updating its own partition of a 64-page
table, replication with synchronous commit, no checkpoints.  The
checkpointed load mirrors ``cad_sessions``: four clients on private
working sets under the default configuration, so clients checkpoint
every 16 commits and the server every 512 appends.
"""

import pytest

from repro.config import SystemConfig
from repro.core import log_records
from repro.core.client import Client
from repro.core.server import Server
from repro.core.system import ClientServerSystem
from repro.storage.page import Page
from repro.workloads.generator import (
    WorkloadSpec,
    debit_credit_programs,
    generate_programs,
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


def test_apply_round_encodes_each_written_page_once(monkeypatch):
    system, schedule = replicated_load()
    drive(system, schedule[:40])
    standby = system.replication.standby
    encodes = []
    real_to_bytes = Page.to_bytes

    def counting_to_bytes(page):
        encodes.append(page.page_id)
        return real_to_bytes(page)

    monkeypatch.setattr(Page, "to_bytes", counting_to_bytes)
    rounds = []
    real_apply = standby.apply_tail

    def counting_apply():
        encoded, written = len(encodes), standby.disk.writes
        applied = real_apply()
        rounds.append((len(encodes) - encoded,
                       standby.disk.writes - written))
        return applied

    monkeypatch.setattr(standby, "apply_tail", counting_apply)

    drive(system, schedule[40:])

    assert len(rounds) > 10
    assert sum(written for _, written in rounds) > len(rounds)
    assert [encoded for encoded, _ in rounds] == [
        written for _, written in rounds]


def checkpointed_load():
    """A seeded complex under the default configuration, and a
    round-robin schedule over private working sets."""
    config = SystemConfig(seed=3)
    assert config.client_checkpoint_interval == 16
    assert config.server_checkpoint_interval > 0
    ids = [f"C{i}" for i in range(CLIENTS)]
    system = ClientServerSystem(config, client_ids=ids)
    system.bootstrap(data_pages=PAGES, free_pages=16)
    rids = seed_table(system, ids[0], "cad", PAGES, 8)
    size = len(rids) // CLIENTS
    programs = [generate_programs(WorkloadSpec(
        num_txns=TXNS_PER_CLIENT * 2, ops_per_txn=16, read_fraction=0.75,
        abort_fraction=0.05, seed=i, value_prefix=f"c{i}"),
        rids[i * size:(i + 1) * size]) for i in range(CLIENTS)]
    schedule = [(ids[i], programs[i][turn])
                for turn in range(TXNS_PER_CLIENT * 2)
                for i in range(CLIENTS)]
    return system, schedule


def test_checkpoints_take_their_writers(encoder_runs, monkeypatch):
    """Every frame of a checkpointed load has a writer: none reaches
    the generic encoding of its fields.  A client's End_Checkpoint is
    encoded twice, for its wire sizing and after the server rewrites
    its RecLSNs; every other checkpoint record once."""
    system, schedule = checkpointed_load()
    for client_id, program in schedule[:40]:
        run_program_sequential(system, client_id, program)
    generic = []
    real_fields = log_records._frame_fields

    def counting_fields(record):
        generic.append(record)
        return real_fields(record)

    monkeypatch.setattr(log_records, "_frame_fields", counting_fields)
    checkpoints = {"client": 0, "server": 0}

    def counted(kind, method):
        def wrapper(self):
            checkpoints[kind] += 1
            return method(self)
        return wrapper

    monkeypatch.setattr(Client, "take_checkpoint",
                        counted("client", Client.take_checkpoint))
    monkeypatch.setattr(Server, "take_checkpoint",
                        counted("server", Server.take_checkpoint))
    encoder_runs.clear()

    outcomes = [run_program_sequential(system, client_id, program)
                for client_id, program in schedule[40:]]

    assert outcomes.count("committed") > len(outcomes) * 0.9
    assert checkpoints["client"] >= 20
    assert checkpoints["server"] >= 1
    assert generic == []
    kinds = [type(record) for record in encoder_runs]
    assert kinds.count(log_records.EndCheckpointRecord) == (
        2 * checkpoints["client"] + checkpoints["server"])
    assert kinds.count(log_records.BeginCheckpointRecord) == (
        checkpoints["client"] + checkpoints["server"])
