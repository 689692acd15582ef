"""Unit tests for the log inspection tool."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.logdump import (
    dump_log,
    log_stats,
    page_history,
    summarize,
    transaction_history,
)


@pytest.fixture
def worked(seeded):
    system, rids = seeded
    client = system.client("C1")
    txn = client.begin()
    client.update(txn, rids[0], "committed-value")
    client.commit(txn)
    doomed = client.begin()
    client.update(doomed, rids[1], "doomed-value")
    client.rollback(doomed)
    inflight = client.begin()
    client.update(inflight, rids[2], "inflight-value")
    client._ship_log_records()
    return system, rids, txn, doomed, inflight


class TestDumpLog:
    def test_one_line_per_record(self, worked):
        system, *_ = worked
        text = dump_log(system.server)
        body = text.splitlines()[2:]
        assert len(body) == system.server.log.stable.record_count()

    def test_volatile_tail_marked(self, worked):
        system, *_ = worked
        text = dump_log(system.server)
        # The in-flight transaction's records are unforced.
        assert any(line.startswith("*") for line in text.splitlines()[2:])

    def test_limit(self, worked):
        system, *_ = worked
        text = dump_log(system.server, limit=3)
        assert "truncated" in text
        assert len(text.splitlines()) == 2 + 3 + 1


class TestTransactionHistory:
    def test_committed_chain(self, worked):
        system, rids, txn, *_ = worked
        text = transaction_history(system.server, txn.txn_id)
        assert "UPDATE" in text and "COMMIT" in text
        assert "committed" in text

    def test_rolled_back_chain_shows_clr(self, worked):
        system, rids, _, doomed, _ = worked
        text = transaction_history(system.server, doomed.txn_id)
        assert "CLR" in text
        assert "ended: aborted" in text

    def test_inflight_chain(self, worked):
        system, rids, *_, inflight = worked
        text = transaction_history(system.server, inflight.txn_id)
        assert "in flight" in text

    def test_unknown_txn(self, worked):
        system, *_ = worked
        assert "no records" in transaction_history(system.server, "ghost")


class TestPageHistory:
    def test_lists_updates_and_versions(self, worked):
        system, rids, *_ = worked
        text = page_history(system.server, rids[0].page_id)
        assert "UPDATE" in text
        assert "disk version" in text

    def test_flags_order_anomaly(self, worked):
        from repro.core.log_records import UpdateOp, UpdateRecord
        system, rids, *_ = worked
        bad = UpdateRecord(lsn=1, client_id="C1", txn_id="TX", prev_lsn=0,
                           page_id=rids[0].page_id,
                           op=UpdateOp.RECORD_MODIFY, slot=0,
                           before=b"a", after=b"b")
        system.server.log.stable.append(bad)
        text = page_history(system.server, rids[0].page_id)
        assert "ANOMALY" in text


class TestSummary:
    def test_counts_present(self, worked):
        system, *_ = worked
        text = summarize(system.server)
        assert "UpdateRecord" in text
        assert "CommitRecord" in text
        assert "total records" in text
        assert "volatile tail" in text


class TestLogStats:
    def test_per_type_and_per_client_totals_agree(self, worked):
        system, *_ = worked
        text = log_stats(system.server)
        assert "UpdateRecord" in text
        assert "C1" in text
        total = system.server.log.stable.record_count()
        assert f"{total:>6} records" in text
        # The two breakdowns and the total all cover the same bytes.
        end = system.server.log.end_of_log_addr
        low = system.server.log.stable.low_water_addr
        assert f"{end - low:>8} bytes" in text

    def test_stats_never_decode_records(self, worked):
        system, *_ = worked
        stable = system.server.log.stable
        decodes = stable.full_decodes
        log_stats(system.server)
        assert stable.full_decodes == decodes


class TestCommandLine:
    def test_module_runs_clean_under_warnings_as_errors(self):
        # ``python -m`` must not find the module already imported by its
        # package (runpy's RuntimeWarning).
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.tools.logdump",
             "--stats"],
            cwd=root, capture_output=True, text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "records" in proc.stdout
