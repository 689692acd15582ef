"""Unit tests for the report formatter and metrics snapshots."""

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.harness import metrics
from repro.harness.report import format_table, ratio
from repro.workloads.generator import seed_table


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = [{"name": "a", "value": 1}, {"name": "bbbb", "value": 22}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "value" in lines[0]
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_title(self):
        text = format_table([{"x": 1}], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "c" in header and "a" in header and "b" not in header
        assert header.index("c") < header.index("a")

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text

    def test_floats_fixed_precision(self):
        text = format_table([{"f": 0.123456}])
        assert "0.123" in text
        assert "0.1234" not in text

    def test_empty_rows(self):
        assert "no rows" in format_table([])

    def test_ratio_edge_cases(self):
        assert ratio(4, 2) == 2
        assert ratio(0, 0) == 1.0
        assert ratio(5, 0) == float("inf")


class TestMetricsSnapshot:
    @pytest.fixture
    def system(self):
        config = SystemConfig(client_checkpoint_interval=0,
                              server_checkpoint_interval=0)
        complex_ = ClientServerSystem(config, client_ids=["C1"])
        complex_.bootstrap(data_pages=2, free_pages=2)
        return complex_

    def test_snapshot_minus(self, system):
        rids = seed_table(system, "C1", "t", 2, 2)
        before = metrics.snapshot(system)
        client = system.client("C1")
        txn = client.begin()
        client.update(txn, rids[0], "x")
        client.commit(txn)
        delta = metrics.snapshot(system).minus(before)
        assert delta.commits == 1
        assert delta.log_appends >= 3      # update + commit (+ end later)
        assert delta.messages == 1        # the commit request alone

    def test_measure_helper(self, system):
        rids = seed_table(system, "C1", "t", 2, 2)
        client = system.client("C1")

        def work():
            txn = client.begin()
            client.read(txn, rids[0])
            client.commit(txn)

        delta = metrics.measure(system, work)
        assert delta.commits == 1

    def test_as_dict_round_trip(self, system):
        snap = metrics.snapshot(system)
        data = snap.as_dict()
        assert data["messages"] == snap.messages
        assert set(data) >= {"disk_reads", "log_forces", "commits"}

    def test_hit_rate_zero_when_no_accesses(self):
        snap = metrics.snapshot(
            ClientServerSystem(SystemConfig(), client_ids=["C1"]))
        assert snap.client_cache_hit_rate == 0.0
