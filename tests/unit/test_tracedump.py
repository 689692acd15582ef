"""Unit tests: tracedump's span reassembly, timelines, and exit codes."""

import json

import pytest

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.obs.export import read_jsonl, to_jsonl
from repro.obs.tracer import Tracer
from repro.tools.tracedump import (
    build_spans,
    main as cli_main,
    recovery_timelines,
    span_tree,
    summarize,
)
from repro.workloads.generator import seed_table


def synthetic_trace():
    tracer = Tracer()
    root = tracer.begin("recovery", "server-restart", "server",
                        failed_clients=["C1"])
    inner = tracer.begin("recovery", "analysis", "server", start_addr=0)
    tracer.instant("log", "append", "server", addr=0)
    tracer.end(inner, records_scanned=3, by_client={"C1": 3},
               redo_addr=0, end_addr=120, dpl_size=1)
    tracer.end(root, total_records=3)
    return tracer


class TestBuildSpans:
    def test_forest_shape_and_instants(self):
        roots = build_spans(synthetic_trace().events)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "server-restart"
        assert root.end_args == {"total_records": 3}
        (child,) = root.children
        assert child.name == "analysis"
        assert child.end_args["records_scanned"] == 3
        (instant,) = child.instants
        assert instant["name"] == "append"

    def test_accepts_jsonl_rows(self):
        tracer = synthetic_trace()
        rows = read_jsonl(to_jsonl(tracer.events))
        from_rows = span_tree(rows)
        from_events = span_tree(tracer.events)
        assert from_rows == from_events

    def test_empty_stream(self):
        assert "no spans" in span_tree([])
        assert "no recovery spans" in recovery_timelines([])


class TestRenderings:
    def test_span_tree_nesting_and_args(self):
        text = span_tree(synthetic_trace().events, instants=True)
        lines = text.splitlines()
        assert lines[0] == "span tree:"
        assert "recovery:server-restart" in lines[1]
        # The child is indented deeper than the root.
        root_indent = len(lines[1]) - len(lines[1].lstrip())
        child_line = next(ln for ln in lines if "recovery:analysis" in ln)
        assert len(child_line) - len(child_line.lstrip()) > root_indent
        assert any("@ 3" in ln and "log:append" in ln for ln in lines)

    def test_summary_counts(self):
        text = summarize(synthetic_trace().events)
        assert "recovery:server-restart" in text
        assert "(2 spans, 1 instants)" in text


class TestRecoveryTimeline:
    def test_client_crash_run_renders_attribution(self):
        """An E5-style run: the timeline shows all three passes with the
        failed client's name attached to scanned/redone/CLR counts."""
        system = ClientServerSystem(
            SystemConfig(trace_enabled=True, client_checkpoint_interval=4),
            client_ids=["C1", "C2"],
        )
        system.bootstrap(data_pages=4, free_pages=4)
        rids = seed_table(system, "C1", "t", 4, 2)
        client = system.client("C1")
        for i in range(6):
            txn = client.begin()
            client.update(txn, rids[i % len(rids)], f"v{i}")
            client.commit(txn)
        doomed = client.begin()
        client.update(doomed, rids[0], "doomed")
        client._ship_log_records()
        system.crash_client("C1")

        text = recovery_timelines(system.probe.tracer.events)
        assert "recovery timeline: client-recovery (client=C1)" in text
        for pass_name in ("analysis", "redo", "undo"):
            assert any(line.strip().startswith(pass_name)
                       for line in text.splitlines())
        # Undo rolled back the doomed transaction, attributed to C1.
        undo_line = next(line for line in text.splitlines()
                         if line.strip().startswith("undo"))
        assert "C1=" in undo_line
        assert "total log records processed:" in text
        # The redo line names records considered and pages fetched, so
        # records per page fetched is readable from the trace alone.
        header = next(line for line in text.splitlines()
                      if line.strip().startswith("pass"))
        redo_line = next(line for line in text.splitlines()
                         if line.strip().startswith("redo"))
        redo = dict(zip(header.split(), redo_line.split()))
        assert 1 <= int(redo["pages"]) <= int(redo["considered"])


class TestCliExitCodes:
    """The CLI contract: 0 success, 1 validation failure, 2 usage."""

    def test_demo_exits_zero(self, capsys):
        assert cli_main(["--demo"]) == 0
        assert "span tree:" in capsys.readouterr().out

    def test_no_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([])
        assert excinfo.value.code == 2

    def test_metrics_without_demo_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--metrics"])
        assert excinfo.value.code == 2

    def test_invalid_trace_exits_one(self, tmp_path, capsys):
        # A B with no matching E renders fine but fails the Chrome
        # trace_event validation -- the exit code must say so.
        row = {"tick": 1, "ph": "B", "cat": "c", "name": "n",
               "node": "server", "span": 1, "parent": -1, "args": {}}
        trace = tmp_path / "broken.jsonl"
        trace.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert cli_main([str(trace)]) == 1
        assert "TRACE INVALID" in capsys.readouterr().out

    def test_demo_metrics_renders_valid_openmetrics(self, capsys):
        assert cli_main(["--demo", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_txn_latency_ticks histogram" in out
        assert "repro_log_force_bytes_sum" in out
        assert out.splitlines()[-1] == "# EOF"
        assert "OPENMETRICS INVALID" not in out

    def test_demo_flight_dumps_rings(self, capsys):
        assert cli_main(["--demo", "--flight"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["reason"] == "tracedump"
        assert "server" in dump["nodes"]
