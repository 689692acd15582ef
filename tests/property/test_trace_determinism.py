"""Property tests: the trace is deterministic and tells the truth.

Two properties over seeded crash-fuzz runs with tracing enabled:

* **determinism** — the logical tick clock carries no wall time, so two
  runs of the same seed must serialize to *byte-identical* JSONL traces;
* **honest counters** — the recovery-pass spans report exactly what the
  stable log says happened.  Restart is one scan: the analysis span's
  ``records_scanned`` equals the log's index-arithmetic count over
  ``[start_addr, end_addr)``, the redo span's counts only the part of
  ``[redo_addr, end_addr)`` analysis did not already visit — so the two
  together count every record of the redo range exactly once — and the
  undo span's counts the chain records visited, not a backward scan.
  Failed-client recovery reads that uncovered part through the client's
  address index, so there the redo span counts the failed client's
  records in it and nobody else's.
  Every per-client attribution map sums to its span total.
"""

import random
from itertools import islice

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.obs.export import to_jsonl
from repro.tools.tracedump import build_spans
from repro.workloads.generator import seed_table

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_scenario(seed: int, crash_mode: str) -> ClientServerSystem:
    """A seeded workload ending in a crash + recovery, fully traced."""
    config = SystemConfig(trace_enabled=True, seed=seed,
                          client_buffer_frames=5,
                          client_checkpoint_interval=3)
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    rng = random.Random(seed)
    for round_index in range(rng.randint(4, 10)):
        client = system.client(rng.choice(["C1", "C2"]))
        txn = client.begin()
        for _ in range(rng.randint(1, 3)):
            client.update(txn, rids[rng.randrange(len(rids))],
                          ("w", round_index))
        if rng.random() < 0.8:
            client.commit(txn)
        else:
            client.rollback(txn)
    # Leave one transaction in flight so undo has real work to do.
    doomed_owner = system.client("C1")
    doomed = doomed_owner.begin()
    doomed_owner.update(doomed, rids[0], ("doomed", seed))
    doomed_owner._ship_log_records()
    if crash_mode == "client":
        system.crash_client("C1")
    else:
        system.crash_all()
        system.restart_all()
    return system


class TestTraceDeterminism:
    @SLOW
    @given(st.integers(0, 2 ** 16), st.sampled_from(["client", "all"]))
    def test_same_seed_same_bytes(self, seed, crash_mode):
        first = run_scenario(seed, crash_mode)
        second = run_scenario(seed, crash_mode)
        assert first.probe.tracer is not None and second.probe.tracer is not None
        jsonl_a = to_jsonl(first.probe.tracer.events)
        jsonl_b = to_jsonl(second.probe.tracer.events)
        assert jsonl_a.encode("utf-8") == jsonl_b.encode("utf-8")

    @SLOW
    @given(st.integers(0, 2 ** 16), st.sampled_from(["client", "all"]))
    def test_recovery_spans_match_log_arithmetic(self, seed, crash_mode):
        system = run_scenario(seed, crash_mode)
        assert system.probe.tracer is not None
        stable = system.server.log.stable
        recoveries = [root for root in build_spans(system.probe.tracer.events)
                      if root.cat == "recovery"]
        assert recoveries, "the scenario must produce a recovery span"
        for root in recoveries:
            passes = {child.name: child for child in root.children
                      if child.cat == "recovery"}
            assert set(passes) == {"analysis", "redo", "undo"}
            analysis = passes["analysis"].end_args
            redo = passes["redo"].end_args
            undo = passes["undo"].end_args

            # Per-client attribution must account for every counted unit.
            assert sum(analysis["by_client"].values()) == \
                analysis["records_scanned"]
            assert sum(redo["by_client"].values()) + \
                redo.get("forwarded_redos", 0) == redo["pages_redone"]
            assert sum(undo["by_client"].values()) == undo["clrs_written"]

            # One scan: redo visits only the records of [redo_addr,
            # end_addr) the analysis scan (which ends at end_addr) did
            # not already hand it.
            redo_range = stable.records_between(
                analysis["redo_addr"], analysis["end_addr"])
            uncovered = max(0, redo_range - analysis["records_scanned"])
            if root.name == "client-recovery":
                # ... and of those, only the failed client's own: the
                # range is read through its address index.
                failed = root.begin_args["client"]
                headers = islice(stable.scan_headers(analysis["redo_addr"]),
                                 uncovered)
                uncovered = sum(1 for _addr, header in headers
                                if header.client_id == failed)
            assert redo["records_scanned"] == uncovered
            assert redo["pages_visited"] <= min(
                analysis["dpl_size"], redo["records_considered"])

            # Undo walks the losers' chains by address.  No loser here
            # has a partly compensated chain, so every record visited
            # is one undone — a backward scan would have counted more.
            assert undo["records_scanned"] == undo["clrs_written"]

            if root.name == "server-restart":
                # Restart analysis scans every record in [start, end).
                assert analysis["records_scanned"] == \
                    stable.records_between(
                        passes["analysis"].begin_args["start_addr"],
                        analysis["end_addr"])
                assert root.end_args["total_records"] == (
                    analysis["records_scanned"] + redo["records_scanned"]
                    + undo["records_scanned"])
