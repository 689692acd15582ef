"""Smoke tests: every experiment runs and its claimed shape holds.

The benchmarks re-run these at larger scale; here each experiment runs
small and the *direction* of every paper claim is asserted, so a
regression in any policy path fails fast.
"""

import pytest

from repro.harness import experiments as X


def by(rows, **filters):
    out = [
        row for row in rows
        if all(row[key] == value for key, value in filters.items())
    ]
    assert out, f"no rows match {filters}"
    return out


class TestExperimentShapes:
    def test_e1_commit_traffic_shape(self):
        rows = X.run_e1_commit_traffic(write_set_sizes=(1, 8), num_txns=5,
                                       table_pages=12)
        csa_small = by(rows, system="ARIES/CSA", write_set=1)[0]
        csa_large = by(rows, system="ARIES/CSA", write_set=8)[0]
        esm_large = by(rows, system="ESM-CS", write_set=8)[0]
        ostore_large = by(rows, system="ObjectStore-style", write_set=8)[0]
        # CSA ships no pages at commit, regardless of write-set size.
        assert csa_small["pages_shipped_at_commit"] == 0
        assert csa_large["pages_shipped_at_commit"] == 0
        assert csa_large["messages_per_commit"] == csa_small["messages_per_commit"]
        # ESM-CS ships pages and scales with the write set.
        assert esm_large["pages_shipped_at_commit"] > 0
        assert esm_large["messages_per_commit"] > csa_large["messages_per_commit"]
        # ObjectStore additionally writes to disk at commit.
        assert ostore_large["disk_writes"] > 0
        assert csa_large["disk_writes"] == 0

    def test_e2_cache_retention_shape(self):
        rows = X.run_e2_cache_retention(num_txns=6, working_pages=6,
                                        revisits=2)
        csa = by(rows, system="ARIES/CSA")[0]
        esm = by(rows, system="ESM-CS")[0]
        assert csa["cache_hit_rate"] > esm["cache_hit_rate"]
        assert csa["page_refetches"] == 0
        assert esm["page_refetches"] > 0

    def test_e3_rollback_locality_shape(self):
        rows = X.run_e3_rollback_locality(abort_rates=(0.3,), num_txns=20)
        csa = by(rows, system="ARIES/CSA")[0]
        esm = by(rows, system="ESM-CS")[0]
        assert csa["server_undo_records"] == 0
        assert csa["client_undo_records"] > 0
        assert esm["server_undo_records"] > 0
        assert esm["client_undo_records"] == 0

    def test_e4_commit_lsn_shape(self):
        rows = X.run_e4_commit_lsn(sync_periods=(1, 64), num_read_txns=15)
        disabled = by(rows, variant="disabled")[0]
        fast = by(rows, variant="period=1")[0]
        slow = by(rows, variant="period=64")[0]
        assert disabled["locks_avoided"] == 0
        assert fast["locks_avoided"] > slow["locks_avoided"]
        assert fast["avoided_fraction"] > 0.5

    def test_e5_client_recovery_shape(self):
        rows = X.run_e5_client_recovery(ckpt_intervals=(4,),
                                        committed_before_crash=40)
        frequent = [r for r in rows if "every 4" in r["variant"]][0]
        glm = [r for r in rows if "GLM" in r["variant"]][0]
        assert frequent["log_records_processed"] < glm["log_records_processed"]
        # Both variants recover correctly (undo exactly the loser).
        assert frequent["clrs_written"] == glm["clrs_written"] == 1

    def test_e6_server_checkpoint_shape(self):
        rows = X.run_e6_server_checkpoint()
        safe = [r for r in rows if "ARIES/CSA" in r["variant"]][0]
        unsafe = [r for r in rows if "strawman" in r["variant"]][0]
        assert safe["committed_updates_lost"] == 0
        assert unsafe["committed_updates_lost"] > 0

    def test_e7_page_realloc_shape(self):
        rows = X.run_e7_page_realloc(churn_keys=48)
        row = rows[0]
        assert row["lsn_monotonicity_violations"] == 0
        assert row["pages_deallocated"] > 0
        assert row["keys_after_crash_recovery"] == 48

    def test_e8_buffer_policies_shape(self):
        rows = X.run_e8_buffer_policies(buffer_frames=(16,), num_txns=20)
        csa = by(rows, system="ARIES/CSA")[0]
        ostore = by(rows, system="ObjectStore-style")[0]
        assert csa["disk_writes"] < ostore["disk_writes"]

    def test_e9_page_recovery_shape(self):
        rows = X.run_e9_page_recovery(updates_since_clean=(2, 16),
                                      background_updates=20)
        small = by(rows, updates_since_disk_version=2)[0]
        large = by(rows, updates_since_disk_version=16)[0]
        assert small["records_applied"] == 2
        assert large["records_applied"] == 16
        # Cost tracks distance-from-clean, not total log size.
        assert small["records_applied"] < small["log_records_total"]

    def test_e10_lsn_assignment_shape(self):
        rows = X.run_e10_lsn_assignment(num_txns=8, ops_per_txn=5)
        local = [r for r in rows if "local" in r["variant"]][0]
        remote = [r for r in rows if "round trip" in r["variant"]][0]
        assert local["lsn_round_trips"] == 0
        # One round trip per log record: at least every update record.
        assert remote["lsn_round_trips"] >= 8 * 5
        assert remote["messages"] > local["messages"] * 2

    def test_e4_per_table_shape(self):
        rows = X.run_e4_per_table(num_read_txns=10)
        global_row = [r for r in rows if "global" in r["variant"]][0]
        per_table = [r for r in rows if "per-table" in r["variant"]][0]
        assert per_table["locks_avoided"] > global_row["locks_avoided"]

    def test_e11_forwarding_shape(self):
        rows = X.run_e11_forwarding(handoffs=12, pages=6)
        baseline = [r for r in rows if "baseline" in r["variant"]][0]
        forwarding = [r for r in rows if "forwarding" in r["variant"]][0]
        assert forwarding["forwards"] > 0 and baseline["forwards"] == 0
        assert forwarding["page_ships"] <= baseline["page_ships"]

    def test_e12_lock_caching_shape(self):
        rows = X.run_e12_lock_caching(num_txns=15)
        uncached = [r for r in rows if "no caching" in r["variant"]][0]
        cached = [r for r in rows if "LLM" in r["variant"]][0]
        assert cached["lock_requests_to_server"] < \
            uncached["lock_requests_to_server"]

    def test_e13_log_replay_shape(self):
        rows = X.run_e13_log_replay(num_txns=12)
        images = [r for r in rows if "page images" in r["variant"]][0]
        replay = [r for r in rows if "log replay" in r["variant"]][0]
        assert replay["bytes_to_server"] < images["bytes_to_server"]
        assert replay["records_replayed_at_server"] > 0

    def test_f1_architecture_trace_shape(self):
        rows = X.run_f1_architecture_trace()
        flows = {row["flow"] for row in rows}
        # The Figure 1 flows: pages down, log records up, one log.
        assert "page-request" in flows
        assert "page-ship" in flows
        assert "log-ship" in flows
        assert "commit-request" in flows


class TestMessageTablesAtDefaultSize:
    """The two section 4 message tables, at the sizes EXPERIMENTS.md
    and ``python -m repro.harness.run_all`` report."""

    def test_e1_csa_below_objectstore_below_esm(self):
        rows = X.run_e1_commit_traffic()
        for size in (1, 4, 16):
            csa = by(rows, system="ARIES/CSA", write_set=size)[0]
            ostore = by(rows, system="ObjectStore-style", write_set=size)[0]
            esm = by(rows, system="ESM-CS", write_set=size)[0]
            assert csa["messages_per_commit"] < \
                ostore["messages_per_commit"] < esm["messages_per_commit"]

    def test_e12_caching_below_no_caching(self):
        rows = X.run_e12_lock_caching()
        uncached = [r for r in rows if "no caching" in r["variant"]][0]
        cached = [r for r in rows if "LLM" in r["variant"]][0]
        assert cached["messages"] < uncached["messages"]
        assert cached["lock_requests_to_server"] < \
            uncached["lock_requests_to_server"]
