"""The RPC layer's accounting, pinned to exact counts.

The typed RPC layer (repro.net.rpc) replaced direct method calls with
envelope dispatch; under the default ReliableTransport request legs are
charged by Network.call exactly where a message used to be counted,
payload-bearing response legs keep their in-handler charges, and
piggyback interactions travel as uncharged envelopes.

These tests pin the E1 and E10 experiment outputs.  The values were
first captured from the direct-call implementation; they were re-pinned
once, when the commit request started carrying the client's log tail
(one message per commit instead of a log ship plus a force: 1.1 instead
of 2.2 messages per ARIES/CSA commit, 48 bytes of envelope overhead
fewer per folded message).  If any accounting site moves — a charge
added, dropped, or double counted — these numbers shift and the tests
fail.
"""

import pytest

from repro.harness.experiments import run_e1_commit_traffic, run_e10_lsn_assignment

# (system, write_set) -> (messages_per_commit, bytes_per_commit,
#                         pages_shipped_at_commit, disk_writes)
E1_BASELINE = {
    ("ARIES/CSA", 1): (1.1, 386, 0, 0),
    ("ARIES/CSA", 4): (1.1, 761, 0, 0),
    ("ARIES/CSA", 16): (1.1, 2204, 0, 0),
    ("ESM-CS", 1): (6.0, 8742, 10, 0),
    ("ESM-CS", 4): (18.0, 34317, 40, 0),
    ("ESM-CS", 16): (66.0, 136560, 160, 0),
    ("ObjectStore-style", 1): (3.1, 4501, 10, 10),
    ("ObjectStore-style", 4): (6.1, 17308, 40, 40),
    ("ObjectStore-style", 16): (18.1, 68479, 160, 160),
    # Group commit batches device forces only; its wire profile is
    # identical to plain ARIES/CSA (the batching shows up in the
    # forces_saved/group_forces columns instead).
    ("ARIES/CSA (group commit)", 1): (1.1, 386, 0, 0),
    ("ARIES/CSA (group commit)", 4): (1.1, 761, 0, 0),
    ("ARIES/CSA (group commit)", 16): (1.1, 2204, 0, 0),
}

# variant -> (lsn_round_trips, messages, messages_per_update)
E10_BASELINE = {
    "local (ARIES/CSA)": (0, 21, 0.13125),
    "server round trip": (202, 223, 1.39375),
}


class TestE1Parity:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_e1_commit_traffic()

    def test_covers_every_baseline_cell(self, rows):
        assert {(r["system"], r["write_set"]) for r in rows} \
            == set(E1_BASELINE)

    def test_counters_identical_to_direct_call_era(self, rows):
        for row in rows:
            expected = E1_BASELINE[(row["system"], row["write_set"])]
            observed = (row["messages_per_commit"], row["bytes_per_commit"],
                        row["pages_shipped_at_commit"], row["disk_writes"])
            assert observed == pytest.approx(expected), \
                f"{row['system']} ws={row['write_set']}: {observed} != {expected}"


class TestE10Parity:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_e10_lsn_assignment()

    def test_counters_identical_to_direct_call_era(self, rows):
        assert len(rows) == len(E10_BASELINE)
        for row in rows:
            expected = E10_BASELINE[row["variant"]]
            observed = (row["lsn_round_trips"], row["messages"],
                        row["messages_per_update"])
            assert observed == pytest.approx(expected), \
                f"{row['variant']}: {observed} != {expected}"
