"""Property tests: histogram and time-series states are deterministic.

Mirrors ``test_trace_determinism``: instruments consume only logical
ticks and seed-derived values, so two runs of the same seed must
serialize *byte-identical* hub states — including across a crash and
recovery, which fills the restart-progress series and the per-pass
record histograms.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_scenario(seed: int, crash_mode: str) -> ClientServerSystem:
    """A seeded workload ending in a crash + recovery, fully metered."""
    config = SystemConfig(metrics_enabled=True, seed=seed,
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


class TestMetricsDeterminism:
    @SLOW
    @given(st.integers(0, 2 ** 16), st.sampled_from(["client", "all"]))
    def test_same_seed_same_hub_bytes(self, seed, crash_mode):
        first = run_scenario(seed, crash_mode)
        second = run_scenario(seed, crash_mode)
        assert first.probe.metrics is not None and second.probe.metrics is not None
        state_a = first.probe.metrics.state_json()
        state_b = second.probe.metrics.state_json()
        assert state_a.encode("utf-8") == state_b.encode("utf-8")

    @SLOW
    @given(st.integers(0, 2 ** 16))
    def test_recovery_fills_the_instruments(self, seed):
        system = run_scenario(seed, "all")
        hub = system.probe.metrics
        # Three passes ran (analysis, redo, undo) on the restart.
        assert hub.recovery_pass_records.count >= 3
        # The progress meter sampled at least the analysis total, and
        # its meta carries the restart's log extent.
        assert hub.restart_progress.last() is not None
        assert hub.restart_progress.meta["log_extent"] > 0
        # Commits forced the log, so force sizes were observed.
        assert hub.log_force_bytes.count > 0
