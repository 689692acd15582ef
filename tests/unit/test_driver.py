"""Tests for the large-scale workload driver (repro.workloads.driver)."""

import random

import pytest

from repro.config import SystemConfig
from repro.workloads import (
    DriverSpec, ZipfSampler, build_system, generate_wave, run_driver,
)
from repro.workloads.driver import client_ids_for


SMALL = DriverSpec(clients=12, ops_per_txn=3, table_pages=8,
                   records_per_page=4)


class TestZipfSampler:
    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.99)

    def test_samples_in_range_and_deterministic(self):
        sampler = ZipfSampler(50, 0.99)
        a = [sampler.sample(random.Random(7)) for _ in range(20)]
        b = [sampler.sample(random.Random(7)) for _ in range(20)]
        assert a == b
        assert all(0 <= i < 50 for i in a)

    def test_skew_prefers_low_indexes(self):
        rng = random.Random(3)
        sampler = ZipfSampler(100, 1.2)
        draws = [sampler.sample(rng) for _ in range(2000)]
        low = sum(1 for d in draws if d < 10)
        assert low > len(draws) * 0.4


class TestClientNaming:
    def test_zero_padded_and_sorted(self):
        ids = client_ids_for(1000)
        assert ids[0] == "W00000"
        assert ids[-1] == "W00999"
        assert ids == sorted(ids)


class TestDriverDeterminism:
    def test_same_seed_identical_reports(self):
        a = run_driver(SMALL)
        b = run_driver(SMALL)
        assert a == b

    def test_different_seed_differs(self):
        base = run_driver(SMALL)
        other = run_driver(
            SMALL, config=SystemConfig(seed=99,
                                       client_checkpoint_interval=0,
                                       server_checkpoint_interval=0,
                                       llm_cache_locks=False,
                                       rpc_batching=True))
        # Outcome counts can coincide, but the sampled programs differ
        # in at least latency shape for 12 clients over a tiny table.
        assert base != other or base.latency_ticks != other.latency_ticks

    def test_wave_generation_is_pure(self):
        system, rids = build_system(SMALL)
        ids = client_ids_for(SMALL.clients)
        a = generate_wave(SMALL, rids, 0, ids, random.Random(5))
        b = generate_wave(SMALL, rids, 0, ids, random.Random(5))
        assert a == b


class TestDriverExecution:
    def test_all_programs_resolve(self):
        report = run_driver(SMALL)
        assert report.programs == SMALL.clients
        assert (report.committed + report.aborted
                + report.deadlock_victims) == report.programs
        assert report.ops == SMALL.clients * SMALL.ops_per_txn

    def test_abort_fraction_produces_aborts(self):
        spec = DriverSpec(clients=20, ops_per_txn=2, abort_fraction=1.0,
                          table_pages=8, records_per_page=4)
        report = run_driver(spec)
        # Every program that survives to its terminal op aborts; the
        # rest were already sacrificed to deadlock resolution.
        assert report.committed == 0
        assert report.aborted + report.deadlock_victims == 20
        assert report.aborted > 0

    def test_churn_between_waves(self):
        spec = DriverSpec(clients=10, ops_per_txn=2, waves=3,
                          churn_rate=0.2, table_pages=8,
                          records_per_page=4)
        report = run_driver(spec)
        assert report.waves == 3
        assert report.churned == 4  # 2 waves x max(1, 10*0.2)
        assert report.programs == 30

    def test_polling_executor_supported(self):
        """Both executors drain the whole workload.  Under contention
        their interleavings (and so their victim counts) legitimately
        differ; bit-for-bit parity is pinned on conflict-free programs
        in tests/integration/test_engine_parity.py."""
        for executor in ("engine", "polling"):
            report = run_driver(SMALL, executor=executor)
            assert (report.committed + report.aborted
                    + report.deadlock_victims) == SMALL.clients
            assert report.committed > 0

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_driver(SMALL, executor="quantum")

    def test_p95_latency_of_empty_report_is_zero(self):
        from repro.workloads import DriverReport
        assert DriverReport().p95_latency_ticks() == 0

    def test_batching_config_changes_no_outcomes(self):
        """rpc_batching has no effect any more (the commit request is a
        single message either way); outcomes must be unchanged."""
        unbatched = run_driver(
            SMALL, config=SystemConfig(client_checkpoint_interval=0,
                                       server_checkpoint_interval=0,
                                       llm_cache_locks=False,
                                       rpc_batching=False))
        batched = run_driver(SMALL)
        assert unbatched.committed == batched.committed
        assert unbatched.deadlock_victims == batched.deadlock_victims
