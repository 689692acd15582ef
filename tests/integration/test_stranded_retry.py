"""Regression guard: a stalled engine retries only stranded waiters.

A no-cycle stall requeues the parked transactions none of whose
waits-for targets is parked. Under strict 2PL a parked blocker keeps
its locks, so retrying a waiter behind it could only park again, at the
price of a GLM request, a lock-table conflict and often a callback
round. The driver run below must stay correct (every program commits or
is a deadlock victim, every record reads back its acknowledged value)
and keep the GLM traffic of the saving.
"""

from __future__ import annotations

from repro.workloads import DriverSpec, driver

#: ``acquire_lock`` invocations during this run: 768 when every parked
#: transaction was retried at a stall, 644 when only stranded ones are.
#: The bound sits halfway between.
ACQUIRE_LOCK_BOUND = (768 + 644) // 2


def tap_commits(client, acknowledged):
    """Record each transaction's updates, and file them as acknowledged
    once its commit returns."""
    update, commit = client.update, client.commit
    pending = {}

    def tapped_update(txn, rid, value):
        update(txn, rid, value)
        pending.setdefault(txn.txn_id, {})[rid] = value

    def tapped_commit(txn):
        commit(txn)
        acknowledged.update(pending.pop(txn.txn_id, {}))

    client.update, client.commit = tapped_update, tapped_commit


def test_driver_run_retries_only_stranded_waiters(monkeypatch):
    acknowledged = {}
    built = []
    build_system = driver.build_system

    def building(spec, config=None):
        system, rids = build_system(spec, config)
        acknowledged.update(
            (rid, system.current_value(rid)) for rid in rids)
        for client in system.clients.values():
            tap_commits(client, acknowledged)
        built.append(
            (system, rids, system.server.dispatcher.invocations.copy()))
        return system, rids

    monkeypatch.setattr(driver, "build_system", building)
    report = driver.run_driver(DriverSpec(clients=100, ordered_access=True))
    (system, rids, before), = built
    assert report.programs == 100
    assert report.committed + report.deadlock_victims == report.programs
    for rid in rids:
        assert system.current_value(rid) == acknowledged[rid], rid
    invocations = (system.server.dispatcher.invocations["acquire_lock"]
                   - before["acquire_lock"])
    assert invocations < ACQUIRE_LOCK_BOUND, invocations
