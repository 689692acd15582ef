"""Reply slots stay bounded by live senders, however long the history.

A replicated complex runs over a lossy transport while clients crash
and reconnect and short-lived clients come, commit and fail.  After a
short history and after one ten times longer, the server's and the
standby's dedup tables hold one slot per live sender at most, and a
promotion installs the same number of entries.  Exactly-once is
unchanged: ``duplicates_suppressed`` and ``invocations`` equal a run on
the same seed whose dispatcher never truncates a slot (the behaviour of
an unbounded request-id cache).
"""

import random

import pytest

from repro.config import SystemConfig, TransportPolicy
from repro.core.system import ClientServerSystem
from repro.net.rpc import RpcDispatcher

BASE_CLIENTS = ("C1", "C2", "C3")
SEED = 7


def committed(system, client_id, rid=None, value="v"):
    client = system.client(client_id)
    txn = client.begin()
    if rid is None:
        rid = client.insert(txn, system.table_pages("t")[0], value)
    else:
        client.update(txn, rid, value)
    client.commit(txn)
    return rid


def churn(steps):
    config = SystemConfig(
        replication_enabled=True, seed=SEED,
        transport_policy=TransportPolicy.FAULTY,
        transport_drop_rate=0.05, transport_seed=SEED)
    system = ClientServerSystem(config, client_ids=BASE_CLIENTS)
    system.bootstrap(data_pages=8)
    system.create_table("t", 8)
    rng = random.Random(SEED)
    rids = {cid: committed(system, cid) for cid in BASE_CLIENTS}
    for step in range(steps):
        cid = rng.choice(BASE_CLIENTS)
        if step % 7 == 3:
            system.crash_client(cid)
            system.reconnect_client(cid)
        elif step % 11 == 5:
            temp = f"T{step}"
            system.add_client(temp)
            committed(system, temp)
            system.crash_client(temp)
        else:
            committed(system, cid, rids[cid], f"{cid}-{step}")
    for cid in BASE_CLIENTS:
        committed(system, cid, rids[cid], "last")
    system.replication.ship()
    return system


def live_senders(system):
    return {cid for cid, client in system.clients.items()
            if not client.crashed}


def slot_counts(system):
    server = system.server.dispatcher.slots
    standby = system.replication.standby.shipped_dedup()
    return len(server), len(standby)


def promote(system):
    system.crash_server()
    promoted = system.replication.run_failover()
    return sum(len(slot) for slot in promoted.dispatcher.slots.values())


def counters(system):
    dispatcher = system.server.dispatcher
    return dispatcher.duplicates_suppressed, dict(dispatcher.invocations)


class TestReplySlotBound:
    def test_tables_are_bounded_by_live_senders(self):
        installed = []
        for steps in (12, 120):
            system = churn(steps)
            assert system.network.stats.drops > 0
            live = live_senders(system)
            assert set(BASE_CLIENTS) == live
            assert len(system.clients) > len(live)
            server, standby = slot_counts(system)
            assert server <= len(live)
            assert standby <= len(live)
            installed.append(promote(system))
        assert installed[0] == installed[1]

    @pytest.mark.parametrize("steps", [12, 120])
    def test_exactly_once_counters_match_an_untruncated_cache(
            self, steps, monkeypatch):
        slotted = counters(churn(steps))
        # Dispatch with floor 0 and never forget: every reply is kept.
        dispatch = RpcDispatcher.dispatch
        monkeypatch.setattr(RpcDispatcher, "dispatch",
                            lambda self, envelope, floor: dispatch(
                                self, envelope, 0))
        monkeypatch.setattr(RpcDispatcher, "forget", lambda self, sender: None)
        assert counters(churn(steps)) == slotted
        assert slotted[0] > 0
