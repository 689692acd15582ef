"""Property: the per-client address index is the filtered log scan.

``ServerLogManager.scan_client_headers(c, a, b)`` must yield exactly the
records ``scan_headers(a, b)`` yields with ``header.client_id == c`` —
same addresses, same headers, same order — for every client and every
range.  Failed-client redo, the in-doubt stash and the rollback fetch
all read one client's records through it, so a record missing from the
index is an update recovery silently skips.

Every generated history drives the index through each way it is built:

* a client crash and reconnect, which restarts that client's LSN stream
  (the pair lists drop the repeated LSNs; the index must not) and has
  the server write CLRs in the failed client's name;
* a whole-complex crash, after which restart refiles the survivors'
  tails and rebuilds the rest with ``observe_during_restart``;
* a failover, where the promoted server adopts the standby's log
  manager as is (``log_bookkeeping_intact=True``).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.log_records import SERVER_ID
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table
from tests.conftest import plain_headers as plain

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

CLIENTS = ("C1", "C2")

#: One transaction: (client 0/1, rid choice, outcome).
#: Outcomes: 0 = commit, 1 = rollback, 2 = strand (left in flight).
segment = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 2)),
    min_size=1, max_size=6)
#: Range end points, reduced modulo the number of interesting addresses.
ranges = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                  min_size=2, max_size=6)


class History:
    """A two-client replicated complex driven one segment at a time."""

    def __init__(self):
        config = SystemConfig(replication_enabled=True,
                              client_buffer_frames=4,
                              server_buffer_frames=6,
                              client_checkpoint_interval=3,
                              server_checkpoint_interval=0,
                              max_lsn_sync_period=4)
        self.system = ClientServerSystem(config, client_ids=CLIENTS)
        self.system.bootstrap(data_pages=4, free_pages=4)
        self.rids = seed_table(self.system, "C1", "t", 4, 3)
        #: rid -> client whose in-flight transaction holds its lock.
        self.stranded = {}
        self.serial = 0

    def run(self, steps):
        """Clients own alternating rids; a rid locked by a stranded
        transaction is skipped, so no step ever waits."""
        for who, rid_index, outcome in steps:
            client = self.system.client(CLIENTS[who])
            mine = [rid for index, rid in enumerate(self.rids)
                    if index % 2 == who and rid not in self.stranded]
            if not mine:
                continue
            rid = mine[rid_index % len(mine)]
            self.serial += 1
            txn = client.begin(f"t-{self.serial}")
            client.update(txn, rid, ("step", self.serial))
            if outcome == 0:
                client.commit(txn)
            elif outcome == 1:
                client.rollback(txn)
            else:
                self.stranded[rid] = CLIENTS[who]
                client._ship_log_records()
                self.system.server.log.force()

    def strand(self, client_id):
        """Make sure ``client_id`` dies with undo work outstanding."""
        who = CLIENTS.index(client_id)
        if client_id not in self.stranded.values():
            self.run([(who, 0, 2)])

    def crash_and_reconnect_client(self, client_id):
        self.strand(client_id)
        report = self.system.crash_client(client_id)
        assert report.clrs_written >= 1  # server CLRs, filed under the client
        self.system.reconnect_client(client_id)
        self.stranded = {rid: owner for rid, owner in self.stranded.items()
                         if owner != client_id}

    def crash_and_restart_all(self):
        self.system.crash_all()
        self.system.restart_all()
        self.stranded = {}

    def fail_over(self):
        self.system.crash_server()
        self.system.replication.run_failover()


def check_index(system, spans):
    log = system.server.log
    stable = log.stable
    frames = list(stable._index)
    assert frames, "the history must have logged something"
    # Frame starts, the byte after each (ranges need not land on a frame
    # boundary), and both ends of the log.
    points = sorted({0, stable.end_of_log_addr, *frames,
                     *(addr + 1 for addr in frames)})
    windows = [(0, None), (stable.low_water_addr, stable.end_of_log_addr)]
    windows += [(points[lo % len(points)], points[hi % len(points)])
                for lo, hi in spans]
    for client_id in CLIENTS + (SERVER_ID, "nobody"):
        for lo, hi in windows:
            expected = plain(
                (addr, header) for addr, header in log.scan_headers(lo, hi)
                if header.client_id == client_id)
            assert plain(log.scan_client_headers(client_id, lo, hi)) \
                == expected
            assert plain(log.scan_client_headers(
                client_id, lo, hi, newest_first=True)) == expected[::-1]


class TestClientIndexSoundness:
    @SLOW
    @given(st.lists(segment, min_size=4, max_size=4), st.booleans(),
           st.sampled_from(CLIENTS), ranges)
    def test_index_equals_filtered_scan_through_every_rebuild(
            self, segments, client_crash_first, victim, spans):
        history = History()
        system = history.system
        failures = [lambda: history.crash_and_reconnect_client(victim),
                    history.crash_and_restart_all]
        if not client_crash_first:
            failures.reverse()
        # The transplant goes last: a promoted server has no standby.
        failures.append(history.fail_over)

        for steps, fail in zip(segments, failures):
            history.run(steps)
            check_index(system, spans)
            fail()
            check_index(system, spans)
        history.run(segments[-1])
        check_index(system, spans)

        # The ingredients really were in the log.
        log = system.server.log
        assert any(header.type_tag == "CLR"
                   for _, header in log.scan_client_headers(victim))
        assert system.replication.failovers == 1
