"""Property: the per-client log index is the filtered log scan.

``ServerLogManager.scan_client_headers(c, a, b)`` must yield exactly the
records ``scan_headers(a, b)`` yields with ``header.client_id == c`` —
same addresses, same headers, same order — for every client and every
range.  Failed-client redo, the in-doubt stash and the rollback fetch
all read one client's records through it, so a record missing from the
index is an update recovery silently skips.  ``addr_of_lsn`` and
``addr_for_rec_lsn`` must equal the same full scan searched for the
first record with that LSN, or with a larger one: undo follows chains
and RecLSNs become RecAddrs through them.

Every generated history drives the index through each way it is built:

* a client crash and reconnect, after which the server has written CLRs
  in the failed client's name and the client resumes its LSN stream;
* a whole-complex crash, after which restart rebuilds the index from
  the log with ``observe_during_restart``;
* a server-only crash, where restart re-appends the survivors' lost
  tails *before* the rebuild scan walks the log from its start;
* a log truncation, which cuts every client's index;
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

    def crash_and_restart_server(self):
        """Each client leaves an update appended but not forced, so the
        crash loses a tail the survivors hold and restart re-appends."""
        flushed = self.system.server.log.flushed_addr
        for who, client_id in enumerate(CLIENTS):
            client = self.system.client(client_id)
            free = [rid for index, rid in enumerate(self.rids)
                    if index % 2 == who and rid not in self.stranded]
            if not free:
                continue
            self.serial += 1
            txn = client.begin(f"t-{self.serial}")
            client.update(txn, free[0], ("tail", self.serial))
            client._ship_log_records()
            self.stranded[free[0]] = client_id
        assert self.system.server.log.end_of_log_addr > flushed
        self.system.crash_server()
        self.system.restart_server()

    def truncate(self):
        """Clean every page and checkpoint first, so the cut reaches
        past records of every client."""
        server = self.system.server
        for client_id in CLIENTS:
            client = self.system.client(client_id)
            for page_id in list(client.pool.page_ids()):
                client._ship_page(page_id)
        server.flush_all()
        server.take_checkpoint()
        server.truncate_log()

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
    check_lookups(log)


def check_lookups(log):
    """``addr_of_lsn`` and ``addr_for_rec_lsn`` against the full scan."""
    streams = {}
    for addr, header in log.scan_headers():
        streams.setdefault(header.client_id, []).append((addr, header.lsn))
    end = log.end_of_log_addr
    for client_id in CLIENTS + (SERVER_ID, "nobody"):
        stream = streams.get(client_id, [])
        probes = {0, 10 ** 9}
        for _, lsn in stream:
            probes.update((lsn - 1, lsn, lsn + 1))
        for lsn in sorted(probes):
            exact = [addr for addr, seen in stream if seen == lsn]
            assert log.addr_of_lsn(client_id, lsn) == \
                (exact[0] if exact else None)
            later = [addr for addr, seen in stream if seen > lsn]
            mapped = log.addr_for_rec_lsn(client_id, lsn)
            if later:
                assert mapped == later[0]
            elif stream:
                assert mapped == end
            else:
                # Unknown, or known with every record truncated away.
                assert mapped in (None, end)


class TestClientIndexSoundness:
    @SLOW
    @given(st.lists(segment, min_size=6, max_size=6),
           st.permutations(range(4)), st.sampled_from(CLIENTS), ranges)
    def test_index_equals_filtered_scan_through_every_rebuild(
            self, segments, order, victim, spans):
        history = History()
        system = history.system
        events = [lambda: history.crash_and_reconnect_client(victim),
                  history.crash_and_restart_all,
                  history.crash_and_restart_server,
                  history.truncate]
        failures = [events[index] for index in order]
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
