"""Unit tests for the simulated network, RPC layer, and accounting."""

import pytest

from repro.config import SystemConfig
from repro.core.log_records import CommitRecord
from repro.core.system import ClientServerSystem
from repro.errors import LockConflictError, NodeUnavailableError
from repro.net.messages import MESSAGE_OVERHEAD, MsgType, payload_size
from repro.net.network import Network
from repro.net.rpc import (
    BatchCall,
    DeliveryOutcome,
    Envelope,
    FaultyTransport,
    ReliableTransport,
    RetryPolicy,
    RpcDispatcher,
    RpcError,
    Transport,
    UnknownRpcMethodError,
)
from repro.storage.page import Page, PageKind


class ScriptedTransport(Transport):
    """Plays back a fixed outcome sequence, then delivers forever."""

    name = "scripted"

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def plan(self, envelope, attempt):
        if self.outcomes:
            return self.outcomes.pop(0), 0.0
        return DeliveryOutcome.DELIVER, 0.0


def rpc_pair(transport=None, retry=None, trace_depth=0):
    """A two-node network with B serving ``echo`` and ``boom``."""
    net = Network(transport=transport, retry=retry, trace_depth=trace_depth)
    for node in ("A", "B"):
        net.register(node)
        net.attach(node, RpcDispatcher(node))
    server = net.dispatcher("B")
    server.register("echo", lambda sender, value: (sender, value))
    server.register("boom", lambda sender: (_ for _ in ()).throw(
        LockConflictError("R1", "X", ("other",))))
    return net, server


class TestAvailability:
    def test_send_between_up_nodes(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.send("A", "B", MsgType.ACK)
        assert net.stats.messages == 1

    def test_send_to_down_node_fails(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.crash("B")
        with pytest.raises(NodeUnavailableError):
            net.send("A", "B", MsgType.ACK)

    def test_send_from_down_node_fails(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.crash("A")
        with pytest.raises(NodeUnavailableError):
            net.send("A", "B", MsgType.ACK)

    def test_restore(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.crash("B")
        net.restore("B")
        net.send("A", "B", MsgType.ACK)

    def test_crash_unknown_node(self):
        net = Network()
        with pytest.raises(NodeUnavailableError):
            net.crash("ghost")

    def test_up_nodes(self):
        net = Network()
        for node in ("C", "A", "B"):
            net.register(node)
        net.crash("B")
        assert net.up_nodes() == ("A", "C")


class TestAccounting:
    def test_by_type_counts(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.send("A", "B", MsgType.PAGE_SHIP)
        net.send("A", "B", MsgType.PAGE_SHIP)
        net.send("B", "A", MsgType.ACK)
        assert net.stats.count(MsgType.PAGE_SHIP) == 2
        assert net.stats.count(MsgType.ACK) == 1
        assert net.stats.by_pair[("A", "B")] == 2

    def test_bytes_include_overhead(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.send("A", "B", MsgType.LOG_SHIP, b"12345")
        assert net.stats.bytes == MESSAGE_OVERHEAD + 5

    def test_reset(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.send("A", "B", MsgType.ACK)
        net.reset_stats()
        assert net.stats.messages == 0

    def test_snapshot_keys(self):
        net = Network()
        net.register("A")
        net.register("B")
        net.send("A", "B", MsgType.LOCK_REQUEST)
        snap = net.stats.snapshot()
        assert snap["messages"] == 1
        assert snap["lock-request"] == 1


class TestPayloadSize:
    def test_page_charged_at_full_block_size(self):
        """A page transfer ships the fixed-size block, not the compacted
        image — however empty the page is."""
        page = Page(1, PageKind.DATA, page_size=4096)
        page.insert_record(b"x" * 100)
        assert payload_size(page) == 4096
        small = Page(2, PageKind.DATA, page_size=1024)
        assert payload_size(small) == 1024

    def test_log_record_sized_by_encoding(self):
        record = CommitRecord(lsn=1, client_id="C", txn_id="T", prev_lsn=0)
        assert payload_size(record) > 0

    def test_collections_sum(self):
        assert payload_size([b"ab", b"cd"]) == 4
        assert payload_size(None) == 0
        assert payload_size(7) == 8
        assert payload_size("abc") == 3


class TestRpcExchange:
    def test_envelope_round_trip(self):
        net, server = rpc_pair()
        result = net.stub("A", "B").call("echo", MsgType.ACK,
                                         payload="hi", args=("hi",))
        assert result == ("A", "hi")
        assert server.invocations["echo"] == 1

    def test_request_leg_is_charged(self):
        net, _ = rpc_pair()
        net.stub("A", "B").call("echo", MsgType.LOG_SHIP,
                                payload=b"12345", args=(b"12345",))
        assert net.stats.messages == 1
        assert net.stats.bytes == MESSAGE_OVERHEAD + 5
        assert net.stats.count(MsgType.LOG_SHIP) == 1

    def test_uncharged_envelope_counts_nothing(self):
        net, server = rpc_pair()
        net.stub("A", "B").call("echo", MsgType.LSN_SYNC,
                                payload="x", args=("x",), charge=False)
        assert net.stats.messages == 0
        assert net.stats.bytes == 0
        assert server.invocations["echo"] == 1  # still dispatched

    def test_every_msg_type_dispatches(self):
        net, server = rpc_pair()
        for msg_type in MsgType:
            server.register(f"m_{msg_type.value}", lambda sender: msg_type.value)
        stub = net.stub("A", "B")
        for msg_type in MsgType:
            stub.call(f"m_{msg_type.value}", msg_type)
            assert net.stats.count(msg_type) == 1
        assert net.stats.messages == len(MsgType)
        assert net.stats.by_pair[("A", "B")] == len(MsgType)

    def test_unknown_method(self):
        net, _ = rpc_pair()
        with pytest.raises(UnknownRpcMethodError):
            net.stub("A", "B").call("no_such_method", MsgType.ACK)

    def test_domain_error_travels_back(self):
        net, _ = rpc_pair()
        with pytest.raises(LockConflictError):
            net.stub("A", "B").call("boom", MsgType.LOCK_REQUEST)

    def test_call_to_crashed_node(self):
        net, _ = rpc_pair()
        net.crash("B")
        with pytest.raises(NodeUnavailableError):
            net.stub("A", "B").call("echo", MsgType.ACK, args=("hi",))


class TestExactlyOnce:
    def test_retry_after_lost_response(self):
        """The handler ran; only its answer was lost.  The retry must be
        answered from the dedup cache, not re-executed."""
        net, server = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        calls = []
        server.register("append", lambda sender, v: calls.append(v) or len(calls))
        result = net.stub("A", "B").call("append", MsgType.LOG_SHIP,
                                         payload="r1", args=("r1",))
        assert calls == ["r1"]                    # executed exactly once
        assert result == 1
        assert server.invocations["append"] == 1
        assert server.duplicates_suppressed == 1
        assert net.stats.drops == 1
        assert net.stats.retries == 1
        assert net.stats.timeouts == 1

    def test_retry_after_lost_request(self):
        """The request never arrived: the retry is a first execution."""
        net, server = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_REQUEST))
        result = net.stub("A", "B").call("echo", MsgType.ACK,
                                         payload="v", args=("v",))
        assert result == ("A", "v")
        assert server.invocations["echo"] == 1
        assert server.duplicates_suppressed == 0  # nothing cached to hit
        assert net.stats.drops == 1

    def test_retried_request_charged_per_attempt(self):
        """Wire traffic is paid per attempt: a retry is a second message."""
        net, _ = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        net.stub("A", "B").call("echo", MsgType.ACK, payload=b"abc",
                                args=(b"abc",))
        # Both attempts delivered a request (only the response was lost
        # the first time), so both request legs are charged.
        assert net.stats.messages == 2
        assert net.stats.bytes == 2 * (MESSAGE_OVERHEAD + 3)

    def test_error_response_is_deduplicated_too(self):
        net, server = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        with pytest.raises(LockConflictError):
            net.stub("A", "B").call("boom", MsgType.LOCK_REQUEST)
        assert server.invocations["boom"] == 1
        assert server.duplicates_suppressed == 1

    def test_failed_response_is_cached_without_traceback(self):
        """A domain error is cached, and marked for shipping, as plain
        data: no traceback pins the handler's frames while it lives."""
        _, server = rpc_pair()
        server.changed = set()
        envelope = Envelope(request_id=1, src="A", dst="B",
                            msg_type=MsgType.LOCK_REQUEST, method="boom")
        response = server.dispatch(envelope, 1)
        assert not response.ok
        assert isinstance(response.error, LockConflictError)
        assert response.error.__traceback__ is None
        # The slot entry is what a ship snapshots for the standby.
        assert server.slots == {"A": {1: response}}
        assert server.changed == {"A"}
        # A retry is answered from the cache with the same bare error.
        assert server.dispatch(envelope, 1).error.__traceback__ is None
        assert server.invocations["boom"] == 1

    def test_stub_raise_leaves_no_frame_cycle(self):
        """Re-raising a cached error must not tie the stub's frame to
        the exception in a cycle: once the caller and the cache drop it,
        reference counting frees it, with the collector off."""
        import gc
        import weakref

        net, server = rpc_pair()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(LockConflictError) as info:
                net.stub("A", "B").call("boom", MsgType.LOCK_REQUEST)
            error = weakref.ref(info.value)
            del info
            server.slots.clear()
            assert error() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_timeout_escalates_to_unavailable(self):
        net, server = rpc_pair(
            transport=ScriptedTransport(*[DeliveryOutcome.DROP_REQUEST] * 100),
            retry=RetryPolicy(max_retries=3, backoff_base=1.0, timeout=10.0))
        with pytest.raises(NodeUnavailableError):
            net.stub("A", "B").call("echo", MsgType.ACK, args=("v",))
        assert server.invocations["echo"] == 0    # nothing ever arrived
        assert net.stats.timeouts == 4            # initial try + 3 retries
        assert net.stats.retries == 3
        assert net.stats.retries_exhausted == 1
        # Simulated waiting: 4 timeouts of 10 + backoffs 1 + 2 + 4.
        assert net.stats.delay_total == pytest.approx(47.0)

    def test_complex_default_schedule(self):
        """A default complex retries 8 times, doubling from 1 to 128
        units with no cap and no jitter, then gives up."""
        system = ClientServerSystem(SystemConfig())
        system.network.transport = ScriptedTransport(
            *[DeliveryOutcome.DROP_REQUEST] * 100)
        with pytest.raises(NodeUnavailableError):
            system.network.stub("C1", system.server.node_id).call(
                "get_page", MsgType.PAGE_REQUEST, args=(1,))
        stats = system.network.stats
        assert stats.timeouts == 9
        assert stats.retries == 8
        assert stats.backoff_ticks == 255         # 1 + 2 + ... + 128
        assert stats.delay_total == pytest.approx(345.0)  # 9 * 10 + 255



class TestReplySlots:
    """One reply slot per sender, truncated at each exchange's floor."""

    @staticmethod
    def send(dispatcher, src, request_id):
        return dispatcher.dispatch(
            Envelope(request_id=request_id, src=src, dst="B",
                     msg_type=MsgType.ACK, method="f"), request_id)

    def test_new_exchange_evicts_the_senders_older_replies(self):
        dispatcher = RpcDispatcher("B")
        dispatcher.register("f", lambda sender: "ok")
        for request_id in range(1, 5):
            self.send(dispatcher, "A", request_id)
        assert list(dispatcher.slots["A"]) == [4]
        # The acknowledged request would re-execute; the last would not.
        self.send(dispatcher, "A", 4)
        assert dispatcher.duplicates_suppressed == 1
        self.send(dispatcher, "A", 3)
        assert dispatcher.invocations["f"] == 5

    def test_other_senders_slots_are_untouched(self):
        dispatcher = RpcDispatcher("B")
        dispatcher.register("f", lambda sender: "ok")
        self.send(dispatcher, "A", 1)
        self.send(dispatcher, "C", 2)
        self.send(dispatcher, "A", 3)
        assert {src: list(slot) for src, slot in dispatcher.slots.items()} \
            == {"A": [3], "C": [2]}
        self.send(dispatcher, "C", 2)
        assert dispatcher.duplicates_suppressed == 1
        assert dispatcher.invocations["f"] == 3

    def test_batch_sub_call_retried_after_its_siblings_ran(self):
        """The batch id is every sub-call's floor, so sub-calls 2 and 3
        do not evict sub-call 1, whose response leg was lost."""
        net, server = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        calls = []
        server.register("append",
                        lambda sender, v: calls.append(v) or len(calls))
        results = net.stub("A", "B").call_batch(
            [BatchCall("append", MsgType.LOG_SHIP, args=(v,))
             for v in ("r1", "r2", "r3")])
        assert results == [1, 2, 3]
        assert calls == ["r1", "r2", "r3"]
        assert server.invocations["append"] == 3
        assert server.duplicates_suppressed == 1
        assert net.stats.retries == 1

    def test_nested_exchange_keeps_the_outer_reply(self):
        """A's outer request is still in its handler when A starts a
        nested exchange; the nested one's higher floor cannot evict a
        reply not yet stored, and the outer retry hits the slot."""
        net, server = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        stub = net.stub("A", "B")
        server.register("outer", lambda sender: stub.call(
            "echo", MsgType.ACK, args=("inner",)))
        assert stub.call("outer", MsgType.ACK) == ("A", "inner")
        assert server.invocations["outer"] == 1
        assert server.invocations["echo"] == 1
        assert server.duplicates_suppressed == 1
        assert sorted(server.slots["A"]) == [1, 2]


class TestTransports:
    def test_reliable_always_delivers(self):
        transport = ReliableTransport()
        envelope = Envelope(request_id=1, src="A", dst="B",
                            msg_type=MsgType.ACK, method="f")
        for attempt in range(5):
            assert transport.plan(envelope, attempt) == \
                (DeliveryOutcome.DELIVER, 0.0)

    def test_faulty_is_seeded_deterministic(self):
        envelope = Envelope(request_id=1, src="A", dst="B",
                            msg_type=MsgType.ACK, method="f")
        first = FaultyTransport(seed=7, drop_rate=0.3, delay_rate=0.2)
        second = FaultyTransport(seed=7, drop_rate=0.3, delay_rate=0.2)
        assert [first.plan(envelope, i) for i in range(200)] == \
            [second.plan(envelope, i) for i in range(200)]

    def test_faulty_drops_both_legs(self):
        envelope = Envelope(request_id=1, src="A", dst="B",
                            msg_type=MsgType.ACK, method="f")
        transport = FaultyTransport(seed=1, drop_rate=0.5)
        outcomes = {transport.plan(envelope, 0)[0] for _ in range(300)}
        assert outcomes == {DeliveryOutcome.DELIVER,
                            DeliveryOutcome.DROP_REQUEST,
                            DeliveryOutcome.DROP_RESPONSE}

    def test_faulty_rejects_certain_loss(self):
        with pytest.raises(RpcError):
            FaultyTransport(drop_rate=1.0)
        with pytest.raises(RpcError):
            FaultyTransport(drop_rate=-0.1)

    def test_faulty_network_still_completes_exchanges(self):
        net, server = rpc_pair(
            transport=FaultyTransport(seed=42, drop_rate=0.3))
        stub = net.stub("A", "B")
        for i in range(50):
            assert stub.call("echo", MsgType.ACK, payload=i, args=(i,)) \
                == ("A", i)
        assert server.invocations["echo"] == 50
        assert net.stats.drops > 0                # faults actually fired


class TestSnapshotAndTrace:
    def test_snapshot_reports_bytes_by_type_and_pairs(self):
        net, _ = rpc_pair()
        net.stub("A", "B").call("echo", MsgType.LOG_SHIP,
                                payload=b"1234", args=(b"1234",))
        net.send("B", "A", MsgType.PAGE_SHIP, b"12")
        snap = net.stats.snapshot()
        assert snap["log-ship"] == 1
        assert snap["log-ship.bytes"] == MESSAGE_OVERHEAD + 4
        assert snap["page-ship.bytes"] == MESSAGE_OVERHEAD + 2
        assert snap["A->B"] == 1
        assert snap["B->A"] == 1
        # Reliable transport: no fault keys polluting the report.
        assert "drops" not in snap
        assert "retries" not in snap

    def test_snapshot_includes_fault_counters_when_nonzero(self):
        net, _ = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE))
        net.stub("A", "B").call("echo", MsgType.ACK, args=("v",))
        snap = net.stats.snapshot()
        assert snap["drops"] == 1
        assert snap["retries"] == 1

    def test_trace_ring_buffer(self):
        net, _ = rpc_pair(
            transport=ScriptedTransport(DeliveryOutcome.DROP_RESPONSE),
            trace_depth=8)
        net.stub("A", "B").call("echo", MsgType.ACK, payload="v", args=("v",))
        trace = list(net.stats.trace)
        assert len(trace) == 2
        assert trace[0].outcome == "drop-response"
        assert trace[0].attempt == 0
        assert trace[1].outcome == "deliver"
        assert trace[1].attempt == 1
        assert trace[0].request_id == trace[1].request_id

    def test_trace_depth_bounds_the_buffer(self):
        net, _ = rpc_pair(trace_depth=3)
        stub = net.stub("A", "B")
        for i in range(10):
            stub.call("echo", MsgType.ACK, args=(i,))
        assert len(net.stats.trace) == 3
        assert net.stats.trace[-1].seq == 10

    def test_trace_disabled_by_default(self):
        net, _ = rpc_pair()
        net.stub("A", "B").call("echo", MsgType.ACK, args=("v",))
        assert net.stats.trace is None

    def test_message_trace_rendering(self):
        from repro.tools.logdump import message_trace
        net, _ = rpc_pair(trace_depth=8)
        net.stub("A", "B").call("echo", MsgType.ACK, payload="v", args=("v",))
        text = message_trace(net)
        assert "A->B" in text
        assert "echo" in text
        assert "deliver" in text
        plain = Network()
        assert "disabled" in message_trace(plain)
