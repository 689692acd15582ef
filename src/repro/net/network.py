"""The simulated network: availability, transport policy, traffic accounting.

Interactions are synchronous request/response exchanges between node
objects, carried as :class:`~repro.net.rpc.Envelope` objects through
:meth:`Network.call`.  The network's jobs are (a) to refuse delivery to
crashed nodes, so failure paths behave like the real thing, (b) to apply
the configured :class:`~repro.net.rpc.Transport` policy — the reliable
default delivers every message; the faulty policy drops and delays them
— and (c) to count every message and byte, per type and per direction,
because the paper's comparative claims are fundamentally about traffic
avoided.

Accounting convention: :meth:`call` charges the *request* leg of each
charged envelope (one message, ``MESSAGE_OVERHEAD + payload_size``).
Handlers charge their own response legs via :meth:`send` when the
response carries a real payload (page ships, fetched log records) —
exactly where the pre-RPC code charged them — so counters are identical
to the direct-call era under the reliable transport.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import NodeUnavailableError
from repro.net.messages import MESSAGE_OVERHEAD, MsgType, payload_size
from repro.net.rpc import (
    BatchEnvelope,
    DeliveryOutcome,
    Envelope,
    MessageDroppedError,
    ReliableTransport,
    Response,
    RetryPolicy,
    RpcDispatcher,
    RpcStub,
    StaleEpochError,
    Transport,
)
from repro.probe import Probe


@dataclass(frozen=True)
class TraceEntry:
    """One delivery attempt in the ring-buffer message trace."""

    seq: int
    request_id: int
    src: str
    dst: str
    msg_type: MsgType
    method: str
    size: int
    attempt: int
    outcome: str            # "deliver" / "drop-request" / "drop-response"
    delay: float
    charged: bool


@dataclass
class TrafficStats:
    """Aggregate counters, sliceable by message type and node pair.

    Message/byte counters cover charged request and response legs (the
    paper's traffic model).  The fault counters — drops, retries,
    timeouts, delay — cover the transport's behavior underneath, and the
    optional ring-buffer ``trace`` records the last N delivery attempts
    for post-mortem rendering by ``tools.logdump.message_trace``.
    """

    messages: int = 0
    bytes: int = 0
    by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    by_pair: Counter = field(default_factory=Counter)

    # -- transport-fault counters --------------------------------------
    #: Messages lost by the transport (either leg of an exchange).
    drops: int = 0
    #: Exchanges re-attempted by a stub after a timeout.
    retries: int = 0
    #: Timeouts observed by stubs (every lost leg costs one timeout).
    timeouts: int = 0
    #: Exchanges abandoned after the retry budget (escalated to
    #: NodeUnavailableError).
    retries_exhausted: int = 0
    #: Whole simulated ticks spent in retry backoff (the integer floor
    #: of each individual backoff wait, summed).  Deterministic per
    #: seed: the backoff sequence is a pure function of the policy's
    #: seeded jitter stream and the retry sequence.
    backoff_ticks: int = 0
    #: Requests rejected because the sender was fenced at a stale
    #: failover epoch (never retried; the fenced caller must step down).
    stale_epoch_rejections: int = 0
    #: Total simulated waiting: transport delays + timeout waits +
    #: retry backoffs, in simulated time units.
    delay_total: float = 0.0

    #: Ring buffer of the last N delivery attempts (None = tracing off).
    trace: Optional[Deque[TraceEntry]] = None
    _trace_seq: int = 0

    def record(self, src: str, dst: str, msg_type: MsgType, size: int) -> None:
        self.messages += 1
        self.bytes += size
        self.by_type[msg_type] += 1
        self.bytes_by_type[msg_type] += size
        self.by_pair[(src, dst)] += 1

    def count(self, msg_type: MsgType) -> int:
        return self.by_type[msg_type]

    # -- fault accounting ----------------------------------------------

    def note_drop(self) -> None:
        self.drops += 1

    def note_delay(self, units: float) -> None:
        self.delay_total += units

    def note_timeout_wait(self, units: float) -> None:
        self.timeouts += 1
        self.delay_total += units

    def note_retry(self, backoff: float) -> None:
        self.retries += 1
        self.backoff_ticks += int(backoff)
        self.delay_total += backoff

    def note_retries_exhausted(self) -> None:
        self.retries_exhausted += 1

    def note_stale_epoch(self) -> None:
        self.stale_epoch_rejections += 1

    def note_attempt(self, entry: TraceEntry) -> None:
        if self.trace is not None:
            self.trace.append(entry)

    def next_trace_seq(self) -> int:
        self._trace_seq += 1
        return self._trace_seq

    def snapshot(self) -> Dict[str, Any]:
        """Flatten every counter family into one report dict.

        Per-type byte totals appear as ``"<type>.bytes"`` and per-pair
        message counts as ``"<src>-><dst>"`` alongside the existing
        ``"messages"``/``"bytes"``/``"<type>"`` keys.  Fault counters
        are included only when non-zero, so reliable-transport
        snapshots look exactly like the pre-RPC ones.
        """
        out: Dict[str, Any] = {"messages": self.messages, "bytes": self.bytes}
        for msg_type, count in sorted(self.by_type.items(), key=lambda kv: kv[0].value):
            out[msg_type.value] = count
        for msg_type, size in sorted(self.bytes_by_type.items(),
                                     key=lambda kv: kv[0].value):
            out[f"{msg_type.value}.bytes"] = size
        for (src, dst), count in sorted(self.by_pair.items()):
            out[f"{src}->{dst}"] = count
        for key, value in (("drops", self.drops), ("retries", self.retries),
                           ("backoff_ticks", self.backoff_ticks),
                           ("timeouts", self.timeouts),
                           ("retries_exhausted", self.retries_exhausted),
                           ("stale_epoch_rejections",
                            self.stale_epoch_rejections),
                           ("delay_total", self.delay_total)):
            if value:
                out[key] = value
        return out


class Network:
    """Availability, transport policy, and accounting for the complex."""

    def __init__(self, transport: Optional[Transport] = None,
                 retry: Optional[RetryPolicy] = None,
                 trace_depth: int = 0,
                 probe: Optional[Probe] = None) -> None:
        self._nodes: Set[str] = set()
        self._down: Set[str] = set()
        self.transport: Transport = transport or ReliableTransport()
        self.retry: RetryPolicy = retry or RetryPolicy()
        self.trace_depth = trace_depth
        self._dispatchers: Dict[str, RpcDispatcher] = {}
        self._stubs: Dict[Tuple[str, str], RpcStub] = {}
        self._request_counter = 0
        #: Monotonic failover epoch of the complex; 0 until the first
        #: promotion, so every envelope is stamped 0 and the fencing
        #: check below can never fire in a single-primary complex.
        self.cluster_epoch = 0
        #: Nodes fenced at a superseded epoch: node id -> the epoch the
        #: node was pinned at when it was fenced.  A fenced node keeps
        #: stamping its pinned epoch, and every delivery from it is
        #: rejected until it rejoins (``unfence``).
        self._fenced: Dict[str, int] = {}
        self.stats = TrafficStats()
        #: The complex's planes: rpc spans (tracer), link partitions
        #: (faults), RPC round-trip / batch-size histograms (metrics).
        self.probe = probe if probe is not None else Probe()
        self._init_trace()

    def _init_trace(self) -> None:
        if self.trace_depth > 0:
            self.stats.trace = deque(maxlen=self.trace_depth)

    # -- membership --------------------------------------------------------

    def register(self, node_id: str) -> None:
        self._nodes.add(node_id)

    def is_up(self, node_id: str) -> bool:
        return node_id in self._nodes and node_id not in self._down

    def crash(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeUnavailableError(node_id)
        self._down.add(node_id)

    def restore(self, node_id: str) -> None:
        self._down.discard(node_id)

    def up_nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes - self._down))

    # -- RPC endpoints -----------------------------------------------------

    def attach(self, node_id: str, dispatcher: RpcDispatcher) -> None:
        """Install (or replace, across restarts) a node's dispatch table."""
        self._dispatchers[node_id] = dispatcher

    def dispatcher(self, node_id: str) -> RpcDispatcher:
        dispatcher = self._dispatchers.get(node_id)
        if dispatcher is None:
            raise NodeUnavailableError(node_id)
        return dispatcher

    def stub(self, src: str, dst: str) -> RpcStub:
        """The (cached) caller-side endpoint for one direction."""
        key = (src, dst)
        stub = self._stubs.get(key)
        if stub is None:
            stub = self._stubs[key] = RpcStub(self, src, dst)
        return stub

    def next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    # -- failover epochs ---------------------------------------------------

    def epoch_for(self, node_id: str) -> int:
        """The epoch ``node_id`` stamps on outgoing envelopes.

        A fenced node is pinned at the epoch it was fenced at — the
        simulation's stand-in for the fencing token it can no longer
        refresh; everyone else implicitly operates at the current
        cluster epoch.
        """
        return self._fenced.get(node_id, self.cluster_epoch)

    def bump_epoch(self) -> int:
        """Advance the cluster epoch (one failover = one increment)."""
        self.cluster_epoch += 1  # lint: allow[OBS001] protocol state, not a metric
        return self.cluster_epoch

    def fence(self, node_id: str) -> None:
        """Pin ``node_id`` at the current epoch, ahead of a bump.

        Failover calls ``fence(old_primary)`` then :meth:`bump_epoch`;
        from then on the old primary's envelopes carry a stale epoch
        and are rejected on delivery.
        """
        self._fenced[node_id] = self.cluster_epoch

    def unfence(self, node_id: str) -> None:
        """Readmit a fenced node (it rejoined at the current epoch)."""
        self._fenced.pop(node_id, None)

    def is_fenced(self, node_id: str) -> bool:
        return node_id in self._fenced

    # -- delivery ----------------------------------------------------------

    def call(self, envelope: Envelope, attempt: int = 0) -> Response:
        """One delivery attempt of one envelope.

        Availability is checked first (a crashed endpoint is a hard
        :class:`NodeUnavailableError`, exactly like the old ``send``),
        then the transport decides the attempt's fate.  The request leg
        is charged per attempt for charged envelopes — a retried
        message costs wire traffic each time it is sent, which is
        precisely the overhead E1-style experiments should see when
        run over a lossy channel.  Raises
        :class:`~repro.net.rpc.MessageDroppedError` for the stub to
        retry when either leg is lost.
        """
        if not self.is_up(envelope.src):
            raise NodeUnavailableError(envelope.src)
        if not self.is_up(envelope.dst):
            raise NodeUnavailableError(envelope.dst)
        tracer = self.probe.tracer
        if tracer is None:
            return self._deliver(envelope, attempt, envelope.request_id)
        span_id = tracer.begin(
            "rpc", envelope.method, envelope.src, dst=envelope.dst,
            msg_type=envelope.msg_type.value,
            request_id=envelope.request_id, attempt=attempt,
        )
        try:
            response = self._deliver(envelope, attempt, envelope.request_id)
        except MessageDroppedError as exc:
            self._end_rpc_span(span_id, f"drop-{exc.leg}")
            raise
        except Exception:
            self._end_rpc_span(span_id, "error")
            raise
        self._end_rpc_span(span_id, "ok")
        return response

    def call_batch(self, batch: BatchEnvelope) -> List[Optional[Response]]:
        """Deliver every sub-envelope of one batched exchange.

        Availability is checked once for the whole batch — one edge,
        one exchange — and each sub-envelope then travels the normal
        delivery path: its own transport plan, its own rpc span, its
        own request-leg charge, and dedup under the batch id as floor.
        Counters and fault behavior are therefore identical to N
        individual calls; only the caller-side per-call overhead is
        amortized.  A sub-exchange that lost a leg yields ``None`` in
        its slot; the stub retries just that envelope.
        """
        if not self.is_up(batch.src):
            raise NodeUnavailableError(batch.src)
        if not self.is_up(batch.dst):
            raise NodeUnavailableError(batch.dst)
        responses: List[Optional[Response]] = []
        tracer = self.probe.tracer
        for sub in batch.calls:
            if tracer is None:
                try:
                    responses.append(self._deliver(sub, 0, batch.request_id))
                except MessageDroppedError:
                    responses.append(None)
                continue
            span_id = tracer.begin(
                "rpc", sub.method, sub.src, dst=sub.dst,
                msg_type=sub.msg_type.value,
                request_id=sub.request_id, attempt=0,
                batch_id=batch.request_id,
            )
            try:
                response: Optional[Response] = self._deliver(
                    sub, 0, batch.request_id)
            except MessageDroppedError as exc:
                self._end_rpc_span(span_id, f"drop-{exc.leg}")
                response = None
            except Exception:
                self._end_rpc_span(span_id, "error")
                raise
            else:
                self._end_rpc_span(span_id, "ok")
            responses.append(response)
        return responses

    def _end_rpc_span(self, span_id: int, outcome: str) -> None:
        """Close an rpc span, linking it to the ring-buffer trace entry
        of the same delivery attempt when message tracing is active."""
        tracer = self.probe.tracer
        assert tracer is not None
        if self.stats.trace is not None:
            tracer.end(span_id, outcome=outcome,
                       trace_seq=self.stats._trace_seq)
        else:
            tracer.end(span_id, outcome=outcome)

    def _deliver(self, envelope: Envelope, attempt: int,
                 floor: int) -> Response:
        if envelope.epoch < self.cluster_epoch and envelope.src in self._fenced:
            # The destination rejects the fenced sender before the
            # handler runs: no charge, no dispatch, no retry — the
            # caller sees a hard domain error and must step down.
            self.stats.note_stale_epoch()
            raise StaleEpochError(envelope.src, envelope.epoch,
                                  self.cluster_epoch)
        faults = self.probe.faults
        if faults is not None and \
                faults.is_partitioned(envelope.src, envelope.dst):
            # A severed link behaves exactly like a transport drop of
            # the request leg, but deterministically and until healed.
            self.stats.note_drop()
            raise MessageDroppedError(envelope, "request")
        outcome, delay = self.transport.plan(envelope, attempt)
        size = MESSAGE_OVERHEAD + payload_size(envelope.payload)
        if self.stats.trace is not None:
            self.stats.note_attempt(TraceEntry(
                seq=self.stats.next_trace_seq(),
                request_id=envelope.request_id,
                src=envelope.src, dst=envelope.dst,
                msg_type=envelope.msg_type, method=envelope.method,
                size=size, attempt=attempt, outcome=outcome.value,
                delay=delay, charged=envelope.charge,
            ))
        if delay:
            self.stats.note_delay(delay)
        if outcome is DeliveryOutcome.DROP_REQUEST:
            self.stats.note_drop()
            raise MessageDroppedError(envelope, "request")
        # The request reached the destination: charge its leg and run
        # the handler (the sender's reply slot keeps retried requests
        # exactly-once; ``floor`` is the exchange's first request id).
        if envelope.charge:
            self.stats.record(envelope.src, envelope.dst,
                              envelope.msg_type, size)
        response = self.dispatcher(envelope.dst).dispatch(envelope, floor)
        if outcome is DeliveryOutcome.DROP_RESPONSE:
            self.stats.note_drop()
            raise MessageDroppedError(envelope, "response")
        return response

    # -- accounting ------------------------------------------------------------

    def send(self, src: str, dst: str, msg_type: MsgType,
             payload: Any = None) -> None:
        """Account for one one-way message; raises if an endpoint is down.

        Used by handlers to charge response legs that carry real
        payloads (page ships, fetched log records, gathered DPLs).
        """
        if not self.is_up(src):
            raise NodeUnavailableError(src)
        if not self.is_up(dst):
            raise NodeUnavailableError(dst)
        size = MESSAGE_OVERHEAD + payload_size(payload)
        self.stats.record(src, dst, msg_type, size)

    def reset_stats(self) -> None:
        self.stats = TrafficStats()
        self._init_trace()
