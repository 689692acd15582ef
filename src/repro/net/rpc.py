"""Typed RPC over the simulated network: envelopes, dispatch, transports.

Every client<->server and coordinator<->participant interaction is a
*request/response exchange* in the paper (sections 2.1-2.7): a page
request is answered by a page ship, a log ship by an ack carrying the
assigned addresses, a commit request by the force acknowledgement.  This
module gives those exchanges a real wire shape so the simulation can
model what the byte-counting shim could not: lost and delayed messages,
timeouts, retries, and the idempotency discipline retries require.

The pieces:

* :class:`Envelope` — one typed request: a request id, the sender and
  destination node ids, the :class:`~repro.net.messages.MsgType` under
  which the paper's accounting classifies it, the wire ``payload`` the
  byte counters charge, and the dispatch ``method``/``args`` the
  destination executes.
* :class:`RpcDispatcher` — a per-node dispatch table mapping method
  names to handlers, with request-id deduplication so a retried request
  is executed **exactly once** even when only the response was lost.
  Non-idempotent handlers (``receive_log_records``, the commit request
  ``force_log_for_commit`` that appends records and releases locks,
  ``receive_client_checkpoint``, the 2PC branch votes) depend on this.
* :class:`Transport` policies — :class:`ReliableTransport` delivers
  every message synchronously (today's deterministic behavior,
  bit-for-bit identical traffic counters); :class:`FaultyTransport`
  drops and delays messages from a seeded RNG.
* :class:`RpcStub` — the caller side: builds envelopes, retries lost
  exchanges with exponential backoff, and escalates to
  :class:`~repro.errors.NodeUnavailableError` when the retry budget is
  exhausted (the destination is indistinguishable from a dead node).

Accounting model: the *request* leg of an exchange is charged by
:meth:`Network.call` — one message of ``MESSAGE_OVERHEAD`` plus the
payload's size; response legs that carry real payloads (page ships,
fetched log records, gathered DPLs) are charged by the handler itself
via :meth:`Network.send`.  A message is one exchange, so what travels
together is charged together: a commit is one ``COMMIT_REQUEST`` whose
payload is the transaction id, the client's unshipped log records and
the names of the global locks the commit frees (the log tail and the
releases cost no message of their own), and a client checkpoint is one
``CHECKPOINT`` carrying the log tail ahead of its two records.
Envelopes with ``charge=False`` model interactions that piggyback on an
already-counted exchange (Max_LSN sync, the CDPL ride-along, catalog
lookups): they travel through dispatch — and through fault injection —
but add no messages or bytes.

:class:`BatchEnvelope` and :meth:`RpcStub.call_batch` coalesce calls
on one edge without merging their accounting (every sub-call is still
its own message).  Nothing in the package batches any more: the commit
path they were built for is a single request now.

What stays *outside* the RPC layer, deliberately: object wiring at
session establishment (``Server.connect_client``) and the restart-time
recovery orchestration in :meth:`Server.restart` (phase-0 log salvage,
lock-table reconstruction).  Those are simulation scaffolding for
whole-complex crash scenarios, not normal-operation messages, and the
paper's traffic comparisons never count them.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set,
    Tuple,
)

from repro.errors import NodeUnavailableError, ReproError

if TYPE_CHECKING:
    from repro.faults import FaultPlan


class RpcError(ReproError):
    """Base class for RPC-layer failures."""


class UnknownRpcMethodError(RpcError):
    """An envelope named a method the destination never registered."""

    def __init__(self, node_id: str, method: str) -> None:
        super().__init__(f"node {node_id} has no RPC method {method!r}")
        self.node_id = node_id
        self.method = method


class StaleEpochError(RpcError):
    """A fenced node sent a request stamped with a superseded epoch.

    Raised by the network on delivery, before the destination handler
    runs: after a failover the old primary's envelopes still carry the
    epoch it was fenced at, and every node of the complex rejects them
    (section "fencing" of DESIGN §15).  A domain error — the fenced
    caller must observe it and stop acting as primary — so it travels
    up through the stub like any failed exchange, never retried.
    """

    def __init__(self, node_id: str, stamped: int, current: int) -> None:
        super().__init__(
            f"node {node_id} is fenced: envelope epoch {stamped} "
            f"< cluster epoch {current}"
        )
        self.node_id = node_id
        self.stamped = stamped
        self.current = current


class MessageDroppedError(RpcError):
    """Internal signal: the transport lost one leg of an exchange.

    Never escapes the stub — it either retries or escalates to
    :class:`~repro.errors.NodeUnavailableError`.
    """

    def __init__(self, envelope: "Envelope", leg: str) -> None:
        super().__init__(
            f"{leg} lost: {envelope.method} "
            f"{envelope.src}->{envelope.dst} (request {envelope.request_id})"
        )
        self.envelope = envelope
        self.leg = leg


class DeliveryOutcome(enum.Enum):
    """What the transport did with one delivery attempt."""

    DELIVER = "deliver"
    DROP_REQUEST = "drop-request"
    DROP_RESPONSE = "drop-response"


@dataclass(frozen=True)
class Envelope:
    """One request traveling ``src -> dst``.

    ``payload`` is what the byte counters charge (the wire content);
    ``args`` are the dispatch arguments, which may alias the payload or
    carry simulation-side values (live objects, already-charged data).
    """

    request_id: int
    src: str
    dst: str
    msg_type: Any               # MsgType; Any avoids an import cycle
    method: str
    payload: Any = None
    args: Tuple[Any, ...] = ()
    #: Charged exchanges count messages and bytes; uncharged ones are
    #: piggybacks riding an already-counted exchange.
    charge: bool = True
    #: Monotonic failover epoch the sender was operating under when the
    #: envelope was built.  0 until the first failover, so the field is
    #: inert in single-primary complexes; after a failover the network
    #: rejects envelopes from fenced nodes whose epoch is stale.
    epoch: int = 0


@dataclass(frozen=True)
class BatchCall:
    """One sub-request of a batched exchange, before it gets a wire id."""

    method: str
    msg_type: Any               # MsgType; Any avoids an import cycle
    payload: Any = None
    args: Tuple[Any, ...] = ()
    charge: bool = True


@dataclass(frozen=True)
class BatchEnvelope:
    """N sub-requests traveling one ``src -> dst`` edge as one exchange.

    Batching amortizes the per-exchange caller overhead (stub lookup,
    availability checks, the retry-loop frame) over every call on the
    same edge; the *accounting* is deliberately not amortized.  Each
    sub-envelope keeps its own request id, is deduplicated in the
    sender's reply slot with the batch id as floor (so siblings never
    evict each other), is charged as its own request leg, and gets its own
    rpc span — so traffic counters, exactly-once semantics, and traces
    are bit-for-bit what N individual calls would have produced.  The
    batch wrapper itself is free: it models call coalescing, not a new
    message type.
    """

    request_id: int
    src: str
    dst: str
    calls: Tuple[Envelope, ...]


@dataclass
class Response:
    """The destination's answer to one envelope."""

    request_id: int
    ok: bool
    result: Any = None
    error: Optional[BaseException] = None


#: A handler receives the sender's node id first, then the envelope args.
Handler = Callable[..., Any]


class RpcDispatcher:
    """One node's dispatch table, with exactly-once request execution.

    Responses are kept in one *reply slot per sender*, keyed by request
    id, so a retried request — sent again because the *response* was
    lost — is answered from the slot instead of re-executing the
    handler.  Exchanges are synchronous, so a sender's next exchange
    acknowledges all of its earlier ones: :meth:`dispatch` takes the
    exchange's *floor*, its first request id (the batch id for a
    batch's sub-calls, the envelope's own id otherwise), and drops the
    sender's entries below it.  A sub-call retried after the rest of
    its batch ran, and an outer request still in its handler while the
    same sender runs a nested exchange (whose ids are higher), both
    stay answerable.  The table is bounded by the number of senders,
    not by history.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._handlers: Dict[str, Handler] = {}
        #: Sender -> its reply slot (request id -> response).
        self.slots: Dict[str, Dict[int, Response]] = {}
        #: Handler executions by method name (the exactly-once witness:
        #: compare against distinct request ids in tests).
        self.invocations: Counter = Counter()
        #: Retried requests answered from a reply slot.
        self.duplicates_suppressed = 0
        #: Attached by the replication manager: senders whose slot
        #: changed since the last ship, so their slot snapshot rides the
        #: next batch to the standby.  ``None`` (the default) keeps the
        #: single-node path free of the bookkeeping.
        self.changed: Optional[Set[str]] = None

    def register(self, method: str, handler: Handler) -> None:
        self._handlers[method] = handler

    def forget(self, sender: str) -> None:
        """Drop a failed sender's slot: its retries died with it."""
        self.slots.pop(sender, None)
        if self.changed is not None:
            self.changed.add(sender)

    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted(self._handlers))

    def dispatch(self, envelope: Envelope, floor: int) -> Response:
        slot = self.slots.get(envelope.src)
        if slot is None:
            slot = self.slots[envelope.src] = {}
        else:
            for request_id in [rid for rid in slot if rid < floor]:
                del slot[request_id]
            cached = slot.get(envelope.request_id)
            if cached is not None:
                self.duplicates_suppressed += 1
                return cached
        handler = self._handlers.get(envelope.method)
        if handler is None:
            raise UnknownRpcMethodError(self.node_id, envelope.method)
        self.invocations[envelope.method] += 1
        try:
            response = Response(envelope.request_id, True,
                                handler(envelope.src, *envelope.args))
        except ReproError as exc:
            # Domain errors are part of the protocol (state errors,
            # unavailable peers): they travel back as a failed response
            # and are deduplicated like any other outcome.  Cached as
            # data, without the traceback: that would keep the handler's
            # frames alive while the entry is cached, and this very frame
            # (which holds ``response``) in a reference cycle.  A lock
            # wait is not an error at all here — the GLM answers it with
            # a ``LockDenied`` reply.  Non-ReproError exceptions are bugs
            # and propagate raw.
            response = Response(envelope.request_id, False,
                                error=exc.with_traceback(None))
        slot[envelope.request_id] = response
        if self.changed is not None:
            self.changed.add(envelope.src)
        return response


class Transport:
    """Delivery policy: decides the fate of each attempt."""

    name = "abstract"

    def plan(self, envelope: Envelope, attempt: int
             ) -> Tuple[DeliveryOutcome, float]:
        """Return (outcome, simulated delay units) for one attempt."""
        raise NotImplementedError


class ReliableTransport(Transport):
    """Synchronous, deterministic, loss-free: the pre-RPC behavior."""

    name = "reliable"

    def plan(self, envelope: Envelope, attempt: int
             ) -> Tuple[DeliveryOutcome, float]:
        return DeliveryOutcome.DELIVER, 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ReliableTransport()"


class FaultyTransport(Transport):
    """Seeded loss and delay injection.

    Each attempt is independently lost with probability ``drop_rate``
    (split evenly between losing the request and losing the response —
    the two legs exercise different halves of the exactly-once
    machinery) and delayed with probability ``delay_rate`` by up to
    ``max_delay`` simulated units.  The RNG is seeded, so a given
    configuration replays deterministically.
    """

    name = "faulty"

    def __init__(self, seed: int = 0, drop_rate: float = 0.05,
                 delay_rate: float = 0.0, max_delay: float = 5.0,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise RpcError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.seed = seed
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        # The drop/delay stream lives in the fault plane's "transport"
        # namespace.  Seeding that namespace with the bare integer seed
        # keeps the draw sequence bit-for-bit identical to the
        # pre-FaultPlan ``random.Random(seed)`` (test_transport_parity
        # pins the resulting counters).
        if fault_plan is None:
            from repro.faults import FaultPlan
            fault_plan = FaultPlan(seed=seed)
        self.fault_plan = fault_plan
        self._rng = fault_plan.rng("transport", seed)

    def plan(self, envelope: Envelope, attempt: int
             ) -> Tuple[DeliveryOutcome, float]:
        delay = 0.0
        if self.delay_rate > 0 and self._rng.random() < self.delay_rate:
            delay = self._rng.uniform(0.0, self.max_delay)
            self.fault_plan.note_transport_fault("delay")
        if self._rng.random() < self.drop_rate:
            outcome = (DeliveryOutcome.DROP_REQUEST
                       if self._rng.random() < 0.5
                       else DeliveryOutcome.DROP_RESPONSE)
            self.fault_plan.note_transport_fault(outcome.value)
            return outcome, delay
        return DeliveryOutcome.DELIVER, delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultyTransport(seed={self.seed}, "
                f"drop_rate={self.drop_rate}, delay_rate={self.delay_rate})")


@dataclass(frozen=True)
class RetryPolicy:
    """Client-stub behavior when an exchange times out.

    A lost message manifests to the caller as a timeout of
    ``timeout`` simulated units; retry ``n`` (from 0) then waits
    ``backoff_base * 2**n`` units.  After ``max_retries`` retries the
    destination is declared unavailable.  The schedule is fixed, so
    ``TrafficStats.backoff_ticks`` replays exactly.
    """

    max_retries: int = 8
    backoff_base: float = 1.0
    timeout: float = 10.0

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (2.0 ** attempt)


class RpcStub:
    """Caller-side endpoint for one ``src -> dst`` direction."""

    def __init__(self, network: Any, src: str, dst: str) -> None:
        self._network = network
        self.src = src
        self.dst = dst

    def call(self, method: str, msg_type: Any, payload: Any = None,
             args: Optional[Tuple[Any, ...]] = None,
             charge: bool = True) -> Any:
        """One request/response exchange, retried until it completes.

        Raises the handler's domain error on a failed response, and
        :class:`~repro.errors.NodeUnavailableError` when the retry
        budget is exhausted without a completed exchange.
        """
        network = self._network
        envelope = Envelope(
            request_id=network.next_request_id(),
            src=self.src, dst=self.dst, msg_type=msg_type,
            method=method, payload=payload,
            args=args if args is not None else (), charge=charge,
            epoch=network.epoch_for(self.src),
        )
        response = self._exchange(envelope)
        if response.ok:
            return response.result
        error = response.error
        assert error is not None
        del response
        try:
            raise error
        finally:
            # The traceback holds this frame; the frame must not hold
            # the error back (concurrent.futures' idiom), or the two
            # form a cycle only the collector can free.
            del error

    def call_batch(self, calls: Sequence[BatchCall]) -> List[Any]:
        """Dispatch several calls on this edge as one batched exchange.

        Each :class:`BatchCall` becomes a sub-envelope with its own
        fresh request id; the whole batch travels through
        :meth:`Network.call_batch` so every sub-call is planned,
        traced, charged, and deduplicated exactly like an individual
        :meth:`call`.  A sub-call whose leg was lost is retried here,
        alone, with its original envelope (same request id — the reply
        slot makes the retry exactly-once).

        Results come back in call order.  Sub-calls are *dispatched* in
        order too, so a failed response raises its domain error after
        earlier sub-calls have already executed — identical to issuing
        the same sequence of individual calls.
        """
        network = self._network
        epoch = network.epoch_for(self.src)
        batch = BatchEnvelope(
            request_id=network.next_request_id(),
            src=self.src, dst=self.dst,
            calls=tuple(
                Envelope(
                    request_id=network.next_request_id(),
                    src=self.src, dst=self.dst, msg_type=call.msg_type,
                    method=call.method, payload=call.payload,
                    args=call.args, charge=call.charge, epoch=epoch,
                )
                for call in calls
            ),
        )
        metrics = network.probe.metrics
        if metrics is not None:
            metrics.rpc_batch_calls.observe(len(batch.calls))
        results: List[Any] = []
        for sub, response in zip(batch.calls, network.call_batch(batch)):
            if response is None:
                # One leg of this sub-exchange was lost; fall back to
                # the standard retry loop for just this envelope.
                policy: RetryPolicy = network.retry
                network.stats.note_timeout_wait(policy.timeout)
                network.stats.note_retry(policy.backoff(0))
                response = self._exchange(sub, attempt=1)
            if not response.ok:
                error = response.error
                assert error is not None
                del response
                try:
                    raise error
                finally:
                    del error  # no frame<->exception cycle, as in call()
            results.append(response.result)
        return results

    def _exchange(self, envelope: Envelope, attempt: int = 0) -> Response:
        """Retry one envelope until a response completes or the budget
        is exhausted (then the destination is declared unavailable)."""
        network = self._network
        policy: RetryPolicy = network.retry
        while True:
            try:
                response = network.call(envelope, attempt=attempt)
                metrics = network.probe.metrics
                if metrics is not None:
                    # Delivery attempts this exchange cost, retries
                    # included — the paper's commit-traffic latency is
                    # dominated by this distribution under loss.
                    metrics.rpc_roundtrip_attempts.observe(attempt + 1)
                return response
            except MessageDroppedError:
                # The caller cannot tell a lost request from a lost
                # response: both look like ``timeout`` units of silence.
                network.stats.note_timeout_wait(policy.timeout)
                if attempt >= policy.max_retries:
                    network.stats.note_retries_exhausted()
                    raise NodeUnavailableError(self.dst) from None
                network.stats.note_retry(policy.backoff(attempt))
                attempt += 1


def transport_from_config(config: Any) -> Transport:
    """Build the transport a :class:`~repro.config.SystemConfig` asks for.

    Under :attr:`~repro.config.TransportPolicy.FAULTY` the drop/delay
    stream is drawn from the config's :class:`~repro.faults.FaultPlan`
    (transport namespace) when one is present, so transport chaos and
    storage chaos replay from the same seed; without a plan an implicit
    single-namespace plan is built from the transport seed, preserving
    the pre-FaultPlan draw sequence exactly.  The config sets only the
    drop rate; delays keep :class:`FaultyTransport`'s defaults (none).
    """
    from repro.config import TransportPolicy
    if config.transport_policy is TransportPolicy.FAULTY:
        seed = config.transport_seed
        if seed is None:
            seed = config.seed
        return FaultyTransport(
            seed=seed,
            drop_rate=config.transport_drop_rate,
            fault_plan=config.fault_plan,
        )
    return ReliableTransport()
