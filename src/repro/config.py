"""System-wide configuration and policy knobs.

A single :class:`SystemConfig` travels through the whole simulated
complex.  ARIES/CSA proper is the default configuration; the baseline
systems of the paper's section 4 (ESM-CS, ObjectStore-style, the
no-client-checkpoint variant of section 2.6.2) are expressed as policy
deviations from that default, so that every comparison in the benchmark
suite isolates exactly the policy delta the paper discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.faults import FaultPlan


class LockGranularity(enum.Enum):
    """Finest lock granularity the system uses for logical locks."""

    RECORD = "record"
    PAGE = "page"
    TABLE = "table"


class CommitPagePolicy(enum.Enum):
    """What happens to a transaction's dirty pages at commit time."""

    #: ARIES/CSA: nothing is shipped; pages stay cached and dirty.
    NO_FORCE = "no-force"
    #: ESM-CS: all pages modified by the transaction are shipped to the
    #: server before the commit is acknowledged.
    FORCE_TO_SERVER = "force-to-server"
    #: ObjectStore-style: pages are shipped to the server *and* the server
    #: writes them to disk before the commit is acknowledged.
    FORCE_TO_DISK = "force-to-disk"


class CommitCachePolicy(enum.Enum):
    """What happens to the client's cache at transaction termination."""

    #: ARIES/CSA and ObjectStore: pages stay cached across transactions.
    RETAIN = "retain"
    #: ESM-CS: the client purges its entire buffer pool at termination.
    PURGE = "purge"


class RollbackSite(enum.Enum):
    """Where normal (non-restart) transaction rollback executes."""

    #: ARIES/CSA: the client that ran the transaction performs the rollback.
    CLIENT = "client"
    #: ESM-CS: the server performs the rollback (with conditional undo,
    #: since client pages were not forced over first).
    SERVER = "server"


class ClientRecoveryInfo(enum.Enum):
    """Where the recovery starting points for a failed client live."""

    #: Section 2.6.1 (the paper's choice): clients take checkpoints.
    CLIENT_CHECKPOINTS = "client-checkpoints"
    #: Section 2.6.2: no client checkpoints; the server keeps RecAddr in
    #: the GLM lock table entry of each update-privilege P-lock.
    GLM_LOCK_TABLE = "glm-lock-table"


class PageTransport(enum.Enum):
    """How a client's dirty state reaches the server.

    The paper's future-work section ("we plan to deal with recovery
    issues when individual objects/records, rather than pages, are
    exchanged") motivates LOG_REPLAY: the client ships only its log
    records — which carry full physical redo information — and the
    server *materializes* its page copy by rolling it forward from the
    page's RecAddr.  No page image crosses the wire.
    """

    #: Classic ARIES/CSA: full page images travel.
    PAGE_IMAGE = "page-image"
    #: Future-work mode: only log records travel; the server replays.
    LOG_REPLAY = "log-replay"


class TransportPolicy(enum.Enum):
    """Delivery behavior of the simulated network's transport layer."""

    #: Every message is delivered synchronously and in order — the
    #: deterministic default, with traffic counters identical to the
    #: pre-RPC direct-call implementation.
    RELIABLE = "reliable"
    #: Seeded drop/delay injection; client stubs retry with backoff and
    #: server dispatchers deduplicate, so recovery invariants must hold
    #: over a lossy channel.
    FAULTY = "faulty"


class LsnAssignment(enum.Enum):
    """How clients obtain LSNs for the log records they write."""

    #: ARIES/CSA section 2.2: locally, as max(page_LSN, Local_Max_LSN) + 1.
    LOCAL = "local"
    #: Strawman for experiment E10: a synchronous round trip to the server
    #: per log record (what local assignment saves).
    SERVER_ROUND_TRIP = "server-round-trip"


@dataclass(frozen=True)
class SystemConfig:
    """Complete policy configuration for one simulated complex.

    The defaults describe ARIES/CSA.  Use the ``esm_cs()``,
    ``objectstore()`` and ``no_client_checkpoints()`` constructors for the
    paper's comparison systems.
    """

    #: Bytes per database page (payload capacity for records).
    page_size: int = 4096
    #: Frames in the server buffer pool.
    server_buffer_frames: int = 256
    #: Frames in each client buffer pool.
    client_buffer_frames: int = 64
    #: Pages covered by one space map page.
    smp_coverage: int = 512

    lock_granularity: LockGranularity = LockGranularity.RECORD
    page_transport: PageTransport = PageTransport.PAGE_IMAGE
    commit_page_policy: CommitPagePolicy = CommitPagePolicy.NO_FORCE
    commit_cache_policy: CommitCachePolicy = CommitCachePolicy.RETAIN
    rollback_site: RollbackSite = RollbackSite.CLIENT
    client_recovery_info: ClientRecoveryInfo = ClientRecoveryInfo.CLIENT_CHECKPOINTS
    lsn_assignment: LsnAssignment = LsnAssignment.LOCAL

    #: Whether the server computes and distributes Commit_LSN (section 3).
    commit_lsn_enabled: bool = True
    #: Compute Commit_LSN per table as well as globally (section 3: "it
    #: is possible to compute it on a per-file basis and get even more
    #: benefits") — one long transaction on one table then no longer
    #: blocks lock avoidance on the others.
    commit_lsn_per_table: bool = False
    #: Piggyback Max_LSN/Commit_LSN to a client every N server interactions
    #: with that client (section 3's Lamport-clock proximity scheme).
    max_lsn_sync_period: int = 8

    #: LLMs retain global locks after local transactions release them
    #: (the shared-disks lock-caching optimization referenced in section
    #: 2.1); the server calls cached locks back on conflict.
    llm_cache_locks: bool = True

    #: Dirty-page forwarding between clients (the section 4.1 discussion
    #: of [FrCL92]): on an update-privilege transfer the page travels
    #: directly to the requesting client after the sender's log records
    #: are acknowledged by the server; the server keeps a forwarded-dirty
    #: table so recovery bounds survive without receiving the image.
    enable_forwarding: bool = False

    #: Client checkpoint every N committed transactions (0 disables).
    client_checkpoint_interval: int = 16
    #: Server checkpoint every N log appends (0 disables).
    server_checkpoint_interval: int = 512

    #: ESM-CS logs a Commit Dirty Page List before each commit record.
    log_cdpl_at_commit: bool = False

    #: Group commit (section 2.1's force accounting, made active): defer
    #: commit-path log forces until this many have accumulated, then
    #: cover the whole group with one device force.  Synchronous forces
    #: (WAL, privilege transfer, checkpoints, recovery) always flush the
    #: open window into their own force.  ``0``/``1`` disables deferral,
    #: preserving one-force-per-commit semantics and counters exactly.
    #: The latency trade is real: a deferred commit is acknowledged with
    #: a flushed boundary that does not cover it, the committing client
    #: keeps its records buffered (section 2.1), and a *server* crash
    #: inside the window loses nothing — survivors replay their tails.
    #: Only if every node holding the records fails before the next
    #: force (e.g. ``crash_all`` mid-window) are the still-deferred
    #: commits rolled back — the asynchronous-commit trade (PostgreSQL's
    #: ``synchronous_commit=off``), since ``commit()`` here returns
    #: before the group force rather than waiting on it.
    group_commit_window: int = 0

    #: Deliberately omit client DPLs from the server checkpoint (the buggy
    #: construction of section 2.7 used by experiment E6).  Never enable
    #: outside that experiment.
    unsafe_server_checkpoint_excludes_clients: bool = False

    # -- replication & failover ---------------------------------------

    #: Wire a log-shipped warm standby into the complex
    #: (``repro.replication``): the primary ships every durable log
    #: frame to a standby node over the typed RPC transport, a
    #: heartbeat failure detector watches the primary, and failover
    #: fences the old primary behind a bumped epoch before promoting
    #: the standby.  A commit force waits for the standby's durable
    #: ack, so no acknowledged commit is lost to a failover.  Off by
    #: default: with replication off the complex is byte-identical to
    #: the single-node system (the chaos digest parity test pins this).
    replication_enabled: bool = False
    #: The standby applies shipped redo into its page replica every N
    #: shipped records; between applies the shipped tail is durable in
    #: its log replica but not yet materialized.  Promotion rolls
    #: forward exactly that tail through restart recovery — the
    #: smaller this interval, the warmer the standby.
    standby_apply_interval: int = 64

    # -- transport & RPC ----------------------------------------------

    transport_policy: TransportPolicy = TransportPolicy.RELIABLE
    #: FAULTY only: probability each delivery attempt loses one leg of
    #: the exchange (split evenly between request and response).
    transport_drop_rate: float = 0.05
    #: FAULTY only: RNG seed for fault injection; ``None`` reuses ``seed``.
    transport_seed: "int | None" = None

    #: Has no effect: the commit request carries the log tail itself,
    #: so there is no log-ship + force pair left to batch.  Kept because
    #: existing configurations, the benchmark's among them, still pass
    #: it.
    rpc_batching: bool = False
    #: Keep the last N delivery attempts in a ring-buffer trace
    #: (rendered by ``tools.logdump.message_trace``; 0 disables).
    message_trace_depth: int = 0

    #: The unified fault plane (``repro.faults``): one seeded plan that
    #: drives *all* injection — transport drops/delays, torn page
    #: writes, transient I/O errors, partial log flushes, and armed
    #: crashpoint schedules.  ``None`` (the default) leaves every
    #: crashpoint hook at its one-guard disabled cost and keeps all
    #: experiment tables byte-identical.
    fault_plan: Optional[FaultPlan] = None

    #: Deterministic seed for any randomized tie-breaking inside the
    #: complex (victim selection etc.).
    seed: int = 0

    #: Human-readable label used in benchmark tables.
    label: str = "ARIES/CSA"

    def with_overrides(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- named comparison systems -------------------------------------

    @staticmethod
    def aries_csa(**kwargs: object) -> "SystemConfig":
        """The paper's system (explicit alias of the defaults)."""
        return SystemConfig(**kwargs)  # type: ignore[arg-type]

    @staticmethod
    def esm_cs(**kwargs: object) -> "SystemConfig":
        """Client-server EXODUS as described in section 4.1.

        * **force-to-server-at-commit** — every page the transaction
          modified is shipped to the server before the commit is
          acknowledged;
        * **purge-at-commit** — the client's entire buffer pool is
          emptied at transaction termination;
        * **page-level locking only** — no record locks;
        * **server-side rollback with conditional undo** — clients
          perform no recovery actions, so the server undoes on its own
          page versions, writing CLRs even for updates its versions
          never contained (ARIES-RRH style); logical undo is
          impossible, so B+-tree operations reject this path;
        * **CDPL logging** — the transaction's Commit Dirty Page List is
          logged before its commit record, substituting for client
          checkpoints during analysis;
        * **no client checkpoints** — failed-client recovery information
          lives in the GLM lock table.
        """
        base = SystemConfig(
            lock_granularity=LockGranularity.PAGE,
            commit_page_policy=CommitPagePolicy.FORCE_TO_SERVER,
            commit_cache_policy=CommitCachePolicy.PURGE,
            rollback_site=RollbackSite.SERVER,
            client_recovery_info=ClientRecoveryInfo.GLM_LOCK_TABLE,
            client_checkpoint_interval=0,
            commit_lsn_enabled=False,
            log_cdpl_at_commit=True,
            label="ESM-CS",
        )
        return base.with_overrides(**kwargs) if kwargs else base

    @staticmethod
    def objectstore(**kwargs: object) -> "SystemConfig":
        """ObjectStore-style policies as described in section 4.2.

        Per the paper's description of [LLOW91]: at commit time modified
        pages are sent to the server *and written to disk* before the
        commit is acknowledged; pages stay cached at the client
        afterwards; page is the smallest locking granularity.  Beyond
        the use of WAL the original paper says nothing more about
        recovery, so this is exactly the published policy surface.
        """
        base = SystemConfig(
            lock_granularity=LockGranularity.PAGE,
            commit_page_policy=CommitPagePolicy.FORCE_TO_DISK,
            commit_cache_policy=CommitCachePolicy.RETAIN,
            rollback_site=RollbackSite.CLIENT,
            commit_lsn_enabled=False,
            label="ObjectStore-style",
        )
        return base.with_overrides(**kwargs) if kwargs else base

    @staticmethod
    def no_client_checkpoints(**kwargs: object) -> "SystemConfig":
        """Section 2.6.2's variant: recovery info in the GLM lock table.

        Clients take no checkpoints; the server keeps, in the GLM lock
        table entry of each update-privilege P-lock, the log address
        (RecAddr) from which a failed holder's updates would have to be
        redone.  The paper prefers client checkpoints because coarse
        (table) locking leaves the server unable to enumerate the DPL,
        and the lock-table RecAddr goes stale while a client holds the
        privilege without updating (footnote 5).  Experiment E5
        measures exactly that staleness.
        """
        base = SystemConfig(
            lock_granularity=LockGranularity.PAGE,
            client_recovery_info=ClientRecoveryInfo.GLM_LOCK_TABLE,
            client_checkpoint_interval=0,
            label="ARIES/CSA (no client ckpts)",
        )
        return base.with_overrides(**kwargs) if kwargs else base
