"""Ship-stream framing: what travels primary -> standby (DESIGN §15).

One :class:`ShipBatch` carries a contiguous run of *stable* log frames,
each tagged with the address the primary's log assigned it.  Addresses
are byte offsets (``StableLog.append`` returns ``base + len(buf)``), so
replaying the frames in order onto a replica log opened at the same base
reproduces the primary's address space byte for byte — the property
every shipped RecAddr, checkpoint pointer and master-record field relies
on.  The standby asserts this parity on every append and treats any
divergence as a protocol violation.

The batch also piggybacks two pieces of soft state:

* the primary's **master record** snapshot, so a promoted standby can
  start analysis from the last coordinated checkpoint it shipped;
* a snapshot of every primary **reply slot** that changed since the
  last ship, so a client whose acknowledgement was lost can retry the
  same envelope against the promoted standby without re-executing the
  handler (exactly-once across the failover boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.log_records import LogRecord
from repro.core.lsn import LogAddr

#: Node id of the warm standby (the promoted server keeps it, so the
#: fenced old primary's id stays distinct on the network).
STANDBY_ID = "STANDBY"


@dataclass(frozen=True)
class ShipBatch:
    """One primary -> standby ship: a stable frame run plus soft state.

    ``frames`` covers addresses ``[start_addr, end_addr)``; an empty
    run (dedup-only batch) has ``start_addr == end_addr``.  Re-shipping
    a previously acknowledged prefix is legal — the standby skips frames
    below its end of log — which is what makes a lost ack harmless.
    """

    #: First shipped frame's address (== the shipper's high-water mark).
    start_addr: LogAddr
    #: Exclusive upper bound: the primary's flushed address at ship time.
    end_addr: LogAddr
    #: The stable frames, in address order: ``(addr, record)`` pairs.
    frames: Tuple[Tuple[LogAddr, LogRecord], ...]
    #: Snapshot of the primary's master record (checkpoint anchors).
    master: Dict[str, Any]
    #: Changed reply slots, snapshotted: ``sender -> {request_id:
    #: response}``; an empty slot means the sender has none any more.
    dedup: Dict[str, Dict[int, Any]]

    @property
    def record_count(self) -> int:
        return len(self.frames)
