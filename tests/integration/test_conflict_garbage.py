"""Regression guard: the lock-conflict path leaves no cyclic garbage.

Under contention most lock requests end in a wait. A wait crosses the
RPC as a ``LockDenied`` reply and the client raises it fresh. Domain
errors are cached without their tracebacks, and the waits-for search
is iterative. So a contended engine run builds no reference cycles, and
everything it frees goes by reference counting. A cycle on this path
would hold the frames, tracebacks and exceptions of every conflict
until the collector ran, and that collection cost grows with the live
heap of every connected client.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

from repro.engine.core import Engine
from repro.workloads import DriverSpec, build_system, generate_wave
from repro.workloads.driver import client_ids_for


def test_contended_engine_run_leaves_no_cyclic_garbage():
    # The zipf_contended driver shape, at 80 clients.
    spec = DriverSpec(clients=80, ordered_access=True, waves=2)
    system, rids = build_system(spec)
    ids = client_ids_for(spec.clients)
    rng = random.Random(0)
    waves = [generate_wave(spec, rids, wave, ids, rng)
             for wave in range(spec.waves)]
    conflicts = system.server.glm.logical.conflicts
    committed = 0
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for wave in waves:
            committed += Engine(system).run(
                wave, max_rounds=1_000_000).committed
        # Drop the server's reply slots, as each client's next exchange
        # would: what they kept alive is freed now or is garbage.
        system.server.dispatcher.slots.clear()
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
    # The run really was contended through the GLM.
    assert committed > 0
    assert system.server.glm.logical.conflicts - conflicts > committed
    cyclic = {"LockConflictError", "traceback", "frame"} & set(garbage)
    assert not cyclic, garbage.most_common(10)
    # Fewer than one object per ten commits: a recursive closure in the
    # deadlock search alone would leave more.
    assert sum(garbage.values()) * 10 < committed, garbage.most_common(10)
