"""Waits-for graph deadlock detection.

The cooperative scheduler feeds lock waits into this graph: an edge
``waiter -> holder`` per blocking holder.  Detection is a DFS cycle
search; the victim policy (:meth:`WaitsForGraph.choose_victim`) is the
cycle node with the fewest logged updates, ties broken by the smallest
id, so the choice is deterministic for any given cycle.

A reverse index (holder -> waiters) mirrors the edges, so tearing down
a finished node costs its in-degree, not a walk over every waiter.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Callable, Dict, Iterable, List, Optional, Set, Tuple,
)


class WaitsForGraph:
    """Directed graph of who waits for whom.

    Every waiter in ``_edges`` has at least one target: a waiter whose
    last target leaves is dropped, so it neither reports as waiting nor
    costs :meth:`find_cycle` a visit.
    """

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}
        #: Target -> the waiters with an edge to it; the exact inverse
        #: of ``_edges``.
        self._waiters_of: Dict[str, Set[str]] = {}

    def add_wait(self, waiter: str, holders: Iterable[str]) -> None:
        targets = {holder for holder in holders if holder != waiter}
        if not targets:
            return
        self._edges.setdefault(waiter, set()).update(targets)
        for target in targets:
            self._waiters_of.setdefault(target, set()).add(waiter)

    def clear_waiter(self, waiter: str) -> None:
        targets = self._edges.pop(waiter, None)
        if targets is None:
            return
        waiters_of = self._waiters_of
        for target in targets:
            waiters = waiters_of[target]
            waiters.discard(waiter)
            if not waiters:
                del waiters_of[target]

    def remove_node(self, node: str) -> None:
        """Drop a finished/aborted participant entirely."""
        self.clear_waiter(node)
        edges = self._edges
        for waiter in self._waiters_of.pop(node, ()):
            targets = edges[waiter]
            targets.discard(node)
            if not targets:
                del edges[waiter]

    def targets(self, waiter: str) -> AbstractSet[str]:
        """The nodes ``waiter`` waits for (empty when it waits for none)."""
        return self._edges.get(waiter, frozenset())

    def waiters(self) -> Tuple[str, ...]:
        return tuple(sorted(self._edges))

    def find_cycle(self) -> Optional[List[str]]:
        """Return one cycle as a node list, or None.

        Depth-first from each waiter in sorted order, visiting targets
        in sorted order; the first back edge found closes the cycle.
        Iterative, with an explicit stack: no recursion limit on long
        wait chains, and no per-call closure (a function<->cell cycle).
        """
        edges = self._edges
        done: Set[str] = set()
        for start in sorted(edges):
            if start in done:
                continue
            # ``path`` is the DFS stack of nodes; ``pending`` holds, per
            # node on it, the iterator over its not-yet-tried targets,
            # which the ``for`` below resumes where it left off.
            path = [start]
            on_path = {start}
            pending = [iter(sorted(edges[start]))]
            while pending:
                for target in pending[-1]:
                    if target in done:
                        continue
                    if target in on_path:
                        return path[path.index(target):]
                    path.append(target)
                    on_path.add(target)
                    pending.append(iter(sorted(edges.get(target, ()))))
                    break
                else:
                    on_path.discard(path[-1])
                    done.add(path.pop())
                    pending.pop()
        return None

    def choose_victim(self, cycle: List[str],
                      cost: Callable[[str], int]) -> str:
        """Pick the cheapest-to-abort node in the cycle.

        ``cost`` maps a participant to its abort cost (typically the
        number of updates it has logged); ties break on the name for
        determinism.
        """
        return min(cycle, key=lambda node: (cost(node), node))
