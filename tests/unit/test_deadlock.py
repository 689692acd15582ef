"""Unit tests for waits-for deadlock detection."""

from hypothesis import given, strategies as st

from repro.locking.deadlock import WaitsForGraph


class TestCycles:
    def test_no_cycle(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("B", ["C"])
        assert graph.find_cycle() is None

    def test_two_cycle(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("B", ["A"])
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"A", "B"}

    def test_three_cycle(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("B", ["C"])
        graph.add_wait("C", ["A"])
        assert set(graph.find_cycle()) == {"A", "B", "C"}

    def test_self_edges_ignored(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["A"])
        assert graph.find_cycle() is None

    def test_cycle_in_larger_graph(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("X", ["Y"])
        graph.add_wait("B", ["A"])
        assert set(graph.find_cycle()) == {"A", "B"}

    def test_first_cycle_in_sorted_visit_order(self):
        """Waiters and targets are visited in sorted order, and the cycle
        runs from the back edge's target along the DFS path: victim
        choice depends on exactly which cycle comes back."""
        graph = WaitsForGraph()
        graph.add_wait("A", ["C", "B"])
        graph.add_wait("B", ["E", "D"])
        graph.add_wait("D", ["F"])
        graph.add_wait("E", ["B"])
        graph.add_wait("C", ["A"])
        # A -> B -> D -> F (dead end), then B -> E -> B closes first.
        assert graph.find_cycle() == ["B", "E"]

    def test_long_wait_chain(self):
        """A chain far deeper than the recursion limit is searched."""
        graph = WaitsForGraph()
        names = [f"T{i:05d}" for i in range(20000)]
        for waiter, holder in zip(names, names[1:]):
            graph.add_wait(waiter, [holder])
        assert graph.find_cycle() is None
        graph.add_wait(names[-1], [names[0]])
        assert graph.find_cycle() == names


class TestMaintenance:
    def test_clear_waiter_breaks_cycle(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("B", ["A"])
        graph.clear_waiter("A")
        assert graph.find_cycle() is None

    def test_remove_node(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("B", ["A", "C"])
        graph.remove_node("A")
        assert graph.find_cycle() is None
        assert "A" not in graph.waiters()

    def test_waiters_listed(self):
        graph = WaitsForGraph()
        graph.add_wait("B", ["C"])
        graph.add_wait("A", ["C"])
        assert graph.waiters() == ("A", "B")

    def test_waiter_whose_last_target_left_is_dropped(self):
        graph = WaitsForGraph()
        graph.add_wait("A", ["B"])
        graph.add_wait("C", ["B", "D"])
        graph.remove_node("B")
        assert graph.waiters() == ("C",)
        assert graph.targets("A") == set()
        assert graph.targets("C") == {"D"}


class EdgeWalkGraph(WaitsForGraph):
    """The graph before the reverse index: teardown walks every
    waiter's edge set and leaves emptied sets behind.  ``find_cycle``
    is inherited unchanged, so it searches these edges exactly as it
    did then."""

    def add_wait(self, waiter, holders):
        targets = {holder for holder in holders if holder != waiter}
        if targets:
            self._edges.setdefault(waiter, set()).update(targets)

    def clear_waiter(self, waiter):
        self._edges.pop(waiter, None)

    def remove_node(self, node):
        self._edges.pop(node, None)
        for targets in self._edges.values():
            targets.discard(node)


NODES = st.sampled_from("ABCDEF")
GRAPH_OPS = st.lists(st.one_of(
    st.tuples(st.just("add_wait"), NODES, st.lists(NODES, max_size=3)),
    st.tuples(st.just("clear_waiter"), NODES),
    st.tuples(st.just("remove_node"), NODES),
), max_size=40)


class TestReverseIndex:
    @given(GRAPH_OPS)
    def test_index_inverts_edges_and_cycles_match(self, script):
        graph, reference = WaitsForGraph(), EdgeWalkGraph()
        for op, node, *holders in script:
            getattr(graph, op)(node, *holders)
            getattr(reference, op)(node, *holders)
            inverse = {}
            for waiter, targets in graph._edges.items():
                assert targets, f"{waiter} kept an empty edge set"
                for target in targets:
                    inverse.setdefault(target, set()).add(waiter)
            assert graph._waiters_of == inverse
            assert graph._edges == {
                waiter: targets
                for waiter, targets in reference._edges.items() if targets}
            assert graph.find_cycle() == reference.find_cycle()


class TestVictimSelection:
    def test_cheapest_chosen(self):
        graph = WaitsForGraph()
        cost = {"A": 10, "B": 2, "C": 5}
        assert graph.choose_victim(["A", "B", "C"], cost.__getitem__) == "B"

    def test_ties_break_by_name(self):
        graph = WaitsForGraph()
        assert graph.choose_victim(["B", "A"], lambda n: 1) == "A"
