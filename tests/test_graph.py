import itertools
import random

import numpy as np
import pytest

from speedshare.errors import ConfigError
from speedshare.graph import (
    CommGraph,
    GraphSequence,
    generate_switching_sequence,
    ring_over,
    row_stochastic_from_graph,
    switching_graph,
    validate_privacy_precondition,
)


def ring(n):
    """Directed ring over the integer vertices 1..n."""
    return ring_over(range(1, n + 1))


def strongly_connected(g):
    """The window check on a one-graph sequence: the graph itself is strongly connected."""
    return GraphSequence((g,)).windows_strongly_connected()


def test_basic_construction_and_queries():
    g = CommGraph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.out_neighbors("a") == ("b", "c")
    assert g.in_neighbors("a") == ("c",)
    assert g.outdegree("a") == 2
    assert g.indegree("c") == 2


def test_duplicate_edges_collapse():
    g = CommGraph([1, 2], [(1, 2), (1, 2), (2, 1)])
    assert len(g.edges) == 2


def test_self_loop_rejected():
    with pytest.raises(ConfigError):
        CommGraph([1, 2], [(1, 1)])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ConfigError):
        CommGraph([1, 2], [(1, 3)])


def test_empty_vertex_set_rejected():
    with pytest.raises(ConfigError):
        CommGraph([], [])


def test_unknown_vertex_lookup():
    g = CommGraph([1, 2], [(1, 2)])
    with pytest.raises(KeyError):
        g.outdegree(99)
    with pytest.raises(KeyError):
        g.in_neighbors(99)


def test_outdegree_examples():
    assert ring(6).outdegree(3) == 1
    isolated = CommGraph([1, 2], [(2, 1)])
    assert isolated.outdegree(1) == 0
    complete = CommGraph(range(4), [(u, v) for u in range(4) for v in range(4) if u != v])
    assert all(complete.outdegree(v) == 3 for v in complete.vertices)


class TestStrongConnectivity:
    def test_ring_is_strongly_connected(self):
        assert strongly_connected(ring(6))

    def test_single_vertex(self):
        assert strongly_connected(CommGraph([1], []))

    def test_broken_ring(self):
        g = CommGraph(range(1, 4), [(1, 2), (2, 3)])
        assert not strongly_connected(g)

    def test_two_disjoint_rings(self):
        edges = [(1, 2), (2, 1), (3, 4), (4, 3)]
        assert not strongly_connected(CommGraph(range(1, 5), edges))

    @staticmethod
    def _closure_connected(n, edge_bits):
        # independent oracle: boolean adjacency closure via repeated squaring
        adj = np.eye(n, dtype=bool)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bit, (u, v) in enumerate(pairs):
            if edge_bits >> bit & 1:
                adj[u, v] = True
        reach = adj.copy()
        for _ in range(n):
            reach = reach | (reach @ reach)
        return bool(reach.all())

    @staticmethod
    def _graph_from_bits(n, edge_bits):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [pairs[bit] for bit in range(len(pairs)) if edge_bits >> bit & 1]
        return CommGraph(range(n), edges)

    @pytest.mark.parametrize("n,expected_count", [(2, 1), (3, 18), (4, 1606)])
    def test_exhaustive_small_digraphs(self, n, expected_count):
        pairs = n * (n - 1)
        count = 0
        for bits in range(2**pairs):
            got = strongly_connected(self._graph_from_bits(n, bits))
            assert got == self._closure_connected(n, bits)
            count += got
        # known counts of labelled strongly connected digraphs
        assert count == expected_count

    def test_sampled_five_vertex_digraphs(self):
        rng = random.Random(424242)
        for _ in range(300):
            bits = rng.getrandbits(20)
            assert strongly_connected(self._graph_from_bits(5, bits)) == (
                self._closure_connected(5, bits)
            )


def test_privacy_precondition_ring_ok():
    assert validate_privacy_precondition(ring(6)) == []


def test_privacy_precondition_inward_star():
    # all leaves point at the hub; only the hub cannot split
    g = CommGraph(["hub", "l1", "l2", "l3"], [("l1", "hub"), ("l2", "hub"), ("l3", "hub")])
    assert validate_privacy_precondition(g) == ["hub"]


def test_privacy_precondition_no_edges():
    g = CommGraph([1, 2, 3], [])
    assert validate_privacy_precondition(g) == [1, 2, 3]


class TestRings:
    def test_six_ring_edges(self):
        g = ring(6)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)})

    def test_two_ring(self):
        assert ring(2).edges == frozenset({(1, 2), (2, 1)})

    def test_one_vertex_rejected(self):
        with pytest.raises(ConfigError):
            ring(1)
        with pytest.raises(ConfigError):
            ring_over(["solo"])

    def test_ring_over_preserves_order(self):
        g = ring_over(["c", "a", "b"])
        assert (("c", "a") in g.edges) and (("a", "b") in g.edges) and (("b", "c") in g.edges)

    def test_rings_always_valid(self):
        for n in range(2, 1001):
            g = ring(n)
            assert validate_privacy_precondition(g) == []
            # One cycle through every vertex: the ring is strongly connected.
            v, seen = 1, set()
            for _ in range(n):
                seen.add(v)
                (v,) = g.out_neighbors(v)
            assert v == 1 and len(seen) == n


class TestRowStochastic:
    def test_single_vertex(self):
        p = row_stochastic_from_graph(CommGraph([1], []))
        assert p.tolist() == [[1.0]]

    def test_two_ring(self):
        p = row_stochastic_from_graph(ring(2))
        assert p.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_six_ring_structure(self):
        p = row_stochastic_from_graph(ring(6))
        for i in range(6):
            assert p[i, i] == 0.5
            assert p[i, (i - 1) % 6] == 0.5
        assert np.count_nonzero(p) == 12

    def test_positive_entries_only_on_self_or_incoming_edge(self):
        rng = random.Random(99)
        for _ in range(100):
            g = switching_graph(list(range(5)), rng, extra_edge_prob=0.3)
            p = row_stochastic_from_graph(g)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0.0)
            for i, v in enumerate(g.vertices):
                for j, u in enumerate(g.vertices):
                    if p[i, j] > 0:
                        assert u == v or (u, v) in g.edges


class TestGraphSequence:
    def test_cycles(self):
        seq = GraphSequence((ring(3), ring(3)), window=1)
        assert seq.at(0) is seq.graphs[0]
        assert seq.at(5) is seq.graphs[1]
        assert len(seq) == 2

    def test_negative_round_rejected(self):
        seq = GraphSequence((ring(3),))
        with pytest.raises(ConfigError):
            seq.at(-1)

    def test_vertex_set_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            GraphSequence((ring(3), ring(4)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            GraphSequence(())


class TestSwitchingSequence:
    def test_deterministic_for_seed(self):
        ids = list(range(6))
        a = generate_switching_sequence(ids, rounds=10, window=5, seed=7)
        b = generate_switching_sequence(ids, rounds=10, window=5, seed=7)
        assert a.graphs == b.graphs
        c = generate_switching_sequence(ids, rounds=10, window=5, seed=8)
        assert a.graphs != c.graphs

    def test_window_unions_strongly_connected(self):
        for seed in range(20):
            seq = generate_switching_sequence(list(range(6)), rounds=50, window=5, seed=seed)
            assert seq.windows_strongly_connected()

    def test_single_round_window_one(self):
        seq = generate_switching_sequence(list(range(6)), rounds=1, window=1, seed=3)
        assert strongly_connected(seq.at(0))

    def test_two_vehicles_forced_ring(self):
        seq = generate_switching_sequence(["a", "b"], rounds=4, window=1, seed=0)
        for g in seq.graphs:
            assert g.edges == frozenset({("a", "b"), ("b", "a")})

    def test_too_few_vertices(self):
        with pytest.raises(ConfigError):
            generate_switching_sequence(["x"], rounds=3, window=1, seed=0)
