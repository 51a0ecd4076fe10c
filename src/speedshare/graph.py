"""Directed communication graphs, switching sequences and consensus weights."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import ConfigError

VertexId = Hashable

#: Draws :func:`generate_switching_sequence` makes before giving up on the window check.
SWITCHING_ATTEMPTS = 32


class CommGraph:
    """Immutable simple directed graph (no self-loops, no duplicate edges).

    An edge (u, v) means u transmits to v.  Vertex order is normalised to
    sorted order at construction so that derived artefacts (weight matrices,
    neighbor listings) are deterministic.
    """

    __slots__ = ("_vertices", "_edges", "_out", "_in")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]):
        verts = sorted(set(vertices))
        if not verts:
            raise ConfigError("graph needs at least one vertex")
        known = set(verts)
        out: dict[VertexId, set] = {v: set() for v in verts}
        incoming: dict[VertexId, set] = {v: set() for v in verts}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ConfigError(f"self-loop on vertex {u!r} is not allowed")
            if u not in known or v not in known:
                raise ConfigError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            edge_set.add((u, v))
            out[u].add(v)
            incoming[v].add(u)
        self._vertices = tuple(verts)
        self._edges = frozenset(edge_set)
        self._out = {v: tuple(sorted(out[v])) for v in verts}
        self._in = {v: tuple(sorted(incoming[v])) for v in verts}

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[tuple[VertexId, VertexId]]:
        return self._edges

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"CommGraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def _require(self, vertex: VertexId) -> None:
        if vertex not in self._out:
            raise KeyError(vertex)

    def out_neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Vertices this vertex transmits to, in sorted order."""
        self._require(vertex)
        return self._out[vertex]

    def in_neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Vertices this vertex receives from, in sorted order."""
        self._require(vertex)
        return self._in[vertex]

    def outdegree(self, vertex: VertexId) -> int:
        self._require(vertex)
        return len(self._out[vertex])

    def indegree(self, vertex: VertexId) -> int:
        self._require(vertex)
        return len(self._in[vertex])


def _reachable(start: VertexId, adjacency: dict) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _strongly_connected(verts: Sequence[VertexId], out: dict, incoming: dict) -> bool:
    if len(verts) == 1:
        return True
    start = verts[0]
    if len(_reachable(start, out)) != len(verts):
        return False
    return len(_reachable(start, incoming)) == len(verts)


def is_strongly_connected(g: CommGraph) -> bool:
    """True when every vertex can reach every other along directed edges."""
    return _strongly_connected(g.vertices, g._out, g._in)


def validate_privacy_precondition(g: CommGraph) -> list:
    """Vertices that could not split their table with anyone (outdegree 0).

    An empty list means every participant has at least one out-neighbor and
    the sharing step leaks nothing.  Callers typically attach a dummy
    participant for each violator (see :func:`speedshare.harness.attach_dummy_vehicle`).
    """
    return [v for v in g.vertices if g.outdegree(v) == 0]


def ring_over(ids: Sequence[VertexId]) -> CommGraph:
    """Directed ring following the given id order: ids[0] -> ids[1] -> ... -> ids[0]."""
    ids = list(ids)
    if len(ids) < 2:
        raise ConfigError("a ring needs at least 2 vertices")
    if len(set(ids)) != len(ids):
        raise ConfigError("ring ids must be unique")
    edges = [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]
    return CommGraph(ids, edges)


def ring_topology(n: int) -> CommGraph:
    """Directed ring over integer vertices 1..n."""
    if n < 2:
        raise ConfigError(f"a ring needs at least 2 vertices, got n={n}")
    return ring_over(range(1, n + 1))


def union_graph(graphs: Sequence[CommGraph]) -> CommGraph:
    """Union of edge sets; all graphs must share one vertex set."""
    if not graphs:
        raise ConfigError("cannot union zero graphs")
    verts = graphs[0].vertices
    for g in graphs[1:]:
        if g.vertices != verts:
            raise ConfigError("union requires identical vertex sets")
    edges = set()
    for g in graphs:
        edges |= g.edges
    return CommGraph(verts, edges)


def row_stochastic_from_graph(g: CommGraph) -> np.ndarray:
    """Lazy consensus weights for the graph, rows/columns in ``g.vertices`` order.

    Row i places weight 1/(1 + indegree(i)) on vertex i itself and on each of
    its in-neighbors, zero elsewhere; every row sums to 1 exactly up to float
    rounding.
    """
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    p = np.zeros((n, n))
    for v in verts:
        i = idx[v]
        w = 1.0 / (1 + g.indegree(v))
        p[i, i] = w
        for u in g.in_neighbors(v):
            p[i, idx[u]] = w
    return p


@dataclass(frozen=True)
class GraphSequence:
    """A cyclic schedule of communication graphs, one per round/iteration.

    ``window`` records the length over which the edge-union is guaranteed
    strongly connected (1 for a static strongly connected graph).
    """

    graphs: tuple[CommGraph, ...]
    window: int = 1

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ConfigError("graph sequence cannot be empty")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        verts = self.graphs[0].vertices
        for g in self.graphs[1:]:
            if g.vertices != verts:
                raise ConfigError("all graphs in a sequence must share one vertex set")

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self.graphs[0].vertices

    def __len__(self) -> int:
        return len(self.graphs)

    def at(self, k: int) -> CommGraph:
        """Graph used at round/iteration k (cyclic)."""
        if k < 0:
            raise ConfigError(f"round index must be >= 0, got {k}")
        return self.graphs[k % len(self.graphs)]

    def windows_strongly_connected(self) -> bool:
        """Check that every length-``window`` stretch has a strongly connected union.

        The stretch's adjacency sets are united directly; no union graph is built.
        """
        verts = self.vertices

        def union(adjacencies: list[dict]) -> dict:
            return {v: set().union(*(adj[v] for adj in adjacencies)) for v in verts}

        n = len(self.graphs)
        for start in range(n):
            stretch = [self.graphs[(start + i) % n] for i in range(self.window)]
            out = union([g._out for g in stretch])
            incoming = union([g._in for g in stretch])
            if not _strongly_connected(verts, out, incoming):
                return False
        return True


def switching_graph(ids: Sequence[VertexId], rng: random.Random, extra_edge_prob: float = 0.1) -> CommGraph:
    """One random round topology: a ring over a random permutation plus extras.

    The ring guarantees strong connectivity for the round on its own; the
    extra edges vary in/out-degrees so consecutive rounds exercise genuinely
    different weight matrices.
    """
    ids = sorted(ids)
    perm = rng.sample(ids, len(ids))
    edges = {(perm[i], perm[(i + 1) % len(perm)]) for i in range(len(perm))}
    for u in ids:
        for v in ids:
            if u != v and (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return CommGraph(ids, edges)


def generate_switching_sequence(
    ids: Sequence[VertexId],
    rounds: int,
    window: int = 5,
    seed: int = 0,
    extra_edge_prob: float = 0.1,
) -> GraphSequence:
    """Random time-varying topology whose every ``window``-union is strongly connected.

    Deterministic for a given (ids, rounds, window, seed).  If a draw fails
    the window check the whole sequence is redrawn from a derived seed; with
    per-round rings this effectively never happens, but the check is kept so
    the guarantee is verified rather than assumed.
    """
    if len(ids) < 2:
        raise ConfigError("switching sequence needs at least 2 vertices")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    for attempt in range(SWITCHING_ATTEMPTS):
        rng = random.Random(f"switching:{seed}:{attempt}")
        seq = GraphSequence(
            tuple(switching_graph(ids, rng, extra_edge_prob) for _ in range(rounds)),
            window=window,
        )
        if seq.windows_strongly_connected():
            return seq
    raise ConfigError(
        f"could not draw a window-{window} strongly connected sequence "
        f"in {SWITCHING_ATTEMPTS} attempts"
    )
