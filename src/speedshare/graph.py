"""Directed communication graphs, switching sequences and consensus weights.

A :class:`CommGraph` holds its edges in two views: an edge set with sorted
per-vertex neighbor tuples, which the protocol reads, and a boolean
adjacency matrix in sorted vertex order, which the window check and the
consensus weights read.  Each view is derived from the other on first use,
so a ring built from edges allocates no matrix and a switching graph built
from its matrix makes no per-edge tuples unless something reads them.

:func:`switching_graph` reads its extra-edge draws from the rng's Mersenne
Twister word stream in one call (:mod:`speedshare.mtstream`).  For a
:class:`random.Random` rng, with CPython's word order, the edges and the
rng state equal those of one ``rng.random()`` call per candidate pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .mtstream import mt_random

VertexId = Hashable

#: Draws :func:`generate_switching_sequence` makes before giving up on the window check.
SWITCHING_ATTEMPTS = 32


class CommGraph:
    """Immutable simple directed graph (no self-loops, no duplicate edges).

    An edge (u, v) means u transmits to v.  Vertex order is normalised to
    sorted order at construction so that derived artefacts (weight matrices,
    neighbor listings) are deterministic.

    A graph has two views of its edges: the edge set with per-vertex neighbor
    tuples, and :attr:`adjacency`, an n x n boolean matrix.  A graph built
    from edges derives the matrix on first use; a graph built from a matrix
    (:meth:`_from_adjacency`, as :func:`switching_graph` does) derives the
    edge set and neighbor tuples on first use.
    """

    __slots__ = ("_vertices", "_edges", "_out", "_in", "_adjacency")

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
        self._adjacency = None

    @classmethod
    def _from_adjacency(cls, vertices: Sequence[VertexId], adjacency) -> "CommGraph":
        """Graph whose edges are the true entries of ``adjacency``.

        ``vertices`` must be distinct and sorted; row and column i of the
        square boolean matrix belong to ``vertices[i]``, and row u, column v
        true means the edge (u, v).  The matrix is copied.
        """
        verts = tuple(vertices)
        if not verts:
            raise ConfigError("graph needs at least one vertex")
        if list(verts) != sorted(set(verts)):
            raise ConfigError("adjacency vertices must be distinct and sorted")
        matrix = np.array(adjacency, dtype=bool)
        if matrix.shape != (len(verts), len(verts)):
            raise ConfigError(
                f"adjacency of shape {matrix.shape} does not match {len(verts)} vertices"
            )
        loops = np.flatnonzero(matrix.diagonal())
        if loops.size:
            raise ConfigError(f"self-loop on vertex {verts[loops[0]]!r} is not allowed")
        matrix.flags.writeable = False
        g = cls.__new__(cls)
        g._vertices = verts
        g._adjacency = matrix
        g._edges = g._out = g._in = None
        return g

    def _lists(self) -> tuple[frozenset, dict, dict]:
        """The edge set and the out- and in-neighbor maps, derived from the matrix on first use."""
        if self._edges is None:
            verts, matrix = self._vertices, self._adjacency

            def neighbors(rows: np.ndarray) -> dict:
                return {
                    v: tuple(verts[j] for j in np.flatnonzero(row).tolist())
                    for v, row in zip(verts, rows)
                }

            tails, heads = np.nonzero(matrix)
            self._edges = frozenset(
                (verts[u], verts[v]) for u, v in zip(tails.tolist(), heads.tolist())
            )
            self._out = neighbors(matrix)
            self._in = neighbors(matrix.T)
        return self._edges, self._out, self._in

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[tuple[VertexId, VertexId]]:
        return self._lists()[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only n x n boolean matrix in :attr:`vertices` order: [u, v] true for edge (u, v)."""
        if self._adjacency is None:
            index = {v: i for i, v in enumerate(self._vertices)}
            matrix = np.zeros((len(index), len(index)), dtype=bool)
            for u, v in self._edges:
                matrix[index[u], index[v]] = True
            matrix.flags.writeable = False
            self._adjacency = matrix
        return self._adjacency

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._lists()[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return self._vertices == other._vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self._vertices, self.edges))

    def __repr__(self) -> str:
        return f"CommGraph({len(self._vertices)} vertices, {len(self.edges)} edges)"

    def out_neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Vertices this vertex transmits to, in sorted order."""
        return self._lists()[1][vertex]

    def in_neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Vertices this vertex receives from, in sorted order."""
        return self._lists()[2][vertex]

    def outdegree(self, vertex: VertexId) -> int:
        return len(self.out_neighbors(vertex))

    def indegree(self, vertex: VertexId) -> int:
        return len(self.in_neighbors(vertex))


def _reaches_all(adjacency: np.ndarray) -> bool:
    """True when vertex 0 reaches every vertex along the matrix's edges."""
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


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


def row_stochastic_from_graph(g: CommGraph) -> np.ndarray:
    """Lazy consensus weights for the graph, rows/columns in ``g.vertices`` order.

    Row i places weight 1/(1 + indegree(i)) on vertex i itself and on each of
    its in-neighbors, zero elsewhere; every row sums to 1 exactly up to float
    rounding.
    """
    a = g.adjacency
    weight = 1.0 / (1 + a.sum(axis=0))
    return (a.T | np.eye(len(a), dtype=bool)) * weight[:, None]


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

        Each stretch's adjacency matrices are OR-ed; the union is strongly
        connected when vertex 0 reaches every vertex along it and along its
        transpose.  No union graph is built.
        """
        adjacency = np.stack([g.adjacency for g in self.graphs])
        n = len(self.graphs)
        for start in range(n):
            stretch = [(start + i) % n for i in range(self.window)]
            union = np.logical_or.reduce(adjacency[stretch])
            if not (_reaches_all(union) and _reaches_all(union.T)):
                return False
        return True


def switching_graph(ids: Sequence[VertexId], rng: random.Random, extra_edge_prob: float = 0.1) -> CommGraph:
    """One random round topology: a ring over a random permutation plus extras.

    The ring guarantees strong connectivity for the round on its own; the
    extra edges vary in/out-degrees so consecutive rounds exercise genuinely
    different weight matrices.

    After ``rng.sample`` draws the permutation, every ordered pair (u, v) of
    distinct ids off the ring, in sorted row-major order, becomes an edge
    when one ``rng.random()`` value is below ``extra_edge_prob``.  Those
    values come from one word read (:func:`speedshare.mtstream.mt_random`),
    so the edges, and the state ``rng`` is left in, are those of one
    ``rng.random()`` call per pair, under its preconditions: a
    :class:`random.Random` rng and CPython's ``getrandbits`` word order.
    The graph is built from its adjacency matrix.
    """
    ids = sorted(ids)
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    perm = [index[v] for v in rng.sample(ids, n)]
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[perm, perm[1:] + perm[:1]] = True
    extra = ~adjacency
    np.fill_diagonal(extra, False)
    adjacency[extra] = mt_random(rng, int(extra.sum())) < extra_edge_prob
    return CommGraph._from_adjacency(ids, adjacency)


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
