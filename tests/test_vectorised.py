"""Whole-table masking, the transcript-derived privacy metric, the stacked
baseline derivative, the union-free window check, bulk share draws, the
array round, bulk switching-graph draws, matrix consensus weights, the
adjacency view of a graph and the one fleet cost evaluation per round.

Each replaces a per-point or per-graph loop; these tests pin them to the
rules they replaced, recomputed here independently of the vectorised paths.
"""

import random
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedshare.baseline import DpConfig, mu_upper_bound, run_dp
from speedshare.emissions import (
    EmissionFactors,
    Vehicle,
    VehicleClass,
    build_speed_grid,
    emission_derivative,
)
from speedshare.errors import ConfigError, EncodingError
from speedshare.graph import (
    CommGraph,
    GraphSequence,
    generate_switching_sequence,
    ring_over,
    row_stochastic_from_graph,
    switching_graph,
)
from speedshare.harness import ScenarioConfig, attach_dummy_vehicle, run_scenario
from speedshare.metrics import local_estimated_error, privacy_report, traffic_report
from speedshare.protocol import (
    SCALE,
    AggregatedTable,
    MaskingParams,
    base_station_aggregate,
    draw_shares,
    execute_round,
    from_fixed,
    mask,
    to_fixed,
)
from speedshare.wire import encode_share_columns

FEW = settings(max_examples=40, deadline=None)


def scalar_fixed(value: float) -> int:
    """The scalar quantiser the array path replaced: round half away from zero."""
    scaled = value * SCALE
    return int(scaled + 0.5) if scaled >= 0 else -int(-scaled + 0.5)


def scalar_mask(value: float, params: MaskingParams) -> int:
    return scalar_fixed(params.a * value + params.b)


finite = dict(allow_nan=False, allow_infinity=False)
factors = st.builds(
    EmissionFactors,
    a=st.floats(0.0, 5000.0, **finite),
    b=st.floats(-200.0, 200.0, **finite),
    c=st.floats(-1.0, 1.0, **finite),
    d=st.floats(0.0, 0.02, **finite),
    e=st.floats(-1e-5, 1e-5, **finite),
    k=st.floats(0.5, 2.0, **finite),
)
masking = st.builds(
    MaskingParams,
    a=st.floats(0.01, 10.0, **finite),
    b=st.floats(-5000.0, 5000.0, **finite),
)
grids = st.builds(
    lambda m, lo, width: build_speed_grid(m, lo, lo + width),
    st.integers(2, 30),
    st.floats(1.0, 60.0, **finite),
    st.floats(1.0, 100.0, **finite),
)
#: Sixteenths are exact in binary and 1000/16 = 62.5, so an odd numerator
#: lands exactly on a .5 tie after scaling.
sixteenths = st.integers(-(10**6), 10**6).map(lambda j: j / 16)


class TestArrayMasking:
    @FEW
    @given(factors, masking, grids)
    def test_array_mask_matches_scalar_loop(self, f, params, grid):
        vehicle = Vehicle("v", factors=f)
        table = mask(vehicle.cost(np.asarray(grid.speeds)), params)
        assert table == [mask(vehicle.cost(s), params) for s in grid]
        assert table == [scalar_mask(vehicle.cost(s), params) for s in grid]
        assert all(type(v) is int for v in table)

    @FEW
    @given(st.lists(sixteenths, min_size=2, max_size=20), sixteenths)
    def test_ties_and_negatives_round_half_away_from_zero(self, costs, offset):
        grid = build_speed_grid(len(costs), 5.0, 140.0)
        vehicle = Vehicle.from_table("t", dict(zip(grid.speeds, costs)))
        params = MaskingParams(a=1.0, b=offset)
        table = mask(vehicle.cost(np.asarray(grid.speeds)), params)
        assert table == [scalar_mask(c, params) for c in costs]

    def test_pinned_ties(self):
        values = np.array([0.0625, -0.0625, 0.1875, -0.1875, 0.0614, -0.0614, 0.0])
        assert to_fixed(values) == [63, -63, 188, -188, 61, -61, 0]
        assert [to_fixed(float(v)) for v in values] == to_fixed(values)

    def test_scalar_gives_int_array_gives_list(self):
        assert type(to_fixed(1.5)) is int
        assert to_fixed(np.array([1.5])) == [1500]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_an_encoding_error(self, bad):
        with pytest.raises(EncodingError, match="not a finite number"):
            to_fixed(bad)
        with pytest.raises(EncodingError, match="not a finite number"):
            to_fixed(np.array([1.0, bad]))

    def test_array_overflow_names_first_offender(self):
        with pytest.raises(EncodingError, match="value 2147483.648 does not fit"):
            to_fixed(np.array([1.0, 2147483.648, 1e12]))

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_mask_parameter_rejected_by_name(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name}={bad}"):
            MaskingParams(**{name: bad})

    def test_nan_cost_is_a_recorded_round_failure(self):
        # A config file cannot carry a NaN cost (the parser rejects it), but a
        # vehicle built in code can; its round fails instead of the scenario.
        cfg = ScenarioConfig(
            vehicles=(
                Vehicle.from_table("p", {40.0: float("nan"), 50.0: 1.0}),
                Vehicle.from_table("q", {40.0: 2.0, 50.0: 1.0}),
            ),
            grid_m=2,
            grid_lo=40.0,
            grid_hi=50.0,
        )
        (rnd,) = run_scenario(cfg).rounds
        assert "not a finite number" in rnd.failure


def cost_model_error(transcript, vehicle, fleet, g, params):
    """The estimate the transcript-derived metric replaced: received minus Σ in-neighbor masks."""
    grid = transcript.grid
    by_id = {v.vehicle_id: v for v in fleet}
    received = [0] * grid.m
    for msg in transcript.inboxes.get(vehicle.vehicle_id, ()):
        received = [r + v for r, v in zip(received, msg.values)]
    truth = [0] * grid.m
    for u in g.in_neighbors(vehicle.vehicle_id):
        if u in by_id:
            truth = [t + scalar_mask(by_id[u].cost(s), params) for t, s in zip(truth, grid)]
    return tuple((r - t) / SCALE for r, t in zip(received, truth))


FLEET = [Vehicle.from_class(f"{c.name}-{i}", c) for c in VehicleClass for i in range(2)]
IDS = [v.vehicle_id for v in FLEET]
TABLE_VEHICLE = Vehicle.from_table(
    "T", {s: 100.0 + 0.5 * i for i, s in enumerate(build_speed_grid(7, 5.0, 140.0))}
)


def ring(seed):
    return FLEET, ring_over(IDS)


def switching(seed):
    return FLEET, switching_graph(IDS, random.Random(seed), extra_edge_prob=0.4)


def dummy_attached(seed):
    # The last vehicle only receives, so it needs the dummy to split its table.
    edges = [(IDS[i], IDS[i + 1]) for i in range(len(IDS) - 1)] + [(IDS[-2], IDS[0])]
    return FLEET, attach_dummy_vehicle(CommGraph(IDS, edges), IDS[-1])


def silent_sender(seed):
    # A non-fleet vertex with an edge into the fleet sends nothing.
    edges = set(ring_over(IDS).edges) | {("ghost", IDS[0]), (IDS[0], "ghost")}
    return FLEET, CommGraph(IDS + ["ghost"], edges)


def with_table_vehicle(seed):
    fleet = FLEET[:3] + [TABLE_VEHICLE]
    ids = [v.vehicle_id for v in fleet]
    return fleet, switching_graph(ids, random.Random(seed), extra_edge_prob=0.5)


class TestTranscriptPrivacy:
    @pytest.mark.parametrize(
        "build", [ring, switching, dummy_attached, silent_sender, with_table_vehicle]
    )
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**30), params=masking)
    def test_matches_cost_model_estimate(self, build, seed, params):
        fleet, g = build(seed)
        grid = build_speed_grid(7, 5.0, 140.0)
        transcript = execute_round(fleet, g, grid, params, random.Random(seed), 10**6)
        for vehicle in fleet:
            assert local_estimated_error(transcript, vehicle.vehicle_id) == cost_model_error(
                transcript, vehicle, fleet, g, params
            )

    def test_masked_tables_restore_every_sender(self):
        params = MaskingParams(a=2.0, b=-30.0)
        grid = build_speed_grid(9, 5.0, 140.0)
        fleet, g = dummy_attached(0)
        transcript = execute_round(fleet, g, grid, params, random.Random(3), 10**8)
        # Each sender's masked table: its kept share plus every column it sent.
        masked_tables = {}
        for msg in transcript.messages:
            table = masked_tables.setdefault(msg.sender, list(transcript.kept[msg.sender].values))
            masked_tables[msg.sender] = [t + s for t, s in zip(table, msg.values)]
        assert set(masked_tables) == set(IDS)
        for v in fleet:
            assert masked_tables[v.vehicle_id] == [scalar_mask(v.cost(s), params) for s in grid]

    def test_report_flags_match_inbox_senders(self):
        fleet, g = dummy_attached(0)
        grid = build_speed_grid(5, 5.0, 140.0)
        transcript = execute_round(fleet, g, grid, MaskingParams(), random.Random(1), 10**8)
        report = privacy_report(transcript, fleet)
        assert set(report.local_error) == set(IDS)
        assert report.exact_estimates == ()


def scalar_run_dp(fleet, graphs, config, s0):
    """The per-vehicle scalar baseline loop the stacked derivative replaced."""

    def gradient_sum(speeds):
        return float(
            sum(emission_derivative(v.factors, float(s)) for v, s in zip(fleet, speeds))
        )

    def gradient_residual(speeds):
        s_bar = float(np.mean(speeds))
        return abs(gradient_sum([s_bar] * len(fleet)))

    order = [graphs.vertices.index(v.vehicle_id) for v in fleet]
    perm = np.ix_(order, order)
    speeds = np.clip(np.asarray(s0, dtype=float), config.speed_lo, config.speed_hi)
    k = 0
    residuals = [gradient_residual(speeds)]
    trajectory = [tuple(float(s) for s in speeds)]
    converged = False
    while True:
        spread = float(np.max(speeds) - np.min(speeds))
        if spread < config.tol_consensus and residuals[-1] < config.tol_gradient:
            converged = True
            break
        if k >= config.max_iter:
            break
        p = row_stochastic_from_graph(graphs.at(k))[perm]
        speeds = p @ speeds - config.mu * gradient_sum(speeds)
        np.clip(speeds, config.speed_lo, config.speed_hi, out=speeds)
        k += 1
        residuals.append(gradient_residual(speeds))
        trajectory.append(tuple(float(s) for s in speeds))
    return k, converged, tuple(residuals), tuple(trajectory)


#: Curvature 2*k*d >= 2e-3*k dominates every higher-order term on [5, 140]
#: (|6e s| + |12f s^2| + |20g s^3| <= 9.3e-4), so every draw is strictly convex.
convex_factors = st.builds(
    EmissionFactors,
    a=st.floats(0.0, 5000.0, **finite),
    b=st.floats(-200.0, 200.0, **finite),
    c=st.floats(-1.0, 1.0, **finite),
    d=st.floats(1e-3, 0.02, **finite),
    e=st.floats(-5e-7, 5e-7, **finite),
    f=st.floats(-1e-9, 1e-9, **finite),
    g=st.floats(-5e-12, 5e-12, **finite),
    k=st.floats(0.5, 2.0, **finite),
)


class TestStackedBaseline:
    @FEW
    @given(
        # Up to twelve vehicles: above eight, numpy's unrolled np.sum rounds
        # differently from the builtin left-to-right sum.
        factor_list=st.lists(convex_factors, min_size=1, max_size=12),
        switching=st.booleans(),
        seed=st.integers(0, 2**16),
        step=st.floats(0.1, 1.0),
        tol=st.floats(0.01, 50.0),
        data=st.data(),
    )
    def test_run_dp_matches_scalar_loop(self, factor_list, switching, seed, step, tol, data):
        fleet = [Vehicle(f"v{i}", factors=f) for i, f in enumerate(factor_list)]
        ids = [v.vehicle_id for v in fleet]
        if len(ids) == 1:
            graphs = GraphSequence((CommGraph(ids, ()),))
        elif switching:
            graphs = generate_switching_sequence(ids, rounds=7, window=3, seed=seed)
        else:
            graphs = GraphSequence((ring_over(ids),))
        mu = step * mu_upper_bound(fleet, 5.0, 140.0)
        config = DpConfig(mu=mu, tol_consensus=tol, tol_gradient=tol, max_iter=40)
        s0 = data.draw(st.lists(st.floats(5.0, 140.0), min_size=len(fleet), max_size=len(fleet)))
        result = run_dp(fleet, graphs, config, s0)
        iterations, converged, residuals, trajectory = scalar_run_dp(fleet, graphs, config, s0)
        assert result.iterations == iterations
        assert result.converged == converged
        assert result.residuals == residuals
        assert result.trajectory == trajectory
        assert all(type(s) is float for row in result.trajectory for s in row)


def random_sequence(n_vertices, rounds, window, edge_prob, seed):
    rng = random.Random(seed)
    verts = list(range(n_vertices))
    graphs = tuple(
        CommGraph(verts, [(u, v) for u in verts for v in verts if u != v and rng.random() < edge_prob])
        for _ in range(rounds)
    )
    return GraphSequence(graphs, window=window)


def strongly_connected(vertices, edges):
    """Breadth-first search from the first vertex, along the edges and against them."""
    forward = {v: [] for v in vertices}
    backward = {v: [] for v in vertices}
    for u, v in edges:
        forward[u].append(v)
        backward[v].append(u)
    for adjacency in (forward, backward):
        seen = {vertices[0]}
        queue = deque(seen)
        while queue:
            for v in adjacency[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != len(vertices):
            return False
    return True


def union_window_check(seq):
    """The check the union-free one replaced: one union graph per window."""
    n = len(seq.graphs)
    return all(
        strongly_connected(
            seq.vertices, set().union(*(seq.graphs[(s + i) % n].edges for i in range(seq.window)))
        )
        for s in range(n)
    )


class TestWindowCheck:
    @settings(max_examples=150, deadline=None)
    @given(
        n_vertices=st.integers(1, 6),
        rounds=st.integers(1, 6),
        window=st.integers(1, 4),
        edge_prob=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_union_graph_check(self, n_vertices, rounds, window, edge_prob, seed):
        seq = random_sequence(n_vertices, rounds, window, edge_prob, seed)
        assert seq.windows_strongly_connected() == union_window_check(seq)

    def test_both_verdicts_occur(self):
        verdicts = {
            union_window_check(random_sequence(5, 4, 2, 0.25, seed)) for seed in range(50)
        }
        assert verdicts == {True, False}
        for seed in range(50):
            seq = random_sequence(5, 4, 2, 0.25, seed)
            assert seq.windows_strongly_connected() == union_window_check(seq)

    def test_disconnected_window_is_false(self):
        # Rounds 0 and 1 only ever send 0 -> 1 and 1 -> 0; vertex 2 is cut off
        # in the window (0, 1) even though the window (1, 2) reaches it.
        a = CommGraph([0, 1, 2], [(0, 1), (1, 0)])
        b = CommGraph([0, 1, 2], [(0, 1), (1, 0)])
        c = CommGraph([0, 1, 2], [(1, 2), (2, 0)])
        assert not GraphSequence((a, b, c), window=2).windows_strongly_connected()
        assert GraphSequence((a, c), window=2).windows_strongly_connected()


def randrange_draws(rng, count, bound):
    """The per-call draw loop ``draw_shares`` replaced."""
    return [rng.randrange(2 * bound + 1) - bound for _ in range(count)]


#: 2**j has width 2**(j+1) + 1, so about half of all attempts are rejected.
share_bounds = st.one_of(
    st.sampled_from([1, 10**8, 2**31 - 1]),
    st.integers(0, 30).map(lambda j: 2**j),
    st.integers(1, 2**31 - 1),
)


class TestDrawShares:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), count=st.integers(0, 300), bound=share_bounds)
    def test_matches_randrange_loop_and_leaves_same_state(self, seed, count, bound):
        bulk, loop = random.Random(seed), random.Random(seed)
        draws = draw_shares(bulk, count, bound)
        assert draws.dtype == np.int64
        assert draws.tolist() == randrange_draws(loop, count, bound)
        assert bulk.getstate() == loop.getstate()

    def test_rejections_occur_and_are_redrawn(self):
        # Width 2**31 + 1 rejects almost half of all 32-bit words.
        rng = random.Random(0)
        words = [rng.getrandbits(32) for _ in range(300)]
        assert sum(w >= 2**31 + 1 for w in words) > 100
        bulk, loop = random.Random(0), random.Random(0)
        assert draw_shares(bulk, 300, 2**30).tolist() == randrange_draws(loop, 300, 2**30)
        assert bulk.getstate() == loop.getstate()

    def test_bound_beyond_int32_rejected(self):
        with pytest.raises(EncodingError, match="share bound 2147483648"):
            draw_shares(random.Random(0), 3, 2**31)


def loop_switching_graph(ids, rng, extra_edge_prob):
    """The per-pair draw loop the bulk ``switching_graph`` replaced."""
    ids = sorted(ids)
    perm = rng.sample(ids, len(ids))
    edges = {(perm[i], perm[(i + 1) % len(perm)]) for i in range(len(perm))}
    for u in ids:
        for v in ids:
            if u != v and (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return CommGraph(ids, edges)


def loop_weights(g):
    """The per-vertex loop the matrix ``row_stochastic_from_graph`` replaced."""
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    p = np.zeros((len(verts), len(verts)))
    for v in verts:
        w = 1.0 / (1 + g.indegree(v))
        p[idx[v], idx[v]] = w
        for u in g.in_neighbors(v):
            p[idx[v], idx[u]] = w
    return p


edge_probs = st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 1.0))


class TestSwitchingGraph:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 60), p=edge_probs, seed=st.integers(0, 2**32), named=st.booleans())
    def test_matches_per_pair_loop_and_leaves_same_state(self, n, p, seed, named):
        ids = [f"v{i}" for i in range(n)] if named else list(range(n))
        ids = random.Random(seed).sample(ids, n)  # callers need not pass sorted ids
        bulk, loop = random.Random(seed), random.Random(seed)
        g, expected = switching_graph(ids, bulk, p), loop_switching_graph(ids, loop, p)
        assert g.vertices == expected.vertices
        assert g.edges == expected.edges
        for v in expected.vertices:
            assert g.out_neighbors(v) == expected.out_neighbors(v)
            assert g.in_neighbors(v) == expected.in_neighbors(v)
        assert bulk.getstate() == loop.getstate()
        assert np.array_equal(g.adjacency, expected.adjacency)

    def test_draw_equal_to_the_probability_is_no_edge(self):
        # random() < p, strictly: set p to a value the stream is about to draw.
        for seed in range(20):
            ahead = random.Random(seed)
            ahead.sample(range(6), 6)
            p = ahead.random()
            bulk, loop = random.Random(seed), random.Random(seed)
            assert switching_graph(range(6), bulk, p) == loop_switching_graph(range(6), loop, p)

    def test_draw_count_is_every_pair_off_the_ring(self):
        for n in (2, 3, 5, 40):
            rng, words = random.Random(n), random.Random(n)
            switching_graph(range(n), rng, 0.3)
            words.sample(range(n), n)
            words.getrandbits(64 * (n * (n - 1) - n))
            assert rng.getstate() == words.getstate()

    @pytest.mark.parametrize("ids", [[], ["solo"]])
    def test_fewer_than_two_vertices_rejected(self, ids):
        with pytest.raises(ConfigError):
            switching_graph(ids, random.Random(0), 0.5)


def explicit_graph(seed):
    return FLEET, CommGraph(IDS, [(IDS[0], IDS[1]), (IDS[1], IDS[2]), (IDS[2], IDS[0])])


class TestWeights:
    @pytest.mark.parametrize("build", [ring, switching, dummy_attached, explicit_graph])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_vertex_loop_bit_for_bit(self, build, seed):
        _, g = build(seed)
        p, expected = row_stochastic_from_graph(g), loop_weights(g)
        assert p.dtype == expected.dtype == np.float64
        assert p.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), p=edge_probs, seed=st.integers(0, 2**32))
    def test_matches_per_vertex_loop_on_switching_graphs(self, n, p, seed):
        g = switching_graph(range(n), random.Random(seed), p)
        assert row_stochastic_from_graph(g).tobytes() == loop_weights(g).tobytes()


class TestAdjacencyView:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_built_from_edges_or_matrix_is_one_graph(self, n, p, seed):
        rng = random.Random(seed)
        verts = [f"v{i:02d}" for i in range(n)]
        edges = [(u, v) for u in verts for v in verts if u != v and rng.random() < p]
        from_edges = CommGraph(verts, edges)
        from_matrix = CommGraph._from_adjacency(verts, from_edges.adjacency)
        assert from_matrix == from_edges and from_edges == from_matrix
        assert hash(from_matrix) == hash(from_edges)
        assert from_matrix.edges == from_edges.edges
        assert np.array_equal(from_matrix.adjacency, from_edges.adjacency)
        for v in verts:
            assert from_matrix.out_neighbors(v) == from_edges.out_neighbors(v)
            assert from_matrix.in_neighbors(v) == from_edges.in_neighbors(v)

    def test_adjacency_is_read_only(self):
        g = CommGraph([1, 2], [(1, 2)])
        assert g.adjacency.tolist() == [[False, True], [False, False]]
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = True
        with pytest.raises(ValueError):
            CommGraph._from_adjacency([1, 2], g.adjacency).adjacency[1, 0] = True

    def test_views_are_derived_on_first_use(self):
        ring = ring_over(["a", "b", "c"])
        assert ring._adjacency is None
        g = switching_graph(["a", "b", "c"], random.Random(0), 0.5)
        assert g._edges is None and g._out is None and g._in is None
        row_stochastic_from_graph(g)
        GraphSequence((g,)).windows_strongly_connected()
        assert g._edges is None
        assert "a" in g and g._edges is not None

    @pytest.mark.parametrize(
        "vertices, matrix, message",
        [
            ([1, 2], [[False, True]], "shape"),
            ([1, 2, 3], [[False, True], [True, False]], "shape"),
            ([1, 2], [[False, True], [True, True]], "self-loop on vertex 2"),
            ([2, 1], [[False, True], [True, False]], "distinct and sorted"),
            ([1, 1], [[False, True], [True, False]], "distinct and sorted"),
            ([], np.zeros((0, 0), dtype=bool), "at least one vertex"),
        ],
    )
    def test_bad_matrix_rejected(self, vertices, matrix, message):
        with pytest.raises(ConfigError, match=message):
            CommGraph._from_adjacency(vertices, matrix)


def scalar_round(fleet, g, grid, params, rng, bound):
    """The per-point, per-message round the array path replaced.

    Returns (messages, kept, tables, curve) with messages as
    (sender, receiver, values) and every table a tuple of ints, or raises the
    EncodingError the old code raised first.
    """
    ids = [v.vehicle_id for v in fleet]
    dummies = sorted(set(g.vertices) - set(ids))
    kept, messages = {}, []
    inboxes = {v: [] for v in g.vertices}
    for vehicle in fleet:
        neighbors = g.out_neighbors(vehicle.vehicle_id)
        columns = []
        for speed in grid:
            value = scalar_mask(vehicle.cost(speed), params)
            draws = randrange_draws(rng, len(neighbors), bound)
            residual = value - sum(draws)
            if not -(2**31) < residual <= 2**31 - 1:
                raise EncodingError(f"residual share {residual} overflows the signed 32-bit range")
            columns.append(draws + [residual])
        *sent, kept[vehicle.vehicle_id] = (tuple(col) for col in zip(*columns))
        for nbr, values in zip(neighbors, sent):
            messages.append((vehicle.vehicle_id, nbr, values))
            inboxes[nbr].append(values)
    for did in dummies:
        kept[did] = (0,) * grid.m
    tables = {}
    for pid in ids + dummies:
        totals = list(kept[pid])
        for values in inboxes[pid]:
            totals = [t + v for t, v in zip(totals, values)]
        for t in totals:
            if not -(2**31) < t <= 2**31 - 1:
                raise EncodingError(f"aggregated share {t} overflows the signed 32-bit range")
        tables[pid] = tuple(totals)
    curve = [sum(col) for col in zip(*tables.values())]
    for v in curve:
        if not -(2**31) < v <= 2**31 - 1:
            raise EncodingError(f"aggregate value {v} overflows the signed 32-bit range")
    return messages, kept, tables, tuple(curve)


def scalar_local_errors(fleet, messages, kept, grid):
    """Received shares minus each sender's restored masked table, per vehicle."""
    masked = {}
    for sender, _, values in messages:
        column = masked.get(sender, kept[sender])
        masked[sender] = tuple(c + v for c, v in zip(column, values))
    errors = {}
    for vehicle in fleet:
        error = [0] * grid.m
        for sender, receiver, values in messages:
            if receiver == vehicle.vehicle_id:
                error = [e + v - t for e, v, t in zip(error, values, masked[sender])]
        errors[vehicle.vehicle_id] = tuple(e / SCALE for e in error)
    return errors


def scalar_bytes(grid, values):
    return b"".join(struct.pack("<ii", round(s), v) for s, v in zip(grid, values))


class TestArrayRound:
    @pytest.mark.parametrize("build", [ring, switching, dummy_attached, with_table_vehicle])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**30), params=masking, bound=share_bounds)
    def test_matches_scalar_round(self, build, seed, params, bound):
        fleet, g = build(seed)
        grid = build_speed_grid(7, 5.0, 140.0)
        try:
            expected = scalar_round(fleet, g, grid, params, random.Random(seed), bound)
        except EncodingError as exc:
            with pytest.raises(EncodingError) as raised:
                execute_round(fleet, g, grid, params, random.Random(seed), bound)
            assert str(raised.value) == str(exc)
            return
        messages, kept, tables, curve = expected
        t = execute_round(fleet, g, grid, params, random.Random(seed), bound)
        assert [(m.sender, m.receiver, m.values) for m in t.messages] == messages
        assert {pid: table.values for pid, table in t.kept.items()} == kept
        assert {pid: table.values for pid, table in t.tables.items()} == tables
        assert t.curve == curve
        assert all(type(v) is int for m in t.messages for v in m.values)
        report = privacy_report(t, fleet)
        assert report.local_error == scalar_local_errors(fleet, messages, kept, grid)
        traffic = traffic_report(t)
        assert traffic.per_message == tuple(
            len(scalar_bytes(grid, values)) for _, _, values in messages
        )
        assert encode_share_columns(grid, t.shares) == [
            scalar_bytes(grid, values) for _, _, values in messages
        ]

    @pytest.mark.parametrize("build", [ring, switching])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**30), bound=st.integers(2**30, 2**31 - 1))
    def test_overflow_names_the_same_first_value(self, build, seed, bound):
        # Shares near the int32 limit overflow a residual or a local sum in
        # most rounds; the message lands in summary.json, so it must match.
        fleet, g = build(seed)
        grid = build_speed_grid(5, 5.0, 140.0)
        params = MaskingParams(a=2.0, b=10.0)
        try:
            scalar_round(fleet, g, grid, params, random.Random(seed), bound)
        except EncodingError as exc:
            with pytest.raises(EncodingError) as raised:
                execute_round(fleet, g, grid, params, random.Random(seed), bound)
            assert str(raised.value) == str(exc)
        else:
            execute_round(fleet, g, grid, params, random.Random(seed), bound)

    def test_both_overflow_kinds_occur(self):
        # The property above is only worth something if both failures happen.
        grid = build_speed_grid(5, 5.0, 140.0)
        params = MaskingParams(a=2.0, b=10.0)
        kinds = set()
        for seed in range(20):
            for build in (ring, switching):
                fleet, g = build(seed)
                try:
                    execute_round(fleet, g, grid, params, random.Random(seed), 2**31 - 1)
                except EncodingError as exc:
                    kinds.add(str(exc).split(" ")[0])
        assert kinds == {"residual", "aggregated"}

    def test_base_station_overflow_names_first_point(self):
        grid = build_speed_grid(3, 40.0, 50.0)
        tables = [
            AggregatedTable("a", grid, (2**31 - 1, 5, 2**31 - 1)),
            AggregatedTable("b", grid, (1, -6, 7)),
        ]
        with pytest.raises(EncodingError, match=r"^aggregate value 2147483648 overflows"):
            base_station_aggregate(tables)

    def test_encoder_names_first_offending_pair(self):
        grid = build_speed_grid(3, 40.0, 50.0)
        columns = np.array([[1, 2, 3], [4, 2**31, -(2**31) - 1]], dtype=np.int64)
        with pytest.raises(EncodingError, match=r"pair \(45.0, 2147483648\) does not fit"):
            encode_share_columns(grid, columns)


#: Every polynomial term, k included; small enough that no cost overflows.
all_factors = st.builds(
    EmissionFactors,
    a=st.floats(0.0, 5000.0, **finite),
    b=st.floats(-200.0, 200.0, **finite),
    c=st.floats(-1.0, 1.0, **finite),
    d=st.floats(-0.02, 0.02, **finite),
    e=st.floats(-1e-5, 1e-5, **finite),
    f=st.floats(-1e-7, 1e-7, **finite),
    g=st.floats(-1e-9, 1e-9, **finite),
    k=st.floats(0.5, 2.0, **finite),
)


@st.composite
def mixed_fleets(draw, grid):
    """1-40 vehicles with random factors, and up to three table vehicles at any position."""
    fleet = [
        Vehicle(f"v{i:02d}", factors=f)
        for i, f in enumerate(draw(st.lists(all_factors, min_size=0, max_size=37)))
    ]
    for j in range(draw(st.integers(0 if fleet else 1, 3))):
        costs = draw(st.lists(st.floats(-500.0, 500.0, **finite), min_size=grid.m, max_size=grid.m))
        table = Vehicle.from_table(f"t{j}", dict(zip(grid.speeds, costs)))
        fleet.insert(draw(st.integers(0, len(fleet))), table)
    return fleet


def running_total(fleet, speeds):
    """The fleet's total cost, added vehicle by vehicle in fleet order."""
    total = fleet[0].cost(speeds)
    for vehicle in fleet[1:]:
        total = total + vehicle.cost(speeds)
    return total


def ring_with_dummy(fleet):
    ids = [v.vehicle_id for v in fleet]
    if len(ids) == 1:
        return attach_dummy_vehicle(CommGraph(ids, ()), ids[0])
    return ring_over(ids)


class TestTrueTotal:
    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.builds(
            lambda m, lo, width: build_speed_grid(m, lo, lo + width),
            st.integers(2, 30),
            st.floats(5.0, 60.0, **finite),
            st.floats(1.0, 100.0, **finite),
        ),
        params=st.builds(
            MaskingParams, a=st.floats(0.01, 2.0, **finite), b=st.floats(-500.0, 500.0, **finite)
        ),
        seed=st.integers(0, 2**30),
        data=st.data(),
    )
    def test_true_total_and_deviation_are_the_running_sum(self, grid, params, seed, data):
        fleet = data.draw(mixed_fleets(grid))
        t = execute_round(fleet, ring_with_dummy(fleet), grid, params, random.Random(seed), 10**6)
        truth = running_total(fleet, np.asarray(grid.speeds)).tolist()
        assert np.array(t.true_total).tobytes() == np.array(truth).tobytes()
        deviation = privacy_report(t, fleet).base_deviation
        assert deviation == tuple(from_fixed(c) - x for c, x in zip(t.curve, truth))
