"""Whole-table masking and the transcript-derived privacy metric.

Both replace per-grid-point scalar loops; these tests pin them to the scalar
rules they replaced, recomputed here independently of the library.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedshare.emissions import EmissionFactors, Vehicle, VehicleClass, build_speed_grid
from speedshare.errors import ConfigError, EncodingError
from speedshare.graph import CommGraph, ring_over, switching_graph
from speedshare.harness import ScenarioConfig, attach_dummy_vehicle, run_scenario
from speedshare.metrics import local_estimated_error, privacy_report
from speedshare.protocol import SCALE, MaskingParams, execute_round, mask, to_fixed

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
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {
                    "vehicles": [
                        {"id": "p", "table": {40.0: float("nan"), 50.0: 1.0}},
                        {"id": "q", "table": {40.0: 2.0, 50.0: 1.0}},
                    ]
                },
                "grid": {"m": 2, "lo": 40.0, "hi": 50.0},
            }
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
        assert set(transcript.masked_tables) == set(IDS)
        for v in fleet:
            assert list(transcript.masked_tables[v.vehicle_id]) == [
                scalar_mask(v.cost(s), params) for s in grid
            ]

    def test_report_flags_match_inbox_senders(self):
        fleet, g = dummy_attached(0)
        grid = build_speed_grid(5, 5.0, 140.0)
        transcript = execute_round(fleet, g, grid, MaskingParams(), random.Random(1), 10**8)
        report = privacy_report(transcript, fleet, g, MaskingParams())
        assert set(report.local_error) == set(IDS)
        assert report.exact_estimates == ()
