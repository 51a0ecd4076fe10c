import random

import numpy as np
import pytest

from speedshare.emissions import Vehicle, VehicleClass, build_speed_grid
from speedshare.errors import (
    ConfigError,
    EncodingError,
    IncompleteRoundError,
    PrivacyPreconditionError,
    ProtocolError,
)
from speedshare.graph import CommGraph, ring_over
from speedshare.oracle import fleet_total_cost
from speedshare.protocol import (
    AggregatedTable,
    CostTable,
    MaskingParams,
    RoundTranscript,
    ShareMessage,
    aggregate_local,
    base_station_aggregate,
    execute_round,
    from_fixed,
    mask,
    prepare_round,
    select_best,
    split_shares,
    to_fixed,
)


class ScriptedRandom:
    """Duck-typed rng returning a fixed share sequence, for pinned transcripts.

    Shares are drawn from 32-bit Mersenne Twister words (see ``draw_shares``):
    the top ``(2*bound + 1).bit_length()`` bits of a word, minus ``bound``,
    are one share.  Each scripted share is served as such a word, so none is
    rejected.
    """

    def __init__(self, values, bound):
        self._values = list(values)
        self._bound = bound

    def getrandbits(self, nbits):
        assert nbits % 32 == 0
        shift = 32 - (2 * self._bound + 1).bit_length()
        words = 0
        for i in range(nbits // 32):
            value = self._values.pop(0)
            assert -self._bound <= value <= self._bound
            words |= (value + self._bound) << shift << (32 * i)
        return words


VEHICLE_A = Vehicle.from_table("A", {40: 100.0, 50: 120.0})
VEHICLE_B = Vehicle.from_table("B", {40: 150.0, 50: 100.0})
MUTUAL = CommGraph(["A", "B"], [("A", "B"), ("B", "A")])
TWO_SPEED_GRID = build_speed_grid(2, 40.0, 50.0)
DOUBLING = MaskingParams(a=2.0, b=0.0)


class TestFixedPoint:
    def test_scale_and_roundtrip(self):
        assert to_fixed(1.0) == 1000
        assert from_fixed(1500) == 1.5
        assert to_fixed(from_fixed(-123456)) == -123456

    def test_rounds_half_away_from_zero(self):
        assert to_fixed(0.0625) == 63  # 62.5 is exact in binary
        assert to_fixed(-0.0625) == -63
        assert to_fixed(0.0614) == 61
        assert to_fixed(-0.0614) == -61
        assert to_fixed(0.0) == 0

    def test_range_limits(self):
        assert to_fixed(2147483.647) == 2**31 - 1
        with pytest.raises(EncodingError):
            to_fixed(2147483.648)
        with pytest.raises(EncodingError):
            to_fixed(-2147483.648)


class TestMasking:
    def test_doubling(self):
        assert mask(100.0, DOUBLING) == 200000

    def test_identity(self):
        assert mask(152.251, MaskingParams.identity()) == 152251

    def test_affine(self):
        assert mask(100.0, MaskingParams(a=2.0, b=10.0)) == 210000

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_nonpositive_slope_rejected(self, a):
        with pytest.raises(ConfigError):
            MaskingParams(a=a, b=0.0)


class TestSplitShares:
    def test_reconstruction_exact_randomized(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            masked = rng.randint(-(10**9), 10**9)
            n = rng.randint(2, 6)
            bound = rng.choice([10, 10**3, 10**6, 10**8])
            shares = split_shares(masked, n, rng, bound)
            assert len(shares) == n
            assert sum(shares) == masked

    def test_drawn_shares_respect_bound(self):
        rng = random.Random(99)
        for _ in range(500):
            shares = split_shares(123456, 4, rng, 1000)
            for drawn in shares[:-1]:
                assert -1000 <= drawn <= 1000

    def test_zero_splits_to_zero_sum(self):
        shares = split_shares(0, 3, random.Random(5), 10**8)
        assert sum(shares) == 0

    def test_deterministic_for_seed(self):
        a = split_shares(777, 3, random.Random(42), 100)
        b = split_shares(777, 3, random.Random(42), 100)
        assert a == b

    def test_single_share_rejected(self):
        with pytest.raises(PrivacyPreconditionError):
            split_shares(100, 1, random.Random(0), 100)

    @pytest.mark.parametrize("bound", [0, -5])
    def test_nonpositive_bound_rejected(self, bound):
        # a zero-width bound would make every transmitted share 0 and the
        # kept residual equal to the value itself — refuse to run degenerately
        with pytest.raises(ConfigError):
            split_shares(100, 2, random.Random(0), bound)

    def test_residual_overflow_detected(self):
        rng = ScriptedRandom([-(2**31 - 1)], bound=2**31 - 1)
        with pytest.raises(EncodingError):
            split_shares(2**31 - 1, 2, rng, 2**31 - 1)

    def test_marginal_hiding_spans_interval(self):
        masked = mask(100.0, MaskingParams.identity())  # 100000
        bound = 20 * masked
        sent, kept = [], []
        for seed in range(1000):
            shares = split_shares(masked, 2, random.Random(seed), bound)
            sent.append(shares[0])
            kept.append(shares[1])
        # both marginals should sweep (nearly) the whole ±bound interval
        assert max(sent) - min(sent) >= 0.95 * 2 * bound
        assert max(kept) - min(kept) >= 0.95 * 2 * bound


class TestWorkedExample:
    """Two vehicles, doubled tables, mutual edges — the full pinned transcript."""

    def transcript(self) -> RoundTranscript:
        # draw order: A@40, A@50, B@40, B@50 (one out-neighbor each)
        rng = ScriptedRandom([180000, 100000, 100000, 200000], bound=200000)
        return execute_round(
            [VEHICLE_A, VEHICLE_B], MUTUAL, TWO_SPEED_GRID, DOUBLING, rng, bound=200000
        )

    def test_messages(self):
        t = self.transcript()
        assert t.messages[0] == ShareMessage("A", "B", TWO_SPEED_GRID, (180000, 100000))
        assert t.messages[1] == ShareMessage("B", "A", TWO_SPEED_GRID, (100000, 200000))

    def test_kept_shares(self):
        t = self.transcript()
        assert t.kept["A"].values == (20000, 140000)
        assert t.kept["B"].values == (200000, 0)

    def test_local_aggregates(self):
        t = self.transcript()
        assert t.tables["A"].values == (120000, 340000)
        assert t.tables["B"].values == (380000, 100000)

    def test_base_station_curve_and_recommendation(self):
        t = self.transcript()
        assert t.curve == (500000, 440000)
        assert t.recommendation.best_index == 1
        assert t.recommendation.speed == 50.0


class TestPrepareRound:
    def test_share_counts(self):
        grid = build_speed_grid(19, 30.0, 120.0)
        hub = Vehicle.from_class("hub", VehicleClass.R004)
        g = CommGraph(["hub", "x", "y", "z"], [("hub", "x"), ("hub", "y"), ("hub", "z"), ("x", "hub")])
        kept, outgoing = prepare_round(
            "hub", hub.cost(np.asarray(grid.speeds)), grid, MaskingParams.identity(), g,
            random.Random(1), 10**6,
        )
        assert len(outgoing) == 3
        assert [m.receiver for m in outgoing] == ["x", "y", "z"]
        assert all(len(m.values) == 19 for m in outgoing)
        assert len(kept.values) == 19

    def test_point_sums_reconstruct_masked_cost(self):
        grid = build_speed_grid(5, 20.0, 100.0)
        v = Vehicle.from_class("v", VehicleClass.R011)
        g = CommGraph(["v", "w"], [("v", "w"), ("w", "v")])
        params = MaskingParams(a=2.0, b=10.0)
        kept, outgoing = prepare_round(
            "v", v.cost(np.asarray(grid.speeds)), grid, params, g, random.Random(3), 10**8
        )
        for j, speed in enumerate(grid):
            total = kept.values[j] + sum(m.values[j] for m in outgoing)
            assert total == mask(v.cost(speed), params)

    def test_isolated_vehicle_rejected(self):
        g = CommGraph(["v", "w"], [("w", "v")])
        v = Vehicle.from_class("v", VehicleClass.R004)
        with pytest.raises(PrivacyPreconditionError):
            prepare_round(
                "v", v.cost(np.asarray(TWO_SPEED_GRID.speeds)), TWO_SPEED_GRID,
                MaskingParams.identity(), g, random.Random(0), 100,
            )

    def test_deterministic(self):
        g = ring_over(["p", "q", "r"])
        v = Vehicle.from_class("q", VehicleClass.R018)
        costs = v.cost(np.asarray(TWO_SPEED_GRID.speeds))
        one = prepare_round("q", costs, TWO_SPEED_GRID, DOUBLING, g, random.Random(11), 10**6)
        two = prepare_round("q", costs, TWO_SPEED_GRID, DOUBLING, g, random.Random(11), 10**6)
        assert one == two


class TestAggregation:
    def test_empty_inbox_returns_kept(self):
        kept = CostTable("v", TWO_SPEED_GRID, (5, 7))
        agg = aggregate_local(kept, [])
        assert agg.values == (5, 7)

    def test_mismatched_message_length_rejected(self):
        kept = CostTable("v", TWO_SPEED_GRID, (5, 7))
        bad = ShareMessage("u", "v", build_speed_grid(3, 40.0, 50.0), (1, 2, 3))
        with pytest.raises(ProtocolError):
            aggregate_local(kept, [bad])

    def test_misrouted_message_rejected(self):
        kept = CostTable("v", TWO_SPEED_GRID, (5, 7))
        stray = ShareMessage("u", "w", TWO_SPEED_GRID, (1, 2))
        with pytest.raises(ProtocolError):
            aggregate_local(kept, [stray])

    def test_base_station_missing_table(self):
        table = AggregatedTable("v", TWO_SPEED_GRID, (1, 2))
        with pytest.raises(IncompleteRoundError):
            base_station_aggregate([table], expected_ids=["v", "w"])

    def test_base_station_empty(self):
        with pytest.raises(ProtocolError):
            base_station_aggregate([])

    def test_base_station_sums_pointwise(self):
        tables = [
            AggregatedTable("a", TWO_SPEED_GRID, (1, -2)),
            AggregatedTable("b", TWO_SPEED_GRID, (10, 20)),
        ]
        assert base_station_aggregate(tables) == (11, 18)


class TestSelectBest:
    def test_picks_minimum(self):
        rec = select_best((500000, 440000), TWO_SPEED_GRID)
        assert rec.best_index == 1
        assert rec.speed == 50.0

    def test_tie_breaks_to_lowest_index(self):
        grid = build_speed_grid(3, 10.0, 30.0)
        rec = select_best((7, 3, 3), grid)
        assert rec.best_index == 1
        constant = select_best((4, 4, 4), grid)
        assert constant.best_index == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            select_best((1, 2, 3), TWO_SPEED_GRID)


SMALL_FLEET = [
    Vehicle.from_class("a", VehicleClass.R004),
    Vehicle.from_class("b", VehicleClass.R011),
    Vehicle.from_class("c", VehicleClass.R018),
]


class TestExecuteRound:
    def test_curve_equals_masked_total_exactly(self):
        grid = build_speed_grid(7, 10.0, 130.0)
        g = ring_over([v.vehicle_id for v in SMALL_FLEET])
        params = MaskingParams(a=2.0, b=10.0)
        t = execute_round(SMALL_FLEET, g, grid, params, random.Random(8), 10**8)
        for j, speed in enumerate(grid):
            assert t.curve[j] == sum(mask(v.cost(speed), params) for v in SMALL_FLEET)

    def test_aggregate_invariant_across_seeds(self):
        grid = build_speed_grid(4, 20.0, 110.0)
        g = ring_over([v.vehicle_id for v in SMALL_FLEET])
        curves = {
            execute_round(
                SMALL_FLEET, g, grid, MaskingParams.identity(), random.Random(seed), 10**8
            ).curve
            for seed in range(50)
        }
        assert len(curves) == 1

    def test_message_and_upload_counts(self):
        grid = build_speed_grid(3, 20.0, 100.0)
        ids = [v.vehicle_id for v in SMALL_FLEET]
        g = CommGraph(ids, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")])
        t = execute_round(SMALL_FLEET, g, grid, MaskingParams.identity(), random.Random(2), 10**6)
        assert len(t.messages) == sum(g.outdegree(v) for v in ids)
        assert len(t.tables) == len(ids)
        assert t.dummy_ids == ()

    def test_relay_vertex_acts_as_dummy(self):
        grid = build_speed_grid(4, 30.0, 90.0)
        solo = Vehicle.from_class("solo", VehicleClass.R005)
        g = CommGraph(["solo", "relay"], [("solo", "relay")])
        t = execute_round([solo], g, grid, MaskingParams.identity(), random.Random(4), 10**6)
        assert t.dummy_ids == ("relay",)
        # the relay's zero table leaves the aggregate untouched
        for j, speed in enumerate(grid):
            assert t.curve[j] == mask(solo.cost(speed), MaskingParams.identity())
        # recommendation is the vehicle's own grid argmin
        own = [solo.cost(s) for s in grid]
        assert t.recommendation.best_index == own.index(min(own))

    def test_duplicate_ids_rejected(self):
        dup = [VEHICLE_A, Vehicle.from_table("A", {40: 1.0, 50: 2.0})]
        with pytest.raises(ProtocolError):
            execute_round(dup, MUTUAL, TWO_SPEED_GRID, DOUBLING, random.Random(0), 100)

    def test_vehicle_missing_from_graph_rejected(self):
        stranger = Vehicle.from_table("Z", {40: 1.0, 50: 2.0})
        with pytest.raises(ProtocolError):
            execute_round(
                [VEHICLE_A, stranger], MUTUAL, TWO_SPEED_GRID, DOUBLING, random.Random(0), 100
            )


def test_argmin_invariant_under_affine_masking():
    fleet = [Vehicle.from_class(c.name, c) for c in VehicleClass]
    grid = build_speed_grid(100, 5.0, 140.0)
    g = ring_over([v.vehicle_id for v in fleet])
    identity = execute_round(
        fleet, g, grid, MaskingParams.identity(), random.Random(0), 10**8
    ).recommendation.best_index
    rng = random.Random(31337)
    for _ in range(100):
        a = 10.0 ** rng.uniform(-0.5, 1.0)  # in (0, 10]
        b = rng.uniform(-100.0, 100.0)
        rec = execute_round(
            fleet, g, grid, MaskingParams(a=a, b=b), random.Random(rng.randrange(2**30)), 10**8
        ).recommendation
        assert rec.best_index == identity


def test_unmasked_round_matches_direct_summation():
    fleet = [Vehicle.from_class(c.name, c) for c in VehicleClass]
    grid = build_speed_grid(50, 5.0, 140.0)
    g = ring_over([v.vehicle_id for v in fleet])
    params = MaskingParams(a=2.0, b=10.0)
    t = execute_round(fleet, g, grid, params, random.Random(17), 10**8)
    # The affine mask inverted on an aggregate of n tables: (F - n*b) / a.
    recovered = [(from_fixed(v) - len(fleet) * params.b) / params.a for v in t.curve]
    for j, speed in enumerate(grid):
        truth = float(fleet_total_cost(fleet, speed))
        # per-vehicle quantisation of the mask, shrunk by 1/a on unmasking
        assert abs(recovered[j] - truth) <= len(fleet) * 0.0005 / params.a + 1e-9
