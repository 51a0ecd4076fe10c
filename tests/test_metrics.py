import random
import statistics

import pytest

from speedshare.emissions import Vehicle, VehicleClass, build_speed_grid
from speedshare.graph import CommGraph, ring_over
from speedshare.metrics import (
    base_station_deviation,
    local_estimated_error,
    privacy_report,
    traffic_report,
)
from speedshare.oracle import fleet_total_cost
from speedshare.protocol import MaskingParams, execute_round, mask
from speedshare.wire import PAIR_BYTES, encode_pairs


class ScriptedRandom:
    """Stands in for random.Random with a predetermined sequence of draws.

    Shares are drawn from 32-bit Mersenne Twister words (see ``draw_shares``):
    the top ``(2*bound + 1).bit_length()`` bits of a word, minus ``bound``,
    are one share.  Each scripted draw is served as such a word, so none is
    rejected.
    """

    def __init__(self, draws, bound):
        self._draws = list(draws)
        self._bound = bound

    def getrandbits(self, nbits):
        assert nbits % 32 == 0
        shift = 32 - (2 * self._bound + 1).bit_length()
        words = 0
        for i in range(nbits // 32):
            value = self._draws.pop(0)
            assert -self._bound <= value <= self._bound
            words |= (value + self._bound) << shift << (32 * i)
        return words


SIX_FLEET = [Vehicle.from_class(c.name, c) for c in VehicleClass]
SIX_IDS = [v.vehicle_id for v in SIX_FLEET]
IDENTITY = MaskingParams.identity()


def two_cycle_round(seed, params=IDENTITY, m=10, bound=10**8):
    fleet = SIX_FLEET[:2]
    g = CommGraph(SIX_IDS[:2], [(SIX_IDS[0], SIX_IDS[1]), (SIX_IDS[1], SIX_IDS[0])])
    grid = build_speed_grid(m, 5.0, 140.0)
    return fleet, grid, execute_round(fleet, g, grid, params, random.Random(seed), bound)


class TestLocalError:
    def test_error_is_negated_hidden_randomness(self):
        # On a two-cycle each vehicle receives everything its peer did not
        # keep, so its estimation error is exactly the peer's kept share.
        fleet, grid, transcript = two_cycle_round(5)
        a, b = fleet
        errors = local_estimated_error(transcript, a.vehicle_id)
        assert errors == tuple(-k / 1000 for k in transcript.kept[b.vehicle_id].values)

    def test_no_in_neighbors_gives_unflagged_zero_curve(self):
        ids = ["A", "B", "C"]
        fleet = [Vehicle.from_class(i, VehicleClass.R004) for i in ids]
        g = CommGraph(ids, [("A", "B"), ("B", "C"), ("C", "B")])
        grid = build_speed_grid(5, 5.0, 140.0)
        transcript = execute_round(fleet, g, grid, IDENTITY, random.Random(0), 10**8)
        report = privacy_report(transcript, fleet)
        assert report.local_error["A"] == (0.0,) * 5
        assert "A" not in report.exact_estimates

    def test_degenerate_randomness_is_flagged(self):
        grid = build_speed_grid(2, 40.0, 50.0)
        fleet = [
            Vehicle.from_table("A", {40.0: 1.0, 50.0: 2.0}),
            Vehicle.from_table("B", {40.0: 3.0, 50.0: 4.0}),
        ]
        g = CommGraph(["A", "B"], [("A", "B"), ("B", "A")])
        # Each draw equals the sender's masked value, so every kept residual
        # is zero and both receivers see their in-neighbor's table exactly.
        rng = ScriptedRandom([1000, 2000, 3000, 4000], bound=10**8)
        transcript = execute_round(fleet, g, grid, IDENTITY, rng, 10**8)
        report = privacy_report(transcript, fleet)
        assert report.exact_estimates == ("A", "B")

    def test_error_spread_grows_with_share_bound(self):
        point_errors = {}
        for bound in (10**3, 10**5, 10**8):
            samples = []
            for seed in range(200):
                fleet, grid, transcript = two_cycle_round(seed, m=3, bound=bound)
                errs = local_estimated_error(transcript, fleet[0].vehicle_id)
                samples.append(errs[0])
            point_errors[bound] = statistics.stdev(samples)
        assert point_errors[10**3] < point_errors[10**5] < point_errors[10**8]
        assert point_errors[10**8] > 10**4


class TestBaseDeviation:
    def test_identity_masking_leaves_only_quantisation(self):
        grid = build_speed_grid(25, 5.0, 140.0)
        g = ring_over(SIX_IDS)
        transcript = execute_round(SIX_FLEET, g, grid, IDENTITY, random.Random(1), 10**8)
        report = privacy_report(transcript, SIX_FLEET)
        assert all(abs(d) <= 6 * 0.0005 + 1e-9 for d in report.base_deviation)

    def test_affine_mask_distorts_by_scaled_total(self):
        params = MaskingParams(a=2.0, b=10.0)
        grid = build_speed_grid(25, 5.0, 140.0)
        g = ring_over(SIX_IDS)
        transcript = execute_round(SIX_FLEET, g, grid, params, random.Random(1), 10**8)
        deviation = base_station_deviation(transcript.curve, transcript.true_total)
        for d, speed in zip(deviation, grid):
            truth = float(fleet_total_cost(SIX_FLEET, speed))
            assert d == pytest.approx(truth + 60.0, abs=6 * 0.0005 + 1e-9)

    def test_single_vehicle_offset_mask(self):
        v = SIX_FLEET[0]
        params = MaskingParams(a=1.0, b=5.0)
        grid = build_speed_grid(7, 5.0, 140.0)
        curve = [mask(v.cost(s), params) for s in grid]
        deviation = base_station_deviation(curve, [v.cost(s) for s in grid])
        assert all(d == pytest.approx(5.0, abs=0.0005) for d in deviation)


class TestTraffic:
    def test_matches_analytic_table_size(self):
        grid = build_speed_grid(19, 5.0, 140.0)
        g = ring_over(SIX_IDS)
        transcript = execute_round(SIX_FLEET, g, grid, IDENTITY, random.Random(2), 10**8)
        report = traffic_report(transcript)
        assert PAIR_BYTES * 19 == 152
        assert report.per_message == (152,) * 6
        assert report.message_count == 6
        assert report.upload_count == 6
        assert report.vehicle_to_vehicle == 6 * 152
        assert report.vehicle_to_base == 6 * 152
        assert report.broadcast == 8
        assert report.total == 6 * 152 * 2 + 8
        assert all(len(encode_pairs(grid.speeds, m.values)) == 152 for m in transcript.messages)

    def test_twenty_vehicle_upload_budget(self):
        ids = [f"v{i:02d}" for i in range(20)]
        fleet = [Vehicle.from_class(i, VehicleClass.R005) for i in ids]
        grid = build_speed_grid(19, 5.0, 140.0)
        transcript = execute_round(
            fleet, ring_over(ids), grid, IDENTITY, random.Random(3), 10**8
        )
        report = traffic_report(transcript)
        assert report.vehicle_to_base == 3040
        assert report.vehicle_to_base <= 3 * 1024

    def test_byte_accounting_is_seed_independent(self):
        _, _, first = two_cycle_round(11, m=19)
        _, _, second = two_cycle_round(99, m=19)
        assert traffic_report(first) == traffic_report(second)

    def test_complete_digraph_message_count(self):
        ids = SIX_IDS
        edges = [(a, b) for a in ids for b in ids if a != b]
        grid = build_speed_grid(4, 5.0, 140.0)
        transcript = execute_round(
            SIX_FLEET, CommGraph(ids, edges), grid, IDENTITY, random.Random(4), 10**8
        )
        report = traffic_report(transcript)
        assert report.message_count == 30
        assert report.vehicle_to_vehicle == 30 * PAIR_BYTES * 4
