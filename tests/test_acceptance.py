"""End-to-end checks of the package's headline guarantees.

Each test covers one advertised behaviour at its stated tolerance and records
a PASS/FAIL line that the conftest hook prints after the run.  Tolerances are
pinned here on purpose: loosening one is a functional regression.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS
from speedshare.baseline import mu_upper_bound
from speedshare.emissions import (
    Vehicle,
    VehicleClass,
    build_speed_grid,
    emission_derivative,
    emission_rate,
    growth_bounds,
)
from speedshare.graph import CommGraph, ring_over
from speedshare.harness import (
    DUMMY_ID,
    ScenarioConfig,
    attach_dummy_vehicle,
    compare_baseline,
    run_scenario,
    sweep_m,
)
from speedshare.metrics import privacy_report, traffic_report
from speedshare.oracle import fleet_total_cost
from speedshare.protocol import MaskingParams, execute_round, mask, split_shares


@contextmanager
def criterion(label):
    record = {"detail": ""}
    try:
        yield record
    except BaseException as exc:
        detail = record["detail"] or f"{type(exc).__name__}: {exc}"
        ACCEPTANCE_RESULTS.append((label, False, detail))
        raise
    ACCEPTANCE_RESULTS.append((label, True, record["detail"]))


SIX_FLEET = [Vehicle.from_class(c.name, c) for c in VehicleClass]
SIX_IDS = [v.vehicle_id for v in SIX_FLEET]
IDENTITY = MaskingParams.identity()


def case_config(masking_a=1.0, masking_b=0.0):
    return ScenarioConfig.from_dict(
        {
            "fleet": {"classes": {c.name: 1 for c in VehicleClass}},
            "grid": {"m": 100, "lo": 5.0, "hi": 140.0},
            "masking": {"a": masking_a, "b": masking_b},
            "seed": 7,
        }
    )


def test_criterion_1_two_vehicle_golden_round():
    with criterion("criterion 1: two-vehicle golden round, doubled masking") as rec:
        fleet = [
            Vehicle.from_table("A", {40.0: 100.0, 50.0: 120.0}),
            Vehicle.from_table("B", {40.0: 150.0, 50.0: 100.0}),
        ]
        g = CommGraph(["A", "B"], [("A", "B"), ("B", "A")])
        grid = build_speed_grid(2, 40.0, 50.0)
        params = MaskingParams(a=2.0, b=0.0)

        elapsed = float("inf")
        for _ in range(3):
            rng = random.Random(194954)
            start = time.perf_counter()
            transcript = execute_round(fleet, g, grid, params, rng, 200_000)
            elapsed = min(elapsed, time.perf_counter() - start)

        # The seed's first draw splits A's masked 200.0 at 40 km/h into a
        # sent share of 180.0 and a kept share of 20.0 (fixed-point x1000).
        (msg_a,) = [m for m in transcript.messages if m.sender == "A"]
        assert msg_a.values[0] == 180_000
        assert transcript.kept["A"].values[0] == 20_000

        assert transcript.curve == (500_000, 440_000)
        assert transcript.recommendation.speed == 50.0
        assert transcript.recommendation.best_index == 1
        assert elapsed < 0.010
        rec["detail"] = (
            f"base sees (40: 500.0, 50: 440.0), recommends 50 km/h, "
            f"{elapsed * 1e3:.2f} ms"
        )


def test_criterion_2_six_class_round_is_exact():
    with criterion("criterion 2: six-class round equals grid argmin") as rec:
        cfg = case_config()
        start = time.perf_counter()
        report = run_scenario(cfg)
        elapsed = time.perf_counter() - start

        (rnd,) = report.rounds
        assert rnd.failure is None
        grid = cfg.grid()
        totals = [fleet_total_cost(cfg.vehicles, s) for s in grid]
        best = int(np.argmin(totals))
        assert rnd.recommendation.best_index == best == 47
        assert rnd.recommendation.speed == grid.speeds[best]

        # Six roundings of <= 0.0005 each; the 1e-9 covers float summation of
        # the reference totals, not any protocol slack.
        deviation = rnd.privacy.base_deviation
        assert max(abs(d) for d in deviation) <= 6 * 0.0005 + 1e-9
        assert elapsed < 1.0
        rec["detail"] = (
            f"recommends {rnd.recommendation.speed:.2f} km/h (grid point {best}), "
            f"max deviation {max(abs(d) for d in deviation):.6f} g/km, "
            f"{elapsed * 1e3:.0f} ms"
        )


def test_criterion_3_masked_round_same_choice_distorted_view():
    with criterion("criterion 3: masking keeps the choice, hides the curve") as rec:
        plain = run_scenario(case_config()).rounds[0]
        cfg = case_config(masking_a=2.0, masking_b=10.0)
        masked = run_scenario(cfg).rounds[0]
        assert masked.recommendation.speed == plain.recommendation.speed

        grid = cfg.grid()
        curve = masked.privacy.base_deviation  # curve/1000 - F(s) == F(s) + 60
        for dev, speed in zip(curve, grid):
            truth = float(fleet_total_cost(cfg.vehicles, speed))
            assert dev == pytest.approx(truth + 60.0, abs=6 * 0.0005 + 1e-9)

        g = ring_over(SIX_IDS)
        params = cfg.masking
        nonzero = dict.fromkeys(SIX_IDS, 0)
        seeds = 20
        for seed in range(seeds):
            rng = random.Random(f"acceptance:masked:{seed}")
            transcript = execute_round(SIX_FLEET, g, grid, params, rng, cfg.share_bound)
            privacy = privacy_report(transcript, SIX_FLEET)
            for vid, errors in privacy.local_error.items():
                nonzero[vid] += sum(1 for x in errors if x != 0.0)
        floor = 0.95 * seeds * grid.m
        assert all(count >= floor for count in nonzero.values())
        worst = min(nonzero.values()) / (seeds * grid.m)
        rec["detail"] = (
            f"same recommendation ({masked.recommendation.speed:.2f} km/h) under "
            f"a=2,b=10; local estimates wrong at {worst:.1%} of points"
        )


def test_criterion_4_accuracy_sweep_on_120_vehicles():
    with criterion("criterion 4: grid-size sweep on 120 vehicles") as rec:
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {"classes": {c.name: 20 for c in VehicleClass}},
                "grid": {"m": 10, "lo": 5.0, "hi": 140.0},
                "seed": 7,
            }
        )
        start = time.perf_counter()
        points = sweep_m(cfg, range(10, 101, 10))
        elapsed = time.perf_counter() - start

        assert [p.m for p in points] == list(range(10, 101, 10))
        assert points[0].accuracy >= 0.90
        assert all(p.accuracy >= 0.99 for p in points[1:])
        assert elapsed < 10.0
        rec["detail"] = (
            f"accuracy {points[0].accuracy:.4f} at m=10, "
            f">= {min(p.accuracy for p in points[1:]):.4f} for m in 20..100, "
            f"{elapsed:.2f} s"
        )


def test_criterion_5_byte_accounting():
    with criterion("criterion 5: wire cost of tables and uploads") as rec:
        ids = [f"v{i:02d}" for i in range(20)]
        fleet = [Vehicle.from_class(i, VehicleClass.R004) for i in ids]
        grid = build_speed_grid(19, 5.0, 140.0)
        transcript = execute_round(
            fleet, ring_over(ids), grid, IDENTITY, random.Random(1), 10**8
        )
        traffic = traffic_report(transcript)
        assert traffic.per_message == (152,) * 20
        assert traffic.vehicle_to_base == 3040
        assert traffic.vehicle_to_base <= 3 * 1024
        rec["detail"] = "152 bytes per 19-point table, 3040 bytes base-bound for 20 vehicles"


def test_criterion_6_protocol_properties():
    with criterion("criterion 6: share/masking/seed/dummy properties") as rec:
        # Shares always reassemble exactly.
        rng = random.Random("acceptance:reconstruction")
        failures = 0
        for _ in range(10_000):
            # Keep |value| + 7*bound inside int32: every share, residual
            # included, must stay individually wire-encodable.
            value = rng.randint(-(10**9), 10**9)
            n = rng.randint(2, 8)
            bound = rng.choice((10, 10**3, 10**6, 10**8))
            shares = split_shares(value, n, rng, bound)
            if len(shares) != n or sum(shares) != value:
                failures += 1
        assert failures == 0

        # Any a>0 affine masking leaves the argmin where it was.
        grid = build_speed_grid(50, 5.0, 140.0)
        g = ring_over(SIX_IDS)
        reference = execute_round(
            SIX_FLEET, g, grid, IDENTITY, random.Random("acceptance:ref"), 10**8
        ).recommendation.best_index
        mask_rng = random.Random("acceptance:maskings")
        for trial in range(100):
            params = MaskingParams(
                a=10 ** mask_rng.uniform(-0.5, 1.0), b=mask_rng.uniform(-100.0, 100.0)
            )
            transcript = execute_round(
                SIX_FLEET, g, grid, params, random.Random(trial), 10**8
            )
            assert transcript.recommendation.best_index == reference

        # The aggregate curve never depends on the share randomness.
        curves = {
            execute_round(
                SIX_FLEET, g, grid, IDENTITY, random.Random(seed), 10**8
            ).curve
            for seed in range(50)
        }
        assert len(curves) == 1

        # A dummy participant changes connectivity, not sums.
        ids = SIX_IDS[:3]
        fleet = SIX_FLEET[:3]
        weak = CommGraph(ids, [(ids[0], ids[1]), (ids[1], ids[0]), (ids[0], ids[2])])
        patched = attach_dummy_vehicle(weak, ids[2])
        with_dummy = execute_round(
            fleet, patched, grid, IDENTITY, random.Random(3), 10**8
        )
        assert DUMMY_ID in with_dummy.tables
        plain = execute_round(
            fleet, ring_over(ids), grid, IDENTITY, random.Random(4), 10**8
        )
        assert with_dummy.curve == plain.curve
        expected = tuple(
            sum(mask(v.cost(s), IDENTITY) for v in fleet) for s in grid
        )
        assert with_dummy.curve == expected
        rec["detail"] = (
            "10000/10000 reconstructions exact, argmin stable over 100 maskings, "
            "one curve across 50 seeds, dummy neutral"
        )


def test_criterion_7_iterative_baseline_contrast():
    with criterion("criterion 7: one round vs iterative consensus") as rec:
        cfg = case_config()
        fleet = list(cfg.vehicles)
        bound = mu_upper_bound(fleet, 5.0, 140.0)
        assert bound == pytest.approx(0.007316100789560182, rel=1e-12)

        comparison = compare_baseline(cfg)
        assert comparison.protocol_rounds == 1
        result = comparison.dp_result
        assert result.converged
        assert result.spread < 0.01
        assert comparison.dp_gap_kmh <= 0.5
        assert 10 <= comparison.dp_iterations <= 10_000
        rec["detail"] = (
            f"baseline: {comparison.dp_iterations} iterations to "
            f"{comparison.dp_speed:.2f} km/h (gap {comparison.dp_gap_kmh:.3f}); "
            f"protocol: 1 round to {comparison.protocol_speed:.2f} km/h"
        )


def test_criterion_8_numerical_soundness():
    with criterion("criterion 8: derivatives, convexity, converged residual") as rec:
        speeds = np.linspace(5.0, 140.0, 1000)
        h = 1e-3
        for cls in VehicleClass:
            analytic = emission_derivative(cls.factors, speeds)
            fd = (
                emission_rate(cls.factors, speeds + h)
                - emission_rate(cls.factors, speeds - h)
            ) / (2 * h)
            # 1e-8 floor only matters within ~1e-5 of the derivative's root,
            # where a relative comparison is meaningless.
            assert np.all(np.abs(fd - analytic) <= 1e-6 * np.abs(analytic) + 1e-8)

        assert all(
            growth_bounds(cls.factors, 5.0, 140.0).strictly_convex
            for cls in VehicleClass
        )

        comparison = compare_baseline(case_config())
        assert comparison.dp_result.converged
        assert comparison.dp_result.residuals[-1] < 0.05
        rec["detail"] = (
            "derivatives match finite differences at 1000 points per class, "
            "all six cost curves strictly convex on [5, 140], "
            f"converged gradient residual {comparison.dp_result.residuals[-1]:.6f}"
        )
