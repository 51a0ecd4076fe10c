import random

import numpy as np
import pytest

from speedshare.baseline import (
    DpConfig,
    DpState,
    dp_step,
    gradient_residual,
    mu_upper_bound,
    run_dp,
    stack_factors,
)
from speedshare.emissions import EmissionFactors, Vehicle, VehicleClass, build_speed_grid
from speedshare.errors import BaselineInapplicableError, ConfigError
from speedshare.graph import (
    CommGraph,
    GraphSequence,
    generate_switching_sequence,
    ring_over,
    row_stochastic_from_graph,
)
from speedshare.oracle import brute_force_optimum
from speedshare.protocol import MaskingParams, execute_round


def quadratic_centered(center: float) -> EmissionFactors:
    """Factors whose rate is exactly (s - center)^2: poly = s^3 - 2c s^2 + c^2 s."""
    return EmissionFactors(a=0.0, b=center * center, c=-2.0 * center, d=1.0)


QUAD60 = Vehicle("q60", factors=quadratic_centered(60.0))
SIX_FLEET = [Vehicle.from_class(c.name, c) for c in VehicleClass]
SIX_RING = GraphSequence((ring_over([v.vehicle_id for v in SIX_FLEET]),))


class TestMuUpperBound:
    def test_single_quadratic(self):
        assert mu_upper_bound([QUAD60], 5.0, 140.0) == 1.0

    def test_two_quadratics(self):
        fleet = [QUAD60, Vehicle("q50", factors=quadratic_centered(50.0))]
        assert mu_upper_bound(fleet, 5.0, 140.0) == 0.5

    def test_six_class_fleet_golden(self):
        assert mu_upper_bound(SIX_FLEET, 5.0, 140.0) == pytest.approx(
            0.007316100789560182, rel=1e-12
        )

    def test_concave_cost_rejected(self):
        sad = Vehicle("sad", factors=EmissionFactors(a=1.0, b=0.0, c=0.0, d=-1.0))
        with pytest.raises(BaselineInapplicableError):
            mu_upper_bound([sad], 5.0, 140.0)

    def test_table_vehicle_rejected(self):
        probe = Vehicle.from_table("probe", {40.0: 1.0, 50.0: 2.0})
        with pytest.raises(BaselineInapplicableError):
            mu_upper_bound([probe], 5.0, 140.0)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            mu_upper_bound([], 5.0, 140.0)


class TestDpStep:
    def test_hand_worked_update(self):
        # s(1) = 50 - 0.4 * 2 * (50 - 60) = 58
        config = DpConfig(mu=0.4)
        state = DpState(k=0, speeds=np.array([50.0]))
        p = np.array([[1.0]])
        nxt = dp_step(state, p, stack_factors([QUAD60]), config)
        assert nxt.k == 1
        assert nxt.speeds.tolist() == [58.0]

    def test_fixed_point_at_derivative_root(self):
        config = DpConfig(mu=0.4)
        state = DpState(k=0, speeds=np.array([60.0]))
        nxt = dp_step(state, np.array([[1.0]]), stack_factors([QUAD60]), config)
        assert nxt.speeds.tolist() == [60.0]

    def test_clamps_to_speed_interval(self):
        config = DpConfig(mu=100.0, speed_lo=5.0, speed_hi=140.0)
        state = DpState(k=0, speeds=np.array([50.0]))
        nxt = dp_step(state, np.array([[1.0]]), stack_factors([QUAD60]), config)
        assert nxt.speeds.tolist() == [140.0]

    def test_consensus_start_moves_all_entries_together(self):
        mu = 0.9 * mu_upper_bound(SIX_FLEET, 5.0, 140.0)
        config = DpConfig(mu=mu)
        p = row_stochastic_from_graph(SIX_RING.at(0))
        state = DpState(k=0, speeds=np.full(6, 50.0))
        nxt = dp_step(state, p, stack_factors(SIX_FLEET), config)
        assert np.all(nxt.speeds > 50.0)  # all own optima sit above 50
        assert np.allclose(nxt.speeds, nxt.speeds[0])


class TestRunDp:
    def test_zero_iterations_from_joint_optimum(self):
        fleet = [QUAD60, Vehicle("q60b", factors=quadratic_centered(60.0))]
        graphs = GraphSequence((ring_over(["q60", "q60b"]),))
        result = run_dp(fleet, graphs, DpConfig(mu=0.2), [60.0, 60.0])
        assert result.iterations == 0
        assert result.converged

    def test_single_vehicle_converges_to_sixty(self):
        graphs = GraphSequence((CommGraph(["q60"], ()),))
        result = run_dp([QUAD60], graphs, DpConfig(mu=0.9), [50.0])
        assert result.converged
        assert result.consensus_speed == pytest.approx(60.0, abs=0.05)
        assert len(result.residuals) == result.iterations + 1
        assert len(result.trajectory) == result.iterations + 1

    def test_two_quadratics_agree_on_midpoint(self):
        fleet = [
            Vehicle("q50", factors=quadratic_centered(50.0)),
            Vehicle("q70", factors=quadratic_centered(70.0)),
        ]
        graphs = GraphSequence((ring_over(["q50", "q70"]),))
        result = run_dp(fleet, graphs, DpConfig(mu=0.45), [50.0, 70.0])
        assert result.converged
        assert result.spread < 0.01
        assert result.consensus_speed == pytest.approx(60.0, abs=0.1)
        assert result.residuals[-1] < 0.05

    def test_oversized_step_fails_to_converge(self):
        graphs = GraphSequence((CommGraph(["q60"], ()),))
        config = DpConfig(mu=1.2, max_iter=300)  # bound for this fleet is 1.0
        result = run_dp([QUAD60], graphs, config, [50.0])
        assert not result.converged
        assert result.iterations == 300
        assert result.residuals[-1] >= config.tol_gradient

    def test_switching_topology_reaches_joint_optimum(self):
        centers = [50.0, 60.0, 70.0, 80.0]
        fleet = [Vehicle(f"q{int(c)}", factors=quadratic_centered(c)) for c in centers]
        ids = [v.vehicle_id for v in fleet]
        graphs = generate_switching_sequence(ids, rounds=16, window=5, seed=3)
        result = run_dp(fleet, graphs, DpConfig(mu=0.9 * 0.25), [50.0, 60.0, 70.0, 80.0])
        assert result.converged
        assert result.consensus_speed == pytest.approx(65.0, abs=0.1)

    def test_residual_tail_descends(self):
        mu = 0.9 * mu_upper_bound(SIX_FLEET, 5.0, 140.0)
        s0 = [brute_force_optimum([v], 5.0, 140.0).s_star for v in SIX_FLEET]
        result = run_dp(SIX_FLEET, SIX_RING, DpConfig(mu=mu), s0)
        assert result.converged
        tail = result.residuals[len(result.residuals) // 2 :]
        diffs = np.diff(tail)
        assert np.all(diffs <= 1e-9)

    def test_input_validation(self):
        graphs = GraphSequence((CommGraph(["q60"], ()),))
        with pytest.raises(ConfigError):
            run_dp([QUAD60], graphs, DpConfig(mu=0.5), [50.0, 60.0])
        wrong = GraphSequence((CommGraph(["other"], ()),))
        with pytest.raises(ConfigError):
            run_dp([QUAD60], wrong, DpConfig(mu=0.5), [50.0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DpConfig(mu=0.0)
        with pytest.raises(ConfigError):
            DpConfig(mu=0.5, tol_consensus=0.0)
        with pytest.raises(ConfigError):
            DpConfig(mu=0.5, max_iter=0)
        with pytest.raises(ConfigError):
            DpConfig(mu=0.5, speed_lo=100.0, speed_hi=50.0)


def test_baseline_agrees_with_protocol_on_random_fleets():
    rng = random.Random(2024)
    grid = build_speed_grid(100, 5.0, 140.0)
    spacing = grid.speeds[1] - grid.speeds[0]
    classes = list(VehicleClass)
    for _ in range(10):
        n = rng.randint(2, 20)
        fleet = sorted(
            (
                Vehicle.from_class(f"v{i:02d}", rng.choice(classes))
                for i in range(n)
            ),
            key=lambda v: v.vehicle_id,
        )
        ids = [v.vehicle_id for v in fleet]
        rec = execute_round(
            fleet, ring_over(ids), grid, MaskingParams.identity(), random.Random(rng.random()), 10**8
        ).recommendation
        mu = 0.9 * mu_upper_bound(fleet, 5.0, 140.0)
        s0 = [brute_force_optimum([v], 5.0, 140.0).s_star for v in fleet]
        result = run_dp(fleet, GraphSequence((ring_over(ids),)), DpConfig(mu=mu), s0)
        assert result.converged
        assert abs(result.consensus_speed - rec.speed) <= spacing / 2 + 0.5
