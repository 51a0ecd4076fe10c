"""Iterative consensus + gradient baseline the one-shot protocol is compared against.

Each vehicle keeps a speed estimate; one iteration averages estimates over the
current communication graph's weights and then steps against the sum of all
vehicles' cost derivatives:

    s(k+1) = clamp( P(k) @ s(k) - mu * sum_i f_i'(s_i(k)) * 1 )

The scheme needs every cost to be strictly convex on the clamp interval and a
step size below 2 / sum_i max f_i'' — hence it only applies to closed-form
cost models, and it takes many iterations (and as many communication rounds)
to do what the sharing protocol does in one.

The fleet's factors are stacked once per run (:func:`stack_factors`), so each
iteration evaluates every vehicle's derivative in one array call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .emissions import EmissionFactors, Speeds, Vehicle, emission_derivative, growth_bounds
from .errors import BaselineInapplicableError, ConfigError
from .graph import GraphSequence, row_stochastic_from_graph


@dataclass(frozen=True)
class DpConfig:
    """Step size, stopping tolerances and the clamp interval for the iteration."""

    mu: float
    speed_lo: float = 5.0
    speed_hi: float = 140.0
    tol_consensus: float = 0.01
    tol_gradient: float = 0.05
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigError(f"step size must be positive, got mu={self.mu}")
        if not (0.0 < self.speed_lo < self.speed_hi):
            raise ConfigError(
                f"invalid clamp interval [{self.speed_lo}, {self.speed_hi}]"
            )
        if self.tol_consensus <= 0 or self.tol_gradient <= 0:
            raise ConfigError("stopping tolerances must be positive")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class DpState:
    """Iteration counter plus the per-vehicle speed estimates (fleet order)."""

    k: int
    speeds: np.ndarray


@dataclass(frozen=True)
class DpResult:
    """Outcome of a baseline run."""

    speeds_final: np.ndarray
    iterations: int
    converged: bool
    residuals: tuple[float, ...]
    trajectory: tuple[tuple[float, ...], ...]

    @property
    def consensus_speed(self) -> float:
        return float(np.mean(self.speeds_final))

    @property
    def spread(self) -> float:
        return float(np.max(self.speeds_final) - np.min(self.speeds_final))


def _require_factors(fleet: Sequence[Vehicle]) -> None:
    for vehicle in fleet:
        if vehicle.factors is None:
            raise BaselineInapplicableError(
                f"vehicle {vehicle.vehicle_id!r} has no closed-form cost model; "
                "the gradient baseline needs derivatives"
            )


def mu_upper_bound(fleet: Sequence[Vehicle], lo: float, hi: float) -> float:
    """Largest admissible step size, 2 / sum of per-vehicle curvature maxima.

    Raises :class:`BaselineInapplicableError` when any vehicle's cost is not
    strictly convex on [lo, hi], because the bound (and the convergence
    argument behind it) assumes positive curvature everywhere.
    """
    if not fleet:
        raise ConfigError("fleet is empty")
    _require_factors(fleet)
    total_max = 0.0
    for vehicle in fleet:
        bounds = growth_bounds(vehicle.factors, lo, hi)
        if not bounds.strictly_convex:
            raise BaselineInapplicableError(
                f"vehicle {vehicle.vehicle_id!r}: cost not strictly convex on "
                f"[{lo}, {hi}] (min curvature {bounds.d_min:.6g})"
            )
        total_max += bounds.d_max
    return 2.0 / total_max


def stack_factors(fleet: Sequence[Vehicle]) -> EmissionFactors:
    """The fleet's emission factors as one set of float64 arrays, in fleet order."""
    _require_factors(fleet)
    return EmissionFactors(
        *(
            np.array([getattr(v.factors, f.name) for v in fleet], dtype=np.float64)
            for f in fields(EmissionFactors)
        )
    )


def gradient_sum(stacked: EmissionFactors, speeds: Speeds) -> float:
    """Sum of each vehicle's cost derivative at its own current estimate.

    The builtin ``sum`` adds the terms left to right in fleet order; numpy's
    pairwise summation would round differently.
    """
    return float(sum(emission_derivative(stacked, speeds).tolist()))


def gradient_residual(stacked: EmissionFactors, speeds: np.ndarray) -> float:
    """|sum_i f_i'(s_bar)| at the current mean estimate — 0 at the joint optimum."""
    return abs(gradient_sum(stacked, float(np.mean(speeds))))


def dp_step(
    state: DpState,
    p: np.ndarray,
    stacked: EmissionFactors,
    config: DpConfig,
) -> DpState:
    """One consensus-average + gradient-descent update, clamped to the speed interval."""
    g = gradient_sum(stacked, state.speeds)
    speeds = p @ state.speeds - config.mu * g
    np.clip(speeds, config.speed_lo, config.speed_hi, out=speeds)
    return DpState(k=state.k + 1, speeds=speeds)


def run_dp(
    fleet: Sequence[Vehicle],
    graphs: GraphSequence,
    config: DpConfig,
    s0: Sequence[float],
) -> DpResult:
    """Iterate until estimates agree and the joint gradient vanishes.

    Stops as soon as (spread < tol_consensus) and (gradient residual at the
    mean < tol_gradient) — checked before the first step, so a fleet started
    at the optimum reports 0 iterations.  Gives up after ``max_iter``.
    """
    if not fleet:
        raise ConfigError("fleet is empty")
    stacked = stack_factors(fleet)
    if len(s0) != len(fleet):
        raise ConfigError(f"s0 has {len(s0)} entries for a {len(fleet)}-vehicle fleet")
    if set(graphs.vertices) != {v.vehicle_id for v in fleet}:
        raise ConfigError("graph sequence vertices must match the fleet's vehicle ids")

    # Rows/cols of the weight matrices follow graph vertex order (sorted);
    # permute them once per distinct graph into fleet order.
    order = [graphs.vertices.index(v.vehicle_id) for v in fleet]
    perm = np.ix_(order, order)
    matrices: dict[int, np.ndarray] = {}

    def weights(k: int) -> np.ndarray:
        key = k % len(graphs)
        if key not in matrices:
            matrices[key] = row_stochastic_from_graph(graphs.at(key))[perm]
        return matrices[key]

    state = DpState(k=0, speeds=np.clip(np.asarray(s0, dtype=float), config.speed_lo, config.speed_hi))
    residuals = [gradient_residual(stacked, state.speeds)]
    trajectory = [tuple(state.speeds.tolist())]
    converged = False
    while True:
        spread = float(np.max(state.speeds) - np.min(state.speeds))
        if spread < config.tol_consensus and residuals[-1] < config.tol_gradient:
            converged = True
            break
        if state.k >= config.max_iter:
            break
        state = dp_step(state, weights(state.k), stacked, config)
        residuals.append(gradient_residual(stacked, state.speeds))
        trajectory.append(tuple(state.speeds.tolist()))
    return DpResult(
        speeds_final=state.speeds,
        iterations=state.k,
        converged=converged,
        residuals=tuple(residuals),
        trajectory=tuple(trajectory),
    )
