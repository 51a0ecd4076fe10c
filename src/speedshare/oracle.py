"""Brute-force reference optimum for a fleet's total cost curve."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emissions import Vehicle
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class OracleResult:
    """Fleet-wide optimum found by dense scanning of [lo, hi]."""

    s_star: float
    f_star: float
    resolution: float
    lo: float
    hi: float


def fleet_total_cost(fleet: Sequence[Vehicle], speed) -> float | np.ndarray:
    """Sum of all vehicles' costs at the given speed(s)."""
    if not fleet:
        raise ConfigError("fleet is empty")
    total = fleet[0].cost(speed)
    for vehicle in fleet[1:]:
        total = total + vehicle.cost(speed)
    return total


def scan_multiples(lo: float, hi: float, resolution: float = 0.01) -> tuple[int, int]:
    """First and last j with j * ``resolution`` in [lo, hi]: the oracle's scan points.

    Raises :class:`ConfigError` when the interval is invalid or holds no
    multiple of ``resolution``, so there is nothing to scan.
    """
    if resolution <= 0:
        raise ConfigError(f"resolution must be positive, got {resolution}")
    if not (0.0 < lo < hi):
        raise ConfigError(f"invalid speed interval [{lo}, {hi}]: need 0 < lo < hi")
    j0 = math.ceil(lo / resolution - 1e-9)
    j1 = math.floor(hi / resolution + 1e-9)
    if j1 < j0:
        raise ConfigError(f"no multiple of {resolution} inside [{lo}, {hi}]")
    return j0, j1


def brute_force_optimum(
    fleet: Sequence[Vehicle], lo: float, hi: float, resolution: float = 0.01
) -> OracleResult:
    """Scan every multiple of ``resolution`` in [lo, hi] for the smallest total cost.

    Ties go to the lowest speed (np.argmin returns the first minimum of an
    ascending scan).  With the default 0.01 km/h resolution this is the
    ground truth the protocol's grid-restricted recommendation is judged
    against.  The scan points are those of :func:`scan_multiples`.
    """
    j0, j1 = scan_multiples(lo, hi, resolution)
    speeds = np.arange(j0, j1 + 1) * resolution
    totals = np.asarray(fleet_total_cost(fleet, speeds), dtype=float)
    best = int(np.argmin(totals))
    return OracleResult(
        s_star=float(speeds[best]),
        f_star=float(totals[best]),
        resolution=resolution,
        lo=lo,
        hi=hi,
    )


def accuracy(recommended_speed: float, fleet: Sequence[Vehicle], oracle: OracleResult) -> float:
    """Quality of a recommendation: oracle optimum cost / cost at the recommendation.

    1.0 means the recommendation is as good as the dense-scan optimum; values
    approach 0 as the recommendation worsens.  Positive costs keep the ratio
    in (0, 1] whenever the recommendation lies on the oracle's own scan grid.
    """
    if not (oracle.lo <= recommended_speed <= oracle.hi):
        raise DomainError(
            f"recommended speed {recommended_speed} outside oracle interval "
            f"[{oracle.lo}, {oracle.hi}]"
        )
    return oracle.f_star / float(fleet_total_cost(fleet, recommended_speed))
