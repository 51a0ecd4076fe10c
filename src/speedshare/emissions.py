"""Vehicle emission-rate models and speed grids.

The per-kilometre emission rate of a vehicle travelling at steady speed s (km/h)
is a sixth-degree polynomial in s divided by s:

    rate(s) = k * (a + b*s + c*s**2 + d*s**3 + e*s**4 + f*s**5 + g*s**6) / s

All rate/derivative functions accept either a float or a numpy array for the
speed argument and return the matching type.  The factors may also be
per-vehicle arrays (a stacked fleet, see
:func:`speedshare.baseline.stack_factors`); the same expressions then
broadcast over the vehicles and return one value per vehicle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, DomainError

Speeds = Union[float, np.ndarray]

#: Step (km/h) used when scanning a speed interval for curvature bounds.
CURVATURE_SCAN_STEP = 0.1


@dataclass(frozen=True)
class EmissionFactors:
    """Coefficients of the emission-rate polynomial, plus a global scale k.

    Each field is normally a float.  A stacked fleet holds one float64 array
    per field, in fleet order, and the rate/derivative functions broadcast
    over it.
    """

    a: float
    b: float
    c: float
    d: float
    e: float = 0.0
    f: float = 0.0
    g: float = 0.0
    k: float = 1.0


class VehicleClass(enum.Enum):
    """Built-in vehicle classes with published average emission factors.

    The pairs (R004, R005), (R011, R012) and (R018, R019) share all factors
    except ``b``.  The linear term contributes the constant ``k*b`` to the
    rate, so paired classes have identical derivatives but offset rates.
    """

    R004 = EmissionFactors(a=2.2606e3, b=7.0183e1, c=2.9263e-1, d=3.0199e-3)
    R005 = EmissionFactors(a=2.2606e3, b=5.9444e1, c=2.9263e-1, d=3.0199e-3)
    R011 = EmissionFactors(a=2.5324e3, b=1.1834e2, c=-4.3167e-1, d=6.6776e-3)
    R012 = EmissionFactors(a=2.5324e3, b=1.0340e2, c=-4.3167e-1, d=6.6776e-3)
    R018 = EmissionFactors(a=3.7473e3, b=1.6774e2, c=-8.5270e-1, d=1.0318e-2)
    R019 = EmissionFactors(a=3.7473e3, b=1.5599e2, c=-8.5270e-1, d=1.0318e-2)

    @property
    def factors(self) -> EmissionFactors:
        return self.value


def _check_speed(speed: Speeds) -> None:
    if np.any(np.asarray(speed) <= 0):
        raise DomainError("speed must be strictly positive (km/h)")


def emission_rate(factors: EmissionFactors, speed: Speeds) -> Speeds:
    """Emission rate (mass per km) at the given speed(s)."""
    _check_speed(speed)
    s = speed
    poly = factors.a + s * (
        factors.b
        + s * (factors.c + s * (factors.d + s * (factors.e + s * (factors.f + s * factors.g))))
    )
    return factors.k * poly / s


def emission_derivative(factors: EmissionFactors, speed: Speeds) -> Speeds:
    """First derivative of :func:`emission_rate` with respect to speed."""
    _check_speed(speed)
    s = speed
    return factors.k * (
        -factors.a / (s * s)
        + factors.c
        + s * (2.0 * factors.d + s * (3.0 * factors.e + s * (4.0 * factors.f + s * 5.0 * factors.g)))
    )


def emission_second_derivative(factors: EmissionFactors, speed: Speeds) -> Speeds:
    """Second derivative of :func:`emission_rate` with respect to speed."""
    _check_speed(speed)
    s = speed
    return factors.k * (
        2.0 * factors.a / (s * s * s)
        + 2.0 * factors.d
        + s * (6.0 * factors.e + s * (12.0 * factors.f + s * 20.0 * factors.g))
    )


class GrowthBounds(NamedTuple):
    """Extremes of the rate's second derivative over a speed interval."""

    d_min: float
    d_max: float

    @property
    def strictly_convex(self) -> bool:
        """True when the rate curve is strictly convex on the scanned interval."""
        return self.d_min > 0.0


def growth_bounds(factors: EmissionFactors, lo: float, hi: float) -> GrowthBounds:
    """Scan [lo, hi] and return (min, max) of the second derivative.

    The scan walks the interval in steps of ``CURVATURE_SCAN_STEP`` and always
    includes both endpoints.  ``d_min <= 0`` signals that gradient-descent
    style updates have no convexity guarantee on this interval; callers decide
    whether that is fatal (see :func:`speedshare.baseline.mu_upper_bound`).
    """
    if not (0.0 < lo < hi):
        raise DomainError(f"invalid speed interval [{lo}, {hi}]: need 0 < lo < hi")
    steps = int(math.floor((hi - lo) / CURVATURE_SCAN_STEP + 1e-9))
    pts = lo + CURVATURE_SCAN_STEP * np.arange(steps + 1)
    if hi - pts[-1] > 1e-9:
        pts = np.append(pts, hi)
    curvature = emission_second_derivative(factors, pts)
    return GrowthBounds(float(np.min(curvature)), float(np.max(curvature)))


@dataclass(frozen=True)
class SpeedGrid:
    """Ordered, evenly spaced candidate speeds shared by every participant."""

    speeds: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.speeds)

    @property
    def lo(self) -> float:
        return self.speeds[0]

    @property
    def hi(self) -> float:
        return self.speeds[-1]

    def __len__(self) -> int:
        return len(self.speeds)

    def __iter__(self):
        return iter(self.speeds)


def build_speed_grid(m: int, lo: float, hi: float) -> SpeedGrid:
    """Return ``m`` evenly spaced speeds spanning [lo, hi] inclusive."""
    if m < 2:
        raise ConfigError(f"grid needs at least 2 points, got m={m}")
    if not (0.0 < lo < hi):
        raise ConfigError(f"invalid grid range [{lo}, {hi}]: need 0 < lo < hi")
    return SpeedGrid(tuple(float(s) for s in np.linspace(lo, hi, m)))


@dataclass(frozen=True)
class Vehicle:
    """A fleet participant: an id plus a private per-speed cost.

    The cost is given either by closed-form emission factors or by an explicit
    speed -> cost table (for vehicles whose model is only known pointwise).
    Exactly one of the two must be set.
    """

    vehicle_id: str
    factors: EmissionFactors | None = None
    cost_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if (self.factors is None) == (self.cost_table is None):
            raise ConfigError(
                f"vehicle {self.vehicle_id!r}: exactly one of factors/cost_table required"
            )

    @classmethod
    def from_class(cls, vehicle_id: str, vclass: VehicleClass) -> "Vehicle":
        return cls(vehicle_id=vehicle_id, factors=vclass.factors)

    @classmethod
    def from_table(cls, vehicle_id: str, table: dict[float, float]) -> "Vehicle":
        pairs = tuple(sorted((float(s), float(v)) for s, v in table.items()))
        return cls(vehicle_id=vehicle_id, cost_table=pairs)

    def cost(self, speed: Speeds) -> Speeds:
        """Private cost at the given speed(s)."""
        if self.factors is not None:
            return emission_rate(self.factors, speed)
        return self._table_lookup(speed)

    def _table_lookup(self, speed: Speeds) -> Speeds:
        if isinstance(speed, np.ndarray):
            return np.array([self._table_lookup(float(s)) for s in speed])
        for s, value in self.cost_table:
            if math.isclose(s, speed, rel_tol=0.0, abs_tol=1e-9):
                return value
        raise DomainError(f"vehicle {self.vehicle_id!r} has no cost entry for speed {speed}")
