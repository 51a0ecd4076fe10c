"""One-shot secret-sharing protocol for fleet-wide cost aggregation.

A round proceeds in four steps:

1. Each vehicle evaluates its private cost at every grid speed, applies the
   fleet-wide affine mask ``a*x + b`` (slope a > 0 preserves the argmin) and
   quantises to fixed point.  The simulator evaluates each vehicle's costs
   once per round and hands the row to the vehicle's own step.
2. For each grid point it splits the masked value into one share per
   out-neighbor plus one share it keeps; shares are uniform draws except the
   last, which makes the sum exact.
3. Each participant sums its kept share with everything it received and sends
   that single aggregated table to the base station.
4. The base station sums the tables pointwise — all randomness cancels —
   and broadcasts the grid speed with the smallest aggregate.

All protocol arithmetic is exact integer arithmetic on fixed-point values, so
the aggregate the base station sees is bit-identical to the sum of the masked
tables no matter how the shares were drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .emissions import Speeds, SpeedGrid, Vehicle
from .errors import (
    ConfigError,
    EncodingError,
    IncompleteRoundError,
    PrivacyPreconditionError,
    ProtocolError,
)
from .graph import CommGraph
from .mtstream import mt_words

#: Fixed-point scale: stored integer = real value * SCALE.
SCALE = 1000

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


def to_fixed(value: Speeds) -> int | list[int]:
    """Quantise real value(s) to fixed point, rounding half away from zero.

    Like the ``Speeds`` convention of :mod:`speedshare.emissions`, a float
    gives an ``int`` and an array gives a list of ``int`` in the same order.
    A non-finite value, or one outside the signed 32-bit range, raises
    :class:`EncodingError` naming the first offending value.
    """
    overflow = "value {} does not fit the signed 32-bit fixed-point range"
    try:
        real = np.asarray(value, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise EncodingError(overflow.format(value)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = real * SCALE
        fixed = np.where(scaled >= 0, np.floor(scaled + 0.5), -np.floor(-scaled + 0.5))
    fits = (fixed > _INT32_MIN) & (fixed <= _INT32_MAX)  # false for NaN too
    if not fits.all():
        bad = float(real[~fits][0])
        if not math.isfinite(bad):
            raise EncodingError(f"value {bad} is not a finite number")
        raise EncodingError(overflow.format(bad))
    if isinstance(value, np.ndarray):
        return fixed.astype(np.int64).tolist()
    return int(fixed)


def from_fixed(fixed: int) -> float:
    """Real value represented by a fixed-point integer."""
    return fixed / SCALE


def _check_fixed(fixed: int, what: str) -> None:
    if not _INT32_MIN < fixed <= _INT32_MAX:
        raise EncodingError(f"{what} {fixed} overflows the signed 32-bit range")


def _check_fixed_array(fixed: np.ndarray, what: str) -> None:
    """:func:`_check_fixed` on every entry, naming the first offender in array order."""
    fits = (fixed > _INT32_MIN) & (fixed <= _INT32_MAX)
    if not fits.all():
        _check_fixed(int(fixed[~fits][0]), what)


@dataclass(frozen=True)
class MaskingParams:
    """Fleet-wide affine mask g(x) = a*x + b, known to vehicles but not the base station."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ConfigError(f"mask parameter {name} must be finite, got {name}={value}")
        if not self.a > 0.0:
            raise ConfigError(f"mask slope must be positive to preserve the argmin, got a={self.a}")

    @classmethod
    def identity(cls) -> "MaskingParams":
        return cls(1.0, 0.0)


def mask(value: Speeds, params: MaskingParams) -> int | list[int]:
    """Affine-mask real cost(s) and quantise to fixed point (see :func:`to_fixed`)."""
    return to_fixed(params.a * value + params.b)


def draw_shares(rng: random.Random, count: int, bound: int) -> np.ndarray:
    """``count`` uniform draws from [-bound, +bound], as an int64 array.

    The draws, and the state ``rng`` is left in, are exactly those of
    ``[rng.randrange(2*bound + 1) - bound for _ in range(count)]``.  That
    holds because ``bound`` is at most 2**31 - 1, so the width ``w`` is below
    2**32: CPython's ``randrange(w)`` then takes the top ``k = w.bit_length()``
    bits of one 32-bit Mersenne Twister word per attempt and rejects values
    >= w.  :func:`speedshare.mtstream.mt_words` reads the next n such words
    in one ``getrandbits`` call, so one call makes n attempts at once.  Only the
    shortfall is drawn again, so no word past the last accepted one is read.

    Preconditions: ``rng`` is a :class:`random.Random` (or draws its
    ``randrange`` through ``getrandbits`` the same way), the width is at most
    2**32 (checked: ``bound`` above 2**31 - 1 raises), and ``getrandbits``
    packs words in CPython's order.  ``tests/test_vectorised.py`` pins the
    equality, and the rng state, against the per-call loop.
    """
    if bound <= 0:
        raise ConfigError(f"share bound must be positive, got {bound}")
    _check_fixed(bound, "share bound")
    width = 2 * bound + 1
    shift = 32 - width.bit_length()
    draws = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        values = mt_words(rng, need) >> shift
        accepted = values[values < width]
        draws[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return draws - bound


def split_shares(masked: int, n_shares: int, rng: random.Random, bound: int) -> tuple[int, ...]:
    """Split a fixed-point value into ``n_shares`` integers that sum to it exactly.

    The first ``n_shares - 1`` entries are independent uniform draws from
    [-bound, +bound] (fixed-point units); the last entry is the residual that
    restores the sum.  Order matters to callers: the draws are what gets
    transmitted, the residual is what the owner keeps.

    The draws come from :func:`draw_shares` and equal ``n_shares - 1`` calls
    of ``rng.randrange(2*bound + 1) - bound`` under its preconditions: a
    :class:`random.Random` rng, a width ``2*bound + 1`` of at most 2**32
    (``bound`` above 2**31 - 1 is rejected), and CPython's ``getrandbits``
    word order.
    """
    if n_shares < 2:
        raise PrivacyPreconditionError(
            f"need at least 2 shares to hide a value, got n_shares={n_shares}"
        )
    draws = draw_shares(rng, n_shares - 1, bound).tolist()
    residual = masked - sum(draws)
    _check_fixed(residual, "residual share")
    return tuple(draws) + (residual,)


@dataclass(frozen=True)
class CostTable:
    """A participant's per-grid-point values (masked costs or kept shares)."""

    vehicle_id: str
    grid: SpeedGrid
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.m:
            raise ProtocolError(
                f"table for {self.vehicle_id!r} has {len(self.values)} values "
                f"for a {self.grid.m}-point grid"
            )


@dataclass(frozen=True)
class ShareMessage:
    """One vehicle-to-vehicle transmission: a full column of shares."""

    sender: str
    receiver: str
    grid: SpeedGrid
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ProtocolError(f"{self.sender!r} cannot send shares to itself")
        if len(self.values) != self.grid.m:
            raise ProtocolError(
                f"share message {self.sender!r}->{self.receiver!r} has {len(self.values)} "
                f"values for a {self.grid.m}-point grid"
            )


@dataclass(frozen=True)
class AggregatedTable:
    """What one participant uploads to the base station: kept + received shares."""

    vehicle_id: str
    grid: SpeedGrid
    values: tuple[int, ...]


@dataclass(frozen=True)
class Recommendation:
    """The base station's broadcast: the grid speed minimising the aggregate."""

    best_index: int
    speed: float
    curve: tuple[int, ...]


def prepare_round(
    vehicle_id: str,
    costs: np.ndarray,
    grid: SpeedGrid,
    params: MaskingParams,
    g: CommGraph,
    rng: random.Random,
    bound: int,
) -> tuple[CostTable, list[ShareMessage]]:
    """Mask and split one vehicle's cost row; returns (kept shares, outgoing messages).

    ``costs`` holds the vehicle's private cost at each grid speed.  It is
    masked whole, and every share is drawn in one :func:`draw_shares` call:
    grid point outer, out-neighbors in sorted-id order inner, so a seeded rng
    reproduces a round exactly.  The kept column is the residual that
    restores each point's masked value.
    """
    neighbors = g.out_neighbors(vehicle_id)
    if not neighbors:
        raise PrivacyPreconditionError(
            f"vehicle {vehicle_id!r} has no out-neighbor to split its table with"
        )
    masked = np.array(mask(costs, params), dtype=np.int64)
    draws = draw_shares(rng, masked.size * len(neighbors), bound).reshape(-1, len(neighbors))
    kept = masked - draws.sum(axis=1)
    _check_fixed_array(kept, "residual share")
    messages = [
        ShareMessage(vehicle_id, nbr, grid, tuple(col))
        for nbr, col in zip(neighbors, draws.T.tolist())
    ]
    return CostTable(vehicle_id, grid, tuple(kept.tolist())), messages


def _stack(rows: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """Equal-length integer rows as one (len(rows), m) int64 array."""
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(rows) * m)
    return flat.reshape(len(rows), m)


def aggregate_local(kept: CostTable, inbox: Sequence[ShareMessage]) -> AggregatedTable:
    """Sum kept shares with every received share column (exact integer sums)."""
    m = len(kept.values)
    for msg in inbox:
        if msg.receiver != kept.vehicle_id:
            raise ProtocolError(
                f"message addressed to {msg.receiver!r} in {kept.vehicle_id!r}'s inbox"
            )
        if len(msg.values) != m:
            raise ProtocolError(
                f"share message from {msg.sender!r} has {len(msg.values)} values, "
                f"expected {m}"
            )
    totals = _stack([kept.values, *(msg.values for msg in inbox)], m).sum(axis=0)
    _check_fixed_array(totals, "aggregated share")
    return AggregatedTable(kept.vehicle_id, kept.grid, tuple(totals.tolist()))


def base_station_aggregate(
    tables: Sequence[AggregatedTable],
    expected_ids: Iterable[str] | None = None,
) -> tuple[int, ...]:
    """Pointwise sum of all uploaded tables; share randomness cancels exactly."""
    if not tables:
        raise ProtocolError("base station received no tables")
    if expected_ids is not None:
        missing = set(expected_ids) - {t.vehicle_id for t in tables}
        if missing:
            raise IncompleteRoundError(
                f"missing aggregated tables from: {sorted(missing)}"
            )
    m = len(tables[0].values)
    for table in tables:
        if len(table.values) != m:
            raise ProtocolError(
                f"table from {table.vehicle_id!r} has {len(table.values)} values, expected {m}"
            )
    curve = _stack([table.values for table in tables], m).sum(axis=0)
    _check_fixed_array(curve, "aggregate value")
    return tuple(curve.tolist())


def select_best(curve: Sequence[int], grid: SpeedGrid) -> Recommendation:
    """Pick the grid point with the smallest aggregate (lowest speed on ties)."""
    if len(curve) != grid.m:
        raise ProtocolError(f"curve has {len(curve)} values for a {grid.m}-point grid")
    if not curve:
        raise ProtocolError("cannot select from an empty curve")
    best = min(range(len(curve)), key=lambda j: (curve[j], j))
    return Recommendation(best_index=best, speed=grid.speeds[best], curve=tuple(curve))


@dataclass(frozen=True)
class RoundTranscript:
    """Everything observable in one round, for metrics and tests.

    ``kept``/``inboxes``/``tables`` are keyed by participant id and include
    dummy participants; ``messages`` lists every vehicle-to-vehicle share
    column in transmission order.

    ``true_total`` is the fleet's unmasked total cost at each grid point,
    summed left to right in fleet order from the same cost evaluation the
    shares were made from.  It is the simulator's record for measuring the
    base station's view; no participant observes it.
    """

    grid: SpeedGrid
    kept: Mapping[str, CostTable]
    inboxes: Mapping[str, tuple[ShareMessage, ...]]
    tables: Mapping[str, AggregatedTable]
    messages: tuple[ShareMessage, ...]
    curve: tuple[int, ...]
    recommendation: Recommendation
    dummy_ids: tuple[str, ...]
    true_total: tuple[float, ...]

    @cached_property
    def shares(self) -> np.ndarray:
        """Every share column sent this round: one int64 row per entry of ``messages``."""
        return _stack([msg.values for msg in self.messages], self.grid.m)

    @cached_property
    def estimate_errors(self) -> Mapping[str, tuple[float, ...]]:
        """Per receiver: the sum of its received shares minus its senders' masked sum.

        In real units, one entry per participant that received a share.  Each
        received column contributes itself minus its sender's masked table,
        which is the sender's kept share plus every column it sent (see
        :func:`speedshare.metrics.local_estimated_error`).
        """
        senders: dict[str, int] = {}
        sender_rows = np.array(
            [senders.setdefault(msg.sender, len(senders)) for msg in self.messages], dtype=np.intp
        )
        receivers: dict[str, int] = {}
        receiver_rows = np.array(
            [receivers.setdefault(msg.receiver, len(receivers)) for msg in self.messages],
            dtype=np.intp,
        )
        masked = _stack([self.kept[sender].values for sender in senders], self.grid.m)
        np.add.at(masked, sender_rows, self.shares)
        error = np.zeros((len(receivers), self.grid.m), dtype=np.int64)
        np.add.at(error, receiver_rows, self.shares - masked[sender_rows])
        return dict(zip(receivers, map(tuple, (error / SCALE).tolist())))


def execute_round(
    fleet: Sequence[Vehicle],
    g: CommGraph,
    grid: SpeedGrid,
    params: MaskingParams,
    rng: random.Random,
    bound: int,
) -> RoundTranscript:
    """Run one full protocol round and return the complete transcript.

    Graph vertices that are not fleet vehicles act as dummy participants:
    they contribute an all-zero table, receive and aggregate shares, and
    upload like everyone else.  Vehicles are processed in the order given,
    which together with the seeded rng makes rounds reproducible.
    """
    ids = [v.vehicle_id for v in fleet]
    if len(set(ids)) != len(ids):
        raise ProtocolError("fleet contains duplicate vehicle ids")
    if not fleet:
        raise ProtocolError("fleet is empty")
    for vid in ids:
        if vid not in g:
            raise ProtocolError(f"vehicle {vid!r} is not a vertex of the communication graph")
    dummy_ids = tuple(sorted(set(g.vertices) - set(ids)))

    speeds = np.asarray(grid.speeds)
    costs = [vehicle.cost(speeds) for vehicle in fleet]
    kept: dict[str, CostTable] = {}
    inboxes: dict[str, list[ShareMessage]] = {v: [] for v in g.vertices}
    messages: list[ShareMessage] = []
    for vehicle, row in zip(fleet, costs):
        table, outgoing = prepare_round(vehicle.vehicle_id, row, grid, params, g, rng, bound)
        kept[vehicle.vehicle_id] = table
        for msg in outgoing:
            inboxes[msg.receiver].append(msg)
            messages.append(msg)
    zero = (0,) * grid.m
    for did in dummy_ids:
        kept[did] = CostTable(did, grid, zero)

    order = ids + list(dummy_ids)
    tables = {pid: aggregate_local(kept[pid], inboxes[pid]) for pid in order}
    curve = base_station_aggregate([tables[pid] for pid in order], expected_ids=order)
    rec = select_best(curve, grid)
    return RoundTranscript(
        grid=grid,
        kept=kept,
        inboxes={pid: tuple(inboxes[pid]) for pid in order},
        tables=tables,
        messages=tuple(messages),
        curve=curve,
        recommendation=rec,
        dummy_ids=dummy_ids,
        # Left to right, like fleet_total_cost: np.add.reduce sums pairwise.
        true_total=tuple(reduce(np.add, costs).tolist()),
    )
