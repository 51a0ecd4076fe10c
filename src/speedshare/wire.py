"""Byte-level encoding of protocol messages.

Every table-shaped message is M consecutive little-endian pairs of signed
32-bit integers: (speed in km/h rounded to the nearest integer, fixed-point
value).  A full table therefore costs exactly 8*M bytes; the base station's
broadcast is a single pair, 8 bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .emissions import SpeedGrid
from .errors import EncodingError
from .protocol import AggregatedTable, Recommendation

PAIR_BYTES = 8
_INT32 = np.iinfo(np.int32)


def encode_pairs(speeds: Sequence[float], values: Sequence[int]) -> bytes:
    """Pack parallel (speed, value) sequences into the wire layout.

    Speeds are rounded half to even, as Python's ``round`` does.  Every
    number is range-checked before the int32 cast, which would wrap silently.
    """
    if len(speeds) != len(values):
        raise EncodingError(f"{len(speeds)} speeds but {len(values)} values")
    pairs = np.empty((len(values), 2))
    pairs[:, 0] = np.rint(speeds)
    try:
        pairs[:, 1] = np.fromiter(values, dtype=float, count=len(values))
    except OverflowError:  # an int beyond the float range
        pairs[:, 1] = [v if abs(v) <= _INT32.max else np.inf for v in values]
    fits = (pairs >= _INT32.min) & (pairs <= _INT32.max)  # false for NaN too
    if not fits.all():
        i = int(np.argmin(fits.all(axis=1)))
        raise EncodingError(f"pair ({speeds[i]}, {values[i]}) does not fit int32")
    return pairs.astype("<i4").tobytes()


def encode_share_columns(grid: SpeedGrid, columns: np.ndarray) -> list[bytes]:
    """Encode many share columns on one grid, one payload per row of ``columns``.

    Row i's payload is ``encode_pairs(grid.speeds, columns[i])``, byte for
    byte; the whole batch is range-checked and cast to int32 in one array
    pass, and the first pair that does not fit (rows in order) is named as
    :func:`encode_pairs` would name it.
    """
    n, m = columns.shape
    speeds = np.rint(grid.speeds)
    fits = (columns >= _INT32.min) & (columns <= _INT32.max)
    fits &= (speeds >= _INT32.min) & (speeds <= _INT32.max)  # false for NaN too
    if not fits.all():
        i, j = divmod(int(np.argmin(fits)), m)
        raise EncodingError(f"pair ({grid.speeds[j]}, {int(columns[i, j])}) does not fit int32")
    pairs = np.empty((n, m, 2), dtype="<i4")
    pairs[:, :, 0] = speeds
    pairs[:, :, 1] = columns
    data = pairs.tobytes()
    size = PAIR_BYTES * m
    return [data[k : k + size] for k in range(0, len(data), size)]


def encode_aggregated_table(table: AggregatedTable) -> bytes:
    return encode_pairs(table.grid.speeds, table.values)


def encode_recommendation(rec: Recommendation, grid: SpeedGrid) -> bytes:
    """The broadcast: one (speed, aggregate) pair."""
    return encode_pairs([rec.speed], [rec.curve[rec.best_index]])
