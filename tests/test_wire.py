import random
import struct

import numpy as np
import pytest

from speedshare.emissions import Vehicle, VehicleClass, build_speed_grid
from speedshare.errors import EncodingError
from speedshare.graph import ring_over
from speedshare.protocol import MaskingParams, ShareMessage, execute_round
from speedshare.wire import (
    PAIR_BYTES,
    encode_aggregated_table,
    encode_pairs,
    encode_recommendation,
    encode_share_columns,
)


def decode_pairs(data):
    """Unpack a wire payload back into (speed, value) pairs."""
    return list(struct.iter_unpack("<ii", data))


def test_single_pair_layout():
    # little-endian int32 pairs: 40 = 0x28, 180000 = 0x0002BF20
    assert encode_pairs([40.0], [180000]) == b"\x28\x00\x00\x00\x20\xbf\x02\x00"


def test_nineteen_point_table_is_152_bytes():
    grid = build_speed_grid(19, 30.0, 120.0)
    msg = ShareMessage("a", "b", grid, tuple(range(19)))
    (payload,) = encode_share_columns(grid, np.array([msg.values]))
    assert len(payload) == 152
    assert PAIR_BYTES * 19 == 152


def test_roundtrip_with_negative_values():
    speeds = [30.0, 35.0, 40.0]
    values = [-123456, 0, 2**31 - 1]
    pairs = decode_pairs(encode_pairs(speeds, values))
    assert pairs == [(30, -123456), (35, 0), (40, 2**31 - 1)]


def test_fractional_speeds_rounded_on_wire():
    data = encode_pairs([69.09090909, 5.0], [1, 2])
    assert decode_pairs(data) == [(69, 1), (5, 2)]


def test_length_mismatch_rejected():
    with pytest.raises(EncodingError):
        encode_pairs([1.0, 2.0], [1])


def test_value_overflow_rejected():
    with pytest.raises(EncodingError):
        encode_pairs([10.0], [2**31])


def test_empty_payload():
    assert decode_pairs(b"") == []
    assert encode_pairs([], []) == b""


def test_broadcast_is_single_pair():
    fleet = [Vehicle.from_class(c.name, c) for c in VehicleClass]
    grid = build_speed_grid(19, 30.0, 120.0)
    g = ring_over([v.vehicle_id for v in fleet])
    t = execute_round(fleet, g, grid, MaskingParams.identity(), random.Random(0), 10**8)
    blob = encode_recommendation(t.recommendation, grid)
    assert len(blob) == PAIR_BYTES
    speed, value = struct.unpack("<ii", blob)
    assert speed == round(t.recommendation.speed)
    assert value == t.curve[t.recommendation.best_index]


def test_twenty_vehicle_upload_fits_three_kib():
    grid = build_speed_grid(19, 30.0, 120.0)
    fleet = [Vehicle.from_class(f"v{i:02d}", VehicleClass.R004) for i in range(20)]
    g = ring_over([v.vehicle_id for v in fleet])
    t = execute_round(fleet, g, grid, MaskingParams.identity(), random.Random(1), 10**8)
    upload = sum(len(encode_aggregated_table(tbl)) for tbl in t.tables.values())
    assert upload == 3040
    assert upload <= 3 * 1024
