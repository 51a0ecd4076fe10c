"""The paper's contract, fuzzed over small valid ``run`` configs.

Each generated config runs through the CLI.  Every round that succeeds is
checked against a reference computed here, one vehicle and one speed at a
time: the base station's ``aggregate_fixed`` must equal the sum of the
vehicles' masked fixed-point costs exactly, the recommendation must be that
sum's first argmin, and the round must put ``8·m·(messages + uploads) + 8``
bytes on the air.  A rerun must write the same bytes.  A round that fails
must name a share or masked-value overflow; the share bound ranges up to
2**31 - 1, so such failures are in the pool on purpose.
"""

import contextlib
import csv
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from speedshare.cli import main
from speedshare.emissions import EmissionFactors, Vehicle, VehicleClass
from speedshare.errors import EncodingError
from speedshare.protocol import MaskingParams, mask

PAIR_BYTES = 8
OVERFLOW = re.compile(
    r"(residual share|aggregated share|aggregate value) -?\d+ overflows the signed 32-bit range"
    r"|value \S+ does not fit the signed 32-bit fixed-point range"
)

finite = dict(allow_nan=False, allow_infinity=False)
CLASS_FACTORS = st.sampled_from([dataclasses.asdict(c.factors) for c in VehicleClass])
RANDOM_FACTORS = st.fixed_dictionaries(
    {
        "a": st.floats(0.0, 5000.0, **finite),
        "b": st.floats(-200.0, 200.0, **finite),
        "c": st.floats(-1.0, 1.0, **finite),
        "d": st.floats(0.0, 0.02, **finite),
    },
    optional={"e": st.floats(-1e-5, 1e-5, **finite), "k": st.floats(0.5, 2.0, **finite)},
)
#: A cost of k*b at every speed, so a fleet of these ties at every grid point.
FLAT_FACTORS = st.builds(lambda b: {"a": 0.0, "b": b, "c": 0.0, "d": 0.0}, st.floats(1.0, 200.0))


@st.composite
def run_configs(draw):
    """2-12 vehicles on a ring, switching or explicit topology; m = 2..60; any share bound."""
    # One fleet in eight is flat, so the first-argmin rule on ties is exercised.
    flat = draw(st.integers(0, 7)) == 0
    models = FLAT_FACTORS if flat else st.one_of(CLASS_FACTORS, RANDOM_FACTORS)
    factors = draw(st.lists(models, min_size=2, max_size=12))
    ids = [f"V{i:02d}" for i in range(len(factors))]
    kind = draw(st.sampled_from(["ring", "switching", "explicit"]))
    topology = {"kind": kind}
    if kind == "switching":
        topology["extra_edge_prob"] = draw(st.floats(0.0, 1.0))
    elif kind == "explicit":
        # Vehicles left without an out-edge get the dummy participant.
        pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        edges = st.lists(pairs, min_size=1, max_size=2 * len(ids), unique_by=tuple)
        topology["edges"] = draw(edges)
    lo = draw(st.floats(1.0, 60.0, **finite))
    raw = {
        "fleet": {"vehicles": [{"id": i, "factors": f} for i, f in zip(ids, factors)]},
        "topology": topology,
        "grid": {"m": draw(st.integers(2, 60)), "lo": lo, "hi": lo + draw(st.floats(1.0, 100.0))},
        "masking": {"a": draw(st.floats(1e-3, 1e3)), "b": draw(st.floats(-1e6, 1e6))},
        "share_bound": draw(st.integers(1, 2**31 - 1)),
        "seed": draw(st.integers(0, 2**32)),
        "rounds": draw(st.integers(1, 2)),
    }
    leave = draw(st.lists(st.sampled_from(ids), max_size=len(ids) - 1, unique=True))
    if leave:
        # A lone survivor splits its table with the dummy.
        raw["rounds"] = 2
        raw["membership"] = [{"round": 1, "leave": leave}]
    return raw


def run_cli(config: Path, out: Path) -> tuple[int, dict[str, bytes]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--out", str(out)])
    return code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def reference_aggregate(raw, active, speeds) -> list[int] | None:
    """Σ over active vehicles of the scalar masked fixed-point cost at each speed.

    None when some vehicle's masked cost does not fit int32, so the round
    cannot succeed.
    """
    params = MaskingParams(**raw["masking"])
    by_id = {v["id"]: v["factors"] for v in raw["fleet"]["vehicles"]}
    rows = []
    for vid in active:
        vehicle = Vehicle(vid, factors=EmissionFactors(**by_id[vid]))
        try:
            rows.append([mask(vehicle.cost(s), params) for s in speeds])
        except EncodingError:
            return None
    return [sum(column) for column in zip(*rows)]


def aggregate_column(text: bytes) -> list[int]:
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    return [int(row["aggregate_fixed"]) for row in rows]


@settings(max_examples=50, deadline=None)
@given(raw=run_configs())
def test_run_keeps_the_papers_contract(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        code, files = run_cli(path, Path(tmp) / "first")
        assert run_cli(path, Path(tmp) / "rerun") == (code, files)

    grid = raw["grid"]
    m = grid["m"]
    speeds = np.linspace(grid["lo"], grid["hi"], m).tolist()
    rounds = json.loads(files["summary.json"])["rounds"]
    assert len(rounds) == raw["rounds"]
    assert code == (4 if any(entry["failure"] for entry in rounds) else 0)
    active = [v["id"] for v in raw["fleet"]["vehicles"]]
    for entry in rounds:
        r = entry["round"]
        if r == 1 and "membership" in raw:
            active = [v for v in active if v not in raw["membership"][0]["leave"]]
        assert entry["active"] == active
        expected = reference_aggregate(raw, active, speeds)
        if entry["failure"] is not None or expected is None:
            assert entry["failure"] is not None, "a masked cost outside int32 must fail the round"
            assert OVERFLOW.fullmatch(entry["failure"]), entry["failure"]
            continue
        assert aggregate_column(files[f"round{r:03d}_aggregate.csv"]) == expected
        best = int(np.argmin(expected))
        assert entry["recommendation"] == {"index": best, "speed_kmh": speeds[best]}
        traffic = entry["traffic"]
        wire = PAIR_BYTES * m * (traffic["messages"] + traffic["uploads"]) + PAIR_BYTES
        assert traffic["total_bytes"] == wire
