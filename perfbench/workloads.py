"""Seeded scenario generator for the benchmark workloads.

Each workload is a fixed shape (fleet size, topology, grid, rounds, CLI
subcommand); the workload seed only draws the values inside that shape: the
custom vehicles' emission polynomials, the churning vehicle and the program's
own seed.  The sizes therefore do not change from seed to seed, apart from the
random edges of a switching topology.

The program only ever sees the generated YAML files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

LO, HI = 5.0, 140.0
MASK_A, MASK_B = 2.0, 10.0
#: The bundled default, kept so a share-sum overflow shows up as a failed round.
SHARE_BOUND = 10**8
#: Relative spread of each custom coefficient around its built-in class.
FACTOR_SPREAD = 0.15
#: Largest |e| (quartic coefficient) of a custom vehicle; large enough that
#: some draws are not convex on [LO, HI] and get rejected.
QUARTIC_MAX = 1e-5
#: Distinct scenarios per run; jobs cycle through them so one draw of the
#: seeded values does not decide the run's timing.
CONFIGS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    per_class: int
    custom: int
    topology: dict = field(default_factory=lambda: {"kind": "ring"})
    grid_m: int = 100
    rounds: int = 1
    churn: bool = False

    @property
    def vehicles(self) -> int:
        return 6 * self.per_class + self.custom


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring-churn", "run", per_class=15, custom=90,
            grid_m=100, rounds=3, churn=True,
        ),
        Workload(
            "dense-switching", "run", per_class=5, custom=30,
            topology={"kind": "switching", "window": 5, "extra_edge_prob": 0.3},
            grid_m=50, rounds=3,
        ),
        # As dense as dense-switching.  On a sparser switching topology (0.1)
        # the baseline's iteration count, and with it the job time, varies
        # between draws with a coefficient of variation of 17 %, which six
        # configs per run cannot average out; at 0.3 it is 6 %.
        Workload(
            "baseline-compare", "compare-baseline", per_class=4, custom=16,
            topology={"kind": "switching", "window": 5, "extra_edge_prob": 0.3},
            grid_m=100,
        ),
    )
}


def _custom_factors(rng: random.Random, classes, growth_bounds, EmissionFactors) -> dict:
    """Perturb a random built-in class; redraw until strictly convex on [LO, HI]."""
    while True:
        base = rng.choice(classes).factors
        factors = {
            name: getattr(base, name) * (1.0 + rng.uniform(-FACTOR_SPREAD, FACTOR_SPREAD))
            for name in ("a", "b", "c", "d")
        }
        factors["e"] = rng.uniform(-QUARTIC_MAX, QUARTIC_MAX)
        factors["k"] = rng.uniform(0.8, 1.2)
        if growth_bounds(EmissionFactors(**factors), LO, HI).strictly_convex:
            return factors


def generate(workload: Workload, seed: int) -> list[dict]:
    """The workload's scenario configs for one seed, as raw config mappings."""
    from speedshare.emissions import EmissionFactors, VehicleClass, growth_bounds

    classes = list(VehicleClass)
    configs = []
    for i in range(CONFIGS):
        rng = random.Random(f"perfbench:{workload.name}:{seed}:{i}")
        customs = [
            {
                "id": f"X{j:03d}",
                "factors": _custom_factors(rng, classes, growth_bounds, EmissionFactors),
            }
            for j in range(workload.custom)
        ]
        raw = {
            "fleet": {
                "classes": {c.name: workload.per_class for c in classes},
                "vehicles": customs,
            },
            "topology": dict(workload.topology),
            "grid": {"m": workload.grid_m, "lo": LO, "hi": HI},
            "masking": {"a": MASK_A, "b": MASK_B},
            "share_bound": SHARE_BOUND,
            "seed": rng.randrange(1, 2**31),
            "rounds": workload.rounds,
        }
        if workload.churn:
            leaver = rng.choice(fleet_ids(raw))
            raw["membership"] = [
                {"round": 1, "leave": [leaver]},
                {"round": 2, "join": [leaver]},
            ]
        configs.append(raw)
    return configs


def fleet_ids(raw: dict) -> list[str]:
    """Vehicle ids of a generated config, by the documented naming rule for classes."""
    fleet = raw["fleet"]
    ids = []
    for name, count in fleet["classes"].items():
        width = len(str(count))
        ids.extend(f"{name}-{i:0{width}d}" for i in range(1, count + 1))
    ids.extend(v["id"] for v in fleet["vehicles"])
    return sorted(ids)


def write_configs(configs: list[dict], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, raw in enumerate(configs):
        path = directory / f"config{i}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        paths.append(path)
    return paths
