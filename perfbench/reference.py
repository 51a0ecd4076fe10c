"""Independent checks of the files one CLI job wrote.

The reference re-derives every vehicle's masked fixed-point table with numpy
from the generated config, without calling the program's cost, mask or
aggregation code, and compares the program's outputs against it.  Each check
returns a list of human-readable mismatches; an empty list means the job's
outputs are correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import MASK_A, MASK_B, fleet_ids

#: Fixed-point scale and wire layout, as the output format specifies them.
SCALE = 1000
PAIR_BYTES = 8
#: The baseline's default stopping tolerances (consensus spread, gradient residual).
TOL_CONSENSUS, TOL_GRADIENT = 0.01, 0.05


@dataclass
class JobOutcome:
    """What the benchmark reads back from one job, beside the mismatches."""

    rounds: int = 0
    failed: int = 0
    bytes_per_round: list[int] = field(default_factory=list)
    messages_per_round: list[int] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    baseline_iterations: int | None = None
    protocol_speed: float | None = None
    errors: list[str] = field(default_factory=list)


class Reference:
    """Per-vehicle costs and masked fixed-point tables for one generated config."""

    def __init__(self, raw: dict, class_factors: dict[str, dict]):
        self.raw = raw
        self.ids = fleet_ids(raw)
        by_id = {v["id"]: v["factors"] for v in raw["fleet"]["vehicles"]}
        for vid in set(self.ids) - set(by_id):
            by_id[vid] = class_factors[vid.split("-")[0]]
        coef = np.array(
            [[by_id[v].get(name, 0.0) for name in "abcdefg"] for v in self.ids]
        )
        k = np.array([by_id[v].get("k", 1.0) for v in self.ids])[:, None]
        grid = raw["grid"]
        self.m = grid["m"]
        self.speeds = np.linspace(grid["lo"], grid["hi"], self.m)
        s = self.speeds[None, :]
        a, b, c, d, e, f, g = (coef[:, i : i + 1] for i in range(7))
        poly = a + s * (b + s * (c + s * (d + s * (e + s * (f + s * g)))))
        self.cost = k * poly / s
        scaled = (MASK_A * self.cost + MASK_B) * SCALE
        self.fixed = np.where(
            scaled >= 0, np.floor(scaled + 0.5), -np.floor(-scaled + 0.5)
        ).astype(np.int64)
        self.row = {vid: i for i, vid in enumerate(self.ids)}

    def active(self, round_index: int) -> list[str]:
        """The active set before a round, replaying the config's membership events."""
        active = set(self.ids)
        for event in self.raw.get("membership", ()):
            if event["round"] <= round_index:
                active -= set(event.get("leave", ()))
                active |= set(event.get("join", ()))
        return sorted(active)

    def check_choice(self, ids: list[str], index: int, what: str) -> tuple[np.ndarray, list[str]]:
        """Check a recommended grid index against the reference aggregate.

        It must be the lowest-index argmin of the exact fixed-point aggregate.
        It must also be the argmin of the true total, up to the quantisation
        the fixed-point tables allow: each vehicle's table is off by at most
        half a unit, so totals closer than n / (SCALE * a) cannot be told apart.
        """
        rows = [self.row[v] for v in ids]
        aggregate = self.fixed[rows].sum(axis=0)
        total = self.cost[rows].sum(axis=0)
        errors = []
        expected = int(np.argmin(aggregate))
        if index != expected:
            errors.append(f"{what}: recommended index {index}, fixed-point argmin is {expected}")
        slack = len(rows) / (SCALE * MASK_A) * (1 + 1e-9)
        if total[index] - total.min() > slack:
            errors.append(
                f"{what}: recommendation costs {total[index] - total.min():.6g} more than "
                f"the true-total argmin {int(np.argmin(total))}"
            )
        return aggregate, errors


def wire_errors(m: int, total: int, messages: int, uploads: int, what: str) -> list[str]:
    """Each share message and upload is an m-pair table; the broadcast is one pair."""
    wire = PAIR_BYTES * m * (messages + uploads) + PAIR_BYTES
    if total == wire:
        return []
    return [f"{what}: total_bytes {total} != 8*m*(messages+uploads)+8 = {wire}"]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_run(ref: Reference, outdir: Path, exit_code: int | None) -> JobOutcome:
    """Check a ``speedshare run`` job: choices, aggregates, byte counts, exit code.

    ``exit_code`` is None if the CLI raised instead of returning.
    """
    out = JobOutcome()
    if not (outdir / "summary.json").exists():
        # The job ended without writing its outputs: every round failed.
        out.rounds = out.failed = ref.raw["rounds"]
        out.errors.append(f"no summary.json (exit code {exit_code})")
        return out
    summary = json.loads((outdir / "summary.json").read_text())
    ring = ref.raw["topology"]["kind"] == "ring"
    for entry in summary["rounds"]:
        r = entry["round"]
        what = f"round {r}"
        out.rounds += 1
        ids = ref.active(r)
        if entry["active"] != ids:
            out.errors.append(f"{what}: active set differs from the membership events")
        if entry["failure"] is not None:
            out.failed += 1
            continue
        index = entry["recommendation"]["index"]
        aggregate, errors = ref.check_choice(ids, index, what)
        out.errors += errors
        if entry["recommendation"]["speed_kmh"] != float(ref.speeds[index]):
            out.errors.append(f"{what}: recommended speed is not grid point {index}")
        header, rows = _read_csv(outdir / f"round{r:03d}_aggregate.csv")
        column = [int(row[header.index("aggregate_fixed")]) for row in rows]
        if column != aggregate.tolist():
            out.errors.append(f"{what}: aggregate_fixed differs from the sum of masked tables")
        traffic = entry["traffic"]
        out.errors += wire_errors(
            ref.m, traffic["total_bytes"], traffic["messages"], traffic["uploads"], what
        )
        if ring and traffic["messages"] != len(ids):
            out.errors.append(f"{what}: a ring of {len(ids)} sent {traffic['messages']} messages")
        out.bytes_per_round.append(traffic["total_bytes"])
        out.messages_per_round.append(traffic["messages"])
        out.accuracies.append(entry["accuracy"])
    if out.rounds != ref.raw["rounds"]:
        out.errors.append(f"summary lists {out.rounds} rounds, config asks for {ref.raw['rounds']}")
    if exit_code != (4 if out.failed else 0):
        out.errors.append(f"exit code {exit_code} with {out.failed} failed rounds")
    return out


def check_compare(ref: Reference, outdir: Path, exit_code: int | None) -> JobOutcome:
    """Check a ``speedshare compare-baseline`` job: protocol choice and a converged baseline."""
    out = JobOutcome(rounds=1)
    if exit_code != 0:
        # The protocol round failed before the baseline ran.  Exit 4 is a
        # protocol failure the program reported, as a failed round of `run`
        # is; any other exit, or an exception, is also a defect.
        out.failed = 1
        if exit_code is not None and exit_code != 4:
            out.errors.append(f"compare-baseline exited {exit_code}")
        return out
    summary = json.loads((outdir / "summary.json").read_text())
    protocol, baseline = summary["protocol"], summary["baseline"]
    speed = protocol["speed_kmh"]
    matches = np.flatnonzero(ref.speeds == speed)
    if matches.size != 1:
        out.errors.append(f"protocol speed {speed} is not a grid point")
    else:
        out.errors += ref.check_choice(ref.ids, int(matches[0]), "protocol round")[1]
    out.protocol_speed = speed
    out.messages_per_round.append(protocol["messages"])
    iterations = baseline["iterations"]
    out.baseline_iterations = iterations
    out.rounds += iterations
    if not baseline["converged"]:
        out.failed += iterations
        out.errors.append(f"baseline did not converge in {iterations} iterations")
    _, rows = _read_csv(outdir / "baseline_trace.csv")
    if len(rows) != iterations + 1:
        out.errors.append(f"baseline trace has {len(rows)} rows for {iterations} iterations")
    last = [float(x) for x in rows[-1]]
    final = last[2:]
    if len(final) != len(ref.ids):
        out.errors.append(f"baseline trace has {len(final)} speed columns")
    elif not (max(final) - min(final) < TOL_CONSENSUS and last[1] < TOL_GRADIENT):
        out.errors.append("baseline trace does not end at the stopping criterion")
    return out


def compare_trees(first: Path, second: Path) -> list[str]:
    """Mismatches between two output directories that must be byte-identical."""
    names = sorted(p.name for p in first.iterdir()) if first.exists() else []
    if names != (sorted(p.name for p in second.iterdir()) if second.exists() else []):
        return [f"repeated job wrote different files: {names}"]
    return [
        f"repeated job wrote a different {name}"
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
