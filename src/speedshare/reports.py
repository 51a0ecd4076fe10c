"""File outputs: CSV curves/tables and a JSON summary, deterministically ordered.

Every writer emits rows in a fixed order with fixed columns so that two runs
with the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .harness import BaselineComparison, ScenarioReport, SweepPoint
from .protocol import from_fixed


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    """Write a CSV with ``csv.writer``'s dialect and bytes.

    The header goes through ``csv.writer``, because vehicle ids are free text
    and may need quoting.  Every row must hold only Python ints and floats:
    ``csv.writer`` writes a float as its ``repr`` and an int as its ``str``
    (the same text), and neither ever needs quoting, so the rows are joined
    directly.
    """
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    return path


def write_summary(report_dict: dict, outdir: Path) -> Path:
    path = outdir / "summary.json"
    path.write_text(json.dumps(report_dict, indent=2) + "\n")
    return path


def write_scenario_outputs(report: ScenarioReport, outdir: Path) -> list[Path]:
    """Write summary.json plus per-round aggregate and local-error CSVs."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = [write_summary(report.to_dict(), outdir)]
    grid = report.config.grid()
    for r in report.rounds:
        if r.recommendation is None:
            continue
        curve = r.recommendation.curve
        deviation = r.privacy.base_deviation
        rows = [
            (
                grid.speeds[j],
                curve[j],
                from_fixed(curve[j]),
                from_fixed(curve[j]) - deviation[j],
                deviation[j],
            )
            for j in range(grid.m)
        ]
        written.append(
            _write_csv(
                outdir / f"round{r.index:03d}_aggregate.csv",
                ("speed_kmh", "aggregate_fixed", "aggregate_real", "true_total", "deviation"),
                rows,
            )
        )
        vids = list(r.active_ids)
        error_rows = np.column_stack(
            [grid.speeds, *(r.privacy.local_error[v] for v in vids)]
        ).tolist()
        written.append(
            _write_csv(
                outdir / f"round{r.index:03d}_local_error.csv",
                ("speed_kmh", *(f"error_{v}" for v in vids)),
                error_rows,
            )
        )
    if report.baseline is not None:
        written.extend(write_baseline_outputs(report.baseline, outdir))
    return written


def write_sweep_outputs(
    report_dict: dict, points: Sequence[SweepPoint], outdir: Path
) -> list[Path]:
    """Write summary.json and accuracy_sweep.csv.

    The sweep rows go through ``csv.writer`` itself: it writes an accuracy of
    None as an empty cell, and a float as its ``repr``, as :func:`_write_csv` does.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    summary = write_summary(report_dict, outdir)
    path = outdir / "accuracy_sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("m", "recommended_speed_kmh", "accuracy"))
        writer.writerows((p.m, p.recommended_speed, p.accuracy) for p in points)
    return [summary, path]


def write_baseline_outputs(comparison: BaselineComparison, outdir: Path) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    result = comparison.dp_result
    rows = [
        (k, result.residuals[k], *state)
        for k, state in enumerate(result.trajectory)
    ]
    path = _write_csv(
        outdir / "baseline_trace.csv",
        ("iteration", "gradient_residual", *(f"speed_{v}" for v in comparison.fleet_ids)),
        rows,
    )
    return [path]
