"""Command-line interface.

Subcommands:

* ``run``               — execute a scenario config, write CSVs + summary.json
* ``sweep-m``           — rerun one scenario at several grid sizes
* ``compare-baseline``  — one-shot protocol vs. iterative consensus baseline
* ``reproduce-paper``   — run the three bundled reference scenarios

Output directory resolution: ``--out`` flag, else the ``SPEEDSHARE_OUT``
environment variable, else ``./out``.  Exit codes: 0 success, 2 usage error,
3 configuration error, 4 protocol/round failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import BaselineInapplicableError, ConfigError, EncodingError, ProtocolError
from .harness import ScenarioConfig, SweepPoint, compare_baseline, run_scenario, sweep_m
from .reports import (
    write_baseline_outputs,
    write_scenario_outputs,
    write_summary,
    write_sweep_outputs,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PROTOCOL = 4

BUNDLED_CASES = ("case1", "case2", "case3")

#: Grid sizes swept by ``reproduce-paper`` for the bundled case3 scenario.
CASE3_SWEEP = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("SPEEDSHARE_OUT")
    if env:
        return Path(env)
    return Path("out")


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def parse_m_list(text: str) -> list[int]:
    """Parse a grid-size list like ``10,20,30`` or ``10,20,...,100``.

    An ellipsis continues the arithmetic progression established by the two
    preceding values, up to the value that follows it.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--m needs at least one grid size")
    values: list[int] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token in ("...", ".."):
            if len(values) < 2 or i + 1 >= len(tokens):
                raise ConfigError(
                    "'...' needs two values before it and one after, e.g. 10,20,...,100"
                )
            step = values[-1] - values[-2]
            stop = int(tokens[i + 1])
            if step <= 0 or stop <= values[-1]:
                raise ConfigError(f"cannot expand '...' from {values[-2]},{values[-1]} to {stop}")
            nxt = values[-1] + step
            while nxt <= stop:
                values.append(nxt)
                nxt += step
            i += 2
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise ConfigError(f"bad grid size {token!r} in --m") from None
            i += 1
    return values


def _score(accuracy: float | None) -> str:
    """An accuracy as printed; ``n/a`` when there is none to score (see ``harness._accuracy``)."""
    return "n/a" if accuracy is None else f"{accuracy:.6f}"


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_scenario(config, with_baseline=args.baseline)
    outdir = _out_dir(args)
    write_scenario_outputs(report, outdir)
    for r in report.rounds:
        if r.failure is not None:
            print(f"round {r.index}: FAILED ({r.failure})")
        else:
            print(
                f"round {r.index}: recommend {r.recommendation.speed:.2f} km/h "
                f"(accuracy {_score(r.accuracy)}, {r.traffic.total} bytes)"
            )
    print(f"outputs written to {outdir}")
    return EXIT_PROTOCOL if report.failed_rounds else EXIT_OK


def _sweep_summary(config: ScenarioConfig, points: Sequence[SweepPoint]) -> dict:
    return {
        "config": config.to_dict(),
        "sweep": [
            {"m": p.m, "recommended_speed_kmh": p.recommended_speed, "accuracy": p.accuracy}
            for p in points
        ],
    }


def _cmd_sweep_m(args: argparse.Namespace) -> int:
    config = _load_config(args)
    m_values = parse_m_list(args.m)
    points = sweep_m(config, m_values)
    outdir = _out_dir(args)
    write_sweep_outputs(_sweep_summary(config, points), points, outdir)
    for p in points:
        print(f"m={p.m}: recommend {p.recommended_speed:.2f} km/h (accuracy {_score(p.accuracy)})")
    print(f"outputs written to {outdir}")
    return EXIT_OK


def _cmd_compare_baseline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    comparison = compare_baseline(config)
    outdir = _out_dir(args)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": config.to_dict(),
        "oracle_speed_kmh": comparison.oracle_speed,
        "protocol": {
            "speed_kmh": comparison.protocol_speed,
            "gap_kmh": comparison.protocol_gap_kmh,
            "rounds": comparison.protocol_rounds,
            "messages": comparison.protocol_messages,
        },
        "baseline": {
            "speed_kmh": comparison.dp_speed,
            "gap_kmh": comparison.dp_gap_kmh,
            "iterations": comparison.dp_iterations,
            "converged": comparison.dp_converged,
        },
    }
    write_summary(summary, outdir)
    write_baseline_outputs(comparison, outdir)
    print(
        f"protocol: {comparison.protocol_speed:.2f} km/h in {comparison.protocol_rounds} round; "
        f"baseline: {comparison.dp_speed:.2f} km/h in {comparison.dp_iterations} iterations "
        f"(converged={comparison.dp_converged})"
    )
    print(f"outputs written to {outdir}")
    return EXIT_OK


def bundled_config_path(name: str):
    return resources.files("speedshare").joinpath(f"data/{name}.yaml")


def _cmd_reproduce(args: argparse.Namespace) -> int:
    outdir = _out_dir(args)
    failures = 0
    for name in ("case1", "case2"):
        config = ScenarioConfig.from_file(bundled_config_path(name))
        report = run_scenario(config)
        write_scenario_outputs(report, outdir / name)
        r = report.rounds[0]
        if r.failure is not None:
            print(f"{name}: FAILED ({r.failure})")
            failures += 1
        else:
            print(f"{name}: recommend {r.recommendation.speed:.2f} km/h (accuracy {r.accuracy:.6f})")
    config = ScenarioConfig.from_file(bundled_config_path("case3"))
    points = sweep_m(config, CASE3_SWEEP)
    write_sweep_outputs(_sweep_summary(config, points), points, outdir / "case3")
    worst = min(p.accuracy for p in points)
    print(f"case3: swept m={list(CASE3_SWEEP)}, worst accuracy {worst:.6f}")
    print(f"outputs written to {outdir}")
    return EXIT_PROTOCOL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speedshare",
        description="Privacy-preserving fleet speed advisories over secret-shared cost tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="scenario config file (YAML/JSON)")
        p.add_argument("--out", help="output directory (default: $SPEEDSHARE_OUT or ./out)")
        p.add_argument("--seed", type=int, help="override the config's seed")

    p_run = sub.add_parser("run", help="run a scenario and write per-round reports")
    add_common(p_run)
    p_run.add_argument(
        "--baseline", action="store_true", help="also run the iterative baseline comparison"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-m", help="rerun a scenario across grid sizes")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--m", required=True, help="grid sizes, e.g. 10,20,30 or 10,20,...,100"
    )
    p_sweep.set_defaults(func=_cmd_sweep_m)

    p_cmp = sub.add_parser(
        "compare-baseline", help="one protocol round vs. the iterative consensus baseline"
    )
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare_baseline)

    p_rep = sub.add_parser(
        "reproduce-paper", help="run the bundled reference scenarios (case1, case2, case3)"
    )
    p_rep.add_argument("--out", help="output directory (default: $SPEEDSHARE_OUT or ./out)")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BaselineInapplicableError as exc:
        print(f"baseline not applicable: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except EncodingError as exc:
        print(f"encoding error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
