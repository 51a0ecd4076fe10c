"""Benchmark for the speedshare CLI: seeded workloads, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-churn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each job is one in-process call of
``speedshare.cli.main`` on a generated config, timed from the call to its
return (config load, rounds, measurements and output files).  Jobs cycle
through the workload's configs until ``--seconds`` of job time have been
measured.  Every job's outputs are then checked against an independent
reference, outside the timed region.  The reported times are rescaled by a
calibration kernel timed around each interval (see ``calibration.py``), so
that the shared host's speed swings do not show as program changes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs on the same config and reports the per-layer
metrics of the traced ones (see ``tracer.py``) plus the tracing overhead.
The last line of standard output is the JSON result; ``--workload all``
runs every workload in its own process and exits non-zero if any failed.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS starts with a single thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import Calibration  # noqa: E402
from reference import (  # noqa: E402
    JobOutcome,
    Reference,
    check_compare,
    check_run,
    compare_trees,
    wire_errors,
)
from tracer import METRICS, Tracer  # noqa: E402
from workloads import LO, HI, WORKLOADS, Workload, generate, write_configs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Set-up is repeated and its median reported, so one slow import does not show.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "round_success_ratio": "ratio",
    "wire_bytes_per_round": "B",
    "accuracy_min": "ratio",
}


def import_program():
    """Import ``speedshare`` afresh from this checkout's ``src/``, never from elsewhere."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "speedshare"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("speedshare.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"speedshare was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: Workload, seed: int, workdir: Path):
    """Import the program, generate the configs and load each; returns (seconds, ...)."""
    start = time.perf_counter()
    cli = import_program()
    raws = generate(workload, seed)
    paths = write_configs(raws, workdir / "configs")
    loaded = [cli.ScenarioConfig.from_file(p) for p in paths]
    return time.perf_counter() - start, cli, raws, paths, loaded


def run_job(cli, argv: list[str], tracer: Tracer | None, job: int) -> tuple[int | None, float, str]:
    """One CLI call; returns (exit code, wall seconds, error).  Its printing is discarded.

    An exception that escapes ``cli.main`` is a failed job: the exit code is
    None and the error names the exception.
    """
    gc.collect()
    sink = io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run(job, lambda: cli.main(argv))
        except Exception as exc:  # noqa: BLE001 - any escape is a failed job
            error = f"the CLI raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, seconds, error


class TranscriptRecorder:
    """Keeps the transcript of each protocol round ``speedshare.harness`` runs.

    ``compare-baseline`` reports its protocol round's message count but not
    its bytes, so this pass-through wrapper keeps the round's transcript and
    the program's own ``traffic_report`` counts its bytes, outside the timed
    region.  It is one extra call per round.
    """

    def __init__(self) -> None:
        harness = sys.modules["speedshare.harness"]
        execute_round = harness.execute_round
        self.transcripts: list = []

        def recorded(*args, **kwargs):
            transcript = execute_round(*args, **kwargs)
            self.transcripts.append(transcript)
            return transcript

        harness.execute_round = recorded

    def count_bytes(self, outcome: JobOutcome, m: int) -> None:
        """Add the last round's bytes to a checked job's outcome; forget the transcripts."""
        if not self.transcripts:
            outcome.errors.append("no protocol round went through speedshare.harness.execute_round")
            return
        traffic = sys.modules["speedshare.metrics"].traffic_report(self.transcripts[-1])
        self.transcripts.clear()
        outcome.bytes_per_round.append(traffic.total)
        outcome.errors += wire_errors(
            m, traffic.total, traffic.message_count, traffic.upload_count, "protocol round"
        )
        if traffic.message_count != outcome.messages_per_round[0]:
            outcome.errors.append("protocol round: summary and transcript differ in messages")


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[dict, dict, list[str]]:
    """Run one workload; returns (result, info, errors)."""
    # Set-up is repeated in one block and its median reported; the program
    # imported last is the one every job runs.
    calibration = Calibration()
    setup_walls, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        dt, cli, raws, paths, loaded = setup(workload, seed, workdir)
        setup_walls.append(dt)
        setup_times.append(calibration.rescale(dt))
    recorder = TranscriptRecorder() if workload.command == "compare-baseline" else None
    vehicle_class = sys.modules["speedshare.emissions"].VehicleClass
    class_factors = {c.name: dataclasses.asdict(c.factors) for c in vehicle_class}
    refs = [Reference(raw, class_factors) for raw in raws]
    check = check_run if workload.command == "run" else check_compare

    def argv(c: int, outdir: Path) -> list[str]:
        return [workload.command, "--config", str(paths[c]), "--out", str(outdir)]

    # Untimed warm-up; its files are compared with the first timed job's.
    warm = workdir / "warm"
    code, _, error = run_job(cli, argv(0, warm), None, -1)
    errors = [f"warm-up job: {e}" for e in [error, *check(refs[0], warm, code).errors] if e]
    calibration.start()

    tracer = Tracer() if trace else None
    accuracy_cache: dict[tuple[int, float], float] = {}
    untraced, traced, outcomes = [], [], []
    measured, i = 0.0, 0
    while measured < seconds or i == 0 or (trace and i % 2):
        # With tracing, each config runs untraced and then traced.
        c = (i // 2 if trace else i) % len(paths)
        traced_job = trace and i % 2 == 1
        outdir = workdir / f"job{i}"
        code, dt, error = run_job(cli, argv(c, outdir), tracer if traced_job else None, i)
        scaled = calibration.rescale(dt)
        measured += dt
        outcome = check(refs[c], outdir, code)
        if error:
            outcome.errors.insert(0, error)
        if recorder is not None and code == 0:
            recorder.count_bytes(outcome, workload.grid_m)
        if outcome.protocol_speed is not None:
            key = (c, outcome.protocol_speed)
            if key not in accuracy_cache:
                oracle = sys.modules["speedshare.oracle"]
                fleet = list(loaded[c].vehicles)
                best = oracle.brute_force_optimum(fleet, LO, HI)
                accuracy_cache[key] = oracle.accuracy(outcome.protocol_speed, fleet, best)
            outcome.accuracies.append(accuracy_cache[key])
        if i == 0:
            outcome.errors += compare_trees(warm, outdir)
        errors += [f"job {i} (config {c}): {e}" for e in outcome.errors]
        outcomes.append(outcome)
        if traced_job:
            traced.append((i, dt))
        else:
            untraced.append((dt, scaled, outcome.rounds))
        shutil.rmtree(outdir, ignore_errors=True)
        i += 1

    attempted = sum(o.rounds for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    messages = [n for o in outcomes for n in o.messages_per_round]
    iterations = [o.baseline_iterations for o in outcomes if o.baseline_iterations is not None]
    times = [dt for dt, _, _ in untraced]
    scaled_times = [scaled for _, scaled, _ in untraced]
    info = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **{var: os.environ[var] for var in THREAD_VARS},
        },
        "sizes": {
            "vehicles": workload.vehicles,
            "m": workload.grid_m,
            "rounds": workload.rounds,
            "configs": len(paths),
            "jobs": i,
            "messages_per_round": statistics.mean(messages) if messages else 0,
            "baseline_iterations": statistics.median(iterations) if iterations else 0,
        },
        # Reported beside the bound-checked metrics: wall times move with the
        # host's speed swings, and a ratio that is normally 0 has no relative bound.
        "wall_job_s_p50": {"value": statistics.median(times), "unit": "s"},
        "wall_setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "failed_round_ratio": {"value": failed / attempted, "unit": "ratio"},
        "calibration_piece_ms": [round(1000 * t, 2) for t in calibration.probes],
        "wall_job_s": [round(t, 4) for t in times],
        "wall_setup_s_each": [round(t, 4) for t in setup_walls],
    }
    if trace:
        layers, trace_errors = tracer.summarise(traced, times)
        errors += trace_errors
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _) in METRICS.items()
            if tracer.present(name)
        }
        info["absent"] = [name for name in METRICS if not tracer.present(name)]
        info["traced_job_s"] = layers["job_s"]
        info["uncovered_s"] = layers["uncovered_s"]
        info["self_s_by_layer"] = {k[5:]: v for k, v in layers.items() if k.startswith("self.")}
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.csv")
    else:
        ok_bytes = [b for o in outcomes for b in o.bytes_per_round]
        values = {
            "setup_s": statistics.median(setup_times),
            "job_s_p50": statistics.median(scaled_times),
            "rounds_per_s": statistics.median(r / scaled for _, scaled, r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round_success_ratio": 1 - failed / attempted,
            "wire_bytes_per_round": statistics.mean(ok_bytes) if ok_bytes else 0.0,
            "accuracy_min": min((a for o in outcomes for a in o.accuracies), default=0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info, errors


def print_table(result: dict, info: dict, indent: str = "") -> None:
    extra = ("wall_job_s_p50", "wall_setup_s", "failed_round_ratio")
    rows = {**result["metrics"], **{k: info[k] for k in extra}}
    for name, entry in rows.items():
        print(f"{indent}{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"{indent}{'jobs':32s} {len(info['wall_job_s'])}")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own); a table of every metric."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        results[name] = result
        counts = {key: result[key] for key in ("correct", "attempted", "failed")}
        print(name + ": " + " ".join(f"{key}={value}" for key, value in counts.items()))
        print_table(result, json.loads(lines[0]), "  ")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        result, info, errors = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(info))
    print_table(result, info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
