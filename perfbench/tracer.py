"""Per-module spans and counters, recorded from outside the program.

The tracer replaces public ``speedshare`` functions with wrappers in the
module namespace where their caller looks them up (for example
``speedshare.harness.privacy_report``, which ``run_scenario`` calls), so no
program file changes.  A *span* target records (name, start, end, parent,
job) in memory; a *count* target only bumps counters, because it runs once
per vehicle per grid point and a span each would dwarf the work it measures.
Its time lands in the self time of the span that called it.

A target that no longer exists is recorded as absent, and the metrics that
only it feeds are left out instead of failing the run.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np

#: Span name -> layer whose self time it counts towards.
LAYER = {
    "job": "harness",
    "run_scenario": "harness",
    "compare_baseline": "harness",
    "from_file": "config_load",
    "execute_round": "protocol",
    "prepare_round": "protocol",
    "aggregate_local": "protocol",
    "base_station_aggregate": "protocol",
    "select_best": "protocol",
    "encode": "wire",
    "privacy_report": "metrics",
    "traffic_report": "metrics",
    "brute_force_optimum": "oracle",
    "graph": "graph",
    "run_dp": "baseline",
    "dp_step": "baseline",
    "mu_upper_bound": "baseline",
    "write": "reports",
}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str | None  # None: count only
    hook: str | None = None  # Tracer method called with (args, result)


TARGETS = (
    Target("speedshare.cli", "ScenarioConfig.from_file", "from_file"),
    Target("speedshare.cli", "run_scenario", "run_scenario"),
    Target("speedshare.cli", "compare_baseline", "compare_baseline"),
    Target("speedshare.cli", "write_scenario_outputs", "write", "_written"),
    Target("speedshare.cli", "write_summary", "write", "_written"),
    Target("speedshare.cli", "write_baseline_outputs", "write", "_written"),
    Target("speedshare.harness", "execute_round", "execute_round"),
    Target("speedshare.harness", "privacy_report", "privacy_report"),
    Target("speedshare.harness", "traffic_report", "traffic_report"),
    Target("speedshare.harness", "brute_force_optimum", "brute_force_optimum", "_scanned"),
    Target("speedshare.harness", "ring_over", "graph", "_edges"),
    Target("speedshare.harness", "switching_graph", "graph", "_edges"),
    Target("speedshare.harness", "generate_switching_sequence", "graph", "_edges"),
    Target("speedshare.harness", "attach_dummy_vehicle", "graph", "_edges"),
    Target("speedshare.harness", "run_dp", "run_dp"),
    Target("speedshare.harness", "mu_upper_bound", "mu_upper_bound"),
    Target("speedshare.protocol", "prepare_round", "prepare_round", "_sent"),
    Target("speedshare.protocol", "split_shares", None, "_drawn"),
    Target("speedshare.protocol", "aggregate_local", "aggregate_local"),
    Target("speedshare.protocol", "base_station_aggregate", "base_station_aggregate"),
    Target("speedshare.protocol", "select_best", "select_best"),
    Target("speedshare.metrics", "encode_share_message", "encode", "_encoded"),
    Target("speedshare.metrics", "encode_aggregated_table", "encode", "_encoded"),
    Target("speedshare.metrics", "encode_recommendation", "encode", "_encoded"),
    Target("speedshare.emissions", "emission_rate", None, "_evaluated"),
    Target("speedshare.baseline", "emission_derivative", None, "_evaluated"),
    Target("speedshare.baseline", "dp_step", "dp_step"),
)

_EMISSIONS = ("emission_rate", "emission_derivative")
_ENCODERS = ("encode_share_message", "encode_aggregated_table", "encode_recommendation")
_GRAPHS = ("ring_over", "switching_graph", "generate_switching_sequence", "attach_dummy_vehicle")
_WRITERS = ("write_scenario_outputs", "write_summary", "write_baseline_outputs")

#: Per-layer metric -> (unit, targets that feed it).  A metric whose targets
#: are all absent is left out of the results; one with none is always there.
METRICS = {
    "harness.self_s": ("s", ()),
    "harness.config_load_s": ("s", ("ScenarioConfig.from_file",)),
    "emissions.calls": ("count", _EMISSIONS),
    "emissions.points_per_call": ("count", _EMISSIONS),
    "protocol.prepare_s": ("s", ("prepare_round",)),
    "protocol.share_draws": ("count", ("split_shares",)),
    "protocol.aggregate_local_s": ("s", ("aggregate_local",)),
    "protocol.base_station_s": ("s", ("base_station_aggregate", "select_best")),
    "protocol.execute_round_self_s": ("s", ("execute_round",)),
    "protocol.messages": ("count", ("prepare_round",)),
    "wire.encode_s": ("s", _ENCODERS),
    "wire.bytes_encoded": ("B", _ENCODERS),
    "metrics.privacy_s": ("s", ("privacy_report",)),
    "metrics.traffic_s": ("s", ("traffic_report",)),
    "metrics.cost_evals": ("count", ("privacy_report",)),
    "oracle.s": ("s", ("brute_force_optimum",)),
    "oracle.calls": ("count", ("brute_force_optimum",)),
    "oracle.points": ("count", ("brute_force_optimum",)),
    "graph.build_s": ("s", _GRAPHS),
    "graph.edges_built": ("count", _GRAPHS),
    "baseline.run_dp_s": ("s", ("run_dp",)),
    "baseline.step_s": ("s", ("dp_step",)),
    "baseline.iterations": ("count", ("dp_step",)),
    "baseline.mu_bound_s": ("s", ("mu_upper_bound",)),
    "reports.write_s": ("s", _WRITERS),
    "reports.bytes_written": ("B", _WRITERS),
    "trace.overhead_s": ("s", ()),
}


#: Time outside the root span that a traced job may spend installing and
#: removing the wrappers.
INSTALL_SLACK_S = 0.005


class Tracer:
    """Installs the wrappers around one job at a time and keeps what they saw."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, job)
        self.counts: dict[int, dict[str, float]] = {}
        self._tally: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._job = -1

    # -- installation -------------------------------------------------------

    def run(self, job: int, fn: Callable[[], int]) -> int:
        """Call ``fn`` as traced job ``job``, under a root span named ``job``."""
        self._job = job
        self._tally = self.counts[job] = defaultdict(float)
        self._install()
        try:
            return self._wrap(fn, "job")()
        finally:
            self._uninstall()

    def _install(self) -> None:
        absent = []
        for t in TARGETS:
            owner = import_module(t.module)
            *path, name = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # Read from __dict__, so a classmethod stays a classmethod.
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                absent.append(t.attr)
                continue
            hook = getattr(self, t.hook) if t.hook else None
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, t.span, hook))
            elif t.span is None:
                wrapped = self._count(original, hook)
            else:
                wrapped = self._wrap(original, t.span, hook)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)
        self.absent = absent

    def _uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, span: str, hook=None):
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            is_open[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                is_open[span] -= 1
                spans[index] = (span, start, end, parent, self._job)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return counted

    # -- counter hooks (args, result) ----------------------------------------

    def _add(self, name: str, value: float) -> None:
        self._tally[name] += value

    def _evaluated(self, args, result) -> None:
        if self._open["brute_force_optimum"]:
            return  # the scan is counted as oracle.points
        speed = args[1]
        n = 1 if speed.__class__ is float else int(np.size(speed))
        tally = self._tally
        tally["emissions.calls"] += 1
        tally["emissions.points"] += n
        if self._open["privacy_report"]:
            tally["metrics.cost_evals"] += n

    def _drawn(self, args, result) -> None:
        self._add("protocol.share_draws", len(result) - 1)

    def _sent(self, args, result) -> None:
        self._add("protocol.messages", len(result[1]))

    def _encoded(self, args, result) -> None:
        self._add("wire.bytes_encoded", len(result))

    def _scanned(self, args, result) -> None:
        # The scan covers every multiple of the resolution inside [lo, hi].
        step = result.resolution
        points = math.floor(result.hi / step + 1e-9) - math.ceil(result.lo / step - 1e-9) + 1
        self._add("oracle.calls", 1)
        self._add("oracle.points", points)

    def _edges(self, args, result) -> None:
        graphs = getattr(result, "graphs", (result,))
        self._add("graph.edges_built", sum(len(g.edges) for g in graphs))

    def _written(self, args, result) -> None:
        paths = result if isinstance(result, list) else [result]
        self._add("reports.bytes_written", sum(Path(p).stat().st_size for p in paths))

    # -- analysis -----------------------------------------------------------

    def job_breakdown(self, job: int) -> dict[str, float]:
        """Per-layer self times (s) and per-metric values of one traced job."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == job]
        child_ns: dict[int, int] = defaultdict(int)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in spans:
            self_ns[name] += end - start - child_ns[i]
            total_ns[name] += end - start
        layer_self: dict[str, int] = defaultdict(int)
        for name, ns in self_ns.items():
            layer_self[LAYER[name]] += ns
        # The self times add up to the root span by construction.
        root_ns = sum(end - start for _, (name, start, end, parent, _) in spans if parent < 0)

        def s(*names):
            return sum(total_ns[n] for n in names) / 1e9

        counts = self.counts[job]
        count = lambda name: counts.get(name, 0.0)  # noqa: E731
        calls = count("emissions.calls")
        return {
            "job_s": root_ns / 1e9,
            **{f"self.{layer}": ns / 1e9 for layer, ns in layer_self.items()},
            "harness.self_s": layer_self["harness"] / 1e9,
            "harness.config_load_s": s("from_file"),
            "emissions.calls": calls,
            "emissions.points_per_call": count("emissions.points") / calls if calls else 0.0,
            "protocol.prepare_s": s("prepare_round"),
            "protocol.share_draws": count("protocol.share_draws"),
            "protocol.aggregate_local_s": s("aggregate_local"),
            "protocol.base_station_s": s("base_station_aggregate", "select_best"),
            "protocol.execute_round_self_s": self_ns["execute_round"] / 1e9,
            "protocol.messages": count("protocol.messages"),
            "wire.encode_s": s("encode"),
            "wire.bytes_encoded": count("wire.bytes_encoded"),
            "metrics.privacy_s": s("privacy_report"),
            "metrics.traffic_s": s("traffic_report"),
            "metrics.cost_evals": count("metrics.cost_evals"),
            "oracle.s": s("brute_force_optimum"),
            "oracle.calls": count("oracle.calls"),
            "oracle.points": count("oracle.points"),
            "graph.build_s": s("graph"),
            "graph.edges_built": count("graph.edges_built"),
            "baseline.run_dp_s": s("run_dp"),
            "baseline.step_s": s("dp_step"),
            "baseline.iterations": float(sum(1 for _, sp in spans if sp[0] == "dp_step")),
            "baseline.mu_bound_s": s("mu_upper_bound"),
            "reports.write_s": s("write"),
            "reports.bytes_written": count("reports.bytes_written"),
        }

    def summarise(
        self, jobs: list[tuple[int, float]], untraced_s: list[float]
    ) -> tuple[dict[str, float], list[str]]:
        """Median of each per-job value over the traced jobs, plus the tracing overhead.

        ``jobs`` holds (job, wall seconds measured around the traced call).
        The root span must cover that wall time, up to the cost of installing
        the wrappers; the mismatches are returned beside the values.
        """
        per_job, errors = [], []
        for job, wall_s in jobs:
            breakdown = self.job_breakdown(job)
            gap = wall_s - breakdown["job_s"]
            if not 0 <= gap <= INSTALL_SLACK_S + 0.01 * wall_s:
                errors.append(
                    f"traced job {job}: spans cover {breakdown['job_s']:.4f} s "
                    f"of {wall_s:.4f} s measured"
                )
            per_job.append(breakdown)
        keys = {key for b in per_job for key in b}
        out = {key: statistics.median(b.get(key, 0.0) for b in per_job) for key in keys}
        out["trace.overhead_s"] = out["job_s"] - statistics.median(untraced_s)
        out["uncovered_s"] = statistics.median(w - b["job_s"] for (_, w), b in zip(jobs, per_job))
        return out, errors

    def present(self, metric: str) -> bool:
        sources = METRICS[metric][1]
        return not sources or any(src not in self.absent for src in sources)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
