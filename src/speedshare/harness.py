"""Scenario configuration and multi-round simulation driver.

A scenario is a fleet (built-in classes and/or custom vehicles), a topology
rule (static ring, random switching, or explicit edges), a speed grid, masking
parameters, a share bound, and optional membership events that add/remove
vehicles between rounds.  A config that cannot run is refused when it loads,
with a ``ConfigError`` naming the field.

``run_scenario`` executes the rounds and measures privacy/traffic/accuracy
per round, ``sweep_m`` replays one round at several grid sizes, and
``compare_baseline`` sets one round against the iterative baseline.  All
three play their rounds through ``_play_round``, which builds the round
graph (attaching a dummy participant wherever a vehicle would otherwise have
nobody to split its table with), seeds the shares from the caller's label
and runs the protocol.  ``_dense_optimum`` is the one rule for the dense
oracle that recommendations are scored against.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .baseline import DpConfig, DpResult, _require_factors, mu_upper_bound, run_dp
from .emissions import EmissionFactors, SpeedGrid, Vehicle, VehicleClass, build_speed_grid
from .errors import ConfigError, DomainError, EncodingError, ProtocolError
from .graph import (
    CommGraph,
    GraphSequence,
    generate_switching_sequence,
    ring_over,
    switching_graph,
    validate_privacy_precondition,
)
from .metrics import PrivacyReport, TrafficReport, privacy_report, traffic_report
from .oracle import OracleResult, brute_force_optimum, scan_multiples
from .protocol import MaskingParams, Recommendation, RoundTranscript, execute_round

#: Vertex id of the base-station-resident relay that keeps lone vehicles private.
DUMMY_ID = "__dummy__"

_TOPOLOGY_KINDS = ("ring", "switching", "explicit")

#: Largest share bound: each share is drawn from [-bound, bound] and travels as an int32.
_MAX_SHARE_BOUND = 2**31 - 1

#: libyaml's safe loader when PyYAML was built with it, else the pure-Python one.  Both
#: resolve scalars with the same Python resolver, so a config loads to the same values.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass(frozen=True)
class MembershipEvent:
    """Vehicles joining/leaving immediately before the given round executes."""

    round: int
    join: tuple[str, ...] = ()
    leave: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    vehicles: tuple[Vehicle, ...]
    topology_kind: str = "ring"
    window: int = 5
    extra_edge_prob: float = 0.1
    explicit_edges: tuple[tuple[str, str], ...] = ()
    grid_m: int = 100
    grid_lo: float = 5.0
    grid_hi: float = 140.0
    masking: MaskingParams = field(default_factory=MaskingParams.identity)
    share_bound: int = 10**8
    seed: int = 0
    rounds: int = 1
    membership: tuple[MembershipEvent, ...] = ()
    initially_inactive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ids = [v.vehicle_id for v in self.vehicles]
        if not ids:
            raise ConfigError("scenario fleet is empty")
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate vehicle ids in fleet")
        if DUMMY_ID in ids:
            raise ConfigError(f"vehicle id {DUMMY_ID!r} is reserved for the dummy participant")
        if self.topology_kind not in _TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology kind {self.topology_kind!r}, expected one of {_TOPOLOGY_KINDS}"
            )
        if self.topology_kind == "explicit" and not self.explicit_edges:
            raise ConfigError("explicit topology requires at least one edge")
        known = set(ids)
        for u, v in self.explicit_edges:
            if u not in known or v not in known:
                raise ConfigError(f"explicit edge ({u!r}, {v!r}) references an unknown vehicle")
        if self.share_bound <= 0:
            raise ConfigError(f"share_bound must be positive, got {self.share_bound}")
        if self.share_bound > _MAX_SHARE_BOUND:
            raise ConfigError(
                f"share_bound must be at most {_MAX_SHARE_BOUND}, got {self.share_bound}"
            )
        if self.topology_kind == "switching" and self.window < 1:
            raise ConfigError(f"topology.window must be >= 1, got {self.window}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        for vid in self.initially_inactive:
            if vid not in known:
                raise ConfigError(f"initially_inactive references unknown vehicle {vid!r}")
        # Replay the schedule as run_scenario applies it, so a bad one fails at load.
        active = known - set(self.initially_inactive)
        for event in sorted(self.membership, key=lambda e: e.round):
            if event.round < 0:
                raise ConfigError(f"membership event round must be >= 0, got {event.round}")
            for vid in (*event.join, *event.leave):
                if vid not in known:
                    raise ConfigError(f"membership event references unknown vehicle {vid!r}")
            if event.round >= self.rounds:
                raise ConfigError(
                    f"membership event round {event.round} must be below rounds ({self.rounds})"
                )
            for vid in event.leave:
                if vid not in active:
                    raise ConfigError(
                        f"round {event.round}: cannot remove {vid!r}, vehicle is not active"
                    )
                active.remove(vid)
            for vid in event.join:
                if vid in active:
                    raise ConfigError(
                        f"round {event.round}: cannot add {vid!r}, vehicle is already active"
                    )
                active.add(vid)
        # Validate the grid eagerly so a bad config fails at load, not mid-run.
        for name, value in (("grid.lo", self.grid_lo), ("grid.hi", self.grid_hi)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        speeds = np.asarray(build_speed_grid(self.grid_m, self.grid_lo, self.grid_hi).speeds)
        try:
            scan_multiples(self.grid_lo, self.grid_hi)
        except ConfigError as exc:
            raise ConfigError(f"grid.lo/grid.hi: {exc}") from None
        for v in self.vehicles:
            if v.cost_table is not None:
                try:
                    v.cost(speeds)
                except DomainError as exc:
                    raise ConfigError(f"{exc}: a table needs a cost at every grid speed") from None

    @property
    def vehicle_ids(self) -> tuple[str, ...]:
        return tuple(sorted(v.vehicle_id for v in self.vehicles))

    def grid(self) -> SpeedGrid:
        return build_speed_grid(self.grid_m, self.grid_lo, self.grid_hi)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
        allowed = {
            "fleet", "topology", "grid", "masking", "share_bound",
            "seed", "rounds", "membership", "initially_inactive",
        }
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        vehicles = _parse_fleet(raw.get("fleet"))
        topo = raw.get("topology") or {}
        if not isinstance(topo, Mapping):
            raise ConfigError("topology must be a mapping")
        grid = raw.get("grid") or {}
        if not isinstance(grid, Mapping):
            raise ConfigError("grid must be a mapping")
        masking_raw = raw.get("masking") or {}
        if not isinstance(masking_raw, Mapping):
            raise ConfigError("masking must be a mapping")
        return cls(
            vehicles=vehicles,
            topology_kind=str(topo.get("kind", "ring")),
            window=_integer("topology.window", topo.get("window", 5)),
            extra_edge_prob=_finite("topology.extra_edge_prob", topo.get("extra_edge_prob", 0.1)),
            explicit_edges=_parse_edges(topo.get("edges") or []),
            grid_m=_integer("grid.m", grid.get("m", 100)),
            grid_lo=_finite("grid.lo", grid.get("lo", 5.0)),
            grid_hi=_finite("grid.hi", grid.get("hi", 140.0)),
            masking=MaskingParams(
                a=_finite("masking.a", masking_raw.get("a", 1.0)),
                b=_finite("masking.b", masking_raw.get("b", 0.0)),
            ),
            share_bound=_integer("share_bound", raw.get("share_bound", 10**8)),
            seed=_integer("seed", raw.get("seed", 0)),
            rounds=_integer("rounds", raw.get("rounds", 1)),
            membership=_parse_membership(raw.get("membership") or []),
            initially_inactive=_id_list("initially_inactive", raw.get("initially_inactive")),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if raw is None:
            raise ConfigError(f"config {path} is empty")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        fleet: dict = {"vehicles": []}
        for v in sorted(self.vehicles, key=lambda x: x.vehicle_id):
            entry: dict = {"id": v.vehicle_id}
            if v.factors is not None:
                f = v.factors
                entry["factors"] = {
                    "a": f.a, "b": f.b, "c": f.c, "d": f.d,
                    "e": f.e, "f": f.f, "g": f.g, "k": f.k,
                }
            else:
                entry["table"] = {s: c for s, c in v.cost_table}
            fleet["vehicles"].append(entry)
        topo: dict = {"kind": self.topology_kind}
        if self.topology_kind == "switching":
            topo["window"] = self.window
            topo["extra_edge_prob"] = self.extra_edge_prob
        if self.topology_kind == "explicit":
            topo["edges"] = [list(e) for e in self.explicit_edges]
        out = {
            "fleet": fleet,
            "topology": topo,
            "grid": {"m": self.grid_m, "lo": self.grid_lo, "hi": self.grid_hi},
            "masking": {"a": self.masking.a, "b": self.masking.b},
            "share_bound": self.share_bound,
            "seed": self.seed,
            "rounds": self.rounds,
        }
        if self.membership:
            out["membership"] = [
                {"round": e.round, "join": list(e.join), "leave": list(e.leave)}
                for e in self.membership
            ]
        if self.initially_inactive:
            out["initially_inactive"] = list(self.initially_inactive)
        return out


def _parse_fleet(raw) -> tuple[Vehicle, ...]:
    if not raw:
        raise ConfigError("config needs a 'fleet' section")
    if not isinstance(raw, Mapping):
        raise ConfigError("fleet must be a mapping")
    unknown = set(raw) - {"classes", "vehicles"}
    if unknown:
        raise ConfigError(f"unknown fleet keys: {sorted(unknown)}")
    vehicles: list[Vehicle] = []
    classes = raw.get("classes") or {}
    if not isinstance(classes, Mapping):
        raise ConfigError("fleet.classes must map class name -> count")
    for name, count in classes.items():
        try:
            vclass = VehicleClass[str(name)]
        except KeyError:
            valid = ", ".join(c.name for c in VehicleClass)
            raise ConfigError(f"unknown vehicle class {name!r}; valid classes: {valid}") from None
        count = _integer(f"class {name!r} count", count)
        if count < 1:
            raise ConfigError(f"class {name!r} count must be >= 1, got {count}")
        width = len(str(count))
        for i in range(1, count + 1):
            vehicles.append(Vehicle.from_class(f"{vclass.name}-{i:0{width}d}", vclass))
    entries = raw.get("vehicles") or []
    if isinstance(entries, (str, bytes)) or not isinstance(entries, Sequence):
        raise ConfigError(f"fleet.vehicles must be a list of vehicles, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise ConfigError(f"custom vehicle entries need an 'id': {entry!r}")
        vid = str(entry["id"])
        if "factors" in entry:
            vehicles.append(Vehicle(vid, factors=_parse_factors(vid, entry["factors"])))
        elif "table" in entry:
            vehicles.append(Vehicle.from_table(vid, _parse_table(vid, entry["table"])))
        else:
            raise ConfigError(f"vehicle {vid!r} needs either 'factors' or 'table'")
    return tuple(sorted(vehicles, key=lambda v: v.vehicle_id))


_FACTOR_FIELDS = tuple(f.name for f in fields(EmissionFactors))
_REQUIRED_FACTORS = tuple(f.name for f in fields(EmissionFactors) if f.default is MISSING)


def _finite(what: str, value) -> float:
    """``float(value)``, or a ConfigError naming the field ``what``."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {number}")
    return number


def _integer(what: str, value) -> int:
    """``int(value)``, or a ConfigError naming the field ``what``."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _id_list(what: str, raw) -> tuple[str, ...]:
    """A list of vehicle ids (absent: none), or a ConfigError naming the field ``what``."""
    if raw is None:
        return ()
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        raise ConfigError(f"{what} must be a list of vehicle ids, got {raw!r}")
    return tuple(str(v) for v in raw)


def _parse_factors(vid: str, raw) -> EmissionFactors:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"vehicle {vid!r}: factors must be a mapping, got {raw!r}")
    unknown = set(map(str, raw)) - set(_FACTOR_FIELDS)
    if unknown:
        raise ConfigError(
            f"vehicle {vid!r}: unknown factors keys {sorted(unknown)}; "
            f"valid keys: {', '.join(_FACTOR_FIELDS)}"
        )
    missing = [name for name in _REQUIRED_FACTORS if name not in raw]
    if missing:
        raise ConfigError(f"vehicle {vid!r}: factors missing {', '.join(missing)}")
    return EmissionFactors(
        **{str(k): _finite(f"vehicle {vid!r}: factors.{k}", v) for k, v in raw.items()}
    )


def _parse_table(vid: str, raw) -> dict[float, float]:
    if not isinstance(raw, Mapping) or not raw:
        raise ConfigError(f"vehicle {vid!r}: table must map speed -> cost, got {raw!r}")
    return {
        _finite(f"vehicle {vid!r}: table speed {s!r}", s): _finite(
            f"vehicle {vid!r}: table cost at speed {s!r}", c
        )
        for s, c in raw.items()
    }


def _parse_edges(raw) -> tuple[tuple[str, str], ...]:
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        raise ConfigError(f"topology.edges must be a list of [from, to] pairs, got {raw!r}")
    edges = []
    for edge in raw:
        if isinstance(edge, (str, bytes)) or not isinstance(edge, Sequence) or len(edge) != 2:
            raise ConfigError(f"explicit edge {edge!r} must be a [from, to] pair")
        edges.append((str(edge[0]), str(edge[1])))
    return tuple(edges)


def _parse_membership(raw) -> tuple[MembershipEvent, ...]:
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        raise ConfigError("membership must be a list of events")
    events = []
    for entry in raw:
        if not isinstance(entry, Mapping) or "round" not in entry:
            raise ConfigError(f"membership events need a 'round': {entry!r}")
        unknown = set(entry) - {"round", "join", "leave"}
        if unknown:
            raise ConfigError(f"unknown membership event keys: {sorted(unknown)}")
        events.append(
            MembershipEvent(
                round=_integer("membership round", entry["round"]),
                join=_id_list("membership join", entry.get("join")),
                leave=_id_list("membership leave", entry.get("leave")),
            )
        )
    return tuple(sorted(events, key=lambda e: e.round))


def attach_dummy_vehicle(g: CommGraph, weak_vehicle_id) -> CommGraph:
    """Give an out-neighbor-less vehicle someone to split its table with.

    Adds (or reuses) the base-station-resident dummy vertex and an edge from
    the weak vehicle to it.  The dummy contributes zero cost, aggregates what
    it receives and uploads like any participant, so the protocol's sums are
    unchanged.  Attaching to a vehicle that already has out-neighbors is a
    no-op (with a warning), since its shares are already split.
    """
    if weak_vehicle_id not in g:
        raise KeyError(weak_vehicle_id)
    if g.outdegree(weak_vehicle_id) > 0:
        warnings.warn(
            f"vehicle {weak_vehicle_id!r} already has out-neighbors; dummy not attached",
            stacklevel=2,
        )
        return g
    vertices = set(g.vertices) | {DUMMY_ID}
    edges = set(g.edges) | {(weak_vehicle_id, DUMMY_ID)}
    return CommGraph(vertices, edges)


@dataclass(frozen=True)
class RoundReport:
    index: int
    active_ids: tuple[str, ...]
    dummy_ids: tuple[str, ...] = ()
    recommendation: Recommendation | None = None
    accuracy: float | None = None
    oracle: OracleResult | None = None
    privacy: PrivacyReport | None = None
    traffic: TrafficReport | None = None
    failure: str | None = None


@dataclass(frozen=True)
class BaselineComparison:
    oracle_speed: float
    protocol_speed: float
    protocol_gap_kmh: float
    protocol_rounds: int
    protocol_messages: int
    dp_speed: float
    dp_gap_kmh: float
    dp_iterations: int
    dp_converged: bool
    dp_result: DpResult
    fleet_ids: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    rounds: tuple[RoundReport, ...]
    baseline: BaselineComparison | None = None

    @property
    def failed_rounds(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.rounds if r.failure is not None)

    def to_dict(self) -> dict:
        rounds = []
        for r in self.rounds:
            entry: dict = {
                "round": r.index,
                "active": list(r.active_ids),
                "dummies": list(r.dummy_ids),
                "failure": r.failure,
            }
            if r.recommendation is not None:
                entry["recommendation"] = {
                    "index": r.recommendation.best_index,
                    "speed_kmh": r.recommendation.speed,
                }
                # Both null when a table-only vehicle leaves no dense oracle to score against;
                # accuracy alone is null when a total is not positive (see _accuracy).
                entry["oracle"] = (
                    None
                    if r.oracle is None
                    else {"speed_kmh": r.oracle.s_star, "total_cost": r.oracle.f_star}
                )
                entry["accuracy"] = r.accuracy
            if r.traffic is not None:
                entry["traffic"] = {
                    "vehicle_to_vehicle_bytes": r.traffic.vehicle_to_vehicle,
                    "vehicle_to_base_bytes": r.traffic.vehicle_to_base,
                    "broadcast_bytes": r.traffic.broadcast,
                    "total_bytes": r.traffic.total,
                    "messages": r.traffic.message_count,
                    "uploads": r.traffic.upload_count,
                }
            if r.privacy is not None:
                entry["privacy"] = {
                    "max_abs_local_error": _max_abs(list(r.privacy.local_error.values())),
                    "max_abs_base_deviation": _max_abs(r.privacy.base_deviation),
                    "exact_estimates": list(r.privacy.exact_estimates),
                }
            rounds.append(entry)
        out = {"config": self.config.to_dict(), "rounds": rounds}
        if self.baseline is not None:
            b = self.baseline
            out["baseline"] = {
                "oracle_speed_kmh": b.oracle_speed,
                "protocol_speed_kmh": b.protocol_speed,
                "protocol_gap_kmh": b.protocol_gap_kmh,
                "protocol_rounds": b.protocol_rounds,
                "protocol_messages": b.protocol_messages,
                "dp_speed_kmh": b.dp_speed,
                "dp_gap_kmh": b.dp_gap_kmh,
                "dp_iterations": b.dp_iterations,
                "dp_converged": b.dp_converged,
            }
        return out


def _max_abs(values) -> float:
    """Largest magnitude among (nested sequences of) floats, 0.0 when there are none."""
    return float(np.abs(np.array(values, dtype=np.float64)).max(initial=0.0))


def _round_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"speedshare:{seed}:{label}")


def _build_round_graph(config: ScenarioConfig, active: Sequence[str], round_index: int) -> CommGraph:
    active = sorted(active)
    if config.topology_kind == "ring":
        if len(active) >= 2:
            g = ring_over(active)
        else:
            g = CommGraph(active, [])
    elif config.topology_kind == "switching":
        if len(active) >= 2:
            g = switching_graph(
                active, _round_rng(config.seed, f"topology:{round_index}"), config.extra_edge_prob
            )
        else:
            g = CommGraph(active, [])
    else:  # explicit
        present = set(active)
        edges = [(u, v) for u, v in config.explicit_edges if u in present and v in present]
        g = CommGraph(active, edges)
    for weak in validate_privacy_precondition(g):
        g = attach_dummy_vehicle(g, weak)
    return g


def _play_round(
    config: ScenarioConfig,
    ids: Sequence[str],
    grid: SpeedGrid,
    label: str,
    topology_round: int = 0,
) -> tuple[list[Vehicle], RoundTranscript]:
    """One protocol round over the vehicles ``ids``; returns their fleet and the transcript.

    The round graph is the config's topology over ``ids`` as drawn for
    ``topology_round``, with dummies attached.  The shares come from an rng
    seeded by the config's seed and ``label``, so each caller's label fixes
    its rounds' bytes.
    """
    by_id = {v.vehicle_id: v for v in config.vehicles}
    fleet = [by_id[v] for v in ids]
    g = _build_round_graph(config, ids, topology_round)
    rng = _round_rng(config.seed, label)
    return fleet, execute_round(fleet, g, grid, config.masking, rng, config.share_bound)


def _dense_optimum(config: ScenarioConfig, fleet: Sequence[Vehicle]) -> OracleResult | None:
    """The fleet's optimum on a dense scan of the config's speed range.

    None when a table-only vehicle has no cost off its listed speeds, so
    there is no dense optimum to score a recommendation against.
    """
    try:
        return brute_force_optimum(fleet, config.grid_lo, config.grid_hi)
    except DomainError:
        return None


def _accuracy(oracle: OracleResult | None, total: float) -> float | None:
    """Quality of a recommendation: the oracle's optimum cost / ``total``, the cost there.

    ``total`` is the true total the round recorded at its recommendation
    (``transcript.true_total[best_index]``), so no vehicle is evaluated
    again.  None when there is no dense oracle (a fleet with a table-only
    vehicle) or when either total is not positive, because the ratio is then
    no quality score.
    """
    if oracle is None or not (oracle.f_star > 0.0 and total > 0.0):
        return None
    return oracle.f_star / total


def run_scenario(config: ScenarioConfig, with_baseline: bool = False) -> ScenarioReport:
    """Execute every configured round and measure each one.

    Membership events apply immediately before their round; the config
    checked the schedule when it loaded.  A round that violates protocol
    preconditions is recorded as a failure and the scenario continues.
    """
    grid = config.grid()
    active = set(config.vehicle_ids) - set(config.initially_inactive)
    events_by_round: dict[int, list[MembershipEvent]] = {}
    for event in config.membership:
        events_by_round.setdefault(event.round, []).append(event)

    oracles: dict[tuple[str, ...], OracleResult | None] = {}
    rounds: list[RoundReport] = []
    for r in range(config.rounds):
        for event in events_by_round.get(r, ()):
            active.difference_update(event.leave)
            active.update(event.join)
        if not active:
            rounds.append(
                RoundReport(index=r, active_ids=(), failure="no active vehicles")
            )
            continue
        active_ids = tuple(sorted(active))
        try:
            fleet, transcript = _play_round(config, active_ids, grid, f"round:{r}", r)
        except (ProtocolError, EncodingError) as exc:
            # A structurally broken or overflowing round is recorded, not fatal:
            # later rounds may still succeed (e.g. after membership changes).
            rounds.append(
                RoundReport(index=r, active_ids=active_ids, failure=str(exc))
            )
            continue
        if active_ids not in oracles:
            oracles[active_ids] = _dense_optimum(config, fleet)
        oracle = oracles[active_ids]
        rec = transcript.recommendation
        rounds.append(
            RoundReport(
                index=r,
                active_ids=active_ids,
                dummy_ids=transcript.dummy_ids,
                recommendation=rec,
                accuracy=_accuracy(oracle, transcript.true_total[rec.best_index]),
                oracle=oracle,
                privacy=privacy_report(transcript, fleet),
                traffic=traffic_report(transcript),
            )
        )
    baseline = compare_baseline(config) if with_baseline else None
    return ScenarioReport(config=config, rounds=tuple(rounds), baseline=baseline)


@dataclass(frozen=True)
class SweepPoint:
    m: int
    recommended_speed: float
    accuracy: float | None


def sweep_m(config: ScenarioConfig, m_values: Sequence[int]) -> tuple[SweepPoint, ...]:
    """Re-run a one-round scenario at several grid sizes against one oracle.

    Membership events are ignored: the sweep always runs the full fleet (minus
    any initially inactive vehicles) so the points are comparable.  Every
    swept vehicle needs a closed-form cost model, because a cost table has no
    entries at the other grid sizes' speeds.
    """
    if not m_values:
        raise ConfigError("sweep needs at least one grid size")
    active = sorted(set(config.vehicle_ids) - set(config.initially_inactive))
    if not active:
        raise ConfigError("sweep needs an active vehicle, but all are initially_inactive")
    tables = [v.vehicle_id for v in config.vehicles if v.factors is None and v.vehicle_id in active]
    if tables:
        raise ConfigError(
            f"vehicle {tables[0]!r} has only a cost table, so it has no cost at the "
            "speeds of other grid sizes; sweep-m needs factors for every vehicle"
        )
    # Every grid is built first, so a bad grid size fails before any round.
    grids = [build_speed_grid(int(m), config.grid_lo, config.grid_hi) for m in m_values]
    played = []
    for m, grid in zip(m_values, grids):
        fleet, transcript = _play_round(config, active, grid, f"sweep:{m}")
        rec = transcript.recommendation
        played.append((rec.speed, transcript.true_total[rec.best_index]))
    oracle = _dense_optimum(config, fleet)
    return tuple(
        SweepPoint(m=int(m), recommended_speed=speed, accuracy=_accuracy(oracle, total))
        for m, (speed, total) in zip(m_values, played)
    )


def compare_baseline(config: ScenarioConfig) -> BaselineComparison:
    """One protocol round vs. the iterative baseline on the same fleet.

    The baseline runs every vehicle (membership ignored), starts each vehicle
    at its own optimum — the natural selfish initial condition — and uses 90%
    of the admissible step-size bound.
    """
    # Fail as "baseline inapplicable" before the protocol round runs.
    _require_factors(config.vehicles)
    ids = config.vehicle_ids
    fleet, transcript = _play_round(config, ids, config.grid(), "baseline-protocol")
    oracle = _dense_optimum(config, fleet)
    protocol_speed = transcript.recommendation.speed

    lo, hi = config.grid_lo, config.grid_hi
    dp = DpConfig(mu=0.9 * mu_upper_bound(fleet, lo, hi), speed_lo=lo, speed_hi=hi)
    if config.topology_kind == "switching":
        graphs = generate_switching_sequence(
            ids,
            rounds=min(128, dp.max_iter),
            window=config.window,
            seed=config.seed,
            extra_edge_prob=config.extra_edge_prob,
        )
    elif config.topology_kind == "explicit":
        # No dummy attachment here: the baseline exchanges estimates, not
        # shares, so the graph is used exactly as configured.
        graphs = GraphSequence((CommGraph(ids, config.explicit_edges),))
    elif len(ids) == 1:
        graphs = GraphSequence((CommGraph(ids, ()),))
    else:
        graphs = GraphSequence((ring_over(ids),))
    s0 = [brute_force_optimum([v], lo, hi).s_star for v in fleet]
    result = run_dp(fleet, graphs, dp, s0)

    return BaselineComparison(
        oracle_speed=oracle.s_star,
        protocol_speed=protocol_speed,
        protocol_gap_kmh=abs(protocol_speed - oracle.s_star),
        protocol_rounds=1,
        protocol_messages=len(transcript.messages),
        dp_speed=result.consensus_speed,
        dp_gap_kmh=abs(result.consensus_speed - oracle.s_star),
        dp_iterations=result.iterations,
        dp_converged=result.converged,
        dp_result=result,
        fleet_ids=ids,
    )
