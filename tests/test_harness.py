import csv
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
import yaml

from speedshare.cli import bundled_config_path
from speedshare.emissions import Vehicle, VehicleClass, build_speed_grid
from speedshare.errors import ConfigError
from speedshare.graph import CommGraph, ring_over
from speedshare.harness import (
    DUMMY_ID,
    MembershipEvent,
    ScenarioConfig,
    attach_dummy_vehicle,
    compare_baseline,
    run_scenario,
    sweep_m,
)
from speedshare.oracle import fleet_total_cost
from speedshare.protocol import MaskingParams
from speedshare.reports import _write_csv


def six_class_config(**overrides):
    base = {
        "fleet": {"classes": {c.name: 1 for c in VehicleClass}},
        "grid": {"m": 100, "lo": 5.0, "hi": 140.0},
        "seed": 7,
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


def grid_argmin_speed(fleet, grid):
    totals = [fleet_total_cost(fleet, s) for s in grid]
    return grid.speeds[int(np.argmin(totals))]


class TestConfigParsing:
    def test_class_counts_expand_to_padded_ids(self):
        cfg = ScenarioConfig.from_dict({"fleet": {"classes": {"R004": 2, "R005": 1}}})
        assert cfg.vehicle_ids == ("R004-1", "R004-2", "R005-1")
        wide = ScenarioConfig.from_dict({"fleet": {"classes": {"R004": 12}}})
        assert wide.vehicle_ids[0] == "R004-01"
        assert wide.vehicle_ids[-1] == "R004-12"

    def test_custom_vehicles_by_factors_and_table(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {
                    "vehicles": [
                        {"id": "flat", "table": {40.0: 1.5, 50.0: 2.5}},
                        {"id": "poly", "factors": {"a": 1.0, "b": 2.0, "c": 0.0, "d": 0.1}},
                    ]
                },
                "grid": {"m": 2, "lo": 40.0, "hi": 50.0},
            }
        )
        assert cfg.vehicle_ids == ("flat", "poly")
        flat = next(v for v in cfg.vehicles if v.vehicle_id == "flat")
        assert flat.cost(50.0) == 2.5

    @pytest.mark.parametrize(
        "raw",
        [
            {"fleet": {"classes": {"R004": 1}}, "bogus": 1},
            {"fleet": {"classes": {"R999": 1}}},
            {"fleet": {"classes": {"R004": 0}}},
            {"fleet": {"typo": []}},
            {"fleet": {"vehicles": [{"table": {40.0: 1.0}}]}},
            {"fleet": {"vehicles": [{"id": "x"}]}},
            {"fleet": {"classes": {"R004": 2}}, "topology": {"kind": "mesh"}},
            {"fleet": {"classes": {"R004": 2}}, "topology": {"kind": "explicit"}},
            {
                "fleet": {"classes": {"R004": 2}},
                "topology": {"kind": "explicit", "edges": [["R004-1", "ghost"]]},
            },
            {"fleet": {"vehicles": [{"id": "__dummy__", "table": {40.0: 1.0}}]}},
            {"fleet": {"classes": {"R004": 1}}, "rounds": 0},
            {"fleet": {"classes": {"R004": 1}}, "share_bound": 0},
            {"fleet": {"classes": {"R004": 1}}, "membership": [{"join": ["R004-1"]}]},
            {"fleet": {"classes": {"R004": 1}}, "membership": [{"round": 0, "kick": []}]},
            {"fleet": {"classes": {"R004": 1}}, "membership": [{"round": 0, "leave": ["ghost"]}]},
            {"fleet": {"classes": {"R004": 1}}, "initially_inactive": ["ghost"]},
            {"fleet": {"classes": {"R004": 1}}, "grid": {"m": 1}},
            {"fleet": {"classes": {"R004": 1}}, "masking": {"a": -1.0}},
        ],
    )
    def test_bad_configs_rejected(self, raw):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_duplicate_ids_rejected(self):
        v = Vehicle.from_class("same", VehicleClass.R004)
        with pytest.raises(ConfigError):
            ScenarioConfig(vehicles=(v, v))

    def test_dict_round_trip(self):
        cfg = six_class_config(
            masking={"a": 2.0, "b": 10.0},
            rounds=3,
            membership=[{"round": 1, "leave": ["R004-1"]}, {"round": 2, "join": ["R004-1"]}],
        )
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_file_yaml_and_json(self, tmp_path):
        cfg = six_class_config()
        ypath = tmp_path / "scenario.yaml"
        ypath.write_text(yaml.safe_dump(cfg.to_dict()))
        assert ScenarioConfig.from_file(ypath) == cfg
        jpath = tmp_path / "scenario.json"
        jpath.write_text(json.dumps(cfg.to_dict()))
        assert ScenarioConfig.from_file(jpath) == cfg

    def test_from_file_failures(self, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(tmp_path / "missing.yaml")
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(empty)
        broken = tmp_path / "broken.yaml"
        broken.write_text("fleet: [unterminated\n  nonsense: {")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(broken)


class TestRunScenario:
    def test_single_round_matches_grid_argmin(self):
        cfg = six_class_config()
        report = run_scenario(cfg)
        assert report.failed_rounds == ()
        (rnd,) = report.rounds
        assert rnd.dummy_ids == ()
        assert rnd.recommendation.speed == grid_argmin_speed(cfg.vehicles, cfg.grid())
        assert rnd.accuracy > 0.999
        assert rnd.traffic.message_count == 6
        assert rnd.traffic.upload_count == 6

    def test_runs_are_deterministic(self):
        cfg = six_class_config(rounds=3, topology={"kind": "switching"})
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert first.to_dict() == second.to_dict()

    def test_recommendation_stable_across_rounds(self):
        cfg = six_class_config(rounds=4)
        report = run_scenario(cfg)
        speeds = {r.recommendation.speed for r in report.rounds}
        assert len(speeds) == 1  # fresh randomness each round cancels exactly

    def test_membership_changes_the_recommendation(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {"classes": {"R004": 1, "R018": 1, "R019": 1}},
                "rounds": 3,
                "membership": [
                    {"round": 1, "leave": ["R018-1", "R019-1"]},
                    {"round": 2, "join": ["R018-1", "R019-1"]},
                ],
                "seed": 3,
            }
        )
        report = run_scenario(cfg)
        r0, r1, r2 = report.rounds
        assert r0.active_ids == ("R004-1", "R018-1", "R019-1")
        assert r1.active_ids == ("R004-1",)
        assert r2.active_ids == r0.active_ids
        by_id = {v.vehicle_id: v for v in cfg.vehicles}
        grid = cfg.grid()
        for rnd in report.rounds:
            fleet = [by_id[v] for v in rnd.active_ids]
            assert rnd.recommendation.speed == grid_argmin_speed(fleet, grid)
        assert r1.recommendation.speed != r0.recommendation.speed
        assert r0.oracle == r2.oracle  # same fleet, same cached optimum

    def test_single_active_vehicle_gets_a_dummy(self):
        cfg = ScenarioConfig.from_dict(
            {"fleet": {"classes": {"R004": 1}}, "grid": {"m": 10}}
        )
        report = run_scenario(cfg)
        (rnd,) = report.rounds
        assert rnd.failure is None
        assert rnd.dummy_ids == (DUMMY_ID,)
        assert rnd.traffic.upload_count == 2

    def test_leaving_missing_vehicle_raises(self):
        # The schedule is replayed when the config loads, before any round.
        with pytest.raises(ConfigError):
            six_class_config(
                rounds=2,
                membership=[
                    {"round": 0, "leave": ["R004-1"]},
                    {"round": 1, "leave": ["R004-1"]},
                ],
            )

    def test_joining_active_vehicle_raises(self):
        with pytest.raises(ConfigError):
            six_class_config(membership=[{"round": 0, "join": ["R004-1"]}])

    def test_everyone_leaving_is_a_recorded_failure(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {"classes": {"R004": 2}},
                "rounds": 2,
                "membership": [{"round": 1, "leave": ["R004-1", "R004-2"]}],
            }
        )
        report = run_scenario(cfg)
        assert report.failed_rounds == (1,)
        assert report.rounds[1].failure == "no active vehicles"
        assert report.rounds[0].failure is None

    def test_fixed_point_overflow_is_a_recorded_failure(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {
                    "vehicles": [
                        {"id": "big1", "table": {40.0: 2147483.0, 50.0: 2147483.0}},
                        {"id": "big2", "table": {40.0: 2147483.0, 50.0: 2147483.0}},
                    ]
                },
                "grid": {"m": 2, "lo": 40.0, "hi": 50.0},
                "share_bound": 10,
            }
        )
        report = run_scenario(cfg)
        (rnd,) = report.rounds
        assert rnd.failure is not None
        assert rnd.recommendation is None

    def test_table_fleet_runs_without_dense_oracle(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {
                    "vehicles": [
                        {"id": "t1", "table": {40.0: 3.0, 50.0: 1.0}},
                        {"id": "t2", "table": {40.0: 2.0, 50.0: 4.0}},
                    ]
                },
                "grid": {"m": 2, "lo": 40.0, "hi": 50.0},
            }
        )
        report = run_scenario(cfg)
        (rnd,) = report.rounds
        assert rnd.failure is None
        assert rnd.recommendation.speed == 40.0  # equal totals, lowest index wins
        assert rnd.oracle is None
        assert rnd.accuracy is None

    def test_explicit_topology_weak_vehicle_gets_dummy_without_skew(self):
        cfg = ScenarioConfig.from_dict(
            {
                "fleet": {"classes": {"R004": 1, "R005": 1, "R011": 1}},
                "topology": {
                    "kind": "explicit",
                    "edges": [
                        ["R004-1", "R005-1"],
                        ["R005-1", "R004-1"],
                        ["R004-1", "R011-1"],
                    ],
                },
                "grid": {"m": 50},
                "seed": 11,
            }
        )
        report = run_scenario(cfg)
        (rnd,) = report.rounds
        assert rnd.failure is None
        assert rnd.dummy_ids == (DUMMY_ID,)
        assert rnd.traffic.upload_count == 4
        assert rnd.recommendation.speed == grid_argmin_speed(cfg.vehicles, cfg.grid())


class TestAttachDummy:
    def test_noop_with_warning_when_not_weak(self):
        g = ring_over(["a", "b"])
        with pytest.warns(UserWarning):
            out = attach_dummy_vehicle(g, "a")
        assert out is g

    def test_unknown_vehicle(self):
        with pytest.raises(KeyError):
            attach_dummy_vehicle(ring_over(["a", "b"]), "zz")

    def test_two_weak_vehicles_share_one_dummy(self):
        g = CommGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        g = attach_dummy_vehicle(g, "b")
        g = attach_dummy_vehicle(g, "c")
        assert DUMMY_ID in g
        assert len(g.vertices) == 4
        assert g.indegree(DUMMY_ID) == 2


class TestSweep:
    def test_sweep_points_and_determinism(self):
        cfg = six_class_config()
        points = sweep_m(cfg, [10, 25, 50])
        assert [p.m for p in points] == [10, 25, 50]
        assert all(0.0 < p.accuracy <= 1.0 for p in points)
        assert points == sweep_m(cfg, [10, 25, 50])

    def test_finer_grids_do_not_hurt_much(self):
        cfg = six_class_config()
        points = sweep_m(cfg, [10, 100])
        assert points[-1].accuracy >= points[0].accuracy - 1e-6

    def test_degenerate_two_point_grid(self):
        cfg = six_class_config()
        (point,) = sweep_m(cfg, [2])
        assert point.recommended_speed in (5.0, 140.0)
        assert point.accuracy <= 1.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep_m(six_class_config(), [])


class TestCompareBaseline:
    def test_six_class_fleet(self):
        comparison = compare_baseline(six_class_config())
        assert comparison.protocol_rounds == 1
        assert comparison.protocol_messages == 6
        assert comparison.dp_converged
        assert comparison.dp_iterations >= 10
        assert comparison.protocol_gap_kmh <= 135 / 99  # one grid spacing
        assert comparison.dp_gap_kmh <= 0.5

    def test_single_vehicle(self):
        cfg = ScenarioConfig.from_dict({"fleet": {"classes": {"R004": 1}}})
        comparison = compare_baseline(cfg)
        assert comparison.fleet_ids == ("R004-1",)
        assert comparison.protocol_gap_kmh <= 135 / 99
        assert comparison.dp_converged
        assert comparison.dp_gap_kmh <= 0.5

    def test_paired_classes_need_no_iterations(self):
        # R004 and R005 differ only by a constant term of the rate, so both
        # derivative roots coincide and the selfish start is already optimal.
        cfg = ScenarioConfig.from_dict({"fleet": {"classes": {"R004": 1, "R005": 1}}})
        comparison = compare_baseline(cfg)
        assert comparison.dp_converged
        assert comparison.dp_iterations == 0

    def test_twelve_vehicle_fleet_single_round(self):
        cfg = ScenarioConfig.from_dict(
            {"fleet": {"classes": {"R004": 6, "R011": 6}}, "seed": 5}
        )
        comparison = compare_baseline(cfg)
        assert comparison.protocol_rounds == 1
        assert comparison.protocol_messages == 12
        assert comparison.dp_iterations > 1


def ring_churn_shaped_yaml(seed=0):
    """A 180-vehicle ring config with a leave and a rejoin, written as text.

    Values are written with ``repr``, so some exponents have no dot and load
    as strings under YAML 1.1 before the parser coerces them.
    """
    rng = random.Random(seed)
    classes = ", ".join(f"{c.name}: 15" for c in VehicleClass)
    lines = [f"fleet:\n  classes: {{{classes}}}\n  vehicles:\n"]
    for i in range(90):
        factors = ", ".join(
            f"{key}: {value!r}"
            for key, value in (
                ("a", rng.uniform(500.0, 3000.0)),
                ("b", rng.uniform(10.0, 100.0)),
                ("c", rng.uniform(0.0, 1.0)),
                ("d", rng.uniform(0.0, 0.01)),
                ("e", rng.uniform(0.0, 1e-5) * 10.0 ** -rng.randrange(4)),
            )
        )
        lines.append(f"    - {{id: C{i:03d}, factors: {{{factors}}}}}\n")
    lines.append(
        "topology: {kind: ring}\n"
        "grid: {m: 100, lo: 5.0, hi: 140.0}\n"
        "masking: {a: 2.0, b: 10.0}\n"
        "share_bound: 100000000\n"
        f"seed: {rng.randrange(10**6)}\n"
        "rounds: 3\n"
        "membership:\n"
        "  - {round: 1, leave: [C017]}\n"
        "  - {round: 2, join: [C017]}\n"
    )
    return "".join(lines)


def loader_texts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = {name: bundled_config_path(name).read_text() for name in ("case1", "case2", "case3")}
    texts["readme"] = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    texts["ring-churn-shaped"] = ring_churn_shaped_yaml()
    return texts


class TestYamlLoaders:
    """libyaml's loader, when installed, reads every config as the pure-Python one does."""

    @pytest.mark.parametrize("name", sorted(loader_texts()))
    def test_from_file_matches_pure_python_loader(self, name, tmp_path):
        text = loader_texts()[name]
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        expected = ScenarioConfig.from_dict(yaml.load(text, Loader=yaml.SafeLoader))
        assert ScenarioConfig.from_file(path) == expected

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", sorted(loader_texts()))
    def test_libyaml_config_equals_pure_python_config(self, name):
        text = loader_texts()[name]
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert ScenarioConfig.from_dict(fast) == ScenarioConfig.from_dict(
            yaml.load(text, Loader=yaml.SafeLoader)
        )

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_yaml_1_1_scalars_resolve_alike(self):
        text = "big: 1e308\noctal: 0o17\nnan: .nan\nhex: 0x1F\nflag: yes\nsep: 1_000\n"
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert {k: (type(v), repr(v)) for k, v in fast.items()} == {
            k: (type(v), repr(v)) for k, v in slow.items()
        }
        assert slow["big"] == "1e308" and slow["octal"] == "0o17"
        assert slow["hex"] == 31 and slow["flag"] is True and slow["sep"] == 1000


class TestCsvWriter:
    def test_matches_csv_writer_with_a_quoted_header(self, tmp_path):
        header = ("speed_kmh", 'error_a,"b"', "error_plain")
        rows = [(5.0, -0.001, 1e-05), (12.5, 3, 1e300), (140.0, -2, 0.1 + 0.2)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        path = _write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == expected.getvalue().encode()
        assert b'"error_a,""b"""' in path.read_bytes()
