import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedshare import cli, harness
from speedshare.cli import main, parse_m_list
from speedshare.emissions import VehicleClass
from speedshare.errors import ConfigError
from speedshare.harness import ScenarioConfig
from speedshare.oracle import fleet_total_cost


def write_config(tmp_path, name="scenario.yaml", **overrides):
    raw = {
        "fleet": {"classes": {c.name: 1 for c in VehicleClass}},
        "grid": {"m": 20, "lo": 5.0, "hi": 140.0},
        "seed": 7,
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestParseMList:
    def test_plain_list(self):
        assert parse_m_list("10,20,30") == [10, 20, 30]
        assert parse_m_list("25") == [25]
        assert parse_m_list("10, ,20") == [10, 20]

    def test_ellipsis_expansion(self):
        assert parse_m_list("10,20,...,100") == list(range(10, 101, 10))
        assert parse_m_list("5,7,...,13") == [5, 7, 9, 11, 13]
        assert parse_m_list("10,20,...,25") == [10, 20]  # next step overshoots

    def test_ellipsis_then_more_values(self):
        assert parse_m_list("2,4,...,8,100") == [2, 4, 6, 8, 100]

    @pytest.mark.parametrize(
        "text",
        ["", "10,...,100", "...,100", "10,20,...", "10,20,...,15", "20,10,...,5", "abc"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_m_list(text)


class TestRunCommand:
    def test_success_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "recommend" in capsys.readouterr().out

        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"][0]["failure"] is None

        with (out / "round000_aggregate.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        best = min(rows, key=lambda r: float(r["aggregate_real"]))
        cfg = ScenarioConfig.from_file(config)
        grid = cfg.grid()
        totals = [fleet_total_cost(cfg.vehicles, s) for s in grid]
        assert float(best["speed_kmh"]) == grid.speeds[int(np.argmin(totals))]
        assert float(best["speed_kmh"]) == summary["rounds"][0]["recommendation"]["speed_kmh"]

        with (out / "round000_local_error.csv").open() as fh:
            header = fh.readline().strip().split(",")
        assert header == ["speed_kmh"] + [f"error_{v}" for v in cfg.vehicle_ids]

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(first)]) == 0
        assert main(["run", "--config", str(config), "--out", str(second)]) == 0
        for name in ("summary.json", "round000_aggregate.csv", "round000_local_error.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_override_changes_randomness_not_result(self, tmp_path):
        config = write_config(tmp_path)
        base, other = tmp_path / "base", tmp_path / "other"
        assert main(["run", "--config", str(config), "--out", str(base)]) == 0
        assert main(["run", "--config", str(config), "--out", str(other), "--seed", "99"]) == 0
        assert json.loads((other / "summary.json").read_text())["config"]["seed"] == 99
        # Different shares, same exact aggregate:
        assert (base / "round000_local_error.csv").read_bytes() != (
            other / "round000_local_error.csv"
        ).read_bytes()
        assert (base / "round000_aggregate.csv").read_bytes() == (
            other / "round000_aggregate.csv"
        ).read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("SPEEDSHARE_OUT", str(envdir))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert (envdir / "summary.json").exists()
        # An explicit --out always wins over the environment.
        flagdir = tmp_path / "from_flag"
        assert main(["run", "--config", str(config), "--out", str(flagdir)]) == 0
        assert (flagdir / "summary.json").exists()

    def test_run_with_baseline_flag(self, tmp_path):
        config = write_config(tmp_path, fleet={"classes": {"R004": 1, "R005": 1}})
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out), "--baseline"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["baseline"]["protocol_rounds"] == 1
        assert (out / "baseline_trace.csv").exists()

    def test_failed_round_exits_4(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            fleet={
                "vehicles": [
                    {"id": "big1", "table": {40.0: 2147483.0, 50.0: 2147483.0}},
                    {"id": "big2", "table": {40.0: 2147483.0, 50.0: 2147483.0}},
                ]
            },
            grid={"m": 2, "lo": 40.0, "hi": 50.0},
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 4
        assert "FAILED" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"][0]["failure"] is not None

    def test_table_only_vehicle_prints_accuracy_na(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            fleet={
                "classes": {"R004": 2},
                "vehicles": [{"id": "tab", "table": {10.0: 5.0, 20.0: 4.0, 30.0: 6.0}}],
            },
            grid={"m": 3, "lo": 10.0, "hi": 30.0},
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "accuracy n/a" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["rounds"][0]
        assert entry["failure"] is None
        assert entry["oracle"] is None and entry["accuracy"] is None


class TestExitCodes:
    def test_missing_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 3
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("fleet: {classes: {R004: 1}}\nbogus_key: true\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_bad_m_list_exits_3(self, tmp_path):
        config = write_config(tmp_path)
        code = main(
            ["sweep-m", "--config", str(config), "--out", str(tmp_path / "o"), "--m", "x"]
        )
        assert code == 3

    def test_baseline_on_table_fleet_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            fleet={
                "vehicles": [
                    {"id": "t1", "table": {40.0: 3.0, 50.0: 1.0}},
                    {"id": "t2", "table": {40.0: 2.0, 50.0: 4.0}},
                ]
            },
            grid={"m": 2, "lo": 40.0, "hi": 50.0},
        )
        code = main(["compare-baseline", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "baseline not applicable" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["compare-baseline"], ["sweep-m", "--m", "10,20"]])
    def test_encoding_overflow_exits_4(self, tmp_path, capsys, command):
        config = write_config(tmp_path, masking={"a": 1.0e6, "b": 0.0})
        out = tmp_path / "o"
        assert main([*command, "--config", str(config), "--out", str(out)]) == 4
        assert "does not fit" in capsys.readouterr().err


class TestConfigRejectedAtLoad:
    """Malformed fleet and topology entries exit 3 with a message, never a traceback."""

    FLEET = "fleet:\n  classes: {R004: 2}\n  vehicles:\n"

    def run_yaml(self, tmp_path, text, command=("run",)):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        return main([*command, "--config", str(path), "--out", str(tmp_path / "o")])

    def test_table_that_is_not_a_mapping(self, tmp_path, capsys):
        code = self.run_yaml(tmp_path, self.FLEET + "    - {id: T, table: [1, 2]}\n")
        assert code == 3
        assert "vehicle 'T': table must map speed -> cost" in capsys.readouterr().err

    def test_edge_with_one_endpoint(self, tmp_path, capsys):
        text = (
            "fleet: {classes: {R004: 2}}\n"
            "topology:\n  kind: explicit\n  edges: [[R004-1, R004-2], [R004-1]]\n"
        )
        assert self.run_yaml(tmp_path, text) == 3
        assert "explicit edge ['R004-1'] must be a [from, to] pair" in capsys.readouterr().err

    def test_unknown_factors_key(self, tmp_path, capsys):
        text = self.FLEET + "    - {id: X, factors: {a: 1.0, b: 2.0, c: 0.1, d: 0.01, h: 3}}\n"
        assert self.run_yaml(tmp_path, text) == 3
        assert "vehicle 'X': unknown factors keys ['h']" in capsys.readouterr().err

    def test_missing_factor(self, tmp_path, capsys):
        text = self.FLEET + "    - {id: X, factors: {a: 1.0, b: 2.0}}\n"
        assert self.run_yaml(tmp_path, text) == 3
        assert "vehicle 'X': factors missing c, d" in capsys.readouterr().err

    def test_exponent_without_dot_loads_as_float(self, tmp_path, capsys):
        # YAML 1.1 reads 1e308 and 1e-9 (no dot) as strings.
        path = tmp_path / "scenario.yaml"
        path.write_text(
            self.FLEET
            + "    - {id: X, factors: {a: 1e308, b: 2.0, c: 0.1, d: 0.01}}\n"
            + "    - {id: Y, factors: {a: 2260.6, b: 70.0, c: 0.29, d: 0.003, e: 1e-9}}\n"
        )
        config = ScenarioConfig.from_file(path)
        by_id = {v.vehicle_id: v for v in config.vehicles}
        assert by_id["X"].factors.a == 1e308
        assert by_id["Y"].factors.e == 1e-9
        assert type(by_id["Y"].factors.e) is float
        # The masked cost overflows int32: a recorded round failure, exit 4.
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "does not fit" in capsys.readouterr().out

    def test_nan_table_value(self, tmp_path, capsys):
        text = self.FLEET + "    - {id: T, table: {40.0: .nan, 50.0: 1.0}}\n"
        assert self.run_yaml(tmp_path, text) == 3
        err = capsys.readouterr().err
        assert "vehicle 'T': table cost at speed 40.0 must be finite, got nan" in err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("{id: X, factors: {a: x, b: 2.0, c: 0.1, d: 0.01}}", "factors.a must be a number"),
            ("{id: X, factors: {a: .inf, b: 2.0, c: 0.1, d: 0.01}}", "factors.a must be finite"),
            ("{id: X, factors: [1, 2]}", "factors must be a mapping"),
            ("{id: T, table: {}}", "table must map speed -> cost"),
            ("{id: T, table: {fast: 1.0}}", "table speed 'fast' must be a number"),
        ],
    )
    def test_bad_vehicle_values(self, tmp_path, capsys, entry, message):
        assert self.run_yaml(tmp_path, self.FLEET + f"    - {entry}\n") == 3
        assert message in capsys.readouterr().err

    def test_non_integer_class_count(self, tmp_path, capsys):
        assert self.run_yaml(tmp_path, "fleet: {classes: {R004: many}}\n") == 3
        assert "class 'R004' count must be an integer" in capsys.readouterr().err

    def test_table_without_a_grid_speed(self, tmp_path, capsys):
        text = self.FLEET + "    - {id: T, table: {40.0: 1.0, 50.0: 2.0}}\n"
        assert self.run_yaml(tmp_path, text) == 3
        err = capsys.readouterr().err
        assert "vehicle 'T' has no cost entry for speed 5.0: a table needs a cost" in err

    def test_membership_join_that_is_not_a_list(self, tmp_path, capsys):
        text = "fleet: {classes: {R004: 2}}\nrounds: 2\nmembership: [{round: 1, join: 5}]\n"
        assert self.run_yaml(tmp_path, text) == 3
        assert "membership join must be a list of vehicle ids, got 5" in capsys.readouterr().err

    def test_membership_round_that_is_not_an_integer(self, tmp_path, capsys):
        text = "fleet: {classes: {R004: 2}}\nmembership: [{round: soon, leave: [R004-1]}]\n"
        assert self.run_yaml(tmp_path, text) == 3
        assert "membership round must be an integer, got 'soon'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep-m", "--m", "10,20"), ("compare-baseline",)]
    )
    def test_infinite_grid_bound(self, tmp_path, capsys, command):
        text = "fleet: {classes: {R004: 2}}\ngrid: {hi: .inf}\n"
        assert self.run_yaml(tmp_path, text, command) == 3
        assert "grid.hi must be finite, got inf" in capsys.readouterr().err

    def test_share_bound_above_int32(self, tmp_path, capsys):
        text = "fleet: {classes: {R004: 2}}\nshare_bound: 2147483648\n"
        assert self.run_yaml(tmp_path, text) == 3
        assert "share_bound must be at most 2147483647" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep-m", "--m", "3,4"), ("compare-baseline",)]
    )
    def test_grid_without_an_oracle_scan_point(self, tmp_path, capsys, monkeypatch, command):
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran for a config that should not load")

        monkeypatch.setattr(harness, "execute_round", no_round)
        text = "fleet: {classes: {R004: 2}}\ngrid: {m: 3, lo: 40.001, hi: 40.009}\n"
        assert self.run_yaml(tmp_path, text, command) == 3
        err = capsys.readouterr().err
        assert "grid.lo/grid.hi: no multiple of 0.01 inside [40.001, 40.009]" in err
        assert not (tmp_path / "o").exists()

    def test_unparseable_yaml(self, tmp_path, capsys):
        assert self.run_yaml(tmp_path, "fleet: {classes: [R004\n") == 3
        assert "cannot parse config" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            ["sweep-m", "--config", str(config), "--out", str(out), "--m", "10,20,...,50"]
        )
        assert code == 0
        with (out / "accuracy_sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [10, 20, 30, 40, 50]
        assert all(0.0 < float(r["accuracy"]) <= 1.0 for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["sweep"]) == 5

    def table_fleet(self, tmp_path):
        return write_config(
            tmp_path,
            name="table.yaml",
            fleet={
                "classes": {"R004": 2},
                "vehicles": [{"id": "tab", "table": {10.0: 5.0, 20.0: 4.0, 30.0: 6.0}}],
            },
            grid={"m": 3, "lo": 10.0, "hi": 30.0},
        )

    def test_table_only_vehicle_exits_3_before_any_round(self, tmp_path, capsys, monkeypatch):
        config = self.table_fleet(tmp_path)

        def no_round(*args, **kwargs):
            raise AssertionError("a protocol round ran")

        monkeypatch.setattr(harness, "execute_round", no_round)
        out = tmp_path / "o"
        assert main(["sweep-m", "--config", str(config), "--out", str(out), "--m", "3,5"]) == 3
        assert "vehicle 'tab' has only a cost table" in capsys.readouterr().err

    def test_reproduce_sweep_rejects_table_only_vehicle(self, tmp_path, capsys, monkeypatch):
        table = self.table_fleet(tmp_path)
        bundled = cli.bundled_config_path
        monkeypatch.setattr(
            cli, "bundled_config_path", lambda name: table if name == "case3" else bundled(name)
        )
        assert main(["reproduce-paper", "--out", str(tmp_path / "o")]) == 3
        assert "vehicle 'tab' has only a cost table" in capsys.readouterr().err


class TestCompareBaselineCommand:
    def test_paired_classes_trace(self, tmp_path, capsys):
        config = write_config(tmp_path, fleet={"classes": {"R004": 1, "R005": 1}})
        out = tmp_path / "cmp"
        assert main(["compare-baseline", "--config", str(config), "--out", str(out)]) == 0
        assert "baseline" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["protocol"]["rounds"] == 1
        assert summary["baseline"]["iterations"] == 0
        assert summary["baseline"]["converged"] is True
        with (out / "baseline_trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1  # start state only: nothing to iterate
        assert set(rows[0]) == {"iteration", "gradient_residual", "speed_R004-1", "speed_R005-1"}


class TestReproduceCommand:
    def test_bundled_scenarios(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--out", str(out)]) == 0

        case1 = json.loads((out / "case1" / "summary.json").read_text())
        case2 = json.loads((out / "case2" / "summary.json").read_text())
        rec1 = case1["rounds"][0]["recommendation"]["speed_kmh"]
        rec2 = case2["rounds"][0]["recommendation"]["speed_kmh"]
        assert rec1 == rec2  # masking must not move the argmin
        assert case1["rounds"][0]["accuracy"] > 0.999
        assert case2["config"]["masking"] == {"a": 2.0, "b": 10.0}

        with (out / "case3" / "accuracy_sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == list(range(10, 101, 10))
        assert float(rows[0]["accuracy"]) >= 0.90
        assert all(float(r["accuracy"]) >= 0.99 for r in rows[1:])


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "speedshare.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for subcommand in ("run", "sweep-m", "compare-baseline", "reproduce-paper"):
        assert subcommand in result.stdout
    if shutil.which("speedshare"):
        installed = subprocess.run(
            ["speedshare", "--help"], capture_output=True, text=True
        )
        assert installed.returncode == 0


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_readme_round_in_code_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("One round in code:\n\n```python\n", 1)[1].split("```", 1)[0]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        exec(block, {})
    assert round(float(sink.getvalue()), 2) == 69.09


# Every integer comes from a small pool, so no grid, round count or class
# count passes 20 and no generated config can start a long run.  A field gets
# an out-of-range value or one of the wrong type about one time in sixteen,
# so runnable and refused configs both come up.
COUNT = st.sampled_from([1, 2, 3, 20])
NUMBER = st.sampled_from([0.3, 2.0, 40.0, 50.0, 140.0])
ODD = st.sampled_from(
    [0, -1, -1.0, 1.5, float("nan"), float("inf"), None, "x", [], {}, ["R004-1"], {"a": 1}]
)
IDS = st.sampled_from(["R004-1", "R004-2", "R011-1", "T", "P"])


def maybe(strategy, odd=ODD):
    return st.integers(0, 15).flatmap(lambda i: odd if i == 15 else strategy)


def mapping(required=None, **optional):
    return st.fixed_dictionaries(
        {k: maybe(v) for k, v in (required or {}).items()},
        optional={k: maybe(v) for k, v in optional.items()},
    )


FACTORS = mapping(dict(a=NUMBER, b=NUMBER, c=NUMBER, d=NUMBER), e=NUMBER, k=NUMBER)
TABLE = st.dictionaries(
    maybe(st.sampled_from([40.0, 50.0]), odd=st.just("fast")), maybe(NUMBER), max_size=2
)
VEHICLE = st.one_of(mapping(dict(id=IDS, factors=FACTORS)), mapping(dict(id=IDS, table=TABLE)))
CLASSES = maybe(mapping(dict(R004=COUNT), R011=COUNT, R019=COUNT), odd=st.just({"R999": 1}))
CONFIG = mapping(
    dict(fleet=mapping(dict(classes=CLASSES), vehicles=st.lists(maybe(VEHICLE), max_size=2))),
    topology=mapping(
        kind=maybe(st.sampled_from(["ring", "switching", "explicit"]), odd=st.just("mesh")),
        window=COUNT,
        extra_edge_prob=st.sampled_from([0.0, 0.3, 1.0]),
        edges=st.lists(maybe(st.lists(IDS, min_size=2, max_size=2)), max_size=3),
    ),
    grid=st.one_of(
        mapping(m=COUNT, lo=st.sampled_from([0.3, 5.0, 40.0]), hi=st.sampled_from([50.0, 140.0])),
        st.just({"m": 2, "lo": 40.0, "hi": 50.0}),
    ),
    masking=mapping(a=NUMBER, b=NUMBER),
    share_bound=maybe(st.sampled_from([1, 10**8, 2**31 - 1]), odd=st.just(2**31)),
    seed=COUNT,
    rounds=COUNT,
    membership=st.lists(
        mapping(
            dict(round=COUNT), join=st.lists(IDS, max_size=2), leave=st.lists(IDS, max_size=2)
        ),
        max_size=2,
    ),
    initially_inactive=st.lists(IDS, max_size=1),
)
COMMANDS = st.sampled_from([("run",), ("sweep-m", "--m", "2,20"), ("sweep-m", "--m", "1")])


#: Every cost is zero, so no accuracy ratio exists; the run still succeeds.
ZERO_FLEET = {
    "fleet": {
        "vehicles": [{"id": vid, "factors": {"a": 0, "b": 0, "c": 0, "d": 0}} for vid in "PT"]
    }
}


@settings(max_examples=100, deadline=None)
@given(raw=maybe(CONFIG), command=COMMANDS)
@example(raw=ZERO_FLEET, command=("run",))
@example(raw=ZERO_FLEET, command=("sweep-m", "--m", "2,20"))
def test_any_small_config_exits_0_3_or_4(raw, command):
    """A config either runs or is refused with a message, never with a traceback.

    A refused config (exit 3) is refused before any round, so it writes no output.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        out = Path(tmp) / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*command, "--config", str(path), "--out", str(out)])
        assert code in (0, 3, 4)
        if code == 3:
            assert not out.exists()
