"""Golden output digests: every file the CLI writes, byte for byte.

The protocol's shares, the metrics and the reports must not change when
their implementation does.  Each case runs one CLI command into its own
directory and compares a sha256 of every file written there with the digest
recorded below.  The bundled cases are all directed rings (one out-neighbor
per vehicle), so the in-test switching scenario is what covers rounds where
a vehicle splits its table among several neighbors, and its second round
strands one vehicle so a dummy participant attaches.  The in-test table
scenario covers a round whose fleet mixes closed-form vehicles with one
cost-table vehicle, which also leaves the dense oracle undefined.
"""

import contextlib
import hashlib
import io

import pytest
import yaml

from speedshare import cli
from speedshare.cli import bundled_config_path
from speedshare.harness import ScenarioConfig, run_scenario

SWITCHING_SCENARIO = {
    "fleet": {"classes": {"R004": 3, "R011": 2, "R019": 2}},
    "topology": {"kind": "switching", "extra_edge_prob": 0.3},
    "grid": {"m": 24, "lo": 10.0, "hi": 130.0},
    "masking": {"a": 2.0, "b": -40.0},
    "share_bound": 100000000,
    "seed": 3,
    "rounds": 2,
    "membership": [
        {"round": 1, "leave": ["R004-1", "R004-2", "R004-3", "R011-1", "R011-2", "R019-1"]}
    ],
}

#: The table vehicle lists every grid speed; its id sorts between the two
#: classes, so its cost row sits mid-fleet.
TABLE_SCENARIO = {
    "fleet": {
        "classes": {"R004": 2, "R012": 2},
        "vehicles": [
            {
                "id": "R010-table",
                "table": {40.0: 131.5, 50.0: 122.25, 60.0: 118.0, 70.0: 121.75, 80.0: 130.5},
            }
        ],
    },
    "topology": {"kind": "switching", "extra_edge_prob": 0.3},
    "grid": {"m": 5, "lo": 40.0, "hi": 80.0},
    "masking": {"a": 2.0, "b": 10.0},
    "seed": 7,
    "rounds": 2,
}

CASES = {
    "case1-run": ("case1", ["run"]),
    "case2-run": ("case2", ["run"]),
    "case3-run": ("case3", ["run"]),
    "case1-sweep": ("case1", ["sweep-m", "--m", "10,20,...,100"]),
    "case2-sweep": ("case2", ["sweep-m", "--m", "10,20,...,100"]),
    "case3-sweep": ("case3", ["sweep-m", "--m", "10,20,...,100"]),
    "case1-baseline": ("case1", ["compare-baseline"]),
    "case2-baseline": ("case2", ["compare-baseline"]),
    "switching-run": (None, ["run"]),
    "switching-baseline": (None, ["compare-baseline"]),
    "table-run": (TABLE_SCENARIO, ["run"]),
}

#: sha256 of each output file, keyed by case and then by file name.
DIGESTS = {
    "case1-baseline": {
        "baseline_trace.csv": "9520427984e4e6516db2bbd2f9421d9c284003484e7912eddc2f962197bcbb4a",
        "summary.json": "52cc2dceddef9f1a07281b9faced0f73499987d2a8aefcead065357f0d6d4b9f",
    },
    "case1-run": {
        "round000_aggregate.csv": "065c01158c261c4f85741f079d4ef1b68db740f1bc5f2103981810eab2f7b1c6",
        "round000_local_error.csv": "0e6c30f9fbfb4d089e3011a0ba099d29fd9b043716acaca9dc7bc918b448a92f",
        "summary.json": "0c443421dda66768f22198846f298041997d53296ca1d6d417f912c4d31cd848",
    },
    "case1-sweep": {
        "accuracy_sweep.csv": "2b712efd50c5be1dfc43a88a33fa5b151f1191d71f9bf517c7b00e54d5ea8dbf",
        "summary.json": "7736896fd6e8ad54a62e469b16d9d9cfa0ca5fd2a69fef6cc30ef6b3a4ac3a4c",
    },
    "case2-baseline": {
        "baseline_trace.csv": "9520427984e4e6516db2bbd2f9421d9c284003484e7912eddc2f962197bcbb4a",
        "summary.json": "8c01f518a910978eabb4811a657a5bab691af1b4b0b6c9aad95d343df799df59",
    },
    "case2-run": {
        "round000_aggregate.csv": "433fbd6572b75e7038d562e4aa5e886f10ae622832ebc35617f106c782a1cadd",
        "round000_local_error.csv": "64bbfaa819ba9f8a35bed5c0f47af27e7432d8ba3f7157ed29b4f22d7ccd3a61",
        "summary.json": "e6249219f05925883dfa62d79a2b883024bfce89356f016027d51a242eac6cec",
    },
    "case2-sweep": {
        "accuracy_sweep.csv": "2b712efd50c5be1dfc43a88a33fa5b151f1191d71f9bf517c7b00e54d5ea8dbf",
        "summary.json": "a1f6c853e742e834303262dd447034417d95a753774f86f91c7371315b809db8",
    },
    "case3-run": {
        "round000_aggregate.csv": "da1a67f53f1dd5929f77515f342d972776252c68ac0782b235b4be7a19bfbed4",
        "round000_local_error.csv": "c72376403a88f923bd06bd6bdb184e3c82fd6ac7b41c00f3b16994f467f030bb",
        "summary.json": "f73e7158ec5e26cfa0e1725e513c995ea12acfb2f9ec368d0402e8aa1c5acb53",
    },
    "case3-sweep": {
        "accuracy_sweep.csv": "525ab63452bae8dbdcaaf5d9f0a738d3d866ac0f1e3971b0f204d8a71c635a87",
        "summary.json": "35f3a26beb68a0b2ad23e00fc53196418fea57a2261a23541d4954e9dfc6f7bb",
    },
    "switching-baseline": {
        "baseline_trace.csv": "7b6f6879651f3b27c4d2a2aa4ef6914bc6e04834bf0b9fea7d3032af334af434",
        "summary.json": "9620f2c4cd33bef54a0868bdf5fd9a551d2bc2acff88a28c95f5214f3f65d10e",
    },
    "switching-run": {
        "round000_aggregate.csv": "2f926e2ccf361ce567a9ffa89b165232eabe74ac08e48b7792fcd559930b9e9a",
        "round000_local_error.csv": "5aad01b0476a5f904362eb7cf0e5c99078507bec3bc970d8243f0d4e9df50975",
        "round001_aggregate.csv": "7756c6d34cdf2a78fdce43eede881098a50232a185d56ad8dd87b8a441433081",
        "round001_local_error.csv": "786d81e7f88bb930dad4ec439f06c9a8614d1a7a9597e665e3357a6154b19438",
        "summary.json": "ce3bbc765333780b6bb6d9aa7b6726fea3e60cf28dcc98086353e5f553b78571",
    },
    "table-run": {
        "round000_aggregate.csv": "6fb5839138586bc05322c18bdc3763e0a6eda4b2879edd51912def602c973af0",
        "round000_local_error.csv": "531094d64b121f5f3db3d29df006b82402e16e4d43dc1987a09ab1aeabf8d3c0",
        "round001_aggregate.csv": "6fb5839138586bc05322c18bdc3763e0a6eda4b2879edd51912def602c973af0",
        "round001_local_error.csv": "e4fdf4f62d9cfba6b0210c865a6368ddeb84491908a66f890d0d8e2b000e3545",
        "summary.json": "32d02ee2690d7bf886d12e895289b117e224bf2a16f6ed4f5174442a2c798380",
    },
}


def run_case(name, tmp_path):
    config, command = CASES[name]
    if config is None:
        config = SWITCHING_SCENARIO
    if isinstance(config, dict):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config))
    else:
        path = bundled_config_path(config)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*command, "--config", str(path), "--out", str(out)])
    assert code == 0
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


def test_switching_scenario_covers_multi_share_and_dummy_rounds():
    report = run_scenario(ScenarioConfig.from_dict(SWITCHING_SCENARIO))
    first, second = report.rounds
    assert first.failure is None and second.failure is None
    assert first.traffic.message_count > len(first.active_ids)  # some vehicle has k > 1
    assert second.dummy_ids == ("__dummy__",)
