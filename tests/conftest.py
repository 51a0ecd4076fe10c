"""Shared acceptance-result registry and its end-of-run summary hook.

tests/test_acceptance.py records one entry per top-level requirement it
checks; the hook below prints a PASS/FAIL line for each after the normal
pytest summary, so the verdicts stay visible even with output capture on.
"""

import os

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_configure(config):
    # pyproject's ``pythonpath = ["src"]`` only reaches this interpreter;
    # child interpreters (``python -m speedshare.cli`` in test_cli.py) need
    # the same source root on PYTHONPATH.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label, ok, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if ok else "FAIL"
        suffix = f": {detail}" if detail else ""
        terminalreporter.write_line(f"[{verdict}] {label}{suffix}")
