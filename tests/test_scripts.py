"""The experiment scripts under scripts/ run end to end at a small degree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hesscomb.symgroup import MAX_SWEEP_DEGREE

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        ("component_survey.py", ("--n", "4", "--only-mixed"), "40 pairs surveyed, 3 with mixed top dimensions"),
        ("component_survey.py", ("--n", "3"), "12 pairs surveyed, 0 with mixed top dimensions"),
        ("component_survey.py", ("--n", "5"), "112 pairs surveyed, 23 with mixed top dimensions"),
    ],
)
def test_script_exits_zero(script, args, last_line):
    result = _run(script, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line


def test_survey_caps_n_at_the_harness_degree():
    result = _run("component_survey.py", "--n", str(MAX_SWEEP_DEGREE + 1))
    assert result.returncode == 2
    assert f"--n must be between 1 and {MAX_SWEEP_DEGREE}" in result.stderr


def _run(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
