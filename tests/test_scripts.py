"""The experiment scripts in scripts/ run to completion at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("sweep_spectra.py", ["--omegas", ":012,0:12", "--max-level", "4"]),
        ("residual_decay.py", ["--omega", ":012", "--level", "1", "--radii", "3,5", "--bound-k", "3"]),
        ("growth_table.py", ["--omegas", ":012,:01", "--radius", "4"]),
        ("certify_levels.py", ["--level", "6"]),
    ],
)
def test_script_exits_zero(script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("omega = ")
