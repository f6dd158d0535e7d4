"""The quick demos run to completion.

Demos 03 and 05 are left out: they repeat the table and strong-order work of
the acceptance tests at about a minute each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochtaylor

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(stochtaylor.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", [
    "01_exact_coefficients.py",
    "02_truncation_errors.py",
    "04_sampling_and_validation.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
