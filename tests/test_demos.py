"""Every demo, and the README's library quick tour, runs to completion.

Demos 03 and 05 repeat the table and strong-order work of the acceptance
tests; each takes under ten seconds on two cores.
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
    "03_minimal_caps_and_tables.py",
    "04_sampling_and_validation.py",
    "05_strong_schemes.py",
])
def test_demo_runs(name):
    done = _run_python([str(ROOT / "demos" / name)])
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quick_tour_runs():
    # the first python block after the quick-tour heading, as a reader copies it
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    done = _run_python(["-c", tour.split("```", 1)[0]])
    assert done.returncode == 0, done.stderr[-2000:]


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=600)
