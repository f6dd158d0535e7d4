import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stochtaylor

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(stochtaylor.__file__).resolve().parents[1])
MODULES = ["stochtaylor"] + sorted(
    f"stochtaylor.{m.name}" for m in pkgutil.iter_modules(stochtaylor.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion must take its exports with it
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def test_benchmark_tracer_finds_every_span():
    # the benchmark's tracer patches package functions by name and raises on
    # a missing one; a rename must fail here, not only in the benchmark
    code = ("import sys\n"
            "import stochtaylor, stochtaylor.cli\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "from spans import Tracer\n"
            "Tracer().install()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
