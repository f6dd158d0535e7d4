"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload emits every declared metric with its unit,
that a traced run emits every per-layer metric, that a corrupted output is
counted as failed, and that the benchmark refuses to run outside a checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import worker  # noqa: E402  (needs the paths above)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_flipped_table_cell_is_counted_as_failed():
    wl = worker.TablesCold()
    state = wl.setup(worker.SIZES["tables-cold"]["tiny"], worker.rep_seeds(1, 0))
    outputs = wl.run(state)
    assert wl.gate(state, outputs) == [True] * len(outputs)
    tid, text = next(iter(outputs.items()))
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)  # first cell of a q-grid row
    lines[1] = ",".join(cells)
    outputs[tid] = "".join(lines)
    verdicts = wl.gate(state, outputs)
    assert sum(not ok for ok in verdicts) == 1


def _bilinear_tiny():
    wl = worker.SdeBilinear()
    state = wl.setup(worker.SIZES["sde-bilinear"]["tiny"], worker.rep_seeds(1, 0))
    return wl, state


def test_shifted_mean_is_counted_as_failed():
    wl, state = _bilinear_tiny()
    xT, W = wl.run(state)
    assert wl.gate(state, (xT, W)) == [True]
    se = xT.std(axis=0, ddof=1) / np.sqrt(xT.shape[0])
    shifted = xT.copy()
    # put the first component's sample mean 5 standard errors off E[x_T]
    shifted[:, 0] += state["exact"][1][0] - xT[:, 0].mean() + 5.0 * se[0]
    assert wl.gate(state, (shifted, W)) == [False]


@pytest.mark.parametrize("corrupt", ["tripled", "shared"])
def test_corrupted_increment_is_counted_as_failed(monkeypatch, corrupt):
    """A second channel's increment tripled, or the first channel's reused:
    E[x_T] stays as it is, so only the moment gates can catch it."""
    sample = worker.schemes.StepContext.sample.__func__

    def corrupted(cls, *args, **kwargs):
        ctx = sample(cls, *args, **kwargs)
        dw1, dw2 = ctx.values[((0,), (1,))], ctx.values[((0,), (2,))]
        ctx.values[((0,), (2,))] = 3.0 * dw2 if corrupt == "tripled" else dw1
        return ctx

    monkeypatch.setattr(worker.schemes.StepContext, "sample", classmethod(corrupted))
    wl, state = _bilinear_tiny()
    xT, W = wl.run(state)
    exact = state["exact"]
    assert worker.mean_gate(xT, exact[1])
    assert not worker.wiener_gate(W, state["size"]["T"])
    if corrupt == "tripled":
        assert not worker.second_moment_gate(xT, exact[2], exact[4])
    assert wl.gate(state, (xT, W)) == [False]


def test_moments_match_their_closed_forms():
    A, x0 = worker.BILINEAR_A, worker.BILINEAR_X0
    Bs = (worker.BILINEAR_B1, worker.BILINEAR_B2)
    mean = worker.expm(A * 4.0) @ x0
    assert np.allclose(worker.linear_moment(A, Bs, x0, 4.0, 1), mean, rtol=1e-13)
    zero = np.zeros_like(A)
    m2 = worker.linear_moment(A, (zero, zero), x0, 4.0, 2)
    assert np.allclose(m2, np.outer(mean, mean), rtol=1e-13)
    # the fourth moment's pair contractions agree with the second moment at T = 0
    m4 = worker.linear_moment(A, Bs, x0, 0.0, 4)
    assert np.allclose(m4, np.einsum("a,b,c,d->abcd", x0, x0, x0, x0))


def test_refuses_to_run_outside_a_checkout():
    proc = _run("tables-cold", 0, cwd=HERE)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_expm_matches_series_identity():
    A = worker.BILINEAR_A
    E = worker.expm(A * 8.0)
    assert np.allclose(worker.expm(A * 4.0) @ worker.expm(A * 4.0), E, rtol=1e-13)
    assert np.allclose(E @ worker.expm(-A * 8.0), np.eye(2), atol=1e-13)

