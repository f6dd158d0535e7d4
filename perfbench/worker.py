"""One repetition of one benchmark workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The repetition sets the
workload up, runs its timed section, checks every output against the
workload's correctness gate and prints one JSON line: set-up and timed
seconds, peak resident memory, operations attempted and failed, and, when
traced, the raw span statistics.

The program receives only inputs generated here: table ids, problem
matrices, step sizes, path counts and integer seeds derived from the run's
``--seed`` and the repetition index.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from stochtaylor import cli, errors, planner, sampling, schemes

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# sizes: "full" is what the benchmark measures, "tiny" is for the smoke test
# ---------------------------------------------------------------------------

SIZES = {
    "tables-cold": {"full": {"tables": (2, 3, 9, 13, 15, 16, 21, 22, 25)},
                    "tiny": {"tables": (3, 25)}},
    "sde-bilinear": {"full": {"paths": 2000, "T": 4.0, "steps": 16},
                     "tiny": {"paths": 200, "T": 1.0, "steps": 4}},
    "sde-gbm": {"full": {"paths": 2000, "exps": (4, 5, 6, 7)},
                "tiny": {"paths": 500, "exps": (4, 5, 6, 7)}},
    "mc-oracle": {"full": {"paths": 10_000, "chunk": 10_000, "grid": 2048},
                  "tiny": {"paths": 1000, "chunk": 500, "grid": 256}},
}

# ---------------------------------------------------------------------------
# correctness gates (pure functions, so the smoke test can feed them
# corrupted outputs)
# ---------------------------------------------------------------------------


def load_digests() -> dict:
    with open(os.path.join(HERE, "table_digests.json")) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables_gate(outputs: dict, digests: dict) -> list:
    """One verdict per table: CSV byte-identical to the recorded digest."""
    return [out is not None and digest(out) == digests[str(tid)]
            for tid, out in outputs.items()]


def mean_gate(xT: np.ndarray, exact: np.ndarray) -> bool:
    """Every component's sample mean within 4 standard errors of E[x_T]."""
    if xT is None or not np.all(np.isfinite(xT)):
        return False
    se = xT.std(axis=0, ddof=1) / math.sqrt(xT.shape[0])
    return bool(np.all(np.abs(xT.mean(axis=0) - exact) <= 4.0 * se))


def _products(x: np.ndarray) -> np.ndarray:
    """Per-path x_a x_b for a <= b, one column per pair."""
    a, b = np.triu_indices(x.shape[1])
    return x[:, a] * x[:, b]


def _mean_within(samples: np.ndarray, mean: np.ndarray, var: np.ndarray, k: float) -> bool:
    """Every column's sample mean within k exact standard errors of ``mean``."""
    if samples is None or not np.all(np.isfinite(samples)):
        return False
    se = np.sqrt(var / samples.shape[0])
    return bool(np.all(np.abs(samples.mean(axis=0) - mean) <= k * se))


# x_a x_b is heavy-tailed at T = 4 (per-path skewness up to 44): the heaviest
# of 240 000 paths alone moved its 2000-path mean by 3.8 exact standard
# errors, so the gate allows 8.  Over those 120 means the largest deviation
# was 4.0.
SECOND_MOMENT_K = 8.0


def second_moment_gate(xT: np.ndarray, m2: np.ndarray, m4: np.ndarray) -> bool:
    """Every entry of the sample E[x_T x_T^T] near the exact one.

    The mean alone cannot see the sampler's variances and correlations: every
    Ito integral of a step has mean zero, so E[x_T] is the product of the
    drift factors whatever the integrals' covariance.  The second moment
    depends on it.  The standard error comes from the exact fourth moment,
    because the sample one is small exactly when a heavy tail is missing.
    """
    if xT is None:
        return False
    a, b = np.triu_indices(xT.shape[1])
    return _mean_within(_products(xT), m2[a, b], m4[a, b, a, b] - m2[a, b] ** 2,
                        SECOND_MOMENT_K)


def wiener_gate(W: np.ndarray, T: float) -> bool:
    """Sample E[W_T W_T^T] within 5 standard errors of T times the identity.

    Sharper than the second moment of x_T for the first-order increments:
    their variances and their independence across channels.
    """
    if W is None:
        return False
    a, b = np.triu_indices(W.shape[1])
    diag = a == b
    return _mean_within(_products(W), T * diag, T * T * (1.0 + diag), 5.0)


T15_MIN_SLOPE = 1.3  # acceptance criterion 8's tolerance for t15


def slope_gate(est) -> bool:
    return (est is not None and all(math.isfinite(e) and e > 0 for e in est.errors)
            and est.slope >= T15_MIN_SLOPE)


def mc_gate(case_stats: dict, grid: int) -> bool:
    """Criterion 7's rule for every cap: |emp - exact| <= 4 se + k^2 / N."""
    if case_stats is None:
        return False
    for k, emp, se, exact in case_stats.values():
        if not abs(emp - exact) <= 4.0 * se + k * k / grid:
            return False
    return True


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series."""
    norm = float(np.abs(M).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    X = M / 2.0**s
    E = term = np.eye(M.shape[0])
    for n in range(1, 30):
        term = term @ X / n
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def linear_moment(A, Bs, x0, T, order: int) -> np.ndarray:
    """E[x_T (x) ... (x) x_T], ``order`` factors, for dx = A x dt + sum_i B_i x dW^i.

    By Ito's formula the mean of the tensor power solves a linear ODE whose
    generator applies A to each factor in turn and B_i to each pair of
    factors.  Order 1 gives expm(A T) x0.
    """
    n = len(x0)

    def on(mats):  # Kronecker product with mats[f] on factor f, I elsewhere
        out = np.eye(1)
        for f in range(order):
            out = np.kron(out, mats.get(f, np.eye(n)))
        return out

    gen = sum(on({f: A}) for f in range(order))
    for B in Bs:
        for f, g in itertools.combinations(range(order), 2):
            gen = gen + on({f: B, g: B})
    power = np.ones(1)
    for _ in range(order):
        power = np.kron(power, x0)
    return (expm(gen * T) @ power).reshape((n,) * order)


def _guarded(fn, *args):
    """Run one operation; a raise is reported and counted as a failure."""
    try:
        return fn(*args)
    except Exception:  # an operation that raises fails its gate
        traceback.print_exc(file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# workloads: setup(size, seeds) -> state; run(state) -> outputs;
# gate(state, outputs) -> one bool per operation
# ---------------------------------------------------------------------------


class TablesCold:
    """Published tables through the CLI, from a cold process.

    The table set is fixed and has no random input, so the seed is unused.
    """

    def setup(self, size, seeds):
        return {"ids": tuple(size["tables"]), "digests": load_digests()}

    def _one(self, tid):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["tables", "--id", str(tid), "--format", "csv"])
        return buf.getvalue() if code == 0 else None

    def run(self, state):
        return {tid: _guarded(self._one, tid) for tid in state["ids"]}

    def gate(self, state, outputs):
        return tables_gate(outputs, state["digests"])

    def work(self, state):
        return len(state["ids"])


# the default bilinear2d matrices, passed explicitly so the gate knows A
BILINEAR_A = np.array([[0.2, -0.3], [0.1, 0.1]])
BILINEAR_B1 = np.array([[0.4, 0.1], [0.0, 0.3]])
BILINEAR_B2 = np.array([[0.0, -0.25], [0.35, 0.05]])
BILINEAR_X0 = np.array([1.0, 1.0])


class SdeBilinear:
    """Order-2.5 scheme on the m=2 non-commutative bilinear system."""

    def setup(self, size, seeds):
        h = size["T"] / size["steps"]
        return {
            "problem": schemes.bilinear_problem(BILINEAR_A, BILINEAR_B1, BILINEAR_B2),
            "plan": planner.scheme_plan(2.5, h),
            "size": size,
            "seed": int(seeds[0]),
            "exact": {order: linear_moment(BILINEAR_A, (BILINEAR_B1, BILINEAR_B2),
                                           BILINEAR_X0, size["T"], order)
                      for order in (1, 2, 4)},
        }

    def _one(self, state):
        size = state["size"]
        return schemes.integrate_batch(state["problem"], "t25", BILINEAR_X0, size["T"],
                                       size["steps"], size["paths"], state["seed"],
                                       plan=state["plan"])

    def run(self, state):
        return _guarded(self._one, state)

    def gate(self, state, outputs):
        xT, W = outputs if outputs is not None else (None, None)
        exact = state["exact"]
        return [mean_gate(xT, exact[1]) and second_moment_gate(xT, exact[2], exact[4])
                and wiener_gate(W, state["size"]["T"])]

    def work(self, state):
        return state["size"]["paths"] * state["size"]["steps"]


class SdeGbm:
    """Strong order of t15 on GBM against the path-coupled exact solution."""

    def setup(self, size, seeds):
        steps = [2.0**-e for e in size["exps"]]
        for h in steps:
            planner.scheme_plan(1.5, h)
        return {"problem": schemes.gbm_problem(), "steps": steps,
                "paths": size["paths"], "seed": int(seeds[0])}

    def _one(self, state):
        return schemes.estimate_strong_order(state["problem"], "t15", state["steps"],
                                             state["paths"], [1.0], 1.0,
                                             seed=state["seed"], reference="exact")

    def run(self, state):
        return _guarded(self._one, state)

    def gate(self, state, est):
        # one operation per step size; the slope is a property of all of them
        return [slope_gate(est)] * len(state["steps"])

    def work(self, state):
        return state["paths"] * sum(round(1.0 / h) for h in state["steps"])


MC_CASES = [
    ((0, 0), (1, 2)),
    ((0, 0), (1, 1)),
    ((1, 0), (1, 2)),
    ((0, 0, 0), (1, 2, 3)),
    ((0, 0, 0), (1, 1, 2)),
]
MC_CAPS = (0, 2, 5)


class McOracle:
    """Criterion 7's Monte Carlo check against the discretization oracle."""

    def setup(self, size, seeds):
        exact = {}
        for profile, indices in MC_CASES:
            pattern = errors.IndexPattern.from_indices(indices)
            for p in MC_CAPS:
                exact[(profile, indices, p)] = errors.exact_error(profile, pattern, p,
                                                                  1.0).value
        return {"size": size, "seeds": [int(s) for s in seeds[:len(MC_CASES)]],
                "exact": exact}

    def _case(self, state, profile, indices, seed):
        size = state["size"]
        grid, p_max = size["grid"], max(MC_CAPS)
        spec = sampling.IntegralSpec(profile, indices, 1.0)
        rng = np.random.Generator(np.random.Philox(seed))
        sums = dict.fromkeys(MC_CAPS, 0.0)
        sqsums = dict.fromkeys(MC_CAPS, 0.0)
        done = 0
        while done < size["paths"]:
            n = min(size["chunk"], size["paths"] - done)
            inc = sampling.wiener_increments(rng, max(indices), grid, 1.0, paths=n)
            oracle = sampling.discretization_oracle(spec, inc)
            panel = sampling.zetas_from_increments(inc, p_max, 1.0)
            for p in MC_CAPS:
                d = (oracle - sampling.sample_ito(spec, p, panel)) ** 2
                sums[p] += float(d.sum())
                sqsums[p] += float((d * d).sum())
            done += n
        stats = {}
        for p in MC_CAPS:
            emp = sums[p] / done
            se = math.sqrt(max(sqsums[p] / done - emp**2, 0.0) / done)
            stats[p] = (len(profile), emp, se, state["exact"][(profile, indices, p)])
        return stats

    def run(self, state):
        return [_guarded(self._case, state, profile, indices, seed)
                for (profile, indices), seed in zip(MC_CASES, state["seeds"])]

    def gate(self, state, outputs):
        return [mc_gate(stats, state["size"]["grid"]) for stats in outputs]

    def work(self, state):
        return state["size"]["paths"] * len(MC_CASES)


WORKLOADS = {
    "tables-cold": TablesCold,
    "sde-bilinear": SdeBilinear,
    "sde-gbm": SdeGbm,
    "mc-oracle": McOracle,
}


def rep_seeds(seed: int, rep: int, n: int = 8) -> list:
    return [int(s) for s in np.random.SeedSequence([seed, rep]).generate_state(n)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--t-spawn", dest="t_spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before it started "
                         "this interpreter")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", dest="setup_only", action="store_true",
                    help="stop when the timed section is ready and report only setup_s")
    args = ap.parse_args(argv)
    # stay on one core: a migration costs the repetition its warm caches
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    state = workload.setup(SIZES[args.workload][args.size], rep_seeds(args.seed, args.rep))
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": t_ready - args.t_spawn}))
        return 0
    outputs = workload.run(state)
    wall = time.monotonic() - t_ready
    verdicts = workload.gate(state, outputs)
    result = {
        "setup_s": t_ready - args.t_spawn,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": workload.work(state),
        "attempted": len(verdicts),
        "failed": sum(1 for ok in verdicts if not ok),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
