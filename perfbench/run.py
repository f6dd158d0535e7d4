"""stochtaylor benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) with BLAS
threads pinned to 1, one closed-loop client at a time.  Repetitions repeat
until the run is as close to ``--seconds`` as whole repetitions allow.
With ``--trace 0`` the result carries the end-to-end metrics (medians over
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and the result carries the per-layer metrics.  Every repetition's outputs are checked; ``failed`` counts the
operations (tables, step-size runs, Monte Carlo cases) that raised or failed
their gate.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tables-cold", "sde-bilinear", "sde-gbm", "mc-oracle")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# set-up is short next to the timed section, so a run adds set-up-only
# repetitions until it has SETUP_SAMPLES set-up times to take the median of,
# spending at most SETUP_BUDGET of --seconds on them
SETUP_SAMPLES = 9
SETUP_BUDGET = 0.2

# spans that must fire on a workload, so a rename cannot silently zero a layer
EXPECTED_SPANS = {
    "tables-cold": ["cli.main", "planner.reproduce_table", "planner.minimal_order",
                    "planner.minimal_order_kfact", "errors.normalized_error",
                    "coefficients.get_tensor", "coefficients.build_tensor"],
    "sde-bilinear": ["planner.scheme_plan", "planner.minimal_order",
                     "errors.normalized_error", "coefficients.get_tensor",
                     "coefficients.build_tensor", "schemes.integrate_batch",
                     "schemes.StepContext.sample", "schemes.step", "sampling.make_panel",
                     "sampling.sample_ito"],
    "mc-oracle": ["errors.exact_error", "errors.normalized_error",
                  "coefficients.get_tensor", "coefficients.build_tensor",
                  "sampling.wiener_increments", "sampling.discretization_oracle",
                  "sampling.zetas_from_increments", "sampling.sample_ito"],
}
EXPECTED_SPANS["sde-gbm"] = EXPECTED_SPANS["sde-bilinear"] + ["schemes.estimate_strong_order"]

LAYERS = ("coefficients", "errors", "planner", "sampling", "schemes", "cli")


def _checkout_problem() -> str | None:
    for path in ("BENCHMARK.json", os.path.join("src", "stochtaylor", "__init__.py")):
        if not os.path.isfile(path):
            return f"{path} not found; run from the root of a stochtaylor checkout"
    return None


def _git_rev() -> str:
    """Commit of the checkout, read from .git without leaving the directory."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas_threads": 1,
        "git_rev": _git_rev(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"})
    return env


def run_rep(workload, seed, rep, traced, size, timeout, setup_only=False) -> dict | None:
    """One repetition in a fresh interpreter; None when it crashed or timed out."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--t-spawn", repr(t_spawn), "--trace", str(int(traced)),
           "--size", size] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"rep {rep}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    print(f"rep {rep}: worker exited with {proc.returncode} and no result", file=sys.stderr)
    return None


def _span(raw, name):
    calls, total, child = raw["spans"].get(name, (0, 0.0, 0.0))
    return calls, total, total - child


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw: dict, untraced_total: float, traced_total: float,
                  declared) -> dict:
    """Per-layer metrics of one traced repetition; shares are of the untraced
    end-to-end time (set-up plus timed section).  ``declared`` names the
    per-table metrics to report."""
    counters, edges = raw["counters"], raw["edges"]
    m = {}
    for layer in LAYERS:
        self_s = sum(total - child for name, (_, total, child) in raw["spans"].items()
                     if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = _ratio(self_s, untraced_total)

    calls, total, self_s = _span(raw, "coefficients.build_tensor")
    entries = counters.get("coefficients.entries", 0)
    m["coefficients.build_tensor.self_s"] = self_s
    m["coefficients.build_tensor.calls"] = calls
    m["coefficients.entries"] = entries
    m["coefficients.entries_per_s"] = _ratio(entries, total)
    calls, _, _ = _span(raw, "coefficients.get_tensor")
    m["coefficients.get_tensor.calls"] = calls
    m["coefficients.get_tensor.hit_ratio"] = _ratio(
        counters.get("coefficients.get_tensor.hits", 0), calls)
    m["coefficients.nonzero_frac"] = _ratio(counters.get("coefficients.nonzero", 0), entries)

    calls, _, self_s = _span(raw, "errors.normalized_error")
    m["errors.normalized_error.self_s"] = self_s
    m["errors.normalized_error.calls"] = calls

    calls, _, self_s = _span(raw, "planner.minimal_order")
    m["planner.minimal_order.self_s"] = self_s
    m["planner.minimal_order.calls"] = calls
    m["planner.minimal_order.probes_per_call"] = _ratio(
        edges.get("planner.minimal_order>errors.normalized_error", 0), calls)
    m["planner.minimal_order_kfact.self_s"] = _span(raw, "planner.minimal_order_kfact")[2]
    m["planner.scheme_plan.s"] = _span(raw, "planner.scheme_plan")[1]
    for name in declared:
        if name.startswith("planner.reproduce_table."):
            m[name] = counters.get(name, 0.0)

    calls, _, self_s = _span(raw, "sampling.sample_ito")
    m["sampling.sample_ito.self_s"] = self_s
    m["sampling.sample_ito.calls"] = calls
    m["sampling.sample_ito.paths_per_s"] = _ratio(counters.get("sampling.sample_ito.paths", 0), self_s)
    for name in ("sampling.make_panel", "schemes.StepContext.sample",
                 "sampling.wiener_increments", "sampling.discretization_oracle",
                 "sampling.zetas_from_increments"):
        m[f"{name}.self_s"] = _span(raw, name)[2]

    calls, _, self_s = _span(raw, "schemes.step")
    m["schemes.step.self_s"] = self_s
    m["schemes.step.calls"] = calls
    m["schemes.step.path_steps_per_s"] = _ratio(counters.get("schemes.step.paths", 0), self_s)
    m["schemes.integrate_batch.s"] = _span(raw, "schemes.integrate_batch")[1]
    m["schemes.estimate_strong_order.s"] = _span(raw, "schemes.estimate_strong_order")[1]

    m["cli.main.self_s"] = _span(raw, "cli.main")[2]
    m["trace.overhead_frac"] = traced_total / untraced_total - 1.0
    return m


# each workload's headline figure for the summary line, from its work count
# per repetition and its median timed seconds
HEADLINE = {
    "tables-cold": ("tables_s", "s", lambda work, wall: wall),
    "sde-bilinear": ("path_steps_per_s", "1/s", lambda work, wall: work / wall),
    "sde-gbm": ("path_steps_per_s", "1/s", lambda work, wall: work / wall),
    "mc-oracle": ("mc_paths_per_s", "1/s", lambda work, wall: work / wall),
}


def _declared(kind: str) -> dict:
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stochtaylor benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the smoke test")
    args = ap.parse_args(argv)
    # a terminated run kills and reaps its worker (subprocess.run does so on
    # any exception), instead of leaving it orphaned
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = _checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    start = time.monotonic()
    plain, traced = [], []
    attempted = failed = 0
    rep = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        # stop when one more repetition would end further from --seconds
        # than stopping now does
        done = (elapsed >= args.seconds - longest / 2 and plain
                and (traced or not args.trace))
        if done or elapsed + longest > RUN_LIMIT_S:
            break
        is_traced = bool(args.trace) and rep % 2 == 1
        t0 = time.monotonic()
        res = run_rep(args.workload, args.seed, rep, is_traced, args.size,
                      max(5.0, RUN_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        if res is None:
            attempted += 1
            failed += 1
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            (traced if is_traced else plain).append(res)
            print(f"rep {rep}{' traced' if is_traced else ''}: setup {res['setup_s']:.3f} s, "
                  f"timed {res['wall_s']:.3f} s, rss {res['rss_mb']:.1f} MB, "
                  f"{res['attempted'] - res['failed']}/{res['attempted']} ok")
        rep += 1
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    setups = [r["setup_s"] for r in plain]
    extra_start = time.monotonic()
    longest_setup = max(setups)
    while (len(setups) < SETUP_SAMPLES and not args.trace
           and time.monotonic() - extra_start < SETUP_BUDGET * args.seconds
           and time.monotonic() - start + 2 * longest_setup < RUN_LIMIT_S):
        res = run_rep(args.workload, args.seed, rep, False, args.size,
                      max(5.0, RUN_LIMIT_S - (time.monotonic() - start)), setup_only=True)
        if res is None:
            attempted += 1
            failed += 1
        else:
            setups.append(res["setup_s"])
            print(f"rep {rep} set-up only: setup {res['setup_s']:.3f} s")
        rep += 1

    def med(reps, key):
        return statistics.median(r[key] for r in reps)

    setup_s, wall_s = statistics.median(setups), med(plain, "wall_s")
    name, unit, fn = HEADLINE[args.workload]
    print(f"summary: {name} {fn(plain[0]['work'], wall_s):.6g} {unit}, "
          f"fail_frac {failed / attempted:.6g}, repetitions {len(plain)}")

    if args.trace:
        missing = [s for s in EXPECTED_SPANS[args.workload]
                   if all(t["trace"]["spans"].get(s, (0,))[0] == 0 for t in traced)]
        if missing:
            print(f"error: spans never fired on {args.workload}: {missing}", file=sys.stderr)
            return 1
        declared = _declared("per_layer")
        untraced_total = setup_s + wall_s
        per_rep = [layer_metrics(t["trace"], untraced_total, t["setup_s"] + t["wall_s"],
                                 declared) for t in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": med(plain, "rss_mb")}
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": declared[k]} for k in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
