"""Command-line interface.

Subcommands: ``error``, ``truncate``, ``plan``, ``tables``, ``check``,
``mse``, ``integrate``, ``order``.  Every run echoes its resolved
configuration, as a ``>`` line or inside the record of ``error --format
jsonl``, so output is reproducible byte-for-byte from the same argv and
seed.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import coefficients, errors, planner, sampling, schemes

# a plan is named by its order or by the fullest scheme of that order
_PLAN_ORDERS = {**{str(o): o for o in planner.SCHEME_ORDERS},
                **{s: o for s, o in planner.SCHEME_ORDER.items() if s != "euler"}}


def _config(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _echo_config(args, keys):
    parts = [f"{k}={v}" for k, v in _config(args, keys).items()]
    print(f"> stochtaylor {args.command} " + " ".join(parts))


def _entries(option, parts, kind=int):
    """Each of ``parts`` as a ``kind``; a malformed entry is an error that names ``option``."""
    out = []
    for part in parts:
        try:
            out.append(kind(part))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{option}: entry {part!r} is not {what}") from None
    return out


def _parse_weights(text, option="--weights"):
    text = text.strip()
    if "," in text or " " in text:
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)  # compact form: "00" means (0, 0)
    return coefficients.WeightProfile(_entries(option, parts))


def _parse_pattern(args, k):
    if args.pattern in ("distinct", None):
        return errors.IndexPattern.distinct(k)
    if args.pattern in ("equal", "all-equal"):
        return errors.IndexPattern.all_equal(k)
    if "|" in args.pattern:
        blocks = [tuple(_entries("--pattern", b)) for b in args.pattern.split("|")]
        return errors.IndexPattern(k, blocks)
    return errors.IndexPattern.from_indices(_entries("--pattern", args.pattern.split(",")))


def _cmd_error(args):
    profile = _parse_weights(args.weights)
    pattern = _parse_pattern(args, profile.k)
    res = errors.exact_error(profile, pattern, args.p, args.step)
    bound = errors.error_bound_kfact(profile, args.p, args.step)
    keys = ["weights", "pattern", "p", "step", "format"]
    if args.format == "jsonl":
        print(json.dumps({"command": args.command, **_config(args, keys),
                          "exact_error": res.value, "normalized": res.normalized,
                          "kfact_bound": bound}))
    else:
        _echo_config(args, keys)
        print(f"exact_error {res.value:.12g}")
        print(f"normalized {res.normalized:.12g}")
        print(f"kfact_bound {bound:.12g}")
    return 0


def _cmd_truncate(args):
    profile = _parse_weights(args.weights)
    pattern = _parse_pattern(args, profile.k)
    cond = planner.Condition(args.order_exp, args.constant, args.strict)
    q = planner.minimal_order(profile, pattern, cond, args.step)
    _echo_config(args, ["weights", "pattern", "step", "order_exp", "constant", "strict"])
    print(q)
    return 0


def _cmd_plan(args):
    plan = planner.scheme_plan(_PLAN_ORDERS[args.scheme], args.step, args.constant)
    _echo_config(args, ["scheme", "step", "constant"])
    for weights, cap in plan.items():
        print(f"I_({''.join(map(str, weights))}) q={cap}")
    return 0


def _cmd_tables(args):
    table = planner.reproduce_table(args.id)
    print(table.to_csv() if args.format == "csv" else table.to_markdown())
    return 0


def _cmd_check(args):
    profile = _parse_weights(args.weights)
    cond = planner.Condition(args.order_exp, args.constant)
    rep = planner.check_hypothesis(profile, cond, args.step)
    _echo_config(args, ["weights", "order_exp", "step", "constant"])
    print(f"distinct q = {rep.distinct_q}")
    for c in rep.cases:
        flag = " VIOLATION" if c.q > rep.distinct_q else ""
        over = " exceeds-threshold" if c.exceeds_at_distinct_q else ""
        print(f"q({c.label}) = {c.q}  E@{rep.distinct_q} = {c.error_at_distinct_q:.6e}{flag}{over}")
    print("dominated" if rep.dominated else "violated")
    return 0


def _cmd_mse(args):
    profile = _parse_weights(args.spec, "--spec")
    indices = tuple(_entries("--i", args.i.split(",")))
    spec = sampling.IntegralSpec(profile, indices, args.step)
    pattern = errors.IndexPattern.from_indices(indices)
    exact = errors.exact_error(profile, pattern, args.p, args.step).value
    rng = np.random.Generator(np.random.Philox(args.seed))
    mean, se = sampling.oracle_mse([spec], [args.p], rng, args.paths, args.grid)[spec, args.p]
    _echo_config(args, ["spec", "i", "p", "step", "paths", "grid", "seed"])
    print(f"exact {exact:.10g}")
    print(f"empirical {mean:.10g}")
    print(f"stderr {se:.4g}")
    z = (mean - exact) / se if se > 0 else (mean - exact) * float("inf") if mean != exact else 0.0
    print(f"z {z:+.3f}")
    return 0


def _cmd_integrate(args):
    problem = _get_problem(args.problem)
    n_steps = schemes.grid_steps(args.T, args.h)
    x0 = [args.x0] * problem.n
    xT, WT = schemes.integrate_batch(problem, args.scheme, x0, args.T, n_steps,
                                     args.paths, args.seed)
    _echo_config(args, ["scheme", "problem", "h", "T", "x0", "paths", "seed"])
    mean = xT.mean(axis=0)
    std = xT.std(axis=0)
    print("final_mean " + " ".join(f"{v:.8g}" for v in mean))
    print("final_std " + " ".join(f"{v:.8g}" for v in std))
    if problem.exact_solution is not None:
        ref = problem.exact_solution(np.asarray(x0), args.T, WT)
        strong = np.abs(xT - ref).sum(axis=1).mean()
        print(f"strong_error {strong:.8g}")
    return 0


def _cmd_order(args):
    problem = _get_problem(args.problem)
    steps = _entries("--steps", args.steps.split(","), float)
    x0 = [args.x0] * problem.n
    est = schemes.estimate_strong_order(problem, args.scheme, steps, args.paths,
                                        x0, args.T, seed=args.seed)
    _echo_config(args, ["scheme", "problem", "steps", "paths", "T", "x0", "seed"])
    for h, e in zip(est.steps, est.errors):
        print(f"h {h:.8g} error {e:.8g}")
    lo, hi = est.confidence_interval
    print(f"slope {est.slope:.4f} stderr {est.stderr:.4f} ci [{lo:.4f}, {hi:.4f}]")
    return 0


def _get_problem(name: str) -> schemes.SdeProblem:
    if name == "gbm":
        return schemes.gbm_problem()
    if name == "bilinear":
        return schemes.bilinear_problem()
    raise ValueError(f"unknown problem {name!r}; available: gbm, bilinear")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stochtaylor",
                                 description="Mean-square optimal approximation of "
                                             "iterated Ito integrals and strong "
                                             "Taylor SDE schemes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("error", help="exact mean-square truncation error")
    p.add_argument("--weights", required=True)
    p.add_argument("--pattern", default="distinct",
                   help="'distinct', 'equal', blocks '12|3', or indices '1,1,2'")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--format", choices=("md", "jsonl"), default="md")
    p.set_defaults(fn=_cmd_error)

    p = sub.add_parser("truncate", help="minimal cap meeting the mean-square condition")
    p.add_argument("--weights", required=True)
    p.add_argument("--pattern", default="distinct")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--order-exp", dest="order_exp", type=int, required=True)
    p.add_argument("--constant", type=float, default=1.0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("plan", help="per-scheme truncation plan")
    p.add_argument("--scheme", required=True, choices=list(_PLAN_ORDERS))
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--constant", type=float, default=1.0)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("tables", help="reproduce a published table")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("check", help="distinct-case dominance hypothesis check")
    p.add_argument("--weights", required=True)
    p.add_argument("--order-exp", dest="order_exp", type=int, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--constant", type=float, default=1.0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("mse", help="Monte Carlo validation against the discretization oracle")
    p.add_argument("--spec", required=True, help="weight exponents, e.g. 00 or 0,0")
    p.add_argument("--i", required=True, help="Wiener components, e.g. 1,2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_mse)

    p = sub.add_parser("integrate", help="integrate a bundled SDE problem")
    p.add_argument("--scheme", required=True, choices=list(planner.SCHEME_ORDER))
    p.add_argument("--problem", default="gbm")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=1.0)
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("order", help="empirical strong convergence order")
    p.add_argument("--scheme", required=True, choices=list(planner.SCHEME_ORDER))
    p.add_argument("--problem", default="gbm")
    p.add_argument("--steps", required=True, help="comma-separated step sizes")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=1.0)
    p.set_defaults(fn=_cmd_order)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, planner.PlannerCapError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
