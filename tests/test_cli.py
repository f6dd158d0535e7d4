import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochtaylor
from stochtaylor import cli, coefficients
from stochtaylor.cli import main


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestBasics:
    def test_usage_error_exit_2(self, capsys):
        assert main(["truncate"]) == 2  # missing required flags

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_domain_error_exit_1(self, capsys):
        code = run_cli("error", "--weights", "0,0", "--pattern", "1,2,3",
                       "--p", "1", "--step", "1.0")[0]
        assert code == 1

    def test_determinism(self):
        argv = ["mse", "--spec", "00", "--i", "1,2", "--p", "0", "--step", "1",
                "--paths", "2000", "--grid", "64", "--seed", "9"]
        c1, o1 = run_cli(*argv)
        c2, o2 = run_cli(*argv)
        assert c1 == c2 == 0
        assert o1 == o2

    def test_config_echo(self):
        _, out = run_cli("error", "--weights", "0,0", "--p", "2", "--step", "0.5")
        assert out.splitlines()[0].startswith("> stochtaylor error")


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, capsys):
        # one parser serves every call in a process; a usage error in between leaves
        # nothing behind, so each stdout is that of the same call in a new interpreter
        calls = [("tables", "--id", "3"), ("error", "--p", "2"),
                 ("error", "--weights", "0,1", "--p", "3", "--step", "0.5"),
                 ("tables", "--id", "3")]
        here = [run_cli(*argv) for argv in calls]
        assert [code for code, _ in here] == [0, 2, 0, 0]
        assert cli._build_parser() is cli._build_parser()
        env = dict(os.environ)
        src = str(Path(stochtaylor.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys; from stochtaylor.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv, (status, out) in zip(calls, here):
            done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, timeout=120)
            assert (done.returncode, done.stdout) == (status, out.encode()), argv


class TestSubcommands:
    def test_truncate_published_entry(self):
        code, out = run_cli("truncate", "--weights", "0,0,0",
                            "--pattern", "distinct", "--step", "0.011",
                            "--order-exp", "4")
        assert code == 0
        assert out.splitlines()[-1] == "12"

    def test_truncate_published_entry_fine_step(self):
        code, out = run_cli("truncate", "--weights", "0,0,0",
                            "--pattern", "distinct", "--step", "0.0035",
                            "--order-exp", "4")
        assert code == 0
        assert out.splitlines()[-1] == "36"

    def test_truncate_store_ceiling_names_the_search(self, monkeypatch, capsys):
        # the (0,0,0,0) search at h = 0.0005 meets the 10^8 store ceiling at cap 75
        # after minutes; a ceiling of 10^4 floats meets it at cap 7
        for name in ("_prefix_cache", "_bonnet_cache", "_tensor_cache"):
            monkeypatch.setattr(coefficients, name, {})
        monkeypatch.setattr(coefficients, "ENTRY_CEILING", 10**4)
        code, out = run_cli("truncate", "--weights", "0,0,0,0", "--step", "0.0005",
                            "--order-exp", "5")
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: no cap below 7 satisfies E <= 1.0*(T-t)^5 for profile "
                              "(0, 0, 0, 0), step 0.0005: at cap 7 the store shape")
        assert err.rstrip().endswith("exceeds ceiling 10000")

    def test_truncate_k_is_usage_error(self, capsys):
        # the multiplicity is the length of the weights; there is no --k
        code, out = run_cli("truncate", "--k", "3", "--weights", "0,0,0",
                            "--step", "0.011", "--order-exp", "4")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_error_values(self):
        code, out = run_cli("error", "--weights", "00", "--pattern", "1,2",
                            "--p", "0", "--step", "1.0")
        assert code == 0
        assert "exact_error 0.25" in out
        assert "kfact_bound 0.5" in out

    def test_kfact_bound_is_kfact_times_the_distinct_error(self):
        # the exact bound 2 * (1/2 - sum C^2) at p = 49 is 2/396 = 1/198
        code, out = run_cli("error", "--weights", "00", "--p", "49", "--step", "1")
        assert code == 0
        assert "exact_error 0.00252525252525" in out
        assert "kfact_bound 0.00505050505051" in out

    def test_error_jsonl(self):
        code, out = run_cli("error", "--weights", "00", "--pattern", "distinct",
                            "--p", "0", "--step", "1.0", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["exact_error"] == pytest.approx(0.25)
        assert {k: rec[k] for k in ("command", "weights", "pattern", "p", "step")} == {
            "command": "error", "weights": "00", "pattern": "distinct", "p": 0, "step": 1.0}

    def test_error_csv_is_usage_error(self, capsys):
        # error prints markdown lines or one JSON record; it has no CSV form
        code, out = run_cli("error", "--weights", "00", "--p", "0", "--step", "1.0",
                            "--format", "csv")
        assert code == 2
        assert out == ""

    def test_tables_markdown(self):
        code, out = run_cli("tables", "--id", "23", "--format", "md")
        assert code == 0
        assert "| p | 0 | 0 | 1 | 2 | 4 | 8 |" in out
        assert "117649" in out

    def test_tables_csv(self):
        code, out = run_cli("tables", "--id", "10", "--format", "csv")
        assert code == 0
        assert "q(2.1.a),0,2,32,512" in out

    def test_tables_bad_id(self):
        assert run_cli("tables", "--id", "99")[0] == 1

    def test_tables_jsonl_is_usage_error(self, capsys):
        # tables print markdown or CSV only; jsonl must not silently fall back
        code, out = run_cli("tables", "--id", "10", "--format", "jsonl")
        assert code == 2
        assert out == ""

    def test_coeffs_is_usage_error(self, capsys):
        # the coefficient store and its subcommand are gone
        code, out = run_cli("coeffs", "build", "--weights", "0", "--p", "1")
        assert code == 2
        assert out == ""

    def test_plan(self):
        code, out = run_cli("plan", "--scheme", "2.0", "--step", "0.25")
        assert code == 0
        assert "I_(00) q=8" in out
        assert "I_(000) q=2" in out
        assert "I_(0000) q=0" in out

    def test_plan_names(self, capsys):
        # each order's plan is named by the order or by its fullest scheme
        for name in ("1.0", "1.5", "2.0", "2.5", "milstein", "t15", "t20", "t25"):
            assert run_cli("plan", "--scheme", name, "--step", "0.5")[0] == 0
        assert run_cli("plan", "--scheme", "euler", "--step", "0.5")[0] == 2

    def test_plan_lists_profiles_by_multiplicity(self):
        code, out = run_cli("plan", "--scheme", "t25", "--step", "0.5")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()[1:]]
        assert listed == ["I_(0)", "I_(1)", "I_(2)", "I_(00)", "I_(01)", "I_(10)",
                          "I_(000)", "I_(001)", "I_(010)", "I_(100)", "I_(0000)",
                          "I_(00000)"]

    def test_mse_output(self):
        code, out = run_cli("mse", "--spec", "00", "--i", "1,2", "--p", "0",
                            "--step", "1", "--paths", "4000", "--grid", "128",
                            "--seed", "3")
        assert code == 0
        assert "exact 0.25" in out
        lines = dict(l.split(None, 1) for l in out.splitlines()[1:])
        assert abs(float(lines["z"])) < 6.0

    def test_check_hypothesis(self):
        code, out = run_cli("check", "--weights", "0,1", "--order-exp", "5",
                            "--step", "0.005")
        assert code == 0
        assert "distinct q = 8" in out
        assert "dominated" in out.splitlines()[-1]

    def test_check_unpublished_profile(self, capsys):
        code, out = run_cli("check", "--weights", "2,0", "--order-exp", "4", "--step", "0.1")
        assert code == 1
        err = capsys.readouterr().err
        assert "no published cases for profile (2, 0)" in err
        assert "(0, 0), (0, 1), (1, 0)" in err

    def test_integrate(self):
        code, out = run_cli("integrate", "--scheme", "milstein", "--problem", "gbm",
                            "--h", "0.25", "--T", "1", "--paths", "500", "--seed", "4")
        assert code == 0
        assert "strong_error" in out

    @pytest.mark.parametrize("argv,message", [
        (("integrate", "--paths", "0"), "at least 1, got 0 and 2"),
        (("integrate", "--paths", "-3"), "at least 1, got -3 and 2"),
        (("order", "--steps", "0,0.5,0.25"), "positive and finite, got 0.0"),
        (("order", "--steps", "0.5,0.5,0.5"), "at least 3 distinct step sizes"),
        (("order", "--problem", "bilinear", "--steps", "0.25,0.125,0.0625"), "no exact solution"),
    ])
    def test_run_rejected(self, argv, message, capsys):
        flags = ["--h", "0.5", "--T", "1"] if argv[0] == "integrate" else ["--paths", "10"]
        code, out = run_cli(*argv, "--scheme", "milstein", *flags)
        assert code == 1
        assert out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("integrate", "--scheme", "t15", "--problem", "bilinear", "--h", "0.25", "--T", "1",
          "--paths", "10", "--seed", "1", "--x0", "nan"),
         "x0 must be n = 2 finite values, got [nan, nan]"),
        (("order", "--scheme", "t15", "--problem", "gbm", "--steps", "0.5,0.25,0.125",
          "--paths", "10", "--x0", "0"), "strong error at step h = 0.5 is 0.0"),
        (("truncate", "--weights", "00", "--pattern", "1,2,3", "--step", "0.1",
          "--order-exp", "4"), "pattern multiplicity 3 != profile 2"),
        (("error", "--weights", "0,0,0", "--p", "300", "--step", "1"),
         "above the Legendre degree ceiling 200"),
        (("error", "--weights", "0,x", "--p", "1", "--step", "1"),
         "--weights: entry 'x' is not an integer"),
        (("mse", "--spec", "00", "--i", "1,x", "--p", "1"), "--i: entry 'x' is not an integer"),
        (("error", "--weights", "000", "--pattern", "1,x", "--p", "1", "--step", "1"),
         "--pattern: entry 'x' is not an integer"),
        (("error", "--weights", "000", "--pattern", "1x|23", "--p", "1", "--step", "1"),
         "--pattern: entry 'x' is not an integer"),
        (("order", "--scheme", "t15", "--steps", "0.1,abc,0.2"),
         "--steps: entry 'abc' is not a number"),
    ])
    def test_degenerate_start_rejected(self, argv, message, capsys):
        assert run_cli(*argv) == (1, "")
        assert message in capsys.readouterr().err

    def test_underflowing_step_keeps_the_normalized_error(self):
        # (1e-200)^3 underflows: the error at the step is 0, at T - t = 1 it is not
        code, out = run_cli("error", "--weights", "0,0,0", "--p", "2", "--step", "1e-200")
        assert code == 0
        assert "exact_error 0" in out.splitlines()
        _, unit = run_cli("error", "--weights", "0,0,0", "--p", "2", "--step", "1")
        assert out.splitlines()[2] == unit.splitlines()[2] == "normalized 0.0502494331066"
        code, out = run_cli("error", "--weights", "0,0,0", "--p", "2", "--step", "1e-120",
                            "--format", "jsonl")
        assert code == 0
        assert json.loads(out)["exact_error"] == 0.0

    @pytest.mark.parametrize("argv,message", [
        (("error", "--weights", "0,0", "--pattern", "1,2", "--p", "5", "--step", "1e308"),
         "T_minus_t=1e+308 ** 2 overflows a float"),
        (("check", "--weights", "0,0,0", "--order-exp", "4", "--step", "1e200"),
         "T_minus_t=1e+200 ** 3 overflows a float"),
        (("mse", "--spec", "00", "--i", "1,2", "--p", "1", "--step", "1e308", "--paths", "4",
          "--grid", "4"), "T_minus_t=1e+308 ** 2 overflows a float"),
    ])
    def test_overflowing_step_rejected(self, argv, message, capsys):
        assert run_cli(*argv) == (1, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("step,lines", [
        # the empirical mean falls short of the exact error: the z keeps its sign
        ("1e-160", ["exact 2.499972168e-321", "empirical 1.912034049e-321", "stderr 0",
                    "z -inf"]),
        # both underflow to 0: a tie is no deviation
        ("1e-300", ["exact 0", "empirical 0", "stderr 0", "z +0.000"]),
    ])
    def test_mse_z_without_standard_error(self, step, lines):
        code, out = run_cli("mse", "--spec", "00", "--i", "1,2", "--p", "0", "--paths", "10",
                            "--grid", "2", "--step", step)
        assert code == 0
        assert out.splitlines()[1:] == lines

    def test_mse_basis_overflow_rejected(self, capsys):
        # (2j+1)/(T-t) overflows below a step of about 1e-308: no nan z is printed
        code, out = run_cli("mse", "--spec", "0", "--i", "1", "--p", "0", "--paths", "10",
                            "--grid", "4", "--step", "1e-320")
        assert (code, out) == (1, "")
        assert "overflows at degree 0, step T-t = 1e-320" in capsys.readouterr().err

    def test_mse_paths_rejected(self, capsys):
        code, _ = run_cli("mse", "--spec", "00", "--i", "1,2", "--p", "0", "--paths", "0")
        assert code == 1
        assert "paths must be at least 2, got 0" in capsys.readouterr().err

    def test_mse_one_path_rejected(self, capsys):
        # one path gives no standard error, so no z
        code, out = run_cli("mse", "--spec", "00", "--i", "1,2", "--p", "0", "--paths", "1",
                            "--grid", "64", "--seed", "1")
        assert (code, out) == (1, "")
        assert "paths must be at least 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_mse_grid_rejected(self, capsys, grid):
        code, _ = run_cli("mse", "--spec", "00", "--i", "1,2", "--p", "0",
                          "--grid", grid, "--paths", "10")
        assert code == 1
        assert f"need at least a 2-point grid, got N={grid}" in capsys.readouterr().err

    def test_order(self):
        code, out = run_cli("order", "--scheme", "euler", "--problem", "gbm",
                            "--steps", "0.125,0.0625,0.03125", "--paths", "500",
                            "--seed", "4")
        assert code == 0
        assert "slope" in out.splitlines()[-1]


# stdout of seeded scheme runs, recorded once; any change to a sampler, a
# step or the panel width that moves a digit fails here
_GBM = ("integrate", "--problem", "gbm", "--h", "0.125", "--T", "1", "--paths", "2000",
        "--seed", "3")
_BILINEAR = ("integrate", "--problem", "bilinear", "--h", "0.25", "--T", "1",
             "--paths", "2000", "--seed", "3")
_ORDER = ("order", "--scheme", "t15", "--problem", "gbm",
          "--steps", "0.0625,0.03125,0.015625,0.0078125", "--paths", "2000", "--seed", "7")
SEEDED_GOLDENS = [
    ((*_GBM, "--scheme", "milstein"),
     "> stochtaylor integrate scheme=milstein problem=gbm h=0.125 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 1.6116996\n"
     "final_std 1.8865997\n"
     "strong_error 0.089772804\n"),
    ((*_GBM, "--scheme", "t15"),
     "> stochtaylor integrate scheme=t15 problem=gbm h=0.125 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 1.689047\n"
     "final_std 2.3496082\n"
     "strong_error 0.018051078\n"),
    ((*_GBM, "--scheme", "t20"),
     "> stochtaylor integrate scheme=t20 problem=gbm h=0.125 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 1.6233824\n"
     "final_std 2.1569956\n"
     "strong_error 0.0027380888\n"),
    ((*_GBM, "--scheme", "t25"),
     "> stochtaylor integrate scheme=t25 problem=gbm h=0.125 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 1.6371651\n"
     "final_std 2.2612317\n"
     "strong_error 0.00048847827\n"),
    ((*_BILINEAR, "--scheme", "milstein"),
     "> stochtaylor integrate scheme=milstein problem=bilinear h=0.25 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 0.86954583 1.1974784\n"
     "final_std 0.62832506 0.56569801\n"),
    ((*_BILINEAR, "--scheme", "t15"),
     "> stochtaylor integrate scheme=t15 problem=bilinear h=0.25 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 0.85832813 1.1801195\n"
     "final_std 0.64919234 0.5774646\n"),
    ((*_BILINEAR, "--scheme", "t25"),
     "> stochtaylor integrate scheme=t25 problem=bilinear h=0.25 T=1.0 x0=1.0 paths=2000 seed=3\n"
     "final_mean 0.84193304 1.1717678\n"
     "final_std 0.63745055 0.55018774\n"),
    (_ORDER,
     "> stochtaylor order scheme=t15 problem=gbm steps=0.0625,0.03125,0.015625,0.0078125"
     " paths=2000 T=1.0 x0=1.0 seed=7\n"
     "h 0.0625 error 0.0068903157\n"
     "h 0.03125 error 0.0026474027\n"
     "h 0.015625 error 0.00093577523\n"
     "h 0.0078125 error 0.00038482211\n"
     "slope 1.3987 stderr 0.0285 ci [1.3417, 1.4558]\n"),
]

# stdout of seeded Monte Carlo validations: 25000 paths reduce in chunks of 20000
# and 5000, 3000 paths in one chunk
MSE_GOLDENS = [
    (("mse", "--spec", "000", "--i", "1,2,3", "--p", "2", "--paths", "25000", "--grid", "64",
      "--seed", "5"),
     "> stochtaylor mse spec=000 i=1,2,3 p=2 step=1.0 paths=25000 grid=64 seed=5\n"
     "exact 0.05024943311\n"
     "empirical 0.0488339893\n"
     "stderr 0.0007386\n"
     "z -1.916\n"),
    (("mse", "--spec", "10", "--i", "1,2", "--p", "5", "--paths", "3000", "--grid", "128",
      "--seed", "3"),
     "> stochtaylor mse spec=10 i=1,2 p=5 step=1.0 paths=3000 grid=128 seed=3\n"
     "exact 0.007271477551\n"
     "empirical 0.007333260379\n"
     "stderr 0.0002212\n"
     "z +0.279\n"),
]


class TestSeededGoldens:
    @pytest.mark.parametrize("argv,expected", SEEDED_GOLDENS,
                             ids=["gbm-milstein", "gbm-t15", "gbm-t20", "gbm-t25", "bilinear-milstein",
                                  "bilinear-t15", "bilinear-t25", "order-gbm-t15"])
    def test_stdout_byte_identical(self, argv, expected):
        assert run_cli(*argv) == (0, expected)

    @pytest.mark.parametrize("argv,expected", MSE_GOLDENS, ids=["two-chunks", "one-chunk"])
    def test_mse_stdout_byte_identical(self, argv, expected):
        assert run_cli(*argv) == (0, expected)
