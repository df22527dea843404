"""End-to-end command-line tests through subprocess."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

BENCH_HEADER = (
    "name,n,variant,seed,converged,iterations,f_final,grad_inf_norm,wall_ms,error"
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse JSON text; NaN, Infinity and -Infinity, which are not JSON, raise ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cubicmin", *args],
        capture_output=True,
        text=True,
        timeout=kwargs.pop("timeout", 300),
        **kwargs,
    )


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("problems")
    (d / "oned.json").write_text(
        '{"n": 1, "c": [1.0], "Q": [[0.0]], "sigma": 1.0}\n'
    )
    (d / "worked.json").write_text(
        '{"n": 2, "c": [-2.0, 0.0], "Q": [[1.0, 0.0], [0.0, -3.0]],'
        ' "sigma": 1.0, "name": "worked"}\n'
    )
    (d / "indefzero.json").write_text(
        '{"n": 2, "c": [0.0, 0.0], "Q": [[-1.0, 0.0], [0.0, 1.0]], "sigma": 1.0}\n'
    )
    (d / "convexzero.json").write_text(
        '{"n": 2, "c": [0.0, 0.0], "Q": [[1.0, 0.0], [0.0, 1.0]], "sigma": 1.0}\n'
    )
    (d / "asym.json").write_text(
        '{"n": 2, "c": [0.0, 0.0], "Q": [[1.0, 0.5], [0.0, 1.0]], "sigma": 1.0}\n'
    )
    (d / "big_c.json").write_text(
        '{"n": 2, "c": [1e300, 2e300], "Q": [[1e50, 0], [0, 3e50]], "sigma": 1}\n'
    )
    return d


class TestSolve:
    def test_secular_one_dimensional(self, problem_dir):
        out = run_cli(
            "solve", str(problem_dir / "oned.json"), "--method", "secular",
            "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["objective"] == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert rec["lambda"] == pytest.approx(1.0, abs=1e-6)
        assert rec["is_global"] is True

    def test_escapes_matches_secular(self, problem_dir):
        a = run_cli(
            "solve", str(problem_dir / "oned.json"), "--method", "escapes",
            "--seed", "7", "--format", "structured",
        )
        assert a.returncode == 0
        rec = strict_json(a.stdout)
        assert rec["objective"] == pytest.approx(-2.0 / 3.0, abs=1e-8)

    def test_cross_method_agreement_worked(self, problem_dir):
        recs = {}
        for method in ("secular", "escapes"):
            out = run_cli(
                "solve", str(problem_dir / "worked.json"), "--method", method,
                "--format", "structured",
            )
            assert out.returncode == 0
            recs[method] = strict_json(out.stdout)
        gap = abs(recs["secular"]["objective"] - recs["escapes"]["objective"])
        assert gap <= 1e-6
        assert recs["secular"]["objective"] == pytest.approx(-5.0, abs=1e-6)
        assert recs["secular"]["hard_case"] is True

    def test_text_output_readable(self, problem_dir):
        out = run_cli("solve", str(problem_dir / "worked.json"))
        assert out.returncode == 0
        assert "objective" in out.stdout
        assert "certificate" in out.stdout
        assert "\x1b" not in out.stdout

    def test_overflowing_load_certifies_minimizer(self, tmp_path):
        # ||c||^2 overflows; any warning in the child is an error.
        path = tmp_path / "big.json"
        path.write_text(
            '{"n": 2, "c": [1e200, 0.0], "Q": [[1.0, 0.0], [0.0, 2.0]], "sigma": 1.0}\n'
        )
        out = run_cli(
            "solve", str(path), "--method", "secular", "--format", "structured",
            env={**os.environ, "PYTHONWARNINGS": "error"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        rec = strict_json(out.stdout)
        assert math.isfinite(rec["residual"])
        assert rec["is_global"] is True
        assert rec["solution"] == pytest.approx([-1e100, 0.0], rel=1e-12)

    @pytest.mark.parametrize(
        "q, c",
        [
            ("[[1e200]]", "[1.0]"),
            ("[[1e308]]", "[1.0]"),
            ("[[1e200, 0.0], [0.0, 3e200]]", "[1.0, 2.0]"),
            ("[[-1e200]]", "[1.0]"),
        ],
    )
    def test_extreme_scale_exits_cleanly(self, tmp_path, q, c):
        # Multipliers near 1e-200 or 1e200: solve certifies and stationary
        # lists its points (0), or a solver error (2), with no traceback;
        # any warning in the child is an error.
        path = tmp_path / "extreme.json"
        n = len(strict_json(c))
        path.write_text(f'{{"n": {n}, "c": {c}, "Q": {q}, "sigma": 1.0}}\n')
        for command in ("solve", "stationary"):
            out = run_cli(
                command, str(path), "--format", "structured",
                env={**os.environ, "PYTHONWARNINGS": "error"},
            )
            assert out.returncode in (0, 2), out.stderr
            if out.returncode == 0:
                assert out.stderr == ""
                rec = strict_json(out.stdout)
                if command == "solve":
                    assert rec["is_global"] is True
            else:
                assert out.stdout == ""
                assert out.stderr.startswith("cubicmin: solver error: ConvergenceError: ")
                assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "stationary"])
    def test_hard_case_radius_past_square_range_exit_2(self, tmp_path, command):
        # Hard case at lam = 3e200, where (lam/sigma)**2 overflows: one
        # solver error line, no traceback; any warning in the child is an error.
        path = tmp_path / "hard_overflow.json"
        path.write_text(
            '{"n": 2, "c": [1e-300, 2e-300], "Q": [[-1e200, 0.0], [0.0, -3e200]],'
            ' "sigma": 1.0}\n'
        )
        out = run_cli(command, str(path), env={**os.environ, "PYTHONWARNINGS": "error"})
        assert out.returncode == 2
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: boundary multiplier 3e+200 left double"
            " range: (lam/sigma)**2 overflows at lam/sigma = 3e+200\n"
        )
        assert not out.stdout

    @pytest.mark.parametrize("command", ["solve", "stationary"])
    def test_lost_top_root_exit_2(self, tmp_path, command):
        # s* is about 1.618e200, and ||s||^2 overflows in the secular search
        # (NumPy warns of it): a ConvergenceError, where stationary listed 0
        # points and solve named a PoleEvaluation.
        path = tmp_path / "lost_root.json"
        path.write_text('{"n": 1, "c": [-1e200], "Q": [[-1.0]], "sigma": 1e-200}\n')
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        out = run_cli(command, str(path), env=env)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.splitlines()[-1] == (
            "cubicmin: solver error: ConvergenceError: secular Newton iteration lost the"
            " largest root: none found above lam = 1.0, though c is not zero"
        )

    @pytest.mark.parametrize("command", ["solve", "stationary"])
    def test_lost_top_root_one_line_under_warnings_error(self, tmp_path, command):
        # The search that would overflow ||s||^2 warns of nothing: exit 2
        # with the one solver error line, not a RuntimeWarning traceback.
        path = tmp_path / "lost_root.json"
        path.write_text('{"n": 1, "c": [-1e200], "Q": [[-1.0]], "sigma": 1e-200}\n')
        out = run_cli(command, str(path), env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: secular Newton iteration lost the"
            " largest root: none found above lam = 1.0, though c is not zero\n"
        )

    @pytest.mark.parametrize("warnings", [None, "error"])
    @pytest.mark.parametrize("command", ["solve", "stationary"])
    def test_objective_below_range_exit_2(self, tmp_path, command, warnings):
        # lam = 1.479e150 and m(s) about -2.2e450: one solver error line and
        # no NumPy warning, not m(s) = nan.
        path = tmp_path / "objective_out_of_range.json"
        path.write_text('{"n": 2, "c": [1e300, 2e300], "Q": [[1e50, 0], [0, 3e50]], "sigma": 1}\n')
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        out = run_cli(command, str(path), env=env)
        assert out.returncode == 2
        assert out.stderr.startswith(
            "cubicmin: solver error: ConvergenceError: m(s) leaves double range at lam = 1.479"
        )
        assert out.stderr.count("\n") == 1
        assert not out.stdout

    @pytest.mark.parametrize("warnings", [None, "error"])
    def test_local_solve_past_range_exit_2(self, tmp_path, warnings):
        # ||g||^2 and g.d overflow from the first iterate: the local solve
        # reports its stall without a NumPy warning.
        path = tmp_path / "objective_out_of_range.json"
        path.write_text('{"n": 2, "c": [1e300, 2e300], "Q": [[1e50, 0], [0, 3e50]], "sigma": 1}\n')
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        out = run_cli("solve", str(path), "--method", "escapes", env=env)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: local solve stalled at residual"
            " 2.236e+300 (target 2.236e+292)\n"
        )

    def test_escapes_minimizer_near_1e_200(self, tmp_path):
        # The gradient at the N(0, 1) start is about 1e200 and lambda* is
        # 1e-200; neither may warn or print lambda 0.
        path = tmp_path / "tiny_minimizer.json"
        path.write_text('{"n": 1, "c": [1.0], "Q": [[1e200]], "sigma": 1.0}\n')
        out = run_cli(
            "solve", str(path), "--method", "escapes", "--format", "structured",
            env={**os.environ, "PYTHONWARNINGS": "error"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        rec = strict_json(out.stdout)
        assert rec["is_global"] is True
        assert rec["lambda"] == pytest.approx(1e-200, rel=1e-12)
        assert rec["solution"] == pytest.approx([-1e-200], rel=1e-12)

    @pytest.mark.parametrize("command", ["solve", "stationary"])
    def test_cube_past_range_objective_is_json(self, tmp_path, command):
        # ||s*||**3 = 1e315 leaves double range, (sigma/3)||s*||^3 does not:
        # the objective is a number, not Infinity.
        path = tmp_path / "far.json"
        path.write_text('{"n": 1, "c": [-1e200], "Q": [[0.0]], "sigma": 1e-10}\n')
        out = run_cli(command, str(path), "--format", "structured",
                      env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (out.returncode, out.stderr) == (0, ""), out.stderr
        rec = strict_json(out.stdout)
        objective = rec["objective"] if command == "solve" else rec["points"][0]["objective"]
        assert objective == pytest.approx(-6.666666666666667e304, rel=1e-15)

    def test_out_flag_writes_file(self, problem_dir, tmp_path):
        dest = tmp_path / "result.json"
        out = run_cli(
            "solve", str(problem_dir / "oned.json"),
            "--format", "structured", "--out", str(dest),
        )
        assert out.returncode == 0
        rec = strict_json(dest.read_text())
        assert rec["objective"] == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_asymmetric_matrix_exit_1(self, problem_dir):
        out = run_cli("solve", str(problem_dir / "asym.json"))
        assert out.returncode == 1
        assert "Q[0][1]" in out.stderr

    def test_integer_beyond_float_range_exit_1(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n": 1, "c": [1' + "0" * 400 + '], "Q": [[1.0]], "sigma": 1.0}\n'
        )
        out = run_cli("solve", str(path))
        assert out.returncode == 1
        assert out.stderr.startswith("cubicmin: error: c[0]: expected a finite number")
        assert "Traceback" not in out.stderr

    def test_integer_beyond_digit_limit_exit_1(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text(
            '{"n": 1, "c": [1' + "0" * 5000 + '], "Q": [[1.0]], "sigma": 1.0}\n'
        )
        out = run_cli("solve", str(path))
        assert out.returncode == 1
        assert out.stderr.startswith("cubicmin: error: $: ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("depth", [100_000, 200_000])
    def test_deeply_nested_file_exit_1(self, tmp_path, depth):
        # 200,000 levels would overflow orjson's C stack; such a file goes to
        # the stdlib decoder, whose recursion limit makes it a schema error.
        path = tmp_path / "deep.json"
        path.write_text(
            '{"n": 1, "c": ' + "[" * depth + "]" * depth + ', "Q": [[1.0]], "sigma": 1.0}'
        )
        out = run_cli("stationary", str(path))
        assert out.returncode == 1
        assert out.stderr.startswith("cubicmin: error: $: nesting too deep: ")
        assert len(out.stderr.splitlines()) == 1

    def test_file_not_utf8_exit_1(self, tmp_path):
        path = tmp_path / "latin1.json"
        raw = b'{"n": 1, "c": [1.0], "Q": [[1.0]], "sigma": 1.0, "name": "\xff"}'
        path.write_bytes(raw)
        out = run_cli("solve", str(path))
        assert out.returncode == 1
        assert out.stderr == (
            f"cubicmin: error: $: not valid UTF-8 at byte {raw.index(0xFF)}: "
            "invalid start byte\n"
        )

    def test_missing_file_exit_1(self, problem_dir):
        out = run_cli("solve", str(problem_dir / "nope.json"))
        assert out.returncode == 1
        assert out.stderr.strip()

    @pytest.mark.parametrize("flag", ["--eps", "--eps2"])
    def test_tolerance_flag_needs_escapes_exit_1(self, problem_dir, flag):
        out = run_cli("solve", str(problem_dir / "worked.json"), flag, "0.1")
        assert out.returncode == 1
        assert out.stderr == f"cubicmin: error: {flag}: applies only to --method escapes\n"
        assert not out.stdout


    @pytest.mark.parametrize(
        "args, message",
        [
            (("solve", "--method", "escapes", "--eps", "inf"),
             "eps_grad must be positive and finite, got inf"),
            (("solve", "--method", "escapes", "--eps2", "inf"),
             "eps_curv must be positive and finite, got inf"),
            (("escape", "--point", "1,0", "--eps", "inf"), "eps_grad must be finite, got inf"),
            # An infinite --eps2 would certify the saddle (1, 0) as global.
            (("escape", "--point", "1,0", "--eps", "1e-8", "--eps2", "inf"),
             "eps_curv must be finite, got inf"),
        ],
        ids=["solve-eps", "solve-eps2", "escape-eps", "escape-eps2"],
    )
    def test_infinite_tolerance_exit_1(self, problem_dir, args, message):
        out = run_cli(args[0], str(problem_dir / "worked.json"), *args[1:])
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == f"cubicmin: error: {message}\n"


class TestStationary:
    def test_worked_table(self, problem_dir):
        out = run_cli("stationary", str(problem_dir / "worked.json"))
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.strip()]
        assert "bound 2(k+1) = 4" in lines[-1]
        body = lines[1:-1]
        assert len(body) == 3
        assert sum("yes" in row for row in body) == 2

    def test_indefinite_zero_c(self, problem_dir):
        out = run_cli(
            "stationary", str(problem_dir / "indefzero.json"),
            "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        lams = sorted(round(p["lambda"], 9) for p in rec["points"])
        assert lams == [0.0, 1.0, 1.0]
        assert rec["bound"] == 4

    def test_bound_counts_eigenvalues_5e_10_apart(self, tmp_path):
        path = tmp_path / "close.json"
        path.write_text(
            '{"n": 3, "c": [-3e-10, -3e-10, -0.3], "Q": [[-1.0000000005, 0.0, 0.0],'
            ' [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]], "sigma": 0.5}\n'
        )
        out = run_cli("stationary", str(path), "--format", "structured")
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert len(rec["points"]) == 5
        # 1e-9 (1 + |lam|) merges the four multipliers near 1 into one.
        assert rec["distinct_lambdas"] == 2
        assert rec["bound"] == 6

    def test_convex_zero_c(self, problem_dir):
        out = run_cli(
            "stationary", str(problem_dir / "convexzero.json"),
            "--format", "structured",
        )
        rec = strict_json(out.stdout)
        assert [p["lambda"] for p in rec["points"]] == [0.0]
        assert rec["bound"] == 2


class TestEscape:
    def test_exact_escape_from_saddle(self, problem_dir):
        out = run_cli(
            "escape", str(problem_dir / "worked.json"), "--point", "1,0",
            "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["case"] == "B_III"
        assert rec["decrease"] == pytest.approx(12.0 / 25.0, abs=1e-9)
        assert rec["s_hat"] == pytest.approx([0.6, -0.8], abs=1e-9)

    def test_approximate_escape(self, problem_dir):
        out = run_cli(
            "escape", str(problem_dir / "worked.json"), "--point", "1.001,0",
            "--eps", "1.0", "--eps2", "0.1", "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["case"] == "B_III"
        assert rec["decrease"] > 0.0

    def test_approximate_escape_enforces_eps(self, problem_dir):
        # The residual at (1.001, 0) is about 3e-3, above --eps.
        out = run_cli(
            "escape", str(problem_dir / "worked.json"), "--point", "1.001,0",
            "--eps", "1e-6", "--eps2", "0.1",
        )
        assert out.returncode == 2
        assert "NotStationary" in out.stderr
        assert not out.stdout

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--eps", "nan"), "eps_grad "),
            (("--eps", "1", "--eps2", "nan"), "eps_curv "),
            (("--eps2", "5"), "--eps2: "),
        ],
    )
    def test_bad_tolerance_flags_exit_1(self, problem_dir, flags, field):
        out = run_cli("escape", str(problem_dir / "worked.json"), "--point", "1,0", *flags)
        assert out.returncode == 1
        assert out.stderr.startswith(f"cubicmin: error: {field}")
        assert "Traceback" not in out.stderr
        assert not out.stdout

    @pytest.mark.parametrize("flags", [[], ["--eps", "1"]])
    def test_point_whose_cube_overflows_exit_2(self, tmp_path, flags):
        # ||s||**3 past double range: the point is judged, not a traceback.
        path = tmp_path / "unit.json"
        path.write_text('{"n": 1, "c": [1.0], "Q": [[1.0]], "sigma": 1.0}\n')
        out = run_cli("escape", str(path), "--point", "1e103", *flags)
        assert out.returncode == 2
        assert out.stderr.startswith(
            "cubicmin: solver error: NotStationary: residual 1e+206 exceeds "
        )
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("flags", [[], ["--eps", "1"]])
    def test_point_whose_q_s_overflows_exit_2(self, tmp_path, flags):
        # Q s overflows at (1e308, 1e308): the range test comes first, so
        # one solver error line, not a RuntimeWarning traceback.
        path = tmp_path / "saddle.json"
        path.write_text('{"n": 2, "c": [1, 0.5], "Q": [[-3, 1], [1, 2]], "sigma": 1}\n')
        out = run_cli("escape", str(path), "--point", "1e308,1e308", *flags,
                      env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: m(s) leaves double range at"
            " lam = 1.4142135623730951e+308: nan\n"
        )

    def test_move_past_double_range_exit_2(self, tmp_path):
        # The B_I step from the origin, 7.5e199 along d, takes m out of
        # double range: one solver error line, not a RuntimeWarning.
        path = tmp_path / "tiny_sigma.json"
        path.write_text(
            '{"n": 2, "c": [0.0, 0.0], "Q": [[-1.0, 0.0], [0.0, 2.0]], "sigma": 1e-200}\n')
        out = run_cli("escape", str(path), "--point", "0,0",
                      env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: m(s) leaves double range at"
            " lam = 0.75: nan\n"
        )

    def test_nonstationary_point_exit_2(self, problem_dir):
        out = run_cli(
            "escape", str(problem_dir / "worked.json"), "--point", "0.5,0.5"
        )
        assert out.returncode == 2
        assert out.stderr.strip()

    def test_global_point_reports_none(self, problem_dir):
        tau = math.sqrt(35.0) / 2.0
        out = run_cli(
            "escape", str(problem_dir / "worked.json"),
            "--point", f"0.5,{tau!r}", "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["case"] == "NONE_GLOBAL"

    def test_leading_negative_point(self, tmp_path):
        # minimizer of s + s^2/2 + |s|^3/3 sits at s = -1, so the
        # coordinate list starts with a minus sign in both flag forms
        path = tmp_path / "neg.json"
        path.write_text('{"n": 1, "c": [2.0], "Q": [[1.0]], "sigma": 1.0}\n')
        for form in (["--point", "-1"], ["--point=-1"]):
            out = run_cli("escape", str(path), *form, "--format", "structured")
            assert out.returncode == 0
            assert strict_json(out.stdout)["case"] == "NONE_GLOBAL"

    def test_malformed_point_exit_1(self, problem_dir):
        out = run_cli(
            "escape", str(problem_dir / "worked.json"), "--point", "1,zebra"
        )
        assert out.returncode == 1

    @pytest.mark.parametrize("value", ["1,,0", ",1,0", "1,0,", "1, ,0"])
    def test_empty_coordinate_in_point_exit_1(self, problem_dir, value):
        out = run_cli("escape", str(problem_dir / "worked.json"), f"--point={value}")
        assert out.returncode == 1
        assert out.stderr == f"cubicmin: error: --point: empty coordinate in {value!r}\n"
        assert not out.stdout


class TestMinimize:
    def test_sphere_converges(self):
        out = run_cli(
            "minimize", "sphere2", "--variant", "arc", "--format", "structured"
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["converged"] is True
        assert rec["f_final"] <= 1e-10

    def test_leading_negative_x0(self):
        out = run_cli(
            "minimize", "sphere2", "--x0", "-3,4", "--format", "structured"
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["converged"] is True

    def test_arc_plus_on_rosenbrock(self):
        out = run_cli(
            "minimize", "rosenbrock2", "--variant", "arc_plus",
            "--format", "structured",
        )
        rec = strict_json(out.stdout)
        assert rec["converged"] is True
        assert rec["grad_inf_norm"] <= 1e-5
        assert rec["x_final"] == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_problem_file_as_objective(self, problem_dir):
        out = run_cli(
            "minimize", str(problem_dir / "worked.json"), "--x0", "0.9,0.02",
            "--variant", "arc_plus", "--format", "structured",
        )
        assert out.returncode == 0
        rec = strict_json(out.stdout)
        assert rec["f_final"] == pytest.approx(-5.0, abs=1e-5)

    def test_nonconvergence_exit_2(self):
        out = run_cli(
            "minimize", "rosenbrock10", "--variant", "arc", "--max-iters", "2"
        )
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "objective, x0",
        [("worked", "1e103,0"), ("rosenbrock2", "1e20,1e20"), ("sphere2", "1e62,1e62")],
    )
    def test_start_beyond_power_range_exit_2(self, problem_dir, objective, x0):
        # m(x0) or the Cauchy step's powers of ||g|| leave double range.
        if objective == "worked":
            objective = str(problem_dir / "worked.json")
        out = run_cli("minimize", objective, "--x0", x0)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.splitlines()[-1].startswith("cubicmin: solver error: ")

    @pytest.mark.parametrize(
        "objective, x0, message",
        [
            ("worked", "1e103,0",
             "gradient norm 1.000e+206: the model's linear term overflows at the Cauchy point"),
            # Its message comes from the local solve and is not pinned here.
            ("rosenbrock2", "1e60,1e60", None),
        ],
        ids=["worked", "rosenbrock2"],
    )
    def test_gradient_norm_past_square_range_exit_2(self, problem_dir, objective, x0, message):
        # ||g||^2 overflows: one solver error line and no NumPy warning.
        if objective == "worked":
            objective = str(problem_dir / "worked.json")
        out = run_cli(
            "minimize", objective, "--x0", x0,
            env={**os.environ, "PYTHONWARNINGS": "error"},
        )
        assert out.returncode == 2
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cubicmin: solver error: ")
        assert "Warning" not in out.stderr
        if message is not None:
            assert lines[0] == f"cubicmin: solver error: ConvergenceError: {message}"
        assert not out.stdout

    @pytest.mark.parametrize("variant", ["arc", "arc_plus"])
    def test_start_below_step_resolution_exit_2(self, variant):
        # Every model step from 1e48 is below the float spacing of x: ARC
        # stops at its first rejection, ARC_PLUS when its first subproblem
        # solve fails; both name the step resolution.
        out = run_cli(
            "minimize", "sphere2", "--x0", "1e48,1e48", "--variant", variant,
            env={**os.environ, "PYTHONWARNINGS": "error"}, timeout=60,
        )
        assert out.returncode == 2
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0] == (
            "cubicmin: solver error: ConvergenceError: no model step can move x: steps are "
            "at most 1.189e+24 long, below half the float spacing 8.113e+31 of x "
            "(sigma = 1.000e+00)"
        )
        assert not out.stdout

    @pytest.mark.parametrize("variant", ["arc", "arc_plus"])
    @pytest.mark.parametrize("warnings", [None, "error"])
    def test_gradient_check_past_squares_range_exit_2(self, tmp_path, variant, warnings):
        # ||g||^2 overflows at x0 = 0: validating the gradient must not
        # warn before the driver rejects the model.
        path = tmp_path / "objective_out_of_range.json"
        path.write_text('{"n": 2, "c": [1e300, 2e300], "Q": [[1e50, 0], [0, 3e50]], "sigma": 1}\n')
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        out = run_cli("minimize", str(path), "--variant", variant, env=env)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: gradient norm 2.236e+300: the model's"
            " linear term overflows at the Cauchy point\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("sphere2", "--x0", "1e160,1e160", "--max-iters", "1"),
            ("rosen_coupled6", "--x0", ",".join(["1e200"] * 6)),
            ("rosenbrock2", "--x0", "1e160,1e160"),
            # f and the gradient are finite here; the Hessian is not.
            ("rosenbrock2", "--x0", "1.3e153,1.69e306"),
        ],
        ids=["sphere2", "rosen_coupled6", "rosenbrock2", "rosenbrock2_hessian"],
    )
    @pytest.mark.parametrize("warnings", [None, "error"])
    def test_callbacks_past_range_exit_2(self, args, warnings):
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        out = run_cli("minimize", *args, env=env)
        assert (out.returncode, out.stdout) == (2, "")
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cubicmin: solver error: ConvergenceError: ")

    def test_infinite_tol_exit_1(self):
        out = run_cli("minimize", "sphere2", "--tol", "inf")
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == "cubicmin: error: tol_grad_inf must be finite\n"

    @pytest.mark.parametrize("value", [",-3,4", "-3,4,", "-3,,4"])
    def test_empty_coordinate_in_x0_exit_1(self, value):
        out = run_cli("minimize", "sphere2", "--x0", value)
        assert out.returncode == 1
        assert out.stderr == f"cubicmin: error: --x0: empty coordinate in {value!r}\n"
        assert not out.stdout

    def test_unknown_objective_exit_1(self):
        out = run_cli("minimize", "not_a_problem")
        assert out.returncode == 1
        assert "not_a_problem" in out.stderr

    @pytest.mark.parametrize("args", [("--seed", "-1"), ("--seed=-1",)])
    def test_negative_seed_exit_1(self, args):
        out = run_cli("minimize", "sphere2", *args)
        assert out.returncode == 1
        assert "argument --seed: expected a non-negative integer" in out.stderr
        assert not out.stdout


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "bench.csv"
    out = run_cli(
        "bench", "sphere2,quartic_nc4", "--variants", "arc,arc_plus",
        "--seeds", "2", "--out", str(path),
    )
    assert out.returncode == 0
    return path


class TestBenchAndProfile:
    def test_row_count_and_header(self, bench_csv):
        raw = bench_csv.read_bytes().decode()
        lines = raw.splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        assert "\r" not in raw

    def test_rows_sorted_and_typed(self, bench_csv):
        with open(bench_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        keys = [(r["name"], r["variant"], int(r["seed"])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r["variant"] in ("ARC", "ARC_PLUS")
            assert r["converged"] in ("true", "false")
            int(r["iterations"])
            float(r["f_final"])
            float(r["grad_inf_norm"])
            assert float(r["wall_ms"]) >= 0.0
            assert r["error"] == ""

    def test_deterministic_metrics(self, bench_csv, tmp_path):
        again = tmp_path / "again.csv"
        out = run_cli(
            "bench", "sphere2,quartic_nc4", "--variants", "arc,arc_plus",
            "--seeds", "2", "--out", str(again),
        )
        assert out.returncode == 0

        def metrics(path):
            with open(path, newline="") as f:
                return [
                    (r["name"], r["variant"], r["seed"], r["converged"],
                     r["iterations"], r["f_final"], r["grad_inf_norm"])
                    for r in csv.DictReader(f)
                ]

        assert metrics(bench_csv) == metrics(again)

    def test_profile_from_bench(self, bench_csv, tmp_path):
        dest = tmp_path / "prof.csv"
        out = run_cli("profile", str(bench_csv), "--out", str(dest))
        assert out.returncode == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "tau,ARC,ARC_PLUS"
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0
        assert float(last[2]) == 1.0
        for row in lines[1:]:
            tau, *fracs = row.split(",")
            assert float(tau) >= 1.0
            for fr in fracs:
                assert 0.0 <= float(fr) <= 1.0

    def test_bench_directory_suite_records_partial_failures(
        self, problem_dir, tmp_path
    ):
        dest = tmp_path / "dir.csv"
        out = run_cli(
            "bench", str(problem_dir), "--variants", "arc", "--seeds", "1",
            "--out", str(dest), "--jobs", "2",
        )
        # a broken file becomes a converged=false row; the batch never aborts
        assert out.returncode == 0
        with open(dest, newline="") as f:
            rows = {r["name"]: r for r in csv.DictReader(f)}
        assert rows["asym.json"]["converged"] == "false"
        assert math.isnan(float(rows["asym.json"]["f_final"]))
        assert rows["asym.json"]["error"] == "SchemaError"
        assert rows["asym.json"]["n"] == "0"
        # a file that loads and whose solve raises keeps its name and n
        assert rows["big_c.json"]["converged"] == "false"
        assert rows["big_c.json"]["n"] == "2"
        assert rows["big_c.json"]["error"] == "ConvergenceError"
        # a file with an embedded name is reported under that name
        assert rows["worked"]["converged"] == "true"
        assert rows["worked"]["error"] == ""

    def test_bench_empty_dir_exit_1(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        out = run_cli("bench", str(empty))
        assert out.returncode == 1

    @pytest.mark.parametrize("args", [("--seeds=-3",), ("--seeds", "0,-1")])
    def test_bench_negative_seeds_exit_1(self, args, tmp_path):
        dest = tmp_path / "neg.csv"
        out = run_cli("bench", "sphere2", *args, "--out", str(dest))
        assert out.returncode == 1
        assert out.stderr.startswith("cubicmin: error: --seeds: ")
        assert not dest.exists()

    def test_bench_unknown_name_exit_1(self):
        out = run_cli("bench", "sphere2,missing_problem")
        assert out.returncode == 1
        assert "missing_problem" in out.stderr

    def test_profile_accepts_cell_converged_at_start(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "zero_c.json").write_text(
            '{"n": 2, "c": [0, 0], "Q": [[1, 0], [0, 2]], "sigma": 1}\n'
        )
        (suite / "worked.json").write_text(
            '{"n": 2, "c": [-2, 0], "Q": [[1, 0], [0, -3]], "sigma": 1}\n'
        )
        bench = tmp_path / "bench.csv"
        out = run_cli(
            "bench", str(suite), "--seeds", "1", "--jobs", "1", "--out", str(bench)
        )
        assert out.returncode == 0
        with open(bench, newline="") as f:
            zero = [r for r in csv.DictReader(f) if r["name"] == "zero_c.json"]
        assert zero and all(r["iterations"] == "0" for r in zero)
        out = run_cli("profile", str(bench))
        assert out.returncode == 0
        assert out.stdout.splitlines()[1] == "1,1,1"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_jobs_rejected_while_parsing(self, value, monkeypatch, capsys):
        # In-process, with any worker pool refused, so no worker can start.
        from cubicmin import cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "sphere2", "--jobs", value, "--seeds", "1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --jobs: expected a positive integer, got '{value}'" in err

    @pytest.mark.parametrize(
        "args, cpus, workers",
        [(("--seeds", "2", "--jobs", "8"), 1, [2]),
         (("--seeds", "2"), 8, [2]),
         (("--seeds", "3", "--jobs", "2"), 1, [2]),
         (("--seeds", "1", "--jobs", "8"), 8, [])],
    )
    def test_bench_starts_at_most_one_worker_per_cell(self, args, cpus, workers, monkeypatch,
                                                      tmp_path):
        # In-process, with a fake pool that records its size and maps
        # serially, so no worker process starts.
        from cubicmin import cli

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        dest = tmp_path / "bench.csv"
        assert cli.main(["bench", "sphere2", "--variants", "arc", *args,
                         "--out", str(dest)]) == 0
        assert asked == workers
        with open(dest, newline="") as f:
            assert len(list(csv.DictReader(f))) == int(args[1])

    def test_profile_empty_csv_exit_1(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text(BENCH_HEADER + "\n")
        out = run_cli("profile", str(src))
        assert out.returncode == 1


class TestTopLevel:
    @pytest.mark.parametrize(
        "command, flag", [("escape", "--point"), ("minimize", "--x0")]
    )
    @pytest.mark.parametrize("value", ["inf,0", "nan,0"])
    def test_nonfinite_vector_exit_1(self, problem_dir, command, flag, value):
        out = run_cli(command, str(problem_dir / "worked.json"), flag, value)
        assert out.returncode == 1
        assert out.stderr.startswith(f"cubicmin: error: {flag}: ")
        assert "Warning" not in out.stderr
        assert not out.stdout

    def test_version_flag(self):
        out = run_cli("--version")
        assert out.returncode == 0
        assert "0.1.0" in out.stdout

    def test_no_arguments_exit_1(self):
        out = run_cli()
        assert out.returncode == 1

    def test_unknown_flag_exit_1(self, problem_dir):
        out = run_cli("solve", str(problem_dir / "oned.json"), "--bogus")
        assert out.returncode == 1

    def test_no_ansi_in_any_output(self, problem_dir):
        for args in (
            ("stationary", str(problem_dir / "worked.json")),
            ("solve", str(problem_dir / "oned.json")),
        ):
            out = run_cli(*args)
            assert "\x1b" not in out.stdout
            assert "\x1b" not in out.stderr


def _without_wall_ms(text):
    return [line for line in text.splitlines() if "wall_ms" not in line]


class TestInProcess:
    """``cli.main`` builds its parser once; each call prints as a first call."""

    def test_parser_built_once(self):
        from cubicmin import cli

        assert cli._build_parser() is cli._build_parser()

    def test_repeated_calls_print_as_first_calls(
        self, problem_dir, tmp_path, monkeypatch, capsys
    ):
        from cubicmin import cli

        # Usage lines wrap at the terminal width; fix it in both processes.
        monkeypatch.setenv("COLUMNS", "80")

        def in_process(*args):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            return code, _without_wall_ms(got.out), got.err

        def first_call(*args):
            out = run_cli(*args)
            return out.returncode, _without_wall_ms(out.stdout), out.stderr

        worked = str(problem_dir / "worked.json")
        here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
        solve = ("solve", worked, "--format", "structured", "--seed", "3", "--out")
        assert in_process(*solve, str(here)) == first_call(*solve, str(fresh)) == (
            0, [], ""
        )
        assert _without_wall_ms(here.read_text()) == _without_wall_ms(
            fresh.read_text()
        )
        for code, args in [
            (0, ("solve", worked)),
            (1, ("solve", worked, "--bogus")),
            (0, ("stationary", worked)),
        ]:
            got = in_process(*args)
            assert got == first_call(*args)
            assert got[0] == code


def _mask_wall_ms(text):
    # wall_ms is the one field that varies from run to run.
    return re.sub(r'(wall_ms"?:? +)[0-9.e+-]+', r"\1X", text)


# Exact stdout of each report command, with wall_ms masked.  The fixtures'
# Q are diagonal, so eigh is exact and the bytes do not depend on the BLAS
# build.
_GOLDEN_STDOUT = {
    ("solve", "worked", "secular", "text"): """\
problem   worked  (n = 2)
method    secular
objective -5
lambda    3
solution  [0.5, 2.95803989155]
certificate  residual 0.000e+00  psd_margin 0.000e+00  global True
hard_case True
wall_ms   X
""",
    ("solve", "worked", "secular", "structured"): """\
{
  "tool": "cubicmin",
  "version": "0.1.0",
  "name": "worked",
  "n": 2,
  "method": "secular",
  "solution": [
    0.5,
    2.958039891549808
  ],
  "lambda": 3.0,
  "objective": -5.000000000000002,
  "psd_margin": 0.0,
  "residual": 0.0,
  "is_global": true,
  "hard_case": true,
  "escape_count": 0,
  "escape_cases": [],
  "wall_ms": X
}
""",
    ("solve", "oned", "secular", "text"): """\
problem   (unnamed)  (n = 1)
method    secular
objective -0.666666666667
lambda    1
solution  [-1]
certificate  residual 0.000e+00  psd_margin 1.000e+00  global True
hard_case False
wall_ms   X
""",
    ("solve", "worked", "escapes", "text"): """\
problem   worked  (n = 2)
method    escapes
objective -5
lambda    3
solution  [0.5, -2.95803989155]
certificate  residual 0.000e+00  psd_margin 0.000e+00  global True
hard_case False
escapes   0  cases NONE_GLOBAL
wall_ms   X
""",
    ("solve", "worked", "escapes", "structured"): """\
{
  "tool": "cubicmin",
  "version": "0.1.0",
  "name": "worked",
  "n": 2,
  "method": "escapes",
  "solution": [
    0.5,
    -2.958039891549808
  ],
  "lambda": 3.0,
  "objective": -5.000000000000002,
  "psd_margin": 0.0,
  "residual": 0.0,
  "is_global": true,
  "hard_case": false,
  "escape_count": 0,
  "escape_cases": [
    "NONE_GLOBAL"
  ],
  "wall_ms": X
}
""",
    ("stationary", "worked", "text"): """\
        lambda           |s|              m(s)  global
             1             1      -1.166666667  no
             3             3                -5  yes
             3             3                -5  yes
2 distinct multiplier(s) among 3 point(s); bound 2(k+1) = 4
""",
    ("stationary", "indefzero", "structured"): """\
{
  "name": null,
  "n": 2,
  "points": [
    {
      "lambda": 0.0,
      "norm": 0.0,
      "objective": 0.0,
      "is_global": false,
      "s": [
        0.0,
        0.0
      ]
    },
    {
      "lambda": 1.0,
      "norm": 1.0,
      "objective": -0.16666666666666669,
      "is_global": true,
      "s": [
        1.0,
        0.0
      ]
    },
    {
      "lambda": 1.0,
      "norm": 1.0,
      "objective": -0.16666666666666669,
      "is_global": true,
      "s": [
        -1.0,
        0.0
      ]
    }
  ],
  "distinct_lambdas": 2,
  "bound": 4
}
""",
    ("escape", "exact", "text"): """\
case      B_III  (exact tests)
s_hat     [0.6, -0.8]
decrease  0.48
""",
    ("escape", "exact", "structured"): """\
{
  "tool": "cubicmin",
  "version": "0.1.0",
  "name": "worked",
  "mode": "exact",
  "case": "B_III",
  "s_hat": [
    0.6,
    -0.8
  ],
  "decrease": 0.4800000000000002,
  "wall_ms": X
}
""",
    ("escape", "global", "text"): """\
case      NONE_GLOBAL  (exact tests)
the point is a certified global minimizer; no escape exists
""",
    ("escape", "global", "structured"): """\
{
  "tool": "cubicmin",
  "version": "0.1.0",
  "name": "worked",
  "mode": "exact",
  "case": "NONE_GLOBAL",
  "s_hat": null,
  "decrease": 0.0,
  "wall_ms": X
}
""",
    ("escape", "approx", "text"): """\
case      B_III  (approx tests)
s_hat     [0.6006, -0.8008]
decrease  0.48176128
""",
    ("escape", "approx", "structured"): """\
{
  "tool": "cubicmin",
  "version": "0.1.0",
  "name": "worked",
  "mode": "approx",
  "case": "B_III",
  "s_hat": [
    0.6006,
    -0.8007999999999998
  ],
  "decrease": 0.48176127999999974,
  "wall_ms": X
}
""",
}


class TestGoldenContract:
    """Exact stdout, stderr and exit code of ``cli.main`` (wall_ms masked).

    Report bytes are pinned where the fixtures make them exact; for
    minimize, bench and profile, whose floats come from iterative solves,
    the key order, CSV header and row shape are pinned instead.
    """

    @pytest.fixture
    def run(self, problem_dir, capsys):
        from cubicmin import cli

        fixtures = ("worked", "oned", "indefzero", "asym")

        def run(*args):
            args = [str(problem_dir / f"{a}.json") if a in fixtures else a for a in args]
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            return code, _mask_wall_ms(got.out), got.err

        return run

    @pytest.mark.parametrize("key", [k for k in _GOLDEN_STDOUT if k[0] == "solve"])
    def test_solve(self, run, key):
        _, fixture, method, fmt = key
        seed = ("--seed", "3") if method == "escapes" else ()
        got = run("solve", fixture, "--method", method, *seed, "--format", fmt)
        assert got == (0, _GOLDEN_STDOUT[key], "")

    @pytest.mark.parametrize("key", [k for k in _GOLDEN_STDOUT if k[0] == "stationary"])
    def test_stationary(self, run, key):
        _, fixture, fmt = key
        assert run("stationary", fixture, "--format", fmt) == (0, _GOLDEN_STDOUT[key], "")

    _ESCAPE_ARGS = {
        "exact": ("--point", "1,0"),
        "global": ("--point", "0.5,2.958039891549808"),
        "approx": ("--point", "1.001,0", "--eps", "1.0", "--eps2", "0.1"),
    }

    @pytest.mark.parametrize("key", [k for k in _GOLDEN_STDOUT if k[0] == "escape"])
    def test_escape(self, run, key):
        _, move, fmt = key
        got = run("escape", "worked", *self._ESCAPE_ARGS[move], "--format", fmt)
        assert got == (0, _GOLDEN_STDOUT[key], "")

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (("solve", "asym"), 1,
             "cubicmin: error: Q[0][1]: entry 0.5 differs from Q[1][0] = 0.0 beyond the"
             " 1e-9 relative symmetry tolerance\n"),
            (("solve", "worked", "--eps2", "0.1"), 1,
             "cubicmin: error: --eps2: applies only to --method escapes\n"),
            (("escape", "worked", "--point", "1,0", "--eps2", "5"), 1,
             "cubicmin: error: --eps2: applies only with --eps (the approximate tests)\n"),
            (("escape", "worked", "--point", "0.5,0.5"), 2,
             "cubicmin: solver error: NotStationary: residual 1.6213203435596426 exceeds"
             " 3.0000000000000004e-08\n"),
            (("escape", "worked", "--point", "1.001,0", "--eps", "1e-6", "--eps2", "0.1"), 2,
             "cubicmin: solver error: NotStationary: residual 0.0030009999999995873"
             " exceeds 1e-06\n"),
            (("minimize", "nosuch"), 1,
             "cubicmin: error: objective: unknown problem 'nosuch'; registered: quartic_nc4,"
             " rosen_coupled6, rosenbrock10, rosenbrock2, sphere2\n"),
            (("bench", "sphere2", "--variants", "foo", "--jobs", "1"), 1,
             "cubicmin: error: --variants: unknown variant 'foo'\n"),
            (("profile", "worked"), 1, "cubicmin: error: name: missing bench CSV column\n"),
        ],
    )
    def test_error_line(self, run, args, code, err):
        assert run(*args) == (code, "", err)

    def test_minimize_shape(self, run):
        code, out, err = run("minimize", "sphere2", "--x0", "-3,4", "--max-iters", "1",
                             "--format", "structured")
        assert (code, err) == (2, "")
        assert list(strict_json(out.replace("X", "0"))) == [
            "tool", "version", "name", "variant", "converged", "iterations",
            "f_final", "grad_inf_norm", "x_final", "wall_ms",
        ]
        code, out, err = run("minimize", "sphere2", "--x0", "-3,4", "--max-iters", "1")
        assert (code, err) == (2, "")
        assert [line.split()[0] for line in out.splitlines()] == [
            "objective", "converged", "f_final", "grad_inf", "x_final", "wall_ms",
        ]
        assert out.startswith("objective sphere2  (n = 2, variant ARC_PLUS)\n"
                              "converged False after 1 iterations\n")
        assert out.endswith("wall_ms   X\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_bench_and_profile_shape(self, run, tmp_path, fmt):
        # Both write CSV whatever --format says.
        code, out, err = run("bench", "sphere2", "--seeds", "2", "--jobs", "1",
                             "--format", fmt)
        assert (code, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert lines[0] == BENCH_HEADER + "\n"
        assert [line.split(",")[:6] for line in lines[1:]] == [
            ["sphere2", "2", variant, seed, "true", iters]
            for variant, iters in (("ARC", "5"), ("ARC_PLUS", "5"))
            for seed in ("0", "1")
        ]
        for line in lines[1:]:
            fields = line.rstrip("\n").split(",")
            assert len(fields) == 10 and fields[-1] == ""
            assert fields[6] == repr(float(fields[6]))
            assert re.fullmatch(r"[0-9]+\.[0-9]{3}", fields[8])
        src = tmp_path / "bench.csv"
        src.write_text(out)
        assert run("profile", str(src), "--format", fmt) == (0, "tau,ARC,ARC_PLUS\n1,1,1\n", "")


class TestStrictJson:
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '{"objective": Infinity}'])
    def test_non_json_constants_raise(self, text):
        with pytest.raises(ValueError, match="is not JSON$"):
            strict_json(text)


class TestOverflowingNormC:
    """Finite entries of c whose norm overflows: a solver error, not a
    certificate at s = 0 with tol_grad = inf."""

    @pytest.mark.parametrize(
        "argv", [["solve"], ["solve", "--method", "escapes"], ["stationary"]],
        ids=["solve", "solve-escapes", "stationary"],
    )
    def test_exit_2_one_line(self, tmp_path, argv):
        path = tmp_path / "norm_c_overflows.json"
        path.write_text(
            '{"n": 2, "c": [1.5e308, 1.5e308], "Q": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.01}\n'
        )
        out = run_cli(argv[0], str(path), *argv[1:],
                      env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "cubicmin: solver error: ConvergenceError: ||c|| overflows, so no tolerance"
            " relative to it is finite\n"
        )
