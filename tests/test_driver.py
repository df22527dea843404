"""Escape-driven global solves, the outer optimizer, and the profile table."""

import math

import numpy as np
import pytest

from cubicmin import CubicModel
from cubicmin import driver, linalg
from cubicmin import model as model_mod
from cubicmin.driver import (
    ArcOptions,
    arc_plus_minimize,
    cauchy_step,
    count_bound,
    performance_profile,
    solve_via_escapes,
)
from cubicmin.exceptions import (
    BoundExceeded,
    ConvergenceError,
    EmptyInput,
    ThresholdNotMet,
    ToleranceFloor,
)
from cubicmin.model import StationaryPoint, eval_model, grad, is_global
from cubicmin.problems import DEFAULT_SUITE, cubic_objective, get_problem
from cubicmin.stationary import global_minimize

from .helpers import random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)


class TestSolveViaEscapes:
    def test_convex_no_escapes(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        sol, trace = solve_via_escapes(m, np.array([0.7, -0.3]))
        assert trace.escape_count == 0
        assert np.linalg.norm(sol.s_star) <= 1e-6
        assert sol.certificate.is_global

    def test_worked_instance_reaches_global(self):
        sol, trace = solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        assert sol.objective == pytest.approx(-5.0, abs=1e-6)
        assert trace.escape_count <= count_bound(WORKED)
        assert sol.certificate.is_global

    def test_bi_escape_from_origin_saddle(self):
        # with c = 0 the origin is stationary, so the local solve stops
        # there and only the B_I move can leave it
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0)
        sol, trace = solve_via_escapes(m, np.zeros(2))
        assert sol.objective == pytest.approx(-1.0 / 6.0, abs=1e-9)
        tags = [tag for (_, tag, _) in trace.steps]
        assert tags[0] == "B_I"
        assert trace.escape_count == 1

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            solve_via_escapes(WORKED, np.zeros(2), eps_grad=0.0)
        with pytest.raises(ValueError):
            solve_via_escapes(WORKED, np.zeros(2), eps_curv=-1.0)

    def test_trace_objectives_strictly_decrease(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            m = random_model(rng, nmax=5)
            s0 = rng.uniform(-2.0, 2.0, size=m.n)
            sol, trace = solve_via_escapes(m, s0)
            vals = [obj for (_, _, obj) in trace.steps]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert trace.escape_count <= count_bound(m) + 2
            assert trace.steps[-1][1] == "NONE_GLOBAL"
            assert trace.steps[-1][2] == sol.objective

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_direct_global_minimize(self, seed):
        rng = np.random.default_rng(7000 + seed)
        m = random_model(rng)
        s0 = rng.uniform(-2.0, 2.0, size=m.n)
        sol, _ = solve_via_escapes(m, s0)
        direct = global_minimize(m)
        assert abs(sol.objective - direct.objective) <= 1e-6

    def test_certificate_comes_from_the_escape(self, monkeypatch):
        # The final point was judged by its escape; it is not judged again.
        calls = []
        real = driver.model_mod.is_global

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(driver.model_mod, "is_global", counting)
        sol, _ = solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        assert sol.certificate.is_global
        assert calls == []

    def test_rounding_sign_of_c_s_defers_to_certificate(self):
        # With c = 1e-200 the local solve ends near s = 1e-15, where c.s > 0
        # comes from rounding alone and the sign flip cannot decrease m.
        m = CubicModel([1e-200], [[1.0]], 1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sol, trace = solve_via_escapes(m, rng.normal(size=1))
            assert sol.certificate.is_global
            assert trace.escape_count == 0


class TestSolveViaEscapesRecovery:
    """The driver's answers to escape failures, forced by a stand-in escape."""

    def _patch(self, monkeypatch, respond):
        # respond(call_index, real_escape, m, s_bar, tol) returns an
        # EscapeOutcome or raises; the list records each call's eps_grad.
        real = driver.escape_mod.escape_approx
        tols = []

        def fake(m, s_bar, tol, direction=None):
            tols.append(tol.eps_grad)
            return respond(len(tols) - 1, real, m, s_bar, tol)

        monkeypatch.setattr(driver.escape_mod, "escape_approx", fake)
        return tols

    def test_one_threshold_failure_tightens_and_retries(self, monkeypatch):
        def respond(i, real, m, s_bar, tol):
            if i == 0:
                raise ThresholdNotMet("forced")
            return real(m, s_bar, tol)

        tols = self._patch(monkeypatch, respond)
        sol, trace = solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        assert sol.certificate.is_global
        assert sol.objective == pytest.approx(-5.0, abs=1e-6)
        assert tols[0] == WORKED.default_tol_grad()
        assert tols[1] == tols[0] / 10.0
        assert len(trace.steps) == len(tols) - 1

    def test_repeated_threshold_failure_hits_floor(self, monkeypatch):
        def respond(i, real, m, s_bar, tol):
            raise ThresholdNotMet("forced")

        tols = self._patch(monkeypatch, respond)
        with pytest.raises(ToleranceFloor):
            solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        expected = [WORKED.default_tol_grad()]
        for _ in range(6):
            expected.append(expected[-1] / 10.0)
        assert tols == expected

    def test_endless_escapes_exceed_bound(self, monkeypatch):
        def respond(i, real, m, s_bar, tol):
            return driver.escape_mod.EscapeOutcome(
                case_tag="B_II",
                point=StationaryPoint.from_vector(m, s_bar),
                s_hat=np.array(s_bar),
                decrease=1.0,
            )

        tols = self._patch(monkeypatch, respond)
        with pytest.raises(BoundExceeded):
            solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        assert len(tols) == count_bound(WORKED) + 3


class TestSolutionArrays:
    """Both global solvers return s_star as a read-only copy."""

    def test_read_only_and_not_the_trace_point(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_model(rng, nmax=5)
            sol, trace = solve_via_escapes(m, rng.normal(size=m.n))
            s_bar = trace.steps[-1][0]
            assert sol.s_star is not s_bar
            assert not np.shares_memory(sol.s_star, s_bar)
            assert np.array_equal(sol.s_star, s_bar)
            for s_star in (sol.s_star, global_minimize(m).s_star):
                assert not s_star.flags.writeable
                with pytest.raises(ValueError):
                    s_star[0] = 1.0

    def test_minimizer_near_1e_200(self):
        # At the start the gradient is about 1e200, so its squared norm
        # overflows; lambda* = 1e-200 squares to an underflow.  Any NumPy
        # warning is an error in this suite.
        m = CubicModel([1.0], [[1e200]], 1.0)
        sol, _ = solve_via_escapes(m, np.array([0.5]))
        assert sol.certificate.is_global
        assert sol.s_star[0] == pytest.approx(-1e-200, rel=1e-15)
        assert sol.lambda_star == pytest.approx(1e-200, rel=1e-15)


class TestArcOuter:
    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_convex_quadratic(self, variant):
        rep = arc_plus_minimize(get_problem("sphere2"), None, variant=variant)
        assert rep.converged
        assert rep.f_final <= 1e-10
        assert np.linalg.norm(rep.x_final) <= 1e-4

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_rosenbrock2(self, variant):
        rep = arc_plus_minimize(get_problem("rosenbrock2"), None, variant=variant)
        assert rep.converged
        assert rep.grad_inf_norm <= 1e-5
        assert rep.f_final <= 1e-8
        assert rep.x_final == pytest.approx([1.0, 1.0], abs=1e-3)
        assert rep.iterations <= 10**5

    def test_explicit_x0_overrides_registered_start(self):
        rep = arc_plus_minimize(
            get_problem("sphere2"), np.array([0.1, 0.1]), variant="ARC"
        )
        assert rep.converged

    def test_accepted_steps_strictly_decrease_f(self):
        rep = arc_plus_minimize(get_problem("rosenbrock2"), None, variant="ARC")
        hist = np.asarray(rep.f_history)
        assert np.all(np.diff(hist) < 0.0)

    def test_arc_plus_certificates(self):
        rep = arc_plus_minimize(get_problem("rosen_coupled6"), None, variant="ARC_PLUS")
        assert rep.converged
        assert rep.accepted_psd_margins
        assert min(rep.accepted_psd_margins) >= -1e-6

    def test_deterministic_given_seed(self):
        opts = ArcOptions(seed=3)
        r1 = arc_plus_minimize(get_problem("quartic_nc4"), None, "ARC", opts)
        r2 = arc_plus_minimize(get_problem("quartic_nc4"), None, "ARC", opts)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert r1.iterations == r2.iterations
        assert r1.sigma_history == r2.sigma_history

    def test_seed_changes_subproblem_starts(self):
        a = arc_plus_minimize(
            get_problem("quartic_nc4"), None, "ARC", ArcOptions(seed=1)
        )
        b = arc_plus_minimize(
            get_problem("quartic_nc4"), None, "ARC", ArcOptions(seed=2)
        )
        # both converge; the paths need not match
        assert a.converged and b.converged

    def test_cauchy_start_option(self):
        rep = arc_plus_minimize(
            get_problem("rosenbrock2"), None, "ARC", ArcOptions(cauchy_start=True)
        )
        assert rep.converged
        assert rep.grad_inf_norm <= 1e-5

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            arc_plus_minimize(get_problem("sphere2"), None, variant="NEWTON")

    def test_option_validation(self):
        with pytest.raises(ValueError):
            ArcOptions(tol_grad_inf=-1.0)
        with pytest.raises(ValueError):
            ArcOptions(max_iters=0)
        with pytest.raises(ValueError):
            ArcOptions(seed=-1)

    def test_iteration_cap_reported(self):
        rep = arc_plus_minimize(
            get_problem("rosenbrock10"),
            None,
            "ARC",
            ArcOptions(max_iters=3),
        )
        assert not rep.converged
        assert rep.iterations == 3

    def test_variant_recorded(self):
        rep = arc_plus_minimize(get_problem("sphere2"), None, "ARC_PLUS")
        assert rep.variant == "ARC_PLUS"


def _worked_objective():
    return cubic_objective(CubicModel([-2.0, 0.0], np.diag([1.0, -3.0]), 1.0))


class TestGradientRange:
    """Gradients whose squared norm overflows, on the worked-instance objective."""

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_model_out_of_range_at_cauchy_point_raises(self, variant):
        # ||g|| = 1e206: the model's linear term at its Cauchy point overflows.
        with pytest.raises(ConvergenceError, match="overflows at the Cauchy point"):
            arc_plus_minimize(_worked_objective(), [1e103, 0.0], variant)

    # At x = (t, t) each gradient entry is about sqrt(2)*t^2, so t = 8.4e76
    # keeps each entry's square in double range but not ||g||^2.  Warnings
    # are errors here.
    @pytest.mark.parametrize("x0", [[1e96, 0.0], [8.4e76, 8.4e76]])
    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_squared_norm_overflow_still_solves_without_warning(self, x0, variant):
        rep = arc_plus_minimize(_worked_objective(), x0, variant)
        assert rep.converged
        assert rep.f_final == pytest.approx(-5.0)


class TestCauchyStep:
    def test_descends_from_origin(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            m = random_model(rng)
            if m.norm_c == 0.0:
                continue
            s = cauchy_step(m)
            assert eval_model(m, s) < 0.0
            # the step is the exact minimizer along -c
            g = grad(m, s)
            assert abs(g @ m.c) <= 1e-8 * (1.0 + m.norm_c) ** 2

    @pytest.mark.parametrize("q", [1.0, -1.0])
    @pytest.mark.parametrize("c", [1e61, 1e62])
    def test_closed_form_at_large_gradient(self, c, q):
        # ||c||**5 leaves double range past ||c|| ~ 2.6e61; on both sides
        # t* is the root in bh = c'Qc / ||c||^2 = q.
        m = CubicModel([c, 0.0], q * np.eye(2), 1.0)
        root = math.sqrt(q * q + 4.0 * c)
        t = 2.0 / (q + root) if q > 0.0 else (-q + root) / (2.0 * c)
        assert cauchy_step(m) == pytest.approx([-t * c, 0.0], rel=1e-14)

    @staticmethod
    def _unscaled_step(m):
        # The same root in b = g'Qg with ||g||**5, in range while the powers
        # of ||g|| are (||g|| below about 2.6e61).
        g = m.c
        gnorm = m.norm_c
        b = float(g @ (m.Q.entries @ g))
        disc = float(np.sqrt(b * b + 4.0 * m.sigma * gnorm**5))
        if b <= 0.0:
            t = (-b + disc) / (2.0 * m.sigma * gnorm**3)
        else:
            t = 2.0 * gnorm**2 / (b + disc)
        return -t * g

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_unscaled_form_in_range(self, sign):
        # sign fixes the sign of b: Q is sign times a positive definite matrix.
        rng = np.random.default_rng(56)
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n))
            q = sign * (a @ a.T + 0.1 * np.eye(n))
            c = rng.normal(size=n) * 10.0 ** rng.uniform(-20.0, 60.0)
            m = CubicModel(c, q, 10.0 ** rng.uniform(-3.0, 3.0))
            ref = self._unscaled_step(m)
            assert np.all(np.abs(cauchy_step(m) - ref) <= 8.0 * eps * np.abs(ref).max())

    @pytest.mark.parametrize("q", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
    def test_finite_up_to_gradient_1e300(self, scale, q):
        m = CubicModel([scale, -0.5 * scale], q * np.diag([1.0, 2.0]), 1.0)
        s = cauchy_step(m)
        assert np.isfinite(s).all()
        # The step is -t* c with t* > 0.
        assert s[0] < 0.0 < s[1]


class TestOneEvaluation:
    """Each point is evaluated once, by its StationaryPoint."""

    def test_each_escape_step_evaluates_s_bar_once(self, monkeypatch):
        # [s_bar bytes, evaluations at s_bar] per local solve, counted
        # from its return to the next local solve.
        counts = []
        real_local = driver.local_minimize
        real_objective = model_mod._objective

        def local(m, s, eps):
            rep = real_local(m, s, eps)
            counts.append([rep.s.tobytes(), 0])
            return rep

        def objective(m, s, norm_s, qs):
            if counts and np.asarray(s).tobytes() == counts[-1][0]:
                counts[-1][1] += 1
            return real_objective(m, s, norm_s, qs)

        monkeypatch.setattr(driver, "local_minimize", local)
        monkeypatch.setattr(model_mod, "_objective", objective)
        rng = np.random.default_rng(43)
        steps = 0
        for _ in range(20):
            m = random_model(rng, nmax=5)
            counts.clear()
            sol, trace = solve_via_escapes(m, rng.normal(size=m.n))
            assert [n for _, n in counts] == [1] * len(counts)
            steps += len(trace.steps)
            for s_bar, _, obj in trace.steps:
                assert obj == eval_model(m, s_bar)
            assert sol.objective == trace.steps[-1][2]
        assert steps > 20

    def test_arc_plus_step_value_is_the_solution_objective(self, monkeypatch):
        solutions = []
        calls = []
        real_solve = driver.solve_via_escapes
        real_eval = model_mod.eval_model

        def solve(m, s0, eps_grad=None, eps_curv=None):
            sol, trace = real_solve(m, s0, eps_grad=eps_grad, eps_curv=eps_curv)
            assert sol.objective == real_eval(m, sol.s_star)
            solutions.append(sol)
            return sol, trace

        def eval_model(m, s):
            calls.append(bool(solutions) and np.array_equal(s, solutions[-1].s_star))
            return real_eval(m, s)

        monkeypatch.setattr(driver, "solve_via_escapes", solve)
        monkeypatch.setattr(model_mod, "eval_model", eval_model)
        rep = arc_plus_minimize(get_problem("rosenbrock2"), None, "ARC_PLUS")
        assert rep.converged
        assert len(solutions) == rep.iterations
        assert not any(calls)


class TestOneHessianPerIterate:
    """A rejected step keeps x, so its next model reuses x's Hessian."""

    def test_one_hessian_and_eigendecomposition_per_iterate(self, monkeypatch):
        eigs = []
        real_eigen = linalg.sym_eigen

        def sym_eigen(A):
            eigs.append(A)
            return real_eigen(A)

        monkeypatch.setattr(linalg, "sym_eigen", sym_eigen)
        rejected = 0
        for name in DEFAULT_SUITE:
            for variant in ("ARC", "ARC_PLUS"):
                f = get_problem(name)
                points = []
                real_hess = f.hess

                def hess(x):
                    points.append(np.array(x).tobytes())
                    return real_hess(x)

                f.hess = hess
                eigs.clear()
                rep = arc_plus_minimize(f, None, variant)
                assert rep.converged
                # A converged run builds models at every accepted x but the last.
                distinct = len(rep.f_history) - 1
                assert len(points) == len(set(points)) == distinct, (name, variant)
                assert len(eigs) == distinct, (name, variant)
                rejected += rep.iterations - distinct
        assert rejected > 0


class TestPerformanceProfile:
    def test_single_problem_tie(self):
        t = performance_profile([("p", "ARC", 10), ("p", "ARC_PLUS", 10)])
        assert t.taus == [1.0]
        assert t.curves["ARC"] == [1.0]
        assert t.curves["ARC_PLUS"] == [1.0]

    def test_two_problem_crossover(self):
        t = performance_profile(
            [
                ("A", "ARC", 5),
                ("A", "ARC_PLUS", 10),
                ("B", "ARC", 20),
                ("B", "ARC_PLUS", 10),
            ]
        )
        assert t.taus[0] == 1.0
        assert t.taus[-1] == pytest.approx(2.0)
        for variant in ("ARC", "ARC_PLUS"):
            assert t.curves[variant][0] == 0.5
            assert t.curves[variant][-1] == 1.0

    def test_failed_run_plateaus(self):
        t = performance_profile(
            [
                ("A", "ARC", 1),
                ("A", "ARC_PLUS", 2),
                ("B", "ARC", 1),
                ("B", "ARC_PLUS", None),
            ]
        )
        assert t.curves["ARC"] == [1.0] * len(t.taus)
        assert t.curves["ARC_PLUS"][0] == 0.0
        assert t.curves["ARC_PLUS"][-1] == 0.5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            performance_profile([])

    def test_requires_one_complete_problem(self):
        with pytest.raises(EmptyInput):
            performance_profile([("A", "ARC", 5)])

    def test_incomplete_problem_is_dropped(self):
        # a failed run is an explicit None row; a problem with a variant
        # row missing entirely is excluded from the comparison
        t = performance_profile(
            [("A", "ARC", 5), ("A", "ARC_PLUS", 5), ("B", "ARC", 3)]
        )
        assert t.taus == [1.0]
        assert t.curves["ARC"] == [1.0]
        assert t.curves["ARC_PLUS"] == [1.0]

    def test_curves_are_monotone(self):
        rng = np.random.default_rng(77)
        reports = []
        for i in range(12):
            reports.append((f"p{i}", "ARC", int(rng.integers(1, 40))))
            reports.append((f"p{i}", "ARC_PLUS", int(rng.integers(1, 40))))
        t = performance_profile(reports)
        for curve in t.curves.values():
            assert all(b >= a for a, b in zip(curve, curve[1:]))
