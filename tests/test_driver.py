"""Escape-driven global solves, the outer optimizer, and the profile table."""

import numpy as np
import pytest

from cubicmin import CubicModel
from cubicmin.driver import (
    ArcOptions,
    arc_plus_minimize,
    cauchy_step,
    count_bound,
    performance_profile,
    solve_via_escapes,
)
from cubicmin.exceptions import EmptyInput
from cubicmin.model import eval_model, grad, is_global
from cubicmin.problems import get_problem
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
            assert trace.solution is sol

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_direct_global_minimize(self, seed):
        rng = np.random.default_rng(7000 + seed)
        m = random_model(rng)
        s0 = rng.uniform(-2.0, 2.0, size=m.n)
        sol, _ = solve_via_escapes(m, s0)
        direct = global_minimize(m)
        assert abs(sol.objective - direct.objective) <= 1e-6


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
