"""Escape-driven global solves, the outer optimizer, and the profile table."""

import decimal
import math
import warnings

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
    CubicminError,
    EmptyInput,
    ThresholdNotMet,
    ToleranceFloor,
)
from cubicmin.model import eval_model, grad, is_global
from cubicmin.problems import DEFAULT_SUITE, ObjectiveFunction, cubic_objective, get_problem
from cubicmin.stationary import global_minimize

from .helpers import class_model, exact_residual, random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)


class TestSolveViaEscapes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, bad):
        # Before any local solve, as the CLI rejects a non-finite --x0.
        with pytest.raises(ValueError, match="^s0 entries must be finite$"):
            solve_via_escapes(WORKED, [0.9, bad])

    @pytest.mark.parametrize("model, s0, objective", [
        (CubicModel([-1e200], [[0.0]], 1e-100), [1e150], "nan"),
        (CubicModel([0.0], [[-4e108]], 4e8), [1e100], "-inf"),
    ])
    def test_converged_point_past_range_raises(self, model, s0, objective):
        # The local solve converges at a point whose m(s) leaves double
        # range below; the loop refuses it, as StationaryPoint.from_vector.
        with pytest.raises(ConvergenceError, match=(
            rf"^m\(s\) leaves double range at lam = .*: {objective}$"
        )):
            solve_via_escapes(model, s0)

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


class TestAgreesWithSecularSolver:
    """The paper's escape loop and the secular solver find the same minimum."""

    CLASSES = ("generic", "hard", "near_hard", "zero_c", "scaled_Q", "tiny_sigma")

    def test_objectives_agree_where_both_certify(self):
        both = 0
        for cls in self.CLASSES:
            for seed in range(60):
                m = class_model(np.random.default_rng(seed), cls, 2 + seed % 9)
                try:
                    want = global_minimize(m).objective
                    got = solve_via_escapes(m, np.ones(m.n))[0].objective
                except CubicminError:
                    continue
                both += 1
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (cls, seed)
        # 297 of the 360 models today; the rest fail in one solver or both.
        assert both >= 250


def _referee_failures(classes):
    """Certificates, and those the exact residual puts above the gate, of
    ``global_minimize`` and ``solve_via_escapes(m, ones)`` on class models."""
    solvers = {
        "global_minimize": global_minimize,
        "escapes": lambda m: solve_via_escapes(m, np.ones(m.n))[0],
    }
    certified, failed = 0, []
    for cls in classes:
        for seed in range(60):
            m = class_model(np.random.default_rng(seed), cls, 2 + seed % 9)
            for name, solve in solvers.items():
                try:
                    sol = solve(m)
                except CubicminError:
                    continue
                certified += 1
                if not exact_residual(m, sol.s_star) <= m.default_tol_grad():
                    failed.append((cls, seed, name))
    return certified, failed


class TestExactResidualReferee:
    """Each certified point meets the gate ``1e-8 (1 + ||c||)`` on its exact
    residual, not only on its double one."""

    def test_certificates_pass_referee(self):
        certified, failed = _referee_failures(("generic", "hard", "near_hard", "zero_c"))
        assert failed == []
        assert certified == 480  # both solvers certify every one of these models

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a double residual below the gate is certified even "
        "where the exact one is above it (2 escape-loop certificates per class)",
    )
    @pytest.mark.parametrize("cls", ["scaled_Q", "tiny_sigma"])
    def test_stress_certificates_pass_referee(self, cls):
        _, failed = _referee_failures((cls,))
        assert failed == []


class TestSolveViaEscapesRecovery:
    """The driver's answers to escape failures, forced by a stand-in escape."""

    def _patch(self, monkeypatch, respond):
        # respond(call_index, real_escape, m, s_bar, tol) returns an
        # EscapeOutcome or raises; the list records each call's eps_grad.
        real = driver.escape_mod.escape_approx
        tols = []

        def fake(m, s_bar, tol):
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
            # s_bar is the local solve's StationaryPoint.
            return driver.escape_mod.EscapeOutcome(
                case_tag="B_II",
                point=s_bar,
                s_hat=np.array(s_bar.s),
                decrease=1.0,
            )

        tols = self._patch(monkeypatch, respond)
        with pytest.raises(BoundExceeded):
            solve_via_escapes(WORKED, np.array([0.9, 0.02]))
        assert len(tols) == count_bound(WORKED) + 3


class TestNaturalTightening:
    """The tightening path on a natural input, without a stand-in escape.

    From s0 = 0 at a loose eps_grad, this hard-case model's local solves
    stop where neither reflection's gate holds, so the real escape raises
    ThresholdNotMet and the driver tightens eps_grad.
    """

    M = class_model(np.random.default_rng(0), "hard", 2)

    def _count_threshold_failures(self, monkeypatch):
        real = driver.escape_mod.escape_approx
        raised = []

        def counting(m, s_bar, tol):
            try:
                return real(m, s_bar, tol)
            except ThresholdNotMet:
                raised.append(tol.eps_grad)
                raise

        monkeypatch.setattr(driver.escape_mod, "escape_approx", counting)
        return raised

    def test_certifies_after_threshold_failures(self, monkeypatch):
        m = self.M
        raised = self._count_threshold_failures(monkeypatch)
        sol, trace = solve_via_escapes(m, np.zeros(2), eps_grad=1e-4 * (1.0 + m.norm_c))
        assert len(raised) == 3
        assert [case for _, case, _ in trace.steps] == ["B_III", "NONE_GLOBAL"]
        assert sol.certificate.is_global
        ref = global_minimize(m)
        assert ref.hard_case
        assert sol.objective == pytest.approx(ref.objective, rel=1e-8)

    def test_explicit_eps_curv_tightens_to_the_floor(self, monkeypatch):
        m = self.M
        raised = self._count_threshold_failures(monkeypatch)
        with pytest.raises(ToleranceFloor, match="^no escape threshold held down to eps_grad = "):
            solve_via_escapes(m, np.zeros(2), eps_grad=1e-2 * (1.0 + m.norm_c), eps_curv=1e-9)
        # The first escape and each of the six tightenings.
        assert len(raised) == 7


class TestEscapeRoundingCycle:
    """ROADMAP item 5: with c = 0, a B_II reflection across the eigenvector's
    hyperplane leaves m unchanged, so the loop takes a decrease of rounding
    size, and the next B_II reflects back until the escape cap trips."""

    @pytest.mark.xfail(
        strict=True,
        raises=BoundExceeded,
        reason="ROADMAP item 5: an escape rests on a decrease that rounding explains "
        "(7 escapes exceed the stationary-count cap 6)",
    )
    def test_zero_c_ends_certified_or_at_floor(self):
        m = class_model(np.random.default_rng(1), "zero_c", 3)
        try:
            sol, _ = solve_via_escapes(m, 1e-3 * np.ones(3), eps_grad=1e-2)
        except ToleranceFloor:
            return
        assert sol.certificate.is_global
        assert sol.objective == pytest.approx(global_minimize(m).objective, rel=1e-8)


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

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_rejects_x0_of_wrong_length(self, variant):
        with pytest.raises(ValueError, match=r"^x0 has length 3, expected 2$"):
            arc_plus_minimize(get_problem("sphere2"), [0.1, 0.1, 0.1], variant=variant)

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x0(self, bad, variant):
        with pytest.raises(ValueError, match="^x0 entries must be finite$"):
            arc_plus_minimize(get_problem("sphere2"), [bad, 0.0], variant=variant)

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

    @pytest.mark.parametrize("name", ["max_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(2.0), True, False, np.bool_(True), "3"])
    def test_options_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            ArcOptions(**{name: value})

    @pytest.mark.parametrize("value", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_options_keep_python_and_numpy_integers(self, value):
        opts = ArcOptions(max_iters=value, seed=value)
        assert opts.max_iters is value and opts.seed is value
        rep = arc_plus_minimize(get_problem("rosenbrock10"), None, "ARC", opts)
        assert rep.iterations == 2

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


    # ||g|| = 1e160 at x0: its square overflows, its norm does not.
    # ARC_PLUS's failed subproblem solve defers to the same check.
    @pytest.mark.parametrize(
        "variant, message",
        [
            ("ARC", r"no model step can move x: steps are at most 1\.000e\+80 long"),
            ("ARC_PLUS", r"no model step can move x: steps are at most 1\.000e\+80 long"),
        ],
    )
    def test_step_resolution_reads_the_scaled_gradient_norm(self, variant, message):
        f = cubic_objective(CubicModel([1e160, 0.0], np.zeros((2, 2)), 1e-200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=message):
                arc_plus_minimize(f, [-1e140, -1e140], variant, ArcOptions(max_iters=2000))


class TestNonFiniteStart:
    """f(x0) NaN or -inf stops at once; +inf runs like any other start."""

    X0 = (3.0, 4.0)

    def _objective(self, at_x0):
        # A quadratic whose value is replaced at x0 alone, so the gradient
        # check, which evaluates f only near x0, passes.
        def f(x):
            return at_x0 if tuple(x.tolist()) == self.X0 else float(x.dot(x))

        return ObjectiveFunction(
            "patched", 2, f, lambda x: 2.0 * x, lambda x: 2.0 * np.eye(2), self.X0)

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    @pytest.mark.parametrize("at_x0", [math.nan, -math.inf])
    def test_nan_or_minus_inf_raises_at_once(self, at_x0, variant):
        f = self._objective(at_x0)
        message = r"^f\(x0\) = (nan|-inf): the ratio test accepts no step from it$"
        with pytest.raises(ConvergenceError, match=message):
            arc_plus_minimize(f, None, variant)

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_plus_inf_converges(self, variant):
        rep = arc_plus_minimize(self._objective(math.inf), None, variant)
        assert rep.converged
        assert rep.iterations == 5
        assert rep.f_history[0] == math.inf and math.isfinite(rep.f_final)


class TestStepBelowResolution:
    """ARC stops once no model step can move x, instead of doubling sigma to inf;
    ARC_PLUS names the same cause when its subproblem solve fails."""

    def test_huge_start_raises_at_first_rejection(self):
        # ||s|| <= R = 1.2e24 at sigma = 1, below half the spacing 1.6e32 of 1e48.
        with pytest.raises(ConvergenceError, match=r"no model step can move x: .*sigma = 1\.000e\+00"):
            arc_plus_minimize(get_problem("sphere2"), [1e48, 1e48], "ARC")

    def test_arc_plus_names_the_resolution(self):
        # ARC_PLUS's first subproblem solve stalls; the check names why.
        message = r"^no model step can move x: steps are at most 1\.189e\+24 long"
        with pytest.raises(ConvergenceError, match=message):
            arc_plus_minimize(get_problem("sphere2"), [1e48, 1e48], "ARC_PLUS")

    def test_arc_plus_reraises_where_steps_can_move(self, monkeypatch):
        def failing(m, s0, eps_grad=None, eps_curv=None):
            raise BoundExceeded("forced")

        monkeypatch.setattr(driver, "solve_via_escapes", failing)
        with pytest.raises(BoundExceeded, match="^forced$"):
            arc_plus_minimize(get_problem("sphere2"), None, "ARC_PLUS")

    def test_zero_entry_never_triggers(self):
        # x + s == x in the first entry, but the spacing at 0 is the least
        # subnormal: the run goes on rejecting until its iteration cap.
        rep = arc_plus_minimize(get_problem("sphere2"), [1e48, 0.0], "ARC", ArcOptions(max_iters=40))
        assert not rep.converged
        assert rep.iterations == 40
        assert len(rep.f_history) == 1  # no step accepted
        m = CubicModel([1.0, 1.0], np.eye(2), 1e300)
        driver._check_step_can_move(np.array([1e300, 0.0]), m)

    @pytest.mark.parametrize("x0, variant, tol", [
        ([5e-201, 0.0], "ARC", 1e-250),
        ([5e-201, 0.0], "ARC_PLUS", 1e-250),
        ([1e48, 0.0], "ARC", 1e-5),
    ])
    def test_sigma_overflow_raises(self, x0, variant, tol):
        # Every step is rejected, so sigma doubles: 2**1023 is its last finite
        # value.  From (5e-201, 0) m(s) underflows to 0 at each step; from
        # (1e48, 0), x + s rounds to x, and the zero entry keeps the
        # resolution check from firing.
        opts = ArcOptions(max_iters=1100, tol_grad_inf=tol)
        message = r"^sigma = 8\.988e\+307 doubles past double range at outer iteration 1024$"
        with pytest.raises(ConvergenceError, match=message):
            arc_plus_minimize(get_problem("sphere2"), x0, variant, opts)

    def test_sigma_overflow_raises_from_cauchy_start(self):
        # The same run as ARC_PLUS from the Cauchy step: its subproblem solve
        # starts at cauchy_step, which stays nonzero up to sigma = 2**1023.
        opts = ArcOptions(max_iters=1100, tol_grad_inf=1e-5, cauchy_start=True)
        message = r"^sigma = 8\.988e\+307 doubles past double range at outer iteration 1024$"
        with pytest.raises(ConvergenceError, match=message):
            arc_plus_minimize(get_problem("sphere2"), [1e48, 0.0], "ARC_PLUS", opts)

    def test_step_above_resolution_passes(self):
        m = CubicModel([1.0, 1.0], np.eye(2), 1.0)
        driver._check_step_can_move(np.array([1e15, 1e15]), m)
        with pytest.raises(ConvergenceError):
            driver._check_step_can_move(np.array([1e17, 1e17]), m)


class TestCauchyStep:
    def test_zero_linear_term_gives_zero_step(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 2.0]), 1.0)
        assert cauchy_step(m).tolist() == [0.0, 0.0]

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

    @pytest.mark.parametrize("sigma", [1e-100, 1e-300])
    def test_underflowing_curvature_product(self, sigma):
        # 2 sigma ||c|| underflows to 0 with bh = -1e-300 <= 0: the step is
        # the positive root r of -||c|| + bh r + sigma r^2 along -c/||c||.
        m = CubicModel([1e-300, 0.0], np.diag([-1e-300, 1e-300]), sigma)
        assert 2.0 * m.sigma * m.norm_c == 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            bh, sig, g = (decimal.Decimal(x) for x in (-1e-300, sigma, 1e-300))
            r = float((-bh + (bh * bh + 4 * sig * g).sqrt()) / (2 * sig))
        assert cauchy_step(m) == pytest.approx([-r, 0.0], rel=1e-14)

    @pytest.mark.parametrize("q", [2.0, -2.0])
    def test_overflowing_curvature_product(self, q):
        # 4 sigma overflows at sigma = 2^1022 on either sign of bh = q, and
        # 2 sigma at 2^1023; the step, about sqrt(||c|| / sigma) = 2^-512 or
        # 2^-512.5 long, is a normal double.
        for sigma in (2.0**1022, 2.0**1023):
            m = CubicModel([0.25, 0.0], q * np.eye(2), sigma)
            assert 4.0 * m.sigma == math.inf
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                bh, sig, g = (decimal.Decimal(x) for x in (q, sigma, 0.25))
                r = float((-bh + (bh * bh + 4 * sig * g).sqrt()) / (2 * sig))
            assert cauchy_step(m) == pytest.approx([-r, 0.0], rel=1e-14, abs=0.0), sigma

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

    # c = 0: the local solve stops at the origin, and a B_I move leaves it.
    SADDLE = CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0)

    def test_each_escape_step_evaluates_s_bar_once(self, monkeypatch):
        # [s_bar bytes, evaluations at s_bar] per local solve, counted
        # from its return to the next local solve: none, since the solve's
        # report carries the point's one evaluation.
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
            assert [n for _, n in counts] == [0] * len(counts)
            steps += len(trace.steps)
            for s_bar, _, obj in trace.steps:
                assert obj == eval_model(m, s_bar)
            assert sol.objective == trace.steps[-1][2]
        assert steps > 20

    @pytest.mark.parametrize("variant", ["ARC", "ARC_PLUS"])
    def test_step_does_not_evaluate_the_local_solution_again(self, monkeypatch, variant):
        # Evaluations of m at the last local solve's s, counted outside the
        # local solves; an ARC step reads m(s) from the solve's report.
        solved = []
        inside = []
        outside = []
        real_local = driver.local_minimize
        real_objective = model_mod._objective

        def local(m, s, eps):
            inside.append(True)
            try:
                rep = real_local(m, s, eps)
            finally:
                inside.pop()
            solved.append(rep.s.tobytes())
            return rep

        def objective(m, s, norm_s, qs):
            if not inside and solved and np.asarray(s).tobytes() == solved[-1]:
                outside.append(len(solved))
            return real_objective(m, s, norm_s, qs)

        monkeypatch.setattr(driver, "local_minimize", local)
        monkeypatch.setattr(model_mod, "_objective", objective)
        for name in ("rosenbrock2", "quartic_nc4"):
            rep = arc_plus_minimize(get_problem(name), None, variant)
            assert rep.converged
        assert len(solved) > 20
        assert outside == []

    def test_escape_judges_the_local_solve_point(self, monkeypatch):
        reports = []
        judged = []
        real_local = driver.local_minimize
        real_escape = driver.escape_mod.escape_approx

        def local(m, s, eps):
            reports.append(real_local(m, s, eps))
            return reports[-1]

        def escape(m, s_bar, tol):
            judged.append(s_bar)
            return real_escape(m, s_bar, tol)

        monkeypatch.setattr(driver, "local_minimize", local)
        monkeypatch.setattr(driver.escape_mod, "escape_approx", escape)
        sol, trace = solve_via_escapes(self.SADDLE, np.zeros(2))
        assert trace.escape_count > 0
        assert len(judged) == len(reports)
        assert all(p is rep.point for p, rep in zip(judged, reports))
        assert sol.s_star is reports[-1].point.s
        assert sol.objective == reports[-1].point.objective

    def test_cap_is_taken_at_the_first_escape(self, monkeypatch):
        calls = []
        real = driver.count_bound

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(driver, "count_bound", counting)
        _, trace = solve_via_escapes(CubicModel([0.0, 0.0], np.eye(2), 1.0), np.array([0.7, -0.3]))
        assert trace.escape_count == 0 and calls == []
        _, trace = solve_via_escapes(self.SADDLE, np.zeros(2))
        assert trace.escape_count > 0 and calls == [self.SADDLE]

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

    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_nonpositive_iteration_count(self, iters):
        with pytest.raises(ValueError, match=r"^nonpositive iteration count for 'A'$"):
            performance_profile([("A", "ARC", iters), ("A", "ARC_PLUS", 1)])

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
