"""Closed-form escape moves from stationary and near-stationary points."""

import math

import numpy as np
import pytest

from cubicmin import CubicModel, eval_model, is_global
from cubicmin.escape import (
    ApproxTolerances,
    NonNegativeCurvature,
    NotStationary,
    ThresholdNotMet,
    alpha_threshold_biii,
    escape_approx,
    escape_exact,
    negative_curvature_direction,
)
from cubicmin.model import StationaryPoint
from cubicmin.stationary import count_bound, enumerate_stationary, global_minimize

from .helpers import random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)
WORKED_PT = StationaryPoint.from_vector(WORKED, np.array([1.0, 0.0]))


class TestNegativeCurvatureDirection:
    def test_psd_reports_positive_curvature(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        d, curv = negative_curvature_direction(m, np.zeros(2))
        assert curv == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_worked_point(self):
        d, curv = negative_curvature_direction(WORKED, np.array([1.0, 0.0]))
        assert curv == pytest.approx(-2.0, abs=1e-12)
        assert np.abs(d) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_indefinite_at_origin(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0)
        d, curv = negative_curvature_direction(m, np.zeros(2))
        assert curv == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(d) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_curvature_is_rayleigh_quotient(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_model(rng)
            s = rng.normal(size=m.n)
            d, curv = negative_curvature_direction(m, s)
            shifted = m.Q.entries + m.sigma * np.linalg.norm(s) * np.eye(m.n)
            assert d @ (shifted @ d) == pytest.approx(curv, abs=1e-9)
            assert curv <= np.linalg.eigvalsh(shifted)[0] + 1e-9


class TestAlphaThreshold:
    def test_worked_value(self):
        a = alpha_threshold_biii(WORKED, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert a == pytest.approx(1.0, abs=1e-12)
        # at alpha = 2 > threshold, z = s + 2d has negative shifted curvature
        z = np.array([1.0, 2.0])
        shifted = WORKED.Q.entries + np.eye(2)
        assert z @ (shifted @ z) < 0.0

    def test_zero_numerator(self):
        m = CubicModel([0.0, 0.0], np.diag([-3.0, 1.0]), 1.0)
        a = alpha_threshold_biii(m, np.zeros(2), np.array([1.0, 0.0]))
        assert a == 0.0

    def test_rejects_nonnegative_curvature(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(NonNegativeCurvature):
            alpha_threshold_biii(m, np.zeros(2), np.array([1.0, 0.0]))


class TestEscapeExactCases:
    def test_case_a_sign_flip(self):
        m = CubicModel([-2.0], [[-3.0]], 1.0)
        p = StationaryPoint.from_vector(m, np.array([-1.0]))
        out = escape_exact(m, p)
        assert out.case_tag == "A"
        assert np.array_equal(out.s_hat, [1.0])
        assert out.decrease == pytest.approx(4.0, abs=1e-12)
        assert eval_model(m, out.s_hat) < p.objective

    def test_case_bi_from_origin(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0)
        p = StationaryPoint.from_vector(m, np.zeros(2))
        out = escape_exact(m, p)
        assert out.case_tag == "B_I"
        assert out.alpha_used == pytest.approx(0.75, abs=1e-12)
        assert abs(out.s_hat[0]) == pytest.approx(0.75, abs=1e-12)
        assert out.s_hat[1] == pytest.approx(0.0, abs=1e-12)
        assert eval_model(m, out.s_hat) == pytest.approx(-9.0 / 64.0, abs=1e-12)
        assert out.decrease == pytest.approx(9.0 / 64.0, abs=1e-12)

    def test_case_bii_reflection(self):
        d = np.array([1.0, 2.0]) / math.sqrt(5.0)
        out = escape_exact(WORKED, WORKED_PT, direction=d)
        assert out.case_tag == "B_II"
        assert out.s_hat == pytest.approx([0.6, -0.8], abs=1e-12)
        assert eval_model(WORKED, out.s_hat) == pytest.approx(-247.0 / 150.0, abs=1e-12)
        assert np.linalg.norm(out.s_hat) == pytest.approx(1.0, abs=1e-12)
        # decrease = -7/6 - (-247/150) = 72/150 = 12/25
        assert out.decrease == pytest.approx(12.0 / 25.0, abs=1e-12)

    def test_case_biii_orthogonal_direction(self):
        out = escape_exact(WORKED, WORKED_PT, direction=np.array([0.0, 1.0]))
        assert out.case_tag == "B_III"
        assert out.alpha_used == pytest.approx(2.0, abs=1e-12)
        assert out.z_used == pytest.approx([1.0, 2.0], abs=1e-12)
        assert out.s_hat == pytest.approx([0.6, -0.8], abs=1e-12)
        assert out.decrease == pytest.approx(12.0 / 25.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 1.0])
    def test_nearly_orthogonal_direction_still_decreases(self, sigma):
        # |s.d| sits just above TOL_ORTH at the non-global stationary point,
        # so the B_II reflection moves s only by rounding; the escape must
        # fall through to B_III and return a real decrease.
        # escape_approx at the default tolerances takes the same path.
        m = CubicModel([1e-9, 1.0], np.diag([-1.0, 2.0]), sigma)
        tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
        moves = 0
        for p in enumerate_stationary(m):
            exact = escape_exact(m, p)
            if exact.case_tag == "NONE_GLOBAL":
                continue
            moves += 1
            approx = escape_approx(m, p.s, tol)
            assert exact.case_tag == approx.case_tag == "B_III"
            assert exact.decrease > 0.0
            assert approx.s_hat.tobytes() == exact.s_hat.tobytes()
            assert approx.decrease == exact.decrease
        assert moves

    def test_none_global_at_minimizer(self):
        sol = global_minimize(WORKED)
        p = StationaryPoint.from_vector(WORKED, sol.s_star)
        out = escape_exact(WORKED, p)
        assert out.case_tag == "NONE_GLOBAL"
        assert out.s_hat is None
        assert out.decrease == 0.0

    def test_rejects_nonstationary_input(self):
        p = StationaryPoint.from_vector(WORKED, np.array([0.5, 0.5]))
        with pytest.raises(NotStationary):
            escape_exact(WORKED, p)

    def test_rejects_nan_residual(self):
        p = StationaryPoint(
            s=WORKED_PT.s, lam=WORKED_PT.lam, objective=WORKED_PT.objective,
            residual=float("nan"),
        )
        with pytest.raises(NotStationary):
            escape_exact(WORKED, p)


class TestEscapeApprox:
    def test_coincides_with_exact_on_stationary_input(self):
        tol = ApproxTolerances(eps_grad=WORKED.default_tol_grad(), eps_curv=1e-8)
        exact = escape_exact(WORKED, WORKED_PT)
        approx = escape_approx(WORKED, WORKED_PT.s, tol)
        assert approx.case_tag == exact.case_tag
        assert np.max(np.abs(approx.s_hat - exact.s_hat)) <= 1e-12

    def test_case_a_on_inexact_point(self):
        m = CubicModel([1.0, 0.0], np.eye(2), 1.0)
        out = escape_approx(m, np.array([1.0, 0.0]), ApproxTolerances(1e-6, 0.1))
        assert out.case_tag == "A"
        assert np.array_equal(out.s_hat, [-1.0, -0.0])
        assert eval_model(m, np.array([1.0, 0.0])) == pytest.approx(11.0 / 6.0)
        assert eval_model(m, out.s_hat) == pytest.approx(-1.0 / 6.0)
        assert out.decrease == pytest.approx(2.0, abs=1e-12)

    def test_case_biii_on_inexact_point(self):
        s_bar = np.array([1.001, 0.0])
        out = escape_approx(WORKED, s_bar, ApproxTolerances(1.0, 0.1))
        assert out.case_tag == "B_III"
        assert out.decrease > 0.0
        assert eval_model(WORKED, out.s_hat) < eval_model(WORKED, s_bar)

    def test_none_global_on_certified_point(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        out = escape_approx(m, np.zeros(2), ApproxTolerances(1e-8, 1e-8))
        assert out.case_tag == "NONE_GLOBAL"
        assert out.decrease == 0.0

    def test_threshold_not_met(self):
        m = CubicModel([-2.0, -0.1], np.diag([1.0, -3.0]), 1.0)
        with pytest.raises(ThresholdNotMet):
            escape_approx(m, np.array([1.0, 0.01]), ApproxTolerances(1.0, 0.5))

    def test_tolerances_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ApproxTolerances(-1.0, 0.0)
        with pytest.raises(ValueError):
            ApproxTolerances(0.0, -1e-3)


class TestEscapeInvariants:
    @pytest.mark.parametrize("seed", range(60))
    def test_decrease_and_certificate(self, seed):
        rng = np.random.default_rng(2100 + seed)
        m = random_model(rng)
        for p in enumerate_stationary(m):
            out = escape_exact(m, p)
            cert = is_global(m, p.s)
            assert (out.case_tag == "NONE_GLOBAL") == cert.is_global
            if out.case_tag == "NONE_GLOBAL":
                continue
            assert out.decrease > 1e-12
            assert eval_model(m, out.s_hat) < p.objective - 1e-12
            if out.case_tag in ("B_II", "B_III"):
                ns = np.linalg.norm(p.s)
                assert abs(np.linalg.norm(out.s_hat) - ns) <= 1e-10 * (1.0 + ns)

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_approx_coincidence(self, seed):
        rng = np.random.default_rng(2600 + seed)
        m = random_model(rng)
        tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
        for p in enumerate_stationary(m):
            exact = escape_exact(m, p)
            approx = escape_approx(m, p.s, tol)
            assert approx.case_tag == exact.case_tag
            assert approx.decrease == exact.decrease
            if exact.s_hat is not None:
                assert approx.s_hat.tobytes() == exact.s_hat.tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_finite_descent_chain(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = random_model(rng, nmax=5)
        pts = enumerate_stationary(m)
        if not pts:
            return
        bound = count_bound(m)
        # start from the worst stationary point and chase escapes downhill
        p = max(pts, key=lambda q: q.objective)
        from cubicmin.driver import solve_via_escapes

        _, trace = solve_via_escapes(m, p.s)
        assert trace.escape_count <= bound
