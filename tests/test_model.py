"""Cubic model evaluation, derivatives, and the global certificate."""

import math

import numpy as np
import pytest

from cubicmin import CubicModel, SymmetricMatrix, eval_model, global_minimize, grad, hess, is_global
from cubicmin import linalg
from cubicmin.exceptions import ConvergenceError
from cubicmin.model import GlobalCertificate, StationaryPoint

from .helpers import np_eval, np_grad, random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)
HARD_S = np.array([0.5, np.sqrt(35.0) / 2.0])


class TestConstruction:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            CubicModel([1.0], [[1.0]], 0.0)
        with pytest.raises(ValueError):
            CubicModel([1.0], [[1.0]], -2.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CubicModel([1.0, 2.0], [[1.0]], 1.0)

    def test_accepts_symmetric_matrix_instance(self):
        m = CubicModel([0.0], SymmetricMatrix([[2.0]]), 1.0)
        assert m.Q.entries[0, 0] == 2.0

    def test_eig_is_cached(self):
        m = random_model(np.random.default_rng(0), n=4)
        assert m.eig is m.eig

    def test_models_on_one_matrix_share_one_eigendecomposition(self, monkeypatch):
        calls = []
        real_eigen = linalg.sym_eigen

        def sym_eigen(A):
            calls.append(A)
            return real_eigen(A)

        monkeypatch.setattr(linalg, "sym_eigen", sym_eigen)
        Q = SymmetricMatrix([[1.0, 2.0], [2.0, -3.0]])
        m1 = CubicModel([1.0, 0.0], Q, 1.0)
        m2 = CubicModel([0.0, -2.0], Q, 4.0)
        assert m1.eig is m2.eig is Q.eig
        assert calls == [Q]

    def test_default_tolerances_scale(self):
        assert WORKED.default_tol_grad() == 1e-8 * (1.0 + WORKED.norm_c)
        assert WORKED.default_tol_psd() == 1e-8 * (1.0 + WORKED.Q.max_abs)


class TestEval:
    def test_zero_point(self):
        assert eval_model(WORKED, np.zeros(2)) == 0.0

    def test_one_dimensional(self):
        m = CubicModel([1.0], [[0.0]], 1.0)
        assert eval_model(m, np.array([-1.0])) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_worked_instance(self):
        assert eval_model(WORKED, np.array([1.0, 0.0])) == pytest.approx(
            -7.0 / 6.0, abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_model(WORKED, np.zeros(3))

    def test_cube_beyond_double_range_is_inf(self):
        # ||s||**3 of a Python float raises past ||s|| ~ 5.6e102; the
        # objective is inf there and the residual stays finite.
        m = CubicModel([1.0], [[1.0]], 1.0)
        assert eval_model(m, np.array([1e103])) == math.inf
        p = StationaryPoint.from_vector(m, [1e103])
        assert p.objective == math.inf
        assert p.residual == pytest.approx(1e206, rel=1e-15)
        s = np.array([1e102])
        assert eval_model(m, s) == pytest.approx(np_eval(m, s), rel=1e-15)

    def test_rewriting_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_model(rng)
            s = rng.uniform(-3.0, 3.0, size=m.n)
            ns = np.linalg.norm(s)
            shifted = m.Q.entries + m.sigma * ns * np.eye(m.n)
            alt = m.c @ s + 0.5 * s @ (shifted @ s) - m.sigma / 6.0 * ns**3
            val = eval_model(m, s)
            assert abs(val - alt) <= 1e-10 * (1.0 + abs(val))


class TestGrad:
    def test_at_origin_is_c(self):
        assert np.array_equal(grad(WORKED, np.zeros(2)), WORKED.c)

    def test_one_dimensional_stationarity(self):
        m = CubicModel([1.0], [[0.0]], 1.0)
        assert grad(m, np.array([-1.0])) == pytest.approx([0.0], abs=1e-15)

    def test_worked_instance_stationary(self):
        g = grad(WORKED, np.array([1.0, 0.0]))
        assert np.allclose(g, [0.0, 0.0], atol=1e-15)

    def test_matches_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng)
            s = rng.uniform(-3.0, 3.0, size=m.n)
            assert np.allclose(grad(m, s), np_grad(m, s), atol=1e-12)


class TestHess:
    def test_at_origin_is_q(self):
        h = hess(WORKED, np.zeros(2))
        assert h is WORKED.Q

    def test_scalar(self):
        m = CubicModel([0.0], [[0.0]], 1.0)
        h = hess(m, np.array([2.0]))
        assert h.entries[0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_worked_instance(self):
        h = hess(WORKED, np.array([1.0, 0.0]))
        assert np.allclose(h.entries, np.diag([3.0, -2.0]), atol=1e-15)

    def test_returns_symmetric_matrix(self):
        m = random_model(np.random.default_rng(8), n=3)
        h = hess(m, np.array([0.3, -0.2, 0.9]))
        assert isinstance(h, SymmetricMatrix)

    def test_exactly_symmetric_and_matches_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = random_model(rng, nmax=12)
            s = rng.uniform(-3.0, 3.0, size=m.n)
            h = hess(m, s).entries
            ns = np.linalg.norm(s)
            ref = m.Q.entries + m.sigma * ns * np.eye(m.n) + (m.sigma / ns) * np.outer(s, s)
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(100))
    def test_grad_and_hess_match_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = random_model(rng, nmax=8)
        s = rng.uniform(-2.0, 2.0, size=m.n)
        h = 1e-5 * (1.0 + np.linalg.norm(s))
        g = grad(m, s)
        fd = np.empty(m.n)
        for i in range(m.n):
            e = np.zeros(m.n)
            e[i] = h
            fd[i] = (eval_model(m, s + e) - eval_model(m, s - e)) / (2.0 * h)
        scale = 1.0 + np.linalg.norm(g)
        assert np.max(np.abs(fd - g)) <= 1e-5 * scale
        if np.linalg.norm(s) <= 1e-6:
            return
        H = hess(m, s).entries
        d = rng.normal(size=m.n)
        d /= np.linalg.norm(d)
        hd = (grad(m, s + h * d) - grad(m, s - h * d)) / (2.0 * h)
        scale = 1.0 + np.linalg.norm(H @ d)
        assert np.linalg.norm(hd - H @ d) <= 1e-4 * scale


class TestStationaryPoint:
    def test_lambda_recomputed_from_s(self):
        p = StationaryPoint.from_vector(WORKED, np.array([1.0, 0.0]))
        assert p.lam == WORKED.sigma * 1.0
        assert p.objective == pytest.approx(-7.0 / 6.0, abs=1e-15)
        assert p.residual <= 1e-15

    def test_lambda_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_model(rng)
            p = StationaryPoint.from_vector(m, rng.normal(size=m.n))
            assert p.lam >= 0.0
            assert p.lam == m.sigma * np.linalg.norm(p.s)


class TestIsGlobal:
    def test_convex_origin(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        cert = is_global(m, np.zeros(2))
        assert cert.is_global
        assert cert.residual == 0.0
        assert cert.psd_margin == pytest.approx(1.0, abs=1e-12)

    def test_worked_nonglobal_stationary(self):
        cert = is_global(WORKED, np.array([1.0, 0.0]))
        assert cert.residual <= 1e-12
        assert cert.psd_margin == pytest.approx(-2.0, abs=1e-9)
        assert not cert.is_global

    def test_worked_global_hard_case(self):
        cert = is_global(WORKED, HARD_S)
        assert cert.residual <= WORKED.default_tol_grad()
        assert cert.psd_margin == pytest.approx(0.0, abs=1e-9)
        assert cert.is_global

    def test_certificate_definition(self):
        rng = np.random.default_rng(15)
        cases = []
        for _ in range(30):
            m = random_model(rng)
            cases.append((m, rng.normal(size=m.n)))
        cases.append((CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0), np.zeros(2)))
        for m, s in cases:
            cert = is_global(m, s)
            assert isinstance(cert, GlobalCertificate)
            expect = cert.residual <= cert.tol_grad and cert.psd_margin >= -cert.tol_psd
            assert cert.is_global == expect
            # The margin is the smallest eigenvalue of Q + sigma*||s||*I.
            shifted = m.Q.entries + m.sigma * np.linalg.norm(s) * np.eye(m.n)
            assert cert.psd_margin == pytest.approx(np.linalg.eigvalsh(shifted)[0], abs=1e-9)

    def test_explicit_tolerances(self):
        cert = is_global(WORKED, np.array([1.0, 0.0]), tol_grad=0.5, tol_psd=3.0)
        assert cert.is_global
        with pytest.raises(ValueError):
            is_global(WORKED, np.zeros(2), tol_grad=-1.0)


class TestObjectiveRange:
    """m(s) past double range raises; past it above, m(s) is inf."""

    # The one stationary point has lam = 1.479e150 and m(s) about -2.2e450.
    OUT = CubicModel([1e300, 2e300], np.diag([1e50, 3e50]), 1.0)

    def test_objective_below_range_raises(self):
        # c's overflows to -inf and ||s||**3 to inf: without the test m(s) is NaN.
        s = np.array([-1e150, -1e150])
        with pytest.raises(ConvergenceError, match=r"^m\(s\) leaves double range at lam = "):
            StationaryPoint.from_vector(self.OUT, s)
        with pytest.raises(ConvergenceError, match="leaves double range"):
            is_global(self.OUT, s)

    def test_cube_overflow_alone_is_inf(self):
        p = StationaryPoint.from_vector(CubicModel([1.0], [[1.0]], 1.0), [1e103])
        assert p.objective == math.inf
        assert p.residual == 1e206

    @pytest.mark.parametrize("x", [-1e50, 1e101])
    def test_in_range_objective_is_the_plain_evaluation(self, x):
        # 1e101 is past the bound that skips the overflow test, not past range.
        m = CubicModel([1.0], [[1.0]], 1.0)
        p = StationaryPoint.from_vector(m, [x])
        assert math.isfinite(p.objective)
        assert p.objective == eval_model(m, [x])


class TestOverflowingLoad:
    """A finite c whose squared norm overflows: c = (1e200, 0)."""

    BIG = CubicModel([1e200, 0.0], np.diag([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e300])
    def test_norm_c_finite(self, scale):
        m = CubicModel([3.0 * scale, -4.0 * scale], np.eye(2), 1.0)
        assert m.norm_c == pytest.approx(5.0 * scale, rel=1e-15)

    def test_origin_is_not_global(self):
        # The residual at 0 is ||c||, whose squares overflow.
        cert = is_global(self.BIG, np.zeros(2))
        assert cert.residual == 1e200
        assert cert.tol_grad == 1e-8 * (1.0 + 1e200)
        assert not cert.is_global

    def test_global_minimizer_certified(self):
        sol = global_minimize(self.BIG)
        assert sol.s_star == pytest.approx([-1e100, 0.0], rel=1e-12)
        assert math.isfinite(sol.certificate.residual)
        assert sol.certificate.is_global
        assert not sol.hard_case
