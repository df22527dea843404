"""Armijo descent with opportunistic Newton steps on the cubic model."""

import numpy as np
import pytest

from cubicmin import ArcOptions, CubicModel, arc_plus_minimize, get_problem, grad
from cubicmin import driver
from cubicmin import model as model_mod
from cubicmin.local_solver import (
    LocalSolveReport,
    _newton_step,
    _shifted_newton_step,
    local_minimize,
)
from cubicmin.model import hess, is_global
from cubicmin.stationary import enumerate_stationary

from .helpers import random_controlled_model, random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            local_minimize(WORKED, np.zeros(2), eps_grad=0.0)


class TestExamples:
    def test_convex_to_origin(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        rep = local_minimize(m, np.array([3.0, -4.0]))
        assert rep.converged
        assert np.linalg.norm(rep.s) <= 1e-6
        # Newton is tried at every iterate, so no gradient step is needed
        assert rep.step_counts == {"newton": rep.iterations, "shifted": 0, "gradient": 0}

    def test_one_dimensional(self):
        m = CubicModel([1.0], [[0.0]], 1.0)
        rep = local_minimize(m, np.array([-0.5]))
        assert rep.converged
        assert rep.s == pytest.approx([-1.0], abs=1e-6)
        assert rep.residual <= 1e-8 * (1.0 + m.norm_c)

    def test_worked_instance_lands_on_enumerated_root(self):
        rep = local_minimize(WORKED, np.array([0.9, 0.05]))
        assert rep.converged
        lam = WORKED.sigma * np.linalg.norm(rep.s)
        roots = sorted({round(p.lam, 9) for p in enumerate_stationary(WORKED)})
        assert min(abs(lam - r) for r in roots) <= 1e-6
        assert rep.residual <= 1e-8 * (1.0 + WORKED.norm_c)


class TestNewtonStep:
    # At s = 0 the model Hessian is Q itself, so Q is the H under test.
    @staticmethod
    def _step(q, g):
        q = np.asarray(q, dtype=float)
        m = CubicModel(np.zeros(q.shape[0]), q, 1.0)
        return _newton_step(m, np.zeros(q.shape[0]), np.asarray(g, dtype=float))

    @pytest.mark.parametrize(
        "q",
        [
            np.diag([2.0, 2.0, -1.0]),
            [[1.0, 3.0], [3.0, 1.0]],
            [[-1.0, 0.0], [0.0, -2.0]],
        ],
    )
    def test_indefinite_returns_none(self, q):
        assert self._step(q, np.ones(len(q))) is None

    @pytest.mark.parametrize(
        "q",
        [
            np.diag([1.0, 0.0]),
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, 2.0], [2.0, 4.0]],
            np.zeros((3, 3)),
        ],
    )
    def test_singular_returns_none(self, q):
        assert self._step(q, np.ones(len(q))) is None

    @pytest.mark.parametrize("seed", range(30))
    def test_spd_matches_dense_solve(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 17))
        b = rng.normal(size=(n, n))
        q = b @ b.T + np.eye(n)
        g = rng.uniform(-5.0, 5.0, size=n)
        d = self._step(q, g)
        ref = np.linalg.solve(q + 1e-12 * np.eye(n), -g)
        assert np.max(np.abs(d - ref)) <= 1e-10 * (1.0 + np.linalg.norm(g))

    def test_local_solve_builds_no_validated_hessian(self, monkeypatch):
        m = random_controlled_model(np.random.default_rng(17), nmax=8)
        m.eig  # the cached eigendecomposition is built before the patch

        def refuse(entries):
            raise AssertionError("local solve validated a Hessian")

        monkeypatch.setattr(model_mod, "SymmetricMatrix", refuse)
        report = local_minimize(m, np.ones(m.n))
        assert report.converged
        assert report.step_counts["newton"] + report.step_counts["shifted"] > 0


class TestShiftedNewtonStep:
    @pytest.mark.parametrize("seed", range(30))
    def test_factors_and_descends_below_zero_shift(self, seed):
        rng = np.random.default_rng(9100 + seed)
        n = int(rng.integers(2, 17))
        mu = rng.uniform(-5.0, 5.0, size=n)
        mu[0] = -rng.uniform(0.1, 5.0)
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q = (v * mu) @ v.T
        m = CubicModel(rng.uniform(-5.0, 5.0, size=n), (q + q.T) / 2.0, 0.5)
        # ||s|| below -mu_1/sigma makes shift = mu_1 + sigma*||s|| negative
        u = rng.normal(size=n)
        s = rng.uniform(0.0, 0.95) * (-mu.min() / m.sigma) * u / np.linalg.norm(u)
        shift = mu.min() + m.sigma * np.linalg.norm(s)
        assert shift < 0.0
        g = grad(m, s)
        d = _shifted_newton_step(m, s, g)
        assert d is not None
        assert g @ d < 0.0
        ref = np.linalg.solve(hess(m, s).entries - 2.0 * shift * np.eye(n), -g)
        assert np.max(np.abs(d - ref)) <= 1e-10 * (1.0 + np.linalg.norm(ref))

    @pytest.mark.parametrize(
        "q, sigma, s",
        [
            # mu_1 + sigma*||s|| = -1 + 1*1 = 0 exactly: H is singular
            (np.diag([-1.0, 2.0]), 1.0, [1.0, 0.0]),
            (np.diag([-1.0, 2.0]), 0.5, [0.0, 2.0]),
            (np.diag([-1.0, 2.0]), 1.0, [3.0, 4.0]),
            (np.diag([1.0, 2.0]), 1.0, [0.0, 0.0]),
        ],
    )
    def test_none_when_shift_nonnegative(self, q, sigma, s):
        m = CubicModel([0.3, -0.2], q, sigma)
        s = np.asarray(s, dtype=float)
        assert _shifted_newton_step(m, s, grad(m, s)) is None


class TestStaysLocal:
    # Q = diag(-1, 2), c = (0.1, 0.05), sigma = 1 has a local non-global
    # minimizer near (0.8871, -0.0173) and the global one near
    # (-1.0915, -0.0162); the shifted step must not jump between basins.
    M = CubicModel([0.1, 0.05], np.diag([-1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("s0", [[1.0, 0.0], [0.3, 0.5]])
    def test_converges_to_local_non_global(self, s0):
        rep = local_minimize(self.M, np.array(s0))
        assert rep.converged
        assert rep.s == pytest.approx([0.8871, -0.0173], abs=1e-4)
        assert is_global(self.M, rep.s).psd_margin < -0.1

    def test_converges_to_global(self):
        rep = local_minimize(self.M, np.array([0.05, -1.0]))
        assert rep.converged
        assert rep.s == pytest.approx([-1.0915, -0.0162], abs=1e-4)
        assert is_global(self.M, rep.s).is_global


class TestArcCrawl:
    @pytest.mark.parametrize(
        "name, outer", [("rosenbrock10", 38), ("rosen_coupled6", 35)]
    )
    def test_arc_local_solves_stay_short(self, monkeypatch, name, outer):
        reports = []

        def recording(m, s0, eps_grad=None):
            rep = local_minimize(m, s0, eps_grad)
            reports.append(rep)
            return rep

        monkeypatch.setattr(driver, "local_minimize", recording)
        res = arc_plus_minimize(get_problem(name), None, "ARC", ArcOptions(seed=0))
        assert res.converged
        assert res.iterations == outer
        assert sum(r.iterations for r in reports) <= 300
        assert sum(r.step_counts["shifted"] for r in reports) > 0


class TestReportContract:
    def test_report_fields(self):
        rep = local_minimize(WORKED, np.zeros(2))
        assert isinstance(rep, LocalSolveReport)
        assert rep.iterations >= 0
        assert rep.objective_trace[0] == 0.0
        assert set(rep.step_counts) == {"newton", "shifted", "gradient"}
        bare = LocalSolveReport(
            s=rep.s, residual=0.0, iterations=0, objective_trace=[], converged=True
        )
        assert bare.step_counts == {}

    def test_step_counts_sum_to_iterations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = random_model(rng, nmax=6)
            rep = local_minimize(m, rng.uniform(-3.0, 3.0, size=m.n))
            if rep.converged:
                assert sum(rep.step_counts.values()) == rep.iterations

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, n=5)
        s0 = rng.normal(size=5)
        r1 = local_minimize(m, s0)
        r2 = local_minimize(m, s0)
        assert np.array_equal(r1.s, r2.s)
        assert r1.iterations == r2.iterations

    def test_nonconvergence_reported_not_raised(self):
        # the stationary point sits at an irrational norm, so the residual
        # bottoms out near machine precision and an impossible tolerance
        # must come back as converged=False rather than an exception
        m = CubicModel([1.3], [[0.0]], 1.0)
        rep = local_minimize(m, np.array([-0.5]), eps_grad=1e-300)
        assert not rep.converged
        assert 0.0 < rep.residual <= 1e-10


class TestMonotoneDescent:
    @pytest.mark.parametrize("seed", range(250))
    def test_trace_non_increasing(self, seed):
        rng = np.random.default_rng(4000 + seed)
        runs = 4
        for _ in range(runs):
            m = random_model(rng, nmax=8)
            s0 = rng.uniform(-3.0, 3.0, size=m.n)
            rep = local_minimize(m, s0)
            trace = np.asarray(rep.objective_trace)
            assert np.all(np.diff(trace) <= 0.0)
            if rep.converged:
                assert rep.residual <= 1e-8 * (1.0 + m.norm_c)


class TestConsistencyWithEnumeration:
    @pytest.mark.parametrize("seed", range(60))
    def test_lambda_matches_some_stationary_point(self, seed):
        rng = np.random.default_rng(5000 + seed)
        m = random_model(rng, nmax=4)
        s0 = rng.uniform(-2.0, 2.0, size=m.n)
        rep = local_minimize(m, s0)
        if not rep.converged:
            return
        pts = enumerate_stationary(m)
        lam = m.sigma * np.linalg.norm(rep.s)
        assert pts, "converged run on an instance with no stationary points"
        assert min(abs(lam - p.lam) for p in pts) <= 1e-5


class TestCoercivityGuard:
    @pytest.mark.parametrize("seed", range(60))
    def test_iterates_stay_in_radius(self, monkeypatch, seed):
        rng = np.random.default_rng(6000 + seed)
        m = random_controlled_model(rng, nmax=6)
        radius = 2.0 * (m.Q.max_abs / m.sigma + np.sqrt(m.norm_c / m.sigma) + 1.0)
        s0 = rng.uniform(-1.0, 1.0, size=m.n) * radius / 2.0
        # the solve evaluates the gradient at s0 and at every iterate after it
        iterates = []

        def recording(model, s):
            iterates.append(np.array(s))
            return grad(model, s)

        monkeypatch.setattr(model_mod, "grad", recording)
        local_minimize(m, s0)
        assert np.array_equal(iterates[0], s0)
        for s in iterates[10:]:
            assert np.linalg.norm(s) <= radius
