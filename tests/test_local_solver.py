"""Armijo descent with opportunistic Newton steps on the cubic model."""

import numpy as np
import pytest

from cubicmin import ArcOptions, CubicModel, arc_plus_minimize, get_problem, grad
from cubicmin import driver, linalg
from cubicmin import model as model_mod
from cubicmin.local_solver import _ARMIJO_C, _BACKTRACK, _MAX_ITERS, _PD_RTOL
from cubicmin.local_solver import LocalSolveReport, _newton_step, local_minimize
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
        s = np.zeros(q.shape[0])
        return _newton_step(m, s, linalg.norm(s), np.asarray(g, dtype=float))

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

    @pytest.mark.parametrize("rel", [0.0, 1e-15, -1e-15])
    def test_second_d_near_zero_after_negative_first(self, rel):
        # Q = diag(-3, -1, 2), sigma = 1, ||s|| = 1 + rel: D = (-2, ~rel, 3),
        # so the least |D_i| is D_2 and the diagonal solve is singular.
        m = CubicModel([0.3, -0.2, 0.1], np.diag([-3.0, -1.0, 2.0]), 1.0)
        s = (1.0 + rel) * np.array([0.6, 0.8, 0.0])
        assert _newton_step(m, s, linalg.norm(s), grad(m, s)) is None

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_solve_away_from_origin(self, seed):
        rng = np.random.default_rng(9200 + seed)
        m = random_controlled_model(rng, nmax=12)
        s = rng.normal(size=m.n) * rng.uniform(0.1, 3.0)
        g = grad(m, s)
        H = hess(m, s).entries
        lo = np.linalg.eigvalsh(H)[0]
        d = _newton_step(m, s, linalg.norm(s), g)
        if lo > 1e-6 * np.max(np.abs(H)):
            assert d is not None
            ref = np.linalg.solve(H, -g)
            assert np.max(np.abs(d - ref)) <= 1e-9 * (1.0 + np.linalg.norm(ref))
        elif lo < 0.0:
            assert d is None
        shift = m.eig.values[0] + m.sigma * np.linalg.norm(s)
        d = _newton_step(m, s, linalg.norm(s), g, shifted=True)
        if shift >= 0.0:
            assert d is None
        else:
            ref = np.linalg.solve(H - 2.0 * shift * np.eye(m.n), -g)
            assert np.max(np.abs(d - ref)) <= 1e-9 * (1.0 + np.linalg.norm(ref))

    def test_local_solve_builds_no_validated_hessian(self, monkeypatch):
        m = random_controlled_model(np.random.default_rng(17), nmax=8)
        m.eig  # the cached eigendecomposition is built before the patch

        def refuse(entries):
            raise AssertionError("local solve validated a Hessian")

        monkeypatch.setattr(model_mod, "SymmetricMatrix", refuse)
        report = local_minimize(m, np.ones(m.n))
        assert report.converged
        assert report.step_counts["newton"] + report.step_counts["shifted"] > 0


class TestPositiveDefiniteBoundary:
    """The closed-form test against eigvalsh of the dense Newton matrix.

    With ``Q = R diag(-3, 1) R^T`` for a rotation R, ``sigma = 1`` and
    ``s = r R e_1``, H has eigenvalues ``-3 + 2r`` and ``1 + r``; in the
    eigenbasis ``D = (r - 3, r + 1)`` and the Sherman-Morrison denominator
    is ``(2r - 3)/(r - 3)``.  So for ``1.5 < r < 3`` only D_1 is negative,
    with the denominator below 0 (H positive definite); for ``r < 1.5``
    above 0 (H indefinite); at ``r = 1.5`` near 0 (H singular).
    """

    R = np.array([[0.6, -0.8], [0.8, 0.6]])
    M = CubicModel([0.5, -0.25], R @ np.diag([-3.0, 1.0]) @ R.T, 1.0)

    def _case(self, r):
        s = r * self.R[:, 0]
        g = grad(self.M, s)
        lo = np.linalg.eigvalsh(hess(self.M, s).entries)[0]
        return s, g, lo, _newton_step(self.M, s, linalg.norm(s), g)

    @pytest.mark.parametrize("r", [1.6, 2.0, 2.9])
    def test_one_negative_d_denominator_below_zero(self, r):
        s, g, lo, d = self._case(r)
        assert self.M.eig.values[0] + r < 0.0
        assert lo > 0.0
        ref = np.linalg.solve(hess(self.M, s).entries, -g)
        assert np.max(np.abs(d - ref)) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.4])
    def test_one_negative_d_denominator_above_zero(self, r):
        _, _, lo, d = self._case(r)
        assert lo < 0.0
        assert d is None

    @pytest.mark.parametrize("rel", [0.0, 1e-15, -1e-15, 1e-14])
    def test_one_negative_d_denominator_near_zero(self, rel):
        _, _, lo, d = self._case(1.5 * (1.0 + rel))
        assert abs(lo) <= 1e-12
        assert d is None

    @pytest.mark.parametrize("rel", [0.0, 1e-15, -1e-15, 1e-14])
    def test_d_near_zero(self, rel):
        # D_1 = r - 3 vanishes at r = 3, where H = diag(3, 4) in the
        # rotated basis is well conditioned, but the diagonal solve is not.
        _, _, lo, d = self._case(3.0 * (1.0 + rel))
        assert lo > 2.0
        assert d is None

    def test_singular_semidefinite_hessian_away_from_origin(self):
        # Q = diag(-1, 2), sigma = 1, s = (0, 1): H = diag(0, 4).
        m = CubicModel([0.3, -0.2], np.diag([-1.0, 2.0]), 1.0)
        s = np.array([0.0, 1.0])
        H = hess(m, s).entries
        assert np.array_equal(H, np.diag([0.0, 4.0]))
        assert np.linalg.eigvalsh(H)[0] == 0.0
        assert _newton_step(m, s, linalg.norm(s), grad(m, s)) is None


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
        d = _newton_step(m, s, linalg.norm(s), g, shifted=True)
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
        assert _newton_step(m, s, linalg.norm(s), grad(m, s), shifted=True) is None


class TestNoFactorization:
    def test_local_solve_needs_no_cholesky_or_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("local solve called a dense factorization")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for seed in range(5):
            m = random_controlled_model(np.random.default_rng(300 + seed), nmax=8)
            rep = local_minimize(m, np.ones(m.n))
            assert rep.converged
        rep = local_minimize(WORKED, np.array([0.9, 0.05]))
        assert rep.converged
        assert rep.step_counts["newton"] + rep.step_counts["shifted"] > 0


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
        gradient = model_mod._gradient

        def recording(model, s, norm_s, qs):
            iterates.append(np.array(s))
            return gradient(model, s, norm_s, qs)

        monkeypatch.setattr(model_mod, "_gradient", recording)
        local_minimize(m, s0)
        assert np.array_equal(iterates[0], s0)
        for s in iterates[10:]:
            assert np.linalg.norm(s) <= radius


# The local solve as it was before each iterate kept its ||s||, Q s and
# m(s): eval_model and grad per point, and a Newton step that takes its
# own norm and tests definiteness with whole-array reductions.  The
# parity test below holds the solver to this reference bit for bit.


def _reference_newton_step(m, s, g, shifted=False):
    norm_s = linalg.norm(s)
    d = m.eig.values + m.sigma * norm_s
    if shifted:
        if d[0] >= 0.0:
            return None
        d = d - 2.0 * d[0]
    elif np.count_nonzero(d < 0.0) > 1:
        return None
    elif np.abs(d).min() <= _PD_RTOL * (np.abs(d).max() + m.sigma * norm_s):
        return None
    V = m.eig.vectors
    u = V.T @ s
    du = u / d
    dh = (V.T @ g) / d
    rho = m.sigma / norm_s if norm_s else 0.0
    terms = rho * u * du
    denom = 1.0 + float(terms.sum())
    if d[0] < 0.0 and not denom < -_PD_RTOL * (1.0 + float(np.abs(terms).sum())):
        return None
    return -(V @ (dh - (rho * float(u @ dh) / denom) * du))


def _reference_local_minimize(m, s0, eps_grad=None):
    eps = eps_grad if eps_grad is not None else m.default_tol_grad()
    s = np.array(m._check_dim(s0), dtype=float)
    f = model_mod.eval_model(m, s)
    trace = [f]
    step0 = 1.0 / (1.0 + m.Q.max_abs + m.sigma * linalg.norm(s))
    t_carry = step0

    iterations = 0
    flat_steps = 0
    step_counts = {"newton": 0, "shifted": 0, "gradient": 0}
    for iterations in range(1, _MAX_ITERS + 1):
        g = model_mod.grad(m, s)
        residual = linalg.safe_norm(g)
        if residual <= eps:
            return LocalSolveReport(
                s=s, residual=residual, iterations=iterations - 1,
                objective_trace=trace, converged=True,
                step_counts=step_counts,
            )

        candidates = []
        d_newton = _reference_newton_step(m, s, g)
        if d_newton is not None:
            candidates.append(("newton", d_newton, 1.0))
        else:
            d_shifted = _reference_newton_step(m, s, g, shifted=True)
            if d_shifted is not None:
                candidates.append(("shifted", d_shifted, 1.0))
        candidates.append(("gradient", -g, t_carry))

        moved = False
        for kind, direction, t0 in candidates:
            slope = float(g @ direction)
            if slope >= 0.0:
                continue
            t = t0
            for _ in range(60):
                f_new = model_mod.eval_model(m, s + t * direction)
                if f_new <= f + _ARMIJO_C * t * slope:
                    flat_steps = flat_steps + 1 if f_new == f else 0
                    s = s + t * direction
                    f = f_new
                    moved = True
                    step_counts[kind] += 1
                    if kind == "gradient":
                        t_carry = 2.0 * t
                    break
                t *= _BACKTRACK
            if moved:
                break
        if not moved or flat_steps >= 3:
            break
        trace.append(f)

    g = model_mod.grad(m, s)
    residual = linalg.safe_norm(g)
    for _ in range(4):
        if residual <= eps:
            break
        d = _reference_newton_step(m, s, g)
        if d is None:
            break
        s_try = s + d
        g_try = model_mod.grad(m, s_try)
        r_try = linalg.norm(g_try)
        if r_try < 0.5 * residual:
            s, g, residual = s_try, g_try, r_try
        else:
            break
    return LocalSolveReport(
        s=s, residual=residual, iterations=iterations,
        objective_trace=trace, converged=residual <= eps,
        step_counts=step_counts,
    )


def _hard_case_model(rng, n):
    """A controlled model with c orthogonal to Q's bottom eigenvector."""
    m = random_controlled_model(rng, n=n)
    v = m.eig.vectors[:, 0]
    return CubicModel(m.c - (m.c @ v) * v, m.Q, m.sigma)


def _badly_scaled_model(rng, n):
    """A random model with Q scaled by 1e6 or sigma set to 1e-6, where
    the Newton polish takes more than one step."""
    m = random_model(rng, n=n)
    if rng.random() < 0.5:
        return CubicModel(m.c, 1e6 * m.Q.entries, m.sigma)
    return CubicModel(m.c, m.Q, 1e-6)


def _report_bytes(rep):
    return (
        rep.s.tobytes(),
        np.float64(rep.residual).tobytes(),
        rep.iterations,
        np.array(rep.objective_trace, dtype=float).tobytes(),
        rep.converged,
        rep.step_counts,
    )


class TestReferenceParity:
    """Each iterate evaluated once gives the reference solve's bits."""

    MAKERS = {
        "random": lambda rng, n: random_model(rng, n=n),
        "controlled": lambda rng, n: random_controlled_model(rng, n=n),
        "hard": _hard_case_model,
        "badly_scaled": _badly_scaled_model,
    }

    EPS = (None, 1e-3, 1e-12)

    @pytest.mark.parametrize("eps_grad", EPS)
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_reports_byte_equal(self, kind, eps_grad):
        rng = np.random.default_rng([7000, sorted(self.MAKERS).index(kind), self.EPS.index(eps_grad)])
        for n in np.repeat(np.arange(1, 11), 6):
            m = self.MAKERS[kind](rng, int(n))
            u = rng.normal(size=m.n)
            on_sphere = (min(1.0, 1.0 / m.sigma) / np.linalg.norm(u)) * u
            for s0 in (np.zeros(m.n), on_sphere, 1e3 * rng.normal(size=m.n)):
                got = local_minimize(m, s0, eps_grad)
                ref = _reference_local_minimize(m, s0, eps_grad)
                assert _report_bytes(got) == _report_bytes(ref)
