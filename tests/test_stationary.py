"""Secular equation, stationary-point enumeration, and global minimization."""

import gc
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from cubicmin import CubicModel, eval_model, is_global, stationary
from cubicmin.exceptions import (
    CertificateFailure,
    ConvergenceError,
    CubicminError,
    NormMismatch,
    PoleEvaluation,
)
from cubicmin.model import StationaryPoint
from cubicmin.problem_io import parse_problem
from cubicmin.stationary import (
    _POLE_MERGE,
    SecularProblem,
    _boundary_parts,
    _boundary_points,
    _coefficients,
    _finish_global,
    count_bound,
    enumerate_lambda,
    enumerate_stationary,
    g_eval,
    global_minimize,
    stationary_from_lambda,
    subintervals,
)

from .helpers import min_second_difference, np_eval, np_psd_margin, np_residual, random_model

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)


def _sp(m):
    return SecularProblem.from_model(m)


class TestGEval:
    def test_zero_couplings(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 2.0]), 1.0)
        sp = _sp(m)
        for lam in (0.5, 1.0, 7.3):
            assert g_eval(sp, lam) == 0.0

    def test_two_pole_example(self):
        # mu = (-2, -1), beta = (1, 1): g(3) = (1/9)(1/1 + 1/4) = 5/36
        m = CubicModel([-1.0, -1.0], np.diag([-2.0, -1.0]), 1.0)
        sp = _sp(m)
        assert np.allclose(np.abs(sp.beta), [1.0, 1.0])
        assert g_eval(sp, 3.0) == pytest.approx(5.0 / 36.0, rel=1e-14)

    def test_scalar_example(self):
        # mu = 0, beta = 1: g(2) = (1/4)(1/4) = 1/16
        m = CubicModel([-1.0], [[0.0]], 1.0)
        assert g_eval(_sp(m), 2.0) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_pole_rejection(self):
        sp = _sp(CubicModel([-1.0, -1.0], np.diag([-2.0, -1.0]), 1.0))
        with pytest.raises(PoleEvaluation):
            g_eval(sp, 0.0)
        with pytest.raises(PoleEvaluation):
            g_eval(sp, 2.0)


class TestSubintervals:
    def test_positive_poles_cut_axis(self):
        sp = _sp(CubicModel([-1.0, -1.0], np.diag([-2.0, -1.0]), 1.0))
        cuts = subintervals(sp)
        assert cuts == [(0.0, 1.0), (1.0, 2.0), (2.0, math.inf)]

    def test_uncoupled_poles_are_merged(self):
        # c orthogonal to v1 removes the pole at -mu_1 = 3
        cuts = subintervals(_sp(WORKED))
        assert cuts == [(0.0, math.inf)]

    def test_no_negative_eigenvalues(self):
        cuts = subintervals(_sp(CubicModel([1.0, 1.0], np.eye(2), 1.0)))
        assert cuts == [(0.0, math.inf)]


class TestEnumerateLambda:
    def test_zero_c(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 2.0]), 1.0)
        assert enumerate_lambda(_sp(m)) == []

    def test_one_dimensional(self):
        m = CubicModel([1.0], [[0.0]], 1.0)
        roots = enumerate_lambda(_sp(m))
        assert len(roots) == 1
        assert roots[0].lam == pytest.approx(1.0, abs=1e-9)

    def test_worked_instance_single_root(self):
        roots = enumerate_lambda(_sp(WORKED))
        assert len(roots) == 1
        assert roots[0].lam == pytest.approx(1.0, abs=1e-9)

    def test_five_root_instance(self):
        m = CubicModel([-1.0, -1.0], np.diag([-4.0, -1.0]), 0.05)
        roots = enumerate_lambda(_sp(m))
        lams = [r.lam for r in roots]
        assert lams == pytest.approx(
            [0.0544, 0.9472, 1.0477, 3.9875, 4.0125], abs=5e-4
        )
        assert len(lams) <= count_bound(m)

    @pytest.mark.parametrize("seed", range(60))
    def test_root_quality_random(self, seed):
        rng = np.random.default_rng(500 + seed)
        m = random_model(rng)
        sp = _sp(m)
        roots = enumerate_lambda(sp)
        target = 1.0 / m.sigma**2
        lams = [r.lam for r in roots]
        assert lams == sorted(lams)
        k_pos = sum(1 for p in sp.poles if p > 0)
        assert len(lams) <= 2 * k_pos + 1
        cuts = subintervals(sp)
        for r in roots:
            assert any(lo <= r.lam <= hi and lo <= r.pole <= hi for lo, hi in cuts)
            assert r.lam == r.pole + r.offset
            assert abs(g_eval(sp, r.lam) - target) <= 1e-8 * target


class TestStationaryFromLambda:
    def test_one_dimensional(self):
        m = CubicModel([1.0], [[0.0]], 1.0)
        (root,) = enumerate_lambda(_sp(m))
        pt = StationaryPoint.from_vector(m, stationary_from_lambda(_sp(m), root))
        assert pt.s == pytest.approx([-1.0], abs=1e-9)
        assert pt.objective == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_worked_regular_root(self):
        sp = _sp(WORKED)
        (root,) = enumerate_lambda(sp)
        pt = StationaryPoint.from_vector(WORKED, stationary_from_lambda(sp, root))
        assert pt.s == pytest.approx([1.0, 0.0], abs=1e-8)
        assert pt.objective == pytest.approx(-7.0 / 6.0, abs=1e-9)
        assert pt.residual <= 1e-7 * (1.0 + WORKED.norm_c)

    # Boundary multipliers have no secular root: their points come from
    # _boundary_parts, through enumerate_stationary.
    def test_worked_degenerate_multiplier(self):
        pts = [p for p in enumerate_stationary(WORKED) if abs(p.lam - 3.0) <= 1e-9]
        assert len(pts) == 2
        tau = math.sqrt(35.0) / 2.0
        got = sorted(float(p.s[1]) for p in pts)
        assert got == pytest.approx([-tau, tau], abs=1e-12)
        for p in pts:
            assert p.s[0] == pytest.approx(0.5, abs=1e-12)
            assert p.objective == pytest.approx(-5.0, abs=1e-9)
            assert np.linalg.norm(p.s) == pytest.approx(3.0, abs=1e-12)

    def test_norm_mismatch_on_inconsistent_root(self):
        # ||V a|| = 20/(1 + 3) = 5 at lam = 3 exceeds lam/sigma = 3.
        m = CubicModel([-20.0, 0.0], np.diag([1.0, -3.0]), 1.0)
        with pytest.raises(NormMismatch):
            _boundary_parts(_sp(m), 3.0)
        # Enumeration skips the multiplier instead of raising.
        assert all(abs(p.lam - 3.0) > 1e-6 for p in enumerate_stationary(m))

    def test_norm_mismatch_without_null_mode(self):
        with pytest.raises(NormMismatch):
            _boundary_parts(_sp(WORKED), 2.0)


class TestEnumerateStationary:
    def test_zero_c_indefinite(self):
        m = CubicModel([0.0, 0.0], np.diag([-1.0, 1.0]), 1.0)
        pts = enumerate_stationary(m)
        assert len(pts) == 3
        lams = sorted(round(p.lam, 9) for p in pts)
        assert lams == [0.0, 1.0, 1.0]
        nonzero = [p for p in pts if p.lam > 0.5]
        for p in nonzero:
            assert abs(p.s[0]) == pytest.approx(1.0, abs=1e-12)
            assert p.objective == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert len({round(p.lam, 8) for p in pts}) <= count_bound(m)

    def test_worked_instance(self):
        pts = enumerate_stationary(WORKED)
        lams = sorted({round(p.lam, 6) for p in pts})
        assert lams == [1.0, 3.0]
        assert len(pts) == 3

    def test_convex_zero_c(self):
        pts = enumerate_stationary(CubicModel([0.0], [[1.0]], 1.0))
        assert len(pts) == 1
        assert np.array_equal(pts[0].s, [0.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_residual_and_halfform_random(self, seed):
        rng = np.random.default_rng(900 + seed)
        m = random_model(rng)
        for p in enumerate_stationary(m):
            assert p.residual <= 1e-7 * (1.0 + m.norm_c)
            ns = np.linalg.norm(p.s)
            half = 0.5 * float(m.c @ p.s) - m.sigma / 6.0 * ns**3
            assert abs(p.objective - half) <= 1e-8 * (1.0 + abs(p.objective))


class TestCountBound:
    def test_identity(self):
        assert count_bound(CubicModel([1.0, 1.0], np.eye(2), 1.0)) == 2

    def test_two_distinct_negative(self):
        m = CubicModel([0.0, 0.0, 0.0], np.diag([-2.0, -1.0, 5.0]), 1.0)
        assert count_bound(m) == 6
        # c = 0 couples no mode, yet there are three distinct multipliers,
        # more than 2(0 + 1): uncoupled negative eigenvalues must count.
        lams = sorted({p.lam for p in enumerate_stationary(m)})
        assert lams == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_multiplicity_collapses(self):
        m = CubicModel([0.0, 0.0, 0.0], -np.eye(3), 1.0)
        assert count_bound(m) == 4

    def test_eigenvalues_5e_10_apart_count_twice(self):
        # mu_1 and mu_2 are 5e-10 apart, tied by a 1e-9*(1+|mu_1|) rule,
        # yet the enumeration finds five multipliers at least 1.6e-10 apart.
        m = CubicModel([-3e-10, -3e-10, -0.3], np.diag([-1.0 - 5e-10, -1.0, 2.0]), 0.5)
        pts = enumerate_stationary(m)
        lams = [p.lam for p in pts]
        assert len(lams) == 5
        assert min(np.diff(lams)) > 1.6e-10
        assert max(p.residual for p in pts) <= 1e-16
        assert count_bound(m) == 6


class TestGlobalMinimize:
    def test_convex_origin(self):
        sol = global_minimize(CubicModel([0.0, 0.0], np.eye(2), 1.0))
        assert np.array_equal(sol.s_star, np.zeros(2))
        assert sol.lambda_star == 0.0
        assert sol.objective == 0.0
        assert sol.certificate.is_global
        assert not sol.hard_case

    def test_one_dimensional(self):
        sol = global_minimize(CubicModel([1.0], [[0.0]], 1.0))
        assert sol.s_star == pytest.approx([-1.0], abs=1e-9)
        assert sol.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert sol.objective == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_worked_hard_case(self):
        sol = global_minimize(WORKED)
        assert sol.hard_case
        assert sol.lambda_star == pytest.approx(3.0, abs=1e-9)
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)
        assert abs(sol.certificate.psd_margin) <= 1e-9
        assert sol.certificate.is_global
        assert abs(sol.s_star[0] - 0.5) <= 1e-9
        assert abs(abs(sol.s_star[1]) - math.sqrt(35.0) / 2.0) <= 1e-9

    def test_certificate_equals_is_global(self):
        # The solution's certificate judges the same evaluation of s*
        # that is_global makes.
        rng = np.random.default_rng(79)
        for _ in range(30):
            m = random_model(rng)
            sol = global_minimize(m)
            assert is_global(m, sol.s_star) == sol.certificate

    def test_lambda_star_dominates_spectrum(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            m = random_model(rng)
            sol = global_minimize(m)
            assert sol.lambda_star >= max(0.0, -float(m.eig.values[0])) - 1e-8
            assert sol.certificate.is_global

    def test_matches_enumeration_minimum(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            m = random_model(rng, nmax=5)
            sol = global_minimize(m)
            pts = enumerate_stationary(m)
            if pts:
                best = min(p.objective for p in pts)
                assert sol.objective <= best + 1e-7 * (1.0 + abs(best))


def _reference_global(m):
    """global_minimize read off the largest root of the full enumeration."""
    sp = SecularProblem.from_model(m)
    lam_star = max(0.0, -float(m.eig.values[0]))
    roots = enumerate_lambda(sp)
    if roots and roots[-1].offset > lam_star - roots[-1].pole:
        coeff, _ = _coefficients(sp, roots[-1].pole, roots[-1].offset)
        s_star, hard = sp.eig.vectors @ coeff, False
    elif lam_star == 0.0 and not np.any(sp.coupled):
        s_star, hard = np.zeros(m.n), False
    else:
        base, free = _boundary_parts(sp, lam_star)
        s_star, hard = base + free, True
    return _finish_global(m, StationaryPoint.from_vector(m, s_star), hard)


def _outcome(solve, m):
    try:
        sol = solve(m)
    except CubicminError as exc:
        return type(exc).__name__
    return sol.lambda_star, sol.s_star.tobytes(), sol.hard_case


def _class_model(rng, cls, n):
    """generic, hard (beta_1 = 0), near_hard (beta_1 = 1e-9) or zero_c."""
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mu = np.sort(rng.uniform(-5.0, 5.0, size=n))
    beta = rng.normal(size=n)
    sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
    if cls in ("hard", "near_hard"):
        mu[0] = min(mu[0], -0.1)
        beta[0] = 0.0 if cls == "hard" else 1e-9
        # Small enough sigma that the hard case binds.
        free = float(np.linalg.norm(beta[1:] / (mu[1:] - mu[0]))) if n > 1 else 0.0
        sigma = 0.5 * -mu[0] / max(free, 1e-12)
    elif cls == "zero_c":
        beta[:] = 0.0
    q = (v * mu) @ v.T
    return CubicModel(v @ beta, (q + q.T) / 2.0, sigma)


class TestSingleRootSearch:
    """global_minimize searches only the subinterval above the last pole."""

    def test_one_newton_search(self, monkeypatch):
        calls = []
        real = stationary._newton_root

        def counting(sp, end, far):
            calls.append((end, far))
            return real(sp, end, far)

        monkeypatch.setattr(stationary, "_newton_root", counting)
        m = CubicModel([1.0, 1.0, 1.0], np.diag([-3.0, -1.0, 2.0]), 1.0)
        global_minimize(m)
        assert calls == [(3.0, math.inf)]
        calls.clear()
        enumerate_lambda(_sp(m))
        assert len(calls) > 1
        for q in ([[-1.0, 0.0], [0.0, 2.0]], np.eye(2)):
            calls.clear()
            global_minimize(CubicModel([0.0, 0.0], q, 1.0))
            assert calls == []

    def test_matches_largest_enumerated_root(self):
        rng = np.random.default_rng(909)
        seen = set()
        bounded = 0
        for i in range(520):
            cls = ("generic", "hard", "near_hard", "zero_c")[i % 4]
            m = _class_model(rng, cls, 1 + (i // 4) % 8)
            want = _outcome(_reference_global, m)
            assert _outcome(global_minimize, m) == want, (i, cls)
            seen.add(want if isinstance(want, str) else ("hard_case", want[2]))
            bounded += len(enumerate_lambda(_sp(m))) > 1
        # Both branches ran, and roots below the last pole were skipped.
        assert {("hard_case", True), ("hard_case", False)} <= seen
        assert bounded > 50


def _fresh(m):
    return CubicModel(m.c, m.Q.entries, m.sigma)


def _global_record(m):
    try:
        sol = global_minimize(m)
    except CubicminError as exc:
        return type(exc).__name__
    cert = sol.certificate
    return (sol.s_star.tobytes(), sol.lambda_star, sol.objective, sol.hard_case,
            cert.psd_margin, cert.residual, cert.is_global, cert.tol_grad, cert.tol_psd)


def _points_record(m):
    try:
        points = enumerate_stationary(m)
    except CubicminError as exc:
        return type(exc).__name__
    return [(p.s.tobytes(), p.lam, p.objective, p.residual) for p in points]


class TestSharedSecularData:
    """One SecularProblem and one search above the last pole per model."""

    def test_one_unbounded_search_for_both_entry_points(self, monkeypatch):
        fars = []
        real = stationary._newton_root

        def counting(sp, end, far):
            fars.append(far)
            return real(sp, end, far)

        monkeypatch.setattr(stationary, "_newton_root", counting)
        m = CubicModel([1.0, 1.0, 1.0], np.diag([-3.0, -1.0, 2.0]), 1.0)
        global_minimize(m)
        enumerate_stationary(m)
        global_minimize(m)
        assert fars.count(math.inf) == 1
        assert len(fars) > 1
        assert SecularProblem.from_model(m) is SecularProblem.from_model(m)

    def test_constructor_builds_top_root_and_point(self):
        m = CubicModel([1.0, 1.0, 1.0], np.diag([-3.0, -1.0, 2.0]), 1.0)
        sp = SecularProblem(m)
        assert m._secular is None
        assert sp.top_root is not None and sp.top_root.lam > sp.poles[-1]
        assert sp.top_point.lam == pytest.approx(sp.top_root.lam, rel=1e-12)
        cached = SecularProblem.from_model(m)
        assert m._secular is cached
        assert enumerate_lambda(cached)[-1] is cached.top_root
        assert enumerate_stationary(m)[-1] is cached.top_point
        zero = SecularProblem(CubicModel([0.0, 0.0], np.diag([-1.0, 2.0]), 1.0))
        assert zero.top_root is None and zero.top_point is None

    def test_bitwise_equal_in_either_order_and_fresh(self):
        rng = np.random.default_rng(4242)
        tops = shared_tops = 0
        for i in range(160):
            cls = ("generic", "hard", "near_hard", "zero_c")[i % 4]
            m = _class_model(rng, cls, 1 + (i // 4) % 6)
            first = _fresh(m)
            sol = _global_record(first)
            points = _points_record(first)
            second = _fresh(m)
            assert _points_record(second) == points, (i, cls)
            assert _global_record(second) == sol, (i, cls)
            assert _global_record(_fresh(m)) == sol, (i, cls)
            assert _points_record(_fresh(m)) == points, (i, cls)
            if isinstance(sol, tuple) and not sol[3] and isinstance(points, list):
                # Outside the hard case the last point is the minimizer.
                assert points[-1][0] == sol[0], (i, cls)
                tops += 1
                if _sp(first).any_coupled:
                    # In either call order it is the certified point itself.
                    for shared in (first, second):
                        top = enumerate_stationary(shared)[-1]
                        assert top.s is global_minimize(shared).s_star, (i, cls)
                    shared_tops += 1
        assert tops > 60
        assert shared_tops > 40

    def test_cached_arrays_are_read_only(self):
        sp = _sp(CubicModel([1.0, 0.0, 1.0], np.diag([-3.0, -1.0, 2.0]), 1.0))
        for arr in (sp.beta, sp.coupled, sp.coupled_beta, sp.coupled_poles, sp.poles):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_model_freed_by_reference_counting(self):
        m = CubicModel([1.0, 1.0], np.diag([-3.0, 2.0]), 1.0)
        global_minimize(m)
        enumerate_stationary(m)
        ref = weakref.ref(m)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_threads_share_one_fresh_model(self):
        rng = np.random.default_rng(77)
        models = [_class_model(rng, ("generic", "hard")[i % 2], 3 + i % 4) for i in range(24)]
        want = [(_global_record(_fresh(m)), _points_record(_fresh(m))) for m in models]
        got = [[None] * 4 for _ in models]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k, m in enumerate(models):
                shared = _fresh(m)
                barrier = threading.Barrier(4, timeout=10.0)

                def work(j, shared=shared, barrier=barrier, k=k):
                    barrier.wait()
                    if j % 2:
                        got[k][j] = (_global_record(shared), _points_record(shared))
                    else:
                        points = _points_record(shared)
                        got[k][j] = (_global_record(shared), points)

                threads = [threading.Thread(target=work, args=(j,)) for j in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k, results in enumerate(got):
            assert results == [want[k]] * 4, k


def _reference_poles(sp):
    """SecularProblem's pole merge over sorted NumPy scalars (verbatim)."""
    raw = sorted(sp.coupled_poles)
    poles = []
    for p in raw:
        if not poles or p - poles[-1] > _POLE_MERGE:
            poles.append(p)
    return np.array(poles, dtype=float)


def _reference_points(m):
    """enumerate_stationary with every point evaluated fresh from its vector."""
    sp = SecularProblem.from_model(m)
    vectors = [] if sp.coupled.any() else [np.zeros(m.n)]
    vectors += [stationary_from_lambda(sp, root) for root in enumerate_lambda(sp)]
    vectors += _boundary_points(sp)
    points = [StationaryPoint.from_vector(m, s) for s in vectors]
    points.sort(key=lambda p: p.lam)
    return [(p.s.tobytes(), p.lam, p.objective, p.residual) for p in points]


def _cluster_model(rng, n):
    """Poles in clusters closer than 1e-10, some uncoupled, some at 0.

    "edge" puts the pole -mu[i-1] at exactly fl(-mu[i] + 1e-10), the
    bound of a cut's merged poles; for -mu[i] in [1/16, 1/8) that bound
    is also within the merge distance 1e-10.
    """
    mu = np.sort(rng.uniform(-5.0, 5.0, size=n))
    for i in range(1, n):
        gap = rng.choice([None, 0.0, 2e-11, 5e-11, 9.9e-11, 1e-10, 2e-10, "edge"])
        if gap == "edge":
            mu[i] = -rng.uniform(0.0625, 0.125)
            mu[i - 1] = -(-mu[i] + 1e-10)
        elif gap is not None:
            mu[i] = mu[i - 1] + float(gap)
    if rng.uniform() < 0.2:
        mu[int(rng.integers(n))] = 0.0
    beta = rng.normal(size=n)
    beta[rng.uniform(size=n) < 0.2] = 0.0
    sigma = float(10.0 ** rng.uniform(-2.0, 1.0))
    if rng.uniform() < 0.5:
        return CubicModel(-beta, np.diag(mu), sigma)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = (v * mu) @ v.T
    return CubicModel(v @ beta, (q + q.T) / 2.0, sigma)


class TestSecularReferenceParity:
    """The Python float pole sort gives the old poles bitwise."""

    def test_poles_match_reference(self):
        rng = np.random.default_rng(1818)
        merged = 0
        for i in range(600):
            n = 1 + i % 7
            m = _cluster_model(rng, n) if i % 2 else _class_model(rng, "generic", n)
            sp = _sp(m)
            assert sp.poles.tobytes() == _reference_poles(sp).tobytes(), i
            merged += sp.poles.size < sp.coupled_poles.size
        # Clusters within 1e-10 merge poles.
        assert merged > 50

    def test_points_equal_fresh_evaluation(self):
        rng = np.random.default_rng(1819)
        for i in range(300):
            n = 1 + i % 6
            if i % 3 == 0:
                m = _cluster_model(rng, n)
            else:
                m = _class_model(rng, ("generic", "hard", "near_hard", "zero_c")[i % 4], n)
            try:
                want = _reference_points(_fresh(m))
            except CubicminError as exc:
                want = type(exc).__name__
            global_first = _fresh(m)
            _global_record(global_first)
            assert _points_record(global_first) == want, i
            assert _points_record(_fresh(m)) == want, i


class TestOnePointPerRoot:
    """The top root's StationaryPoint is evaluated once per model."""

    M = CubicModel([1.0, 1.0, 1.0], np.diag([-3.0, -1.0, 2.0]), 1.0)

    @staticmethod
    def _count_from_vector(monkeypatch):
        calls = []
        real = StationaryPoint.from_vector.__func__

        def counting(cls, model, s):
            calls.append(model)
            return real(cls, model, s)

        monkeypatch.setattr(StationaryPoint, "from_vector", classmethod(counting))
        return calls

    def test_enumeration_after_global_reuses_the_certified_point(self, monkeypatch):
        m = _fresh(self.M)
        sol = global_minimize(m)
        assert not sol.hard_case
        calls = self._count_from_vector(monkeypatch)
        points = enumerate_stationary(m)
        assert len(points) > 2
        assert len(calls) == len(points) - 1
        assert [p for p in points if p.s is sol.s_star] == [points[-1]]
        monkeypatch.undo()
        assert _points_record(m) == _reference_points(_fresh(self.M))

    def test_global_after_enumeration_evaluates_nothing(self, monkeypatch):
        m = _fresh(self.M)
        points = enumerate_stationary(m)
        calls = self._count_from_vector(monkeypatch)
        sol = global_minimize(m)
        assert calls == []
        assert sol.s_star is points[-1].s
        assert sol.objective == points[-1].objective

    def test_hard_case_point_is_not_the_top_point(self):
        m = _fresh(WORKED)
        sol = global_minimize(m)
        assert sol.hard_case
        assert all(p.s is not sol.s_star for p in enumerate_stationary(m))


class TestBoundaryMixedCoupling:
    """A multiplier -mu_i carries boundary points only when no mode of its
    cluster (eigenvalues within SINGULAR_MODE_TOL) is coupled."""

    @pytest.mark.parametrize("gap", [0.0, 0.5 * stationary.SINGULAR_MODE_TOL])
    @pytest.mark.parametrize(
        "c, count",
        [((1.0, 0.0, 0.0), 0), ((0.0, 1.0, 0.0), 0), ((0.0, 0.0, 1.0), 2)],
    )
    def test_points_at_lambda_2(self, gap, c, count):
        m = CubicModel(c, np.diag([-2.0, -2.0 + gap, 1.0]), 1.0)
        points = enumerate_stationary(m)
        at_2 = [p for p in points if abs(p.lam - 2.0) <= 1e-9]
        assert len(at_2) == count
        for p in at_2:
            assert p.residual <= m.default_tol_grad()
        if count:
            assert at_2[0].objective == pytest.approx(at_2[1].objective, rel=1e-12)


# Near-hard, badly scaled and tiny-sigma models: (c, diag(Q), sigma).
HARD_TO_CERTIFY = [
    ((1e-9, 1.0), (-1.0, 2.0), 1.0),
    ((1e-10, 1.0), (-1.0, 2.0), 1.0),
    ((1.0, 1.0), (-1e3, 2e3), 1.0),
    ((1.0, 1.0), (-1e6, 2e6), 1.0),
    ((1.0, 1.0), (-1.0, 2.0), 1e-4),
    ((1.0, 1.0), (-1.0, 2.0), 1e-8),
]


class TestHardToCertify:
    @pytest.mark.parametrize(
        "c, q, sigma",
        HARD_TO_CERTIFY,
        ids=["near_hard_1e-9", "near_hard_1e-10", "Q_1e3", "Q_1e6", "sigma_1e-4", "sigma_1e-8"],
    )
    def test_global_minimize_certifies(self, c, q, sigma):
        m = CubicModel(c, np.diag(q), sigma)
        sol = global_minimize(m)
        assert sol.certificate.is_global
        assert np_residual(m, sol.s_star) <= m.default_tol_grad()
        assert np_psd_margin(m, sol.s_star) >= -m.default_tol_psd()

    @pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1])
    def test_merged_poles(self, sigma):
        # The poles 3 and 3 + 5e-11 merge into one cut at 3; the largest
        # root lies above both, within 4e-11 of the upper one.
        m = CubicModel([1e-9, 1e-9, 1.0], np.diag([-3.0 - 5e-11, -3.0, 1.0]), sigma)
        sol = global_minimize(m)
        assert sol.certificate.is_global
        assert not sol.hard_case
        assert np_residual(m, sol.s_star) <= m.default_tol_grad()

    @pytest.mark.parametrize("sigma", [1e-2, 1.0])
    def test_uncoupled_mode_at_a_pole(self, sigma):
        # The load 1.5e-10 is below the coupling tolerance 2e-10 and its
        # eigenvalue sits 1e-14 from the coupled pole at 3; solving that
        # mode at the root would put O(1) into s.
        m = CubicModel([1.5e-10, 5e-10, 1.0], np.diag([-3.0 - 1e-14, -3.0, 2.0]), sigma)
        sol = global_minimize(m)
        assert np_residual(m, sol.s_star) <= m.default_tol_grad()
        for p in enumerate_stationary(m):
            assert p.residual <= m.default_tol_grad()

    def test_near_pole_points_are_precise(self):
        # Two of the three multipliers sit within 1.1e-9 of the pole at 1.
        m = CubicModel([1e-9, 1.0], np.diag([-1.0, 2.0]), 1.0)
        pts = enumerate_stationary(m)
        assert len(pts) == 3
        for p in pts:
            assert p.residual <= 1e-8 * (1.0 + m.norm_c)

    def test_failure_states_double_precision_floor(self):
        # ||s*|| ~ 1e8 against max|Q| ~ 1e4: rounding alone puts the
        # residual far above the 1e-8*(1+||c||) gate.
        rng = np.random.default_rng(0)
        a = rng.uniform(-1e4, 1e4, size=(40, 40))
        m = CubicModel(rng.uniform(-5.0, 5.0, size=40), (a + a.T) / 2.0, 1e-3)
        with pytest.raises(CertificateFailure) as info:
            global_minimize(m)
        msg = str(info.value)
        residual, tol, floor = (
            float(re.search(pattern, msg).group(1))
            for pattern in (r"residual = (\S+) ", r"\(tol (\S+),", r"floor (\S+)\)")
        )
        assert tol == m.default_tol_grad()
        assert residual > tol
        # psd margin ~ 0: lam* sits just above -mu_1, so ||s*|| ~ -mu_1/sigma
        norm_s = -float(np.linalg.eigvalsh(m.Q.entries)[0]) / m.sigma
        expected = np.finfo(float).eps * (m.norm_c + m.Q.max_abs * norm_s)
        assert floor == pytest.approx(expected, rel=1e-3)
        assert floor > tol


class TestEqualMultiplierObjectives:
    @pytest.mark.parametrize("seed", range(40))
    def test_equal_multiplier_equal_objective(self, seed):
        rng = np.random.default_rng(1300 + seed)
        m = random_model(rng)
        pts = enumerate_stationary(m)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i].lam - pts[j].lam) <= 1e-8:
                    gap = abs(pts[i].objective - pts[j].objective)
                    assert gap <= 1e-7 * (1.0 + abs(pts[i].objective))


class TestSecularConvexity:
    @pytest.mark.parametrize("seed", range(50))
    def test_second_differences_positive(self, seed):
        rng = np.random.default_rng(1700 + seed)
        m = random_model(rng)
        worst = min_second_difference(_sp(m))
        if worst is not None:
            assert worst > 0.0


EXTREME_SCALES = [
    {"n": 1, "c": [1.0], "Q": [[1e200]], "sigma": 1.0},
    {"n": 1, "c": [1.0], "Q": [[1e308]], "sigma": 1.0},
    {"n": 2, "c": [1.0, 2.0], "Q": [[1e200, 0.0], [0.0, 3e200]], "sigma": 1.0},
    # The Newton start underflows to the pole at lam = 1e200.
    {"n": 1, "c": [1.0], "Q": [[-1e200]], "sigma": 1.0},
    # Hard case at lam = 3e200: (lam/sigma)**2 overflows.
    {"n": 2, "c": [1e-300, 2e-300], "Q": [[-1e200, 0.0], [0.0, -3e200]], "sigma": 1.0},
]


class TestExtremeScales:
    """Minimizers near 1e-200, where 1/||s||**3 leaves double range.

    Each solve either certifies its point or raises ConvergenceError;
    no bare arithmetic error and no NumPy warning (an error in this
    suite) escapes.
    """

    @pytest.mark.parametrize("data", EXTREME_SCALES)
    def test_global_minimize(self, data):
        m, _ = parse_problem(data)
        try:
            sol = global_minimize(m)
        except ConvergenceError as exc:
            assert "left double range" in str(exc)
        else:
            assert sol.certificate.is_global

    @pytest.mark.parametrize("data", EXTREME_SCALES)
    def test_enumerate_stationary(self, data):
        m, _ = parse_problem(data)
        try:
            points = enumerate_stationary(m)
        except ConvergenceError as exc:
            assert "left double range" in str(exc)
        else:
            assert all(p.residual <= m.default_tol_grad() for p in points)


class TestObjectiveOutOfRange:
    """The one stationary point of this model has lam = 1.479e150 and m(s)
    about -2.2e450, below double range: both entry points raise."""

    M = CubicModel([1e300, 2e300], np.diag([1e50, 3e50]), 1.0)

    @pytest.mark.parametrize("solve", [global_minimize, enumerate_stationary])
    def test_raises_convergence_error(self, solve):
        with pytest.raises(ConvergenceError, match=r"^m\(s\) leaves double range at lam = 1\.479"):
            solve(_fresh(self.M))


def test_grid_beats_nothing_on_worked_instance():
    # independent sanity anchor for the brute-force oracle itself
    from .helpers import grid_minimum

    val = grid_minimum(WORKED)
    assert val == pytest.approx(-5.0, abs=1e-3)
    assert np_eval(WORKED, np.array([0.5, math.sqrt(35.0) / 2.0])) == pytest.approx(
        -5.0, abs=1e-12
    )
