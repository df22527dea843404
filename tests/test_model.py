"""Cubic model evaluation, derivatives, and the global certificate."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest

from cubicmin import CubicModel, SymmetricMatrix, eval_model, global_minimize, grad, hess, is_global
from cubicmin import linalg
from cubicmin import model as model_mod
from cubicmin.driver import (
    ARC_PLUS,
    ArcOptions,
    OuterReport,
    ProfileTable,
    SubproblemTrace,
    arc_plus_minimize,
    performance_profile,
    solve_via_escapes,
)
from cubicmin.escape import ApproxTolerances, EscapeOutcome, escape_approx, escape_exact
from cubicmin.exceptions import ConvergenceError, CubicminError, NotStationary
from cubicmin.local_solver import LocalSolveReport, local_minimize
from cubicmin.model import GlobalCertificate, StationaryPoint
from cubicmin.problems import get_problem
from cubicmin.stationary import GlobalSolution, LambdaRoot, SecularProblem, enumerate_stationary

from .helpers import class_model, np_eval, np_grad, random_model, ref_safe_norm

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)
HARD_S = np.array([0.5, np.sqrt(35.0) / 2.0])


class TestConstruction:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            CubicModel([1.0], [[1.0]], 0.0)
        with pytest.raises(ValueError):
            CubicModel([1.0], [[1.0]], -2.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        # sigma = inf gave "lost the largest root" in global_minimize.
        with pytest.raises(ValueError, match=r"^sigma must be positive and finite, got (inf|nan)$"):
            CubicModel([1.0, -2.0], np.diag([1.0, -1.0]), sigma)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CubicModel([1.0, 2.0], [[1.0]], 1.0)

    def test_rejects_nan_in_c(self):
        with pytest.raises(ValueError, match=r"^c entries must be finite$"):
            CubicModel([math.nan, 0.0], np.eye(2), 1.0)

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

    def test_gradient_is_the_evaluated_gradient(self):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(30):
                m = random_model(rng)
                p = StationaryPoint.from_vector(m, scale * rng.normal(size=m.n))
                want = grad(m, p.s)
                assert [v.hex() for v in p.gradient.tolist()] == [v.hex() for v in want.tolist()]
                assert p.residual == linalg.norm(p.gradient)
                with pytest.raises(ValueError, match="read-only"):
                    p.gradient[0] = 0.0

    def test_global_lambda_is_the_points_lam(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = random_model(rng)
            sol = global_minimize(m)
            assert sol.lambda_star.hex() == (m.sigma * linalg.norm(sol.s_star)).hex()
            assert sol.lambda_star.hex() == StationaryPoint.from_vector(m, sol.s_star).lam.hex()


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


def _certificate_bits(run):
    """A certificate's fields with their types, floats as hex, or the exception's class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = run()
    except (CubicminError, ValueError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)
    return (type(cert).__name__, type(cert.is_global).__name__, cert.is_global,
            *((type(x).__name__, x.hex()) for x in (cert.psd_margin, cert.residual,
                                                     cert.tol_grad, cert.tol_psd)))


def _reference_certificate(m, s, tol_grad=None, tol_psd=None):
    # What is_global returned when it judged every s through its record.
    tol_grad = m.default_tol_grad() if tol_grad is None else tol_grad
    tol_psd = m.default_tol_psd() if tol_psd is None else tol_psd
    return model_mod._certificate(m, StationaryPoint.from_vector(m, s), tol_grad, tol_psd)


def _is_global_inputs(s):
    """The vector s in the layouts and dtypes callers pass, with its scaled copies."""
    n = s.shape[0]
    strided = np.repeat(s, 2)[::2]
    yield s
    yield strided
    yield np.asfortranarray(s.reshape(-1, 1))
    yield s.reshape(-1, 1)
    yield np.rint(4.0 * s).astype(np.int64)
    yield np.append(s, 1.0)
    if n > 1:
        yield s[:-1]
    for scale in (1e110, 1e160):
        yield s * scale
        yield -strided * scale


class TestLeanIsGlobal:
    """is_global, which builds no record on any input, gives the
    certificate of ``_certificate`` on ``StationaryPoint.from_vector``, bit
    for bit, and the same exceptions."""

    CLASSES = ("generic", "hard", "near_hard", "scaled_Q", "tiny_sigma", "zero_c")
    TOLERANCES = ((None, None), (0.5, 3.0), (1e-300, 1e-300))

    @pytest.mark.parametrize("cls", CLASSES)
    def test_matches_certificate_of_record(self, cls):
        rng = np.random.default_rng([9100, self.CLASSES.index(cls)])
        compared = raised = 0
        for n in np.repeat(np.arange(1, 9), 2):
            m = class_model(rng, cls, int(n))
            try:
                points = [p.s for p in enumerate_stationary(m)]
            except CubicminError:
                points = []
            for s in points + [rng.normal(size=m.n)]:
                for x in _is_global_inputs(s):
                    before = (x.dtype, x.shape, x.strides, x.tobytes())
                    for tol_grad, tol_psd in self.TOLERANCES:
                        want = _certificate_bits(
                            lambda: _reference_certificate(m, x, tol_grad, tol_psd))
                        got = _certificate_bits(lambda: is_global(m, x, tol_grad, tol_psd))
                        assert got == want
                        compared += 1
                        raised += want[0] != "GlobalCertificate"
                    assert (x.dtype, x.shape, x.strides, x.tobytes()) == before
        assert compared > 0 and raised > 0

    @pytest.mark.parametrize("s", [[-1e150, -1e150], [1e150, -1e150], [1e140, 0.0], [3.0, 4.0]])
    def test_past_range_goes_through_record(self, s):
        # m(s) NaN or below range raises as from_vector does; above it, inf stays.
        m = TestObjectiveRange.OUT
        for tol_grad, tol_psd in self.TOLERANCES:
            assert (_certificate_bits(lambda: is_global(m, s, tol_grad, tol_psd))
                    == _certificate_bits(lambda: _reference_certificate(m, s, tol_grad, tol_psd)))

    def test_in_range_builds_no_record(self, monkeypatch):
        def refuse(cls, model, s):
            raise AssertionError("built a StationaryPoint")

        monkeypatch.setattr(StationaryPoint, "from_vector", classmethod(refuse))
        assert not is_global(WORKED, [1.0, 0.0]).is_global
        assert is_global(WORKED, HARD_S).is_global
        # Out of range it still evaluates m(s), and raises on its NaN.
        with pytest.raises(ConvergenceError, match=r"^m\(s\) leaves double range at lam = "):
            is_global(TestObjectiveRange.OUT, [-1e150, -1e150])

    def test_reads_the_callers_array_in_place(self):
        # A writable float64 s stays writable and unchanged, and gives the
        # certificate of the record from_vector builds, field for field.
        for m, s in ((WORKED, np.array([1.0, 0.0])), (WORKED, HARD_S.copy()),
                     (TestObjectiveRange.OUT, np.array([1e150, -1e150]))):
            before = s.tobytes()
            got = _certificate_bits(lambda: is_global(m, s))
            assert s.flags.writeable and s.tobytes() == before
            assert got == _certificate_bits(lambda: _reference_certificate(m, s))
            assert got[0] == "GlobalCertificate"

    def test_in_range_computes_no_objective(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed m(s)")

        monkeypatch.setattr(model_mod, "_objective", refuse)
        assert is_global(WORKED, HARD_S).is_global
        with pytest.raises(AssertionError, match="computed m"):
            is_global(TestObjectiveRange.OUT, [-1e150, -1e150])


class TestEscapeCurvatureFarOut:
    """The escape curvature row takes ``||s||`` without overflow, so a point
    whose squares overflow still gets a positive, finite threshold."""

    @pytest.mark.parametrize("x", [1e200, 1e308])
    def test_positive_and_finite(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = model_mod.escape_eps_curv(1e-8, np.array([x, x]))
        assert 0.0 < eps < math.inf


class TestEagerScalars:
    """``norm_c`` and ``max_abs``, set by the constructors, are the values
    their definitions give, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 1e-310, 1e-160, 1e160, 1e300])
    def test_match_definitions(self, scale):
        rng = np.random.default_rng(9200)
        for n in range(1, 9):
            for cls in TestLeanIsGlobal.CLASSES:
                base = class_model(rng, cls, n)
                m = CubicModel(base.c * scale, base.Q.entries * min(scale, 1e300 / n), base.sigma)
                assert m.norm_c.hex() == ref_safe_norm(m.c).hex()
                assert m.Q.max_abs.hex() == float(np.max(np.abs(m.Q.entries))).hex()
                assert type(m.norm_c) is float and type(m.Q.max_abs) is float


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

    def test_norm_of_s_past_squares_range(self):
        # ||s||^2 overflows past ||s|| ~ 1.3e154; the norm itself stays finite.
        m = CubicModel([1.0], [[1.0]], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = StationaryPoint.from_vector(m, [1e160])
            assert p.lam == 1e160
            assert p.objective == math.inf
            assert p.residual == math.inf
            with pytest.raises(NotStationary, match=r"^residual inf exceeds "):
                escape_exact(m, p)

    @pytest.mark.parametrize("s, lam", [
        ([1e308, 1e308], "1.4142135623730951e+308"),  # Q s overflows
        ([math.inf, math.inf], "inf"),  # Q s is inf - inf
    ])
    def test_q_s_out_of_range_raises_without_warning(self, s, lam):
        m = CubicModel([1.0, 0.5], [[-3.0, 1.0], [1.0, 2.0]], 1.0)
        tol = ApproxTolerances(1.0, 1.0)
        message = f"^m\\(s\\) leaves double range at lam = {re.escape(lam)}: nan$"
        for run in (StationaryPoint.from_vector, is_global, lambda m, s: escape_approx(m, s, tol)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError, match=message):
                    run(m, s)

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


def _field_bits(x):
    """A record's fields as exact bits, nested records, lists and dicts included."""
    if hasattr(x, "_fields"):
        return type(x).__name__, tuple(_field_bits(getattr(x, f)) for f in x._fields)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_field_bits(v) for v in x]
    if isinstance(x, dict):
        return "dict", [(k, _field_bits(v)) for k, v in x.items()]
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    return x


def _package_records():
    """Records the solve builds on its hot paths: every record type, every escape kind."""
    records = []
    for m in (WORKED, CubicModel([0.5, 0.25, 0.1], np.diag([-3.0, -2.0, 1.0]), 1.0)):
        sol = global_minimize(m)
        points = enumerate_stationary(m)
        outcomes = [escape_exact(m, p) for p in points]
        records += [sol, sol.certificate, SecularProblem.from_model(m).top_root]
        records += points + outcomes + [out.certificate for out in outcomes if out.certificate]
        records.append(is_global(m, points[0].s))
    kinds = {out.case_tag for out in records if isinstance(out, EscapeOutcome)}
    assert kinds == {"A", "B_II", "B_III", "NONE_GLOBAL"}
    return records


class TestRecordTypes:
    """The five per-point records are NamedTuples: fields by name, no
    instance dict, immutable, and kept whole by pickle and ``_replace``."""

    FIELDS = {
        StationaryPoint: ("s", "lam", "objective", "residual", "gradient"),
        GlobalCertificate: ("psd_margin", "residual", "is_global", "tol_grad", "tol_psd"),
        LambdaRoot: ("lam", "pole", "offset"),
        GlobalSolution: ("s_star", "lambda_star", "objective", "certificate", "hard_case"),
        EscapeOutcome: (
            "case_tag", "point", "s_hat", "alpha_used", "z_used", "decrease", "certificate",
        ),
    }

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_named_tuple_fields(self, cls):
        assert issubclass(cls, tuple)
        assert cls._fields == self.FIELDS[cls]

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_records_are_immutable_and_round_trip(self, cls):
        records = [r for r in _package_records() if type(r) is cls]
        assert records
        first, last = cls._fields[0], cls._fields[-1]
        for rec in records:
            assert not hasattr(rec, "__dict__")
            with pytest.raises(AttributeError):
                setattr(rec, first, None)
            back = pickle.loads(pickle.dumps(rec))
            assert type(back) is cls
            assert _field_bits(back) == _field_bits(rec)
            changed = rec._replace(**{first: getattr(rec, last)})
            assert type(changed) is cls
            assert getattr(changed, first) is getattr(rec, last)


def _package_reports():
    """One or more instances of each option and report class, as the package builds them."""
    m = CubicModel([0.5, 0.25, 0.1], np.diag([-3.0, -2.0, 1.0]), 1.0)
    saddle = max(enumerate_stationary(m), key=lambda p: p.objective)
    _, trace = solve_via_escapes(m, saddle.s)
    assert trace.escape_count > 0
    opts = ArcOptions(max_iters=50, seed=4)
    return [
        trace, opts, ArcOptions(),
        arc_plus_minimize(get_problem("sphere2"), None, ARC_PLUS, opts),
        performance_profile([("p", "ARC", 3), ("p", "ARC_PLUS", 4), ("q", "ARC", None),
                             ("q", "ARC_PLUS", 2)]),
        ApproxTolerances(1e-8, 0.0), ApproxTolerances(eps_grad=0.0, eps_curv=2.5),
        local_minimize(m, np.ones(3)),
    ]


class TestOptionAndReportTypes:
    """The option and report classes are NamedTuples as well: the fields
    and defaults written out below, immutable, kept whole by pickle and
    ``_replace``, a new default list or dict per instance, and options
    checked by ``_replace`` as by the constructor."""

    FIELDS = {
        SubproblemTrace: (("steps", "escape_count"), {}),
        OuterReport: (
            ("x_final", "f_final", "grad_inf_norm", "iterations", "sigma_history", "variant",
             "converged", "f_history", "accepted_psd_margins"),
            {"f_history": [], "accepted_psd_margins": []},
        ),
        ArcOptions: (
            ("tol_grad_inf", "max_iters", "cauchy_start", "seed"),
            {"tol_grad_inf": 1e-5, "max_iters": 100000, "cauchy_start": False, "seed": 0},
        ),
        ProfileTable: (("taus", "curves"), {}),
        ApproxTolerances: (("eps_grad", "eps_curv"), {}),
        LocalSolveReport: (
            ("s", "residual", "iterations", "objective_trace", "converged", "step_counts",
             "point"),
            {"step_counts": {}, "point": None},
        ),
    }

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_named_tuple_fields_and_defaults(self, cls):
        fields, defaults = self.FIELDS[cls]
        assert issubclass(cls, tuple)
        assert cls._fields == fields
        assert list(cls._field_defaults.items()) == list(defaults.items())
        assert [type(v) for v in cls._field_defaults.values()] == [
            type(v) for v in defaults.values()]

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_immutable_and_round_trip(self, cls):
        instances = [x for x in _package_reports() if type(x) is cls]
        assert instances
        for x in instances:
            assert not hasattr(x, "__dict__")
            for name in cls._fields:
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name))
            back = pickle.loads(pickle.dumps(x))
            assert type(back) is cls
            assert _field_bits(back) == _field_bits(x)
            changed = x._replace(**{cls._fields[-1]: getattr(x, cls._fields[-1])})
            assert type(changed) is cls
            assert all(a is b for a, b in zip(changed, x))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OuterReport(np.zeros(1), 0.0, 0.0, 0, [], "ARC", True),
            lambda: OuterReport(x_final=np.zeros(1), f_final=0.0, grad_inf_norm=0.0,
                                iterations=0, sigma_history=[], variant="ARC", converged=True),
            lambda: LocalSolveReport(np.zeros(1), 0.0, 0, [], True),
            lambda: LocalSolveReport(s=np.zeros(1), residual=0.0, iterations=0,
                                     objective_trace=[], converged=True),
        ],
        ids=["OuterReport-positional", "OuterReport-keyword", "LocalSolveReport-positional",
             "LocalSolveReport-keyword"],
    )
    def test_default_containers_are_fresh(self, build):
        first, second = build(), build()
        cls = type(first)
        for name, default in cls._field_defaults.items():
            if isinstance(default, (list, dict)):
                value = getattr(first, name)
                assert type(value) is type(default) and value == default
                assert value is not default
                assert value is not getattr(second, name)
                value.clear()  # a new container, so the default stays empty
        assert cls._field_defaults == self.FIELDS[cls][1]

    def test_given_containers_are_kept(self):
        history, margins, counts = [1.0], [None], {"newton": 2}
        rep = OuterReport(np.zeros(1), 0.0, 0.0, 0, [], "ARC", True, history, margins)
        assert rep.f_history is history and rep.accepted_psd_margins is margins
        assert LocalSolveReport(np.zeros(1), 0.0, 0, [], True, counts).step_counts is counts

    @pytest.mark.parametrize(
        "cls, field, value, message",
        [
            (ArcOptions, "max_iters", 0, "max_iters must be at least 1"),
            (ArcOptions, "max_iters", 1.5, "max_iters must be an integer, got 1.5"),
            (ArcOptions, "seed", True, "seed must be an integer, got True"),
            (ArcOptions, "seed", -1, "seed must be non-negative"),
            (ArcOptions, "tol_grad_inf", 0, "tol_grad_inf must be positive"),
            (ApproxTolerances, "eps_grad", -1, "eps_grad must be nonnegative, got -1"),
            (ApproxTolerances, "eps_grad", math.nan, "eps_grad must be nonnegative, got nan"),
            (ApproxTolerances, "eps_curv", -1, "eps_curv must be nonnegative, got -1"),
            (ApproxTolerances, "eps_curv", math.nan, "eps_curv must be nonnegative, got nan"),
        ],
    )
    @pytest.mark.parametrize("how", ["constructor", "replace"])
    def test_options_are_checked(self, cls, field, value, message, how):
        valid = {} if cls is ArcOptions else {"eps_grad": 1e-8, "eps_curv": 1e-8}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if how == "constructor":
                cls(**{**valid, field: value})
            else:
                cls(**valid)._replace(**{field: value})
