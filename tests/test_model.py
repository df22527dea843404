"""Cubic model evaluation, derivatives, and the global certificate."""

import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from cubicmin import CubicModel, SymmetricMatrix, eval_model, global_minimize, grad, hess, is_global
from cubicmin import linalg
from cubicmin import model as model_mod
from cubicmin.escape import ApproxTolerances, EscapeOutcome, escape_approx, escape_exact
from cubicmin.exceptions import ConvergenceError, CubicminError, NotStationary
from cubicmin.model import GlobalCertificate, StationaryPoint
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


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:  # a record holding an ndarray is unhashable
        return str(exc)


def _field_bits(x):
    """A record's fields as exact bits, nested records included."""
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return type(x).__name__, tuple(_field_bits(getattr(x, f.name)) for f in fields)
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


class TestRecordParity:
    """Records built without ``__init__`` (``model._record``) equal the constructor's."""

    TYPES = (StationaryPoint, GlobalCertificate, LambdaRoot, EscapeOutcome, GlobalSolution)

    @pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
    def test_no_post_init(self, cls):
        # _record skips __init__, so it would skip a __post_init__ too.
        assert not hasattr(cls, "__post_init__")
        assert cls.__dataclass_params__.frozen

    @pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
    def test_record_equals_constructed(self, cls):
        records = [r for r in _package_records() if type(r) is cls]
        assert records
        fields = [f.name for f in dataclasses.fields(cls)]
        for rec in records:
            # The package set every field on the instance, in declaration order.
            assert list(vars(rec)) == fields
            built = cls(**vars(rec))
            direct = model_mod._record(cls, **vars(built))
            for other in (built, direct):
                assert rec == other and other == rec
                assert _hash_or_error(rec) == _hash_or_error(other)
                assert repr(rec) == repr(other)
            swap = {fields[0]: getattr(rec, fields[-1])}
            changed = dataclasses.replace(rec, **swap)
            assert type(changed) is cls
            assert repr(changed) == repr(dataclasses.replace(built, **swap))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, fields[0], None)
            back = pickle.loads(pickle.dumps(rec))
            assert type(back) is cls
            assert repr(back) == repr(rec)
            assert _field_bits(back) == _field_bits(rec)
