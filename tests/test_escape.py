"""Closed-form escape moves from stationary and near-stationary points."""

import math
import re
import warnings

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
)
from cubicmin.exceptions import ConvergenceError, CubicminError
from cubicmin.model import StationaryPoint
from cubicmin.stationary import count_bound, enumerate_stationary, global_minimize

from .helpers import class_model, random_model, ref_alpha_threshold_biii, ref_escape

WORKED = CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)
WORKED_PT = StationaryPoint.from_vector(WORKED, np.array([1.0, 0.0]))


def _assert_real_biii_escapes(m):
    # Every non-global enumerated point escapes by B_III with a decrease
    # above rounding level, and escape_approx at the default tolerances
    # returns the same bytes.
    tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
    moves = 0
    for p in enumerate_stationary(m):
        exact = escape_exact(m, p)
        if exact.case_tag == "NONE_GLOBAL":
            continue
        moves += 1
        approx = escape_approx(m, p.s, tol)
        assert exact.case_tag == approx.case_tag == "B_III"
        assert exact.decrease > 1e-12
        assert approx.s_hat.tobytes() == exact.s_hat.tobytes()
        assert approx.decrease == exact.decrease
    assert moves


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

    def test_rejects_positive_linear_term_along_s_bar(self):
        # d'(Q + lam I)d = -3 + 1 < 0, but c's_bar = 1 > 0.
        m = CubicModel([1.0, 0.0], np.diag([2.0, -3.0]), 1.0)
        with pytest.raises(ValueError, match=(
            r"^threshold requires c\^T s_bar <= 0; apply the sign-flip case first$"
        )):
            alpha_threshold_biii(m, [1.0, 0.0], [0.0, 1.0])

    def test_rejects_nonnegative_curvature(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(NonNegativeCurvature):
            alpha_threshold_biii(m, np.zeros(2), np.array([1.0, 0.0]))

    def test_far_point_takes_a_safe_norm(self):
        # ||s_bar||^2 overflows at 1e200; lam = sigma ||s_bar|| stays finite,
        # so the curvature test runs, without a warning.
        m = CubicModel([1.0, 0.5], [[-3.0, 1.0], [1.0, 2.0]], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonNegativeCurvature):
                alpha_threshold_biii(m, np.array([1e200, 1e200]), np.array([0.0, 1.0]))


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
        # The acceptance fixture's saddle near (0.504, 2.923) reflects across
        # the hyperplane of the bottom eigenvector d = e_2: s - 2 (s.d) d.
        m = CubicModel([-2.0, 0.1], np.diag([1.0, -3.0]), 1.0)
        (p,) = [q for q in enumerate_stationary(m)
                if q.s == pytest.approx([0.504, 2.923], abs=1e-3)]
        out = escape_exact(m, p)
        assert out.case_tag == "B_II"
        d = m.eig.vectors[:, 0]
        assert out.s_hat == pytest.approx(p.s - 2.0 * (p.s @ d) * d, abs=1e-12)
        assert out.s_hat == pytest.approx([0.504, -2.923], abs=1e-3)
        assert np.linalg.norm(out.s_hat) == pytest.approx(np.linalg.norm(p.s), abs=1e-12)
        assert out.decrease == pytest.approx(p.objective - eval_model(m, out.s_hat), abs=1e-12)
        assert out.decrease == pytest.approx(0.58452, abs=1e-5)

    def test_case_biii_orthogonal_direction(self):
        # The bottom eigenvector e_2 is orthogonal to s_bar = (1, 0).
        out = escape_exact(WORKED, WORKED_PT)
        assert out.case_tag == "B_III"
        assert out.alpha_used == pytest.approx(2.0, abs=1e-12)
        assert out.z_used == pytest.approx([1.0, 2.0], abs=1e-12)
        assert out.s_hat == pytest.approx([0.6, -0.8], abs=1e-12)
        assert out.decrease == pytest.approx(12.0 / 25.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 1.0])
    def test_nearly_orthogonal_direction_still_decreases(self, sigma):
        # |s.d| is about 1e-10 at the non-global stationary point, so the
        # B_II reflection moves s only by rounding; B_III must win.
        _assert_real_biii_escapes(CubicModel([1e-9, 1.0], np.diag([-1.0, 2.0]), sigma))

    @pytest.mark.parametrize("k", range(1, 40))
    def test_rounding_level_reflection_loses_to_biii(self, k):
        # Near-hard, built as models_small builds them: beta_1 = 1e-9 and
        # sigma = 0.5*2/|1/(1 - (-2))| = 3.  On some rotations B_II moves s
        # by rounding alone (decrease about 6e-17); B_III must win there.
        theta = 0.1 * k
        V = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        _assert_real_biii_escapes(CubicModel(V @ [1e-9, 1.0], V @ np.diag([-2.0, 1.0]) @ V.T, 3.0))

    @pytest.mark.parametrize("m", [WORKED, CubicModel([-2.0, 0.1], np.diag([1.0, -3.0]), 1.0)])
    def test_vector_escapes_as_its_record(self, m):
        # escape_approx took a vector; escape_exact does too, and judges it
        # as StationaryPoint.from_vector of it (NONE_GLOBAL, B_II, B_III).
        for p in enumerate_stationary(m):
            got = escape_exact(m, np.array(p.s))
            want = escape_exact(m, StationaryPoint.from_vector(m, p.s))
            for name in ("case_tag", "alpha_used", "decrease", "certificate"):
                assert getattr(got, name) == getattr(want, name)
            for name in ("s_hat", "z_used"):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                    getattr(want, name)).tobytes()
            for name in StationaryPoint._fields:
                assert np.asarray(getattr(got.point, name)).tobytes() == np.asarray(
                    getattr(want.point, name)).tobytes()

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

    def test_rejects_point_whose_cube_overflows(self):
        m = CubicModel([1.0], [[1.0]], 1.0)
        with pytest.raises(NotStationary, match=r"^residual 1e\+206 exceeds"):
            escape_exact(m, StationaryPoint.from_vector(m, [1e103]))
        with pytest.raises(NotStationary, match=r"^residual 1e\+206 exceeds 1\.0$"):
            escape_approx(m, np.array([1e103]), ApproxTolerances(1.0, 1.0))

    def test_rejects_nan_residual(self):
        p = StationaryPoint(
            s=WORKED_PT.s, lam=WORKED_PT.lam, objective=WORKED_PT.objective,
            residual=float("nan"), gradient=WORKED_PT.gradient,
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
        # The residual at (1, 0) is 3; case A comes before the certificate.
        out = escape_approx(m, np.array([1.0, 0.0]), ApproxTolerances(4.0, 0.1))
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

    def test_rejects_residual_above_eps_grad(self):
        # The residual at (1.001, 0) is about 3e-3.
        with pytest.raises(NotStationary):
            escape_approx(WORKED, np.array([1.001, 0.0]), ApproxTolerances(1e-6, 0.1))

    def test_none_global_on_certified_point(self):
        m = CubicModel([0.0, 0.0], np.eye(2), 1.0)
        out = escape_approx(m, np.zeros(2), ApproxTolerances(1e-8, 1e-8))
        assert out.case_tag == "NONE_GLOBAL"
        assert out.decrease == 0.0

    def test_threshold_not_met(self):
        # Neither reflection gate holds: B_II's predicted change along d
        # is +0.002 (and |grad.d / s.d| = 12 exceeds eps_curv), and
        # |grad.s| / ||s||^2 = 1.15e-3 exceeds eps_curv.
        m = CubicModel([-2.0, -0.1], np.diag([1.0, -3.0]), 1.0)
        with pytest.raises(ThresholdNotMet):
            escape_approx(m, np.array([1.0, 0.01]), ApproxTolerances(1.0, 1e-3))

    def test_record_is_judged_as_recorded(self):
        # A StationaryPoint gives the vector's outcome, bit for bit, and is
        # itself the outcome's point: nothing evaluates s_bar again.
        rng = np.random.default_rng(2300)
        cases = set()
        for k in range(40):
            m = class_model(rng, ("generic", "hard", "zero_c", "near_hard")[k % 4], 2 + k % 5)
            tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
            for p in enumerate_stationary(m):
                try:
                    want = escape_approx(m, np.array(p.s), tol)
                except CubicminError as exc:
                    with pytest.raises(type(exc)):
                        escape_approx(m, p, tol)
                    continue
                got = escape_approx(m, p, tol)
                assert got.point is p
                assert got.case_tag == want.case_tag
                assert got.decrease == want.decrease
                if got.s_hat is not None:
                    assert got.s_hat.tobytes() == want.s_hat.tobytes()
                cases.add(got.case_tag)
        assert {"NONE_GLOBAL", "B_III"} <= cases, cases

    def test_tolerances_must_be_nonnegative(self):
        for bad_grad, bad_curv in ((-1.0, -1e-3), (float("nan"), float("nan"))):
            with pytest.raises(ValueError, match="eps_grad"):
                ApproxTolerances(bad_grad, 0.0)
            with pytest.raises(ValueError, match="eps_curv"):
                ApproxTolerances(0.0, bad_curv)


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
                # The escape's own certificate, field for field.
                assert out.certificate == cert
                continue
            assert out.certificate is None
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


def _hex(x):
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return [v.hex() for v in x.tolist()]
    return float(x).hex()


def _escape_record(run):
    """Every field of an escape's outcome as hex, or its exception's class and message."""
    try:
        out = run()
    except CubicminError as exc:
        return type(exc).__name__, str(exc)
    return (out.case_tag, _hex(out.s_hat), _hex(out.alpha_used), _hex(out.z_used),
            _hex(out.decrease), out.certificate)


class TestReferenceParity:
    """Both escapes give the reference escape's bits and exceptions on enumerated points."""

    CLASSES = ("generic", "hard", "near_hard", "scaled_Q", "tiny_sigma", "zero_c")

    @pytest.mark.parametrize("cls", CLASSES)
    def test_matches_reference(self, cls):
        rng = np.random.default_rng([8100, self.CLASSES.index(cls)])
        seen = set()
        for n in np.repeat(np.arange(2, 13), 4):
            m = class_model(rng, cls, int(n))
            try:
                points = enumerate_stationary(m)
            except CubicminError:
                continue
            exact_tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
            loose = ApproxTolerances(m.default_tol_grad(), 1e-2 * (1.0 + m.Q.max_abs))
            tight = ApproxTolerances(m.default_tol_grad(), 1e-14)
            for p in points:
                want = _escape_record(lambda: ref_escape(m, p, exact_tol))
                assert _escape_record(lambda: escape_exact(m, p)) == want
                seen.add(want[0])
                for tol in (loose, tight):
                    q = StationaryPoint.from_vector(m, p.s)
                    want = _escape_record(lambda: ref_escape(m, q, tol))
                    assert _escape_record(lambda: escape_approx(m, p.s, tol)) == want
                    seen.add(want[0])
        assert "NONE_GLOBAL" in seen
        assert seen - {"NONE_GLOBAL"}, "no escape move or error was compared"

    def test_threshold_matches_reference(self):
        rng = np.random.default_rng(8200)
        for n in np.repeat(np.arange(2, 13), 20):
            m = class_model(rng, "generic", int(n))
            s, d = rng.normal(size=m.n), rng.normal(size=m.n)
            if m.c @ s > 0.0:
                s = -s
            try:
                want = ref_alpha_threshold_biii(m, s, d).hex()
            except NonNegativeCurvature as exc:
                with pytest.raises(NonNegativeCurvature, match=f"^{re.escape(str(exc))}$"):
                    alpha_threshold_biii(m, s, d)
                continue
            assert alpha_threshold_biii(m, s, d).hex() == want


class TestDefaultDirection:
    """An escape along the model's own direction leaves nothing on the
    model that moves the next: two calls in a row give one record."""

    CLASSES = ("generic", "hard", "near_hard", "scaled_Q", "tiny_sigma", "zero_c")

    @pytest.mark.parametrize("cls", CLASSES)
    def test_matches_override(self, cls):
        rng = np.random.default_rng([8300, self.CLASSES.index(cls)])
        seen = set()
        for n in np.repeat(np.arange(1, 9), 3):
            m = class_model(rng, cls, int(n))
            try:
                points = enumerate_stationary(m)
            except CubicminError:
                continue
            loose = ApproxTolerances(m.default_tol_grad(), 1e-2 * (1.0 + m.Q.max_abs))
            for p in points:
                if is_global(m, p.s).is_global:
                    continue
                want = _escape_record(lambda: escape_exact(m, p))
                assert _escape_record(lambda: escape_exact(m, p)) == want
                seen.add(want[0])
                want = _escape_record(lambda: escape_approx(m, p.s, loose))
                assert _escape_record(lambda: escape_approx(m, p.s, loose)) == want
                seen.add(want[0])
        assert seen - {"NONE_GLOBAL"}, "no escape move or error was compared"


class TestThresholdNotMetExits:
    """The two early ThresholdNotMet exits of the case analysis, each with
    the reference escape's exception and message."""

    def test_sign_flip_failed(self):
        # c.s_bar = 1e-30 > 0, but the flip changes m(s) only below rounding.
        m = CubicModel([1.0, 0.0], np.diag([-2.0, -1.0]), 1.0)
        s_bar = np.array([1e-30, 1.0])
        tol = ApproxTolerances(10.0, 0.5)
        want = _escape_record(lambda: ref_escape(m, StationaryPoint.from_vector(m, s_bar), tol))
        assert want == ("ThresholdNotMet", "sign flip failed to decrease the objective")
        assert _escape_record(lambda: escape_approx(m, s_bar, tol)) == want

    def test_origin_step_failed(self):
        # The curvature -1e-110 fails the certificate at eps_curv = 0, but
        # the origin step's decrease, about 1e-331, underflows to 0.
        m = CubicModel([0.0, 0.0], np.diag([-1e-110, 1.0]), 1.0)
        tol = ApproxTolerances(1e-8, 0.0)
        point = StationaryPoint.from_vector(m, np.zeros(2))
        want = _escape_record(lambda: ref_escape(m, point, tol))
        assert want == ("ThresholdNotMet", "origin step failed to decrease the objective")
        assert _escape_record(lambda: escape_approx(m, np.zeros(2), tol)) == want


class TestMoveLeavesDoubleRange:
    """A move is evaluated by the model's one evaluation, range test
    included: where m leaves double range there, the escape raises
    ConvergenceError, without a NumPy warning."""

    # The B_I step from the origin is 0.75 / sigma = 7.5e199 along d = e_1,
    # where s'Qs/2 is -inf and (sigma/3)||s||^3 is inf.
    M = CubicModel([0.0, 0.0], np.diag([-1.0, 2.0]), 1e-200)
    MESSAGE = r"^m\(s\) leaves double range at lam = 0\.75: nan$"

    def test_escape_exact(self):
        point = StationaryPoint.from_vector(self.M, np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=self.MESSAGE):
                escape_exact(self.M, point)

    def test_escape_approx(self):
        tol = ApproxTolerances(1e-8, 1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=self.MESSAGE):
                escape_approx(self.M, np.zeros(2), tol)
