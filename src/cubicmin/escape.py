"""Closed-form descent moves from (approximately) stationary points.

A stationary point s_bar of the cubic model that is not the global
minimizer admits an explicit point s_hat with m(s_hat) < m(s_bar):
flip the sign when c^T s_bar > 0 (a flip that does not decrease defers
to the global certificate), step along a negative-curvature
direction from the origin, or reflect s_bar: across the
negative-curvature direction d (B_II) or across z = s_bar + alpha*d
(B_III).  Both escapes judge the point by its global certificate
(``model._certificate`` at ``eps_grad`` and ``eps_curv``): a residual
above ``eps_grad`` raises NotStationary, and a point that passes gets
NONE_GLOBAL; one with ``||s_bar|| <= m.zero_step_tol()`` moves as from
the origin (B_I).  ``escape_exact`` takes the model's two gates,
without an ``ApproxTolerances`` record; ``escape_approx`` takes the
caller's record, validated when it was built, whose tolerances also set
each reflection's threshold, and also takes s_bar as a vector.  The
case analysis reads s_bar, its multiplier and its gradient from the
point's ``StationaryPoint`` record, the one evaluation of s_bar: the
escape loop passes the local solve's.  One verdict, ``_outcome``, keeps a
move only where direct evaluation (``model._evaluate``, with its range
test) verifies a positive decrease; where the gates of both reflections
hold, the larger verified decrease is returned.  The direction d is a
contiguous copy of the bottom eigenvector of Q; its norm and the
products ``c^T d``, ``d^T Q d`` and ``d^T d`` are taken on each call,
the same way.  ``ApproxTolerances`` and ``EscapeOutcome`` are
NamedTuples; ``ApproxTolerances`` checks its tolerances in its
constructor and in ``_replace``.
"""

import math
from typing import NamedTuple

import numpy as np

from cubicmin import linalg
from cubicmin import model as model_mod
from cubicmin.exceptions import (
    NonNegativeCurvature,
    NotStationary,
    ThresholdNotMet,
)

CASE_A = "A"
CASE_B_I = "B_I"
CASE_B_II = "B_II"
CASE_B_III = "B_III"
CASE_NONE_GLOBAL = "NONE_GLOBAL"

_MAX_DOUBLINGS = 60


class _ApproxTolerances(NamedTuple):
    eps_grad: float
    eps_curv: float


class ApproxTolerances(_ApproxTolerances):
    """Tolerances certifying an approximate stationary point.

    ``eps_grad`` bounds the gradient residual at s_bar; ``eps_curv`` is
    the curvature margin required of the escape direction.  Both must be
    ``>= 0`` (NaN is rejected); the constructor, ``_replace`` and
    unpickling all check them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("eps_grad", "eps_curv"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, whose tuple.__new__ skips the checks.
        return cls(*iterable)


class EscapeOutcome(NamedTuple):
    """Result of one escape attempt.

    ``case_tag`` names which construction fired; NONE_GLOBAL means the
    point passed the global-optimality certificate and no escape exists,
    and then ``certificate`` holds that GlobalCertificate (None on
    moves).  ``point`` is the StationaryPoint of s_bar that the escape
    judged, on every outcome, so ``point.objective = m(s_bar)``.
    ``decrease`` is ``m(s_bar) - m(s_hat)``, positive for every actual
    move.  Reflection cases preserve the norm of s_bar.
    """

    case_tag: str
    point: model_mod.StationaryPoint
    s_hat: np.ndarray = None
    alpha_used: float = None
    z_used: np.ndarray = None
    decrease: float = 0.0
    certificate: model_mod.GlobalCertificate = None


def alpha_threshold_biii(m, s_bar, d):
    """Step threshold for the orthogonal-direction reflection case.

    For ``s_bar^T d = 0``, exact stationarity, and every
    ``alpha > alpha_bar``, the point ``z = s_bar + alpha*d`` satisfies
    ``z^T (Q + sigma*||s_bar||*I) z < 0``.

    Raises
    ------
    NonNegativeCurvature
        If ``d^T (Q + sigma*||s_bar||*I) d >= 0``.
    """
    s_bar = m._check_dim(s_bar)
    d = m._check_dim(d)
    lam = m.sigma * linalg.norm(s_bar)
    q_dd = float(d.dot(m.Q.entries.dot(d))) + lam * float(d.dot(d))
    return _threshold(q_dd, float(m.c.dot(d)), float(m.c.dot(s_bar)))


def _threshold(q_dd, c_d, c_s):
    # alpha_threshold_biii from q_dd = d'(Q + lam I)d, c_d = c'd and c_s = c's.
    if q_dd >= 0.0:
        raise NonNegativeCurvature(f"d^T (Q + lam I) d = {q_dd!r} is not negative")
    if c_s > 0.0:
        raise ValueError("threshold requires c^T s_bar <= 0; apply the sign-flip case first")
    disc = c_d * c_d + c_s * q_dd
    return (c_d - math.sqrt(disc)) / q_dd


def _outcome(m, point, case, s_hat, alpha=None, z=None):
    # The one verdict on a move: None unless the model's one evaluation
    # verifies a decrease.  s_hat and z are fresh arrays of the caller's.
    _, _, value, _ = model_mod._evaluate(m, s_hat, gradient=False)
    decrease = point.objective - value
    if not decrease > 0.0:
        return None
    s_hat.setflags(write=False)
    return EscapeOutcome(case, point, s_hat, alpha, z, decrease, None)


def escape_exact(m, s_bar):
    """escape_approx at the default tolerances, from a stationary point.

    Parameters
    ----------
    s_bar : StationaryPoint
        Judged by its own residual at ``m.default_tol_grad()``.

    Returns
    -------
    EscapeOutcome
        NONE_GLOBAL when the global certificate holds at s_bar (then
        s_bar is the global minimizer); otherwise a case A / B_I / B_II
        / B_III move, never one without decrease; of B_II and B_III, the
        larger verified decrease.

    Raises
    ------
    NotStationary
        If the residual exceeds ``m.default_tol_grad()``; use
        escape_approx with a looser ``eps_grad`` instead.
    ThresholdNotMet, ConvergenceError
        As escape_approx (ThresholdNotMet is not seen on enumerated points).
    """
    return _escape(m, s_bar, m.default_tol_grad(), m.default_tol_psd())


def escape_approx(m, s_bar, tol):
    """Escape move from an approximately stationary point.

    ``s_bar`` is a ``StationaryPoint``, judged as recorded (the escape
    loop passes the local solve's ``LocalSolveReport.point``), or a
    vector, which ``StationaryPoint.from_vector`` evaluates once.  Its
    certificate at ``(tol.eps_grad, tol.eps_curv)`` decides NONE_GLOBAL.
    Each reflection is gated by a threshold on ``tol.eps_curv`` so the
    theoretical decrease survives the gradient residual.  Every move is
    verified by direct evaluation; B_II and B_III are both built when
    their gates hold, and the larger verified decrease is returned
    (B_II on a tie).

    Raises
    ------
    NotStationary
        If ``||grad m(s_bar)|| > tol.eps_grad``.
    ThresholdNotMet
        Negative curvature is present but no move whose threshold holds
        verifies a decrease; the caller should tighten the local-solve
        tolerance and retry.
    ConvergenceError
        Where m at a move is NaN or below double range, or m(s_bar) is,
        for a vector s_bar (a record is judged as it stands).
    """
    if not isinstance(s_bar, model_mod.StationaryPoint):
        s_bar = model_mod.StationaryPoint.from_vector(m, s_bar)
    return _escape(m, s_bar, tol.eps_grad, tol.eps_curv)


def _escape(m, point, eps_grad, eps_curv):
    # The case analysis of both escapes, from the evaluated point: s, lam
    # and the gradient are the point's, and each product below is taken
    # once.  Negating d is exact, so c'(-d) = -(c'd) and (-d)'Q(-d) = d'Qd.
    cert = model_mod._certificate(m, point, eps_grad, eps_curv, gate=True)
    s = point.s
    c_s = float(m.c.dot(s))
    if c_s > 0.0:
        flip = _outcome(m, point, CASE_A, -s)
        if flip is not None:
            return flip
    if cert.is_global:
        # Also where c.s > 0 by rounding alone, so the flip cannot decrease.
        return EscapeOutcome(CASE_NONE_GLOBAL, point, None, None, None, 0.0, cert)
    if c_s > 0.0:
        raise ThresholdNotMet("sign flip failed to decrease the objective")
    # A contiguous copy: a strided column dots in another summation order.
    d = m.eig.vectors[:, 0].copy()
    norm_d = linalg.norm(d)
    c_d = float(m.c.dot(d))
    d_q_d = float(d.dot(m.Q.entries.dot(d)))
    d_d = float(d.dot(d))
    norm_s = linalg.norm(s)
    grad = point.gradient

    if norm_s <= m.zero_step_tol():
        if c_d > 0.0:
            d = -d
        alpha = -0.75 * d_q_d / (m.sigma * norm_d**3)
        out = _outcome(m, point, CASE_B_I, alpha * d, alpha=alpha)
        if out is not None:
            return out
        raise ThresholdNotMet("origin step failed to decrease the objective")

    # B_II and B_III each keep their move only if it verifies a decrease;
    # the larger decrease wins, B_II on a tie.
    moves = []
    lam = point.lam
    q_dd = d_q_d + lam * d_d
    s_d = float(s.dot(d))
    grad_d = float(grad.dot(d))
    if s_d != 0.0:
        accepted = eps_curv >= abs(grad_d / s_d)
        if not accepted:
            # Strengthened acceptance: the reflection's predicted change
            # along d is negative even though the plain threshold fails.
            step = 2.0 * s_d / norm_d**2
            accepted = 0.5 * step**2 * q_dd - step * grad_d < 0.0
        if accepted:
            s_hat = s - 2.0 * (s_d / norm_d**2) * d
            out = _outcome(m, point, CASE_B_II, s_hat)
            if out is not None:
                moves.append(out)

    # B_III needs only stationarity, not s_d = 0, since
    # z^T (Q + lam I) z = -c.s - 2 alpha c.d + alpha^2 d^T (Q + lam I) d.
    if eps_curv > abs(float(grad.dot(s))) / norm_s**2:
        if grad_d < 0.0:
            d = -d
            c_d = -c_d
        alpha = 2.0 * max(_threshold(q_dd, c_d, c_s), norm_s)
        for _ in range(_MAX_DOUBLINGS + 1):
            z = s + alpha * d
            z_z = float(z.dot(z))
            z_q_z = float(z.dot(m.Q.entries.dot(z))) + lam * z_z
            if z_q_z < -eps_curv * z_z:
                s_hat = s - 2.0 * (float(s.dot(z)) / z_z) * z
                out = _outcome(m, point, CASE_B_III, s_hat, alpha=alpha, z=z)
                if out is not None:
                    moves.append(out)
                    break
            alpha *= 2.0
    if not moves:
        raise ThresholdNotMet(
            "neither B_II nor B_III verified a decrease (gates: eps_curv >= "
            "|grad^T d / s_bar^T d| or a negative strengthened test; "
            "eps_curv > |grad^T s_bar| / ||s_bar||^2)"
        )
    return max(moves, key=lambda out: out.decrease)
