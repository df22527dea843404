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
NONE_GLOBAL.  ``escape_exact`` uses the model's default tolerances,
``escape_approx`` the caller's, which also set each reflection's
threshold.  Every move is verified by direct evaluation; where the
gates of both reflections hold, the larger verified decrease is
returned.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ApproxTolerances:
    """Tolerances certifying an approximate stationary point.

    ``eps_grad`` bounds the gradient residual at s_bar; ``eps_curv`` is
    the curvature margin required of the escape direction.  Both must be
    ``>= 0`` (NaN is rejected).
    """

    eps_grad: float
    eps_curv: float

    def __post_init__(self):
        for name in ("eps_grad", "eps_curv"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class EscapeOutcome:
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


def _zero_tol(m):
    # lam = sigma*||s_bar|| below this is negligible against any curvature
    # that survives the NONE_GLOBAL gate.
    return 1e-10 * max(1.0, abs(float(m.eig.values[0])) / m.sigma)


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
    q_dd = float(d @ (m.Q.entries @ d) + lam * (d @ d))
    if q_dd >= 0.0:
        raise NonNegativeCurvature(f"d^T (Q + lam I) d = {q_dd!r} is not negative")
    c_d = float(m.c @ d)
    c_s = float(m.c @ s_bar)
    if c_s > 0.0:
        raise ValueError("threshold requires c^T s_bar <= 0; apply the sign-flip case first")
    disc = c_d * c_d + c_s * q_dd
    return (c_d - math.sqrt(disc)) / q_dd


def _outcome(m, point, case, s_hat, alpha=None, z=None):
    s_hat = np.array(s_hat, dtype=float)
    s_hat.setflags(write=False)
    return EscapeOutcome(
        case_tag=case,
        point=point,
        s_hat=s_hat,
        alpha_used=alpha,
        z_used=None if z is None else np.array(z),
        decrease=point.objective - model_mod.eval_model(m, s_hat),
    )


def escape_exact(m, s_bar, direction=None):
    """escape_approx at the default tolerances, from a stationary point.

    Parameters
    ----------
    s_bar : StationaryPoint
        Judged by its own residual at ``m.default_tol_grad()``.
    direction : array_like, optional
        Override for the negative-curvature direction (testing hook);
        by default the extreme eigenvector is used.  NONE_GLOBAL still
        follows the certificate, not the override's curvature.

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
    ThresholdNotMet
        As escape_approx (not seen on enumerated points).
    """
    tol = ApproxTolerances(m.default_tol_grad(), m.default_tol_psd())
    return _escape(m, s_bar, tol, direction)


def escape_approx(m, s_bar, tol, direction=None):
    """Escape move from an approximately stationary point.

    ``s_bar`` is a vector; it is evaluated once, and its certificate at
    ``(tol.eps_grad, tol.eps_curv)`` decides NONE_GLOBAL.  Each
    reflection is gated by a threshold on ``tol.eps_curv`` so the
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
    """
    return _escape(m, model_mod.StationaryPoint.from_vector(m, s_bar), tol, direction)


def _escape(m, point, tol, direction):
    # The case analysis of both escapes, from the evaluated point.
    cert = model_mod._certificate(m, point, tol.eps_grad, tol.eps_curv, gate=True)
    s = np.asarray(point.s, dtype=float)
    flip = None
    if float(m.c @ s) > 0.0:
        flip = _outcome(m, point, CASE_A, -s)
        if flip.decrease > 0.0:
            return flip
    if cert.is_global:
        # Also where c.s > 0 by rounding alone, so the flip cannot decrease.
        return EscapeOutcome(case_tag=CASE_NONE_GLOBAL, point=point, certificate=cert)
    if flip is not None:
        raise ThresholdNotMet("sign flip failed to decrease the objective")
    d = m.eig.vectors[:, 0].copy() if direction is None else m._check_dim(direction)
    norm_s = linalg.norm(s)
    grad = model_mod._gradient(m, s, norm_s, m.Q.entries @ s)
    norm_d = linalg.norm(d)

    if norm_s <= _zero_tol(m):
        if float(m.c @ d) > 0.0:
            d = -d
        alpha = -0.75 * float(d @ (m.Q.entries @ d)) / (m.sigma * norm_d**3)
        out = _outcome(m, point, CASE_B_I, alpha * d, alpha=alpha)
        if out.decrease > 0.0:
            return out
        raise ThresholdNotMet("origin step failed to decrease the objective")

    # B_II and B_III each keep their move only if it verifies a decrease;
    # the larger decrease wins, B_II on a tie.
    moves = []
    lam = point.lam
    s_d = float(s @ d)
    grad_d = float(grad @ d)
    if s_d != 0.0:
        accepted = tol.eps_curv >= abs(grad_d / s_d)
        if not accepted:
            # Strengthened acceptance: the reflection's predicted change
            # along d is negative even though the plain threshold fails.
            step = 2.0 * s_d / norm_d**2
            q_dd = float(d @ (m.Q.entries @ d) + lam * (d @ d))
            accepted = 0.5 * step**2 * q_dd - step * grad_d < 0.0
        if accepted:
            s_hat = s - 2.0 * (s_d / norm_d**2) * d
            out = _outcome(m, point, CASE_B_II, s_hat)
            if out.decrease > 0.0:
                moves.append(out)

    # B_III needs only stationarity, not s_d = 0, since
    # z^T (Q + lam I) z = -c.s - 2 alpha c.d + alpha^2 d^T (Q + lam I) d.
    if tol.eps_curv > abs(float(grad @ s)) / norm_s**2:
        if grad_d < 0.0:
            d = -d
        alpha = 2.0 * max(alpha_threshold_biii(m, s, d), norm_s)
        for _ in range(_MAX_DOUBLINGS + 1):
            z = s + alpha * d
            z_q_z = float(z @ (m.Q.entries @ z) + lam * (z @ z))
            if z_q_z < -tol.eps_curv * float(z @ z):
                s_hat = s - 2.0 * (float(s @ z) / float(z @ z)) * z
                out = _outcome(m, point, CASE_B_III, s_hat, alpha=alpha, z=z)
                if out.decrease > 0.0:
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
