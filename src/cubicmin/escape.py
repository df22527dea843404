"""Closed-form descent moves from (approximately) stationary points.

A stationary point s_bar of the cubic model that is not the global
minimizer admits an explicit point s_hat with m(s_hat) < m(s_bar):
flip the sign when c^T s_bar > 0, step along a negative-curvature
direction from the origin, or reflect across a hyperplane built from
the negative-curvature direction.  ``escape_approx`` gates each move by
tolerance thresholds tied to the gradient residual; ``escape_exact`` is
a residual gate in front of the same tests at the model's default
tolerances.  Every move is verified by direct evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

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

# Orthogonality split: |s_bar^T d| at or below this (relative to ||s_bar||,
# for unit d) routes to the reflection-with-offset case, where a vanishing
# reflection step cannot occur.
TOL_ORTH = 1e-10

_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class ApproxTolerances:
    """Tolerances certifying an approximate stationary point.

    ``eps_grad`` bounds the gradient residual at s_bar; ``eps_curv`` is
    the curvature margin required of the escape direction.
    """

    eps_grad: float
    eps_curv: float

    def __post_init__(self):
        if self.eps_grad < 0.0 or self.eps_curv < 0.0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class EscapeOutcome:
    """Result of one escape attempt.

    ``case_tag`` names which construction fired; NONE_GLOBAL means the
    point passed the global-optimality certificate and no escape exists.
    ``decrease`` is ``m(s_bar) - m(s_hat)``, positive for every actual
    move.  Reflection cases preserve the norm of s_bar.
    """

    case_tag: str
    s_hat: np.ndarray = None
    direction_used: np.ndarray = None
    alpha_used: float = None
    z_used: np.ndarray = None
    decrease: float = 0.0


def _zero_tol(m):
    # lam = sigma*||s_bar|| below this is negligible against any curvature
    # that survives the NONE_GLOBAL gate.
    return 1e-10 * max(1.0, abs(float(m.eig.values[0])) / m.sigma)


def negative_curvature_direction(m, s_bar):
    """Extreme eigenvector of ``Q + sigma*||s_bar||*I`` and its curvature.

    Returns
    -------
    (d, curv) : (ndarray, float)
        ``d`` is the unit eigenvector for the smallest eigenvalue (the
        shift does not change eigenvectors of Q), and
        ``curv = mu_1 + sigma*||s_bar||`` is its Rayleigh quotient.
    """
    s_bar = m._check_dim(s_bar)
    d = m.eig.vectors[:, 0].copy()
    curv = float(m.eig.values[0] + m.sigma * np.linalg.norm(s_bar))
    return d, curv


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
    lam = m.sigma * float(np.linalg.norm(s_bar))
    q_dd = float(d @ (m.Q.entries @ d) + lam * (d @ d))
    if q_dd >= 0.0:
        raise NonNegativeCurvature(f"d^T (Q + lam I) d = {q_dd!r} is not negative")
    c_d = float(m.c @ d)
    c_s = float(m.c @ s_bar)
    if c_s > 0.0:
        raise ValueError("threshold requires c^T s_bar <= 0; apply the sign-flip case first")
    disc = c_d * c_d + c_s * q_dd
    return (c_d - math.sqrt(disc)) / q_dd


def _outcome(m, m_sbar, case, s_hat, d=None, alpha=None, z=None):
    s_hat = np.array(s_hat, dtype=float)
    s_hat.setflags(write=False)
    return EscapeOutcome(
        case_tag=case,
        s_hat=s_hat,
        direction_used=None if d is None else np.array(d),
        alpha_used=alpha,
        z_used=None if z is None else np.array(z),
        decrease=m_sbar - model_mod.eval_model(m, s_hat),
    )


def escape_exact(m, s_bar, direction=None):
    """escape_approx at the default tolerances, from a stationary point.

    Parameters
    ----------
    s_bar : StationaryPoint
        Must carry residual at most ``m.default_tol_grad()``.
    direction : array_like, optional
        Override for the negative-curvature direction (testing hook);
        by default the extreme eigenvector is used.

    Returns
    -------
    EscapeOutcome
        NONE_GLOBAL when the semidefiniteness certificate holds at
        s_bar (then s_bar is the global minimizer); otherwise a case
        A / B_I / B_II / B_III move, never one without decrease.

    Raises
    ------
    NotStationary
        If the residual precondition fails; use escape_approx instead.
    ThresholdNotMet
        As escape_approx (not seen on enumerated points).
    """
    tol_grad = m.default_tol_grad()
    if not s_bar.residual <= tol_grad:
        raise NotStationary(
            f"residual {s_bar.residual!r} exceeds {tol_grad!r}; use escape_approx"
        )
    tol = ApproxTolerances(tol_grad, m.default_tol_psd())
    return _escape(m, np.asarray(s_bar.s, dtype=float), s_bar.objective, tol, direction)


def escape_approx(m, s_bar, tol, direction=None):
    """Escape move from an approximately stationary point.

    The caller certifies ``||grad m(s_bar)|| <= tol.eps_grad``.  Each
    reflection is gated by a threshold on ``tol.eps_curv`` so the
    theoretical decrease survives the gradient residual; every move is
    verified by direct evaluation, and a B_II reflection that does not
    decrease falls through to B_III.

    Raises
    ------
    ThresholdNotMet
        Negative curvature is present but no case threshold holds (or a
        verified decrease could not be produced); the caller should
        tighten the local-solve tolerance and retry.
    """
    s = m._check_dim(s_bar)
    return _escape(m, s, model_mod.eval_model(m, s), tol, direction)


def _escape(m, s, m_sbar, tol, direction):
    # The case analysis of both escapes; m_sbar is m(s).
    c_s = float(m.c @ s)
    if c_s > 0.0:
        out = _outcome(m, m_sbar, CASE_A, -s)
        if out.decrease > 0.0:
            return out
        raise ThresholdNotMet("sign flip failed to decrease the objective")
    if direction is None:
        d, curv = negative_curvature_direction(m, s)
    else:
        d = m._check_dim(direction)
        lam = m.sigma * float(np.linalg.norm(s))
        curv = float(d @ (m.Q.entries @ d) + lam * (d @ d)) / float(d @ d)
    if curv >= -tol.eps_curv:
        return EscapeOutcome(case_tag=CASE_NONE_GLOBAL)
    grad = model_mod.grad(m, s)
    norm_s = float(np.linalg.norm(s))
    norm_d = float(np.linalg.norm(d))

    if norm_s <= _zero_tol(m):
        if float(m.c @ d) > 0.0:
            d = -d
        alpha = -0.75 * float(d @ (m.Q.entries @ d)) / (m.sigma * norm_d**3)
        out = _outcome(m, m_sbar, CASE_B_I, alpha * d, d=d, alpha=alpha)
        if out.decrease > 0.0:
            return out
        raise ThresholdNotMet("origin step failed to decrease the objective")

    lam = m.sigma * norm_s
    s_d = float(s @ d)
    if abs(s_d) > TOL_ORTH * norm_s * norm_d:
        grad_d = float(grad @ d)
        accepted = tol.eps_curv >= abs(grad_d / s_d)
        if not accepted:
            # Strengthened acceptance: the reflection's predicted change
            # along d is negative even though the plain threshold fails.
            step = 2.0 * s_d / norm_d**2
            q_dd = float(d @ (m.Q.entries @ d) + lam * (d @ d))
            accepted = 0.5 * step**2 * q_dd - step * grad_d < 0.0
        if not accepted:
            raise ThresholdNotMet(
                "reflection threshold failed: eps_curv < |grad^T d / s_bar^T d| "
                "and the strengthened test is nonnegative"
            )
        s_hat = s - 2.0 * (s_d / norm_d**2) * d
        out = _outcome(m, m_sbar, CASE_B_II, s_hat, d=d)
        if out.decrease > 0.0:
            return out
        # s_d just above TOL_ORTH: the reflection moves s by rounding
        # alone.  B_III needs only stationarity, since
        # z^T (Q + lam I) z = -c.s - 2 alpha c.d + alpha^2 d^T (Q + lam I) d,
        # so it also applies when s_d is not exactly 0.

    if not tol.eps_curv > abs(float(grad @ s)) / norm_s**2:
        raise ThresholdNotMet(
            "orthogonal-direction threshold failed: eps_curv <= |grad^T s_bar| / ||s_bar||^2"
        )
    if float(grad @ d) < 0.0:
        d = -d
    alpha_bar = alpha_threshold_biii(m, s, d)
    alpha = 2.0 * max(alpha_bar, norm_s)
    for _ in range(_MAX_DOUBLINGS + 1):
        z = s + alpha * d
        z_q_z = float(z @ (m.Q.entries @ z) + lam * (z @ z))
        if z_q_z < -tol.eps_curv * float(z @ z):
            s_hat = s - 2.0 * (float(s @ z) / float(z @ z)) * z
            out = _outcome(m, m_sbar, CASE_B_III, s_hat, d=d, alpha=alpha, z=z)
            if out.decrease > 0.0:
                return out
        alpha *= 2.0
    raise ThresholdNotMet(
        f"no verified decrease within {_MAX_DOUBLINGS} step doublings"
    )
