"""Armijo-descent local minimization of the cubic model.

Finds a point with ``||grad m(s)|| <= eps`` from an arbitrary start by
backtracked line search.  Each iteration tries the Newton step; where the
Hessian H is not positive definite it tries instead the shifted Newton
step ``-(H + delta*I)^{-1} g`` with ``delta = -2*shift`` and
``shift = mu_1 + sigma*||s||``.  Since H is at least ``shift*I``, the
shifted matrix is at least ``|shift|*I``, positive definite whenever
``shift`` is negative.  Both Newton steps are rank-one solves in Q's
eigenbasis, ``H = V (diag(mu + sigma*||s||) + (sigma/||s||) u u^T) V^T``
with ``u = V^T s``, on the model's cached eigendecomposition: nothing is
factored per step.  The steepest-descent step is the fallback.  Every step
passes the same Armijo test, so the solve stays a local descent method.
Each point is evaluated once: the line search keeps ``||s||``, ``Q s`` and
``m(s)`` of the trial it accepts, and the next gradient and Newton step
reuse them.  The report, a ``LocalSolveReport`` NamedTuple, holds in
``point`` the final iterate's ``StationaryPoint``, built from those
values; the escape loop and the outer loop read it instead of evaluating
the iterate again.
The model is coercive (sigma > 0), so descent sequences stay bounded; a
run that exhausts its iteration budget reports rather than raises.  So
does a run whose terms leave double range: every solve runs with NumPy's
overflow and invalid warnings off, which changes no value.
"""

import math
from typing import NamedTuple

import numpy as np

from cubicmin import linalg
from cubicmin import model as model_mod

_MAX_ITERS = 5000
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# Relative distance from 0 at which a Newton matrix counts as singular.
_PD_RTOL = 1e-12


class LocalSolveReport(NamedTuple):
    """Outcome of one local solve.

    ``objective_trace`` is the non-increasing objective history of the
    descent phase.  A final Newton polish may move the point within the
    objective's float resolution after the last trace entry, so the
    trace's last value matches ``m(s)`` only to roundoff.

    ``step_counts`` counts the accepted descent steps by kind
    (``"newton"``, ``"shifted"``, ``"gradient"``); the Newton polish is
    not counted.

    ``point`` is the ``StationaryPoint`` of the final iterate ``s``,
    built from the norm, ``Q s``, ``m(s)`` and gradient the solve already
    holds: field by field the bits of ``StationaryPoint.from_vector(m, s)``,
    converged or not.  ``point.s`` is the solve's own final iterate, made
    read-only.  Unlike ``from_vector`` it does not raise where ``m(s)`` is
    NaN or ``-inf``; the escape loop does.
    """

    point: model_mod.StationaryPoint
    iterations: int
    objective_trace: list
    converged: bool
    step_counts: dict


def _newton_step(m, s, norm_s, g):
    """The Newton-type step of one iterate: ``(kind, direction)``.

    ``norm_s`` is ``||s||`` (``linalg.norm``), which the caller already holds.  In
    Q's eigenbasis the Hessian is ``H = V (diag(D) + rho*u*u^T) V^T`` with
    ``D = mu + sigma*||s||``, ``u = V^T s`` and ``rho = sigma/||s||`` (0 at
    s = 0).  The kind is ``"newton"``, direction ``-H^{-1} g``, when H is
    positive definite: by interlacing every D_i is positive, or only D_1
    is negative and ``1 + rho*u^T D^{-1} u`` is negative; a D_i or that
    denominator within a relative tolerance of 0 counts as singular, so a
    singular positive semidefinite H gives no Newton step.  D ascends with
    ``mu``, so these tests read only ``D_1``, ``D_2`` and ``D_n``.
    Otherwise, where ``shift = D_1`` is negative, the kind is
    ``"shifted"``, direction ``-(H - 2*shift*I)^{-1} g``: every D_i is
    then at least ``|shift|``.  Otherwise it is ``(None, None)``.
    """
    d = m.eig.values + m.sigma * norm_s
    d_1, d_n = float(d[0]), float(d[-1])
    d_2 = float(d[1]) if m.n > 1 else math.inf
    V = m.eig.vectors
    u, vg = V.T.dot(s), V.T.dot(g)
    rho = m.sigma / norm_s if norm_s else 0.0
    # With D_2 >= 0 at most D_1 is negative, so the least |D_i| is |D_1| or
    # D_2 and the greatest is |D_1| or |D_n|.
    if d_2 >= 0.0 and min(abs(d_1), d_2) > _PD_RTOL * (max(abs(d_1), abs(d_n)) + m.sigma * norm_s):
        direction = _solve(V, d, u, vg, rho)
        if direction is not None:
            return "newton", direction
    if d_1 < 0.0:
        return "shifted", _solve(V, d - 2.0 * d_1, u, vg, rho)
    return None, None


def _solve(V, d, u, vg, rho):
    # -(V (diag(d) + rho*u*u^T) V^T)^{-1} g from vg = V^T g: a diagonal
    # solve plus a Sherman-Morrison correction.  Where d_1 is negative the
    # matrix is positive definite only if the denominator is negative;
    # otherwise None.
    du = u / d
    dh = vg / d
    terms = rho * u * du
    denom = 1.0 + float(np.add.reduce(terms))
    if d[0] < 0.0 and not denom < -_PD_RTOL * (1.0 + float(np.add.reduce(np.abs(terms)))):
        return None
    return -V.dot(dh - (rho * float(u.dot(dh)) / denom) * du)


def local_minimize(m, s0, eps_grad=None):
    """Descend the cubic model to an approximately stationary point.

    Every iterate tries the Newton step where H is positive definite,
    else the shifted Newton step where it exists, then the gradient step;
    there is no residual threshold for Newton.

    Parameters
    ----------
    m : CubicModel
    s0 : array_like, shape (n,)
        Finite entries; copied, so the caller's array is left as it is.
    eps_grad : float, optional
        Positive, finite gradient-residual target; defaults to the
        model's gradient gate ``m.default_tol_grad()``.

    Returns
    -------
    LocalSolveReport
        ``converged`` is true when the gradient residual reached
        ``eps_grad``; otherwise the best iterate found is reported with
        ``converged = False``.  Either way ``point`` is the final
        iterate's ``StationaryPoint``, evaluated by the solve itself, so
        a caller reads ``m(s)`` and the gradient there without evaluating
        ``s`` again.  Deterministic for fixed inputs.

    Raises
    ------
    ValueError
        ``eps_grad`` is not positive and finite, or ``s0`` has the wrong
        length or a NaN or infinite entry.

    The solve runs with NumPy's overflow and invalid warnings off, which
    changes no value: a solve whose terms leave double range warns
    nothing and reports itself unconverged.
    """
    if eps_grad is not None and not 0.0 < eps_grad < math.inf:
        raise ValueError(f"eps_grad must be positive and finite, got {eps_grad!r}")
    eps = eps_grad if eps_grad is not None else m.default_tol_grad()
    s = np.array(m._check_dim(s0), dtype=float)
    if np.count_nonzero(np.isfinite(s)) < m.n:
        raise ValueError("s0 entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        return _descend(m, s, eps)


def _descend(m, s, eps):
    # (s, ||s||, Q s, m(s)) of the current iterate, each computed once.
    norm_s = linalg.norm(s)
    qs = m.Q.entries.dot(s)
    f = model_mod._objective(m, s, norm_s, qs)
    trace = [f]
    # Accepted gradient steps seed the next trial length, so the line
    # search does not re-pay the full backtrack on every iteration.
    t_carry = 1.0 / (1.0 + m.Q.max_abs + m.sigma * norm_s)

    flat_steps = 0
    step_counts = {"newton": 0, "shifted": 0, "gradient": 0}
    for iterations in range(1, _MAX_ITERS + 1):
        g = model_mod._gradient(m, s, norm_s, qs)
        residual = linalg.norm(g)
        if residual <= eps:
            return _report(m, s, norm_s, f, g, residual, iterations - 1, trace, True, step_counts)

        kind, direction = _newton_step(m, s, norm_s, g)
        candidates = [(kind, direction, 1.0)] if kind else []
        for kind, direction, t in candidates + [("gradient", -g, t_carry)]:
            slope = float(g.dot(direction))
            if slope >= 0.0:
                continue
            for _ in range(60):
                s_try = s + t * direction
                n_try = linalg.norm(s_try)
                q_try = m.Q.entries.dot(s_try)
                f_new = model_mod._objective(m, s_try, n_try, q_try)
                if f_new <= f + _ARMIJO_C * t * slope:
                    break
                t *= _BACKTRACK
            else:
                continue
            break
        else:
            # No candidate achieved sufficient decrease at any step size:
            # stalled at the objective's float resolution.
            break
        flat_steps = flat_steps + 1 if f_new == f else 0
        s, norm_s, qs, f = s_try, n_try, q_try, f_new
        step_counts[kind] += 1
        if kind == "gradient":
            t_carry = 2.0 * t
        if flat_steps >= 3:
            # Accepted steps stopped changing the objective: the same stall.
            break
        trace.append(f)

    g = model_mod._gradient(m, s, norm_s, qs)
    residual = linalg.norm(g)
    polished = False
    # Newton polish.  Near a strict minimiser the remaining decrease sits
    # below float resolution, so objective-based tests cannot certify the
    # last few steps.  Full Newton steps accepted on gradient-norm
    # contraction finish the solve without touching the monotone trace.
    for _ in range(4):
        if residual <= eps:
            break
        kind, d = _newton_step(m, s, norm_s, g)
        if kind != "newton":
            break
        s_try = s + d
        n_try = linalg.norm(s_try)
        q_try = m.Q.entries.dot(s_try)
        g_try = model_mod._gradient(m, s_try, n_try, q_try)
        r_try = linalg.norm(g_try)
        if r_try < 0.5 * residual:
            s, norm_s, qs, g, residual = s_try, n_try, q_try, g_try, r_try
            polished = True
        else:
            break
    if polished:
        f = model_mod._objective(m, s, norm_s, qs)
    return _report(m, s, norm_s, f, g, residual, iterations, trace, residual <= eps, step_counts)


def _report(m, s, norm_s, f, g, residual, iterations, trace, converged, step_counts):
    # The final iterate's StationaryPoint from the values the solve holds:
    # the bits of StationaryPoint.from_vector(m, s), without evaluating s.
    # s is the solve's copy of s0 or a trial it built; nothing writes to it.
    s.setflags(write=False)
    g.setflags(write=False)
    point = model_mod.StationaryPoint(s, m.sigma * norm_s, f, residual, g)
    return LocalSolveReport(point, iterations, trace, converged, step_counts)
