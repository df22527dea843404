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
reuse them.
The model is coercive (sigma > 0), so descent sequences stay bounded; a
run that exhausts its iteration budget reports rather than raises.
"""

from dataclasses import dataclass, field

import numpy as np

from cubicmin import linalg
from cubicmin import model as model_mod

_MAX_ITERS = 5000
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# Relative distance from 0 at which a Newton matrix counts as singular.
_PD_RTOL = 1e-12


@dataclass(frozen=True)
class LocalSolveReport:
    """Outcome of one local solve.

    ``objective_trace`` is the non-increasing objective history of the
    descent phase.  A final Newton polish may move the point within the
    objective's float resolution after the last trace entry, so the
    trace's last value matches ``m(s)`` only to roundoff.

    ``step_counts`` counts the accepted descent steps by kind
    (``"newton"``, ``"shifted"``, ``"gradient"``); the Newton polish is
    not counted.
    """

    s: np.ndarray
    residual: float
    iterations: int
    objective_trace: list
    converged: bool
    step_counts: dict = field(default_factory=dict)


def _newton_step(m, s, norm_s, g, shifted=False):
    """Newton direction ``-(H + delta*I)^{-1} g`` in Q's eigenbasis, or None.

    ``norm_s`` is ``linalg.norm(s)``, which the caller already holds.
    ``H + delta*I = V (diag(D) + rho*u*u^T) V^T`` with ``D = mu +
    sigma*||s|| + delta``, ``u = V^T s`` and ``rho = sigma/||s||`` (0 at
    s = 0): a diagonal solve plus a Sherman-Morrison correction.  The plain
    step (``delta = 0``) returns None unless the matrix is positive
    definite, which by interlacing means every D_i is positive, or only
    D_1 is negative and ``1 + rho*u^T D^{-1} u`` is negative; a D_i or
    that denominator within a relative tolerance of 0 also gives None, so
    a singular positive semidefinite H yields no step.  D ascends with
    ``mu``, so these tests read only ``D_1``, ``D_2`` and ``D_n``.  The
    shifted step has ``delta = -2*shift``, ``shift = D_1 = mu_1 +
    sigma*||s||``; it is None when ``shift >= 0`` and otherwise every D_i
    is at least ``|shift|``.
    """
    d = m.eig.values + m.sigma * norm_s
    if shifted:
        if d[0] >= 0.0:
            return None
        d = d - 2.0 * d[0]
    elif m.n > 1 and d[1] < 0.0:
        return None
    else:
        # At most D_1 is negative, so the least |D_i| is |D_1| or D_2 and
        # the greatest is |D_1| or |D_n|.
        least = min(abs(d[0]), abs(d[1])) if m.n > 1 else abs(d[0])
        if least <= _PD_RTOL * (max(abs(d[0]), abs(d[-1])) + m.sigma * norm_s):
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


def local_minimize(m, s0, eps_grad=None):
    """Descend the cubic model to an approximately stationary point.

    Every iterate tries the Newton step, then the shifted Newton step,
    then the gradient step; there is no residual threshold for Newton.

    Parameters
    ----------
    m : CubicModel
    s0 : array_like, shape (n,)
    eps_grad : float, optional
        Positive gradient-residual target; defaults to the model's
        ``1e-8 * (1 + ||c||)``.

    Returns
    -------
    LocalSolveReport
        ``converged`` is true when the gradient residual reached
        ``eps_grad``; otherwise the best iterate found is reported with
        ``converged = False``.  Deterministic for fixed inputs.
    """
    if eps_grad is not None and not eps_grad > 0.0:
        raise ValueError("eps_grad must be positive")
    eps = eps_grad if eps_grad is not None else m.default_tol_grad()
    s = np.array(m._check_dim(s0), dtype=float)
    # (s, ||s||, Q s, m(s)) of the current iterate, each computed once.
    norm_s = linalg.norm(s)
    qs = m.Q.entries @ s
    f = model_mod._objective(m, s, norm_s, qs)
    trace = [f]
    step0 = 1.0 / (1.0 + m.Q.max_abs + m.sigma * norm_s)
    # Accepted gradient steps seed the next trial length, so the line
    # search does not re-pay the full backtrack on every iteration.
    t_carry = step0

    iterations = 0
    flat_steps = 0
    step_counts = {"newton": 0, "shifted": 0, "gradient": 0}
    for iterations in range(1, _MAX_ITERS + 1):
        g = model_mod._gradient(m, s, norm_s, qs)
        residual = linalg.safe_norm(g)
        if residual <= eps:
            return LocalSolveReport(
                s=s, residual=residual, iterations=iterations - 1,
                objective_trace=trace, converged=True,
                step_counts=step_counts,
            )

        candidates = []
        d_newton = _newton_step(m, s, norm_s, g)
        if d_newton is not None:
            candidates.append(("newton", d_newton, 1.0))
        else:
            d_shifted = _newton_step(m, s, norm_s, g, shifted=True)
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
                s_try = s + t * direction
                n_try = linalg.norm(s_try)
                q_try = m.Q.entries @ s_try
                f_new = model_mod._objective(m, s_try, n_try, q_try)
                if f_new <= f + _ARMIJO_C * t * slope:
                    flat_steps = flat_steps + 1 if f_new == f else 0
                    s, norm_s, qs, f = s_try, n_try, q_try, f_new
                    moved = True
                    step_counts[kind] += 1
                    if kind == "gradient":
                        t_carry = 2.0 * t
                    break
                t *= _BACKTRACK
            if moved:
                break
        if not moved or flat_steps >= 3:
            # Either no candidate achieved sufficient decrease at any step
            # size, or accepted steps stopped changing the objective:
            # stalled at the objective's float resolution.
            break
        trace.append(f)

    g = model_mod._gradient(m, s, norm_s, qs)
    residual = linalg.safe_norm(g)
    # Newton polish.  Near a strict minimiser the remaining decrease sits
    # below float resolution, so objective-based tests cannot certify the
    # last few steps.  Full Newton steps accepted on gradient-norm
    # contraction finish the solve without touching the monotone trace.
    for _ in range(4):
        if residual <= eps:
            break
        d = _newton_step(m, s, norm_s, g)
        if d is None:
            break
        s_try = s + d
        n_try = linalg.norm(s_try)
        q_try = m.Q.entries @ s_try
        g_try = model_mod._gradient(m, s_try, n_try, q_try)
        r_try = linalg.norm(g_try)
        if r_try < 0.5 * residual:
            s, norm_s, qs, g, residual = s_try, n_try, q_try, g_try, r_try
        else:
            break
    return LocalSolveReport(
        s=s, residual=residual, iterations=iterations,
        objective_trace=trace, converged=residual <= eps,
        step_counts=step_counts,
    )
