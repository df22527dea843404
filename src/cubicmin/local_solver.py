"""Armijo-descent local minimization of the cubic model.

Finds a point with ``||grad m(s)|| <= eps`` from an arbitrary start by
backtracked line search.  Each iteration tries the Newton step; where the
Hessian H is not positive definite it tries instead the shifted Newton
step ``-(H + delta*I)^{-1} g`` with ``delta = -2*shift`` and
``shift = mu_1 + sigma*||s||``.  Since H is at least ``shift*I``, the
shifted matrix is at least ``|shift|*I`` and factors whenever ``shift``
is negative.  The steepest-descent step is the fallback.  Every step
passes the same Armijo test, so the solve stays a local descent method.
The model is coercive (sigma > 0), so descent sequences stay bounded; a
run that exhausts its iteration budget reports rather than raises.
"""

from dataclasses import dataclass, field

import numpy as np

from cubicmin import model as model_mod

_MAX_ITERS = 5000
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5


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


def _newton_step(m, s, g, delta=0.0):
    """Newton direction from one Cholesky factorization of ``H + delta*I``.

    Returns None when that matrix is not numerically positive definite,
    i.e. LAPACK's factorization meets a non-positive pivot.  The plain
    Newton step factors H unshifted (``delta = 0``): a small positive
    delta would let a singular positive semidefinite Hessian factor and
    return a step of order ``||g||/delta``.
    """
    H = model_mod._hess_entries(m, s)
    if delta:
        H = H + delta * np.eye(m.n)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, -g))


def _shifted_newton_step(m, s, g):
    """Newton direction on the Hessian shifted past its negative curvature.

    With ``shift = mu_1 + sigma*||s||`` (mu_1 the smallest eigenvalue of
    Q), ``H = Q + sigma*||s||*I + sigma*s*s^T/||s||`` is at least
    ``shift*I``, so ``H - 2*shift*I`` is at least ``|shift|*I``.  Returns
    None when ``shift >= 0`` (H is then positive semidefinite, and a
    failed plain Newton step is left to steepest descent) or when the
    shifted factorization still fails through rounding.
    """
    shift = float(m.eig.values[0]) + m.sigma * float(np.linalg.norm(s))
    if shift >= 0.0:
        return None
    return _newton_step(m, s, g, delta=-2.0 * shift)


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
    f = model_mod.eval_model(m, s)
    trace = [f]
    step0 = 1.0 / (1.0 + m.Q.max_abs + m.sigma * float(np.linalg.norm(s)))
    # Accepted gradient steps seed the next trial length, so the line
    # search does not re-pay the full backtrack on every iteration.
    t_carry = step0

    iterations = 0
    flat_steps = 0
    step_counts = {"newton": 0, "shifted": 0, "gradient": 0}
    for iterations in range(1, _MAX_ITERS + 1):
        g = model_mod.grad(m, s)
        residual = float(np.linalg.norm(g))
        if residual <= eps:
            return LocalSolveReport(
                s=s, residual=residual, iterations=iterations - 1,
                objective_trace=trace, converged=True,
                step_counts=step_counts,
            )

        candidates = []
        d_newton = _newton_step(m, s, g)
        if d_newton is not None:
            candidates.append(("newton", d_newton, 1.0))
        else:
            d_shifted = _shifted_newton_step(m, s, g)
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
            # Either no candidate achieved sufficient decrease at any step
            # size, or accepted steps stopped changing the objective:
            # stalled at the objective's float resolution.
            break
        trace.append(f)

    g = model_mod.grad(m, s)
    residual = float(np.linalg.norm(g))
    # Newton polish.  Near a strict minimiser the remaining decrease sits
    # below float resolution, so objective-based tests cannot certify the
    # last few steps.  Full Newton steps accepted on gradient-norm
    # contraction finish the solve without touching the monotone trace.
    for _ in range(4):
        if residual <= eps:
            break
        d = _newton_step(m, s, g)
        if d is None:
            break
        s_try = s + d
        g_try = model_mod.grad(m, s_try)
        r_try = float(np.linalg.norm(g_try))
        if r_try < 0.5 * residual:
            s, g, residual = s_try, g_try, r_try
        else:
            break
    return LocalSolveReport(
        s=s, residual=residual, iterations=iterations,
        objective_trace=trace, converged=residual <= eps,
        step_counts=step_counts,
    )
