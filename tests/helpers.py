"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid package internals: gradients and
eigenvalues come from numpy, grid searches evaluate the model formula
directly, so agreement is evidence rather than tautology.  The reference
copies of the escape and the local solve at the end are the exception:
they pin today's arithmetic to an earlier written form of it, and call
the package's norms and certificate as that form did.
"""

import math

import numpy as np

from cubicmin import CubicModel, linalg
from cubicmin import model as model_mod
from cubicmin.escape import (
    _MAX_DOUBLINGS,
    CASE_A,
    CASE_B_I,
    CASE_B_II,
    CASE_B_III,
    CASE_NONE_GLOBAL,
    EscapeOutcome,
    _zero_tol,
)
from cubicmin.exceptions import NonNegativeCurvature, ThresholdNotMet
from cubicmin.local_solver import (
    _ARMIJO_C,
    _BACKTRACK,
    _MAX_ITERS,
    _PD_RTOL,
    LocalSolveReport,
)


def random_model(rng, nmax=6, sigmas=(0.1, 1.0, 10.0), n=None):
    """A random dense model with entries U[-5,5], sigma from a menu."""
    if n is None:
        n = int(rng.integers(1, nmax + 1))
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    c = rng.uniform(-5.0, 5.0, size=n)
    sigma = float(rng.choice(sigmas))
    return CubicModel(c, (a + a.T) / 2.0, sigma)


def random_controlled_model(rng, nmax=6, sigmas=(0.1, 1.0, 10.0), n=None):
    """A random model with prescribed eigenvalues in [-5, 5].

    Built as V diag(mu) V^T from a random orthogonal V, so spectral
    quantities used by coercivity-style bounds are directly controlled.
    """
    if n is None:
        n = int(rng.integers(1, nmax + 1))
    mu = rng.uniform(-5.0, 5.0, size=n)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = (v * mu) @ v.T
    c = rng.uniform(-5.0, 5.0, size=n)
    sigma = float(rng.choice(sigmas))
    return CubicModel(c, (q + q.T) / 2.0, sigma)


def class_model(rng, cls, n):
    """generic, hard (beta_1 = 0), near_hard (beta_1 = 1e-9), zero_c,
    scaled_Q (mu times 1e3 to 1e6) or tiny_sigma (sigma 1e-8 to 1e-4)."""
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
    elif cls == "scaled_Q":
        mu = mu * 10.0 ** rng.uniform(3.0, 6.0)
    elif cls == "tiny_sigma":
        sigma = float(10.0 ** rng.uniform(-8.0, -4.0))
    q = (v * mu) @ v.T
    return CubicModel(v @ beta, (q + q.T) / 2.0, sigma)


def np_eval(m, s):
    """Model value straight from the defining formula."""
    s = np.asarray(s, dtype=float)
    return float(
        m.c @ s + 0.5 * s @ (m.Q.entries @ s) + m.sigma / 3.0 * np.linalg.norm(s) ** 3
    )


def np_grad(m, s):
    """Model gradient straight from the defining formula."""
    s = np.asarray(s, dtype=float)
    return m.c + m.Q.entries @ s + m.sigma * np.linalg.norm(s) * s


def np_residual(m, s):
    return float(np.linalg.norm(np_grad(m, s)))


def np_psd_margin(m, s):
    """Smallest eigenvalue of Q + sigma ||s|| I via numpy."""
    lam = m.sigma * float(np.linalg.norm(np.asarray(s, dtype=float)))
    return float(np.linalg.eigvalsh(m.Q.entries)[0]) + lam


def eval_batch(m, pts):
    pts = np.asarray(pts, dtype=float)
    lin = pts @ m.c
    quad = 0.5 * np.einsum("ij,jk,ik->i", pts, m.Q.entries, pts)
    cub = (m.sigma / 3.0) * np.linalg.norm(pts, axis=1) ** 3
    return lin + quad + cub


def min_second_difference(sp, points=100):
    """Smallest sampled second difference of g over every subinterval.

    Samples a uniform grid of ``points`` interior points per subinterval
    (the unbounded tail is truncated) and returns the minimum of the
    consecutive-triple second differences, which strict convexity makes
    positive.  Returns None when g vanishes identically (c = 0).
    """
    from cubicmin.stationary import g_eval, subintervals

    if not np.any(np.abs(sp.beta) > sp.pole_tol):
        return None
    worst = np.inf
    for lo, hi in subintervals(sp):
        if not np.isfinite(hi):
            hi = lo + max(10.0, 2.0 * lo)
        pad = 1e-3 * (hi - lo)
        xs = np.linspace(lo + pad, hi - pad, points + 2)
        vals = np.array([g_eval(sp, x) for x in xs])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        worst = min(worst, float(second.min()))
    return worst


def grid_minimum(m, points=9, keep=3, target_step=0.02):
    """Brute-force zoomed grid minimum of the model.

    Starts from a uniform grid over the coercivity box and repeatedly
    refines windows around the best cells until the grid step falls to
    ``target_step``.  The returned value can only overestimate the true
    minimum, which is the safe direction for one-sided oracle checks.
    """
    radius = 1.5 * np.sqrt(m.norm_c / m.sigma) + 2.0 * m.Q.max_abs / m.sigma
    radius = max(radius, 1.0)
    axes_rel = np.linspace(-1.0, 1.0, points)
    offsets = np.stack(
        np.meshgrid(*([axes_rel] * m.n), indexing="ij"), axis=-1
    ).reshape(-1, m.n)
    centers = np.zeros((1, m.n))
    half = radius
    best = np_eval(m, np.zeros(m.n))
    for _ in range(40):
        pts = (centers[:, None, :] + half * offsets[None, :, :]).reshape(-1, m.n)
        vals = eval_batch(m, pts)
        best = min(best, float(vals.min()))
        order = np.argsort(vals)[:keep]
        centers = pts[order]
        step = 2.0 * half / (points - 1)
        if step <= target_step:
            break
        half = step
    return best


# Reference copies of the escape and the local solve as they were written
# before each StationaryPoint carried its gradient and before the hot paths
# took ``a.dot(b)`` for ``a @ b``.  The bodies are verbatim, with their own
# copies of the model evaluation; tests hold the package to them bit for bit.

def _ref_objective(model, s, norm_s, qs):
    try:
        cube = norm_s**3
    except OverflowError:
        cube = math.inf
    return float(model.c @ s + 0.5 * s @ qs + (model.sigma / 3.0) * cube)


def _ref_gradient(model, s, norm_s, qs):
    return model.c + qs + model.sigma * norm_s * s


def _ref_eval_model(model, s):
    s = model._check_dim(s)
    return _ref_objective(model, s, linalg.norm(s), model.Q.entries @ s)


def ref_alpha_threshold_biii(m, s_bar, d):
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


def _ref_outcome(m, point, case, s_hat, alpha=None, z=None):
    s_hat = np.array(s_hat, dtype=float)
    s_hat.setflags(write=False)
    return EscapeOutcome(
        case_tag=case,
        point=point,
        s_hat=s_hat,
        alpha_used=alpha,
        z_used=None if z is None else np.array(z),
        decrease=point.objective - _ref_eval_model(m, s_hat),
    )


def ref_escape(m, point, tol, direction=None):
    """The escape's case analysis from the StationaryPoint ``point``."""
    cert = model_mod._certificate(m, point, tol.eps_grad, tol.eps_curv, gate=True)
    s = np.asarray(point.s, dtype=float)
    flip = None
    if float(m.c @ s) > 0.0:
        flip = _ref_outcome(m, point, CASE_A, -s)
        if flip.decrease > 0.0:
            return flip
    if cert.is_global:
        return EscapeOutcome(case_tag=CASE_NONE_GLOBAL, point=point, certificate=cert)
    if flip is not None:
        raise ThresholdNotMet("sign flip failed to decrease the objective")
    d = m.eig.vectors[:, 0].copy() if direction is None else m._check_dim(direction)
    norm_s = linalg.norm(s)
    grad = _ref_gradient(m, s, norm_s, m.Q.entries @ s)
    norm_d = linalg.norm(d)

    if norm_s <= _zero_tol(m):
        if float(m.c @ d) > 0.0:
            d = -d
        alpha = -0.75 * float(d @ (m.Q.entries @ d)) / (m.sigma * norm_d**3)
        out = _ref_outcome(m, point, CASE_B_I, alpha * d, alpha=alpha)
        if out.decrease > 0.0:
            return out
        raise ThresholdNotMet("origin step failed to decrease the objective")

    moves = []
    lam = point.lam
    s_d = float(s @ d)
    grad_d = float(grad @ d)
    if s_d != 0.0:
        accepted = tol.eps_curv >= abs(grad_d / s_d)
        if not accepted:
            step = 2.0 * s_d / norm_d**2
            q_dd = float(d @ (m.Q.entries @ d) + lam * (d @ d))
            accepted = 0.5 * step**2 * q_dd - step * grad_d < 0.0
        if accepted:
            s_hat = s - 2.0 * (s_d / norm_d**2) * d
            out = _ref_outcome(m, point, CASE_B_II, s_hat)
            if out.decrease > 0.0:
                moves.append(out)

    if tol.eps_curv > abs(float(grad @ s)) / norm_s**2:
        if grad_d < 0.0:
            d = -d
        alpha = 2.0 * max(ref_alpha_threshold_biii(m, s, d), norm_s)
        for _ in range(_MAX_DOUBLINGS + 1):
            z = s + alpha * d
            z_q_z = float(z @ (m.Q.entries @ z) + lam * (z @ z))
            if z_q_z < -tol.eps_curv * float(z @ z):
                s_hat = s - 2.0 * (float(s @ z) / float(z @ z)) * z
                out = _ref_outcome(m, point, CASE_B_III, s_hat, alpha=alpha, z=z)
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


def _ref_newton_step(m, s, norm_s, g, shifted=False):
    d = m.eig.values + m.sigma * norm_s
    if shifted:
        if d[0] >= 0.0:
            return None
        d = d - 2.0 * d[0]
    elif m.n > 1 and d[1] < 0.0:
        return None
    else:
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


def ref_local_minimize(m, s0, eps_grad=None):
    """The local solve: Newton, shifted Newton, then gradient, with Armijo backtracking."""
    if eps_grad is not None and not eps_grad > 0.0:
        raise ValueError("eps_grad must be positive")
    eps = eps_grad if eps_grad is not None else m.default_tol_grad()
    s = np.array(m._check_dim(s0), dtype=float)
    norm_s = linalg.norm(s)
    qs = m.Q.entries @ s
    f = _ref_objective(m, s, norm_s, qs)
    trace = [f]
    step0 = 1.0 / (1.0 + m.Q.max_abs + m.sigma * norm_s)
    t_carry = step0

    iterations = 0
    flat_steps = 0
    step_counts = {"newton": 0, "shifted": 0, "gradient": 0}
    for iterations in range(1, _MAX_ITERS + 1):
        g = _ref_gradient(m, s, norm_s, qs)
        residual = linalg.safe_norm(g)
        if residual <= eps:
            return LocalSolveReport(
                s=s, residual=residual, iterations=iterations - 1,
                objective_trace=trace, converged=True,
                step_counts=step_counts,
            )

        candidates = []
        d_newton = _ref_newton_step(m, s, norm_s, g)
        if d_newton is not None:
            candidates.append(("newton", d_newton, 1.0))
        else:
            d_shifted = _ref_newton_step(m, s, norm_s, g, shifted=True)
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
                f_new = _ref_objective(m, s_try, n_try, q_try)
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
            break
        trace.append(f)

    g = _ref_gradient(m, s, norm_s, qs)
    residual = linalg.safe_norm(g)
    for _ in range(4):
        if residual <= eps:
            break
        d = _ref_newton_step(m, s, norm_s, g)
        if d is None:
            break
        s_try = s + d
        n_try = linalg.norm(s_try)
        q_try = m.Q.entries @ s_try
        g_try = _ref_gradient(m, s_try, n_try, q_try)
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
