"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid package internals: gradients and
eigenvalues come from numpy, grid searches evaluate the model formula
directly, so agreement is evidence rather than tautology.
"""

import numpy as np

from cubicmin import CubicModel


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
