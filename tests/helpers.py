"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid package internals: gradients and
eigenvalues come from numpy, grid searches evaluate the model formula
directly, so agreement is evidence rather than tautology.  The reference
copies of the two old norms, the escape, the local solve, the
small-model solve's record builders and the secular record's bookkeeping
at the end are the exception: they
pin today's arithmetic to an earlier written form of it, and call the old
norms and the package's certificate as that form did.
"""

import decimal
import math
import warnings
from typing import NamedTuple

import numpy as np

from cubicmin import CubicModel
from cubicmin import model as model_mod
from cubicmin.escape import (
    _MAX_DOUBLINGS,
    CASE_A,
    CASE_B_I,
    CASE_B_II,
    CASE_B_III,
    CASE_NONE_GLOBAL,
    EscapeOutcome,
)
from cubicmin.exceptions import (
    ConvergenceError,
    NonNegativeCurvature,
    NormMismatch,
    NotStationary,
    ThresholdNotMet,
)
from cubicmin.linalg import _SYMMETRY_RTOL, EigenDecomposition, _freeze
from cubicmin.local_solver import (
    _ARMIJO_C,
    _BACKTRACK,
    _MAX_ITERS,
    _PD_RTOL,
)
from cubicmin.model import (
    _IN_RANGE,
    SINGULAR_MODE_TOL,
    GlobalCertificate,
    StationaryPoint,
    _gradient,
    _objective,
)
from cubicmin.stationary import (
    _NEWTON_MAX_STEPS,
    _NEWTON_STEP_RTOL,
    _POLE_MERGE,
    LambdaRoot,
    _boundary_parts,
    _distinct,
    _newton_root,
    _rootless,
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
    """generic, hard (beta_1 = 0), near_hard (beta_1 = 1e-9), faint_hard
    (beta_1 = 1e-10, below the coupling row ``1e-10 (1 + ||c||)``, so the
    mode is uncoupled), zero_c, scaled_Q (mu times 1e3 to 1e6) or
    tiny_sigma (sigma 1e-8 to 1e-4)."""
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mu = np.sort(rng.uniform(-5.0, 5.0, size=n))
    beta = rng.normal(size=n)
    sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
    if cls in ("hard", "near_hard", "faint_hard"):
        mu[0] = min(mu[0], -0.1)
        beta[0] = {"hard": 0.0, "near_hard": 1e-9, "faint_hard": 1e-10}[cls]
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


def outcome_bits(run):
    """How ``run()`` ends, bit for bit: its result, records and lists item by
    item with arrays and floats as bytes, or its exception's class and
    message; and the warnings it gave."""

    def bits(x):
        if isinstance(x, (tuple, list)):
            return type(x).__name__, [bits(v) for v in x]
        if isinstance(x, (np.ndarray, float)):
            return type(x).__name__, np.asarray(x).shape, np.asarray(x).tobytes()
        return x

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = bits(run())
        except Exception as exc:
            out = type(exc).__name__, str(exc)
    return out, [(w.category.__name__, str(w.message)) for w in caught]


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


def exact_residual(m, s):
    """``||c + Qs + sigma||s|| s||`` in 80-digit decimal arithmetic, as a float.

    The referee for a certificate's residual: it reads the model's doubles
    ``c``, ``Q.entries`` and ``sigma`` and the double vector ``s`` exactly,
    so its only rounding is at 80 digits, far below that of a double
    residual (about ``eps * || |c| + |Q||s| + sigma||s|| |s| ||``).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        D = decimal.Decimal
        s_d = [D(v) for v in np.asarray(s, dtype=float).tolist()]
        k = D(m.sigma) * sum(v * v for v in s_d).sqrt()
        total = D(0)
        for c_i, row, s_i in zip(m.c.tolist(), m.Q.entries.tolist(), s_d):
            r_i = D(c_i) + sum(D(q) * v for q, v in zip(row, s_d)) + k * s_i
            total += r_i * r_i
        return float(total.sqrt())


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


# Reference copies of the two Euclidean norms as they were written before
# ``linalg.norm`` made the range decision itself: ``ref_norm`` squared
# first, with NumPy's overflow warning, and ``ref_safe_norm`` scaled where
# max|x| left [1e-150, 1e150].  The bodies are verbatim, and the references
# below call them, so parity tests compare against the bits of that code.

def ref_norm(x):
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


def ref_safe_norm(x):
    # On short vectors a Python max is several times faster than NumPy's.
    x_max = max(map(abs, x.tolist()))
    if x_max > 1e150 or 0.0 < x_max < 1e-150:
        if x_max == math.inf:
            return x_max
        return x_max * ref_norm(x / x_max)
    return ref_norm(x)


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
    return _ref_objective(model, s, ref_norm(s), model.Q.entries @ s)


def ref_alpha_threshold_biii(m, s_bar, d):
    s_bar = m._check_dim(s_bar)
    d = m._check_dim(d)
    lam = m.sigma * ref_norm(s_bar)
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
        certificate=None,
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
        return EscapeOutcome(case_tag=CASE_NONE_GLOBAL, point=point, s_hat=None,
                             alpha_used=None, z_used=None, decrease=0.0, certificate=cert)
    if flip is not None:
        raise ThresholdNotMet("sign flip failed to decrease the objective")
    d = m.eig.vectors[:, 0].copy() if direction is None else m._check_dim(direction)
    norm_s = ref_norm(s)
    grad = _ref_gradient(m, s, norm_s, m.Q.entries @ s)
    norm_d = ref_norm(d)

    if norm_s <= 1e-10 * max(1.0, abs(m.eig.mu_1) / m.sigma):
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
            "neither B_II nor B_III verified a decrease (gates: a negative "
            "predicted change along d; eps_curv > |grad^T s_bar| / ||s_bar||^2)"
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


class RefLocalReport(NamedTuple):
    """A reference local solve's outcome, its final iterate in ``s``."""

    s: np.ndarray
    residual: float
    iterations: int
    objective_trace: list
    converged: bool
    step_counts: dict


def ref_local_minimize(m, s0, eps_grad=None):
    """The local solve: Newton, shifted Newton, then gradient, with Armijo backtracking."""
    if eps_grad is not None and not eps_grad > 0.0:
        raise ValueError("eps_grad must be positive")
    eps = eps_grad if eps_grad is not None else m.default_tol_grad()
    s = np.array(m._check_dim(s0), dtype=float)
    norm_s = ref_norm(s)
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
        residual = ref_safe_norm(g)
        if residual <= eps:
            return RefLocalReport(
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
                n_try = ref_norm(s_try)
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
    residual = ref_safe_norm(g)
    for _ in range(4):
        if residual <= eps:
            break
        d = _ref_newton_step(m, s, norm_s, g)
        if d is None:
            break
        s_try = s + d
        n_try = ref_norm(s_try)
        q_try = m.Q.entries @ s_try
        g_try = _ref_gradient(m, s_try, n_try, q_try)
        r_try = ref_norm(g_try)
        if r_try < 0.5 * residual:
            s, norm_s, qs, g, residual = s_try, n_try, q_try, g_try, r_try
        else:
            break
    return RefLocalReport(
        s=s, residual=residual, iterations=iterations,
        objective_trace=trace, converged=residual <= eps,
        step_counts=step_counts,
    )


# Reference copies of the small-model solve's record builders as they were
# written before the records skipped the dataclasses' generated __init__,
# the eigendecomposition carried mu_1 and v_1, and the checks counted with
# np.count_nonzero.  The bodies are verbatim; tests hold the package to
# them bit for bit.

class RefSymmetricMatrix:
    """``SymmetricMatrix`` validation and symmetrization; decompose with ``ref_sym_eigen``."""

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        # Halves throughout: a - a.T could overflow, half - half.T cannot.
        half = 0.5 * a
        # An exactly symmetric matrix has every gap negative: skip them.
        if not (a == a.T).all():
            gap = np.abs(half - half.T) - (0.5 * _SYMMETRY_RTOL) * (1.0 + np.abs(a))
            if (gap > 0).any():
                i, j = np.unravel_index(np.argmax(gap), a.shape)
                raise ValueError(
                    f"entry ({i},{j}) = {float(a[i, j])!r} differs from ({j},{i}) = "
                    f"{float(a[j, i])!r} beyond the symmetry tolerance"
                )
        self.entries = _freeze(half + half.T)
        self.n = a.shape[0]


def ref_sym_eigen(A):
    try:
        values, vectors = np.linalg.eigh(A.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(A.n)]
    vectors *= np.copysign(1.0, lead)
    return EigenDecomposition(values, vectors)


def ref_from_vector(model, s):
    """``StationaryPoint.from_vector``."""
    cls = StationaryPoint
    s = np.array(s, dtype=float).reshape(-1)
    if s.shape[0] != model.n:
        model._check_dim(s)  # raises the dimension error
    s.setflags(write=False)
    norm_s = ref_safe_norm(s)
    lam = model.sigma * norm_s
    qs = model.Q.entries.dot(s)
    # Bounds the terms of grad m(s) and m(s), as ||Q|| <= n max|Q|.
    if (1.0 + norm_s) * (model.norm_c + (model.n * model.Q.max_abs + lam) * norm_s) < _IN_RANGE:
        objective = _objective(model, s, norm_s, qs)
        gradient = _gradient(model, s, norm_s, qs)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            objective = _objective(model, s, norm_s, qs)
            gradient = _gradient(model, s, norm_s, qs)
        if not objective > -math.inf:  # inf, as where only ||s||**3 overflows, stays
            raise ConvergenceError(f"m(s) leaves double range at lam = {lam!r}: {objective!r}")
    gradient.setflags(write=False)
    return cls(s=s, lam=lam, objective=objective, residual=ref_safe_norm(gradient),
               gradient=gradient)


def ref_certificate(model, point, tol_grad, tol_psd, gate=False):
    residual = point.residual
    stationary = residual <= tol_grad
    if gate and not stationary:
        raise NotStationary(f"residual {residual!r} exceeds {tol_grad!r}")
    psd_margin = float(model.eig.values[0] + point.lam)
    return GlobalCertificate(
        psd_margin=psd_margin,
        residual=residual,
        is_global=stationary and (psd_margin >= -tol_psd),
        tol_grad=tol_grad,
        tol_psd=tol_psd,
    )


def ref_newton_root(sp, end, far):
    side = 1.0 if far > end else -1.0
    beta = sp.coupled_beta
    poles = sp.coupled_poles
    pole = end
    if side > 0.0:
        # A cut is the lowest of the poles merged into it; start above all.
        top = end + _POLE_MERGE
        pole = max([end] + [p for p in poles.tolist() if p <= top and p < far])
    shift = pole - poles
    width = side * (far - pole)
    j = int(abs(shift).argmin())
    w = abs(float(beta[j]))
    P = abs(float(shift[j])) + pole
    t_max = 2.0 * sp.sigma * w / (P + math.sqrt(P * P + 4.0 * sp.sigma * w))
    t = side * 0.5 * min(t_max, width)
    if t == 0.0:
        # t_max underflowed (P * P overflows once P exceeds about 1e154):
        # lam would sit on the pole, where s(lam) is undefined.
        raise ConvergenceError(f"secular Newton start left double range at lam = {pole!r}")
    try:
        for _ in range(_NEWTON_MAX_STEPS):
            d = shift + t
            a = beta / d
            inv_norm = 1.0 / math.sqrt(a.dot(a))
            lam = pole + t
            phi = inv_norm - sp.sigma / lam
            if phi >= 0.0:
                break
            dphi = inv_norm**3 * float(np.add.reduce(a * a / d)) + sp.sigma / lam**2
            if side * dphi <= 0.0:
                return None
            step = -phi / dphi
            if side * (t + step) >= width:
                return None
            t += step
            if abs(step) <= _NEWTON_STEP_RTOL * abs(t):
                break
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        raise ConvergenceError(
            f"secular Newton iteration left double range near lam = {pole + t!r}"
        ) from None
    return LambdaRoot(lam=pole + t, pole=pole, offset=t)


# Reference copies of the secular record's bookkeeping as it was written
# before one row per subinterval held it: the pole-merge walk that built
# ``_subintervals``, ``_starts`` and ``_end_loads``, and ``enumerate_lambda``
# and ``_boundary_points`` with the early exits they kept.  The bodies are
# verbatim; the search looks its start up in ``_starts``, as it did, and
# runs the package's Newton iteration from there.

class RefSecularWalk:
    """The walk's three fields over the built record ``sp``, with the fields it reads."""

    def __init__(self, sp):
        self.record = sp
        self.sigma = sp.sigma
        self.any_coupled = sp.any_coupled
        self.all_coupled = sp.all_coupled
        self.coupled = sp.coupled
        self.eig = sp.eig
        self.top_root = sp.top_root
        kept = []
        for p, b in sorted(zip(sp.coupled_poles.tolist(), sp.coupled_beta.tolist())):
            if not kept or p - kept[-1][0] > _POLE_MERGE:
                kept.append([p, abs(b), p])
            else:
                kept[-1][2] = p
        positive = [pole for pole in kept if pole[0] > 0.0]
        cuts = [0.0] + [p for p, _, _ in positive]
        self._subintervals = list(zip(cuts, cuts[1:] + [math.inf]))
        # A search up from a cut starts above every pole merged into it;
        # from 0, above 0 and those merged into the last pole at or below 0.
        start = max([0.0] + [top for p, _, top in kept if p <= 0.0][-1:])
        self._starts = dict(zip(cuts, [start] + [top for _, _, top in positive]))
        # Each subinterval's loads at its ends; 0 at lam = 0 and at inf.
        cut_loads = [0.0] + [w for _, w, _ in positive]
        self._end_loads = list(zip(cut_loads, cut_loads[1:] + [0.0]))


def _ref_cut_newton_root(sp, end, far):
    side = 1.0 if far > end else -1.0
    pole = sp._starts[end] if side > 0.0 else end
    return _newton_root(sp.record, pole, far)


def ref_enumerate_lambda(sp):
    """``enumerate_lambda`` over a ``RefSecularWalk``."""
    if not sp.any_coupled:
        return []
    roots = []
    for (lo, hi), (w_lo, w_hi) in zip(sp._subintervals, sp._end_loads):
        if hi == math.inf:
            left = sp.top_root
        elif _rootless(sp.sigma, lo, hi, w_lo, w_hi):
            continue
        else:
            left = _ref_cut_newton_root(sp, lo, hi)
        if left is None:
            continue
        roots.append(left)
        if hi < math.inf:
            right = _ref_cut_newton_root(sp, hi, lo)
            if right is not None and right.lam > left.lam:
                roots.append(right)
    return roots


def ref_boundary_points(sp):
    """``_boundary_points`` over a ``RefSecularWalk``."""
    if sp.all_coupled:
        return []
    vals = sp.eig.values
    # A coupled mode lies in its own multiplier's cluster, so only the
    # uncoupled negative eigenvalues can carry a boundary point.
    if not np.count_nonzero((vals < 0.0) & ~sp.coupled):
        return []
    out = []
    for mu in _distinct(vals[vals < 0.0].tolist()):
        lam = -mu
        if np.count_nonzero(sp.coupled & (abs(vals + lam) <= SINGULAR_MODE_TOL)):
            continue
        try:
            base, free = _boundary_parts(sp.record, lam)
        except NormMismatch:
            continue
        out += [base + free, base - free]
    return out


# Reference copies of the tolerance formulas as each call site wrote them
# before the tolerance table of ``model`` held them; tests hold the table to
# them bit for bit.
REF_SINGULAR_MODE_TOL = 1e-12
REF_POLE_MERGE = 1e-10


def ref_default_tol_grad(m):
    return 1e-8 * (1.0 + m.norm_c)


def ref_default_tol_psd(m):
    return 1e-8 * (1.0 + m.Q.max_abs)


def ref_pole_tol(m):
    return 1e-10 * (1.0 + m.norm_c)


def ref_zero_tol(m):
    return 1e-10 * max(1.0, abs(m.eig.mu_1) / m.sigma)


def ref_eps_inner(m):
    return max(min(0.01, 0.1 * m.norm_c) * m.norm_c, 1e-12)


def ref_boundary_slack(radius):
    return 1e-8 * (1.0 + radius)


def ref_adaptive_eps_curv(eps_grad, s_bar):
    return min(10.0 * eps_grad / max(ref_norm(s_bar), 1e-8), 1e-6)
