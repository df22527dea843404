"""Secular-equation analysis of the cubic model.

Stationary points s with multiplier lam = sigma*||s|| correspond to
roots lam > 0 of the secular equation ||s(lam)|| = lam/sigma, where
``s(lam)`` has eigenbasis coefficients ``beta_i / (mu_i + lam)`` and
``beta = -V^T c``; equivalently g(lam) = 1/sigma^2 with
``g(lam) = (1/lam^2) * sum_i beta_i^2 / (mu_i + lam)^2``.

Every root is found by one monotone Newton iteration on
``phi(lam) = 1/||s(lam)|| - sigma/lam``, run from each end of every
subinterval cut by the positive poles and written in the offset from
the end it starts at, so that roots next to a pole keep their digits.
phi is concave on each subinterval, so each bounded subinterval holds at
most two roots and the unbounded rightmost one exactly one (when c is
not zero); the number of distinct multipliers is at most 2(k+1) with k
the number of distinct negative eigenvalues of Q.  The global minimizer
carries the largest root when that root exceeds ``max(0, -mu_1)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from cubicmin import model as model_mod
from cubicmin.exceptions import (
    CertificateFailure,
    NormMismatch,
    PoleEvaluation,
)
from cubicmin.model import GlobalCertificate, StationaryPoint

# |mu_i + lam| at or below this makes mode i singular at lam.
SINGULAR_MODE_TOL = 1e-12
_POLE_OFFSET_REL = 1e-9
# Coupled poles closer than this to the pole below them are merged into it.
_POLE_MERGE = 1e-10
_EPS = float(np.finfo(float).eps)
# Newton stops when its step falls below this share of the offset |t|.
_NEWTON_STEP_RTOL = 64.0 * _EPS
_NEWTON_MAX_STEPS = 100


class SecularProblem:
    """Spectral data of the secular equation for one cubic model.

    Attributes
    ----------
    model : CubicModel the data came from.
    eig : EigenDecomposition of Q.
    beta : ndarray
        ``-V^T c``, the eigenbasis loads of the linear term.
    sigma : float
    coupled : ndarray of bool
        ``|beta_i| > pole_tol``: the modes the secular equation solves.
    poles : ndarray
        Sorted values ``-mu_i`` restricted to coupled indices
        (``|beta_i| > pole_tol``), each kept only when more than 1e-10
        above the last kept one, which stands for those merged.  Where the
        coupling vanishes g extends continuously across ``-mu_i``, so
        such points are not treated as poles.
    """

    def __init__(self, eig, beta, sigma, pole_tol, model):
        self.eig = eig
        self.beta = np.asarray(beta, dtype=float)
        self.sigma = float(sigma)
        self.pole_tol = float(pole_tol)
        self.model = model
        self.coupled = np.abs(self.beta) > self.pole_tol
        raw = sorted(-eig.values[self.coupled])
        poles = []
        for p in raw:
            if not poles or p - poles[-1] > _POLE_MERGE:
                poles.append(p)
        self.poles = np.array(poles, dtype=float)

    @classmethod
    def from_model(cls, m):
        eig = m.eig
        beta = -(eig.vectors.T @ m.c)
        pole_tol = 1e-10 * (1.0 + m.norm_c)
        return cls(eig, beta, m.sigma, pole_tol, model=m)

    def __repr__(self):
        return f"SecularProblem(n={self.eig.n}, sigma={self.sigma}, poles={self.poles!r})"


@dataclass(frozen=True)
class LambdaRoot:
    """One stationary multiplier with its host subinterval.

    ``note`` is "regular" for solutions of g(lam) = 1/sigma^2 away from
    poles, and "boundary" for degenerate multipliers sitting exactly on
    an uncoupled eigenvalue shift (hard-case stationary families).  The
    secular identity g(lam) = 1/sigma^2 holds for regular roots only.

    ``lam = pole + offset``; the point is built from the shifts
    ``(mu_i + pole) + offset``, which keep the digits of an offset far
    smaller than the pole.  By default the pole is 0 and the offset lam.
    """

    lam: float
    lo: float
    hi: float
    note: str = "regular"
    pole: float = 0.0
    offset: float = None

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", self.lam - self.pole)


@dataclass(frozen=True)
class GlobalSolution:
    """Certified global minimizer of a cubic model."""

    s_star: np.ndarray
    lambda_star: float
    objective: float
    certificate: GlobalCertificate
    hard_case: bool
    trace: list = field(default_factory=list)


def g_eval(sp, lam):
    """Evaluate the secular function ``(1/lam^2) sum beta_i^2/(mu_i+lam)^2``.

    Raises
    ------
    PoleEvaluation
        If ``lam`` is within 1e-12 of zero or of a pole.
    """
    lam = float(lam)
    if abs(lam) <= SINGULAR_MODE_TOL:
        raise PoleEvaluation(f"lambda = {lam!r} is at the lambda = 0 pole")
    if sp.poles.size and float(np.min(np.abs(sp.poles - lam))) <= SINGULAR_MODE_TOL:
        raise PoleEvaluation(f"lambda = {lam!r} is at a pole of g")
    denom = sp.eig.values + lam
    loaded = sp.beta != 0.0
    if np.any(loaded & (denom == 0.0)):
        raise PoleEvaluation(f"lambda = {lam!r} hits an eigenvalue shift exactly")
    terms = (sp.beta[loaded] / denom[loaded]) ** 2
    return float(np.sum(terms) / lam**2)


def subintervals(sp):
    """The subintervals of (0, inf) cut by the positive poles of g.

    Returns a list of ``(lo, hi)`` pairs ascending, the last with
    ``hi = math.inf``.
    """
    cuts = [0.0] + [float(p) for p in sp.poles if p > 0.0]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out.append((lo, hi))
    out.append((cuts[-1], math.inf))
    return out


def _newton_root(sp, end, far):
    """The root of phi in (end, far) nearest ``end``, as a LambdaRoot, or None.

    ``end`` and ``far`` are the ends of a subinterval of ``subintervals``
    (``far`` may be infinite).  Runs Newton on ``phi = 1/||s|| - sigma/lam``
    in the offset ``t = lam - pole`` from the pole at ``end`` (or from 0),
    through the shifts ``(mu_i + pole) + t``, which equal ``t`` exactly
    for the modes of the pole.  ``s`` holds the coupled modes, the ones
    whose poles cut the subintervals.
    """
    side = 1.0 if far > end else -1.0
    beta = sp.beta[sp.coupled]
    poles = -sp.eig.values[sp.coupled]
    pole = end
    if side > 0.0:
        # A cut is the lowest of the poles merged into it; start above all.
        merged = (poles <= end + _POLE_MERGE) & (poles < far)
        pole = float(np.max(poles, initial=end, where=merged))
    shift = pole - poles
    width = side * (far - pole)
    # Closed-form start with phi < 0: for the mode j nearest the end, of
    # coupling w = |beta_j|, 1/||s|| <= |shift_j + t|/w, and lam <= pole +
    # |t|.  So phi < 0 once (|shift_j| + |t|)(pole + |t|) < sigma*w, where
    # one of shift_j (0 at a pole) and pole (0 at the left end of the
    # axis) vanishes: |t| below the root of t^2 + P t - sigma w,
    # P = |shift_j| + pole.  Start halfway to it, or to mid-subinterval.
    j = int(np.argmin(np.abs(shift)))
    w = abs(float(beta[j]))
    P = abs(float(shift[j])) + pole
    t_max = 2.0 * sp.sigma * w / (P + math.sqrt(P * P + 4.0 * sp.sigma * w))
    t = side * 0.5 * min(t_max, width)
    # phi is concave on the subinterval: 1/||s|| is the power mean M_-2 of
    # the affine |mu_i + lam|, and -sigma/lam is concave.  So phi lies
    # below each tangent: Newton from phi < 0 never overshoots, walks
    # monotonically away from the end toward the nearest root, and proves
    # the subinterval rootless once phi' turns back toward the end or the
    # tangent's zero leaves the subinterval.
    for _ in range(_NEWTON_MAX_STEPS):
        d = shift + t
        a = beta / d
        inv_norm = 1.0 / float(np.linalg.norm(a))
        lam = pole + t
        phi = inv_norm - sp.sigma / lam
        if phi >= 0.0:
            break
        dphi = inv_norm**3 * float(np.sum(a * a / d)) + sp.sigma / lam**2
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
    return LambdaRoot(lam=pole + t, lo=min(end, far), hi=max(end, far), pole=pole, offset=t)


def enumerate_lambda(sp):
    """All roots lam > 0 of g(lam) = 1/sigma^2, ascending.

    Each subinterval is searched from its left end; when a root is found
    there and the subinterval is bounded, also from its right end.

    Returns an empty list when c = 0 (no couplings): then only s = 0 can
    be stationary, and only because the gradient at the origin is c.
    """
    if not np.any(sp.coupled):
        return []
    roots = []
    for lo, hi in subintervals(sp):
        left = _newton_root(sp, lo, hi)
        if left is None:
            continue
        roots.append(left)
        if hi < math.inf:
            right = _newton_root(sp, hi, lo)
            if right is not None and right.lam > left.lam:
                roots.append(right)
    return roots


def _mode_coefficients(sp, pole, offset=0.0):
    """Eigenbasis coefficients a with ((mu_i + pole) + offset) a_i = beta_i.

    The multiplier is ``pole + offset``.  Like the secular root finder,
    only coupled modes (``|beta_i| > pole_tol``) are solved; the rest get
    a_i = 0, which leaves a residual of at most their loads.  Also
    returns the null modes: uncoupled modes with a vanishing shift.
    """
    coupled = sp.coupled
    denom = (sp.eig.values + pole) + offset
    on_pole = coupled & (denom == 0.0)
    if np.any(on_pole):
        i = int(np.argmax(on_pole))
        raise PoleEvaluation(
            f"multiplier {pole + offset!r} sits on the coupled pole {-sp.eig.values[i]!r}"
        )
    coeff = np.zeros_like(sp.beta)
    coeff[coupled] = sp.beta[coupled] / denom[coupled]
    return coeff, ~coupled & (np.abs(denom) <= SINGULAR_MODE_TOL)


def stationary_from_lambda(sp, root):
    """Stationary point(s) carrying the multiplier of one root.

    Regular roots produce the single point ``s = V a`` with
    ``a_i = beta_i / ((mu_i + pole) + offset)``.  Boundary roots (uncoupled
    eigenvalue shifts) produce the two representatives ``V a +/- tau v``
    of ``_boundary_parts``; the full continuum they stand for shares one
    objective value.

    Raises
    ------
    NormMismatch
        If a boundary root has ``||V a|| > lam/sigma`` beyond tolerance.
    """
    m = sp.model
    if root.note != "boundary":
        coeff, _ = _mode_coefficients(sp, root.pole, root.offset)
        return [StationaryPoint.from_vector(m, sp.eig.vectors @ coeff)]
    base, free = _boundary_parts(sp, root.lam)
    return [StationaryPoint.from_vector(m, base + t) for t in (free, -free)]


def _boundary_parts(sp, lam):
    """``(V a, tau v)`` at a multiplier lam on an uncoupled eigenvalue shift.

    v is the first null mode; tau >= 0 sets ``||V a +/- tau v|| = lam/sigma``.
    Raises NormMismatch if ``||V a||`` exceeds that beyond tolerance, or
    if no mode is null at lam.
    """
    coeff, singular = _mode_coefficients(sp, lam)
    base = sp.eig.vectors @ coeff
    radius = lam / sp.sigma
    norm_base = float(np.linalg.norm(base))
    if norm_base > radius + 1e-8 * (1.0 + radius):
        raise NormMismatch(
            f"boundary multiplier {lam!r}: ||V a|| = {norm_base!r} exceeds lam/sigma = {radius!r}"
        )
    if not np.any(singular):
        raise NormMismatch(f"boundary multiplier {lam!r} has no null mode")
    tau = math.sqrt(max(0.0, radius**2 - norm_base**2))
    return base, tau * sp.eig.vectors[:, int(np.argmax(singular))]


def _boundary_roots(m, sp):
    """Degenerate multipliers lam = -mu_i: uncoupled and norm-feasible."""
    out = []
    vals = sp.eig.values
    seen = []
    for i in range(m.n):
        if vals[i] >= 0.0:
            continue
        lam = -float(vals[i])
        if any(abs(lam - s) <= SINGULAR_MODE_TOL for s in seen):
            continue
        seen.append(lam)
        cluster = np.abs(vals + lam) <= SINGULAR_MODE_TOL
        if np.any(cluster & sp.coupled):
            continue
        coeff, _ = _mode_coefficients(sp, lam)
        if float(np.linalg.norm(coeff)) > lam / sp.sigma + 1e-8 * (1.0 + lam / sp.sigma):
            continue
        spread = _POLE_OFFSET_REL * (1.0 + lam)
        out.append(LambdaRoot(lam=lam, lo=lam - spread, hi=lam + spread, note="boundary"))
    return out


def enumerate_stationary(m):
    """Every stationary point of the model, ascending in multiplier.

    The union of: the origin when c = 0 (no mode coupled); one point per
    regular secular root; two representatives per degenerate boundary
    multiplier.  The number of distinct multipliers is bounded by
    ``count_bound(m)``.
    """
    points = []
    sp = SecularProblem.from_model(m)
    if not np.any(sp.coupled):
        points.append(StationaryPoint.from_vector(m, np.zeros(m.n)))
    for root in enumerate_lambda(sp):
        points.extend(stationary_from_lambda(sp, root))
    for root in _boundary_roots(m, sp):
        points.extend(stationary_from_lambda(sp, root))
    points.sort(key=lambda p: p.lam)
    return points


def count_bound(m):
    """The bound 2(k+1) on distinct stationary multipliers.

    k counts distinct negative eigenvalues of Q, with distinctness
    tolerance ``1e-9 * (1 + |mu_1|)``.
    """
    vals = m.eig.values
    tol = 1e-9 * (1.0 + abs(float(vals[0])))
    k = 0
    last = None
    for v in vals:
        if v >= 0.0:
            continue
        if last is None or abs(v - last) > tol:
            k += 1
        last = float(v)
    return 2 * (k + 1)


def global_minimize(m):
    """Certified global minimization of the cubic model.

    Finds the multiplier ``lam* >= max(0, -mu_1)`` with
    ``||s(lam*)|| = lam*/sigma``.  When the largest secular root of
    ``enumerate_lambda`` exceeds ``max(0, -mu_1)`` it is lam*, and s* is
    built from its pole and offset; otherwise the model is in the hard
    case ``lam* = max(0, -mu_1)``, and s* is the boundary point of
    ``_boundary_parts`` there (s* = 0 when also lam* = 0 and c = 0).  The
    two-part certificate (stationarity plus positive semidefiniteness of
    ``Q + lam* I``) is verified before returning.

    Raises
    ------
    NormMismatch
        If the hard case is infeasible.
    CertificateFailure
        If the computed point fails its own certificate.  The message
        states the double-precision floor ``eps*(||c|| + max|Q|*||s*||)``
        of the residual; a floor above the gate means double precision
        cannot meet it, a floor below it points at the solver.
    """
    trace = []
    sp = SecularProblem.from_model(m)
    lam_star = max(0.0, -float(m.eig.values[0]))
    roots = enumerate_lambda(sp)
    if roots and roots[-1].offset > lam_star - roots[-1].pole:
        root = roots[-1]
        trace.append(
            f"largest secular root lam = {root.lam!r} "
            f"(pole {root.pole!r} + offset {root.offset!r})"
        )
        coeff, _ = _mode_coefficients(sp, root.pole, root.offset)
        return _finish_global(m, sp.eig.vectors @ coeff, False, trace)
    if lam_star == 0.0 and not np.any(sp.coupled):
        # c = 0 up to pole_tol; s* = 0 leaves the residual ||c||.
        trace.append("c = 0 and Q is positive semidefinite: s* = 0")
        return _finish_global(m, np.zeros(m.n), False, trace)
    # Hard case: no root beyond max(0, -mu_1); the minimizer sits there.
    base, free = _boundary_parts(sp, lam_star)
    trace.append(f"hard case: lam* = max(0, -mu_1) = {lam_star!r}")
    return _finish_global(m, base + free, True, trace)


def _finish_global(m, s_star, hard, trace):
    cert = model_mod.is_global(m, s_star)
    if not cert.is_global:
        floor = _EPS * (m.norm_c + m.Q.max_abs * float(np.linalg.norm(s_star)))
        raise CertificateFailure(
            f"certificate failed: residual = {cert.residual!r} (tol {cert.tol_grad!r}, "
            f"double-precision floor {floor!r}), "
            f"psd margin = {cert.psd_margin!r} (tol {cert.tol_psd!r})"
        )
    s_star = np.array(s_star)
    s_star.setflags(write=False)
    return GlobalSolution(
        s_star=s_star,
        lambda_star=m.sigma * float(np.linalg.norm(s_star)),
        objective=model_mod.eval_model(m, s_star),
        certificate=cert,
        hard_case=hard,
        trace=trace,
    )
