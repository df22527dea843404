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
``enumerate_stationary`` searches every subinterval; ``global_minimize``
searches only the unbounded one, which holds the largest root whenever
c is not zero.

One constructor builds a model's whole secular record (``beta``, the
coupling mask, the poles and the subintervals they cut, the largest root
``top_root`` and its StationaryPoint ``top_point``), cached on the model,
so both entry points share one search for the largest root and one
evaluation of its point: when that point is the global minimizer,
``enumerate_stationary`` returns the very object that
``global_minimize`` certifies, in either call order.
"""

import math
from dataclasses import dataclass

import numpy as np

from cubicmin import linalg
from cubicmin import model as model_mod
from cubicmin.exceptions import (
    CertificateFailure,
    ConvergenceError,
    NormMismatch,
    PoleEvaluation,
)
from cubicmin.model import GlobalCertificate, StationaryPoint

# |mu_i + lam| at or below this makes mode i singular at lam.
SINGULAR_MODE_TOL = 1e-12
# Coupled poles closer than this to the pole below them are merged into it.
_POLE_MERGE = 1e-10
_EPS = float(np.finfo(float).eps)
# Newton stops when its step falls below this share of the offset |t|.
_NEWTON_STEP_RTOL = 64.0 * _EPS
_NEWTON_MAX_STEPS = 100


class SecularProblem:
    """The secular record of one cubic model, built whole by the constructor.

    Every array is read-only.  ``from_model`` builds it once per model
    and caches it there; the record holds no reference to the model.

    Attributes
    ----------
    eig : EigenDecomposition of Q.
    beta : ndarray
        ``-V^T c``, the eigenbasis loads of the linear term.
    sigma : float
    coupled : ndarray of bool
        ``|beta_i| > pole_tol``: the modes the secular equation solves.
    any_coupled : bool
        ``coupled.any()``; False exactly when c = 0 up to ``pole_tol``.
    coupled_beta, coupled_poles : ndarray
        ``beta`` and ``-mu`` at the coupled modes, in eigenvalue order:
        the terms of ``||s(lam)||`` that the root finder evaluates.
    poles : ndarray
        Sorted values ``-mu_i`` restricted to coupled indices
        (``|beta_i| > pole_tol``), each kept only when more than 1e-10
        above the last kept one, which stands for those merged.  Where the
        coupling vanishes g extends continuously across ``-mu_i``, so
        such points are not treated as poles.  The positive ones cut
        ``subintervals``.
    top_root : LambdaRoot or None
        The root in the unbounded subinterval above the last cut, which
        is the largest root; None when c = 0 or no root is found.
    top_point : StationaryPoint or None
        The point of ``top_root``; None with it.
    """

    def __init__(self, m):
        eig = self.eig = m.eig
        self.beta = linalg._freeze(-(eig.vectors.T @ m.c))
        self.sigma = m.sigma
        self.pole_tol = 1e-10 * (1.0 + m.norm_c)
        self.coupled = linalg._freeze(np.abs(self.beta) > self.pole_tol)
        self.any_coupled = bool(self.coupled.any())
        self.coupled_beta = linalg._freeze(self.beta[self.coupled])
        self.coupled_poles = linalg._freeze(-eig.values[self.coupled])
        # Python floats sort and subtract faster than NumPy scalars, with
        # the same order (sorted is stable) and the same differences.
        poles = []
        for p in sorted(self.coupled_poles.tolist()):
            if not poles or p - poles[-1] > _POLE_MERGE:
                poles.append(p)
        self.poles = linalg._freeze(np.array(poles, dtype=float))
        cuts = [0.0] + [p for p in poles if p > 0.0]
        self._subintervals = list(zip(cuts, cuts[1:] + [math.inf]))
        self.top_root = _newton_root(self, cuts[-1], math.inf) if self.any_coupled else None
        self.top_point = None
        if self.top_root is not None:
            s = stationary_from_lambda(self, self.top_root)
            self.top_point = StationaryPoint.from_vector(m, s)

    @classmethod
    def from_model(cls, m):
        """The secular record of CubicModel ``m``, built on first use and cached on it."""
        sp = m._secular
        if sp is None:
            sp = m._secular = cls(m)
        return sp

    def __repr__(self):
        return f"SecularProblem(n={self.eig.n}, sigma={self.sigma}, poles={self.poles!r})"


@dataclass(frozen=True)
class LambdaRoot:
    """One root of the secular equation g(lam) = 1/sigma^2 in a subinterval.

    ``lam = pole + offset``, with ``pole`` the end of the subinterval
    the search started from; the point is built from the shifts
    ``(mu_i + pole) + offset``, which keep the digits of an offset far
    smaller than the pole.
    """

    lam: float
    pole: float
    offset: float


@dataclass(frozen=True)
class GlobalSolution:
    """Certified global minimizer of a cubic model.

    Built from the StationaryPoint the certificate judged: ``s_star`` is
    its read-only copy and ``objective = m(s_star)`` its objective;
    ``lambda_star = sigma*||s_star||`` (``linalg.safe_norm``).
    ``global_minimize`` and ``solve_via_escapes`` agree on the minimizer,
    but only ``global_minimize`` detects the hard case: ``hard_case`` is
    always False from ``solve_via_escapes``, whose escapes are listed in
    its ``SubproblemTrace.steps``.
    """

    s_star: np.ndarray
    lambda_star: float
    objective: float
    certificate: GlobalCertificate
    hard_case: bool


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
    ``hi = math.inf``; computed once, with the secular data.
    """
    return list(sp._subintervals)


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
    beta = sp.coupled_beta
    poles = sp.coupled_poles
    pole = end
    if side > 0.0:
        # A cut is the lowest of the poles merged into it; start above all.
        merged = (poles <= end + _POLE_MERGE) & (poles < far)
        pole = float(poles.max(initial=end, where=merged))
    shift = pole - poles
    width = side * (far - pole)
    # Closed-form start with phi < 0: for the mode j nearest the end, of
    # coupling w = |beta_j|, 1/||s|| <= |shift_j + t|/w, and lam <= pole +
    # |t|.  So phi < 0 once (|shift_j| + |t|)(pole + |t|) < sigma*w, where
    # one of shift_j (0 at a pole) and pole (0 at the left end of the
    # axis) vanishes: |t| below the root of t^2 + P t - sigma w,
    # P = |shift_j| + pole.  Start halfway to it, or to mid-subinterval.
    j = int(abs(shift).argmin())
    w = abs(float(beta[j]))
    P = abs(float(shift[j])) + pole
    t_max = 2.0 * sp.sigma * w / (P + math.sqrt(P * P + 4.0 * sp.sigma * w))
    t = side * 0.5 * min(t_max, width)
    if t == 0.0:
        # t_max underflowed (P * P overflows once P exceeds about 1e154):
        # lam would sit on the pole, where s(lam) is undefined.
        raise ConvergenceError(f"secular Newton start left double range at lam = {pole!r}")
    # phi is concave on the subinterval: 1/||s|| is the power mean M_-2 of
    # the affine |mu_i + lam|, and -sigma/lam is concave.  So phi lies
    # below each tangent: Newton from phi < 0 never overshoots, walks
    # monotonically away from the end toward the nearest root, and proves
    # the subinterval rootless once phi' turns back toward the end or the
    # tangent's zero leaves the subinterval.
    # The Python float arithmetic raises where the iteration leaves double
    # range: 1/||s||**3 overflows once ||s|| is below about 2e-103, and
    # ||s|| or lam**2 underflows to 0 further down (Q = [[1e200]], c = [1]
    # has s* = -1e-200).  The catch costs nothing per step.
    try:
        for _ in range(_NEWTON_MAX_STEPS):
            d = shift + t
            a = beta / d
            inv_norm = 1.0 / linalg.norm(a)
            lam = pole + t
            phi = inv_norm - sp.sigma / lam
            if phi >= 0.0:
                break
            dphi = inv_norm**3 * float((a * a / d).sum()) + sp.sigma / lam**2
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


def enumerate_lambda(sp):
    """All roots lam > 0 of g(lam) = 1/sigma^2, ascending.

    Each subinterval is searched from its left end; when a root is found
    there and the subinterval is bounded, also from its right end.  The
    unbounded subinterval's root is ``sp.top_root``, the one
    ``global_minimize`` reads.

    Returns an empty list when c = 0 (no couplings): then only s = 0 can
    be stationary, and only because the gradient at the origin is c.
    """
    if not sp.any_coupled:
        return []
    roots = []
    for lo, hi in sp._subintervals:
        left = sp.top_root if hi == math.inf else _newton_root(sp, lo, hi)
        if left is None:
            continue
        roots.append(left)
        if hi < math.inf:
            right = _newton_root(sp, hi, lo)
            if right is not None and right.lam > left.lam:
                roots.append(right)
    return roots


def _coefficients(sp, pole, offset):
    """Eigenbasis coefficients a with ((mu_i + pole) + offset) a_i = beta_i, and the shifts.

    The multiplier is ``pole + offset``.  Like the secular root finder,
    only coupled modes (``|beta_i| > pole_tol``) are solved; the rest get
    a_i = 0, which leaves a residual of at most their loads.  Returns
    ``a`` and the shifts ``(mu_i + pole) + offset`` it divides by.
    """
    coupled = sp.coupled
    denom = (sp.eig.values + pole) + offset
    on_pole = coupled & (denom == 0.0)
    if on_pole.any():
        i = int(np.argmax(on_pole))
        raise PoleEvaluation(
            f"multiplier {pole + offset!r} sits on the coupled pole {-sp.eig.values[i]!r}"
        )
    coeff = np.zeros(sp.beta.shape)
    coeff[coupled] = sp.coupled_beta / denom[coupled]
    return coeff, denom


def stationary_from_lambda(sp, root):
    """The stationary point ``s = V a`` carrying the multiplier of one root.

    ``a_i = beta_i / ((mu_i + pole) + offset)`` on the coupled modes and
    0 on the rest, with ``pole`` and ``offset`` those of the LambdaRoot.
    Returns the vector s.
    """
    coeff, _ = _coefficients(sp, root.pole, root.offset)
    return sp.eig.vectors @ coeff


def _boundary_parts(sp, lam):
    """``(V a, tau v)`` at a multiplier lam on an uncoupled eigenvalue shift.

    a is ``_coefficients`` at lam; v is the first null mode, an uncoupled
    mode with a vanishing shift; tau >= 0 sets ``||V a +/- tau v|| =
    lam/sigma``.  Raises NormMismatch if ``||V a||`` exceeds that beyond
    tolerance, or if no mode is null at lam, and ConvergenceError if the
    square of lam/sigma leaves double range.
    """
    coeff, denom = _coefficients(sp, lam, 0.0)
    singular = ~sp.coupled & (np.abs(denom) <= SINGULAR_MODE_TOL)
    base = sp.eig.vectors @ coeff
    radius = lam / sp.sigma
    norm_base = linalg.norm(base)
    if norm_base > radius + 1e-8 * (1.0 + radius):
        raise NormMismatch(
            f"boundary multiplier {lam!r}: ||V a|| = {norm_base!r} exceeds lam/sigma = {radius!r}"
        )
    if not singular.any():
        raise NormMismatch(f"boundary multiplier {lam!r} has no null mode")
    try:
        tau = math.sqrt(max(0.0, radius**2 - norm_base**2))
    except OverflowError:
        raise ConvergenceError(
            f"boundary multiplier {lam!r} left double range: (lam/sigma)**2 overflows "
            f"at lam/sigma = {radius!r}"
        ) from None
    return base, tau * sp.eig.vectors[:, int(np.argmax(singular))]


def _boundary_points(sp):
    """The vectors of the degenerate multipliers lam = -mu_i > 0.

    One multiplier per distinct negative eigenvalue whose modes are all
    uncoupled, giving the two representatives ``V a +/- tau v`` of
    ``_boundary_parts``; the continuum they stand for shares one
    objective value.  A multiplier with ``||V a|| > lam/sigma`` has no
    point and is skipped.
    """
    vals = sp.eig.values
    # A coupled mode lies in its own multiplier's cluster, so only the
    # uncoupled negative eigenvalues can carry a boundary point.
    if not ((vals < 0.0) & ~sp.coupled).any():
        return []
    out = []
    for mu in _distinct_negative(vals):
        lam = -mu
        if (sp.coupled & (abs(vals + lam) <= SINGULAR_MODE_TOL)).any():
            continue
        try:
            base, free = _boundary_parts(sp, lam)
        except NormMismatch:
            continue
        out += [base + free, base - free]
    return out


def enumerate_stationary(m):
    """Every stationary point of the model, ascending in multiplier.

    The union of: the origin when c = 0 (no mode coupled); one point per
    secular root; two representatives per feasible boundary multiplier.
    The number of distinct multipliers is bounded by ``count_bound(m)``.
    The largest root's point is ``SecularProblem.top_point``, the same
    object ``global_minimize`` certifies when it is s*.
    """
    sp = SecularProblem.from_model(m)
    points = [] if sp.any_coupled else [StationaryPoint.from_vector(m, np.zeros(m.n))]
    for root in enumerate_lambda(sp):
        if root is sp.top_root:
            points.append(sp.top_point)
        else:
            points.append(StationaryPoint.from_vector(m, stationary_from_lambda(sp, root)))
    points += [StationaryPoint.from_vector(m, s) for s in _boundary_points(sp)]
    points.sort(key=lambda p: p.lam)
    return points


def _distinct_negative(vals):
    """The negative eigenvalues ascending, each more than SINGULAR_MODE_TOL above the last kept."""
    kept = []
    for mu in vals[vals < 0.0].tolist():
        if not kept or mu - kept[-1] > SINGULAR_MODE_TOL:
            kept.append(mu)
    return kept


def count_bound(m):
    """The bound 2(k+1) on distinct stationary multipliers.

    k counts the negative eigenvalues of Q kept by ``_distinct_negative``:
    distinct to ``SINGULAR_MODE_TOL``, the walk ``_boundary_points``
    makes.  Each positive pole's anchor and each boundary multiplier lies
    in its own kept entry, so the bound holds for what
    ``enumerate_stationary`` returns.
    """
    return 2 * (len(_distinct_negative(m.eig.values)) + 1)


def global_minimize(m):
    """Certified global minimization of the cubic model.

    Finds the multiplier ``lam* >= max(0, -mu_1)`` with
    ``||s(lam*)|| = lam*/sigma``.  When c is not zero the largest
    secular root is the only one in the unbounded subinterval above the
    largest pole, and every pole is at most ``max(0, -mu_1)``, so that
    subinterval's root ``SecularProblem.top_root`` (shared with
    ``enumerate_lambda``) is the only root that can be lam*.  When it
    exceeds ``max(0, -mu_1)`` it is lam*, and s* is its point
    ``top_point`` (shared with ``enumerate_stationary``); otherwise the
    model is in the hard case ``lam* = max(0, -mu_1)``, and s* is the
    boundary point of ``_boundary_parts`` there (s* = 0 when also lam* = 0
    and c = 0).  The two-part certificate (stationarity plus positive
    semidefiniteness of ``Q + lam* I``) is verified before returning.

    Raises
    ------
    NormMismatch
        If the hard case is infeasible.
    ConvergenceError
        If the secular search, the hard case's boundary radius or m(s) at
        the top root leaves double range.
    CertificateFailure
        If the computed point fails its own certificate.  The message
        states the double-precision floor ``eps*(||c|| + max|Q|*||s*||)``
        of the residual; a floor above the gate means double precision
        cannot meet it, a floor below it points at the solver.
    """
    sp = SecularProblem.from_model(m)
    lam_star = max(0.0, -float(m.eig.values[0]))
    root = sp.top_root
    if root is not None and root.offset > lam_star - root.pole:
        return _finish_global(m, sp.top_point, False)
    if lam_star == 0.0 and not sp.any_coupled:
        # c = 0 up to pole_tol; s* = 0 leaves the residual ||c||.
        return _finish_global(m, StationaryPoint.from_vector(m, np.zeros(m.n)), False)
    # Hard case: no root beyond max(0, -mu_1); the minimizer sits there.
    base, free = _boundary_parts(sp, lam_star)
    return _finish_global(m, StationaryPoint.from_vector(m, base + free), True)


def _finish_global(m, point, hard):
    cert = model_mod._certificate(m, point, m.default_tol_grad(), m.default_tol_psd())
    if not cert.is_global:
        floor = _EPS * (m.norm_c + m.Q.max_abs * linalg.norm(point.s))
        raise CertificateFailure(
            f"certificate failed: residual = {cert.residual!r} (tol {cert.tol_grad!r}, "
            f"double-precision floor {floor!r}), "
            f"psd margin = {cert.psd_margin!r} (tol {cert.tol_psd!r})"
        )
    return _global_solution(m, point, cert, hard)


def _global_solution(m, point, cert, hard):
    """The GlobalSolution at the StationaryPoint ``point``, certified by ``cert``."""
    return GlobalSolution(
        s_star=point.s,
        lambda_star=m.sigma * linalg.safe_norm(point.s),
        objective=point.objective,
        certificate=cert,
        hard_case=hard,
    )
