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
not zero); the number of distinct multipliers is at most 2k+1 with k
the number of distinct negative eigenvalues of Q (``count_bound``).
``global_minimize`` searches only the unbounded subinterval, which holds
the largest root whenever c is not zero.  ``enumerate_stationary``
searches every subinterval except the bounded ones that a closed-form
bound proves empty: the modes at a subinterval's two poles alone bound
``1/||s||`` from above, and where that bound stays below ``sigma/lam``
phi is negative throughout (the interlacing argument for secular
equations: Golub, SIAM Rev. 15, 1973; R.-C. Li, LAPACK Working Note 89,
1993).  On large models nearly every bounded subinterval is empty.

One constructor builds a model's secular record (``beta``, the coupling
mask, the poles, one row per subinterval they cut, the largest root
``top_root`` and its point ``top_point``, or the origin's point when c = 0),
cached on the model, and the record builds each boundary pair on first
use.  So each point that no bounded root carries is built and evaluated
once, by the record, and ``enumerate_stationary`` lists the very object
that ``global_minimize`` certifies, in either call order.  In the hard
case that is the boundary representative of lower m (More and Sorensen,
SIAM J. Sci. Stat. Comput. 4(3), 1983), ``base + free`` on a tie.
"""

import math
from operator import mul, truediv
from typing import NamedTuple

import numpy as np

from cubicmin import linalg
from cubicmin import model as model_mod
from cubicmin.exceptions import (
    CertificateFailure,
    ConvergenceError,
    NormMismatch,
    PoleEvaluation,
)
from cubicmin.model import _POLE_MERGE, SINGULAR_MODE_TOL, GlobalCertificate, StationaryPoint

_EPS = float(np.finfo(float).eps)
# Newton stops when its step falls below this share of the offset |t|.
_NEWTON_STEP_RTOL = 64.0 * _EPS
_NEWTON_MAX_STEPS = 100
# A subinterval is proven rootless only with this relative margin.
_EMPTY_MARGIN = 1e-9
_TINY = float(np.finfo(float).tiny)


class SecularProblem:
    """The secular record of one cubic model; the constructor builds all but the boundary pairs.

    Every array is read-only.  ``from_model`` builds it once per model
    and caches it there; the record holds no reference to the model.

    Attributes
    ----------
    eig : EigenDecomposition of Q.
    beta : ndarray
        ``-V^T c``, the eigenbasis loads of the linear term.
    sigma : float
    coupled : ndarray of bool
        ``|beta_i| > pole_tol = m.coupling_tol()``: the modes solved for.
    any_coupled : bool
        Some mode coupled; False exactly when c = 0 up to ``pole_tol``.
    all_coupled : bool
        Every mode coupled, as when c loads each eigenvector of Q.  Then
        ``coupled_beta`` is ``beta`` itself, ``_coefficients`` divides
        without the mask and the boundary walk has nothing to look
        for: the values of the masked path, in fewer NumPy calls.
    coupled_beta, coupled_poles : ndarray
        ``beta`` and ``-mu`` at the coupled modes, in eigenvalue order:
        the terms of ``||s(lam)||`` that the root finder evaluates.
    poles : ndarray
        Sorted values ``-mu_i`` restricted to coupled indices, each
        kept only when more than ``_POLE_MERGE`` above the last kept
        one, which stands for those merged.  Where the coupling
        vanishes g extends continuously across ``-mu_i``, so such points
        are not treated as poles.  The positive ones cut
        ``subintervals``, one row ``(lo, hi, start, w_lo, w_hi)`` each:
        where a search up starts (``_newton_root``) and the end loads.
    top_root : LambdaRoot or None
        The root in the unbounded subinterval above the last cut, which
        is the largest root; None exactly when c = 0.  phi runs from
        below 0 to +inf there, so a root exists when c is not zero.  The
        search runs with NumPy overflow and invalid operations raising,
        and the constructor raises ConvergenceError, without a NumPy
        warning, when the iteration loses the root (as where ``||s||^2``
        would overflow).
    top_point : StationaryPoint or None
        The point of ``top_root``; None with it.

    It also builds, and evaluates once, the points no root carries: the
    origin ``_origin`` when c = 0, and each boundary pair on first use.
    The hard case certifies the one of its pair with the lower m.
    """

    def __init__(self, m):
        eig = self.eig = m.eig
        self.beta = linalg._freeze(-eig.vectors.T.dot(m.c))
        self.sigma = m.sigma
        self.pole_tol = m.coupling_tol()
        self.coupled = linalg._freeze(np.abs(self.beta) > self.pole_tol)
        n_coupled = int(np.count_nonzero(self.coupled))
        self.any_coupled = n_coupled > 0
        self.all_coupled = n_coupled == eig.n
        if self.all_coupled:
            # The same values as the masked gathers below, without them.
            self.coupled_beta = self.beta
            self.coupled_poles = linalg._freeze(-eig.values)
        else:
            self.coupled_beta = linalg._freeze(self.beta[self.coupled])
            self.coupled_poles = linalg._freeze(-eig.values[self.coupled])
        # Python floats sort and subtract faster than NumPy scalars, with
        # the same order (sorted is stable) and the same differences.  Each
        # kept pole also keeps the load |beta_j| of one mode at exactly its
        # value, for the emptiness bound of ``enumerate_lambda``, and the
        # highest pole merged into it.
        kept = []
        for p, b in sorted(zip(self.coupled_poles.tolist(), self.coupled_beta.tolist())):
            if not kept or p - kept[-1][0] > _POLE_MERGE:
                kept.append([p, abs(b), p])
            else:
                kept[-1][2] = p
        self.poles = linalg._freeze(np.array([p for p, _, _ in kept], dtype=float))
        # One row (lo, hi, start, w_lo, w_hi) per subinterval, ascending, the
        # last with hi = inf.  A search up starts above every pole merged into
        # lo; from 0, above 0 and those merged into the last pole at or below
        # 0.  The loads at lam = 0 and at inf are 0.
        positive = [pole for pole in kept if pole[0] > 0.0]
        start = max([0.0] + [top for p, _, top in kept if p <= 0.0][-1:])
        ends = zip([(0.0, 0.0, start)] + positive, positive + [(math.inf, 0.0, 0.0)])
        self._rows = [(lo, hi, top, w_lo, w_hi) for (lo, w_lo, top), (hi, w_hi, _) in ends]
        self.top_root = self.top_point = None
        self._pairs = {}
        # c = 0 up to pole_tol: s = 0 leaves the residual ||c||.
        self._origin = None if self.any_coupled else StationaryPoint.from_vector(m, np.zeros(m.n))
        if self.any_coupled:
            lo, _, start, _, _ = self._rows[-1]
            # An overflow or invalid operation loses the root instead of warning.
            with np.errstate(over="raise", invalid="raise"):
                try:
                    self.top_root = _newton_root(self, start, math.inf)
                except FloatingPointError:
                    pass
            if self.top_root is None:
                # phi runs from below 0 to +inf there, so a root exists; the
                # iteration lost it, as where ||s||^2 overflows.
                raise ConvergenceError(
                    f"secular Newton iteration lost the largest root: none found above"
                    f" lam = {lo!r}, though c is not zero"
                )
            s = stationary_from_lambda(self, self.top_root)
            self.top_point = StationaryPoint.from_vector(m, s)

    @classmethod
    def from_model(cls, m):
        """The secular record of CubicModel ``m``, built on first use and cached on it.

        Threads that first use one model together may each build a
        record, but every one of them returns the first record stored.
        """
        sp = m._secular
        if sp is None:
            # One list operation: threads that race here each append a
            # record, and all of them read the first one appended.
            m._secular_built.append(cls(m))
            sp = m._secular = m._secular_built[0]
        return sp

    def _boundary_pair(self, m, lam):
        """``_boundary_parts`` at lam as the points ``(base + free, base - free)``, kept."""
        pair = self._pairs.get(lam)
        if pair is None:
            base, free = _boundary_parts(self, lam)
            # The first pair kept is every caller's, also across threads.
            pair = self._pairs.setdefault(lam, (StationaryPoint.from_vector(m, base + free),
                                                StationaryPoint.from_vector(m, base - free)))
        return pair

    def _boundary_points(self, m):
        """Both points of each feasible degenerate multiplier lam = -mu_i > 0.

        One multiplier per distinct negative eigenvalue whose modes are all
        uncoupled; one with ``||V a|| > lam/sigma`` has no point and is
        skipped.  The continuum a pair stands for shares one objective value.
        """
        if self.all_coupled:
            return []
        vals = self.eig.values
        out = []
        for mu in _distinct_negative(vals):
            lam = -mu
            if np.count_nonzero(self.coupled & (abs(vals + lam) <= SINGULAR_MODE_TOL)):
                continue
            try:
                out += self._boundary_pair(m, lam)
            except NormMismatch:
                continue
        return out

    def __repr__(self):
        return f"SecularProblem(n={self.eig.n}, sigma={self.sigma}, poles={self.poles!r})"


class LambdaRoot(NamedTuple):
    """One root of the secular equation g(lam) = 1/sigma^2 in a subinterval.

    ``lam = pole + offset``, with ``pole`` the end of the subinterval
    the search started from; the point is built from the shifts
    ``(mu_i + pole) + offset``, which keep the digits of an offset far
    smaller than the pole.
    """

    lam: float
    pole: float
    offset: float


class GlobalSolution(NamedTuple):
    """Certified global minimizer of a cubic model.

    Built from the StationaryPoint the certificate judged: ``s_star`` is
    its read-only copy, ``objective = m(s_star)`` its objective and
    ``lambda_star = sigma*||s_star||`` its ``lam``.
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
        If ``lam`` is within ``SINGULAR_MODE_TOL`` of zero or of a pole.
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
    ``hi = math.inf``: the ends of the rows of the secular record.
    """
    return [(lo, hi) for lo, hi, _, _, _ in sp._rows]


def _newton_root(sp, pole, far):
    """The root of phi between ``pole`` and ``far`` nearest ``pole``, as a LambdaRoot, or None.

    ``pole`` is where a search of one row of the secular record starts:
    the row's ``start`` searching up, toward ``far = hi`` (which may be
    infinite), and its ``hi`` searching down, toward ``far = lo``.  Runs
    Newton on ``phi = 1/||s|| - sigma/lam`` in the offset ``t = lam -
    pole``, through the shifts ``(mu_i + pole) + t``, which equal ``t``
    exactly for the modes of the pole.  ``s`` holds the coupled modes,
    the ones whose poles cut the subintervals.

    NumPy overflow, invalid operations and division by zero follow the
    caller's error state; ``SecularProblem`` searches the unbounded
    subinterval with overflow and invalid raising and reads the
    FloatingPointError as a lost root.  Underflow does not: below
    ``linalg._PAIRWISE_BLOCK`` coupled modes the terms of phi' are summed
    in Python floats, which underflow to 0 silently.
    """
    side = 1.0 if far > pole else -1.0
    beta = sp.coupled_beta
    poles = sp.coupled_poles
    sigma = sp.sigma
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
    t_max = 2.0 * sigma * w / (P + math.sqrt(P * P + 4.0 * sigma * w))
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
    # has s* = -1e-200).  The catch costs nothing per step.  The loop's
    # functions and constants are locals, which it reads faster.
    # Fewer than linalg._PAIRWISE_BLOCK coupled modes sum the terms of phi'
    # in Python floats, with the bits of NumPy's sum.
    add_reduce, sqrt, rtol = np.add.reduce, math.sqrt, _NEWTON_STEP_RTOL
    short = beta.size < linalg._PAIRWISE_BLOCK
    try:
        for _ in range(_NEWTON_MAX_STEPS):
            d = shift + t
            a = beta / d
            inv_norm = 1.0 / sqrt(a.dot(a))
            lam = pole + t
            phi = inv_norm - sigma / lam
            if phi >= 0.0:
                break
            if short:
                # sum(a_i * a_i / d_i), in add.reduce's order.
                al = a.tolist()
                try:
                    a2d = sum(map(truediv, map(mul, al, al), d.tolist()), 0.0)
                except ZeroDivisionError:
                    a2d = math.nan
            # NumPy takes a zero shift or a sum that is not finite, so its
            # errors and warnings stay as they are.
            if not short or a2d - a2d != 0.0:
                a2d = float(add_reduce(a * a / d))
            dphi = inv_norm**3 * a2d + sigma / lam**2
            if side * dphi <= 0.0:
                return None
            step = -phi / dphi
            if side * (t + step) >= width:
                return None
            t += step
            if abs(step) <= rtol * abs(t):
                break
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        raise ConvergenceError(
            f"secular Newton iteration left double range near lam = {pole + t!r}"
        ) from None
    return LambdaRoot(pole + t, pole, t)


def _rootless(sigma, lo, hi, w_lo, w_hi):
    """True when a closed-form bound proves phi < 0 on all of (lo, hi).

    ``w_lo`` and ``w_hi`` are the loads |beta_j| of one coupled mode at
    each end's pole (``w_lo`` unread at ``lo = 0``); the two terms give
    ``||s||^2 >= w_lo^2/(lam-lo)^2 + w_hi^2/(hi-lam)^2``.  Inside the axis
    (``lo > 0``) that caps ``1/||s||`` at ``(hi-lo)/(w_lo^(2/3) +
    w_hi^(2/3))^(3/2)``, and ``sigma/lam >= sigma/hi``.  On the first
    subinterval ``phi <= (hi-lam)/w_hi - sigma/lam``, whose maximum over
    lam > 0 is ``(hi - 2r)/w_hi`` at ``r = sqrt(sigma*w_hi)``.  Each test
    keeps a relative margin of ``_EMPTY_MARGIN``, far above the rounding
    of phi, and a bound that over- or underflows proves nothing.
    """
    if lo == 0.0:
        r2 = sigma * w_hi
        return _TINY < r2 < math.inf and hi < 2.0 * (1.0 - _EMPTY_MARGIN) * math.sqrt(r2)
    p = w_lo ** (2.0 / 3.0) + w_hi ** (2.0 / 3.0)
    cap = (hi - lo) / (p * math.sqrt(p))
    floor = sigma / hi
    return _TINY < cap < (1.0 - _EMPTY_MARGIN) * floor < math.inf


def enumerate_lambda(sp):
    """All roots lam > 0 of g(lam) = 1/sigma^2, ascending.

    A bounded row of the secular record that ``_rootless`` proves empty,
    from its end loads, is not searched; every other one is searched up
    from its ``start`` and, when a root is found there, also down from
    its ``hi``.  The unbounded row's root is ``sp.top_root``, the one
    ``global_minimize`` reads.

    Returns an empty list when c = 0 (the one row (0, inf), no
    ``top_root``): then only s = 0 can be stationary, and only because
    the gradient at the origin is c.
    """
    roots = []
    for lo, hi, start, w_lo, w_hi in sp._rows[:-1]:
        if _rootless(sp.sigma, lo, hi, w_lo, w_hi):
            continue
        left = _newton_root(sp, start, hi)
        if left is None:
            continue
        roots.append(left)
        right = _newton_root(sp, hi, lo)
        if right is not None and right.lam > left.lam:
            roots.append(right)
    if sp.top_root is not None:
        roots.append(sp.top_root)
    return roots


def _coefficients(sp, pole, offset):
    """Eigenbasis coefficients a with ((mu_i + pole) + offset) a_i = beta_i, and the shifts.

    The multiplier is ``pole + offset``.  Like the secular root finder,
    only coupled modes (``|beta_i| > pole_tol``) are solved; the rest get
    a_i = 0, which leaves a residual of at most their loads.  Returns
    ``a`` and the shifts ``(mu_i + pole) + offset`` it divides by.

    When every mode is coupled and no shift is zero, ``a = beta / shifts``
    in one division, without the mask: the same bits.  A zero shift takes
    the masked path, which raises PoleEvaluation.
    """
    denom = (sp.eig.values + pole) + offset
    if sp.all_coupled and np.count_nonzero(denom) == sp.eig.n:
        return sp.beta / denom, denom
    coupled = sp.coupled
    on_pole = coupled & (denom == 0.0)
    if np.count_nonzero(on_pole):
        i = int(np.argmax(on_pole))
        raise PoleEvaluation(
            f"multiplier {pole + offset!r} sits on the coupled pole {float(-sp.eig.values[i])!r}"
        )
    coeff = np.divide(sp.beta, denom, out=np.zeros(sp.beta.shape), where=coupled)
    return coeff, denom


def stationary_from_lambda(sp, root):
    """The stationary point ``s = V a`` carrying the multiplier of one root.

    ``a_i = beta_i / ((mu_i + pole) + offset)`` on the coupled modes and
    0 on the rest, with ``pole`` and ``offset`` those of the LambdaRoot.
    Returns the vector s.
    """
    coeff, _ = _coefficients(sp, root.pole, root.offset)
    return sp.eig.vectors.dot(coeff)


def _boundary_parts(sp, lam):
    """``(V a, tau v)`` at a multiplier lam on an uncoupled eigenvalue shift.

    a is ``_coefficients`` at lam; v is the first null mode (uncoupled,
    with a vanishing shift), or with several the unit vector along their
    part ``sum_i beta_i v_i`` of -c, where that is nonzero.  tau >= 0 sets
    ``||V a +/- tau v|| = lam/sigma``.  Raises NormMismatch if ``||V a||``
    exceeds that by more than ``model.boundary_slack``, or if no mode is
    null at lam, and ConvergenceError if (lam/sigma)**2 leaves double range.
    """
    coeff, denom = _coefficients(sp, lam, 0.0)
    null = np.flatnonzero(~sp.coupled & (np.abs(denom) <= SINGULAR_MODE_TOL))
    base = sp.eig.vectors.dot(coeff)
    radius = lam / sp.sigma
    norm_base = linalg.norm(base)
    if norm_base > radius + model_mod.boundary_slack(radius):
        raise NormMismatch(
            f"boundary multiplier {lam!r}: ||V a|| = {norm_base!r} exceeds lam/sigma = {radius!r}"
        )
    if not null.size:
        raise NormMismatch(f"boundary multiplier {lam!r} has no null mode")
    try:
        tau = math.sqrt(max(0.0, radius**2 - norm_base**2))
    except OverflowError:
        raise ConvergenceError(
            f"boundary multiplier {lam!r} left double range: (lam/sigma)**2 overflows "
            f"at lam/sigma = {radius!r}"
        ) from None
    v = sp.eig.vectors[:, null[0]]
    if null.size > 1:
        # Along -c's part in the null space, base + free is the lower of the pair.
        w = sp.eig.vectors[:, null].dot(sp.beta[null])
        v = w / linalg.norm(w) if w.any() else v
    return base, tau * v


def enumerate_stationary(m):
    """Every stationary point of the model, ascending in multiplier.

    The union of: the origin when c = 0 (no mode coupled); one point per
    secular root; two representatives per feasible boundary multiplier.
    The number of distinct multipliers is bounded by ``count_bound(m)``.
    The origin, ``top_point`` and both boundary representatives are the
    record's own, built once, so the point ``global_minimize`` certifies
    (in the hard case the representative of lower m) is among them.
    """
    sp = SecularProblem.from_model(m)
    points = [] if sp.any_coupled else [sp._origin]
    for root in enumerate_lambda(sp):
        if root is sp.top_root:
            points.append(sp.top_point)
        else:
            points.append(StationaryPoint.from_vector(m, stationary_from_lambda(sp, root)))
    points += sp._boundary_points(m)
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
    """The bound 2(k+1) on distinct stationary multipliers; at most 2k+1 occur.

    k counts the negative eigenvalues of Q kept by ``_distinct_negative``:
    distinct to ``SINGULAR_MODE_TOL``, the walk of the record's
    ``_boundary_points``.  Each positive pole's anchor and each boundary
    multiplier lies in its own kept entry, so the bound holds for what
    ``enumerate_stationary`` returns.

    It is not sharp.  phi is concave on each subinterval, so a bounded
    subinterval holds at most two roots and the unbounded one exactly one.
    Every boundary multiplier comes from a kept entry with no coupled
    mode.  With k' positive cuts and u such entries (k' + u <= k), the
    distinct multipliers number at most 2k' + 1 + u <= 2k + 1; with c = 0
    there are no roots, and at most u + 1, the origin's 0 included.  A
    model with five negative eigenvalues, all coupled, reaches 11.  The
    value stays 2(k+1) because the escape loop's cap in
    ``solve_via_escapes`` reads it, and changing that cap is its own
    change.
    """
    return 2 * (len(_distinct_negative(m.eig.values)) + 1)


def global_minimize(m):
    """Certified global minimization of the cubic model.

    Finds the multiplier ``lam* >= max(0, -mu_1)`` with
    ``||s(lam*)|| = lam*/sigma``.  Every pole is at most ``max(0, -mu_1)``,
    so only the record's ``top_root`` (the root above the last pole) can
    exceed it; then s* is ``top_point``.  Otherwise, in the hard case
    ``lam* = max(0, -mu_1)``, s* is the one of the record's boundary pair
    ``base +/- free`` there with the lower m (``base + free`` on a tie), or
    the record's origin when lam* = 0 and c = 0: the record builds each
    once, and the enumeration lists the same object.  The certificate
    (stationarity, ``Q + lam* I`` positive semidefinite) is checked before
    returning.

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
    lam_star = max(0.0, -m.eig.mu_1)
    root = sp.top_root
    if root is not None and root.offset > lam_star - root.pole:
        return _finish_global(m, sp.top_point, False)
    if lam_star == 0.0 and not sp.any_coupled:
        return _finish_global(m, sp._origin, False)
    # Hard case: no root beyond max(0, -mu_1); the minimizer sits there, at
    # the representative of lower m: they differ by 2 tau c'v, c'v a load
    # below the coupling row.  base + free on a tie.
    plus, minus = sp._boundary_pair(m, lam_star)
    return _finish_global(m, minus if minus.objective < plus.objective else plus, True)


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
    return GlobalSolution(point.s, point.lam, point.objective, cert, hard)
