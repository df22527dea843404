"""The cubic-regularized quadratic model and its global-optimality test.

The model is ``m(s) = c^T s + 1/2 s^T Q s + (sigma/3) ||s||^3`` with
``sigma > 0``.  A point is stationary when ``(Q + lam*I) s = -c`` with
``lam = sigma * ||s||``, and it is the global minimizer exactly when, in
addition, ``Q + lam*I`` is positive semidefinite.

Every model-scale threshold is stated once, in the tolerance table below.
A judged point is evaluated once, by ``_evaluate``, which alone makes
the 2^1000 range decision; the escapes' verdict evaluates each move
through it too.  ``StationaryPoint.from_vector`` keeps that
evaluation as a record (``s``, ``lam``, ``m(s)``, the gradient and its
norm), and the certificate and the escapes read the record instead of
evaluating s again.  The per-point records (``StationaryPoint``,
``GlobalCertificate`` and those of ``stationary`` and ``escape``) are
NamedTuples, each built by its own constructor.  ``is_global`` reads
the same evaluation and builds no record; in double range it does not
compute ``m(s)`` either.  The local solve builds the record of its last
iterate from the values its descent holds (``LocalSolveReport.point``),
bitwise ``from_vector``'s, and the escape loop applies ``_check_range``,
the range test of ``_evaluate``, to it.
"""

import math
from typing import NamedTuple

import numpy as np

from cubicmin import linalg
from cubicmin.exceptions import ConvergenceError, NotStationary
from cubicmin.linalg import SymmetricMatrix

# Below this bound on its terms, a point's evaluation stays in double range.
_IN_RANGE = 2.0**1000

# The tolerance table; a row relative to ||c|| raises ConvergenceError where ||c|| overflows.
#   gradient gate     1e-8 (1 + ||c||), on ||grad m||           CubicModel.default_tol_grad
#   psd gate          1e-8 (1 + max|Q|), on -(mu_1 + lam)       CubicModel.default_tol_psd
#   coupling          1e-10 (1 + ||c||), on |beta_i|            CubicModel.coupling_tol
#   zero step         1e-10 max(1, |mu_1|/sigma), on ||s||      CubicModel.zero_step_tol
#   ARC target        max(min(0.01, 0.1 ||c||) ||c||, 1e-12)    CubicModel.arc_target
#   boundary slack    1e-8 (1 + lam/sigma), on ||V a||          boundary_slack
#   multiplier tie    1e-9 (1 + |lam|), between multipliers     multiplier_tie
#   escape curvature  min(10 eps / max(||s||, 1e-8), 1e-6)      escape_eps_curv
SINGULAR_MODE_TOL = 1e-12  # singular mode, on |mu_i + lam|
_POLE_MERGE = 1e-10  # pole merge, between a coupled pole and the one below


def boundary_slack(radius):
    return 1e-8 * (1.0 + radius)


def multiplier_tie(lam):
    return 1e-9 * (1.0 + abs(lam))


def escape_eps_curv(eps_grad, s):
    return min(10.0 * eps_grad / max(linalg.norm(s), 1e-8), 1e-6)  # cap: psd_margin >= -1e-6


class CubicModel:
    """The data triple (c, Q, sigma) defining the cubic model.

    Parameters
    ----------
    c : array_like, shape (n,)
        Linear coefficients.
    Q : SymmetricMatrix or array_like, shape (n, n)
        Symmetric quadratic coefficients.
    sigma : float
        Regularization weight, strictly positive and finite.

    ``norm_c = ||c||`` (``linalg.norm``; inf only past double range)
    is computed by the constructor, as is ``Q.max_abs``, since every
    solve path reads both.  The secular record of
    ``stationary.SecularProblem.from_model``, which one constructor
    builds whole, largest root and its StationaryPoint included, is
    built on first use and cached.  The eigendecomposition of Q is a
    ``functools.cached_property`` of the ``SymmetricMatrix`` itself, so
    models that share one Q (as the outer loop's models at one iterate
    do) share one eigendecomposition.  Instances are immutable and safe
    to share across threads: each cached value is a deterministic
    function of (c, Q, sigma), so two threads that fill a cache at once
    store equal values.  Up to CPython 3.11 ``cached_property`` takes a
    lock on a first read; the secular record takes none: threads that
    build it at once each append theirs to one list and all keep the
    first one appended.
    """

    def __init__(self, c, Q, sigma):
        if not isinstance(Q, SymmetricMatrix):
            Q = SymmetricMatrix(Q)
        c = np.array(c, dtype=float)
        if c.ndim != 1:
            c = c.reshape(-1)
        if c.shape[0] != Q.n:
            raise ValueError(f"c has length {c.shape[0]}, Q has dimension {Q.n}")
        if np.count_nonzero(np.isfinite(c)) < c.shape[0]:
            raise ValueError("c entries must be finite")
        sigma = float(sigma)
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        c.setflags(write=False)
        self.c = c
        self.Q = Q
        self.sigma = sigma
        self.n = Q.n
        self.norm_c = linalg.norm(c)
        self._secular_built = []  # one entry, or one per thread that raced to build it

    @property
    def eig(self):
        """EigenDecomposition of Q, cached on Q (``SymmetricMatrix.eig``)."""
        return self.Q.eig

    def default_tol_grad(self):
        """Default stationarity tolerance: the tolerance table's gradient gate."""
        return 1e-8 * (1.0 + self._finite_norm_c())

    def default_tol_psd(self):
        """Default semidefiniteness tolerance: the tolerance table's psd gate."""
        return 1e-8 * (1.0 + self.Q.max_abs)

    def coupling_tol(self):
        return 1e-10 * (1.0 + self._finite_norm_c())

    def zero_step_tol(self):
        return 1e-10 * max(1.0, abs(self.eig.mu_1) / self.sigma)  # lam then negligible beside mu_1

    def arc_target(self):
        g = self._finite_norm_c()
        return max(min(0.01, 0.1 * g) * g, 1e-12)

    def _finite_norm_c(self):
        if self.norm_c == math.inf:
            raise ConvergenceError("||c|| overflows, so no tolerance relative to it is finite")
        return self.norm_c

    def _check_dim(self, s):
        s = np.asarray(s, dtype=float).reshape(-1)
        if s.shape[0] != self.n:
            raise ValueError(f"point has length {s.shape[0]}, model dimension is {self.n}")
        return s

    def __repr__(self):
        return f"CubicModel(n={self.n}, sigma={self.sigma})"


class StationaryPoint(NamedTuple):
    """A point with its one evaluation: everything that judges it reads this.

    ``s`` is read-only and shares no memory with a caller's array,
    ``lam = sigma * ||s||`` (recomputed, never supplied, so the norm
    coupling holds by construction), ``objective = m(s)``,
    ``gradient = grad m(s) = c + Q s + sigma ||s|| s`` (read-only) and
    ``residual = ||gradient||``.  Both norms are
    ``linalg.norm``, so lam is finite wherever ||s|| is.
    ``_certificate`` judges the record, the escapes read ``s``, ``lam``
    and ``gradient`` from it instead of evaluating s again, and
    ``GlobalSolution`` and ``EscapeOutcome.point`` are built from it.
    ``LocalSolveReport.point`` is one too, built by the local solve.
    """

    s: np.ndarray
    lam: float
    objective: float
    residual: float
    gradient: np.ndarray

    @classmethod
    def from_vector(cls, model, s):
        """Evaluate ``s``; ConvergenceError where m(s) is NaN or below double range."""
        s, lam, objective, gradient = _evaluate(model, np.array(s, dtype=float))
        s.setflags(write=False)
        gradient.setflags(write=False)
        return cls(s, lam, objective, linalg.norm(gradient), gradient)


class GlobalCertificate(NamedTuple):
    """Outcome of the two-part global-optimality test.

    ``psd_margin`` is the smallest eigenvalue of ``Q + sigma*||s||*I``;
    the point is certified global when the gradient residual and the
    margin both pass their tolerances.
    """

    psd_margin: float
    residual: float
    is_global: bool
    tol_grad: float
    tol_psd: float


def _evaluate(model, s, objective=True, gradient=True):
    """The one evaluation of a judged point: ``(s, lam, m(s), grad m(s))``.

    ``s`` is a contiguous float array: ``from_vector``'s own copy, the
    caller's array that ``is_global`` reads in place, or an escape's
    move.  It is only read, and reshaped (a view) only when it is not
    1-D; the gradient is a new array.  ``m(s)`` is None when not
    ``objective``, and the gradient None when not ``gradient``.  Where the
    terms of all three stay below ``_IN_RANGE`` (as ``||Q|| <= n
    max|Q|``; a test on scalars, before ``Q s``), none needs an errstate
    nor can leave double range.  Elsewhere ``m(s)`` is always computed,
    and NaN or -inf raises ConvergenceError.
    """
    if s.ndim != 1:
        s = s.reshape(-1)
    if s.shape[0] != model.n:
        model._check_dim(s)  # raises the dimension error
    norm_s = linalg.norm(s)
    lam = model.sigma * norm_s
    if (1.0 + norm_s) * (model.norm_c + (model.n * model.Q.max_abs + lam) * norm_s) < _IN_RANGE:
        qs = model.Q.entries.dot(s)
        value = _objective(model, s, norm_s, qs) if objective else None
        return s, lam, value, _gradient(model, s, norm_s, qs) if gradient else None
    with np.errstate(over="ignore", invalid="ignore"):
        qs = model.Q.entries.dot(s)
        value = _objective(model, s, norm_s, qs)
        grad_s = _gradient(model, s, norm_s, qs) if gradient else None
    _check_range(value, lam)
    return s, lam, value, grad_s


def _check_range(value, lam):
    # ConvergenceError where m(s) = value is NaN or -inf; inf, as where
    # only (sigma/3)||s||^3 overflows, stays.
    if not value > -math.inf:
        raise ConvergenceError(f"m(s) leaves double range at lam = {lam!r}: {value!r}")


def _objective(model, s, norm_s, qs):
    # m(s) from ||s|| and Q s, so one point's evaluations share them.
    # The Python float cube raises past ||s|| ~ 5.6e102.  There
    # (sigma/3)||s||^3 is taken factor by factor: each partial product is
    # at most the last, so it is inf only where (sigma/3)||s||^3 overflows.
    try:
        cubic = (model.sigma / 3.0) * norm_s**3
    except OverflowError:
        cubic = model.sigma / 3.0 * norm_s * norm_s * norm_s
    # Python floats add without NumPy's scalar overhead, in the same order.
    return float(model.c.dot(s)) + float((0.5 * s).dot(qs)) + cubic


def _gradient(model, s, norm_s, qs):
    return model.c + qs + model.sigma * norm_s * s


def eval_model(model, s):
    """Evaluate ``m(s) = c^T s + 1/2 s^T Q s + (sigma/3) ||s||^3``."""
    s = model._check_dim(s)
    return _objective(model, s, linalg.norm(s), model.Q.entries.dot(s))


def grad(model, s):
    """Evaluate ``grad m(s) = c + Q s + sigma ||s|| s``."""
    s = model._check_dim(s)
    return _gradient(model, s, linalg.norm(s), model.Q.entries.dot(s))


def hess(model, s):
    """Evaluate ``hess m(s) = Q + sigma ||s|| I + sigma s s^T / ||s||``.

    At ``s = 0`` the rank-one and shift terms vanish in the limit, so the
    Hessian is Q itself.
    """
    s = model._check_dim(s)
    norm_s = linalg.norm(s)
    if norm_s == 0.0:
        return model.Q
    return SymmetricMatrix(
        model.Q.entries
        + model.sigma * norm_s * np.eye(model.n)
        + (model.sigma / norm_s) * np.outer(s, s)
    )


def is_global(model, s, tol_grad=None, tol_psd=None):
    """Test whether ``s`` is the certified global minimizer of the model.

    Parameters
    ----------
    tol_grad, tol_psd : float, optional
        Positive, finite tolerances (else ValueError); default to the
        model's gradient and psd gates.

    Returns
    -------
    GlobalCertificate
        With ``psd_margin = mu_1 + sigma * ||s||`` and
        ``is_global = (residual <= tol_grad) and (psd_margin >= -tol_psd)``.

    Raises
    ------
    ConvergenceError
        Where m(s) is NaN or below double range, as
        ``StationaryPoint.from_vector``.

    s is judged from the evaluation ``StationaryPoint.from_vector`` keeps,
    bit for bit, but without building a record; where the terms of the
    gradient and of m(s) stay in double range, m(s) is not computed.  A
    contiguous float64 s is read in place, neither copied nor frozen.
    """
    if tol_grad is None:
        tol_grad = model.default_tol_grad()
    if tol_psd is None:
        tol_psd = model.default_tol_psd()
    if not (0.0 < tol_grad < math.inf and 0.0 < tol_psd < math.inf):
        raise ValueError("tolerances must be positive and finite")
    _, lam, _, gradient = _evaluate(model, np.ascontiguousarray(s, dtype=float), objective=False)
    return _judge(model, linalg.norm(gradient), lam, tol_grad, tol_psd)


def _certificate(model, point, tol_grad, tol_psd, gate=False):
    # The one judge of a point: it reads the StationaryPoint's lam =
    # sigma*||s|| and residual, and nothing else compares either with a
    # tolerance.  With gate=True a residual above tol_grad (or NaN)
    # raises NotStationary instead of giving is_global = False.
    return _judge(model, point.residual, point.lam, tol_grad, tol_psd, gate)


def _judge(model, residual, lam, tol_grad, tol_psd, gate=False):
    # _certificate from the residual and lam of a point.
    stationary = residual <= tol_grad
    if gate and not stationary:
        raise NotStationary(f"residual {residual!r} exceeds {tol_grad!r}")
    psd_margin = model.eig.mu_1 + lam
    return GlobalCertificate(
        psd_margin, residual, stationary and (psd_margin >= -tol_psd), tol_grad, tol_psd
    )
