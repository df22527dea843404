"""The cubic-regularized quadratic model and its global-optimality test.

The model is ``m(s) = c^T s + 1/2 s^T Q s + (sigma/3) ||s||^3`` with
``sigma > 0``.  A point is stationary when ``(Q + lam*I) s = -c`` with
``lam = sigma * ||s||``, and it is the global minimizer exactly when, in
addition, ``Q + lam*I`` is positive semidefinite.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from cubicmin import linalg
from cubicmin.exceptions import ConvergenceError, NotStationary
from cubicmin.linalg import SymmetricMatrix

# Below this bound on its terms, a point's evaluation stays in double range.
_IN_RANGE = 2.0**1000


class CubicModel:
    """The data triple (c, Q, sigma) defining the cubic model.

    Parameters
    ----------
    c : array_like, shape (n,)
        Linear coefficients.
    Q : SymmetricMatrix or array_like, shape (n, n)
        Symmetric quadratic coefficients.
    sigma : float
        Regularization weight, strictly positive.

    ``norm_c`` is computed on first use and cached, and so is the
    secular record of ``stationary.SecularProblem.from_model``, which
    one constructor builds whole, largest root and its StationaryPoint
    included.  The eigendecomposition of Q is cached on the
    ``SymmetricMatrix`` itself, so models that share one Q (as the outer
    loop's models at one iterate do) share one eigendecomposition.
    Instances are immutable and safe to share across threads: each
    cached value is a deterministic function of (c, Q, sigma), so two
    threads that fill a cache at once store equal values.
    """

    def __init__(self, c, Q, sigma):
        if not isinstance(Q, SymmetricMatrix):
            Q = SymmetricMatrix(Q)
        c = np.array(c, dtype=float).reshape(-1)
        if c.shape[0] != Q.n:
            raise ValueError(f"c has length {c.shape[0]}, Q has dimension {Q.n}")
        if not np.isfinite(c).all():
            raise ValueError("c entries must be finite")
        sigma = float(sigma)
        if not sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        c.setflags(write=False)
        self.c = c
        self.Q = Q
        self.sigma = sigma
        self.n = Q.n
        self._secular = None

    @property
    def eig(self):
        """EigenDecomposition of Q, cached on Q (``SymmetricMatrix.eig``)."""
        return self.Q.eig

    @functools.cached_property
    def norm_c(self):
        """``||c||``, finite for every finite c (``linalg.safe_norm``)."""
        return linalg.safe_norm(self.c)

    def default_tol_grad(self):
        """Default stationarity tolerance, relative to the model scale."""
        return 1e-8 * (1.0 + self.norm_c)

    def default_tol_psd(self):
        """Default semidefiniteness tolerance, relative to the model scale."""
        return 1e-8 * (1.0 + self.Q.max_abs)

    def _check_dim(self, s):
        s = np.asarray(s, dtype=float).reshape(-1)
        if s.shape[0] != self.n:
            raise ValueError(f"point has length {s.shape[0]}, model dimension is {self.n}")
        return s

    def __repr__(self):
        return f"CubicModel(n={self.n}, sigma={self.sigma})"


@dataclass(frozen=True)
class StationaryPoint:
    """A point with its one evaluation: everything that judges it reads this.

    ``s`` is a read-only copy, ``lam = sigma * ||s||`` (recomputed, never
    supplied, so the norm coupling holds by construction),
    ``objective = m(s)`` and ``residual = ||grad m(s)||``
    (``linalg.safe_norm``).  ``_certificate`` judges the record, and
    ``GlobalSolution`` and ``EscapeOutcome.point`` are built from it.
    """

    s: np.ndarray
    lam: float
    objective: float
    residual: float

    @classmethod
    def from_vector(cls, model, s):
        """Evaluate ``s``; ConvergenceError where m(s) is NaN or below double range."""
        s = model._check_dim(np.array(s, dtype=float))
        s.setflags(write=False)
        norm_s = linalg.norm(s)
        lam = model.sigma * norm_s
        qs = model.Q.entries @ s
        # Bounds the terms of grad m(s) and m(s), as ||Q|| <= n max|Q|.
        if (1.0 + norm_s) * (model.norm_c + (model.n * model.Q.max_abs + lam) * norm_s) < _IN_RANGE:
            objective = _objective(model, s, norm_s, qs)
            residual = linalg.safe_norm(_gradient(model, s, norm_s, qs))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                objective = _objective(model, s, norm_s, qs)
                residual = linalg.safe_norm(_gradient(model, s, norm_s, qs))
            if not objective > -math.inf:  # inf, as where only ||s||**3 overflows, stays
                raise ConvergenceError(f"m(s) leaves double range at lam = {lam!r}: {objective!r}")
        return cls(s=s, lam=lam, objective=objective, residual=residual)


@dataclass(frozen=True)
class GlobalCertificate:
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


def _objective(model, s, norm_s, qs):
    # m(s) from ||s|| and Q s, so one point's evaluations share them.
    # The Python float cube raises past ||s|| ~ 5.6e102; it is inf there.
    try:
        cube = norm_s**3
    except OverflowError:
        cube = math.inf
    return float(model.c @ s + 0.5 * s @ qs + (model.sigma / 3.0) * cube)


def _gradient(model, s, norm_s, qs):
    return model.c + qs + model.sigma * norm_s * s


def eval_model(model, s):
    """Evaluate ``m(s) = c^T s + 1/2 s^T Q s + (sigma/3) ||s||^3``."""
    s = model._check_dim(s)
    return _objective(model, s, linalg.norm(s), model.Q.entries @ s)


def grad(model, s):
    """Evaluate ``grad m(s) = c + Q s + sigma ||s|| s``."""
    s = model._check_dim(s)
    return _gradient(model, s, linalg.norm(s), model.Q.entries @ s)


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
        Positive tolerances; default to ``1e-8 * (1 + ||c||)`` and
        ``1e-8 * (1 + max|Q|)``.

    Returns
    -------
    GlobalCertificate
        With ``psd_margin = mu_1 + sigma * ||s||`` and
        ``is_global = (residual <= tol_grad) and (psd_margin >= -tol_psd)``.
    """
    if tol_grad is None:
        tol_grad = model.default_tol_grad()
    if tol_psd is None:
        tol_psd = model.default_tol_psd()
    if not (tol_grad > 0.0 and tol_psd > 0.0):
        raise ValueError("tolerances must be positive")
    return _certificate(model, StationaryPoint.from_vector(model, s), tol_grad, tol_psd)


def _certificate(model, point, tol_grad, tol_psd, gate=False):
    # The one judge of a point: it reads the StationaryPoint's lam =
    # sigma*||s|| and residual, and nothing else compares either with a
    # tolerance.  With gate=True a residual above tol_grad (or NaN)
    # raises NotStationary instead of giving is_global = False.
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
