"""Dense linear algebra: validated symmetric matrices, their eigendecomposition
and the Euclidean norm of vectors.

The eigensolver is the package's only LAPACK routine: LAPACK's symmetric
driver through ``np.linalg.eigh``.  Every other solve works in the
eigenbasis it returns; the local solver's Newton and shifted Newton
steps are rank-one (Sherman-Morrison) solves on it, with no
factorization per step.

Everything in this module is deterministic for a fixed input: ``eigh``
returns eigenvalues ascending in a fixed order, and eigenvector signs
are normalized.  All returned arrays are marked read-only so values can
be shared freely across threads.
"""

import functools
import math

import numpy as np

from cubicmin.exceptions import ConvergenceError

_SYMMETRY_RTOL = 1e-12


def norm(x):
    """Euclidean norm of a float array as a Python float.

    Bitwise equal to ``float(np.linalg.norm(x))``: it is NumPy's own
    path for ``ord=None``, without the dispatch that dominates on short
    vectors.  The ravel matters: a strided view dotted with itself takes
    a different summation order.  Like NumPy, it returns inf, with
    NumPy's overflow warning, when the sum of squares overflows.
    """
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


def safe_norm(x):
    """Euclidean norm of a float vector, finite for every finite x.

    When ``max|x|`` exceeds 1e150 the squares could overflow, and when it
    is below 1e-150 (but not 0) they could underflow, so the norm is
    taken of ``x / max|x|`` and scaled back; otherwise it is ``norm(x)``
    bitwise.  For loads and residuals, not for hot loops.
    """
    # On short vectors a Python max is several times faster than NumPy's.
    x_max = max(map(abs, x.tolist()))
    if x_max > 1e150 or 0.0 < x_max < 1e-150:
        return x_max * norm(x / x_max)
    return norm(x)


def _freeze(a):
    a.setflags(write=False)
    return a


class SymmetricMatrix:
    """A validated, symmetrized n-by-n real matrix.

    Parameters
    ----------
    entries : array_like
        Square matrix with ``|a_ij - a_ji| <= 1e-12 * (1 + |a_ij|)``.
        Stored symmetrized as ``A/2 + A^T/2``, which cannot overflow, and
        marked read-only.

    ``max_abs`` and the eigendecomposition ``eig`` are computed lazily and
    cached, so every model built on one matrix shares one
    eigendecomposition.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        # Halves throughout: a - a.T could overflow, half - half.T cannot.
        half = 0.5 * a
        gap = np.abs(half - half.T) - (0.5 * _SYMMETRY_RTOL) * (1.0 + np.abs(a))
        if np.any(gap > 0):
            i, j = np.unravel_index(np.argmax(gap), a.shape)
            raise ValueError(
                f"entry ({i},{j}) = {float(a[i, j])!r} differs from ({j},{i}) = "
                f"{float(a[j, i])!r} beyond the symmetry tolerance"
            )
        self.entries = _freeze(half + half.T)
        self.n = a.shape[0]

    @functools.cached_property
    def max_abs(self):
        """Largest entry magnitude, used for relative tolerances."""
        return float(np.max(np.abs(self.entries)))

    @functools.cached_property
    def eig(self):
        """EigenDecomposition of the matrix (``sym_eigen``), computed on first use."""
        return sym_eigen(self)

    def __repr__(self):
        return f"SymmetricMatrix(n={self.n})"


class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Attributes
    ----------
    values : ndarray, shape (n,)
        Eigenvalues ``mu_1 <= ... <= mu_n``.
    vectors : ndarray, shape (n, n)
        Orthonormal eigenvectors as columns, aligned with ``values``.
    """

    def __init__(self, values, vectors):
        self.values = _freeze(np.asarray(values, dtype=float))
        self.vectors = _freeze(np.asarray(vectors, dtype=float))
        self.n = self.values.shape[0]

    def __repr__(self):
        return f"EigenDecomposition(n={self.n}, values={self.values!r})"


def sym_eigen(A):
    """Eigendecompose a SymmetricMatrix with LAPACK (``np.linalg.eigh``).

    Parameters
    ----------
    A : SymmetricMatrix

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, ties in LAPACK's order; each
        eigenvector's largest-magnitude entry made positive.

    Raises
    ------
    ConvergenceError
        If LAPACK reports that the eigenvalue iteration did not converge.
    """
    try:
        values, vectors = np.linalg.eigh(A.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(A.n)]
    vectors[:, lead < 0.0] *= -1.0
    return EigenDecomposition(values, vectors)

