"""Dense linear algebra: validated symmetric matrices, their eigendecomposition
and the Euclidean norm of vectors.

The eigensolver is the package's only LAPACK routine: LAPACK's symmetric
driver through ``np.linalg.eigh``.  Every other solve works in the
eigenbasis it returns; the local solver's Newton and shifted Newton
steps are rank-one (Sherman-Morrison) solves on it, with no
factorization per step.  ``norm`` is the package's one Euclidean norm.

Everything in this module is deterministic for a fixed input: ``eigh``
returns eigenvalues ascending in a fixed order, and eigenvector signs
are normalized.  All returned arrays are marked read-only so values can
be shared freely across threads.
"""

import functools
import math
import sys

import numpy as np

from cubicmin.exceptions import ConvergenceError

_SYMMETRY_RTOL = 1e-12


# max|x| in [_SQUARE_MIN, _SQUARE_MAX] squares without overflow or underflow.
# A computed sum of squares ss of n entries proves it where n _SS_MIN <= ss <=
# _SS_MAX: in any order, fused or not, ss is within gamma_n S + n 2^-1074 of
# S = sum x_i^2 (Higham, Accuracy and Stability, 3.1, plus one subnormal
# rounding per square), gamma_n < 0.005 for n < 4e13, and max|x|^2 <= S <=
# n max|x|^2; so max|x|^2 lies in (1.004 _SQUARE_MIN^2, 0.996 _SQUARE_MAX^2).
_SQUARE_MIN = 1e-150
_SQUARE_MAX = 1e150
_SS_MIN = 1.01 * _SQUARE_MIN * _SQUARE_MIN
_SS_MAX = 0.99 * _SQUARE_MAX * _SQUARE_MAX

# A sum of fewer than _PAIRWISE_BLOCK terms may be taken in Python floats.
# NumPy's pairwise summation adds a float64 vector shorter than its 8-term
# block one term at a time, left to right from +0.0, so ``np.add.reduce(v)``
# has the bits of ``sum(v.tolist(), 0.0)``, which skips the ufunc dispatch
# (tests/test_linalg.py checks it).  Python 3.12's ``sum`` compensates its
# rounding, so there the block is 0 and every sum stays in NumPy.  Dot
# products always stay in NumPy: BLAS accumulates them with fused multiply-add.
_PAIRWISE_BLOCK = 8 if sys.version_info < (3, 12) else 0


def norm(x):
    """Euclidean norm of a float array as a Python float; inf only past double range.

    Where ``max|x|`` lies in [1e-150, 1e150] it is bitwise
    ``float(np.linalg.norm(x))``, NumPy's sum of squares without its
    dispatch (the ravel keeps a strided view's summation order);
    elsewhere it is ``max|x| * norm(x / max|x|)``, and inf for an
    infinite entry.  ``np.vdot`` sums as ``v.dot(v)`` does, bit for
    bit, but without the overflow warning, so no input warns.
    """
    v = x.ravel(order="K")
    ss = float(np.vdot(v, v))
    if v.size * _SS_MIN <= ss <= _SS_MAX:
        return math.sqrt(ss)
    # ss cannot tell (it overflowed, or is tiny, 0 or NaN): decide on max|x|,
    # with a Python max, several times faster than NumPy's on short vectors.
    x_max = max(map(abs, v.tolist()))
    if x_max > _SQUARE_MAX or 0.0 < x_max < _SQUARE_MIN:
        return x_max if x_max == math.inf else x_max * norm(v / x_max)
    return math.sqrt(ss)


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
        marked read-only.  An exactly symmetric A passes without the
        tolerance arithmetic; it is still stored as ``A/2 + A^T/2``,
        which differs from A where halving rounds a subnormal entry.

    ``max_abs``, the largest entry magnitude, is computed by the
    constructor, since every solve reads it.  The eigendecomposition
    ``eig`` is computed on first use and cached, so every model built on
    one matrix shares one eigendecomposition.
    """

    def __init__(self, entries):
        # The halving below copies, so the input is only read.
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise ValueError("matrix entries must be finite")
        # Halves throughout: a - a.T could overflow, half - half.T cannot.
        half = 0.5 * a
        # An exactly symmetric matrix has every gap negative: skip them.
        if np.count_nonzero(a != a.T):
            gap = np.abs(half - half.T) - (0.5 * _SYMMETRY_RTOL) * (1.0 + np.abs(a))
            if np.count_nonzero(gap > 0):
                i, j = np.unravel_index(np.argmax(gap), a.shape)
                raise ValueError(
                    f"entry ({i},{j}) = {float(a[i, j])!r} differs from ({j},{i}) = "
                    f"{float(a[j, i])!r} beyond the symmetry tolerance"
                )
        self.entries = _freeze(half + half.T)
        self.n = a.shape[0]
        self.max_abs = float(np.abs(self.entries).max())

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
    mu_1 : float
        ``values[0]`` as a Python float, read once per decomposition.
    """

    def __init__(self, values, vectors):
        self.values = _freeze(np.asarray(values, dtype=float))
        self.vectors = _freeze(np.asarray(vectors, dtype=float))
        self.n = self.values.shape[0]
        self.mu_1 = float(self.values[0])

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
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(A.n)]
    vectors *= np.copysign(1.0, lead)
    return EigenDecomposition(values, vectors)

