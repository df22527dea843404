"""Eigendecomposition and shifted-solve contracts."""

import numpy as np
import pytest

from cubicmin import CubicModel, kernel_backend
from cubicmin.exceptions import ConvergenceError, PoleEvaluation
from cubicmin.linalg import (
    _SYMMETRY_RTOL,
    EigenDecomposition,
    SymmetricMatrix,
    norm,
    safe_norm,
    sym_eigen,
)
from cubicmin.stationary import SINGULAR_MODE_TOL, SecularProblem, _coefficients


def _eig_of(entries):
    return sym_eigen(SymmetricMatrix(entries))


def _solve_shifted(entries, lam, b):
    """Solve ``(Q + lam*I) x = b`` with the secular code's eigenbasis solve.

    ``_coefficients`` solves ``(Q + lam*I) s = -c`` mode by mode, so the
    model gets ``c = -b``.  Returns ``x`` and the eigenvectors of the
    singular modes (uncoupled, with a vanishing shift), which contribute
    nothing to ``x``.
    """
    sp = SecularProblem.from_model(CubicModel(-np.asarray(b, dtype=float), entries, 1.0))
    coeff, denom = _coefficients(sp, lam, 0.0)
    singular = ~sp.coupled & (np.abs(denom) <= SINGULAR_MODE_TOL)
    null = [sp.eig.vectors[:, i] for i in np.flatnonzero(singular)]
    return sp.eig.vectors @ coeff, null


def _rotated(mu, seed):
    """V diag(mu) V^T for a random orthogonal V."""
    v, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(mu), len(mu))))
    q = (v * np.asarray(mu, dtype=float)) @ v.T
    return (q + q.T) / 2.0


def _check_invariants(a):
    """Ascending order, reconstruction, trace, Frobenius, orthonormality."""
    A = SymmetricMatrix(a)
    n = A.n
    eig = sym_eigen(A)
    assert np.all(np.diff(eig.values) >= 0)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.max(np.abs(recon - A.entries)) <= 1e-8 * (1.0 + A.max_abs)
    assert abs(np.sum(eig.values) - np.trace(A.entries)) <= 1e-9 * (
        1.0 + abs(np.trace(A.entries))
    )
    fro2 = np.linalg.norm(A.entries, "fro") ** 2
    assert abs(np.sum(eig.values**2) - fro2) <= 1e-8 * (1.0 + fro2)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    ref = np.linalg.eigvalsh(A.entries)
    assert np.max(np.abs(eig.values - ref)) <= 1e-8 * (1.0 + A.max_abs)
    for j in range(n):
        col = eig.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    assert not eig.values.flags.writeable
    assert not eig.vectors.flags.writeable
    return eig


class TestSymmetricMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(ValueError, match="symmetry"):
            SymmetricMatrix([[1.0, 2.0], [2.1, 1.0]])

    def test_symmetrizes_within_tolerance(self):
        a = SymmetricMatrix([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
        assert a.entries[0, 1] == a.entries[1, 0]
        assert not a.entries.flags.writeable

    def test_max_abs(self):
        assert SymmetricMatrix([[1.0, -7.0], [-7.0, 3.0]]).max_abs == 7.0

    @pytest.mark.parametrize("scale", [1e-100, 1e-5, 1.0, 1e5, 1e100, 1e300])
    def test_symmetrization_bitwise_equal_to_mean(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 400)
        for n in range(1, 13):
            a = scale * rng.normal(size=(n, n))
            a = a + a.T
            a = a * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, size=(n, n)))
            got = SymmetricMatrix(a).entries
            mean = (a + a.T) / 2.0
            assert [x.hex() for x in got.ravel()] == [x.hex() for x in mean.ravel()]
            assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("big", [1e200, 1e308, np.finfo(float).max])
    def test_entries_near_float_limit(self, big):
        a = SymmetricMatrix([[big, -big], [-big, big]])
        assert np.array_equal(a.entries, [[big, -big], [-big, big]])
        assert a.max_abs == big

    def test_asymmetric_pair_near_float_limit(self):
        # a - a.T overflows here; any warning is an error in this suite.
        with pytest.raises(ValueError, match=r"entry \(0,1\) = 1e\+308 differs"):
            SymmetricMatrix([[0.0, 1e308], [-1e308, 0.0]])

    def test_subnormal_entries_are_halved_and_doubled(self):
        # Exactly symmetric, yet stored as A/2 + A^T/2: halving rounds an
        # odd subnormal, so the stored entry differs from the input.
        tiny = 5e-324
        a = SymmetricMatrix([[tiny, 3 * tiny], [3 * tiny, 1.0]])
        assert a.entries[0, 0] == 0.0
        assert a.entries[0, 1] == a.entries[1, 0] == 4 * tiny


def _reference_symmetric(entries):
    """SymmetricMatrix validation without the exact-symmetry short cut (verbatim)."""
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
    return half + half.T


def _matrix_outcome(build, entries):
    try:
        return build(entries).tobytes()
    except ValueError as exc:
        return str(exc)


_MATRIX_KINDS = ("symmetric", "within", "beyond", "subnormal", "signed_zero", "inf", "nan")


def _parity_matrix(rng, kind, n):
    """A random n-by-n matrix of one kind; every kind's scale is random too."""
    a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-300.0, 300.0)
    if kind == "subnormal":
        a = np.triu(rng.integers(-9, 10, size=(n, n)) * 5e-324)
        a = a + np.triu(a, 1).T
    elif kind == "signed_zero":
        # 0.0 facing -0.0 compares equal: symmetric, with unequal bits.
        a = np.where(rng.uniform(size=(n, n)) < 0.5, 0.0, -0.0)
    else:
        a = a + a.T
    i, j = (int(k) for k in rng.integers(n, size=2))
    if kind == "within":
        a[i, j] *= 1.0 + 1e-13 * rng.uniform(-1.0, 1.0)
    elif kind == "beyond":
        a[i, j] = a[i, j] * (1.0 + 1e-11) + 1e-11
    elif kind == "subnormal" and rng.uniform() < 0.5:
        a[i, j] += 5e-324
    elif kind in ("inf", "nan"):
        a[i, j] = (np.inf if rng.uniform() < 0.5 else -np.inf) if kind == "inf" else np.nan
    return a


class TestSymmetricMatrixReferenceParity:
    """The exact-symmetry short cut changes no entry and no message."""

    def test_entries_and_messages_match_reference(self):
        rng = np.random.default_rng(1812)
        verdicts = {kind: set() for kind in _MATRIX_KINDS}
        for k in range(1400):
            kind = _MATRIX_KINDS[k % len(_MATRIX_KINDS)]
            a = _parity_matrix(rng, kind, 1 + (k // len(_MATRIX_KINDS)) % 7)
            want = _matrix_outcome(_reference_symmetric, a)
            got = _matrix_outcome(lambda e: SymmetricMatrix(e).entries, a)
            assert got == want, (k, kind)
            verdicts[kind].add(isinstance(want, bytes))
        # Each kind was judged as its name says.  A subnormal gap is within
        # the tolerance's absolute 1e-12; "beyond" goes both ways, since a
        # 1-by-1 matrix or a perturbed diagonal entry stays symmetric.
        assert verdicts["symmetric"] == verdicts["within"] == {True}
        assert verdicts["signed_zero"] == verdicts["subnormal"] == {True}
        assert verdicts["beyond"] == {True, False}
        assert verdicts["inf"] == verdicts["nan"] == {False}


class TestSymEigen:
    def test_identity(self):
        eig = _eig_of(np.eye(3))
        assert np.array_equal(eig.values, np.ones(3))
        assert np.array_equal(eig.vectors, np.eye(3))

    def test_diagonal_sorted_ascending(self):
        eig = _eig_of(np.diag([3.0, -2.0, -1.0]))
        assert np.array_equal(eig.values, [-2.0, -1.0, 3.0])
        # eigenvector for mu = -2 is the second axis, etc.
        assert np.array_equal(np.abs(eig.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_vector_sign_normalization(self):
        eig = _eig_of(np.diag([-2.0, 5.0]))
        for j in range(2):
            col = eig.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_random_reconstruction_6x6(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-5.0, 5.0, size=(6, 6))
        a = (a + a.T) / 2.0
        A = SymmetricMatrix(a)
        eig = sym_eigen(A)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - A.entries)) <= 1e-8 * (1.0 + A.max_abs)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2.0
        e1 = _eig_of(a)
        e2 = _eig_of(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_deterministic_n128(self):
        rng = np.random.default_rng(128)
        a = rng.uniform(-5.0, 5.0, size=(128, 128))
        a = (a + a.T) / 2.0
        e1 = _eig_of(a)
        e2 = _eig_of(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    @pytest.mark.parametrize("seed", range(200))
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        a = rng.uniform(-5.0, 5.0, size=(n, n))
        _check_invariants((a + a.T) / 2.0)

    @pytest.mark.parametrize(
        "a, values",
        [
            (np.diag([2.0, 2.0, -1.0]), [-1.0, 2.0, 2.0]),
            (_rotated([1.0, 1.0, 3.0], seed=11), [1.0, 1.0, 3.0]),
            (_rotated([3.0, -2.0, -2.0, -2.0, 5.0], seed=12), [-2.0] * 3 + [3.0, 5.0]),
        ],
        ids=["diag_2_2_-1", "rotated_1_1_3", "rotated_triple"],
    )
    def test_invariants_repeated_eigenvalues(self, a, values):
        eig = _check_invariants(a)
        assert np.max(np.abs(eig.values - values)) <= 1e-11

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError, match="did not converge"):
            _eig_of(np.eye(2))


class TestSolveShifted:
    def test_identity_like(self):
        x, _ = _solve_shifted(np.diag([1.0, 2.0]), 0.0, [1.0, 2.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_zero_rhs(self):
        x, _ = _solve_shifted(np.diag([1.0, 2.0]), 0.5, np.zeros(2))
        assert np.array_equal(x, np.zeros(2))

    def test_indefinite_shift(self):
        x, _ = _solve_shifted(np.diag([-3.0, 1.0]), 4.0, [1.0, 5.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_excited_singular_mode(self):
        with pytest.raises(PoleEvaluation):
            _solve_shifted(np.diag([-3.0, 1.0]), 3.0, [1.0, 0.0])

    def test_unloaded_singular_mode_passes(self):
        x, _ = _solve_shifted(np.diag([-3.0, 1.0]), 3.0, [0.0, 4.0])
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        a = rng.uniform(-5.0, 5.0, size=(n, n))
        a = (a + a.T) / 2.0
        values = np.linalg.eigvalsh(a)
        b = rng.uniform(-5.0, 5.0, size=n)
        # keep the shift at least 0.1 away from every pole -mu_i
        for _ in range(100):
            lam = float(rng.uniform(-10.0, 10.0))
            if np.min(np.abs(values + lam)) >= 0.1:
                break
        x, _ = _solve_shifted(a, lam, b)
        res = np.linalg.norm((a + lam * np.eye(n)) @ x - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))


class TestPseudoSolveShifted:
    def test_consistent_singular_system(self):
        x, null = _solve_shifted(np.diag([-3.0, 1.0]), 3.0, [0.0, 4.0])
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)
        assert len(null) == 1
        assert np.allclose(np.abs(null[0]), [1.0, 0.0], atol=1e-12)

    def test_zero_rhs_keeps_null_space(self):
        x, null = _solve_shifted(np.diag([-3.0, 1.0]), 3.0, np.zeros(2))
        assert np.array_equal(x, np.zeros(2))
        assert len(null) == 1

    def test_negative_load(self):
        x, null = _solve_shifted(np.diag([-3.0, 1.0]), 3.0, [0.0, -2.0])
        assert np.allclose(x, [0.0, -0.5], atol=1e-12)

    def test_inconsistent_system(self):
        with pytest.raises(PoleEvaluation):
            _solve_shifted(np.diag([-3.0, 1.0]), 3.0, [1.0, 0.0])

    def test_no_singular_modes_means_plain_solve(self):
        x, null = _solve_shifted(np.diag([2.0, 5.0]), 1.0, [3.0, 6.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)
        assert null == []


class TestNorm:
    """``linalg.norm`` is bitwise ``float(np.linalg.norm(x))``."""

    @pytest.mark.parametrize("scale", [1e-5, 1e-2, 1.0, 1e2, 1e5])
    def test_bitwise_equal_to_numpy(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 10)
        for n in range(1, 201):
            x = scale * rng.normal(size=n)
            # A column of a C-ordered matrix is a strided view.
            column = (scale * rng.normal(size=(n, 3)))[:, 1]
            for v in (x, column):
                got = norm(v)
                assert type(got) is float
                assert got.hex() == float(np.linalg.norm(v)).hex(), (n, v.strides)

    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_zero_vector(self, n):
        for v in (np.zeros(n), np.zeros((n, 2))[:, 0]):
            assert norm(v).hex() == float(np.linalg.norm(v)).hex() == "0x0.0p+0"


class TestSafeNorm:
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5, 1e150])
    def test_bitwise_equal_to_norm_in_range(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 20)
        for n in range(1, 50):
            x = scale * rng.normal(size=n)
            x = x * (scale / np.max(np.abs(x)))
            assert safe_norm(x).hex() == norm(x).hex()

    @pytest.mark.parametrize("scale", [1e151, 1e200, 1e300, np.finfo(float).max])
    def test_finite_where_squares_overflow(self, scale):
        x = np.array([0.6, -0.8, 0.0]) * scale
        assert safe_norm(x) == pytest.approx(scale, rel=1e-15)

    @pytest.mark.parametrize("scale", [1.01e-150, 1e-120, 1e-50])
    def test_bitwise_equal_to_norm_down_to_1e_150(self, scale):
        rng = np.random.default_rng(int(-np.log10(scale)) + 40)
        for n in range(1, 50):
            x = rng.normal(size=n)
            x = x * (scale / np.max(np.abs(x)))
            assert safe_norm(x).hex() == norm(x).hex()

    @pytest.mark.parametrize("scale", [9.9e-151, 1e-200, 1e-300])
    def test_accurate_where_squares_underflow(self, scale):
        x = np.array([0.6, -0.8, 0.0]) * scale
        assert safe_norm(x) == pytest.approx(scale, rel=1e-15)
        assert safe_norm(np.array([-scale])) == scale

    def test_zero_vector(self):
        assert safe_norm(np.zeros(3)) == 0.0


def test_eigendecomposition_repr_mentions_n():
    eig = EigenDecomposition(np.array([1.0]), np.eye(1))
    assert "n=1" in repr(eig)


def test_kernel_backend_is_lapack():
    assert kernel_backend() == "lapack"
