"""Built-in smooth test objectives for the outer optimizer.

Each problem bundles value, gradient, and dense Hessian callbacks with a
default starting point.  Registered gradients are validated against a
central finite difference once at construction time.
"""

import numbers

import numpy as np

from . import linalg
from .linalg import SymmetricMatrix
from .model import CubicModel
from . import model as model_mod

__all__ = [
    "ObjectiveFunction",
    "available_problems",
    "get_problem",
    "cubic_objective",
    "random_cubic_objective",
    "DEFAULT_SUITE",
    "NONCONVEX_SUITE",
]

_FD_REL_TOL = 1e-4


class ObjectiveFunction:
    """A twice-differentiable objective with analytic derivatives.

    Parameters
    ----------
    name : str
    n : int
        Problem dimension: a Python or NumPy integer, not a bool, at
        least 1 (ValueError otherwise).
    f, grad, hess : callables
        Value, gradient (shape (n,)) and dense symmetric Hessian
        (shape (n, n)) at a point of shape (n,).
    x0 : array_like, shape (n,)
        Default starting point, finite (else ValueError).

    The gradient is checked against a central finite difference of f at
    the starting point (relative tolerance 1e-4); a mismatch, a NaN
    relative error included, raises ValueError at construction, so
    registered problems are consistent by the time any solver sees them.
    """

    def __init__(self, name, n, f, grad, hess, x0):
        self.name = str(name)
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"dimension must be an integer, got {n!r}")
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"dimension must be at least 1, got {self.n}")
        self._f = f
        self._grad = grad
        self._hess = hess
        x0 = np.array(x0, dtype=float).reshape(-1)
        if x0.shape[0] != self.n:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {self.n}")
        if np.count_nonzero(np.isfinite(x0)) < self.n:
            raise ValueError("x0 entries must be finite")
        x0.setflags(write=False)
        self.x0 = x0
        self._validate_gradient()

    def f(self, x):
        return float(self._f(np.asarray(x, dtype=float)))

    def grad(self, x):
        g = np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)
        return g.reshape(self.n)

    def hess(self, x):
        h = np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)
        return h.reshape(self.n, self.n)

    def _validate_gradient(self):
        x = self.x0.astype(float).copy()
        g = self.grad(x)
        fd = np.empty(self.n)
        for i in range(self.n):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (self.f(xp) - self.f(xm)) / (2.0 * h)
        scale = 1.0 + linalg.norm(g)
        err = linalg.norm(fd - g) / scale
        if not err <= _FD_REL_TOL:  # a NaN error is a mismatch too
            raise ValueError(
                f"gradient of {self.name!r} disagrees with finite differences "
                f"at the starting point (relative error {err:.2e})"
            )

    def __repr__(self):
        return f"ObjectiveFunction({self.name!r}, n={self.n})"


def _sphere2():
    def f(x):
        return 0.5 * float(x @ x)

    def grad(x):
        return x.copy()

    def hess(x):
        return np.eye(2)

    return ObjectiveFunction("sphere2", 2, f, grad, hess, [3.0, -4.0])


def _rosenbrock(n, name):
    def f(x):
        return float(
            np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
        )

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess(x):
        h = np.zeros((n, n))
        for i in range(n - 1):
            h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
            h[i + 1, i + 1] += 200.0
            h[i, i + 1] += -400.0 * x[i]
            h[i + 1, i] += -400.0 * x[i]
        return h

    x0 = np.tile([-1.2, 1.0], n // 2 + 1)[:n]
    return ObjectiveFunction(name, n, f, grad, hess, x0)


def _rosen_coupled6():
    base = _rosenbrock(6, "rosen6_base")
    # Couple only the first five coordinates: those grow quartically in
    # the chained Rosenbrock sum, so the concave term cannot dominate
    # and f stays bounded below (the last coordinate enters the chain
    # only quadratically).
    mask = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])

    def f(x):
        t = float(mask @ x)
        return base.f(x) - 0.15 * (t * t)  # t ** 2 raises where t * t overflows to inf

    def grad(x):
        return base.grad(x) - 0.3 * float(mask @ x) * mask

    def hess(x):
        return base.hess(x) - 0.3 * np.outer(mask, mask)

    return ObjectiveFunction("rosen_coupled6", 6, f, grad, hess, base.x0)


def _quartic_nc4():
    n = 4
    t = np.zeros((n, n))
    for i in range(n - 1):
        t[i, i + 1] = 1.0
        t[i + 1, i] = 1.0

    def f(x):
        return float(np.sum(0.25 * x**4 - 0.5 * x**2) + 0.3 * x @ t @ x)

    def grad(x):
        return x**3 - x + 0.6 * t @ x

    def hess(x):
        return np.diag(3.0 * x**2 - 1.0) + 0.6 * t

    return ObjectiveFunction("quartic_nc4", n, f, grad, hess, [0.9, -0.7, 0.8, -0.6])


def cubic_objective(m, name="cubic"):
    """Wrap a CubicModel as an ObjectiveFunction with f = m, started at 0.

    Minimizing f reproduces the model's own landscape, so the outer
    optimizer faces exactly the nonconvexity the escape moves target.
    """

    def f(x):
        return model_mod.eval_model(m, x)

    def grad(x):
        return model_mod.grad(m, x)

    def hess(x):
        return model_mod.hess(m, x).entries

    return ObjectiveFunction(name, m.n, f, grad, hess, np.zeros(m.n))


def random_cubic_objective(n, seed):
    """A random indefinite cubic model with sigma = 1 as an outer objective."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    q = SymmetricMatrix((a + a.T) / 2.0)
    c = rng.uniform(-5.0, 5.0, size=n)
    m = CubicModel(c, q, 1.0)
    return cubic_objective(m, name=f"cubic{n}_s{seed}")


_BUILDERS = {
    "sphere2": _sphere2,
    "rosenbrock2": lambda: _rosenbrock(2, "rosenbrock2"),
    "rosenbrock10": lambda: _rosenbrock(10, "rosenbrock10"),
    "rosen_coupled6": _rosen_coupled6,
    "quartic_nc4": _quartic_nc4,
}

DEFAULT_SUITE = (
    "sphere2",
    "rosenbrock2",
    "rosenbrock10",
    "rosen_coupled6",
    "quartic_nc4",
)

NONCONVEX_SUITE = ("rosen_coupled6", "quartic_nc4")


def available_problems():
    """Names of the registered analytic problems, sorted."""
    return sorted(_BUILDERS)


def get_problem(name):
    """Look up a registered problem by name.

    Raises
    ------
    KeyError
        Unknown name; the message lists the registry.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(available_problems())
        raise KeyError(f"unknown problem {name!r}; registered: {known}") from None
    return builder()
