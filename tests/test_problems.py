"""Registered benchmark objectives and cubic-model wrappers."""

import re
import warnings

import numpy as np
import pytest

from cubicmin import CubicModel, eval_model, grad, hess
from cubicmin.problems import (
    ObjectiveFunction,
    available_problems,
    cubic_objective,
    get_problem,
    random_cubic_objective,
)

from .helpers import random_model


def _fd_grad(f, x, h=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


class TestRegistry:
    def test_expected_names(self):
        assert available_problems() == [
            "quartic_nc4",
            "rosen_coupled6",
            "rosenbrock10",
            "rosenbrock2",
            "sphere2",
        ]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="sphere2"):
            get_problem("nonexistent")

    def test_rosenbrock2_anchor_values(self):
        p = get_problem("rosenbrock2")
        assert np.array_equal(p.x0, [-1.2, 1.0])
        assert p.f(np.array([1.0, 1.0])) == 0.0
        assert p.f(p.x0) == pytest.approx(24.2)
        assert np.allclose(p.grad(np.array([1.0, 1.0])), 0.0)

    def test_sphere2(self):
        p = get_problem("sphere2")
        assert np.array_equal(p.x0, [3.0, -4.0])
        assert p.f(np.zeros(2)) == 0.0
        assert p.f(p.x0) == pytest.approx(12.5)

    @pytest.mark.parametrize("name", available_problems())
    def test_derivatives_consistent(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            x = p.x0 + rng.uniform(-0.5, 0.5, size=p.n)
            g = p.grad(x)
            fd = _fd_grad(p.f, x)
            assert np.max(np.abs(g - fd)) <= 1e-4 * (1.0 + np.max(np.abs(g)))
            H = np.asarray(p.hess(x))
            assert np.max(np.abs(H - H.T)) <= 1e-10
            d = rng.normal(size=p.n)
            d /= np.linalg.norm(d)
            h = 1e-6
            hd = (p.grad(x + h * d) - p.grad(x - h * d)) / (2.0 * h)
            assert np.max(np.abs(H @ d - hd)) <= 1e-3 * (1.0 + np.max(np.abs(H @ d)))

    def test_rosen_coupled6_has_indefinite_hessian_somewhere(self):
        p = get_problem("rosen_coupled6")
        x = np.array([0.178, 1.972, 1.71, -0.011, 1.868, 1.069])
        assert np.linalg.eigvalsh(np.asarray(p.hess(x)))[0] < -1.0

    def test_rosen_coupled6_bounded_below_on_samples(self):
        p = get_problem("rosen_coupled6")
        rng = np.random.default_rng(0)
        vals = [p.f(rng.uniform(-30.0, 30.0, size=6)) for _ in range(2000)]
        assert min(vals) > -1e3
        # growth along the coupled diagonal, the dangerous direction
        t = np.linspace(10.0, 200.0, 20)
        ray = [p.f(np.full(6, ti)) for ti in t]
        assert all(b > a for a, b in zip(ray, ray[1:]))


class TestObjectiveFunction:
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_dimension_below_one(self, n):
        with pytest.raises(ValueError, match=rf"^dimension must be at least 1, got {n}$"):
            ObjectiveFunction("empty", n, lambda x: 0.0, np.zeros_like, np.zeros_like, [])

    @pytest.mark.parametrize("n", [2.5, True, "2", 2.0], ids=repr)
    def test_rejects_dimension_not_an_integer(self, n):
        message = f"^dimension must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            ObjectiveFunction("x", n, lambda x: 0.0, np.zeros_like, np.zeros_like, [0.0, 0.0])

    def test_accepts_numpy_integer_dimension(self):
        p = ObjectiveFunction("x", np.int64(2), lambda x: 0.0, np.zeros_like, np.zeros_like,
                              [0.0, 0.0])
        assert p.n == 2 and type(p.n) is int

    @staticmethod
    def _square(grad, x0):
        return ObjectiveFunction("sq", 2, lambda x: x @ x, grad, lambda x: 2.0 * np.eye(2), x0)

    def test_rejects_x0_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"^x0 has length 1, expected 2$"):
            self._square(lambda x: 2.0 * x, [1.0])

    def test_rejects_gradient_off_finite_differences(self):
        # The gradient 3x of x'x is off by half at (1, 2).
        with pytest.raises(ValueError, match=(
            r"^gradient of 'sq' disagrees with finite differences at the starting point"
        )):
            self._square(lambda x: 3.0 * x, [1.0, 2.0])


    def test_rejects_nan_gradient(self):
        # Its relative error is NaN, which no tolerance passes.
        with pytest.raises(ValueError, match=(
            r"^gradient of 'sq' disagrees with finite differences at the starting point"
        )):
            self._square(lambda x: np.full(2, np.nan), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_x0(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x0 entries must be finite$"):
                self._square(lambda x: 2.0 * x, [1.0, bad])


class TestCubicObjective:
    def test_wraps_model_exactly(self):
        m = random_model(np.random.default_rng(12), n=4)
        p = cubic_objective(m)
        assert p.n == 4
        x = np.array([0.3, -0.1, 0.7, 0.2])
        assert p.f(x) == eval_model(m, x)
        assert np.array_equal(p.grad(x), grad(m, x))
        assert np.array_equal(np.asarray(p.hess(x)), hess(m, x).entries)
        assert np.array_equal(p.x0, np.zeros(4))

    def test_random_cubic_objective_seeded(self):
        a = random_cubic_objective(5, seed=3)
        b = random_cubic_objective(5, seed=3)
        c = random_cubic_objective(5, seed=4)
        x = np.linspace(-1.0, 1.0, 5)
        assert a.f(x) == b.f(x)
        assert a.f(x) != c.f(x)
        assert a.n == 5
