"""The tolerance policy: its table in ``model`` gives the bits of the
formulas it replaced, no other module states a model-scale threshold, and
a tolerance relative to an overflowing ``||c||`` raises.  Beside it, the
range policy of norms: no module but ``linalg`` takes a Euclidean norm,
the construction policy: every instance comes from its constructor,
none from ``object.__new__`` or a write to its ``__dict__``, and the
import policy: no module imports ``dataclasses``."""

import ast
import pathlib

import numpy as np
import pytest

import cubicmin
from cubicmin import CubicModel, model
from cubicmin.driver import ARC, ARC_PLUS, ArcOptions, arc_plus_minimize, solve_via_escapes
from cubicmin.escape import escape_exact
from cubicmin.exceptions import ConvergenceError
from cubicmin.model import StationaryPoint, is_global
from cubicmin.stationary import enumerate_stationary, global_minimize

from .helpers import (
    REF_POLE_MERGE,
    REF_SINGULAR_MODE_TOL,
    class_model,
    ref_adaptive_eps_curv,
    ref_boundary_slack,
    ref_default_tol_grad,
    ref_default_tol_psd,
    ref_eps_inner,
    ref_multiplier_tie,
    ref_pole_tol,
    ref_zero_tol,
)
from .test_stationary import _POWERS, _small_units_models

CLASSES = ("generic", "hard", "near_hard", "zero_c", "scaled_Q", "tiny_sigma")


def _policy(m):
    """Every entry of the table at the quantities of m, and the reference formula's value."""
    lam = max(0.0, -m.eig.mu_1)
    eps = m.default_tol_grad()
    rows = [
        ("gradient gate", m.default_tol_grad(), ref_default_tol_grad(m)),
        ("psd gate", m.default_tol_psd(), ref_default_tol_psd(m)),
        ("coupling", m.coupling_tol(), ref_pole_tol(m)),
        ("zero step", m.zero_step_tol(), ref_zero_tol(m)),
        ("ARC target", m.arc_target(), ref_eps_inner(m)),
    ]
    for x in (lam, -m.eig.mu_1, m.norm_c, lam / m.sigma):
        rows.append(("boundary slack", model.boundary_slack(x), ref_boundary_slack(x)))
        rows.append(("multiplier tie", model.multiplier_tie(x), ref_multiplier_tie(x)))
    v_1 = m.eig.vectors[:, 0]
    for s in (np.zeros(m.n), 1e-12 * v_1, v_1, 1e6 * v_1, m.c / (1.0 + m.norm_c)):
        for e in (eps, 1e-3 * eps, 10.0 * eps):
            rows.append(("escape curvature", model.escape_eps_curv(e, s),
                         ref_adaptive_eps_curv(e, s)))
    return [(name, float(got).hex(), float(want).hex()) for name, got, want in rows]


def _assert_policy(m):
    for name, got, want in _policy(m):
        assert got == want, (name, m)


def test_constants_match_reference():
    assert model.SINGULAR_MODE_TOL.hex() == REF_SINGULAR_MODE_TOL.hex()
    assert model._POLE_MERGE.hex() == REF_POLE_MERGE.hex()
    # stationary reads the table's constants under their old names.
    assert cubicmin.stationary.SINGULAR_MODE_TOL is model.SINGULAR_MODE_TOL
    assert cubicmin.stationary._POLE_MERGE is model._POLE_MERGE


@pytest.mark.parametrize("cls", CLASSES)
def test_class_models_match_reference(cls):
    rng = np.random.default_rng([9700, CLASSES.index(cls)])
    for n in np.repeat(np.arange(2, 7), 4):
        _assert_policy(class_model(rng, cls, int(n)))


@pytest.mark.parametrize("e_alpha", _POWERS)
@pytest.mark.parametrize("e_k", _POWERS)
def test_small_units_models_match_reference(e_alpha, e_k):
    alpha, k = 2.0**e_alpha, 2.0**e_k
    for _, m in _small_units_models():
        q = alpha**2 * m.Q.entries / k
        _assert_policy(CubicModel(alpha * m.c / k, (q + q.T) / 2.0, alpha**3 * m.sigma / k))


@pytest.mark.parametrize(
    "c, Q, sigma",
    [
        ([0.0, 0.0], np.diag([-1.0, 2.0]), 1.0),  # c = 0
        ([1e308, 0.0], np.eye(2), 1.0),  # ||c|| = 1e308
        ([1.2e308, 1.2e308], np.diag([-3.0, 1.0]), 0.5),  # ||c|| near 1.7e308
        ([1.0, -2.0], np.diag([-1.0, 2.0]), 1e-300),  # tiny sigma: zero step 1e290
        ([1.0, -2.0], np.diag([-1e20, 2.0]), 1e-300),  # |mu_1|/sigma overflows
        ([1.0, -2.0], np.diag([0.0, 3.0]), 1.0),  # mu_1 = 0
        ([0.0, 0.0], np.zeros((2, 2)), 1.0),  # c = 0 and mu_1 = 0
    ],
)
def test_edge_models_match_reference(c, Q, sigma):
    _assert_policy(CubicModel(c, Q, sigma))


def test_secular_record_reads_coupling():
    m = class_model(np.random.default_rng(9710), "near_hard", 4)
    sp = cubicmin.SecularProblem.from_model(m)
    assert sp.pole_tol.hex() == ref_pole_tol(m).hex()


# The float literals below 1e-3 that may stay outside model.py, each with
# its reason, keyed by module, enclosing definition (or assigned name) and
# value.  A threshold on a quantity of a model belongs in model's table.
_ALLOWED = {
    ("cli.py", "_build_parser", 1e-5): "--tol default, the outer loop's gradient target",
    ("driver.py", "_ArcOptions", 1e-5): "tol_grad_inf default, the outer loop's gradient target",
    ("driver.py", "_SIGMA_MIN", 1e-8): "ARC's floor on sigma, an algorithm constant",
    ("driver.py", "performance_profile", 1e-12): "the profile's ratio grid",
    ("linalg.py", "_SYMMETRY_RTOL", 1e-12): "input contract: symmetry of a matrix",
    ("linalg.py", "_SQUARE_MIN", 1e-150): "norm's underflow scaling bound",
    ("local_solver.py", "_ARMIJO_C", 1e-4): "the line search's Armijo constant",
    ("local_solver.py", "_PD_RTOL", 1e-12): "the Newton step's relative definiteness test",
    ("problem_io.py", "_SYM_RTOL", 1e-9): "input contract: symmetry of a file's Q",
    ("problems.py", "_FD_REL_TOL", 1e-4): "input contract: gradient against finite differences",
    ("problems.py", "_validate_gradient", 1e-6): "the finite-difference step",
    ("stationary.py", "_EMPTY_MARGIN", 1e-9): "relative margin of the emptiness bound",
}


def _owned_nodes(path):
    """(owner, node) for each node of a module.

    The owner is the innermost enclosing def or class, or the name a
    module-level assignment binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            elif node is tree and isinstance(child, (ast.Assign, ast.AnnAssign)):
                target = child.targets[0] if isinstance(child, ast.Assign) else child.target
                inner = getattr(target, "id", owner)
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, None)


def _small_literals(path):
    """(module, owner, value, line) of each float literal below 1e-3 in magnitude."""
    return [(path.name, owner, node.value, node.lineno) for owner, node in _owned_nodes(path)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-3]


def test_no_model_scale_literal_outside_model():
    src = pathlib.Path(cubicmin.__file__).parent
    hits = [hit for path in sorted(src.glob("*.py")) if path.name != "model.py"
            for hit in _small_literals(path)]
    stray = [hit for hit in hits if hit[:3] not in _ALLOWED]
    assert stray == [], "state these thresholds in model.py's tolerance table"
    # Every allowed literal is still there: the list does not go stale,
    # and the scan read the modules.
    assert {hit[:3] for hit in hits} == set(_ALLOWED)


# The Euclidean norms taken outside ``linalg.norm``, each with its reason,
# keyed by module and enclosing definition.  linalg.norm is finite wherever
# the norm is and warns on no input; a norm taken by hand is neither.
_NORM_ALLOWED = {
    ("stationary.py", "_newton_root"): "the top-root search relies on errstate(over='raise') "
                                       "to detect a lost root, so it needs the unscaled square",
}


def _is_sum_of_squares(node):
    """``x.dot(x)``, ``np.dot(x, x)``, ``np.vdot(x, x)``, ``np.inner(x, x)`` or ``x @ x``,
    inside any ``float()``."""
    while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "float" and len(node.args) == 1):
        node = node.args[0]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        pair = [node.left, node.right]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in ("dot", "vdot", "inner")):
        pair = node.args if len(node.args) == 2 else [node.func.value, *node.args]
    else:
        return False
    return len(pair) == 2 and ast.dump(pair[0]) == ast.dump(pair[1])


def _takes_norm(node):
    """Whether the node takes a Euclidean norm itself: ``np.linalg.norm``,
    a ``hypot``, or the square root of a sum of squares."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.linalg" and any(a.name == "norm" for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "hypot" or (
            node.attr == "norm" and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
            and getattr(node.value.value, "id", "") in ("np", "numpy"))
    if isinstance(node, ast.Name):
        return node.id == "hypot"
    if isinstance(node, ast.Call) and len(node.args) == 1:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "sqrt" and _is_sum_of_squares(node.args[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (isinstance(node.right, ast.Constant) and node.right.value == 0.5
                and _is_sum_of_squares(node.left))
    return False


def _hand_norms(path):
    """(module, owner, line) of each Euclidean norm a module takes itself."""
    return [(path.name, owner, node.lineno) for owner, node in _owned_nodes(path)
            if _takes_norm(node)]


def test_no_euclidean_norm_outside_linalg():
    src = pathlib.Path(cubicmin.__file__).parent
    hits = [hit for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
            for hit in _hand_norms(path)]
    stray = [hit for hit in hits if hit[:2] not in _NORM_ALLOWED]
    assert stray == [], "take Euclidean norms with linalg.norm"
    assert {hit[:2] for hit in hits} == set(_NORM_ALLOWED)


@pytest.mark.parametrize(
    "line",
    ["r = np.linalg.norm(s)", "from numpy.linalg import norm", "r = math.hypot(a, b)",
     "r = hypot(a, b)", "r = math.sqrt(s.dot(s))", "r = np.sqrt(float(np.dot(s, s)))",
     "r = sqrt(s @ s)", "r = np.vdot(s, s) ** 0.5", "r = math.sqrt(np.inner(s, s))"],
)
def test_norm_scan_sees_each_form(tmp_path, line):
    path = tmp_path / "mod.py"
    path.write_text(f"def f(s, a, b):\n    {line}\n", encoding="utf-8")
    assert [hit[:2] for hit in _hand_norms(path)] == [("mod.py", "f")]


def test_norm_scan_passes_other_products(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(s, d):\n    return linalg.norm(s), cubicmin.linalg.norm(s), "
                    "math.sqrt(s.dot(d)), s.dot(s)\n", encoding="utf-8")
    assert _hand_norms(path) == []


_DICT_MUTATORS = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__")


def _is_instance_dict(node):
    """``x.__dict__`` or ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "vars" and len(node.args) == 1)


def _bypasses_constructor(node):
    """Whether the node builds or fills an instance around its constructor:
    ``object.__new__(...)``, or a write to an instance's ``__dict__``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr == "__new__" and getattr(func.value, "id", None) == "object":
            return True
        return func.attr in _DICT_MUTATORS and _is_instance_dict(func.value)
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Subscript):
        return not isinstance(node.ctx, ast.Load) and _is_instance_dict(node.value)
    return False


def _constructor_bypasses(path):
    """(module, owner, line) of each instance a module builds or fills around its constructor."""
    return [(path.name, owner, node.lineno) for owner, node in _owned_nodes(path)
            if _bypasses_constructor(node)]


def test_records_come_from_their_constructors():
    src = pathlib.Path(cubicmin.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 10
    hits = [hit for path in paths for hit in _constructor_bypasses(path)]
    assert hits == [], "build each instance with its own constructor"


@pytest.mark.parametrize(
    "line",
    ["obj = object.__new__(cls)", "obj.__dict__.update(fields)", "obj.__dict__['s'] = s",
     "obj.__dict__ = dict(fields)", "vars(obj).setdefault('s', s)", "vars(obj)['s'] = s",
     "del obj.__dict__['s']"],
)
def test_constructor_scan_sees_each_form(tmp_path, line):
    path = tmp_path / "mod.py"
    path.write_text(f"def f(cls, obj, fields, s):\n    {line}\n", encoding="utf-8")
    assert [hit[:2] for hit in _constructor_bypasses(path)] == [("mod.py", "f")]


def test_constructor_scan_passes_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(cls, obj, fields):\n    return cls(*fields), obj.__dict__['s'], "
                    "dict(vars(obj)), cls.__new__(cls), fields.update(obj)\n", encoding="utf-8")
    assert _constructor_bypasses(path) == []


def _imports_dataclasses(node):
    """``import dataclasses`` (aliased or not, alone or in a list) or
    ``from dataclasses import ...``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "dataclasses"


def _dataclass_imports(path):
    """(module, owner, line) of each import of ``dataclasses`` in a module."""
    return [(path.name, owner, node.lineno) for owner, node in _owned_nodes(path)
            if _imports_dataclasses(node)]


def test_package_does_not_import_dataclasses():
    # A frozen dataclass generates and execs its methods when its class
    # statement runs, which ``import cubicmin`` would pay; records are NamedTuples.
    src = pathlib.Path(cubicmin.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 10
    hits = [hit for path in paths for hit in _dataclass_imports(path)]
    assert hits == [], "make the record a NamedTuple"


@pytest.mark.parametrize(
    "line",
    ["import dataclasses", "import dataclasses as dc", "import os, dataclasses",
     "from dataclasses import dataclass, field", "from dataclasses import *"],
)
def test_dataclass_scan_sees_each_form(tmp_path, line):
    path = tmp_path / "mod.py"
    path.write_text(f"def f():\n    {line}\n", encoding="utf-8")
    assert [hit[:2] for hit in _dataclass_imports(path)] == [("mod.py", "f")]


def test_dataclass_scan_passes_other_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import typing\nfrom typing import NamedTuple\nfrom . import dataclasses\n"
                    "from .dataclasses import x\nname = 'dataclasses'\n", encoding="utf-8")
    assert _dataclass_imports(path) == []


BIG_C = CubicModel([1.5e308, 1.5e308], np.eye(2), 0.01)
OVERFLOW = "^\\|\\|c\\|\\| overflows, so no tolerance relative to it is finite$"


class TestOverflowingNormC:
    """Finite entries of c whose norm overflows: every tolerance relative
    to ||c|| raises, so no solve certifies s = 0 at tol_grad = inf."""

    def test_model_still_builds(self):
        assert BIG_C.norm_c == np.inf
        assert np.isfinite(BIG_C.default_tol_psd())

    @pytest.mark.parametrize("entry", ["default_tol_grad", "coupling_tol", "arc_target"])
    def test_entries_relative_to_norm_c_raise(self, entry):
        with pytest.raises(ConvergenceError, match=OVERFLOW):
            getattr(BIG_C, entry)()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: global_minimize(BIG_C),
            lambda: enumerate_stationary(BIG_C),
            lambda: solve_via_escapes(BIG_C, np.zeros(2)),
            lambda: is_global(BIG_C, np.zeros(2)),
            lambda: escape_exact(BIG_C, StationaryPoint.from_vector(BIG_C, np.zeros(2))),
        ],
        ids=["global_minimize", "enumerate_stationary", "solve_via_escapes", "is_global",
             "escape_exact"],
    )
    def test_solves_raise(self, call):
        with pytest.raises(ConvergenceError, match=OVERFLOW):
            call()

    @pytest.mark.parametrize("variant", [ARC, ARC_PLUS])
    def test_outer_loop_raises_at_iteration_1(self, variant):
        f = cubicmin.get_problem("sphere2")
        hess, calls = f._hess, []
        f._hess = lambda x: calls.append(1) or hess(x)
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match=OVERFLOW):
            arc_plus_minimize(f, [1.5e308, 1.5e308], variant, ArcOptions(max_iters=50))
        assert len(calls) == 1
