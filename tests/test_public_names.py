"""Names other code depends on: the package's ``__all__`` and the
functions the benchmark's per-layer tracer wraps."""

import importlib
import importlib.util
import os

import pytest

import cubicmin
from cubicmin import driver, linalg, local_solver

_TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


def _load_tracer():
    """perfbench/tracer.py as a module, executed from its source so no
    bytecode is written next to it."""
    spec = importlib.util.spec_from_loader("perfbench_tracer", loader=None)
    module = importlib.util.module_from_spec(spec)
    with open(_TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), _TRACER, "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", cubicmin.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(cubicmin, name)


@pytest.mark.parametrize("layer, module, attr", tracer.WRAPPED_FUNCTIONS)
def test_every_traced_function_exists(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_callbacks_are_defined_on_their_class():
    module, cls_name = tracer.CALLBACK_CLASS
    cls = getattr(importlib.import_module(module), cls_name)
    for meth in tracer.CALLBACK_METHODS:
        assert meth in vars(cls), f"{module}.{cls_name}.{meth}"


def test_traced_run_counts_every_layer_and_restores_bindings():
    # install() raises MissingFunction when a wrapped name is gone; the
    # outer loop must reach each layer through a binding the tracer rebinds.
    f = cubicmin.get_problem("rosen_coupled6")
    with tracer.Tracer() as tr:
        rep = cubicmin.arc_plus_minimize(f, None, cubicmin.ARC_PLUS)
    by_name, _ = tr.summary()
    for span in ("driver.arc_plus_minimize", "driver.solve_via_escapes",
                 "local_solver.local_minimize", "escape.escape_approx",
                 "linalg.sym_eigen", "problems.callbacks"):
        assert by_name[span][0] > 0, span
    assert tr.counts["driver.outer_iters"] == rep.iterations
    assert tr.counts["local_solver.local_minimize.iters"] > 0
    assert not hasattr(linalg.sym_eigen, "__wrapped__")
    assert driver.local_minimize is local_solver.local_minimize
    assert not hasattr(cubicmin.ObjectiveFunction.hess, "__wrapped__")


def _results():
    """One real result of each record type whose fields other code reads."""
    m = cubicmin.CubicModel([-2.0, 0.0], [[1.0, 0.0], [0.0, -3.0]], 1.0)
    sol = cubicmin.global_minimize(m)
    points = cubicmin.enumerate_stationary(m)
    escape = cubicmin.escape_exact(m, next(p for p in points if p.s is not sol.s_star))
    _, trace = cubicmin.solve_via_escapes(m, [0.9, 0.02])
    f = cubicmin.get_problem("sphere2")
    return {
        "GlobalSolution": sol,
        "GlobalCertificate": sol.certificate,
        "StationaryPoint": points[0],
        "EscapeOutcome": escape,
        "SubproblemTrace": trace,
        "LocalSolveReport": local_solver.local_minimize(m, [0.9, 0.02], 1e-10),
        "OuterReport": cubicmin.arc_plus_minimize(f, f.x0, cubicmin.ARC_PLUS),
    }


# The fields perfbench/workloads.py, perfbench/tracer.py and cli.py read.
READ_FIELDS = {
    "GlobalSolution": ("s_star", "objective", "lambda_star", "hard_case", "certificate"),
    "GlobalCertificate": ("is_global", "residual", "psd_margin"),
    "StationaryPoint": ("s", "lam", "objective"),
    "EscapeOutcome": ("case_tag", "decrease", "s_hat"),
    "SubproblemTrace": ("steps", "escape_count"),
    "LocalSolveReport": ("iterations", "converged"),
    "OuterReport": ("converged", "iterations", "f_final", "x_final", "f_history",
                    "accepted_psd_margins", "grad_inf_norm", "variant"),
}


@pytest.fixture(scope="module")
def results():
    return _results()


@pytest.mark.parametrize(
    "record, name", [(record, name) for record, names in READ_FIELDS.items() for name in names]
)
def test_read_result_field_exists(results, record, name):
    result = results[record]
    assert type(result).__name__ == record
    assert hasattr(result, name), f"{record}.{name}"
