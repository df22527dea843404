"""Names other code depends on: the package's ``__all__`` and the
functions the benchmark's per-layer tracer wraps."""

import ast
import importlib
import os

import pytest

import cubicmin

_TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


def _tracer_constant(name):
    """The literal assigned to ``name`` in perfbench/tracer.py, read without importing it."""
    with open(_TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {_TRACER}")


@pytest.mark.parametrize("name", cubicmin.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(cubicmin, name)


@pytest.mark.parametrize("layer, module, attr", _tracer_constant("WRAPPED_FUNCTIONS"))
def test_every_traced_function_exists(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_callbacks_are_defined_on_their_class():
    module, cls_name = _tracer_constant("CALLBACK_CLASS")
    cls = getattr(importlib.import_module(module), cls_name)
    for meth in _tracer_constant("CALLBACK_METHODS"):
        assert meth in vars(cls), f"{module}.{cls_name}.{meth}"
