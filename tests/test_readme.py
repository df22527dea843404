"""The README's "Library quick start" runs and gives the values its comments state."""

import os
import re

import pytest

from cubicmin import count_bound

_README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _quick_start():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start():
    names = {}
    exec(compile(_quick_start(), _README, "exec"), names)
    sol, out, trace, m = names["sol"], names["out"], names["trace"], names["m"]
    assert sol.objective == pytest.approx(-5.0)
    assert sol.lambda_star == pytest.approx(3.0)
    assert sol.certificate.is_global is True
    assert out.case_tag == "B_III"
    assert out.decrease == pytest.approx(0.48)
    assert trace.escape_count <= count_bound(m) + 2
