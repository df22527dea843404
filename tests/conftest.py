"""Session set-up shared by the test modules.

pytest puts ``src/`` on ``sys.path`` (``pythonpath`` in pyproject.toml),
but the CLI tests start ``python -m cubicmin`` in child processes, which
do not inherit it.  Prepending the imported package's source root to
``PYTHONPATH`` lets them find the same package when it is not installed.
"""

import os

import pytest

import cubicmin

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cubicmin.__file__)))


@pytest.fixture(autouse=True, scope="session")
def _cli_children_import_this_package():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield
