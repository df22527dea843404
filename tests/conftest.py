"""Session set-up shared by the test modules.

pytest puts ``src/`` on ``sys.path`` (``pythonpath`` in pyproject.toml),
but the CLI tests start ``python -m cubicmin`` in child processes, which
do not inherit it.  Prepending the imported package's source root to
``PYTHONPATH`` lets them find the same package when it is not installed.

Every test must also leave NumPy's floating-point error state as it found
it: an ``np.errstate`` that leaks, or a bare ``np.seterr``, would change
what later tests see warned or raised.
"""

import os

import numpy as np
import pytest

import cubicmin

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cubicmin.__file__)))


@pytest.fixture(autouse=True, scope="session")
def _cli_children_import_this_package():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def _numpy_error_state_is_restored():
    before = np.geterr()
    yield
    after = np.geterr()
    if after != before:
        np.seterr(**before)  # so that one leak fails one test
        pytest.fail(f"the test left NumPy's error state {after}, it found {before}")
