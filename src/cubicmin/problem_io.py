"""Problem-file serialization.

A problem file is a JSON object with keys ``n`` (dimension), ``c``
(length-n array), ``Q`` (n-by-n nested array, symmetric within 1e-9
relative), ``sigma`` (positive), and an optional ``name``.  Numbers use
'.' decimal notation; serialization writes shortest round-trip floats,
so parse(serialize(p)) is the identity.

A schema error names the first offending entry of ``c`` or ``Q`` in
file order (row-major for ``Q``), and for asymmetry the first pair
``Q[i][j]`` with ``i < j``.  Integer literals beyond float range or
Python's digit limit are schema errors, like non-finite numbers.
"""

import json

import numpy as np

from .exceptions import SchemaError
from .model import CubicModel

__all__ = ["load_problem", "parse_problem", "save_problem", "problem_to_dict"]

_SYM_RTOL = 1e-9
_PLAIN_NUMBER_TYPES = {int, float}


def _require_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(field, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(
            field, "expected a finite number, got an integer beyond float range"
        ) from None
    if not np.isfinite(value):
        raise SchemaError(field, f"expected a finite number, got {value!r}")
    return value


def _require_vector(value, field, n):
    if not isinstance(value, list):
        raise SchemaError(field, f"expected an array, got {type(value).__name__}")
    if len(value) != n:
        raise SchemaError(field, f"expected length {n}, got {len(value)}")
    # Fast path for the common row of plain ints and floats.  NumPy converts
    # each such entry exactly as float() does.  Any other row, or one that
    # fails a check, goes through _require_number entry by entry, which
    # accepts it or names its first offending entry.
    if set(map(type, value)) <= _PLAIN_NUMBER_TYPES:
        try:
            out = np.array(value, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(out).all():
                return out
    return np.array([_require_number(v, f"{field}[{i}]") for i, v in enumerate(value)])


def parse_problem(data):
    """Validate a decoded problem object into (CubicModel, name).

    Raises
    ------
    SchemaError
        Any missing, unknown, or malformed field; the message names the
        offending field (down to the matrix entry for asymmetry).
    """
    if not isinstance(data, dict):
        raise SchemaError("$", f"expected an object, got {type(data).__name__}")
    unknown = set(data) - {"n", "c", "Q", "sigma", "name"}
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown field")
    for key in ("n", "c", "Q", "sigma"):
        if key not in data:
            raise SchemaError(key, "missing required field")

    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError("n", f"expected an integer, got {type(n).__name__}")
    if n < 1:
        raise SchemaError("n", f"dimension must be at least 1, got {n}")

    c = _require_vector(data["c"], "c", n)

    q_rows = data["Q"]
    if not isinstance(q_rows, list):
        raise SchemaError("Q", f"expected an array, got {type(q_rows).__name__}")
    if len(q_rows) != n:
        raise SchemaError("Q", f"expected {n} rows, got {len(q_rows)}")
    q = np.empty((n, n))
    for i, row in enumerate(q_rows):
        q[i] = _require_vector(row, f"Q[{i}]", n)
    gap = np.abs(q - q.T)
    bound = _SYM_RTOL * (1.0 + np.maximum(np.abs(q), np.abs(q.T)))
    asymmetric = np.argwhere(np.triu(gap > bound, 1))
    if asymmetric.size:
        # argwhere lists hits in row-major order: the first is the first pair.
        i, j = asymmetric[0]
        raise SchemaError(
            f"Q[{i}][{j}]",
            f"entry {float(q[i, j])!r} differs from Q[{j}][{i}] = "
            f"{float(q[j, i])!r} beyond the 1e-9 relative symmetry "
            "tolerance",
        )

    sigma = _require_number(data["sigma"], "sigma")
    if not sigma > 0.0:
        raise SchemaError("sigma", f"must be positive, got {sigma!r}")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name", f"expected a string, got {type(name).__name__}")

    return CubicModel(c, (q + q.T) / 2.0, sigma), name


def load_problem(path):
    """Read and validate a problem file; returns (CubicModel, name).

    Raises
    ------
    SchemaError
        Malformed JSON (with line/column) or schema violation.
    OSError
        Unreadable path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            "$", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise SchemaError("$", f"unreadable number: {exc}") from None
    return parse_problem(data)


def problem_to_dict(m, name=None):
    """Encode a CubicModel as a schema-valid plain object."""
    out = {
        "n": m.n,
        "c": m.c.tolist(),
        "Q": m.Q.entries.tolist(),
        "sigma": float(m.sigma),
    }
    if name is not None:
        out["name"] = str(name)
    return out


def save_problem(path, m, name=None):
    """Write a CubicModel to a problem file (round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(m, name), fh, indent=2)
        fh.write("\n")
