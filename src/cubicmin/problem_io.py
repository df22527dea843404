"""Problem-file serialization.

A problem file is a JSON object with keys ``n`` (dimension), ``c``
(length-n array), ``Q`` (n-by-n nested array, symmetric within 1e-9
relative), ``sigma`` (positive), and an optional ``name``.  Numbers use
'.' decimal notation; serialization writes shortest round-trip floats,
so parse(serialize(p)) is the identity.

``save_problem`` encodes with orjson, imported on first use like the
decoder: two-space indent, one number per line, a final newline, and
UTF-8 names.  orjson spells a float's shortest digits in its own way
(``1e-7``, ``1e16``, ``-0.000021374821571048957`` where the stdlib
writes ``1e-07``, ``1e+16``, ``-2.1374821571048957e-05``); a
correctly rounding reader, orjson or the stdlib, reads the same double
from either.  A name orjson refuses to encode (a lone surrogate) is
written by the stdlib encoder, with ``\\uXXXX`` escapes, as every file
was before.

``Q`` is converted in one call: when every row is a list of length n
and one type scan over all entries finds only plain ints and floats, a
single ``np.array`` conversion and one finiteness check validate the
whole matrix.  Any other ``Q`` is checked row by row and entry by entry,
which accepts it with the same floats or names its first offender.  An
exactly symmetric ``Q`` skips the symmetry tolerance's arithmetic, as
``SymmetricMatrix`` does; any other goes through it.

A schema error names the first offending entry of ``c`` or ``Q`` in
file order (row-major for ``Q``), and for asymmetry the first pair
``Q[i][j]`` with ``i < j``.  Integer literals beyond float range or
Python's digit limit are schema errors, like non-finite numbers.

``load_problem`` decodes the file's bytes with orjson, which is imported
on the first load, not with the package.  The stdlib ``json`` decoder is
the reference: every file orjson refuses (``NaN`` and ``Infinity``
literals, numbers beyond double range or the digit limit, a BOM, lone
surrogates, malformed JSON) is decoded again by ``json.loads``, so its
messages, with their line and column, are the reference's.  A file with
more than 1024 opening brackets goes to the reference as well: orjson
3.8 recurses on the C stack without a depth limit.  Both decoders give
the same floats; the one difference is that orjson reads an integer
literal below -2**63 or from 2**64 up as the float of its value, so
``c``, ``Q`` and ``sigma`` are the same, and only such an ``n`` or
``name`` fails with a different message.
"""

import itertools

import numpy as np

from .exceptions import SchemaError
from .model import CubicModel

__all__ = ["load_problem", "parse_problem", "save_problem", "problem_to_dict"]

_SYM_RTOL = 1e-9
# orjson is given files with at most this many '[' and '{' bytes, which
# bounds their nesting depth; deeper input can overflow its C stack.
_ORJSON_MAX_OPENINGS = 1024
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


def _plain_floats(value, types):
    # ``value`` (a list, or a list of equal-length lists) as a float array
    # when ``types``, the set of its entries' types, is within {int, float}
    # and every entry is finite as a float; None otherwise.  NumPy converts
    # each such entry exactly as float() does.  On None the caller goes
    # entry by entry through _require_number, which accepts the input with
    # the same floats or names its first offending entry.
    if not types <= _PLAIN_NUMBER_TYPES:
        return None
    try:
        out = np.array(value, dtype=float)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def _require_vector(value, field, n):
    if not isinstance(value, list):
        raise SchemaError(field, f"expected an array, got {type(value).__name__}")
    if len(value) != n:
        raise SchemaError(field, f"expected length {n}, got {len(value)}")
    out = _plain_floats(value, set(map(type, value)))
    if out is not None:
        return out
    return np.array([_require_number(v, f"{field}[{i}]") for i, v in enumerate(value)])


def _require_matrix(rows, field, n):
    if not isinstance(rows, list):
        raise SchemaError(field, f"expected an array, got {type(rows).__name__}")
    if len(rows) != n:
        raise SchemaError(field, f"expected {n} rows, got {len(rows)}")
    # The whole matrix in one conversion; any other input goes row by row,
    # which names the first offender in file order.
    if all(type(row) is list and len(row) == n for row in rows):
        out = _plain_floats(rows, set(map(type, itertools.chain.from_iterable(rows))))
        if out is not None:
            return out
    q = np.empty((n, n))
    for i, row in enumerate(rows):
        q[i] = _require_vector(row, f"{field}[{i}]", n)
    return q


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

    q = _require_matrix(data["Q"], "Q", n)
    # An exactly symmetric matrix has no gap to bound and goes to CubicModel
    # as it is; the model's SymmetricMatrix symmetrizes it.
    if not (q == q.T).all():
        # Halves throughout: q - q.T could overflow, half - half.T cannot.
        half = 0.5 * q
        gap = np.abs(half - half.T)
        bound = (0.5 * _SYM_RTOL) * (1.0 + np.maximum(np.abs(q), np.abs(q.T)))
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
        q = half + half.T

    sigma = _require_number(data["sigma"], "sigma")
    if not sigma > 0.0:
        raise SchemaError("sigma", f"must be positive, got {sigma!r}")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name", f"expected a string, got {type(name).__name__}")

    return CubicModel(c, q, sigma), name


def _reference_decode(raw):
    # The stdlib decoder on the text that reading the file in text mode
    # gives: UTF-8 with universal newlines, so that line and column count
    # lines as they always have.
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            "$", f"not valid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    import json  # about 1.75 ms, paid only by a file orjson refuses

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            "$", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise SchemaError("$", f"unreadable number: {exc}") from None
    except RecursionError as exc:
        raise SchemaError("$", f"nesting too deep: {exc}") from None


def load_problem(path):
    """Read and validate a problem file; returns (CubicModel, name).

    The bytes are decoded with orjson.  Any file orjson refuses, and any
    file with more than 1024 opening brackets, is decoded by the stdlib
    ``json`` reference instead, whose errors name line and column.  An
    integer literal below -2**63 or from 2**64 up is read as the float of
    its value; it parses to the same ``c``, ``Q`` and ``sigma``, and only
    as ``n`` or ``name`` does it fail with another message.

    Raises
    ------
    SchemaError
        Malformed JSON (with line/column), text that is not UTF-8, nesting
        too deep to decode, or schema violation.
    OSError
        Unreadable path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    codes = np.frombuffer(raw, dtype=np.uint8)
    openings = np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{"))
    if openings > _ORJSON_MAX_OPENINGS:
        return parse_problem(_reference_decode(raw))
    import orjson  # about 4 ms on first use, so not with the package

    try:
        data = orjson.loads(raw)
    except orjson.JSONDecodeError:
        data = _reference_decode(raw)
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
    """Write a CubicModel to a problem file (round-trip exact).

    The file is ``problem_to_dict(m, name)`` as orjson writes it with a
    two-space indent and a final newline: UTF-8, one number per line,
    each float in its shortest round-trip spelling.  A name orjson
    refuses (one holding a lone surrogate) is written by the stdlib
    ``json.dumps(..., indent=2)`` instead, whose ``\\uXXXX`` escapes
    ``load_problem`` reads back.  The text is encoded before the file is
    opened, so a failed encode never leaves a truncated file.
    """
    import orjson  # imported on first use, as in load_problem

    data = problem_to_dict(m, name)
    try:
        raw = orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        import json  # as in _reference_decode

        raw = (json.dumps(data, indent=2) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(raw)
