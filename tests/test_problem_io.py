"""Problem-file schema validation and round-tripping."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import orjson
import pytest

from cubicmin import CubicModel, problem_io
from cubicmin.exceptions import SchemaError
from cubicmin.problem_io import (
    _require_number,
    load_problem,
    parse_problem,
    problem_to_dict,
    save_problem,
)

from .helpers import random_model

TINY = 5e-324  # the least subnormal
_ORJSON_INDENT = orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE
GOOD = {"n": 2, "c": [-2.0, 0.0], "Q": [[1.0, 0.0], [0.0, -3.0]], "sigma": 1.0}


_NUMBER_TOKEN = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mask_numbers(text):
    return _NUMBER_TOKEN.sub("0", text)


def _float_bits(value):
    """``value`` with each float replaced by its bit pattern, for bitwise equality."""
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, list):
        return [_float_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    return value


def _variant(**overrides):
    d = dict(GOOD)
    d.update(overrides)
    return d


class TestParse:
    def test_minimal_valid(self):
        m, name = parse_problem(GOOD)
        assert m.n == 2
        assert m.sigma == 1.0
        assert name is None
        assert np.array_equal(m.c, [-2.0, 0.0])
        assert np.array_equal(m.Q.entries, [[1.0, 0.0], [0.0, -3.0]])

    def test_name_passthrough(self):
        _, name = parse_problem(_variant(name="worked"))
        assert name == "worked"

    def test_symmetrizes_small_gap(self):
        m, _ = parse_problem(_variant(Q=[[1.0, 0.5], [0.5 + 1e-11, -3.0]]))
        assert m.Q.entries[0, 1] == m.Q.entries[1, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetrization_bitwise_equal_to_mean(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = 6
        q = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-50, 50)
        q = q + q.T
        q = q * (1.0 + 1e-11 * rng.uniform(-1.0, 1.0, size=(n, n)))
        m, _ = parse_problem(_variant(n=n, c=[1.0] * n, Q=q.tolist()))
        mean = (q + q.T) / 2.0
        assert [x.hex() for x in m.Q.entries.ravel()] == [x.hex() for x in mean.ravel()]

    @pytest.mark.parametrize(
        "q, entries",
        [
            # exactly symmetric: halving an odd multiple of TINY rounds to
            # even, so it lands on an even multiple; -0.0 == 0.0, so a pair
            # of opposite zeros is symmetric and reads +0.0 on both sides
            ([[3 * TINY, -0.0], [0.0, -0.0]], [[4 * TINY, 0.0], [0.0, -0.0]]),
            ([[TINY, 2 * TINY], [2 * TINY, -5 * TINY]], [[0.0, 2 * TINY], [2 * TINY, -4 * TINY]]),
            # asymmetric within the tolerance
            ([[2 * TINY, TINY], [3 * TINY, -0.0]], [[2 * TINY, 2 * TINY], [2 * TINY, -0.0]]),
            ([[-0.0, -0.0], [TINY, 1.0]], [[-0.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_symmetrization_of_subnormals_and_signed_zeros(self, q, entries):
        m, _ = parse_problem(_variant(Q=q))
        assert [x.hex() for x in m.Q.entries.ravel()] == [
            float(x).hex() for x in np.ravel(entries)
        ]

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_entries_near_float_limit(self, big):
        m, _ = parse_problem({"n": 1, "c": [1.0], "Q": [[big]], "sigma": 1.0})
        assert m.Q.entries[0, 0] == big

    def test_asymmetric_pair_near_float_limit_names_entry(self):
        with pytest.raises(SchemaError) as exc:
            parse_problem(_variant(Q=[[0.0, 1e308], [-1e308, 0.0]]))
        assert exc.value.field == "Q[0][1]"

    @pytest.mark.parametrize(
        "data, field",
        [
            ({}, "n"),
            (_variant(n=3), "c"),
            (_variant(n=2.5), "n"),
            (_variant(n=-1), "n"),
            (_variant(sigma=0.0), "sigma"),
            (_variant(sigma=-1.0), "sigma"),
            (_variant(sigma="x"), "sigma"),
            (_variant(c=[1.0]), "c"),
            (_variant(c=[1.0, float("nan")]), "c"),
            (_variant(Q=[[1.0, 0.0]]), "Q"),
            (_variant(Q=[[1.0, 0.5], [0.0, -3.0]]), "Q"),
            (_variant(extra=1), "extra"),
            (_variant(name=7), "name"),
            ([1, 2, 3], "$"),
        ],
    )
    def test_violation_names_offending_field(self, data, field):
        with pytest.raises(SchemaError) as err:
            parse_problem(data)
        assert str(err.value).startswith(field)

    def test_asymmetry_message_names_entry(self):
        with pytest.raises(SchemaError, match=r"Q\[0\]\[1\]"):
            parse_problem(_variant(Q=[[1.0, 0.5], [0.0, -3.0]]))


class TestRoundTrip:
    def test_encode_decode_identity(self):
        m, _ = parse_problem(GOOD)
        again, name = parse_problem(problem_to_dict(m, name="w"))
        assert name == "w"
        assert np.array_equal(again.c, m.c)
        assert np.array_equal(again.Q.entries, m.Q.entries)
        assert again.sigma == m.sigma

    @pytest.mark.parametrize("seed", range(25))
    def test_json_file_round_trip_is_lossless(self, seed, tmp_path):
        rng = np.random.default_rng(8000 + seed)
        m = random_model(rng)
        # values with no short decimal form must survive exactly
        path = tmp_path / "prob.json"
        save_problem(path, m, name=f"r{seed}")
        m2, name = load_problem(path)
        assert name == f"r{seed}"
        assert np.array_equal(m2.c, m.c)
        assert np.array_equal(m2.Q.entries, m.Q.entries)
        assert m2.sigma == m.sigma

    def test_serialized_form_is_plain_json(self, tmp_path):
        m, _ = parse_problem(GOOD)
        path = tmp_path / "p.json"
        save_problem(path, m)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "c", "Q", "sigma"}
        assert data["n"] == 2

    def test_golden_file_text(self, tmp_path):
        # orjson's spelling of the shortest digits: no exponent padding or
        # '+', and plain decimals where the stdlib writes 2.1374821571048957e-05.
        m = CubicModel([1e-07, -2.1374821571048957e-05], [[1e16, -0.0], [-0.0, 0.0]],
                       1.7976931348623157e308)
        path = tmp_path / "golden.json"
        save_problem(path, m)
        assert path.read_bytes() == GOLDEN_2X2.encode()
        again, name = load_problem(path)
        assert name is None
        assert again.c.tobytes() == m.c.tobytes()
        assert again.Q.entries.tobytes() == m.Q.entries.tobytes()
        assert again.sigma == m.sigma

    @pytest.mark.parametrize(
        "name", [None, "", "w", "\u00e9", "\ud800", "a\ud800b", "\udfff", "\U0001f600",
                 "a\tb\n", '"\\', "\x00\x7f"],
    )
    def test_both_readers_read_what_save_writes(self, name, tmp_path):
        m = random_model(np.random.default_rng(4242), n=3)
        path = tmp_path / "p.json"
        save_problem(path, m, name=name)
        for data in (json.loads(path.read_bytes()), problem_to_dict(*load_problem(path))):
            assert _float_bits(data) == _float_bits(problem_to_dict(m, name))

    def test_non_ascii_name_is_raw_utf8(self, tmp_path):
        m, _ = parse_problem(GOOD)
        path = tmp_path / "p.json"
        save_problem(path, m, name="\u00e9")
        assert b'"name": "\xc3\xa9"' in path.read_bytes()
        assert load_problem(path)[1] == "\u00e9"

    def test_lone_surrogate_name_falls_back_to_stdlib(self, tmp_path):
        # orjson refuses to encode a lone surrogate; the stdlib escapes it.
        m, _ = parse_problem(GOOD)
        path = tmp_path / "p.json"
        save_problem(path, m, name="\ud800")
        data = problem_to_dict(m, "\ud800")
        assert path.read_text() == json.dumps(data, indent=2) + "\n"
        assert load_problem(path)[1] == "\ud800"

    def test_failed_encode_leaves_existing_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise ValueError("no text")

        m, _ = parse_problem(GOOD)
        path = tmp_path / "p.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="no text"):
            save_problem(path, m, name=Unprintable())
        assert path.read_text() == "kept\n"


GOLDEN_2X2 = """{
  "n": 2,
  "c": [
    1e-7,
    -0.000021374821571048957
  ],
  "Q": [
    [
      1e16,
      -0.0
    ],
    [
      -0.0,
      0.0
    ]
  ],
  "sigma": 1.7976931348623157e308
}
"""


def _nested_c(depth, sigma="1.0"):
    return '{"n": 1, "c": ' + "[" * depth + "]" * depth + f', "Q": [[1.0]], "sigma": {sigma}}}'


class TestLoad:
    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="line 1"):
            load_problem(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "absent.json")

    def test_integer_beyond_digit_limit_is_schema_error(self, tmp_path):
        # json.loads raises a plain ValueError past Python's 4,300-digit
        # integer string conversion limit.
        path = tmp_path / "digits.json"
        path.write_text(
            '{"n": 2, "c": [1' + "0" * 5000 + ', 0.0], "Q": [[1.0, 0.0], [0.0, 1.0]],'
            ' "sigma": 1.0}\n'
        )
        with pytest.raises(SchemaError) as info:
            load_problem(path)
        assert info.value.field == "$"
        assert str(info.value).startswith("$: ")

    def test_deep_file_orjson_reads_names_field(self, tmp_path):
        # 1,000 levels: beyond the stdlib decoder's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text(_nested_c(1000))
        with pytest.raises(SchemaError) as info:
            load_problem(path)
        assert str(info.value) == "c[0]: expected a number, got list"

    @pytest.mark.parametrize("depth, sigma", [(1000, "NaN"), (100_000, "1.0")])
    def test_deep_file_on_reference_is_schema_error(self, depth, sigma, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(_nested_c(depth, sigma))
        with pytest.raises(SchemaError) as info:
            load_problem(path)
        assert info.value.field == "$"
        assert str(info.value).startswith("$: nesting too deep: maximum recursion depth")

    def test_not_utf8_is_schema_error(self, tmp_path):
        raw = b'{"n": 1, "c": [1.0], "Q": [[1.0]], "sigma": 1.0, "name": "caf\xe9"}'
        path = tmp_path / "latin1.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError) as info:
            load_problem(path)
        assert str(info.value) == (
            f"$: not valid UTF-8 at byte {raw.index(0xE9)}: invalid continuation byte"
        )


def _reference_parse(data):
    """The entry-by-entry validation of c, Q and sigma, kept as the oracle.

    One ``_require_number`` call per entry in file order, then the
    symmetry test pair by pair; parse_problem must accept the same inputs
    with the same floats and fail with the same messages.
    """
    n = data["n"]

    def vector(value, field):
        if not isinstance(value, list):
            raise SchemaError(field, f"expected an array, got {type(value).__name__}")
        if len(value) != n:
            raise SchemaError(field, f"expected length {n}, got {len(value)}")
        return [_require_number(v, f"{field}[{i}]") for i, v in enumerate(value)]

    c = vector(data["c"], "c")
    if len(data["Q"]) != n:
        raise SchemaError("Q", f"expected {n} rows, got {len(data['Q'])}")
    q = [vector(row, f"Q[{i}]") for i, row in enumerate(data["Q"])]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = q[i][j], q[j][i]
            if abs(a - b) > 1e-9 * (1.0 + max(abs(a), abs(b))):
                raise SchemaError(
                    f"Q[{i}][{j}]",
                    f"entry {a!r} differs from Q[{j}][{i}] = {b!r} beyond the "
                    "1e-9 relative symmetry tolerance",
                )
    sigma = _require_number(data["sigma"], "sigma")
    if not sigma > 0.0:
        raise SchemaError("sigma", f"must be positive, got {sigma!r}")
    q = np.array(q)
    return np.array(c), (q + q.T) / 2.0, sigma


def _outcome(parse, data):
    try:
        c, q, sigma = parse(data)
    except SchemaError as exc:
        return str(exc)
    return c.tobytes(), q.tobytes(), sigma


def _parsed(data):
    m, _ = parse_problem(data)
    return m.c, m.Q.entries, m.sigma


def _schema_message(data):
    with pytest.raises(SchemaError) as err:
        parse_problem(data)
    return str(err.value)


def _symmetric_rows(rng, n):
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    return ((a + a.T) / 2.0).tolist()


class TestParseParity:
    """parse_problem checks whole rows; its results equal the entry loop's."""

    def test_matches_entry_by_entry_reference(self):
        rng = np.random.default_rng(31)
        junk = [math.nan, math.inf, "1", None, True, [1.0], np.int64(2),
                np.float64(2.5), 2**64 + 3, 10**400, 1e-300, 7]
        for _ in range(400):
            n = int(rng.integers(1, 6))
            data = {"n": n, "c": rng.uniform(-5, 5, size=n).tolist(),
                    "Q": _symmetric_rows(rng, n), "sigma": 1.0}
            for _ in range(int(rng.integers(0, 4))):
                value = junk[int(rng.integers(len(junk)))]
                i, j = (int(k) for k in rng.integers(n, size=2))
                where = int(rng.integers(4))
                if where == 0:
                    data["c"][i] = value
                elif where == 1:
                    data["Q"][i][j] = value
                elif where == 2 and type(data["Q"][i][j]) is float:
                    data["Q"][i][j] *= 1.0 + 1e-8
                elif where == 3:
                    data["Q"][i] = data["Q"][i] + [0.0]
            assert _outcome(_parsed, data) == _outcome(_reference_parse, data)

    @pytest.mark.parametrize("n", [32, 128])
    def test_whole_matrix_matches_reference(self, n):
        rng = np.random.default_rng(n)
        junk = [True, math.nan, 10**400, "1.0"]
        seen = set()
        for trial in range(30):
            data = {"n": n, "c": rng.uniform(-5, 5, size=n).tolist(),
                    "Q": _symmetric_rows(rng, n), "sigma": 1.0}
            q = data["Q"]
            for k in range(int(rng.integers(0, 3))):
                value = junk[(trial + k) % len(junk)]
                i, j = (int(k) for k in rng.integers(n, size=2))
                if rng.integers(8) == 0:
                    data["c"][i] = value
                else:
                    q[i][j] = value
            for _ in range(int(rng.integers(0, 2))):
                i = int(rng.integers(n))
                q[i] = tuple(q[i]) if rng.integers(2) else q[i][:-1]
            outcome = _outcome(_parsed, data)
            assert outcome == _outcome(_reference_parse, data)
            seen.add(outcome.split(": ", 1)[1] if isinstance(outcome, str) else "ok")
        assert seen == {
            "ok",
            "expected a number, got bool",
            "expected a finite number, got nan",
            "expected a finite number, got an integer beyond float range",
            "expected a number, got str",
            "expected an array, got tuple",
            f"expected length {n}, got {n - 1}",
        }

    @pytest.mark.parametrize(
        "place, field",
        [
            (lambda row: _variant(c=row), "c"),
            (lambda row: _variant(Q=[[1.0, 0.0], row]), "Q[1]"),
        ],
    )
    def test_first_offender_in_row_order(self, place, field):
        assert _schema_message(place([math.nan, "x"])) == (
            f"{field}[0]: expected a finite number, got nan"
        )
        assert _schema_message(place(["x", math.nan])) == (
            f"{field}[0]: expected a number, got str"
        )

    def test_bool_in_q_row_names_entry(self):
        data = _variant(Q=[[1.0, 0.0], [True, -3.0]])
        assert _schema_message(data) == "Q[1][0]: expected a number, got bool"

    def test_numpy_scalars_as_today(self):
        m, _ = parse_problem(
            _variant(c=[np.float64(-2.0), np.float64(0.5)],
                     Q=[[np.float64(1.0), 0.0], [0.0, np.float64(-3.0)]])
        )
        assert np.array_equal(m.c, [-2.0, 0.5])
        assert np.array_equal(m.Q.entries, [[1.0, 0.0], [0.0, -3.0]])
        data = _variant(Q=[[1.0, np.int64(0)], [0.0, -3.0]])
        assert _schema_message(data) == "Q[0][1]: expected a number, got int64"

    def test_ragged_rows_name_the_row(self):
        short = _variant(Q=[[1.0, 0.0], [0.0]])
        assert _schema_message(short) == "Q[1]: expected length 2, got 1"
        long = _variant(Q=[[1.0, 0.0, 2.0], [0.0, -3.0]])
        assert _schema_message(long) == "Q[0]: expected length 2, got 3"

    def test_first_asymmetric_pair_in_row_major_order(self):
        n = 50
        q = _symmetric_rows(np.random.default_rng(6), n)
        # Pair (5, 45), perturbed below the diagonal, comes first in
        # row-major order; column-major order would find (9, 12) first.
        q[45][5] += 1.0
        q[9][12] += 1.0
        data = {"n": n, "c": [0.0] * n, "Q": q, "sigma": 1.0}
        message = _schema_message(data)
        assert message.startswith("Q[5][45]: entry ")
        assert message == _outcome(_reference_parse, data)

    @pytest.mark.parametrize("value", [2**53 + 1, 2**64 + 3, 10**300])
    def test_large_integers_parse_like_float(self, value):
        expect = np.float64(float(value)).tobytes()
        m, _ = parse_problem(
            _variant(c=[value, 1.0], Q=[[value, 0], [0, 1]], sigma=value)
        )
        assert m.c[0].tobytes() == expect
        assert m.Q.entries[0, 0].tobytes() == expect
        assert np.float64(m.sigma).tobytes() == expect

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"c": [10**400, 0.0]}, "c[0]"),
            ({"Q": [[1.0, 0.0], [0.0, -(10**400)]]}, "Q[1][1]"),
            ({"sigma": 10**400}, "sigma"),
        ],
    )
    def test_integer_beyond_float_range_names_field(self, overrides, field):
        assert _schema_message(_variant(**overrides)) == (
            f"{field}: expected a finite number, got an integer beyond float range"
        )

    def test_n128_file_round_trip_and_bytes(self, tmp_path):
        m = random_model(np.random.default_rng(128), n=128)
        path = tmp_path / "big.json"
        save_problem(path, m, name="big")
        reference = {
            "n": m.n,
            "c": [float(v) for v in m.c],
            "Q": [[float(v) for v in row] for row in m.Q.entries],
            "sigma": float(m.sigma),
            "name": "big",
        }
        raw = path.read_bytes()
        # The stdlib reads back the same values, each float bit for bit.
        data = json.loads(raw)
        assert _float_bits(data) == _float_bits(reference)
        # The stdlib's layout, where only the spelling of numbers differs.
        assert _mask_numbers(raw.decode()) == _mask_numbers(
            json.dumps(reference, indent=2) + "\n"
        )
        assert raw == orjson.dumps(reference, option=_ORJSON_INDENT)
        again, name = load_problem(path)
        assert name == "big"
        assert again.c.tobytes() == m.c.tobytes()
        assert again.Q.entries.tobytes() == m.Q.entries.tobytes()
        assert again.sigma == m.sigma
        assert _outcome(_parsed, data) == _outcome(_reference_parse, data)


def _reference_load(path):
    """``load_problem`` as it was on the stdlib decoder alone, kept as the oracle."""
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


def _load_outcome(load, path):
    try:
        m, name = load(path)
    except SchemaError as exc:
        return str(exc)
    return m.c.tobytes(), m.Q.entries.tobytes(), np.float64(m.sigma).tobytes(), name


def _doc(c="[-2.0, 0.5]", q="[[1.0, 0.0], [0.0, -3.0]]", sigma="1.0", n=2, tail=""):
    return f'{{"n": {n}, "c": {c}, "Q": {q}, "sigma": {sigma}{tail}}}\n'


def _diag_doc(values, sigma="1.0"):
    # ``values`` (decimal literals) as c and as the diagonal of Q.
    n = len(values)
    rows = [", ".join(values[i] if i == j else "0" for j in range(n)) for i in range(n)]
    return _doc(c="[" + ", ".join(values) + "]",
                q="[" + ", ".join(f"[{row}]" for row in rows) + "]", sigma=sigma, n=n)


EDGE_FLOATS = ["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072009e-308",
               "2.2250738585072014e-308", "1e-310", "1.7976931348623157e308",
               "-1.7976931348623157e308", "1e-400", "-0e0"]
BIG_INTEGERS = [str(2**53 + 1), str(2**64 + 3), str(-(2**64 + 3)), str(2**63),
                str(-(2**63)), str(-(2**63) - 1), str(2**64 - 1), "-0"]

PARITY_CORPUS = {
    "edge_floats": _diag_doc(EDGE_FLOATS, sigma="5e-324"),
    "big_integers": _diag_doc(BIG_INTEGERS, sigma=str(2**64 + 3)),
    "nan_in_c": _doc(c="[NaN, 0.5]"),
    "infinity_in_q": _doc(q="[[Infinity, 0.0], [0.0, -3.0]]"),
    "minus_infinity_sigma": _doc(sigma="-Infinity"),
    "float_beyond_range": _doc(c="[1e400, 0.5]"),
    "negative_float_beyond_range": _doc(q="[[1.0, 0.0], [0.0, -1e400]]"),
    "integer_400_digits": _doc(c="[1" + "0" * 400 + ", 0.5]"),
    "integer_400_digits_sigma": _doc(sigma="1" + "0" * 400),
    "integer_5000_digits": _doc(c="[1" + "0" * 5000 + ", 0.5]"),
    "bom": "\ufeff" + _doc(),
    "nope": "{nope",
    "empty": "",
    "blank": " \n",
    "null": "null",
    "array": "[1, 2]",
    "number": "3",
    "string": '"text"',
    "extra_data": _doc() + "x",
    "trailing_comma": _doc(c="[-2.0, 0.5,]"),
    "bad_number": _doc(c="[-2.0, 01]"),
    "lone_surrogate_name": _doc(tail=', "name": "\\ud800"'),
    "surrogate_pair_name": _doc(tail=', "name": "\\ud83d\\ude00 \\u00e9"'),
    "control_character_name": _doc(tail=', "name": "a\tb"'),
    "duplicate_keys": _doc(tail=', "sigma": 2.0, "c": [7.0, 8.0]'),
    "unknown_field": _doc(tail=', "extra": [1]'),
    "bool_entry": _doc(c="[true, 0.5]"),
    "asymmetric": _doc(q="[[1.0, 0.5], [0.0, -3.0]]"),
    "crlf_error_line_3": _doc().replace(", ", ",\r\n", 3).replace("0.5", "0.5.", 1),
    "cr_error_line_3": _doc().replace(", ", ",\r", 3).replace("0.5", "0.5.", 1),
    "crlf_valid": _doc().replace(", ", ",\r\n"),
    "many_brackets_in_name": _doc(tail=', "name": "' + "[{" * 600 + '"'),
}


class TestDecoderParity:
    """load_problem gives what the stdlib decoder alone gave, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    def test_save_round_trip(self, n, tmp_path):
        m = random_model(np.random.default_rng(900 + n), n=n)
        path = tmp_path / "p.json"
        save_problem(path, m, name=f"n{n}")
        outcome = _load_outcome(load_problem, path)
        assert outcome == _load_outcome(_reference_load, path)
        assert outcome == (m.c.tobytes(), m.Q.entries.tobytes(),
                           np.float64(m.sigma).tobytes(), f"n{n}")

    @pytest.mark.parametrize("case", sorted(PARITY_CORPUS))
    def test_corpus(self, case, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(PARITY_CORPUS[case].encode())
        assert _load_outcome(load_problem, path) == _load_outcome(_reference_load, path)

    def test_corpus_covers_both_outcomes(self, tmp_path):
        seen = set()
        for text in PARITY_CORPUS.values():
            path = tmp_path / "p.json"
            path.write_text(text, encoding="utf-8", newline="")
            outcome = _load_outcome(_reference_load, path)
            seen.add(outcome.split(":", 1)[0] if isinstance(outcome, str) else "ok")
        assert {"ok", "$", "c[0]", "Q[1][1]", "sigma", "Q[0][1]"} <= seen

    @pytest.mark.parametrize(
        "case, refused",
        [("edge_floats", False), ("big_integers", False), ("duplicate_keys", False),
         ("nan_in_c", True), ("bom", True), ("lone_surrogate_name", True),
         ("integer_5000_digits", True), ("many_brackets_in_name", True)],
    )
    def test_reference_decodes_only_what_orjson_refuses(self, case, refused, tmp_path,
                                                        monkeypatch):
        calls = []
        reference = problem_io._reference_decode
        monkeypatch.setattr(problem_io, "_reference_decode",
                            lambda raw: calls.append(raw) or reference(raw))
        path = tmp_path / "p.json"
        path.write_bytes(PARITY_CORPUS[case].encode())
        _load_outcome(load_problem, path)
        assert len(calls) == int(refused)

    @pytest.mark.parametrize(
        "field, literal, ours, reference",
        [
            ("n", str(2**64), "n: expected an integer, got float",
             f"c: expected length {2**64}, got 2"),
            ("n", str(-(2**63) - 1), "n: expected an integer, got float",
             f"n: dimension must be at least 1, got {-(2**63) - 1}"),
            ("name", str(2**64), "name: expected a string, got float",
             "name: expected a string, got int"),
        ],
    )
    def test_integer_beyond_64_bits_as_n_or_name_diverges(self, field, literal, ours,
                                                          reference, tmp_path):
        # orjson reads an integer literal below -2**63 or from 2**64 up as the
        # float of its value: the one documented divergence from the stdlib.
        text = _doc(n=literal) if field == "n" else _doc(tail=f', "name": {literal}')
        path = tmp_path / "p.json"
        path.write_text(text)
        assert _load_outcome(load_problem, path) == ours
        assert _load_outcome(_reference_load, path) == reference


def _fresh_modules(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout


def test_import_leaves_orjson_unloaded():
    # orjson is imported on the first load_problem or save_problem call, not
    # with the package or with the CLI.
    assert _fresh_modules("import sys, cubicmin.cli; print('orjson' in sys.modules)") == "False\n"


def test_import_leaves_stdlib_extras_unloaded():
    # NumPy loads none of these.  json is imported only by the reference
    # decode and the fallback encode, the CLI's own modules only with
    # cubicmin.cli, and the package's records are NamedTuples, so it loads
    # no dataclasses.
    code = (
        "import sys, numpy, cubicmin; "
        "print([k for k in ('json', 'dataclasses', 'argparse', 'csv', 'concurrent.futures') "
        "if k in sys.modules])"
    )
    assert _fresh_modules(code) == "[]\n"
