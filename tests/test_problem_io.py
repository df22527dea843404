"""Problem-file schema validation and round-tripping."""

import json
import math

import numpy as np
import pytest

from cubicmin.exceptions import SchemaError
from cubicmin.problem_io import (
    _require_number,
    load_problem,
    parse_problem,
    problem_to_dict,
    save_problem,
)

from .helpers import random_model

GOOD = {"n": 2, "c": [-2.0, 0.0], "Q": [[1.0, 0.0], [0.0, -3.0]], "sigma": 1.0}


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
        assert path.read_text() == json.dumps(reference, indent=2) + "\n"
        again, name = load_problem(path)
        assert name == "big"
        assert again.c.tobytes() == m.c.tobytes()
        assert again.Q.entries.tobytes() == m.Q.entries.tobytes()
        assert again.sigma == m.sigma
