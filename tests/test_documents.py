"""Operator documents against the ``json`` module: ``dumps_canonical``
against the ``json.dumps`` layout it must reproduce, and the decode
against ``json.loads`` with an entry-by-entry parse of each matrix."""

import json
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from krein_spectra import DocumentError, documents
from krein_spectra.core import ToleranceConfig
from krein_spectra.documents import (
    OperatorDocument,
    _depth_bound,
    dumps_canonical,
    pair_to_complex,
    parse_operator_document,
)

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def matrices(draw):
    rows, cols = draw(shapes)
    kind = draw(st.sampled_from(["complex", "real", "integer"]))
    if kind == "integer":
        return draw(arrays(np.int64, (rows, cols)))
    parts = draw(arrays(np.float64, (rows, cols, 2), elements=floats))
    if kind == "real":
        return parts[..., 0]
    return parts.view(np.complex128)[..., 0]


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)
    ),
    max_leaves=8,
)


def reference(obj) -> str:
    """The layout ``dumps_canonical`` must give: ``json.dumps`` with each
    top-level array spelled out as its row-major ``[re, im]`` pair list."""
    if isinstance(obj, dict):
        obj = {
            key: [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in value]
            if isinstance(value, np.ndarray)
            else value
            for key, value in obj.items()
        }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), st.one_of(matrices(), json_values), max_size=5))
@example({})
@example({"m": np.zeros((1, 1), dtype=np.complex128)})
@example({"a": np.zeros((3, 0)), "b": np.zeros((0, 2)), "c": "ü\n\"", "d": {"e": [None, True]}})
def test_matches_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_non_dict_top_level_matches_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{1: np.eye(2), 2.5: "x"}, {True: [1.5]}, {None: np.ones((1, 2))}, {float("inf"): 0}],
)
def test_non_string_keys_match_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


def test_non_contiguous_array_is_written_row_major():
    a = (np.arange(12.0) + 1j).reshape(3, 4)
    for view in (a.T, a[:, ::2], np.asfortranarray(a)):
        assert dumps_canonical({"m": view}) == reference({"m": view})


# Bitwise checks of the number spellings, beyond what hypothesis draws.
# orjson writes the same shortest round-trip digits as repr, but spells
# exponents (1e16, 1e-7), floats below 1e-4 (0.00001) and non-finite floats
# (null) differently; the emitter picks those tokens by value and spells
# them again, and keeps orjson's token for every other value.


def orjson_tokens(values) -> list[str]:
    import orjson

    text = orjson.dumps(np.array(values, dtype=np.float64), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-4, max_value=1e16, exclude_max=True).flatmap(
            lambda x: st.sampled_from([x, -x])
        ),
        min_size=1,
        max_size=50,
    )
)
@example([1e-4, -1e-4, float(np.nextafter(1e16, 0.0)), 1e15, 0.1, 1.0, 123456789.125])
def test_orjson_spells_the_plain_range_as_repr(values):
    # the emitter keeps orjson's token for every value in [1e-4, 1e16)
    assert orjson_tokens(values) == [repr(x) for x in values]


def test_orjson_spells_signed_zeros_as_repr():
    # and for both zeros, which it does not spell again either
    assert orjson_tokens([0.0, -0.0]) == ["0.0", "-0.0"]


def first_difference(got: str, want: str) -> str:
    """Where two long texts part, without a diff of the whole texts."""
    k = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(want))
    return f"first difference at {k}: {got[k - 60 : k + 60]!r} != {want[k - 60 : k + 60]!r}"


def test_random_bit_patterns_match_json_dumps():
    # uniform 64-bit patterns: every exponent equally likely, subnormals included
    bits = np.random.default_rng(24).integers(0, 2**64, size=2**20 + 2**12, dtype=np.uint64)
    parts = bits.view(np.float64)
    parts = parts[np.isfinite(parts)][: 2**20]
    assert parts.size == 2**20 and np.count_nonzero(np.abs(parts) < 2.2250738585072014e-308)
    a = parts.view(np.complex128).reshape(-1, 4)
    got, want = dumps_canonical({"m": a}), reference({"m": a})
    if got != want:
        pytest.fail(first_difference(got, want))


def test_powers_of_ten_and_neighbours_match_json_dumps():
    # repr switches to exponent form below 1e-04 and from 1e+16 on
    decades = [float(f"1e{k}") for k in range(-30, 31)]
    a = np.array(
        [[complex(x, -x) for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
         for p in decades]
    )
    assert dumps_canonical({"m": a}) == reference({"m": a})


def test_negative_zero_matches_json_dumps():
    a = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]])
    assert dumps_canonical({"m": a}) == reference({"m": a})
    assert '"m": [\n    [\n      [\n        -0.0,\n        -0.0\n' in dumps_canonical({"m": a})


def test_non_finite_entries_match_json_dumps():
    nan, inf = float("nan"), float("inf")
    a = np.array([[complex(nan, 1.5), complex(-inf, inf)], [complex(1e-7, nan), complex(2.0, -inf)]])
    text = dumps_canonical({"m": a})
    assert text == reference({"m": a})
    assert [text.count(t) for t in ("NaN", "-Infinity", "Infinity", "null")] == [2, 2, 3, 0]


# Number tokens of matrix entries: signed zeros, the subnormal and normal
# extremes, shortest and 17-digit spellings, and integer literals on both
# sides of the 64-bit range (orjson reads those beyond it as floats).
MAX_DOUBLE_INTEGER = (2**53 - 1) * 2**971
entry_tokens = st.one_of(
    st.sampled_from(
        ["0.0", "-0.0", "0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "1E-7"]
        + [str(n) for n in (2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, -(2**63) - 1)]
        + [str(10**300), str(MAX_DOUBLE_INTEGER), str(-MAX_DOUBLE_INTEGER)]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.integers(-(2**70), 2**70).map(str),
)
# Entries the decode must refuse, each naming its field.
BAD_ENTRY_TOKENS = [
    "true", "false", "null", '"1"', "[1, 0]", "[]", "NaN", "Infinity", "-Infinity",
    "1e400", "-1e400", "1" + "0" * 400, str(2 * MAX_DOUBLE_INTEGER),
]
tolerance_tokens = st.one_of(
    st.sampled_from(
        ["1e-9", "0.5", "1", "16", "128", "128.0", "0", "-1", "true", '"1e-8"', "null",
         "NaN", "Infinity", "1e400", str(2**64), str(2**64 + 1), str(-(2**63) - 1),
         str(2**1000), "[16]"]
    ),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.integers(1, 2**70).map(str),
)
TOLERANCE_NAMES = [*ToleranceConfig.__dataclass_fields__, "bogus"]


def matrix_text(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join("[" + ", ".join(pair) + "]" for pair in row) + "]" for row in rows
    ) + "]"


@st.composite
def operator_documents(draw):
    """The text of an operator document, and the field its one defect (if
    any) must be refused at, or None if it has none the decode must find."""
    dim = draw(st.integers(1, 4))
    grids = {
        name: [[[draw(entry_tokens) for _ in range(2)] for _ in range(dim)] for _ in range(dim)]
        for name in ("gram", "matrix")
    }
    bad_dims = {
        "2.0": "dim: expected an integer",
        "true": "dim: expected an integer",
        "0": "dim: expected a positive integer",
        str(2**64): f"gram: expected {2**64} rows",
        str(2**64 + 1): f"gram: expected {2**64 + 1} rows",
    }
    dim_token = draw(st.one_of(st.just(str(dim)), st.sampled_from(sorted(bad_dims))))
    where = bad_dims.get(dim_token)
    defect = draw(st.sampled_from([None, None, "token", "pair", "row", "rows"]))
    if where is None and defect is not None:
        name = draw(st.sampled_from(["gram", "matrix"]))
        rows = grids[name]
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if defect == "token":
            rows[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_ENTRY_TOKENS))
            where = f"{name}[{i}][{j}]"
        elif defect == "pair":
            rows[i][j] = rows[i][j][:1] if draw(st.booleans()) else rows[i][j] + ["0"]
            where = f"{name}[{i}][{j}]"
        elif defect == "row":
            del rows[i][j]
            where = f"{name}[{i}]: expected {dim} entries"
        else:
            del rows[i]
            where = f"{name}: expected {dim} rows"
    fields = [f'"dim": {dim_token}'] + [f'"{k}": {matrix_text(v)}' for k, v in grids.items()]
    if draw(st.booleans()):
        tols = draw(st.dictionaries(st.sampled_from(TOLERANCE_NAMES), tolerance_tokens, max_size=3))
        fields.append('"tolerances": {' + ", ".join(f'"{k}": {v}' for k, v in tols.items()) + "}")
    if draw(st.booleans()):
        metadata = draw(st.dictionaries(st.text(max_size=5), st.text(max_size=5), max_size=3))
        items = [json.dumps(metadata, ensure_ascii=draw(st.booleans()))[1:-1]]
        items += draw(st.lists(st.sampled_from(['"s": "\\ud800"', '"n": 1']), max_size=1))
        fields.append('"metadata": {' + ", ".join(item for item in items if item) + "}")
    order = draw(st.permutations(fields))
    return "{" + ", ".join(order) + "}", where


def decoded(text):
    """What ``parse_operator_document`` makes of ``text``, exactly: the
    document's fields with their types and bytes, or the refusal message."""
    try:
        doc = parse_operator_document(text)
    except DocumentError as exc:
        return str(exc)
    typed = lambda values: [(type(v), repr(v)) for v in values]
    return (
        doc.dim, doc.gram.tobytes(), doc.matrix.tobytes(), typed(astuple(doc.tolerances)),
        sorted((k, type(v), repr(v)) for k, v in doc.tolerance_overrides.items()),
        doc.metadata,
    )


@settings(max_examples=400, deadline=None)
@given(operator_documents())
@example(('{"dim": 1, "gram": [[[1, 0]]], "matrix": [[[2, 0]]], "tolerances": {"rank_tol": '
          + str(2**64 + 1) + "}}", None))
@example(('{"dim": 1, "gram": [[[1, 0]]], "matrix": [[[2, 0]]], "metadata": {"s": "\\ud800"}}',
          None))
def test_decode_matches_json_loads_and_entry_walk(case):
    text, where = case
    # the reference: json.loads alone, then the same validation
    with mock.patch.object(documents, "_orjson_value", lambda text: None):
        expected = decoded(text)
    assert decoded(text) == expected
    if where is not None:
        assert isinstance(expected, str) and expected.startswith(where), (expected, where)
    if not isinstance(expected, str):
        raw = json.loads(text)
        for name, got in zip(("gram", "matrix"), expected[1:3]):
            walked = np.array(
                [[pair_to_complex(p, name) for p in row] for row in raw[name]], np.complex128
            )
            assert got == walked.tobytes()


def depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(depth, value), default=0) if isinstance(value, list) else 0


bracket_text = st.text(alphabet='[]{}"\\ab', max_size=6)
nested_values = st.recursive(
    st.one_of(st.none(), st.integers(), bracket_text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(bracket_text, inner, max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(nested_values, st.booleans())
@example(["]", ["]", ["]"]]], False)
def test_depth_bound_is_an_upper_bound(value, indent):
    # strings full of brackets, quotes and backslashes must not hide a level
    text = json.dumps(value, indent=2 if indent else None)
    assert _depth_bound(text.encode()) >= depth(value)


def test_depth_bound_of_a_dense_document():
    doc = {"dim": 3, "gram": np.eye(3), "matrix": np.eye(3)}
    assert _depth_bound(dumps_canonical(doc).encode()) == 2 * 3 + 4


def two_point_document(overrides) -> OperatorDocument:
    return OperatorDocument(
        dim=2, gram=np.diag([1.0, -1.0]), matrix=np.diag([1.0, 1.05]), tolerance_overrides=overrides
    )


def test_tolerances_follow_the_overrides_the_document_writes():
    # one tolerance record: the operator built and the JSON written agree
    doc = two_point_document({"cluster_tol": 0.02})
    assert doc.build().tolerances == doc.tolerances == ToleranceConfig(cluster_tol=0.02)
    assert parse_operator_document(doc.to_json()).tolerances == doc.tolerances
    doc.tolerance_overrides["contour_nodes"] = 16
    assert doc.build().tolerances == ToleranceConfig(cluster_tol=0.02, contour_nodes=16)


def test_refused_override_names_the_tolerances():
    doc = two_point_document({"contour_nodes": 8})
    with pytest.raises(DocumentError, match="^tolerances: contour_nodes"):
        doc.build()
    with pytest.raises(DocumentError, match="^tolerances: contour_nodes"):
        parse_operator_document(doc.to_json())
