"""``dumps_canonical`` against the ``json.dumps`` layout it must reproduce."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from krein_spectra.documents import dumps_canonical

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
