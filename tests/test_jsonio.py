import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyglue.jsonio import (
    _complex_array,
    boundary_from_json,
    boundary_to_json,
    chart_from_json,
    chart_to_json,
    matrix_from_json,
    matrix_to_json,
    nodal_config_from_json,
    nodal_config_to_json,
    vector_from_json,
)
from hardyglue.loops import Loop
from hardyglue.moduli import Component, NodalConfig
from hardyglue.node_model import NodeBoundary, NodeChart, node_chart


def test_matrix_roundtrip():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(matrix_from_json(matrix_to_json(mat)), mat)


def test_boundary_roundtrip():
    xi = Loop.from_modes(1, 3, {1: [1.0]})
    eta = Loop.from_modes(1, 3, {-1: [0.25]})
    b = NodeBoundary(0.25, xi, eta)
    back = boundary_from_json(boundary_to_json(b))
    assert back.z == b.z
    assert np.array_equal(back.xi.coeffs, b.xi.coeffs)
    assert np.array_equal(back.eta.coeffs, b.eta.coeffs)


def test_chart_roundtrip_uses_lambda_key():
    chart = NodeChart(0.1j, Loop.from_modes(2, 3, {2: [1.0, 0.5]}),
                      Loop.zeros(2, 3), np.array([1.0 + 0j, -2.0 + 0j]))
    data = chart_to_json(chart)
    assert "lambda" in data
    back = chart_from_json(data)
    assert back.z == chart.z
    assert np.array_equal(back.lam, chart.lam)
    assert np.array_equal(node_chart(back).xi.coeffs, node_chart(chart).xi.coeffs)


def test_nodal_config_roundtrip():
    cfg = NodalConfig((Component(1), Component(0, ghost=True)),
                      nodes=(((0, 0), (1, 0)),), marks=((1, 1), (1, 2), (1, 3)))
    back = nodal_config_from_json(nodal_config_to_json(cfg))
    assert back == cfg


def test_missing_fields_raise():
    with pytest.raises(ValueError, match="missing"):
        boundary_from_json({"z": [0, 0]})
    with pytest.raises(ValueError, match="missing"):
        chart_from_json({"z": [0, 0]})
    with pytest.raises(ValueError, match="components"):
        nodal_config_from_json({})


# Elements numpy reads as one numeric array (ints up to uint64, bools,
# floats with -0.0, inf, nan and the ends of the float range), and elements
# that send the decoder down its per-element walk (ints past 64 bits,
# numeric strings).
EDGES = (-0.0, 1e308, -1.7976931348623157e308, 5e-324, 2.0**53 + 1)
NUMERIC = st.one_of(st.integers(-2**63, 2**64 - 1), st.booleans(), st.floats(),
                    st.sampled_from(EDGES))
ANY = st.one_of(NUMERIC, st.integers(-2**80, 2**80), st.floats().map(repr))


def _nest(flat, shape):
    """Nested lists of [re, im] pairs with the given shape above the pairs."""
    if not shape:
        return [flat.pop(), flat.pop()]
    return [_nest(flat, shape[1:]) for _ in range(shape[0])]


def _reference(data, ndim):
    if ndim == 0:
        return complex(float(data[0]), float(data[1]))
    return [_reference(item, ndim - 1) for item in data]


@st.composite
def nested_pairs(draw, elements, min_ndim=0, min_dim=1):
    shape = tuple(draw(st.lists(st.integers(min_dim, 4), min_size=min_ndim, max_size=3)))
    flat = draw(st.lists(elements, min_size=2 * int(np.prod(shape)),
                         max_size=2 * int(np.prod(shape))))
    return _nest(flat, shape), shape


class TestComplexDecode:
    @settings(deadline=None)
    @given(case=st.one_of(nested_pairs(NUMERIC), nested_pairs(ANY)))
    def test_bitwise_equal_to_per_pair_reference(self, case):
        data, shape = case
        got = _complex_array(data, len(shape), "v")
        want = np.array(_reference(data, len(shape)), dtype=complex)
        assert got.dtype == np.complex128 and got.shape == shape
        assert np.array_equal(np.atleast_1d(got).view(float).view(np.uint64),
                              np.atleast_1d(want).view(float).view(np.uint64))

    @settings(deadline=None)
    @given(case=nested_pairs(NUMERIC, min_ndim=1), data=st.data())
    def test_malformed_element_names_its_path(self, case, data):
        nested, shape = case
        ndim = len(shape)
        kinds = ["null", "triple", "deeper", "bare"]
        if ndim >= 2 and max(shape[:-1]) >= 2:
            kinds.append("ragged")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "ragged":
            # shorten a row that is not the first of its siblings
            depth = data.draw(st.sampled_from([k for k in range(1, ndim) if shape[k - 1] >= 2]))
            index = [data.draw(st.integers(0, d - 1)) for d in shape[:depth - 1]]
            index.append(data.draw(st.integers(1, shape[depth - 1] - 1)))
        else:
            index = [data.draw(st.integers(0, d - 1)) for d in shape]
        parent = nested
        for i in index[:-1]:
            parent = parent[i]
        target = parent[index[-1]]
        if kind == "null":
            target[data.draw(st.integers(0, 1))] = None
        elif kind == "triple":
            target.append(0.0)
        elif kind == "deeper":
            parent[index[-1]] = [target]
        elif kind == "bare":
            parent[index[-1]] = target[0]
        else:
            target.pop()
        path = "v" + "".join(f"[{i}]" for i in index)
        with pytest.raises(ValueError) as info:
            _complex_array(nested, ndim, "v")
        assert str(info.value).startswith(path + ": ")


def test_empty_lists_keep_their_shapes():
    assert vector_from_json([]).shape == (0,)
    assert matrix_from_json([]).shape == (0, 0)
    assert matrix_from_json([[], []]).shape == (2, 0)
