"""JSON schemas for loops, node data, nodal configurations, and matrices.

Complex numbers are serialized as ``[re, im]`` pairs throughout; matrices
are row-major nested lists of pairs.

Every reader raises `ScenarioError`, a ValueError, naming the path of the
first bad field or element; `_built` gives a model constructor's ValueError,
or a MemoryError, the path of the record it was built from.  Booleans and
integers are read strictly (`_boolean`, `_integer`): a string, ``null`` or a
number of the wrong kind is an error, never a truth value or a truncation.
"""

from __future__ import annotations

import numpy as np

from .loops import Loop

__all__ = [
    "ScenarioError",
    "complex_to_pair",
    "complex_from_pair",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "loop_to_json",
    "loop_from_json",
    "boundary_to_json",
    "boundary_from_json",
    "chart_to_json",
    "chart_from_json",
    "nodal_config_to_json",
    "nodal_config_from_json",
]


class ScenarioError(ValueError):
    """Malformed scenario data, named by its path; the CLI exits 2 on it."""


_REQUIRED = object()


def _field(data, name: str, default=_REQUIRED, where: str = "value", conv=None):
    """Field ``name`` of the object ``data`` at path ``where``, passed through
    ``conv`` when one is given.  A non-object ``data``, a missing field without
    a default, and a value ``conv`` rejects are ScenarioErrors naming the path."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got {data!r}")
    if name not in data:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing field '{name}'")
        return default
    if conv is None:
        return data[name]
    try:
        return conv(data[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}.{name}: invalid value {data[name]!r} ({exc})") from exc


def _boolean(value) -> bool:
    """A JSON ``true`` or ``false``; anything else, 0 and 1 included, is a
    TypeError (a `_field` converter)."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value) -> int:
    """A JSON number with an integral value, as an int; a boolean, a string,
    ``null`` or a number with a fractional part is a TypeError or
    ValueError (a `_field` converter)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _built(fn, where: str, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError or MemoryError it raises
    turned into a ScenarioError prefixed by the path ``where``."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ScenarioError(f"{where}: {str(exc) or type(exc).__name__}") from exc


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_pair(pair, where: str = "value") -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ScenarioError(f"{where}: expected [re, im] pair, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{where}: expected [re, im] pair of numbers, got {pair!r}") from None


def _complex_array(data, ndim: int, where: str) -> np.ndarray:
    """Complex array of ``ndim`` axes from lists nested ``ndim`` deep above
    the ``[re, im]`` pairs.

    Well-formed numeric data takes one ``np.array`` call and a view of the
    float pairs as complex, which is bit-identical to
    ``complex(float(re), float(im))`` (``-0.0`` included).  Anything else
    (strings, ``null``, ragged rows, ints numpy holds only as objects) is
    walked element by element; a malformed element raises ScenarioError
    naming its path.
    """
    try:
        arr = np.array(data)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.dtype.kind in "biuf" and arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return _walk_pairs(data, ndim, where)


def _walk_pairs(data, ndim: int, where: str) -> np.ndarray:
    if ndim == 0:
        return np.array(complex_from_pair(data, where))
    if not isinstance(data, list):
        raise ScenarioError(f"{where}: expected a list")
    parts = []
    for i, item in enumerate(data):
        part = _walk_pairs(item, ndim - 1, f"{where}[{i}]")
        if parts and part.shape != parts[0].shape:
            raise ScenarioError(f"{where}[{i}]: ragged rows, shape {part.shape} "
                                f"against {parts[0].shape} at {where}[0]")
        parts.append(part)
    if not parts:
        return np.zeros((0,) * ndim, dtype=complex)
    return np.array(parts, dtype=complex)


def vector_to_json(v) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def vector_from_json(data, where: str = "vector") -> np.ndarray:
    return _complex_array(data, 1, where)


def matrix_to_json(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [vector_to_json(row) for row in mat]


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    return _complex_array(data, 2, where)


def loop_to_json(loop: Loop) -> dict:
    """Loop schema: modes listed from -n_max to n_max."""
    return {
        "m": loop.m,
        "n_max": loop.n_max,
        "coeffs": [vector_to_json(row) for row in loop.coeffs],
    }


def loop_from_json(data: dict, where: str = "loop") -> Loop:
    m = _field(data, "m", where=where, conv=_integer)
    n_max = _field(data, "n_max", where=where, conv=_integer)
    rows = _field(data, "coeffs", where=where)
    if not isinstance(rows, list) or len(rows) != 2 * n_max + 1:
        raise ScenarioError(f"{where}.coeffs: expected {2 * n_max + 1} mode rows")
    coeffs = _complex_array(rows, 2, f"{where}.coeffs")
    if coeffs.shape[1] != m:
        raise ScenarioError(f"{where}.coeffs: expected {m} pairs per mode row, got {coeffs.shape[1]}")
    return _built(Loop, where, m, n_max, coeffs)


def boundary_to_json(boundary) -> dict:
    return {"z": complex_to_pair(boundary.z),
            "xi": loop_to_json(boundary.xi), "eta": loop_to_json(boundary.eta)}


def boundary_from_json(data: dict, where: str = "boundary"):
    from .node_model import NodeBoundary

    return _built(NodeBoundary, where,
                  complex_from_pair(_field(data, "z", where=where), f"{where}.z"),
                  loop_from_json(_field(data, "xi", where=where), f"{where}.xi"),
                  loop_from_json(_field(data, "eta", where=where), f"{where}.eta"))


def chart_to_json(chart) -> dict:
    return {"z": complex_to_pair(chart.z),
            "xi_plus": loop_to_json(chart.xi_plus),
            "eta_plus": loop_to_json(chart.eta_plus),
            "lambda": vector_to_json(chart.lam)}


def chart_from_json(data: dict, where: str = "chart"):
    from .node_model import NodeChart

    return _built(NodeChart, where,
                  complex_from_pair(_field(data, "z", where=where), f"{where}.z"),
                  loop_from_json(_field(data, "xi_plus", where=where), f"{where}.xi_plus"),
                  loop_from_json(_field(data, "eta_plus", where=where), f"{where}.eta_plus"),
                  vector_from_json(_field(data, "lambda", where=where), f"{where}.lambda"))


def nodal_config_to_json(cfg) -> dict:
    return {
        "components": [{"genus": c.genus, "ghost": c.ghost} for c in cfg.components],
        "nodes": [[[ci, pid] for ci, pid in pair] for pair in cfg.nodes],
        "marks": [[ci, pid] for ci, pid in cfg.marks],
    }


def _int_tuple(data, length: int | None, where: str) -> tuple:
    """``data`` as a tuple of ``length`` integers (of any length for None);
    anything else is a ScenarioError naming ``where``."""
    if isinstance(data, list) and length in (None, len(data)):
        try:
            return tuple(_integer(v) for v in data)
        except (TypeError, ValueError, OverflowError):
            pass
    count = "" if length is None else f"{length} "
    raise ScenarioError(f"{where}: expected a list of {count}integers, got {data!r}")


def _list_field(data: dict, key: str, where: str, default=_REQUIRED) -> list:
    """List field ``key`` of the object ``data``."""
    value = _field(data, key, default, where)
    if not isinstance(value, list):
        raise ScenarioError(f"{where}.{key}: expected a list, got {value!r}")
    return value


def nodal_config_from_json(data: dict, where: str = "config"):
    """Nodal configuration from its schema; every malformed field is a
    ScenarioError naming its path."""
    from .moduli import Component, NodalConfig

    comps = []
    for i, c in enumerate(_list_field(data, "components", where)):
        w = f"{where}.components[{i}]"
        comps.append(_built(Component, w, _field(c, "genus", 0, w, _integer), _field(c, "ghost", False, w, _boolean)))
    nodes = []
    for i, pair in enumerate(_list_field(data, "nodes", where, [])):
        w = f"{where}.nodes[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(f"{w}: expected two [component, point] pairs, got {pair!r}")
        nodes.append(tuple(_int_tuple(p, 2, f"{w}[{j}]") for j, p in enumerate(pair)))
    marks = tuple(_int_tuple(p, 2, f"{where}.marks[{i}]")
                  for i, p in enumerate(_list_field(data, "marks", where, [])))
    return _built(NodalConfig, where, tuple(comps), tuple(nodes), marks)
