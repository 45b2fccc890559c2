"""JSON readers for loops, node boundaries, nodal configurations, vectors
and matrices.

Complex numbers are written as ``[re, im]`` pairs throughout; matrices
are row-major nested lists of pairs.  The package only reads scenarios;
the writers that build them for the tests live in ``tests/conftest.py``.

Every record is read by `_record` through its field table, which maps each
key to ``(reader, default)``: the tables are the schema.  A key outside the
table, a missing required key, a non-object and a value a reader rejects
raise `ScenarioError`, a ValueError naming the path of the first bad field
or element; `_built` gives a model constructor's ValueError, or a
MemoryError, the path of the record it was built from.  An error quotes
the value it rejects by `_quoted`, at most `QUOTE_LIMIT` characters of
its repr, however long or deep the value.  Booleans, integers, numbers
and strings are read strictly (`_boolean`, `_integer`, `_number`,
`_string`): ``null`` or a value of the wrong kind is an error, never a
truth value, a truncation, a float or a text.
"""

from __future__ import annotations

import re

import numpy as np

from .loops import Loop
from .moduli import Component, NodalConfig
from .node_model import NodeBoundary

__all__ = [
    "ScenarioError",
    "complex_from_pair",
    "vector_from_json",
    "matrix_from_json",
    "loop_from_json",
    "boundary_from_json",
    "nodal_config_from_json",
]


class ScenarioError(ValueError):
    """Malformed scenario data, named by its path; the CLI exits 2 on it."""


_REQUIRED = object()
QUOTE_LIMIT = 200  # the most characters of a value that a ScenarioError quotes
_BRACKETS = {list: "[]", tuple: "()", dict: "{}"}


def _quoted(value) -> str:
    """``repr(value)`` when it is at most `QUOTE_LIMIT` characters long,
    else its first ``QUOTE_LIMIT - 3`` characters and ``...``.  The lists,
    tuples and dicts of a JSON value are spelled out only as far as the
    quote reaches, a level per character at most, so a value nested past
    the recursion limit is quoted without reaching it."""
    text = ""
    for piece in _repr_pieces(value):
        text += piece
        if len(text) > QUOTE_LIMIT:
            return text[:QUOTE_LIMIT - 3] + "..."
    return text


def _repr_pieces(value):
    """The text of ``repr(value)`` in pieces, a list, tuple or dict one
    bracket, separator and item at a time."""
    brackets = _BRACKETS.get(type(value))
    if brackets is None:
        yield repr(value)
        return
    yield brackets[0]
    is_dict = type(value) is dict
    for i, item in enumerate(value.items() if is_dict else value):
        if i:
            yield ", "
        if is_dict:
            yield from _repr_pieces(item[0])
            yield ": "
            item = item[1]
        yield from _repr_pieces(item)
    yield ",)" if type(value) is tuple and len(value) == 1 else brackets[1]


def _record(data, fields: dict, where: str) -> dict:
    """The object ``data`` at path ``where`` read through its table
    ``fields``, which maps each key to ``(reader, default)``: a present
    value goes through `_read`, an absent key takes its default (none for
    `_REQUIRED`).  A non-object, a key outside the table and a missing
    required key are ScenarioErrors naming the path."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got {_quoted(data)}")
    for key in data:
        if key not in fields:
            raise ScenarioError(f"{where}: unknown field {_quoted(key)}; known fields: {', '.join(fields)}")
    out = {}
    for key, (reader, default) in fields.items():
        if key in data:
            out[key] = _read(reader, data[key], f"{where}.{key}")
        elif default is _REQUIRED:
            raise ScenarioError(f"{where}: missing field '{key}'")
        else:
            out[key] = default
    return out


def _read(reader, value, where: str):
    """``value`` at path ``where`` read by ``reader``: a field table (a
    dict) reads a nested record, anything else is called as ``reader(value,
    where)``.  A scalar reader ignores the path; its TypeError or ValueError
    is quoted after the path."""
    if isinstance(reader, dict):
        return _record(value, reader, where)
    try:
        return reader(value, where)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: invalid value {_quoted(value)} ({exc})") from exc


def _list_of(reader, length: int | None = None):
    """The reader of a JSON list (of ``length`` items, when given) whose
    items go through ``reader``; it returns a tuple."""
    def read(data, where):
        if not isinstance(data, list) or length not in (None, len(data)):
            count = "" if length is None else f"{length} "
            raise ScenarioError(f"{where}: expected a list of {count}items, got {_quoted(data)}")
        return tuple(_read(reader, item, f"{where}[{i}]") for i, item in enumerate(data))
    return read


def _model(cls, **fields):
    """The reader of a record whose table ``fields`` names the fields of the
    model ``cls``: ``cls(**record)``, through `_built`."""
    return lambda data, where: _built(cls, where, **_record(data, fields, where))


def _public(name: str):
    """The reader of this module's public function ``name``, looked up when
    called, so that a traced or patched binding is the one that runs."""
    return lambda data, where: globals()[name](data, where)


def _any(value, where=None):
    """Any JSON value, as it is."""
    return value


def _boolean(value, where=None) -> bool:
    """A JSON ``true`` or ``false``; anything else, 0 and 1 included, is a
    TypeError."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value, where=None) -> int:
    """A JSON number with an integral value, as an int; a boolean, a string,
    ``null`` or a number with a fractional part is a TypeError or
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _number(value, where=None) -> float:
    """A JSON number, as a float; a boolean, a string or ``null`` is a
    TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _string(value, where=None) -> str:
    """A JSON string; anything else, ``null`` included, is a TypeError."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


_ITEM_PATH = re.compile(r"[a-z_]+(\[\d+\])+: ")


def _built(fn, where: str, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError or MemoryError it raises
    turned into a ScenarioError prefixed by the path ``where``; a message
    that opens with the path of an item (``z_seq[3]: ...``) continues it."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        msg = str(exc) or type(exc).__name__
        raise ScenarioError(f"{where}{'.' if _ITEM_PATH.match(msg) else ': '}{msg}") from exc


def complex_from_pair(pair, where: str = "value") -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ScenarioError(f"{where}: expected [re, im] pair, got {_quoted(pair)}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{where}: expected [re, im] pair of numbers, got {_quoted(pair)}") from None


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


def vector_from_json(data, where: str = "vector") -> np.ndarray:
    return _complex_array(data, 1, where)


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    return _complex_array(data, 2, where)


_pair, _vector, _matrix, _loop = map(_public, ("complex_from_pair", "vector_from_json",
                                               "matrix_from_json", "loop_from_json"))
_LOOP = {"m": (_integer, _REQUIRED), "n_max": (_integer, _REQUIRED), "coeffs": (_any, _REQUIRED)}


def loop_from_json(data: dict, where: str = "loop") -> Loop:
    loop = _record(data, _LOOP, where)
    m, n_max, rows = loop["m"], loop["n_max"], loop["coeffs"]
    if not isinstance(rows, list) or len(rows) != 2 * n_max + 1:
        raise ScenarioError(f"{where}.coeffs: expected {2 * n_max + 1} mode rows")
    coeffs = _complex_array(rows, 2, f"{where}.coeffs")
    if coeffs.shape[1] != m:
        raise ScenarioError(f"{where}.coeffs: expected {m} pairs per mode row, got {coeffs.shape[1]}")
    return _built(Loop, where, m, n_max, coeffs)


_BOUNDARY = _model(NodeBoundary, z=(_pair, _REQUIRED), xi=(_loop, _REQUIRED), eta=(_loop, _REQUIRED))


def boundary_from_json(data: dict, where: str = "boundary"):
    return _BOUNDARY(data, where)


_POINT = _list_of(_integer, 2)  # [component, point id]
_CONFIG = _model(NodalConfig,
                 components=(_list_of(_model(Component, genus=(_integer, 0), ghost=(_boolean, False))), _REQUIRED),
                 nodes=(_list_of(_list_of(_POINT, 2)), ()), marks=(_list_of(_POINT), ()))


def nodal_config_from_json(data: dict, where: str = "config"):
    """Nodal configuration from its schema; every malformed field is a
    ScenarioError naming its path."""
    return _CONFIG(data, where)
