"""JSON schemas for loops, node data, nodal configurations, and matrices.

Complex numbers are serialized as ``[re, im]`` pairs throughout; matrices
are row-major nested lists of pairs.
"""

from __future__ import annotations

import numpy as np

from .loops import Loop

__all__ = [
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


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_pair(pair, where: str = "value") -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{where}: expected [re, im] pair, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: expected [re, im] pair of numbers, got {pair!r}") from None


def _complex_array(data, ndim: int, where: str) -> np.ndarray:
    """Complex array of ``ndim`` axes from lists nested ``ndim`` deep above
    the ``[re, im]`` pairs.

    Well-formed numeric data takes one ``np.array`` call and a view of the
    float pairs as complex, which is bit-identical to
    ``complex(float(re), float(im))`` (``-0.0`` included).  Anything else
    (strings, ``null``, ragged rows, ints numpy holds only as objects) is
    walked element by element; a malformed element raises ValueError
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
        raise ValueError(f"{where}: expected a list")
    parts = []
    for i, item in enumerate(data):
        part = _walk_pairs(item, ndim - 1, f"{where}[{i}]")
        if parts and part.shape != parts[0].shape:
            raise ValueError(f"{where}[{i}]: ragged rows, shape {part.shape} "
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
    for key in ("m", "n_max", "coeffs"):
        if key not in data:
            raise ValueError(f"{where}: missing field '{key}'")
    m = int(data["m"])
    n_max = int(data["n_max"])
    rows = data["coeffs"]
    if not isinstance(rows, list) or len(rows) != 2 * n_max + 1:
        raise ValueError(f"{where}.coeffs: expected {2 * n_max + 1} mode rows")
    return Loop(m, n_max, _complex_array(rows, 2, f"{where}.coeffs"))


def boundary_to_json(boundary) -> dict:
    return {"z": complex_to_pair(boundary.z),
            "xi": loop_to_json(boundary.xi), "eta": loop_to_json(boundary.eta)}


def boundary_from_json(data: dict, where: str = "boundary"):
    from .node_model import NodeBoundary

    for key in ("z", "xi", "eta"):
        if key not in data:
            raise ValueError(f"{where}: missing field '{key}'")
    return NodeBoundary(complex_from_pair(data["z"], f"{where}.z"),
                        loop_from_json(data["xi"], f"{where}.xi"),
                        loop_from_json(data["eta"], f"{where}.eta"))


def chart_to_json(chart) -> dict:
    return {"z": complex_to_pair(chart.z),
            "xi_plus": loop_to_json(chart.xi_plus),
            "eta_plus": loop_to_json(chart.eta_plus),
            "lambda": vector_to_json(chart.lam)}


def chart_from_json(data: dict, where: str = "chart"):
    from .node_model import NodeChart

    for key in ("z", "xi_plus", "eta_plus", "lambda"):
        if key not in data:
            raise ValueError(f"{where}: missing field '{key}'")
    return NodeChart(complex_from_pair(data["z"], f"{where}.z"),
                     loop_from_json(data["xi_plus"], f"{where}.xi_plus"),
                     loop_from_json(data["eta_plus"], f"{where}.eta_plus"),
                     vector_from_json(data["lambda"], f"{where}.lambda"))


def nodal_config_to_json(cfg) -> dict:
    return {
        "components": [{"genus": c.genus, "ghost": c.ghost} for c in cfg.components],
        "nodes": [[[ci, pid] for ci, pid in pair] for pair in cfg.nodes],
        "marks": [[ci, pid] for ci, pid in cfg.marks],
    }


def nodal_config_from_json(data: dict, where: str = "config"):
    from .moduli import Component, NodalConfig

    if "components" not in data:
        raise ValueError(f"{where}: missing field 'components'")
    comps = tuple(Component(int(c.get("genus", 0)), bool(c.get("ghost", False)))
                  for c in data["components"])
    nodes = tuple(tuple((int(ci), int(pid)) for ci, pid in pair)
                  for pair in data.get("nodes", []))
    marks = tuple((int(ci), int(pid)) for ci, pid in data.get("marks", []))
    return NodalConfig(comps, nodes, marks)
