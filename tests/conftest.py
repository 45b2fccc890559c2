"""Tier-1 runs BLAS on one thread, as the benchmark does (see perfbench/README.md).

Where a machine's CPU quota is below the core count BLAS sees, a
multi-threaded LAPACK call can wait on a descheduled worker thread: on a
2-core shared VM the 42 SVDs of `cli.suite_index` took about 1.1 s instead
of 0.1 s in fresh processes started after an idle spell, past the 1.0 s
budget of acceptance criteria 1 and 2.  The variables take effect only if
they are set before numpy is first imported, which is why they live here.

The `term_by_term` fixture is the reference definition of a
`NodePolynomial`'s values, shared by the node and CLI tests; `uniform_disc`
is the reference definition of a random disc point, two ``rng.uniform``
draws per call, which the CLI's batteries must reproduce bit for bit;
`row_dots` is the reference definition of the row norms in `loops`, one
``np.dot`` per row, which the stacked kernels must reproduce bit for bit;
`polynomial_by_terms` is the reference definition of a `PolynomialMap`'s
values and Jacobians, numpy-scalar monomials term by term, which the
compiled map must reproduce bit for bit; `central_differences` gives a
graph map without exact Jacobians its ``jac``, and checks the exact ones; `point_walk` is the reference
definition of a `NodalConfig`'s point ids per component, the walk over its
nodes and marks that `NodalConfig.points` replaced, and
`random_nodal_config` draws the configurations it is checked on.
`reference_triple` is the reference definition of a `SubspaceTriple`, one
matrix at a time, which `fredholm.subspace_triples` must reproduce.
`cli_output` runs one CLI command once per session, for the tests that
read the same output.  The JSON writers (`loop_to_json` and the others,
imported as ``from conftest import ...``) build scenario data in the schema
that `hardyglue.jsonio` reads; the package itself only reads it.
"""

import functools
import importlib.util
import math
import os
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (numpy reads the variables above on import)
import pytest  # noqa: E402


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def matrix_to_json(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [vector_to_json(row) for row in mat]


def loop_to_json(loop) -> dict:
    """Loop schema: modes listed from -n_max to n_max."""
    return {
        "m": loop.m,
        "n_max": loop.n_max,
        "coeffs": [vector_to_json(row) for row in loop.coeffs],
    }


def boundary_to_json(boundary) -> dict:
    return {"z": complex_to_pair(boundary.z),
            "xi": loop_to_json(boundary.xi), "eta": loop_to_json(boundary.eta)}


def nodal_config_to_json(cfg) -> dict:
    return {
        "components": [{"genus": c.genus, "ghost": c.ghost} for c in cfg.components],
        "nodes": [[[ci, pid] for ci, pid in pair] for pair in cfg.nodes],
        "marks": [[ci, pid] for ci, pid in cfg.marks],
    }


def _term_by_term(poly, x, y):
    """The definition of ``v(x, y)`` at one point, term by term: numpy-scalar
    powers ``x ** (i + 1)``, summed ``c``, then each row of ``a``, then each
    row of ``b``.  `NodePolynomial.__call__` must reproduce it bit for bit."""
    x, y = np.complex128(x), np.complex128(y)
    val = np.array(poly.c, dtype=complex)
    for i, row in enumerate(poly.a):
        val = val + row * x ** (i + 1)
    for j, row in enumerate(poly.b):
        val = val + row * y ** (j + 1)
    return val


@pytest.fixture
def term_by_term():
    """`_term_by_term`, the independent reference of a polynomial's values."""
    return _term_by_term


def _uniform_disc(rng, shape, radius=1.0):
    """Random points of the disc of ``radius``, by definition: the radius
    ``radius * sqrt(U)`` of one ``uniform`` draw of ``shape``, then the angle
    of a second one on ``[0, 2pi)``."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    return r * np.exp(1j * phi)


@pytest.fixture
def uniform_disc():
    """`_uniform_disc`, the independent reference of the batteries' draws."""
    return _uniform_disc


def _sobolev_by_rows(stack, s):
    """The Sobolev norms of the rows of a stack (T, 2N+1, m) as
    `loops._at_scale` pairs, by definition: per row, one ``np.dot`` of the
    weights ``(1 + |n|)^(2s)`` with the row's sums of ``|c|^2``, then
    ``math.sqrt``.  `loops._norm_pairs` must reproduce it bit for bit."""
    from hardyglue.loops import _at_scale

    n_max = stack.shape[1] // 2
    weights = (1.0 + np.abs(np.arange(-n_max, n_max + 1))) ** (2.0 * s)
    return _at_scale(lambda rows: np.array([math.sqrt(np.dot(weights, row))
                                            for row in np.sum(np.abs(rows) ** 2, axis=-1)]), stack)


def _l2_by_rows(stack):
    """The l2 norm of each row of a stack, by definition: per row, the
    ``np.dot`` of its flattened real part with itself plus that of its
    imaginary part, then ``math.sqrt``.  `loops._l2_rows` must reproduce it
    bit for bit."""
    flat = stack.reshape(len(stack), -1)
    return np.array([math.sqrt(np.dot(r, r) + np.dot(i, i)) for r, i in zip(flat.real, flat.imag)])


@pytest.fixture
def row_dots():
    """``(sobolev, l2)``: `_sobolev_by_rows` and `_l2_by_rows`, the
    independent references of the stacked row norms."""
    return _sobolev_by_rows, _l2_by_rows


def _monomial(vals, pows):
    """The product from ``1.0 + 0j`` of the powers ``v ** p``, nonzero ``p``
    only, of the numpy scalars ``vals``."""
    out = 1.0 + 0j
    for v, p in zip(vals, pows):
        if p:
            out *= v**p
    return out


def _polynomial_by_terms(pm, u, xprime):
    """``(f, df/du, df/dxprime)`` of the map ``pm`` at ``(u, xprime)``, by
    definition: each term's ``coeff * mu * mx`` added to a complex128 zero
    in term order, ``mu`` and ``mx`` the products from ``1.0 + 0j`` of the
    numpy-scalar powers ``v ** p`` of the u and x' coordinates, and each
    partial ``coeff * p`` times the term with that exponent lowered by one.
    An overflow gives inf or NaN, without a warning."""
    u = np.asarray(u, dtype=complex)
    xp = np.asarray(xprime, dtype=complex)
    d_u, d_xp, _, d_xi = pm.dims
    out = np.zeros(d_xi, dtype=complex)
    ju = np.zeros((d_xi, d_u), dtype=complex)
    jxp = np.zeros((d_xi, d_xp), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, comp in enumerate(pm.terms):
            for coeff, u_pows, xp_pows in comp:
                out[i] += coeff * _monomial(u, u_pows) * _monomial(xp, xp_pows)
                for k in range(d_u):
                    if u_pows[k]:
                        dropped = tuple(p - 1 if j == k else p for j, p in enumerate(u_pows))
                        ju[i, k] += coeff * u_pows[k] * _monomial(u, dropped) * _monomial(xp, xp_pows)
                for k in range(d_xp):
                    if xp_pows[k]:
                        dropped = tuple(p - 1 if j == k else p for j, p in enumerate(xp_pows))
                        jxp[i, k] += coeff * xp_pows[k] * _monomial(u, u_pows) * _monomial(xp, dropped)
    return out, ju, jxp


@pytest.fixture
def polynomial_by_terms():
    """`_polynomial_by_terms`, the independent reference of a polynomial
    map's values and Jacobians."""
    return _polynomial_by_terms


FD_STEP = 1e-6  # relative step of `central_differences`


def central_differences(dims, f):
    """The block Jacobians ``(df/du, df/dxprime)`` of a graph map ``f`` with
    ``dims = (d_u, d_xprime, d_xdprime, d_xi)``, by central differences of
    step ``FD_STEP * (1 + |(u, xprime)|)`` in each coordinate: the ``jac``
    of a `GraphPairLocal` whose map has no exact Jacobian, and an oracle
    for the exact ones."""
    d_u, d_xi = dims[0], dims[3]

    def value(point):
        return np.asarray(f(point[:d_u], point[d_u:]), dtype=complex).reshape(-1)

    def jac(u, xprime):
        point = np.concatenate([u, xprime])
        h = FD_STEP * (1.0 + np.linalg.norm(point))
        full = np.zeros((d_xi, point.size), dtype=complex)
        for j in range(point.size):
            e = np.zeros(point.size, dtype=complex)
            e[j] = h
            full[:, j] = (value(point + e) - value(point - e)) / (2.0 * h)
        return full[:, :d_u], full[:, d_u:]

    return jac


def _point_walk(cfg) -> list:
    """The point ids on each component of a configuration, by definition:
    per component, a list of the ids of the node endpoints on it, node by
    node, then of the marks on it (a repeated id would show twice).  The
    length of a list is the component's special point count."""
    return [[pid for pair in cfg.nodes for ci, pid in pair if ci == i]
            + [pid for ci, pid in cfg.marks if ci == i] for i in range(len(cfg.components))]


@pytest.fixture
def point_walk():
    """`_point_walk`, the independent reference of ``NodalConfig.points``."""
    return _point_walk


def random_nodal_config(rng):
    """A connected `NodalConfig` of 1-4 components with genera 0-2 and
    random ghost flags: a random spanning tree, 0-2 extra nodes (self-nodes
    among them) and 0-3 marks, each point id drawn without repeats from
    -3..11 on its component."""
    from hardyglue.moduli import Component, NodalConfig

    n_comp = int(rng.integers(1, 5))
    comps = tuple(Component(int(rng.integers(0, 3)), bool(rng.integers(0, 2))) for _ in range(n_comp))
    free = [list(rng.permutation(np.arange(-3, 12))) for _ in range(n_comp)]

    def point(i):
        return (i, int(free[i].pop()))

    edges = [(int(rng.integers(0, j)), j) for j in range(1, n_comp)]
    edges += [tuple(int(v) for v in rng.integers(0, n_comp, 2)) for _ in range(int(rng.integers(0, 3)))]
    nodes = tuple((point(i), point(j)) for i, j in edges)
    marks = tuple(point(int(rng.integers(0, n_comp))) for _ in range(int(rng.integers(0, 4))))
    return NodalConfig(comps, nodes, marks)


def _reference_basis(b, n, name):
    """``b`` as an n-row basis, by definition: a float64 array as it is,
    anything else as complex128; an empty list, of shape (0,) or (0, 0), is
    the n x 0 basis and any other 1-D array one column."""
    b = b if isinstance(b, np.ndarray) and b.dtype == np.float64 else np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2):
        raise ValueError(f"{name}: expected a 1-D or 2-D array, got {b.ndim}-D shape {b.shape}")
    if b.shape in ((0,), (0, 0)):
        b = np.zeros((n, 0), b.dtype)
    elif b.ndim == 1:
        b = b[:, None]
    if b.shape[0] != n:
        raise ValueError(f"{name}: expected {n} rows, got shape {b.shape}")
    return b


def reference_triple(n, bp, bq):
    """`fredholm.SubspaceTriple(n, bp, bq)` by definition, one matrix at a
    time: the text of the first fault, or ``(bp, bq, spectra, coordinate)``.
    The faults, in order: n below 1; ``B'`` not 1-D or 2-D or of another
    row count; the same for ``B''``, but a non-finite ``B'`` first; a
    non-finite ``B'``, then ``B''`` (`np.isfinite`); then ``B'`` and
    ``B''`` with fewer singular values above ``RANK_TOL`` times the largest
    than columns.  ``spectra`` are one ``np.linalg.svd`` each of ``[B' |
    B'']``, ``B'`` and ``B''``, and ``coordinate`` says, for each, whether
    every column has at most one nonzero entry: then the package may take
    the spectrum in closed form."""
    from hardyglue.fredholm import RANK_TOL

    if n < 1:
        return f"ambient dimension must be positive, got {n}"
    try:
        bp = _reference_basis(bp, n, "basis_prime")
        try:
            bq = _reference_basis(bq, n, "basis_dprime")
        except (TypeError, ValueError):
            if not np.isfinite(bp).all():
                return "basis_prime: entries must be finite (no NaN/Inf)"
            raise
    except ValueError as exc:
        return str(exc)
    for name, b in (("basis_prime", bp), ("basis_dprime", bq)):
        if not np.isfinite(b).all():
            return f"{name}: entries must be finite (no NaN/Inf)"
    mats = (np.hstack([bp, bq]), bp, bq)
    spectra = [np.linalg.svd(m, compute_uv=False) for m in mats]
    for name, b, s in (("basis_prime", bp, spectra[1]), ("basis_dprime", bq, spectra[2])):
        rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size else 0
        if rank < b.shape[1]:
            return f"{name} is rank deficient: rank {rank} < {b.shape[1]} columns at RANK_TOL {RANK_TOL:g}"
    return bp, bq, spectra, [bool(np.all(np.count_nonzero(m, axis=0) <= 1)) for m in mats]


_spec = importlib.util.spec_from_file_location("golden", Path(__file__).parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
_cli_output = functools.lru_cache(maxsize=None)(golden.run)


@pytest.fixture(scope="session")
def cli_output():
    """``(exit code, stdout)`` of ``hardyglue <argv>`` for a tuple ``argv``,
    run in-process once per session (`tests/golden/regen.py`); the CLI is
    deterministic up to ``wall_time_s``."""
    return _cli_output


@pytest.fixture(scope="session")
def golden_cases():
    """The golden report cases and the helpers of `tests/golden/regen.py`."""
    return golden
