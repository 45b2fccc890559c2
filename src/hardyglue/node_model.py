"""The standard node, its boundary traces, and the gluing chart.

The local model lives on ``N_z = {(x, y) in D x D : x*y = z}`` with
``|z| < 1``: an annulus for ``z != 0``, two disks joined at a point for
``z = 0``.  Finite Laurent data ``v(x, y) = sum a_n x^n + sum b_n y^n + c``
restricts to a pair of boundary loops ``(xi, eta)`` on the two boundary
circles.  Such a pair arises from a holomorphic map on the fiber iff its
coefficients satisfy ``eta_{-n} = z^n xi_n`` and ``xi_{-n} = z^n eta_n``
for n > 0, and ``xi_0 = eta_0``.  At ``z = 0`` (``0^n = 0``) this says
that all negative modes vanish and the constants agree.

The set of such pairs is parametrized by the chart
``xi = xi_+ + lam + T_z(eta_+)``, ``eta = eta_+ + lam + T_z(xi_+)`` where
``T_z`` maps the positive-mode coefficient ``c_n`` to ``z^n c_n`` at mode
``-n``.  Gluing the two disk coordinates gives the evaluation map
``H(x, y) = xi_+(x) + eta_+(y) + lam`` at ``z = x*y``.

The relation is computed on stacks: the private kernels take a leading
trial axis, coefficient stacks of shape (T, 2N+1, m), gluing parameters of
shape (T,) and constants of shape (T, m).  `_power_table` forms the powers
``z^n`` once per gluing parameter, for n = K..1 with K the live width: the
highest positive mode that is nonzero in any of the stacks it is given.
`_transfer` multiplies them into ``z^n c_n`` on modes -K..-1 (the rows
further down stay zero, as ``c_n`` is zero there), and `_eval_plus` sums
those same products, so a power series is summed at its live width whatever
order of loop carries it.  numpy's complex power depends on the exponent
alone, so a power has the same bits in any table.  The table takes numpy's
two paths itself: ``z ** n`` for n < 100, where numpy multiplies by binary
exponentiation, and ``exp(n * log(z))`` for n >= 100, where numpy calls the
C library's ``cpow`` and so forms the same ``cexp(n * clog(z))`` once per
entry; the table takes one ``log`` per gluing parameter, and the rows of
``z = 0`` are set to numpy's exact zeros.  One table serves both
transfers of a chart and both defects of a membership test.  The public
functions are stacks of one over the same kernels (`_transfer`,
`_chart_side`, `_defect`, `_eval_plus`), and `loops._norm_pairs` sums each
row by itself (one ``np.vecdot``, the BLAS dot of ``np.dot`` row by row;
scaled only where out of range), so a stacked row gives the same bits as
the public function on that row.

A chart is formed on stacks once, in `_chart_stack` (one power table, then
`_chart`), and `_chart_members` adds the membership residuals over the same
table.  The node battery's relation passes run through them and are
public: `node_battery_residuals` checks a block of random trials and
`h_reproduction_gaps` the H-grid of a polynomial, each returning its residual
arrays.  `extension` reaches the kernels through this module's namespace
(``node_model._power_table``), so one patch of a kernel reaches every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .loops import Loop, _l2_rows, _ldexp, _norm_pairs, _relative, hardy_project, sobolev_norm

__all__ = [
    "DEFAULT_SOBOLEV_S",
    "DEFAULT_TOL",
    "NodeBoundary",
    "NodeChart",
    "NodePolynomial",
    "MembershipResult",
    "boundary_traces",
    "transfer_Tz",
    "node_membership",
    "membership_defect",
    "node_chart",
    "node_chart_inverse",
    "evaluate_H",
    "eval_plus",
    "node_battery_residuals",
    "h_grid",
    "h_reproduction_gaps",
]

# Standing smoothness exponent (the model requires s + 1/2 > 1), and the
# tolerance on a relative residual that decides membership.
DEFAULT_SOBOLEV_S = 1.5
DEFAULT_TOL = 1e-10

# Below this norm of both loops, each part of a defect entry, at most 1 + sqrt(2)
# times the largest part of the pair as |z| < 1, is in the float range.
_DEFECT_SAFE = 2.0 ** 1022

# The least exponent numpy's complex power hands to the C library's cpow.
_EXP_LOG_FROM = 100


def _check_gluing(z: complex) -> None:
    """The fiber ``N_z`` is defined for ``|z| < 1``."""
    if not abs(z) < 1.0:
        raise ValueError(f"gluing parameter must satisfy |z| < 1, got |z|={abs(z):.6g}")


@dataclass(frozen=True)
class NodeBoundary:
    """Gluing parameter ``z`` and the pair of boundary loops ``(xi, eta)``."""

    z: complex
    xi: Loop
    eta: Loop

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        _check_gluing(self.z)
        if self.xi.m != self.eta.m or self.xi.n_max != self.eta.n_max:
            raise ValueError("xi and eta must share m and n_max")


@dataclass(frozen=True)
class NodeChart:
    """Chart coordinates ``(z, xi_+, eta_+, lam)`` of a boundary pair.

    ``xi_plus`` and ``eta_plus`` may only carry modes n > 0; ``lam`` is the
    shared constant term in C^m.
    """

    z: complex
    xi_plus: Loop
    eta_plus: Loop
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        _check_gluing(self.z)
        if self.xi_plus.m != self.eta_plus.m or self.xi_plus.n_max != self.eta_plus.n_max:
            raise ValueError("xi_plus and eta_plus must share m and n_max")
        for name, loop in (("xi_plus", self.xi_plus), ("eta_plus", self.eta_plus)):
            if np.any(loop.coeffs[: loop.n_max + 1] != 0):
                raise ValueError(f"{name} must vanish on modes n <= 0")
        lam = np.asarray(self.lam, dtype=complex).reshape(-1)
        if lam.shape != (self.xi_plus.m,):
            raise ValueError(f"lambda has shape {lam.shape}, expected ({self.xi_plus.m},)")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class NodePolynomial:
    """Finite Laurent data ``v(x, y) = sum_{n>0} a_n x^n + sum_{n>0} b_n y^n + c``.

    ``a`` has shape (deg_x, m) with row i holding the coefficient of
    ``x^(i+1)``; likewise ``b`` for powers of y; ``c`` is the constant.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.c, dtype=complex))
        rows = [np.atleast_2d(np.array(v, dtype=complex)) if np.size(v) else np.zeros((0, c.shape[0]), complex)
                for v in (self.a, self.b)]
        if any(arr.shape[1:] != c.shape for arr in rows):
            raise ValueError("a, b, c must agree on the target dimension m")
        for name, arr in zip("abc", (*rows, c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name}: coefficients must be finite (no NaN/Inf)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def deg_x(self) -> int:
        return self.a.shape[0]

    @property
    def deg_y(self) -> int:
        return self.b.shape[0]

    def __call__(self, x, y) -> np.ndarray:
        """``v`` at complex points ``x`` and ``y`` that broadcast against each
        other, shape (..., m); (m,) at a single point.

        The sum runs ``c``, then each row of ``a``, then each row of ``b``,
        with the powers taken as ``x[..., None] ** arange(1, deg + 1)``,
        which has the bits of each complex scalar ``x ** k``; a loop of array
        powers ``x ** k`` would not, as numpy squares by a faster path at k = 2.
        """
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        val = np.full(np.broadcast_shapes(x.shape, y.shape) + (self.m,), self.c)
        for rows, p in ((self.a, x), (self.b, y)):
            powers = p[..., None] ** np.arange(1, len(rows) + 1)
            for k, row in enumerate(rows):
                val = val + row * powers[..., k, None]
        return val


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    residual: float


def boundary_traces(poly: NodePolynomial, z: complex, n_max: int) -> NodeBoundary:
    """Boundary loops of Laurent data on ``N_z``.

    On the first boundary circle ``x`` runs over S^1 and ``y = z/x``; on
    the second ``y`` runs over S^1 and ``x = z/y``.  The substitution is
    carried out exactly at the coefficient level:
    ``xi = sum a_n x^n + sum b_n z^n x^-n + c`` and symmetrically for eta,
    which is the chart point ``(z, a, b, c)``.
    """
    if max(poly.deg_x, poly.deg_y) > n_max:
        raise ValueError(
            f"polynomial degree {max(poly.deg_x, poly.deg_y)} overflows truncation order {n_max}"
        )
    xi_plus, eta_plus = (Loop(poly.m, n_max, _plus_stack(rows[None], n_max)[0])
                         for rows in (poly.a, poly.b))
    return node_chart(NodeChart(z, xi_plus, eta_plus, poly.c))


def _plus_stack(rows: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficient stack of order ``n_max`` holding ``rows`` (T, d, m) on modes 1..d."""
    out = np.zeros((rows.shape[0], 2 * n_max + 1, rows.shape[2]), dtype=complex)
    out[:, n_max + 1:n_max + 1 + rows.shape[1]] = rows
    return out


def _power_table(z, *stacks) -> np.ndarray:
    """Powers ``z^n`` for n = K..1, shape (T, K), one row per gluing
    parameter in ``z`` (shape (T,)).

    K is the highest positive mode that is nonzero in any of the coefficient
    stacks (each (T, 2N+1, m)); the table serves `_transfer` on any of them.
    A row is ``z ** arange(K, 0, -1)``: the last K entries of the full
    table ``z ** arange(N, 0, -1)``, bit for bit.

    numpy's complex power takes an integer exponent n below `_EXP_LOG_FROM`
    by binary exponentiation, and from there on calls the C library's
    ``cpow``, which is ``cexp(n * clog(z))``.  So the columns n < 100 are
    numpy's power, and the columns n >= 100 are ``exp(n * log(z))`` with
    one ``log`` per gluing parameter: the same operations, so the same bits,
    where ``cpow`` takes one ``clog`` per entry.  numpy gives ``0^n`` as an
    exact zero, where ``log(0)`` is -inf and exp-log would give a -0
    imaginary part, so the rows of ``z = 0`` take the log of 1 and are
    then set to zero.
    """
    n_max, m = stacks[0].shape[1] // 2, stacks[0].shape[2]
    width = 0
    for c in stacks:
        live = c[:, n_max + 1:].reshape(len(c), -1).any(axis=0).nonzero()[0]
        if live.size:
            width = max(width, int(live[-1]) // m + 1)
    z = np.asarray(z, dtype=complex)
    n = np.arange(width, 0, -1)
    high = width - _EXP_LOG_FROM + 1  # the columns n = K.._EXP_LOG_FROM
    if high <= 0:
        return z[:, None] ** n
    nonzero = z.all()
    top = np.exp(n[:high] * np.log(z if nonzero else np.where(z == 0, 1.0, z))[:, None])
    if not nonzero:
        top[z == 0] = 0.0
    return np.concatenate((top, z[:, None] ** n[high:]), axis=1)


def _transfer(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The gluing relation's one kernel: ``z^n c_n`` for n = N..1, the rows
    that land on modes -N..-1, shape (T, N, m) from ``coeffs`` of shape
    (T, 2N+1, m) and ``table`` from `_power_table`.

    Rows with n above the table's width K stay zero: ``c_n`` is zero there,
    so the product would be an exact zero as well.  Every ``z^n`` of the
    gluing relation is taken from such a table.
    """
    n_max = coeffs.shape[1] // 2
    width = table.shape[1]
    out = np.zeros((coeffs.shape[0], n_max, coeffs.shape[2]), dtype=complex)
    out[:, n_max - width:] = table[:, :, None] * coeffs[:, n_max + width:n_max:-1]
    return out


def _chart_side(plus: np.ndarray, lam: np.ndarray, transferred: np.ndarray) -> np.ndarray:
    """One side of the chart on stacks: ``plus + lam + T_z(other plus)``, with
    ``lam`` (T, m) on mode 0 and ``transferred`` (T, N, m) on modes -N..-1."""
    n_max = transferred.shape[1]
    out = np.array(plus)
    out[:, n_max] += lam
    out[:, :n_max] += transferred
    return out


def _chart(table, xi_plus, eta_plus, lam) -> tuple:
    """Stacked `node_chart`: the boundary stacks ``(xi, eta)``."""
    return (_chart_side(xi_plus, lam, _transfer(table, eta_plus)),
            _chart_side(eta_plus, lam, _transfer(table, xi_plus)))


def _chart_stack(z, xi_plus, eta_plus, lam) -> tuple:
    """Stacked `node_chart` over one power table: ``(table, xi, eta)``."""
    table = _power_table(z, xi_plus, eta_plus)
    return (table, *_chart(table, xi_plus, eta_plus, lam))


def _chart_members(z, xi_plus, eta_plus, lam, s: float) -> tuple:
    """`_chart_stack` and the `_membership_residuals` of its pairs over the
    same table: ``(table, xi, eta, residuals, refs)``; on a polynomial, its
    traces."""
    table, xi, eta = _chart_stack(z, xi_plus, eta_plus, lam)
    return (table, xi, eta, *_membership_residuals(table, xi, eta, s))


def _defect(table, xi, eta) -> tuple:
    """Stacked `membership_defect`: the defect stacks ``(dxi, deta)``."""
    n_max = xi.shape[1] // 2
    dxi = np.zeros_like(xi)
    deta = np.zeros_like(eta)
    dxi[:, :n_max] = xi[:, :n_max] - _transfer(table, eta)
    deta[:, :n_max] = eta[:, :n_max] - _transfer(table, xi)
    dxi[:, n_max] = xi[:, n_max] - eta[:, n_max]
    return dxi, deta


def _membership_residuals(table, xi, eta, s: float, mant=None, shift=None) -> tuple:
    """Stacked `node_membership` residuals, shape (T,), of the defect over
    ``mant * 2**-shift`` where given (the annulus test's core weights), and
    the `_norm_pairs` of ``xi`` and ``eta`` they were taken against:
    ``(residuals, refs)``.  A row whose loops reach `_DEFECT_SAFE` takes
    the defect of the pair over 4, exactly, so that no defect entry passes
    the float range."""
    refs = [_norm_pairs(c, s) for c in (xi, eta)]
    top = np.maximum(*(_ldexp(v, e) for v, e in refs))
    if max(top.tolist(), default=0.0) >= _DEFECT_SAFE:  # Python's max is the cheaper at T = 1
        quarter = np.where(top >= _DEFECT_SAFE, -2, 0)[:, None, None]
        xi, eta, shift = _ldexp(xi, quarter), _ldexp(eta, quarter), (0 if shift is None else shift) - quarter
    parts = [d if mant is None else d / mant for d in _defect(table, xi, eta)]
    return _relative([_norm_pairs(d, s, shift) for d in parts], refs), refs


def _check_members(residuals, tol: float) -> None:
    """The chart inverse's gate: a ValueError naming the first residual in
    ``residuals`` that is not <= tol."""
    for residual in residuals:
        if not residual <= tol:
            raise ValueError(f"boundary pair is not a node member: residual "
                             f"{residual:.3e} > tol {tol:.3e}")


def _chart_inverse(xi, eta, residuals, tol: float) -> tuple:
    """Stacked `node_chart_inverse` of boundary stacks whose membership
    residuals are known: ``(xi_+, eta_+, lam)``, after the same gate."""
    _check_members(residuals, tol)
    n_max = xi.shape[1] // 2
    xi_plus = np.array(xi)
    eta_plus = np.array(eta)
    xi_plus[:, :n_max + 1] = 0.0
    eta_plus[:, :n_max + 1] = 0.0
    return xi_plus, eta_plus, xi[:, n_max].copy()


def _eval_plus(points, coeffs) -> np.ndarray:
    """Stacked `eval_plus`: ``sum_{n>0} c_n x^n`` at one point per row,
    shape (T, m), summed over the transfer's rows of the live modes 1..K
    (K as in `_power_table`).  A row has the bits of `eval_plus` on that
    row when its own live width is K: numpy sums a single column pairwise,
    so leading zero rows would change the rounding."""
    table = _power_table(points, coeffs)
    return np.sum(_transfer(table, coeffs)[:, coeffs.shape[1] // 2 - table.shape[1]:], axis=1)


def transfer_Tz(z: complex, plus_loop: Loop) -> Loop:
    """Transfer operator: mode ``n > 0`` with coefficient ``c_n`` goes to
    mode ``-n`` with coefficient ``z^n c_n``.

    Defined on the closed disk; the norm bound |z| * |input| holds whenever
    |z| <= 1.
    """
    z = complex(z)
    if not abs(z) <= 1.0:
        raise ValueError(f"transfer operator requires |z| <= 1, got |z|={abs(z):.6g}")
    N = plus_loop.n_max
    if np.any(plus_loop.coeffs[: N + 1] != 0):
        raise ValueError("transfer operator input must be supported on modes n > 0")
    c = plus_loop.coeffs[None]
    out = np.zeros_like(plus_loop.coeffs)
    out[:N] = _transfer(_power_table([z], c), c)[0]
    return plus_loop.with_coeffs(out)


def membership_defect(b: NodeBoundary) -> tuple[Loop, Loop]:
    """Coefficient defect of the gluing relations, as a pair of loops.

    The xi-defect carries ``xi_{-n} - z^n eta_n`` at mode ``-n`` and
    ``xi_0 - eta_0`` at mode 0; the eta-defect carries
    ``eta_{-n} - z^n xi_n`` at mode ``-n``.  At ``z = 0`` (where
    ``0^n = 0``) this is exactly the separate conditions: negative modes
    vanish and the constants agree.  A defect entry past the float range
    is a ValueError: `node_membership` tests such a pair at scale.
    """
    xi, eta = b.xi.coeffs[None], b.eta.coeffs[None]
    with np.errstate(over="ignore", invalid="ignore"):
        dxi, deta = _defect(_power_table([b.z], xi, eta), xi, eta)
    try:
        return b.xi.with_coeffs(dxi[0]), b.eta.with_coeffs(deta[0])
    except ValueError:  # the shapes agree, so an entry is not finite
        raise ValueError("the membership defect is past the float range; "
                         "node_membership tests such a pair at scale") from None


def node_membership(b: NodeBoundary, tol: float = DEFAULT_TOL, s: float = DEFAULT_SOBOLEV_S) -> MembershipResult:
    """Test whether ``(z, xi, eta)`` are the boundary values of a holomorphic
    map on ``N_z``.

    The residual is the Sobolev-s norm of the relation defect divided by
    ``1 + max(|xi|_s, |eta|_s)``; membership means residual <= tol.  Loops
    whose norms reach `_DEFECT_SAFE` are tested as a stack of one.
    """
    refs = [sobolev_norm(loop, s) for loop in (b.xi, b.eta)]
    if max(refs) < _DEFECT_SAFE:  # then the defect's norms, at most |xi|_s + |eta|_s, are finite
        parts = [sobolev_norm(loop, s) for loop in membership_defect(b)]
        residual = float(_relative(*[[(np.array([n]), None) for n in g] for g in (parts, refs)])[0])
    else:
        xi, eta = b.xi.coeffs[None], b.eta.coeffs[None]
        residuals, _ = _membership_residuals(_power_table([b.z], xi, eta), xi, eta, s)
        residual = float(residuals[0])
    return MembershipResult(residual <= tol, residual)


def node_chart(c: NodeChart) -> NodeBoundary:
    """Boundary pair of a chart point:
    ``xi = xi_+ + lam + T_z(eta_+)`` and ``eta = eta_+ + lam + T_z(xi_+)``."""
    N = c.xi_plus.n_max
    lam = c.lam[None]
    xi = _chart_side(c.xi_plus.coeffs[None], lam, transfer_Tz(c.z, c.eta_plus).coeffs[None, :N])
    eta = _chart_side(c.eta_plus.coeffs[None], lam, transfer_Tz(c.z, c.xi_plus).coeffs[None, :N])
    m = c.xi_plus.m
    return NodeBoundary(c.z, Loop(m, N, xi[0]), Loop(m, N, eta[0]))


def node_chart_inverse(b: NodeBoundary, tol: float = DEFAULT_TOL, s: float = DEFAULT_SOBOLEV_S) -> NodeChart:
    """Chart coordinates of a boundary pair: ``lam = xi_0``, ``xi_+ = P_+ xi``,
    ``eta_+ = P_+ eta``.  Rejects non-members (the negative modes and the
    constant matching are exactly the membership relations)."""
    _check_members([node_membership(b, tol=tol, s=s).residual], tol)
    return NodeChart(
        b.z,
        hardy_project(b.xi, "plus"),
        hardy_project(b.eta, "plus"),
        hardy_project(b.xi, "constant"),
    )


def eval_plus(loop: Loop, point: complex) -> np.ndarray:
    """Evaluate the positive-mode power series ``sum_{n>0} c_n x^n`` at a point."""
    return _eval_plus([complex(point)], loop.coeffs[None])[0]


def evaluate_H(family, x: complex, y: complex, t=None) -> np.ndarray:
    """Glued evaluation ``H(x, y, t) = xi_+(x) + eta_+(y) + lam`` at ``z = x*y``.

    ``family`` is a callable ``(z, t) -> NodeChart`` describing a chart-valued
    family over the gluing parameter; an exception it raises propagates
    unchanged, and a value that is not a `NodeChart` is a ValueError.  At
    ``x = y = 0`` the value is ``lam(0, t)``.
    """
    x = complex(x)
    y = complex(y)
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise ValueError("evaluation requires |x| < 1 and |y| < 1")
    chart = family(x * y, t)
    if not isinstance(chart, NodeChart):
        raise ValueError("family must return a NodeChart")
    return eval_plus(chart.xi_plus, x) + eval_plus(chart.eta_plus, y) + chart.lam


def node_battery_residuals(charts: tuple, traces: tuple, n_max: int,
                           s: float = DEFAULT_SOBOLEV_S) -> tuple:
    """Chart membership, chart roundtrip, boundary roundtrip and trace
    membership residuals of T random trials, each of shape (T,).

    ``charts`` is ``(z, xi_+ rows, eta_+ rows, lam)`` and ``traces`` is a
    polynomial's ``(z, a, b, c)``, rows (T, d, m) on modes 1..d of order
    ``n_max``.  A ValueError names the first ``|z| >= 1``, trial by trial,
    a chart's first.  Each row has the bits of the public functions on that
    trial alone (chart inverse at tol 1e-8; the chart roundtrip in the l2
    norms of ``np.linalg.norm``, over ``1 + |xi_+| + |eta_+|``)."""
    (z, xi_rows, eta_rows, lam), (z_trace, a, b, c) = charts, traces
    gluing = np.stack([z, z_trace], axis=1).ravel()
    outside = gluing[np.abs(gluing) >= 1.0]
    if outside.size:
        _check_gluing(complex(outside[0]))
    traced = _chart_members(z_trace, _plus_stack(a, n_max), _plus_stack(b, n_max), c, s)[3]
    plus = (_plus_stack(xi_rows, n_max), _plus_stack(eta_rows, n_max))
    table, xi, eta, member, refs = _chart_members(z, *plus, lam, s)
    back = _chart_inverse(xi, eta, member, 1e-8)  # shares z with the chart
    num = np.hypot(_l2_rows(plus[0] - back[0]), _l2_rows(plus[1] - back[1]))
    roundtrip = np.hypot(num, _l2_rows(lam - back[2])) / (1.0 + _l2_rows(plus[0]) + _l2_rows(plus[1]))
    del plus
    xi_back, eta_back = _chart(table, *back)
    del back
    # over the norms of xi and eta that the chart membership pass took
    boundary = _relative([_norm_pairs(np.subtract(first, again, out=again), s)
                          for first, again in ((xi, xi_back), (eta, eta_back))], refs)
    return member, roundtrip, boundary, traced


@functools.lru_cache(maxsize=1)
def h_grid() -> tuple:
    """The H-grid's fixed 10 x 10 points, read-only arrays of shape (100,):
    ``(xs, ys, z)`` with ``z = x*y`` formed point by point."""
    points = []
    radii = 0.85 * (np.arange(10) + 0.5) / 10
    for j in range(10):
        x = radii[j] * np.exp(2j * np.pi * j / 10)
        for k in range(10):
            points.append((x, radii[k] * np.exp(2j * np.pi * (k + 0.3) / 10)))
    xs, ys = (np.array(v, dtype=complex) for v in zip(*points))
    z = np.array([complex(x) * complex(y) for x, y in points])
    for arr in (xs, ys, z):
        arr.flags.writeable = False
    return xs, ys, z


def h_reproduction_gaps(poly: NodePolynomial) -> np.ndarray:
    """``max |H - v| / (1 + max |v|)`` at each point of `h_grid`, shape (100,):
    the glued evaluation ``H(x, y)`` of the chart inverse (gate 1e-8) of the
    traces of ``v`` at ``z = x*y``, against ``v`` summed term by term by
    `NodePolynomial.__call__`, an oracle independent of the gluing kernels.
    One pass at the width K of ``v``, its degree: modes past K are exact
    zeros at any order, so the stacks are (100, 2K+1, m)."""
    xs, ys, z = h_grid()
    refs = poly(xs, ys)
    width = max(poly.deg_x, poly.deg_y)
    # one row broadcast to the grid's points, so the positive parts are not built per point
    plus = [np.broadcast_to(_plus_stack(v[None], width), (len(z), 2 * width + 1, poly.m)) for v in (poly.a, poly.b)]
    _, xi, eta, member, _ = _chart_members(z, *plus, np.broadcast_to(poly.c, z.shape + (poly.m,)), DEFAULT_SOBOLEV_S)
    xi_plus, eta_plus, lam = _chart_inverse(xi, eta, member, 1e-8)
    hvals = _eval_plus(xs, xi_plus) + _eval_plus(ys, eta_plus) + lam
    return np.max(np.abs(hvals - refs), axis=1) / (1.0 + np.max(np.abs(refs), axis=1))
