"""Fredholm triples and quadruples in finite dimensions.

A triple is an ambient space ``C^N`` with two subspaces given by full-rank
basis matrices, kept in float64 when given as float64 arrays and in
complex128 otherwise.  In finite dimensions every triple is Fredholm; its index
``dim(E' ∩ E'') - dim(E/(E'+E''))`` always equals ``p + q - N``, which the
test suite asserts as the Euler identity.  On top of the
triples sit the graph-form local quadruples ``X'' = {x'=0, xi=0}``,
``X' = {x''=0, xi=f(u,x')}`` with the distinguished intersection equation
``f(u, 0) = 0``, their finite-dimensional reductions
``U' = {(u,0,0,f(u,0))}``, ``U'' = {(u,0,0,0)}`` with the tangent
identities that `FiniteDimReduction.tangent_check` measures, and a damped
Gauss-Newton solver for the intersection equation.

Every rank decision counts the singular values above `RANK_TOL` times the
largest of one spectrum (`_rank_of`), relative to the largest singular
value of ``[B' | B'']``, so results do not depend on the bases while their
scales differ by less than ``1/RANK_TOL``.  A `SubspaceTriple` takes its
three spectra once; `triple_index` and `index_stability_check` read them.
`subspace_triples` builds many triples at once, and a `SubspaceTriple` is
its batch of one: `_spectra` takes the spectra of the sides and then of the
``[B' | B'']``, a group of one matrix shape and dtype at a time.  A basis
whose columns have at most one nonzero entry each (a coordinate basis, such
as the 0/1 mode columns of the Hardy triples of `moduli`) has them in
closed form: ``B B^H`` is then diagonal, so its singular values are its row
norms, padded with zeros, and ``[B' | B'']`` is a coordinate basis when
both sides are.  Every other spectrum is LAPACK's.  Each pair of subspaces
is decided by one SVD (`_cap_and_outer`).
`index_stability_check` proves a triple stable from its three spectra
(Weyl's inequality) and draws perturbed triples only where that fails.
"""

from __future__ import annotations

import cmath
import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .loops import _at_scale, _l2_rows, _ldexp, _top_exponents

__all__ = [
    "SubspaceTriple",
    "subspace_triples",
    "TripleIndex",
    "triple_index",
    "StabilityResult",
    "index_stability_check",
    "GraphPairLocal",
    "PolynomialMap",
    "FiniteDimReduction",
    "TangentCheck",
    "NewtonResult",
    "intersect_newton",
    "polynomial_test_set",
    "orthonormal_range",
]

RANK_TOL = 1e-9  # the one rank tolerance, relative to the largest singular value


def _as_basis(mat, n_rows: int, name: str) -> np.ndarray:
    """``mat`` as a 2-D array of ``n_rows`` rows, not copied: the empty
    list, of shape (0,) or (0, 0), is the ``n_rows`` x 0 basis, any other
    1-D ``mat`` one column; float64 when it is a float64 array, complex128
    otherwise.  Its finiteness is decided for its group (`_spectra`)."""
    if not (isinstance(mat, np.ndarray) and mat.dtype == np.float64):
        mat = np.asarray(mat, dtype=complex)
    if mat.ndim not in (1, 2):
        raise ValueError(f"{name}: expected a 1-D or 2-D array, got {mat.ndim}-D shape {mat.shape}")
    if mat.shape in ((0,), (0, 0)):
        mat = mat.reshape(n_rows, 0)
    elif mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != n_rows:
        raise ValueError(f"{name}: expected {n_rows} rows, got shape {mat.shape}")
    return mat


def _not_finite(name: str) -> ValueError:
    return ValueError(f"{name}: entries must be finite (no NaN/Inf)")


def _rank_of(s: np.ndarray) -> int:
    """Number of singular values ``s`` (descending) above `RANK_TOL` times
    the largest; 0 for an empty or zero matrix."""
    return int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size else 0


def _nonzero_counts(stack: np.ndarray) -> list:
    """The number of nonzero entries of each basis of a stack (T, ...); one
    count settles a stack of one basis, and one that is all zero or all
    nonzero."""
    n, total = len(stack), np.count_nonzero(stack)
    if n == 1 or total == 0 or total == stack.size:
        return [total // n] * n
    return np.add.reduce(stack.reshape(n, -1) != 0, axis=1).tolist()


def _coordinate_rows(stack: np.ndarray, finite: list) -> tuple:
    """``(coordinate, norms)`` for a stack of bases (T, N, k): per basis,
    whether it is finite (``finite``, a flag per basis) and has at most one
    nonzero entry in each column, and, for those, the norms of their rows,
    taken at scale (`loops._at_scale`), none where k = 0; the other bases'
    rows read 0.

    A stack of more than one row without a zero entry holds none, which one
    count settles.  Otherwise a basis is a coordinate basis when the first
    nonzero entry of each column (``argmax`` of ``stack != 0``) accounts
    for all its nonzero entries, and the norms are those of the rows of
    those first entries (a zero row would take the rescue)."""
    n_bases, n_rows, width = stack.shape
    mask = stack != 0
    if n_rows > 1 and 0 < np.count_nonzero(mask) == mask.size:
        return [False] * n_bases, np.zeros((n_bases, n_rows))
    at = mask.argmax(axis=1)  # (T, k), the row of each column's first nonzero entry
    hit = mask[np.arange(n_bases)[:, None], at, np.arange(width)]  # (T, k), the nonzero columns
    coordinate = [ok and nnz == hits for ok, nnz, hits in zip(finite, _nonzero_counts(mask), _nonzero_counts(hit))]
    if not all(coordinate):
        hit &= np.array(coordinate)[:, None]
    norms = np.zeros((n_bases, n_rows if width else 0))
    t, col = hit.nonzero()
    if t.size:
        rows = at[t, col]
        norms[t, rows] = _ldexp(*_at_scale(_l2_rows, stack[t, rows]))
    return coordinate, norms


def orthonormal_range(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :_rank_of(s)]


def _cap_and_outer(B1: np.ndarray, B2: np.ndarray) -> tuple:
    """Orthonormal bases of ``span(B1) ∩ span(B2)`` and of the complement
    of ``span(B1) + span(B2)`` from one SVD of ``[B1 | -B2]`` and one rank:
    the intersection is ``B1 a = B2 b`` over its kernel ``(a, b)``, the
    complement is spanned by the left singular vectors past the rank."""
    u, s, vh = np.linalg.svd(np.hstack([B1, -B2]), full_matrices=True)
    rank = _rank_of(s)
    return orthonormal_range(B1 @ vh[rank:, :B1.shape[1]].conj().T), u[:, rank:]


@dataclass(frozen=True)
class SubspaceTriple:
    """Ambient dimension plus two full-column-rank subspace bases, 1-D or
    2-D, each copied read-only, as float64 when it is a float64 array and as
    complex128 otherwise, and ``spectra``: the singular values (descending,
    read-only) of ``[B' | B'']``, ``B'`` and ``B''``, taken once.  A
    coordinate basis (at most one nonzero entry a column; a side without
    columns is one) takes no SVD: its singular values are its row norms,
    taken at scale, and ``[B' | B'']`` takes none when both sides are
    coordinate bases.  The other spectra are LAPACK's bytes.  The triple is
    the batch of one of `subspace_triples`."""

    ambient_dim: int
    basis_prime: np.ndarray
    basis_dprime: np.ndarray
    spectra: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        built, = _triples([(self.ambient_dim, self.basis_prime, self.basis_dprime)])
        if isinstance(built, Exception):
            raise built
        vars(self).update(vars(built))

    @property
    def p(self) -> int:
        return self.basis_prime.shape[1]

    @property
    def q(self) -> int:
        return self.basis_dprime.shape[1]


def subspace_triples(triples) -> list:
    """``SubspaceTriple(N, B', B'')`` for each ``(N, B', B'')`` of
    ``triples``, in order, or the ValueError or TypeError that call raises
    in its place; the same bases, spectra and rejections, bit for bit."""
    return _triples(triples)


def _triples(triples) -> list:
    """Per ``(N, B', B'')`` of ``triples``, its `SubspaceTriple` or the
    ValueError or TypeError that rejects it.  The first fault rejects, in
    this order: an ambient dimension that is not a number, below 1 or past
    numpy's largest; then for ``B'`` and after it for ``B''`` a basis that
    is not 1-D or 2-D, has another row count than N, or has an entry that
    is not finite; then ``B'`` and after it ``B''`` whose `_rank_of` is
    below its column count.

    Two rounds of `_spectra`, one call per group of matrices of one shape
    and dtype: first the sides of every triple, then the ``[B' | B'']`` of
    the triples that pass, but for those whose sides are both coordinate
    bases: that is one too, with the row norms ``hypot`` of theirs, so its
    spectrum is those sorted (`_spectra`)."""
    parts, groups = [], {}
    for n, bp, bq in triples:
        try:
            if n < 1:
                raise ValueError(f"ambient dimension must be positive, got {reprlib.repr(n)}")
            if n > sys.maxsize:  # numpy's largest array dimension
                raise ValueError(f"ambient_dim: {reprlib.repr(n)} is past numpy's largest array dimension")
            bp = _as_basis(bp, n, "basis_prime")
            try:
                bq = _as_basis(bq, n, "basis_dprime")
            except (TypeError, ValueError):
                if not np.isfinite(bp).all():  # B' is rejected first
                    raise _not_finite("basis_prime") from None
                raise
        except (TypeError, ValueError) as exc:
            parts.append(exc)
            continue
        part = [n]
        for b in (bp, bq):
            group = groups.setdefault((b.shape, b.dtype), [])
            part.append(((b.shape, b.dtype), len(group)))
            group.append(b)
        parts.append(part)
    sides = {key: list(zip(*_spectra(group))) for key, group in groups.items()}
    out, pairs = [], {}
    for part in parts:
        if isinstance(part, Exception):
            out.append(part)
            continue
        n, (key_p, i), (key_q, j) = part
        (bp, ok_p, rows_p, sp, rank_p), (bq, ok_q, rows_q, sq, rank_q) = sides[key_p][i], sides[key_q][j]
        if not (ok_p and ok_q):
            out.append(_not_finite("basis_dprime" if ok_p else "basis_prime"))
            continue
        if rank_p < bp.shape[1] or rank_q < bq.shape[1]:
            name, rank, b = ("basis_prime", rank_p, bp) if rank_p < bp.shape[1] else ("basis_dprime", rank_q, bq)
            out.append(ValueError(f"{name} is rank deficient: rank {rank} < {b.shape[1]} columns "
                                  f"at RANK_TOL {RANK_TOL:g}"))
            continue
        t = object.__new__(SubspaceTriple)
        vars(t).update(ambient_dim=n, basis_prime=bp, basis_dprime=bq)
        out.append(t)
        if rows_p is None or rows_q is None:
            pair = np.concatenate((bp, bq), axis=1)
            pairs.setdefault((pair.shape, pair.dtype), []).append((t, pair, sp, sq))
        else:  # a side without columns has no row norms: the pair has the other side's
            s = -(np.hypot(rows_p, rows_q) if bp.shape[1] and bq.shape[1] else rows_q if bq.shape[1] else rows_p)
            s.sort()
            s = -s[:bp.shape[1] + bq.shape[1]]
            s.flags.writeable = False
            vars(t)["spectra"] = (s, sp, sq)
    for waiting in pairs.values():
        for (t, _, sp, sq), s in zip(waiting, _spectra([pair for _, pair, _, _ in waiting])[3]):
            vars(t)["spectra"] = (s, sp, sq)
    return out


def _spectra(mats: list) -> tuple:
    """``(copies, finite, rows, s, ranks)`` of matrices ``mats`` of one shape
    (N, k) and dtype, each with an entry per matrix: a read-only copy;
    whether its entries are finite; the norms of its rows when it is a
    finite coordinate basis (`_coordinate_rows`), else None; its singular
    values, descending and read-only (zeros where it is not finite); and
    their `_rank_of`.  Each of these is one array reduction over the stack.

    A coordinate basis ``M`` has its spectrum in closed form: ``M M^H`` is
    diagonal and holds the squared row norms (Golub & Van Loan, *Matrix
    Computations*, 2.4), so the singular values are the largest ``min(N,
    k)`` row norms.  The other finite matrices go to one stacked
    ``np.linalg.svd``, whose gufunc runs the LAPACK call of a single matrix
    on each and so gives each the bytes of its own call."""
    stack = np.array(mats)
    stack.flags.writeable = False
    count, width = len(stack), stack.shape[2]
    finite = np.isfinite(stack)
    if np.count_nonzero(finite) == finite.size:  # one count settles the common stack
        finite = [True] * count
    else:
        finite = np.logical_and.reduce(finite.reshape(count, -1), axis=1).tolist()
    coordinate, norms = _coordinate_rows(stack, finite)
    dense = [ok and not closed for ok, closed in zip(finite, coordinate)]
    if all(dense):
        s = np.linalg.svd(stack, compute_uv=False)
    else:
        s = -norms
        s.sort(axis=1)
        s = -s[:, :width]
        if any(dense):
            dense = np.array(dense)
            s[dense] = np.linalg.svd(stack[dense], compute_uv=False)
    s.flags.writeable = False
    above = s > RANK_TOL * s[:, :1]
    ranks = [s.shape[1]] * count if np.count_nonzero(above) == above.size else np.add.reduce(above, axis=1).tolist()
    return stack, finite, [norms[t] if closed else None for t, closed in enumerate(coordinate)], s, ranks


class TripleIndex(NamedTuple):
    dim_cap: int
    codim_sum: int
    index: int


def triple_index(t: SubspaceTriple) -> TripleIndex:
    """Intersection dimension, codimension of the sum, and their difference.

    ``dim_cap`` is the nullity of ``[B' | -B'']`` and ``codim_sum`` is
    ``N - rank[B' | B'']``; the index ``dim_cap - codim_sum`` satisfies the
    Euler identity ``p + q - N`` exactly.
    """
    rank = _rank_of(t.spectra[0])
    dim_cap = t.p + t.q - rank
    codim_sum = t.ambient_dim - rank
    return TripleIndex(dim_cap, codim_sum, dim_cap - codim_sum)


@dataclass(frozen=True)
class StabilityResult:
    """Verdict of `index_stability_check`; ``trials`` counts the
    perturbations the verdict rests on: none for "inconclusive", k when the
    k-th changed the index, all of them when the trials found it "stable",
    and none when the certificate proved it "stable".  ``margin`` is the
    certificate's smallest margin in units of ``RANK_TOL * s_0``, positive
    and finite, when it decided the verdict, and 0.0 otherwise."""

    verdict: str  # "stable" | "changed" | "inconclusive"
    min_gap: float
    trials: int
    margin: float = 0.0

    def __bool__(self) -> bool:
        return self.verdict == "stable"


# Ulps of the largest singular value that the certificate adds to the
# perturbation's norm, a few for each of: the backward error of the SVD
# taken here, that of the SVD of a perturbed triple, and the rounding of
# ``b + E``.
_CERTIFICATE_ULPS = 32


def index_stability_check(t: SubspaceTriple, eps: float, trials: int = 100, seed: int = 0) -> StabilityResult:
    """Check that (dim_cap, codim_sum, index) survive random basis
    perturbations of relative size ``eps``, a number >= 0.

    The verdict is only conclusive when ``eps < 0.1 * gap`` for the
    spectral gap of the stacked basis matrix; below that threshold a
    perturbation could flip the rank decision itself and the check reports
    "inconclusive" together with the observed gap, without drawing any
    perturbation.

    Past the gate, a certificate is tried first (`_certificate`): by
    Weyl's inequality for singular values (Stewart & Sun, *Matrix
    Perturbation Theory*, 1990) no trial moves a singular value of ``B'``,
    ``B''`` or ``[B' | B'']`` by more than ``eps`` times the Frobenius norm
    of what it perturbs.  When all three rank decisions keep their margin
    against that move, no trial can change the index: the verdict is
    "stable" with ``trials == 0`` and the smallest margin, and nothing is
    drawn.

    Otherwise trial k perturbs ``B'`` and then ``B''`` by ``eps |B| g /
    |g|``, with ``g`` the real and then the imaginary part drawn from one
    stream, and builds the perturbed `SubspaceTriple`.  The index changes
    at trial k when that triple is rejected (a basis lost rank) or its
    `triple_index` differs.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be a number >= 0, got {eps}")
    s = t.spectra[0]
    rank = _rank_of(s)
    # the relative gap at that rank; full-column-rank bases make rank >= 1
    # whenever there is a column at all
    below = s[rank] / s[0] if rank < s.size else 0.0
    gap = float(s[rank - 1] / s[0] - below) if s.size else 1.0
    if eps >= 0.1 * gap:
        return StabilityResult("inconclusive", gap, 0)
    margin = _certificate(t, eps)
    if margin > 0.0:
        return StabilityResult("stable", gap, 0, margin)
    rng = np.random.default_rng(seed)
    index = triple_index(t)
    for k in range(1, trials + 1):
        bp = _perturbed(t.basis_prime, eps, rng)  # B' draws first
        try:
            moved = SubspaceTriple(t.ambient_dim, bp, _perturbed(t.basis_dprime, eps, rng))
        except ValueError:
            return StabilityResult("changed", gap, k)
        if triple_index(moved) != index:
            return StabilityResult("changed", gap, k)
    return StabilityResult("stable", gap, trials)


def _perturbed(b: np.ndarray, eps: float, rng) -> np.ndarray:
    """``b + eps (|b| / |g|) g``, ``g`` the real and then the imaginary part
    drawn from ``rng`` in the shape of ``b``; ``b`` itself when it is empty."""
    if not b.size:
        return b
    g = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    return b + eps * (np.linalg.norm(b) / np.linalg.norm(g)) * g


def _certificate(t: SubspaceTriple, eps: float) -> float:
    """The smallest `_weyl_margin` of the three rank decisions on ``t``,
    read from ``t.spectra``: ``B'`` against ``d' = eps |B'|_F``, ``B''``
    against ``d'' = eps |B''|_F`` and ``[B' | B'']`` against ``hypot(d',
    d'')``.  ``1 / RANK_TOL``, more than any spectrum's, when there is no
    column."""
    s, sp, sq = t.spectra
    dp, dq = (eps * float(np.linalg.norm(b)) for b in (t.basis_prime, t.basis_dprime))
    margins = [_weyl_margin(s, math.hypot(dp, dq))] if s.size else []
    margins += [_weyl_margin(side, d) for side, d in ((sp, dp), (sq, dq)) if side.size]
    return min(margins, default=1.0 / RANK_TOL)


def _weyl_margin(s: np.ndarray, d: float) -> float:
    """How far the rank decision on the spectrum ``s`` (descending, not
    empty, ``s_0 > 0``) holds against any perturbation of 2-norm at most
    ``d``, in units of ``RANK_TOL * s_0``; positive when it holds.

    With ``r`` the rank and each singular value moved by at most ``d``,
    ``s_{r-1}`` stays above the rule's threshold while ``s_{r-1} - d >
    RANK_TOL (s_0 + d)`` and ``s_r`` (where it exists) stays at or below
    it while ``s_r + d <= RANK_TOL (s_0 - d)``.  ``d`` is first padded by a
    relative 1e-12 for the rounding of the perturbation's norm and by
    `_CERTIFICATE_ULPS` ulps of ``s_0``."""
    r = _rank_of(s)
    s0 = float(s[0])
    d = d * (1.0 + 1e-12) + _CERTIFICATE_ULPS * np.finfo(float).eps * s0
    slack = s[r - 1] - d - RANK_TOL * (s0 + d)
    if r < s.size:
        slack = min(slack, RANK_TOL * (s0 - d) - s[r] - d)
    return float(slack / (RANK_TOL * s0))


# ---------------------------------------------------------------------------
# graph-form local quadruples


@dataclass(frozen=True)
class GraphPairLocal:
    """Local graph data for a pair of submanifolds through the origin.

    ``dims = (d_u, d_xprime, d_xdprime, d_xi)`` fixes the coordinate
    blocks; ``f(u, xprime) -> xi`` is the graph map with ``f(0,0) = 0``,
    and ``jac(u, xprime)`` returns its pair of block Jacobians.  The
    model requires ``df(0,0) = 0``; pass ``allow_nonflat=True`` to skip
    that check for maps that are not in straightened form.
    """

    dims: tuple
    f: Callable
    jac: Callable
    allow_nonflat: bool = False

    def __post_init__(self):
        if not callable(self.jac):
            raise TypeError(f"jac must be a callable returning the block Jacobians, got {self.jac!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 4 or any(d < 0 for d in dims):
            raise ValueError(f"dims must be four nonnegative integers, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        u0 = np.zeros(dims[0], dtype=complex)
        xp0 = np.zeros(dims[1], dtype=complex)
        fnorm = np.linalg.norm(self.evaluate(u0, xp0))
        if not fnorm <= 1e-12:
            raise ValueError(f"graph map must satisfy f(0,0)=0, got |f(0,0)|={fnorm:.3e}")
        if not self.allow_nonflat:
            ju, jxp = self.jacobian(u0, xp0)
            dnorm = np.maximum(np.linalg.norm(ju), np.linalg.norm(jxp))
            if not dnorm <= 1e-8:
                raise ValueError(f"graph map must satisfy df(0,0)=0, got |df(0,0)|={dnorm:.3e} "
                                 "(use allow_nonflat=True for unstraightened data)")

    def evaluate(self, u, xprime) -> np.ndarray:
        val = np.asarray(self.f(np.asarray(u, dtype=complex), np.asarray(xprime, dtype=complex)),
                         dtype=complex).reshape(-1)
        if val.shape != (self.dims[3],):
            raise ValueError(f"graph map returned shape {val.shape}, expected ({self.dims[3]},)")
        return val

    def jacobian(self, u, xprime) -> tuple:
        """Block Jacobians (df/du, df/dxprime) at (u, xprime)."""
        ju, jxp = self.jac(np.asarray(u, dtype=complex), np.asarray(xprime, dtype=complex))
        return (np.asarray(ju, dtype=complex).reshape(self.dims[3], self.dims[0]),
                np.asarray(jxp, dtype=complex).reshape(self.dims[3], self.dims[1]))


def _power(v: complex, p: int) -> complex:
    """``v ** p`` for an exponent ``p >= 1``, with the bits that numpy's
    complex128 power gives in a `_product`.  Below exponent 100 Python's
    power runs numpy's repeated squaring; it differs only in the signs of
    zeros and in a part next to a NaN, which a `_product` and the sums from
    ``0j`` do not show, and it raises an OverflowError where numpy returns
    an infinite part.  From 100 up numpy calls libm's ``cpow``.  Both take
    numpy's power."""
    if p < 100:
        try:
            return v ** p
        except OverflowError:
            pass
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.complex128(v) ** p)


def _product(vals: list, factors: tuple) -> complex:
    """``1.0 + 0j`` times `_power` of ``vals[k]`` to ``p`` for each factor
    ``(k, p)`` in turn.  The product by ``1.0 + 0j`` stays: it can flip the
    sign of a zero, and it turns an infinite power's other part to NaN."""
    out = 1.0 + 0j
    for k, p in factors:
        out *= _power(vals[k], p)
    return out


def _lowered(factors: tuple, k: int) -> tuple:
    """``factors`` with the exponent of coordinate ``k`` lowered by one, and
    dropped when that leaves 0."""
    return tuple((j, p - 1 if j == k else p) for j, p in factors if j != k or p > 1)


@dataclass(frozen=True)
class PolynomialMap:
    """Polynomial graph map with exact Jacobians.

    ``terms[i]`` lists the monomials of the i-th output component as
    ``(coeff, u_exponents, xprime_exponents)``, the coefficients finite and
    the exponents nonnegative integers.  Usable directly as the ``f``/``jac``
    pair of a `GraphPairLocal` via :meth:`as_graph`.

    The map is compiled once.  ``monomials[i]`` holds the terms of
    component i as ``(coeff, u_factors, xp_factors)``, the nonzero exponents
    as ``(coordinate, exponent)`` pairs over the coordinates of ``(u, x')``;
    ``partials[i]`` holds their nonzero partial derivatives as
    ``(coordinate, coeff * exponent, u_factors, xp_factors)``, that exponent
    lowered by one.  Values and Jacobians are sums from ``0j``, in term
    order, of ``coeff * mu * mx`` on Python complex scalars, ``mu`` and
    ``mx`` each a `_product`: the bits of the same sums over numpy
    complex128 scalars.  An overflow gives an infinite or NaN value and no
    warning.
    """

    dims: tuple
    terms: tuple
    monomials: tuple = field(init=False, compare=False, repr=False)
    partials: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        norm_terms, monomials, partials = [], [], []
        for i, comp in enumerate(self.terms):
            rows, values, slopes = [], [], []
            for j, (coeff, u_pows, xp_pows) in enumerate(comp):
                u_pows = tuple(int(p) for p in u_pows)
                xp_pows = tuple(int(p) for p in xp_pows)
                if len(u_pows) != dims[0] or len(xp_pows) != dims[1]:
                    raise ValueError("exponent tuples must match (d_u, d_xprime)")
                if min(u_pows + xp_pows, default=0) < 0:
                    raise ValueError(f"term {j} of component {i} has a negative exponent: "
                                     f"u {list(u_pows)}, xp {list(xp_pows)}")
                coeff = complex(coeff)
                if not cmath.isfinite(coeff):
                    raise ValueError(f"components[{i}][{j}]: coefficient must be finite (no NaN/Inf), got {coeff}")
                rows.append((coeff, u_pows, xp_pows))
                u_f = tuple((k, p) for k, p in enumerate(u_pows) if p)
                xp_f = tuple((dims[0] + k, p) for k, p in enumerate(xp_pows) if p)
                values.append((coeff, u_f, xp_f))
                slopes += [(k, coeff * p, _lowered(u_f, k), xp_f) for k, p in u_f]
                slopes += [(k, coeff * p, u_f, _lowered(xp_f, k)) for k, p in xp_f]
            norm_terms.append(tuple(rows))
            monomials.append(tuple(values))
            partials.append(tuple(slopes))
        if len(norm_terms) != dims[3]:
            raise ValueError(f"need {dims[3]} components, got {len(norm_terms)}")
        object.__setattr__(self, "terms", tuple(norm_terms))
        object.__setattr__(self, "monomials", tuple(monomials))
        object.__setattr__(self, "partials", tuple(partials))

    def _point(self, u, xprime) -> list:
        """The coordinates of ``(u, x')`` as one list of Python complex scalars."""
        u = np.asarray(u, dtype=complex).tolist()
        xp = np.asarray(xprime, dtype=complex).tolist()
        if len(u) != self.dims[0] or len(xp) != self.dims[1]:
            raise ValueError(f"point has {len(u)} u and {len(xp)} x' coordinates, "
                             f"expected {self.dims[0]} and {self.dims[1]}")
        return u + xp

    def __call__(self, u, xprime) -> np.ndarray:
        vals = self._point(u, xprime)
        out = []
        for comp in self.monomials:
            acc = 0j
            for coeff, u_f, xp_f in comp:
                acc += coeff * _product(vals, u_f) * _product(vals, xp_f)
            out.append(acc)
        return np.array(out, dtype=complex)

    def jacobian(self, u, xprime) -> tuple:
        vals = self._point(u, xprime)
        rows = []
        for comp in self.partials:
            row = [0j] * len(vals)
            for k, slope, u_f, xp_f in comp:
                row[k] += slope * _product(vals, u_f) * _product(vals, xp_f)
            rows.append(row)
        full = np.array(rows, dtype=complex).reshape(self.dims[3], len(vals))
        du = self.dims[0]
        return full[:, :du].copy(), full[:, du:].copy()

    def as_graph(self, allow_nonflat: bool = False) -> GraphPairLocal:
        """The map as a `GraphPairLocal`.  Its flatness is checked on the
        map's degree-1 part, whose Jacobian at the origin is the map's: there
        a partial whose ``coeff * exponent`` overflows reads ``inf * 0 = NaN``."""
        graph = GraphPairLocal(self.dims, self, jac=self.jacobian, allow_nonflat=True)
        linear = [[(c, u, xp) for c, u, xp in comp if sum(u) + sum(xp) == 1] for comp in self.terms]
        if any(linear) and not allow_nonflat:  # with no degree-1 term df(0,0) is 0
            linear = PolynomialMap(self.dims, linear)
            GraphPairLocal(self.dims, linear, jac=linear.jacobian)
        return graph


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    u: np.ndarray
    residual: float
    iterations: int


def intersect_newton(g: GraphPairLocal, seed, max_iter: int = 100, tol: float = 1e-12) -> NewtonResult:
    """Solve ``f(u, 0) = 0`` by damped Gauss-Newton from a finite ``seed``
    of ``d_u`` entries; a seed of another shape or with a NaN or infinite
    entry is a ValueError.

    Uses Levenberg damping on the normal equations so the generic
    degeneracy ``df(0,0) = 0`` at the root does not break the step.  The
    damping is ``mu`` times the smaller of 1 and ``|J|_F^2 / d_u``, and at
    least ``2**-52`` times that mean, so it stays relative to ``J^H J`` as
    ``J`` vanishes at a singular root and does not underflow for a
    rank-deficient one.  At a root of multiplicity ``m`` the steps shrink
    by the ratio ``(m - 1) / m``; when the ratio of a step to the last
    accepted one is within ``0.2 / m`` of that for an ``m >= 2``, the step
    scaled by ``m`` (Schröder's) is tried first.  Either step is accepted
    only if it lowers the residual norm, so singular roots converge in a few
    iterations and simple roots quadratically once the damping has wound
    down.  Norms are `_hypot`'s, which do not overflow for a finite vector.
    A Jacobian or residual past ``2**500`` is divided by its top power of
    two (`_top_power`) and the damping by the square of the Jacobian's, so
    the normal equations stay in range.  An iterate, residual or step past
    the float range rejects the step or leaves the result unconverged,
    without a warning.
    """
    u = np.asarray(seed, dtype=complex).reshape(-1)
    if u.shape != (g.dims[0],):
        raise ValueError(f"seed has shape {u.shape}, expected ({g.dims[0]},)")
    if not np.isfinite(u).all():
        raise ValueError("seed entries must be finite (no NaN/Inf)")
    xp0 = np.zeros(g.dims[1], dtype=complex)
    eye = np.eye(g.dims[0])
    with np.errstate(over="ignore", invalid="ignore"):
        r = g.evaluate(u, xp0)
        rnorm = _hypot(r)
        mu, last = 1e-3, math.inf
        for it in range(max_iter):
            if rnorm <= tol:
                return NewtonResult(True, u, rnorm, it)
            ju, _ = g.jacobian(u, xp0)
            a, b = _top_power(ju), 0 if rnorm < 2.0 ** 500 else _top_power(r)  # |r| bounds its parts
            ju = _ldexp(np.ascontiguousarray(ju), -a) if a else ju
            gram = ju.conj().T @ ju
            rhs = -(ju.conj().T @ (_ldexp(np.ascontiguousarray(r), -b) if b else r))
            scale = gram.trace().real / max(g.dims[0], 1)
            accepted = False
            for _ in range(40):
                damping = mu * max(min(scale, math.ldexp(1.0, -2 * a)), math.ldexp(scale, -52))
                try:
                    step = np.linalg.solve(gram + damping * eye, rhs)
                except np.linalg.LinAlgError:
                    mu *= 10.0
                    continue
                step = _ldexp(step, b - a) if a != b else step
                size = _hypot(step)
                ratio = size / last  # (m - 1)/m at a root of multiplicity m
                m = round(1.0 / (1.0 - ratio)) if 0.0 < ratio < 1.0 else 1
                multiples = (m, 1) if m >= 2 and abs(ratio - (m - 1) / m) <= 0.2 / m else (1,)
                for k in multiples:
                    cand = u + k * step
                    rc = g.evaluate(cand, xp0)
                    rcnorm = _hypot(rc)
                    if rcnorm < rnorm:
                        u, r, rnorm, last = cand, rc, rcnorm, k * size
                        accepted = True
                        break
                if accepted:
                    mu = max(mu / 3.0, 1e-14)
                    break
                mu *= 10.0
                if mu > 1e14:
                    break
            if not accepted:
                return NewtonResult(rnorm <= tol, u, rnorm, it + 1)
    return NewtonResult(rnorm <= tol, u, rnorm, max_iter)


def _hypot(x: np.ndarray) -> float:
    """The 2-norm of a complex vector by `math.hypot` over its real and
    imaginary parts: finite for every finite vector."""
    return math.hypot(*x.real.tolist(), *x.imag.tolist())


def _top_power(x: np.ndarray) -> int:
    """The exponent of the largest real or imaginary part of ``x``
    (`loops._top_exponents`) where it is past 500, else 0; no exponent is
    taken while the sum of ``|x|^2`` is below ``2**1000``."""
    if np.vdot(x, x).real < 2.0 ** 1000:
        return 0
    e = int(_top_exponents(np.ascontiguousarray(x)[None])[0])
    return e if e > 500 else 0


@dataclass(frozen=True)
class TangentCheck:
    dim_cap_reduced: int
    dim_cap_full: int
    subspace_gap: float
    quotient_reduced: int
    quotient_full: int


@dataclass(frozen=True)
class FiniteDimReduction:
    """Finite-dimensional reduction of a graph-form quadruple.

    In the normal coordinates ``(u, x', x'', xi)`` the reduction is
    ``U = {(u,0,0,xi)}``, ``U' = {(u,0,0,f(u,0))}``, ``U'' = {(u,0,0,0)}``;
    the intersection of the original pair is cut out by ``f(u, 0) = 0``,
    and at every solution the tangent intersections and sum-quotients of
    the reduced pair match those of the full pair (`tangent_check`).  The
    four tangent bases are columns of one identity: X' is the ``(u, x')``
    axes with ``(ju, jxp)`` in its xi rows, U' its first ``d_u`` columns,
    and U'' and X'' are axis columns.
    """

    graph: GraphPairLocal

    @property
    def dims(self) -> tuple:
        return self.graph.dims

    def solve(self, seed, max_iter: int = 100, tol: float = 1e-12) -> NewtonResult:
        return intersect_newton(self.graph, seed, max_iter=max_iter, tol=tol)

    def tangent_bases(self, u) -> dict:
        """Ambient-coordinate tangent bases of U', U'', X', X'' at (u,0,0,0)."""
        du, dxp, dxd, dxi = self.dims
        ju, jxp = self.graph.jacobian(u, np.zeros(dxp, dtype=complex))
        eye = np.eye(du + dxp + dxd + dxi, dtype=complex)
        t_xprime = eye[:, :du + dxp].copy()
        t_xprime[du + dxp + dxd:] = np.hstack([ju, jxp])
        return {"U'": t_xprime[:, :du].copy(), "U''": eye[:, :du].copy(), "X'": t_xprime,
                "X''": eye[:, np.r_[:du, du + dxp:du + dxp + dxd]].copy()}

    def tangent_check(self, u) -> TangentCheck:
        """Verify the reduction identities at a solution of f(u,0)=0:
        ``T U' ∩ T U'' = T X' ∩ T X''`` and equality of the sum-quotient
        dimensions, from one `_cap_and_outer` per pair (the reduced pair's
        outer block also holds the x' and x'' directions)."""
        bases = self.tangent_bases(u)
        _, dxp, dxd, _ = self.dims
        cap_reduced, outer_reduced = _cap_and_outer(bases["U'"], bases["U''"])
        cap_full, outer_full = _cap_and_outer(bases["X'"], bases["X''"])
        gap = 0.0
        if cap_reduced.shape[1] == cap_full.shape[1] and cap_reduced.shape[1] > 0:
            s = np.linalg.svd(cap_reduced.conj().T @ cap_full, compute_uv=False)
            gap = float(abs(1.0 - np.min(s)))
        elif cap_reduced.shape[1] != cap_full.shape[1]:
            gap = 1.0
        return TangentCheck(cap_reduced.shape[1], cap_full.shape[1], gap,
                            outer_reduced.shape[1] - dxp - dxd, outer_full.shape[1])


def polynomial_test_set() -> list:
    """Shipped polynomial intersection problems with Newton seeds.

    Used by the verification suite: every Newton solution of ``f(u,0)=0``
    must pass the tangent identities of the finite-dimensional reduction.
    """
    cases = []
    # scalar double root u^2 = 0
    double_root = PolynomialMap((1, 1, 1, 1), [[(1.0, (2,), (0,))]])
    cases.append((double_root, [np.array([0.5 + 0j]), np.array([-0.35 + 0.2j])]))
    # union of axes u1*u2 = 0 with an x'-dependent graph term
    axes = PolynomialMap((2, 1, 1, 1), [[(1.0, (1, 1), (0,)), (1.0, (0, 0), (2,))]])
    cases.append((axes, [np.array([0.4 + 0j, 0.05 + 0j]), np.array([0.03 + 0j, -0.5 + 0.1j])]))
    # isolated degenerate root of a plane quadratic system
    quad_pair = PolynomialMap((2, 0, 1, 2),
                              [[(1.0, (2, 0), ()), (-1.0, (0, 2), ())],
                               [(1.0, (1, 1), ())]])
    cases.append((quad_pair, [np.array([0.3 + 0j, 0.2 + 0j])]))
    return cases
