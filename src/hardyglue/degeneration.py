"""Neck degenerations, annulus energies, and vanishing-cycle contractions.

The neck of the node model at gluing parameter z, seen from the x-side, is
the annulus ``|z|/eps < |x| < eps``.  Restricting Laurent data to the neck
gives a Laurent series whose Dirichlet energy has the closed form
``pi * sum_{n != 0} n |a_n|^2 (R^{2n} - r^{2n})``; the convergence axiom
demands that the double limit (first k, then eps) of neck energies
vanishes.  The combinatorial side contracts vanishing cycles on dual
graphs: a nonseparating cycle trades a handle for a self-node, a
separating cycle splits a component, and both preserve the arithmetic
genus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .loops import Loop, _ldexp, _mode_power, _top_exponents
from .moduli import Component, NodalConfig
from .node_model import NodePolynomial, boundary_traces

__all__ = [
    "QUADRATURE_TOL",
    "NeckFamily",
    "EnergyRow",
    "EnergyReport",
    "NonseparatingCycle",
    "SeparatingCycle",
    "annulus_energy",
    "annulus_energy_quadrature",
    "neck_laurent",
    "energy_axiom_check",
    "quadrature_gaps",
    "apply_deformation",
]


@np.errstate(over="ignore", invalid="ignore")
def annulus_energy(loop: Loop, r: float, R: float) -> float:
    """Dirichlet energy of a Laurent series on ``r < |x| < R``.

    Closed form ``pi * sum_{n != 0} n |a_n|^2 (R^{2n} - r^{2n})``, summed
    over the target components; every term is nonnegative.  An energy past
    the float range reads inf (NaN where two infinities meet), with no
    warning.
    """
    if not (0.0 < r < R <= 1.0):
        raise ValueError(f"annulus radii must satisfy 0 < r < R <= 1, got ({r}, {R})")
    n = loop.modes
    weight = _mode_power(loop.coeffs)
    live = (n != 0) & (weight != 0.0)  # r^(2n) may overflow on dead modes
    n, weight = n[live], weight[live]
    terms = n * weight * (np.float64(R) ** (2 * n) - np.float64(r) ** (2 * n))
    return float(np.pi * np.sum(terms))


QUADRATURE_TOL = 1e-8  # the gap |E - Q| / (1 + |Q|) allowed between closed form and quadrature


@lru_cache(maxsize=None)
def _gauss_legendre(n_rad: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """``log(sum(exp(x)))`` over the last axis, without overflow."""
    top = np.max(x, axis=-1)
    return top + np.log(np.sum(np.exp(x - top[..., None]), axis=-1))


_LOG_RHO = np.geomspace(0.05, 8.0, 48)  # log rho of the Bernstein ellipses the radial bound tries
_SEMI_AXIS = np.cosh(_LOG_RHO)[:, None]  # (rho + 1/rho) / 2, the largest |Re s| on each ellipse
_LOG_FACTOR = math.log(64.0 / 15.0) - np.log(np.expm1(2.0 * _LOG_RHO))  # log of (64/15) / (rho^2 - 1)
_MAX_RADII = 1024  # past this many radii the quadrature reads NaN


def _orders(n: np.ndarray, weight: np.ndarray, r: float, R: float) -> tuple:
    """``(P, k)``: the angle count and the radial node count that provably
    resolve the quadrature of the live modes ``n`` with ``|a_n|^2`` summed
    over the components in ``weight`` (`loops._mode_power`) on ``r < |x| < R``.

    On a circle ``|f'|^2`` is a trigonometric polynomial of degree
    ``max n - min n``, so ``P`` one above it makes the trapezoid mean exact.
    In ``s`` in [-1, 1] (log-radius ``mid + h s``) the ring integrals are
    ``F(s) = 2 pi h sum_n n^2 |a_n|^2 e^(2n(mid + h s))``, entire.  On the
    Bernstein ellipse ``E_rho`` each term is at most its value at ``|s| =
    (rho + 1/rho)/2``, which sums to ``M(rho)``; ``k`` Gauss-Legendre nodes
    are exact to degree ``2k - 1``, so their error is at most ``(64/15)
    M(rho) rho^(-2(k-1)) / (rho^2 - 1)`` (Trefethen, ATAP Thm 19.3, with
    ``k - 1`` for its ``n``).  ``k`` is the smallest count whose bound, on
    some ellipse of `_LOG_RHO`, is within ``QUADRATURE_TOL / 100`` of
    ``I_low = 2 sum_n F_n(0)``, a lower bound on the integral (each term is
    convex: Hermite-Hadamard).  All of it in log space; ``k`` is inf when no
    count is proven (a weight past the float range, or none inside it).
    """
    lo, hi = math.log(r), math.log(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(n * n * weight) + n * (hi + lo)  # F_n(0) / (2 pi h)
        head = _LOG_FACTOR + _logsumexp(log_w + (hi - lo) * np.abs(n) * _SEMI_AXIS)
        log_target = math.log(2.0 * QUADRATURE_TOL / 100.0) + _logsumexp(log_w)
        degree = float(np.min((head - log_target) / (2.0 * _LOG_RHO)))  # k - 1
    return int(n.max() - n.min()) + 1, (1 + math.ceil(degree) if math.isfinite(degree) else math.inf)


_RADII_PER_BLOCK = 64  # keeps the (P, block * m) derivative grid near 256 KB at N = 64, P <= 2N + 1


@np.errstate(over="ignore", invalid="ignore")
def annulus_energy_quadrature(loop: Loop, r: float, R: float) -> float:
    """Dirichlet energy by 2D quadrature of ``|f'|^2`` (independent check).

    The grid is ``n_rad`` Gauss-Legendre radii in log-radius times ``P``
    equispaced angles.  On each circle ``|x| = rho`` the derivative
    ``f'(x) = sum_n n a_n x^(n-1)`` is sampled pointwise as
    ``exp(i(n-1)theta_j) @ (rho^(n-1) n a_n)``, one matrix product for a
    block of radii at a time; modes with ``n = 0`` or a zero coefficient
    row are dropped first, so ``rho^(n-1)`` is formed only for live modes.
    The Gauss-Legendre nodes are cached per ``n_rad`` as read-only arrays.

    Both orders are the ones `_orders` proves from the live modes'
    ``|a_n|^2`` (never from `annulus_energy`): ``P`` one above the span
    ``max n - min n`` of the live modes, where the angular mean is exact,
    and ``n_rad`` the smallest count whose Bernstein-ellipse bound on the
    radial error is within ``QUADRATURE_TOL / 100`` of the energy, rounded
    up to a multiple of 8 so that few node sets are built.  Past 1024 radii
    (or with no provable count) the energy reads NaN, and a check of it is
    inconclusive.

    The ring integral stays the trapezoid mean of ``|f'|^2`` over the
    angular samples, which is exact when ``P`` resolves the trigonometric
    polynomial ``|f'|^2`` and aliases when it does not.  A sum over
    coefficients (Parseval) would be the closed form `annulus_energy`
    itself and would no longer check it.  A sample past
    the float range makes the energy inf or NaN, with no warning.
    """
    if not (0.0 < r < R <= 1.0):
        raise ValueError(f"annulus radii must satisfy 0 < r < R <= 1, got ({r}, {R})")
    n = loop.modes
    live = (n != 0) & np.any(loop.coeffs != 0, axis=1)
    n = n[live]
    if not n.size:
        return 0.0
    P, k = _orders(n, _mode_power(loop.coeffs[live]), r, R)
    if k > _MAX_RADII:
        return math.nan
    n_rad = -(-k // 8) * 8
    thetas = 2.0 * np.pi * np.arange(P) / P
    slope = n[:, None] * loop.coeffs[live]  # n a_n, (modes, m)
    # exp(i(n-1)theta_j), shape (P, modes); built in place, so no second
    # P x modes temporary is held while it is filled
    wave = np.zeros((P, n.size), dtype=complex)
    np.multiply.outer(thetas, n - 1, out=wave.imag)
    np.exp(wave, out=wave)
    tnodes, tweights = _gauss_legendre(n_rad)
    lo, hi = np.log(r), np.log(R)
    rho = np.exp(0.5 * (hi - lo) * tnodes + 0.5 * (hi + lo))
    total = 0.0
    for start in range(0, n_rad, _RADII_PER_BLOCK):
        rho_b = rho[start:start + _RADII_PER_BLOCK]
        # (modes, radii, m) -> f' on every circle of the block: (P, radii, m)
        scaled = (rho_b ** (n - 1)[:, None])[:, :, None] * slope[:, None, :]
        deriv = (wave @ scaled.reshape(n.size, rho_b.size * loop.m)).reshape(P, rho_b.size, loop.m)
        ring = np.mean(np.sum(np.abs(deriv) ** 2, axis=2), axis=0) * 2.0 * np.pi
        # dA = rho drho dtheta; drho = rho dlog_rho
        total += float(np.dot(tweights[start:start + _RADII_PER_BLOCK], ring * rho_b**2))
    return float(total * 0.5 * (hi - lo))


_LOG_TINY = math.log(np.finfo(float).tiny)


def neck_laurent(poly: NodePolynomial, z: complex, n_max: int) -> Loop:
    """Laurent series of ``v(x, z/x)`` in the x-coordinate of the neck.

    Mode ``-n`` carries ``b_n z^n``.  Where ``|z|^n`` is below the normal
    float range but ``|b_n z^n|`` is not, the power alone would lose bits
    or read 0, so that product is formed in log space instead,
    ``exp(log b_n + n log z)``.
    """
    neck = boundary_traces(poly, z, n_max).xi
    z = complex(z)
    if z == 0 or not poly.deg_y:
        return neck
    n = np.arange(1, poly.deg_y + 1)[:, None]
    log_power = n * math.log(abs(z))
    with np.errstate(divide="ignore"):
        log_b = np.log(np.abs(poly.b))
    lost = (log_power < _LOG_TINY) & (log_b + log_power >= _LOG_TINY)
    if not lost.any():
        return neck
    coeffs = np.array(neck.coeffs)
    rows = coeffs[n_max - 1::-1][:poly.deg_y]  # a view: modes -1, -2, ..., -deg_y
    rows[lost] = np.exp(np.log(poly.b[lost]) + np.broadcast_to(n, lost.shape)[lost] * np.log(z))
    return neck.with_coeffs(coeffs)


@dataclass(frozen=True)
class NeckFamily:
    """Gluing parameters decreasing to zero with Laurent data per index."""

    z_seq: tuple
    polys: tuple

    def __post_init__(self):
        z_seq = tuple(complex(z) for z in self.z_seq)
        if not z_seq:
            raise ValueError("family needs at least one gluing parameter")
        mags = [abs(z) for z in z_seq]
        for k, mag in enumerate(mags):
            if not mag < 1.0:
                raise ValueError(f"z_seq[{k}]: gluing parameters must satisfy |z| < 1, got |z| = {mag!r}")
            if k and not mag < mags[k - 1]:
                raise ValueError(f"z_seq[{k}]: gluing parameter magnitudes must be strictly decreasing, "
                                 f"got {mag!r} after {mags[k - 1]!r}")
        if mags[-1] == 0.0:  # the magnitudes decrease, so only the last can be 0
            raise ValueError(f"z_seq[{len(mags) - 1}]: gluing parameter is 0; a neck needs 0 < |z| < 1")
        polys = tuple(self.polys)
        if len(polys) != len(z_seq):
            raise ValueError(f"need one Laurent datum per parameter: {len(polys)} != {len(z_seq)}")
        object.__setattr__(self, "z_seq", z_seq)
        object.__setattr__(self, "polys", polys)

    @classmethod
    def from_constant(cls, poly: NodePolynomial, z_seq) -> "NeckFamily":
        z_seq = tuple(z_seq)
        return cls(z_seq, tuple(poly for _ in z_seq))


@dataclass(frozen=True)
class EnergyRow:
    eps: float
    k_index: int
    z_abs: float
    energy: float
    stable: bool


@dataclass(frozen=True)
class EnergyReport:
    """Rows per eps, the verdict, and the neck of the family's last
    parameter, on which every row's k-limit is read."""

    rows: tuple
    passed: bool
    neck: Loop


def _per_unit(loops) -> list:
    """``loops`` divided, exactly, by the power of two at or below their
    largest real or imaginary part (`loops._top_exponents`): energies are
    homogeneous of degree 2, so they compare as the originals' do, with no
    ``|c|^2`` past the float range.  The part lands in [1, 2), not [1/2, 1):
    the gaps ``|E - Q| / (1 + |Q|)`` are not scale-free."""
    (top,) = _top_exponents(np.concatenate([loop.coeffs.ravel() for loop in loops])[None])
    return [loop.with_coeffs(_ldexp(loop.coeffs, 1 - top)) for loop in loops]


def energy_axiom_check(fam: NeckFamily, eps_schedule, tol: float = 1e-6,
                       n_max: int = 32) -> EnergyReport:
    """Double-limit neck-energy check of the convergence axiom.

    For each eps the k-limit is taken as the energy at the largest k with
    ``|z_k| < eps^2/10`` (so the neck annulus is comfortably nondegenerate);
    the row is flagged stable when it agrees with the previous usable k to
    10% relative.  The family passes iff all rows are stable, the
    eps-indexed values are nonincreasing, and the last one is <= tol.

    ``|z_k|`` strictly decreases, so the usable k form a suffix of the
    family: the k-limit is always the last parameter, and the stability test
    reads the last two necks, built once and compared through `_per_unit`.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("eps schedule must not be empty")
    if any(e <= 0 for e in eps_schedule):
        raise ValueError("eps schedule entries must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    last_two = range(max(len(fam.z_seq) - 2, 0), len(fam.z_seq))
    necks = [neck_laurent(fam.polys[k], fam.z_seq[k], n_max) for k in last_two]
    unit = _per_unit(necks)
    k = last_two[-1]
    rows = []
    for eps in eps_schedule:
        usable = [j for j in last_two if abs(fam.z_seq[j]) < eps * eps / 10.0]
        if not usable:
            raise ValueError(
                f"no gluing parameter satisfies |z_k| < eps^2/10 for eps={eps:g}; "
                "extend the family"
            )
        energy = annulus_energy(necks[-1], abs(fam.z_seq[k]) / eps, eps)
        stable = True
        if len(usable) == 2:
            prev, now = (annulus_energy(loop, abs(fam.z_seq[j]) / eps, eps) for loop, j in zip(unit, last_two))
            stable = abs(now - prev) <= 0.1 * (abs(prev) + 1e-300)
        rows.append(EnergyRow(eps, k, abs(fam.z_seq[k]), energy, stable))
    monotone = all(b.energy <= a.energy * (1.0 + 1e-9) + 1e-15 for a, b in zip(rows, rows[1:]))
    passed = monotone and all(r.stable for r in rows) and rows[-1].energy <= tol
    return EnergyReport(tuple(rows), passed, necks[-1])


def quadrature_gaps(report: EnergyReport) -> list:
    """``|E - Q| / (1 + |Q|)`` for each row of an energy report: the closed
    form E against the quadrature Q on the row's neck annulus, both taken on
    the report's neck divided by a power of two near its largest coefficient
    (`_per_unit`), where no ``|c|^2`` overflows.  A gap may still not be
    finite."""
    (unit,) = _per_unit([report.neck])
    gaps = []
    for row in report.rows:
        r, R = row.z_abs / row.eps, row.eps
        quad = annulus_energy_quadrature(unit, r, R)
        gaps.append(abs(annulus_energy(unit, r, R) - quad) / (1.0 + abs(quad)))
    return gaps


@dataclass(frozen=True)
class NonseparatingCycle:
    """Contract a handle of one component into a self-node."""

    component: int


@dataclass(frozen=True)
class SeparatingCycle:
    """Split one component in two, joined by a fresh node.

    ``genus_first`` goes to the first half; the special points whose ids
    appear in ``points_first`` stay with it, the rest move to the second
    half (appended at the end of the component list).
    """

    component: int
    genus_first: int
    points_first: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "points_first", frozenset(self.points_first))


def _fresh_ids(cfg: NodalConfig, component: int, count: int) -> list:
    """The ``count`` smallest nonnegative ids not in ``cfg.points[component]``;
    the first ``len(used) + count`` integers hold that many."""
    used = cfg.points[component]
    return [pid for pid in range(len(used) + count) if pid not in used][:count]


def _contract_nonseparating(cfg: NodalConfig, cyc: NonseparatingCycle) -> NodalConfig:
    i = cyc.component
    comp = cfg.components[i]
    if comp.genus == 0:
        raise ValueError("nonseparating contraction needs a component of genus >= 1")
    pid1, pid2 = _fresh_ids(cfg, i, 2)
    components = list(cfg.components)
    components[i] = Component(comp.genus - 1, comp.ghost)
    nodes = list(cfg.nodes) + [((i, pid1), (i, pid2))]
    return NodalConfig(tuple(components), tuple(nodes), cfg.marks)


def _contract_separating(cfg: NodalConfig, cyc: SeparatingCycle) -> NodalConfig:
    i = cyc.component
    comp = cfg.components[i]
    if not (0 <= cyc.genus_first <= comp.genus):
        raise ValueError(f"genus split {cyc.genus_first} outside 0..{comp.genus}")
    new_index = len(cfg.components)
    components = list(cfg.components)
    components[i] = Component(cyc.genus_first, comp.ghost)
    components.append(Component(comp.genus - cyc.genus_first, comp.ghost))
    # the points of component i outside points_first move to the new half
    keep = cyc.points_first
    nodes = [tuple([(new_index, pid) if ci == i and pid not in keep else (ci, pid) for ci, pid in pair])
             for pair in cfg.nodes]
    marks = [(new_index, pid) if ci == i and pid not in keep else (ci, pid) for ci, pid in cfg.marks]
    joint_first, joint_second = _fresh_ids(cfg, i, 2)
    nodes.append(((i, joint_first), (new_index, joint_second)))
    return NodalConfig(tuple(components), tuple(nodes), tuple(marks))


def apply_deformation(cfg_src: NodalConfig, cycles) -> NodalConfig:
    """Contract vanishing cycles in order, returning the degenerated
    configuration; the arithmetic genus is preserved by each step.  A
    cycle of unknown type, then a component index out of range, is a
    ValueError before the contraction's own checks."""
    cfg = cfg_src
    for cyc in cycles:
        if isinstance(cyc, NonseparatingCycle):
            contract = _contract_nonseparating
        elif isinstance(cyc, SeparatingCycle):
            contract = _contract_separating
        else:
            raise ValueError(f"unknown cycle type {type(cyc).__name__}")
        if not (0 <= cyc.component < len(cfg.components)):
            raise ValueError(f"component index {cyc.component} out of range")
        cfg = contract(cfg, cyc)
    return cfg
