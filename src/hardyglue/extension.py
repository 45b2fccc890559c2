"""Holomorphic-extension tests for boundary loops.

In the truncated model a pair extends through a node iff both loops
extend to the unit disk (their negative modes vanish) and the constants
agree: node membership at ``z = 0`` (`disk_pair_node_test`).  A pair bounds a holomorphic
map on the annulus ``A(delta, 1)`` iff it satisfies the node relation at
``z = delta`` (``eta_{-n} = delta^n xi_n``, ``xi_{-n} = delta^n eta_n``,
equal constants): the annulus is the node fiber ``{xy = delta}``.  The
annulus test reads that relation on the core circle ``|x| = sqrt(delta)``,
which weights mode ``n`` of the defect by ``delta^(-|n|/2)``; the disk-pair
and node tests keep the unweighted defect of ``node_membership``.  Every
finite Laurent series is holomorphic on the open annulus, so the matching
relation is the whole content of the test; no growth condition is applied.
Both tests give their verdict as `node_model.MembershipResult` ``(member,
residual)``: the disk-pair test returns `node_membership`'s result as it is.

The annulus test is a stack of one over `_annulus_defects`, which takes a
stack of pairs (T, 2N+1, m) with one ``delta`` per row: one power table
forms the node defects (`node_model._membership_residuals`), and the core
weights enter as mantissas and binary exponents, under the one scale rule
of `loops._at_scale`.  The node kernels are read through the `node_model`
namespace, so a patch of one there reaches this module too.

The random trials of ``verify extension`` are checked on stacks by
`disk_pair_residuals` (charts at ``z = 0`` and random pairs against the
exact extension conditions) and `annulus_pair_residuals` (restrictions of
one Laurent series, both ways); each row has the bits of the scalar tests.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from . import node_model
from .loops import Loop, _at_scale, _ldexp, _mode_power, _samples, default_grid_size
from .node_model import DEFAULT_SOBOLEV_S, DEFAULT_TOL, MembershipResult, NodeBoundary, node_membership

__all__ = [
    "NodeData",
    "NodeVerdict",
    "VPrimeReport",
    "disk_pair_node_test",
    "annulus_extension_test",
    "vprime_membership",
    "disk_pair_residuals",
    "annulus_pair_residuals",
]


def disk_pair_node_test(xi: Loop, eta: Loop, tol: float = DEFAULT_TOL,
                        s: float = DEFAULT_SOBOLEV_S) -> MembershipResult:
    """Extension through a node: both loops extend to disks and the
    zeroth coefficients agree, which is node membership at ``z = 0``; the
    result is `node_membership`'s, as it is."""
    return node_membership(NodeBoundary(0j, xi, eta), tol=tol, s=s)


def annulus_extension_test(
    xi: Loop, eta: Loop, delta: float, tol: float = DEFAULT_TOL, s: float = DEFAULT_SOBOLEV_S
) -> MembershipResult:
    """Extension to the annulus ``A(delta, 1)``: ``eta(y) = xi(delta/y)``.

    This is the node relation at ``z = delta`` (see `membership_defect`),
    read on the core circle ``|x| = |y| = sqrt(delta)``: mode ``n`` of each
    defect is divided by ``delta^(|n|/2)``.  The core circle is the fixed
    circle of the swap ``x <-> y = delta/x``, so this weighting treats the
    two boundary circles alike and the defect is symmetric under swapping
    ``(xi, eta)``.  Entry by entry it is, up to sign, the balanced form
    ``delta^(n/2) eta_n - delta^(-n/2) xi_{-n}``.  `node_membership`
    and `disk_pair_node_test` stay unweighted.  Zero defect entries stay
    zero, so a clean pair passes even where ``delta^(-n_max/2)`` overflows;
    a weight past the float range enters as a binary exponent, and a
    defect past it reads as the largest float.  The test is a stack of one
    over `_annulus_defects`.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"annulus parameter must lie in (0, 1), got {delta}")
    NodeBoundary(delta, xi, eta)  # the boundary checks the loop shapes
    defect = float(_annulus_defects(np.array([float(delta)]), xi.coeffs[None], eta.coeffs[None], s)[0])
    return MembershipResult(defect <= tol, defect)


def _annulus_defects(delta: np.ndarray, xi: np.ndarray, eta: np.ndarray, s: float) -> np.ndarray:
    """Stacked `annulus_extension_test` defects, shape (T,): one annulus
    parameter per row of ``delta`` (T,), in (0, 1), and coefficient stacks
    ``xi``, ``eta`` (T, 2N+1, m).

    The node defect at ``z = delta`` (`_membership_residuals` over one
    power table) is read on each row's core circle, over the weights
    ``delta ** (|n|/2)`` split by `np.frexp` (from ``log2`` where the power
    is below the normal float range): the defect over the mantissas, which
    are in [1, 2), stays finite, and the exponents enter as a shift.
    """
    n_max = xi.shape[1] // 2
    half = np.abs(np.arange(-n_max, n_max + 1)) / 2.0
    core = delta[:, None] ** half
    mant, exp = np.frexp(core)
    low = core < np.finfo(float).tiny
    if low.any():
        log_core = (half * np.log2(delta)[:, None])[low]
        exp[low] = np.floor(log_core) + 1
        mant[low] = np.exp2(log_core - exp[low])
    return node_model._membership_residuals(node_model._power_table(delta, xi, eta), xi, eta, s,
                                            2.0 * mant[:, :, None], 1 - exp[:, :, None])[0]


def disk_pair_residuals(charted: np.ndarray, charts: tuple, pairs: np.ndarray,
                        s: float = DEFAULT_SOBOLEV_S) -> tuple:
    """`disk_pair_node_test` defects of T disk pairs, and whether each pair
    meets the exact extension conditions (no negative modes, equal
    constants), shape (T,) each.  The pairs ``charted`` marks are charts at
    ``z = 0``, in order ``charts = (xi_+ rows, eta_+ rows, lam)``, rows (k,
    N, m) on modes 1..N; the others are ``pairs`` (T - k, 2, 2N+1, m).
    Each row has the bits of `node_chart` and the test on that pair alone.
    """
    n_max = pairs.shape[2] // 2
    xi, eta = (np.zeros((len(charted),) + pairs.shape[2:], dtype=complex) for _ in range(2))
    xi[~charted], eta[~charted] = pairs[:, 0], pairs[:, 1]
    if charted.any():
        plus = [node_model._plus_stack(rows, n_max) for rows in charts[:2]]
        xi[charted], eta[charted] = node_model._chart_stack(np.zeros(len(charts[2])), *plus, charts[2])[1:]
    exact = (~xi[:, :n_max].any(axis=(1, 2)) & ~eta[:, :n_max].any(axis=(1, 2))
             & (xi[:, n_max] == eta[:, n_max]).all(axis=1))
    table = node_model._power_table(np.zeros(len(charted)), xi, eta)
    return node_model._membership_residuals(table, xi, eta, s)[0], exact


def annulus_pair_residuals(delta: np.ndarray, laurent: np.ndarray,
                           s: float = DEFAULT_SOBOLEV_S) -> tuple:
    """Swap asymmetries ``|d(xi, eta) - d(eta, xi)| / (1 + d(xi, eta))`` and
    defects ``d(xi, eta)`` of `annulus_extension_test`, shape (T,) each, of
    the Laurent loops ``xi`` of ``laurent`` (T, 2N+1, m) paired with their
    restrictions ``eta_n = delta^(-n) xi_{-n}`` (Python float powers) to the
    other circle of ``A(delta, 1)``.  The swap check is exact by design: the
    loops share their constant, so the asymmetry reads 0.0."""
    n_max = laurent.shape[1] // 2
    weights = np.array([[d ** float(-n) for n in range(-n_max, n_max + 1)] for d in delta.tolist()])
    restricted = laurent[:, ::-1] * weights[:, :, None]
    fwd = _annulus_defects(delta, laurent, restricted, s)
    rev = _annulus_defects(delta, restricted, laurent, s)
    return np.abs(fwd - rev) / (1.0 + fwd), fwd


@dataclass(frozen=True)
class NodeData:
    """Per-node boundary record: a disk pair at gluing parameter z, or an
    annulus of modulus delta.  A bad ``kind`` is quoted by `reprlib`, a few
    levels and characters of it at most."""

    kind: str
    xi: Loop
    eta: Loop
    z: complex = 0j
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("disk_pair", "annulus"):
            raise ValueError(f"kind must be 'disk_pair' or 'annulus', got {reprlib.repr(self.kind)}")
        if self.kind == "annulus":
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ValueError("annulus record requires delta in (0, 1)")
        object.__setattr__(self, "z", complex(self.z))
        # the boundary the record stands for checks its gluing parameter and loop shapes
        NodeBoundary(self.z if self.kind == "disk_pair" else self.delta, self.xi, self.eta)


@dataclass(frozen=True)
class NodeVerdict:
    index: int
    kind: str
    ball_ok: bool | None
    ball_sup: float | None
    extends: bool
    defect: float

    @property
    def passed(self) -> bool:
        return self.extends and self.ball_ok is not False


@dataclass(frozen=True)
class VPrimeReport:
    nodes: tuple
    member: bool


def vprime_membership(
    nodes, ball_check: bool = True, tol: float = DEFAULT_TOL, s: float = DEFAULT_SOBOLEV_S
) -> VPrimeReport:
    """Nodewise extension report for loops written in unit-ball charts.

    For each record checks (a) the sampled sup-norm stays inside the open
    unit ball, and (b) disk-pair matching or (c) annulus matching as the
    kind dictates.  The configuration is a member iff every node passes.
    """
    verdicts = []
    for i, node in enumerate(nodes):
        if ball_check:
            # the sampled sups of both loops; a row whose samples overflow is sampled again at scale
            grid = default_grid_size(node.xi.n_max)
            sup = float(_ldexp(*_at_scale(lambda rows: np.sqrt(_mode_power(_samples(rows, grid))).max(axis=1),
                                          np.stack([node.xi.coeffs, node.eta.coeffs]))).max())
            ball_ok = sup < 1.0
        else:
            sup = None
            ball_ok = None
        if node.kind == "disk_pair":
            res = node_membership(NodeBoundary(node.z, node.xi, node.eta), tol=tol, s=s)
        else:
            res = annulus_extension_test(node.xi, node.eta, node.delta, tol=tol, s=s)
        verdicts.append(NodeVerdict(i, node.kind, ball_ok, sup, res.member, res.residual))
    return VPrimeReport(tuple(verdicts), all(v.passed for v in verdicts))
