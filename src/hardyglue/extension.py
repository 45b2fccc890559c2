"""Holomorphic-extension tests for boundary loops.

In the truncated model a pair extends through a node iff both loops
extend to the unit disk (their negative modes vanish) and the constants
agree: node membership at ``z = 0`` (`disk_pair_node_test`).  A pair bounds a holomorphic
map on the annulus ``A(delta, 1)`` iff it satisfies the node relation at
``z = delta`` (``eta_{-n} = delta^n xi_n``, ``xi_{-n} = delta^n eta_n``,
equal constants): the annulus is the node fiber ``{xy = delta}``.  Every
finite Laurent series is holomorphic on the open annulus, so the matching
relation is the whole content of the test; no growth condition is applied.

One kernel, `_node_defects`, decides both kinds on a stack of pairs, one
power table and one `node_model._membership_residuals` for the whole
stack; an annulus reads the relation on its core circle.  Its callers are
`vprime_membership` (``extend-check``, one call per shape of its nodes)
and the stacked trials of ``verify extension``: `disk_pair_residuals`
(charts at ``z = 0`` and random pairs against the exact extension
conditions) and `annulus_pair_residuals` (restrictions of one Laurent
series, both ways).  A disk-pair row has the bits of `node_membership` on
that pair alone.  The node kernels are read through the `node_model`
namespace, so a patch of one there reaches this module too.
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


def _node_defects(w: np.ndarray, annulus: np.ndarray, xi: np.ndarray, eta: np.ndarray, s: float) -> np.ndarray:
    """Extension defects, shape (T,), of the pairs ``xi``, ``eta`` (T, 2N+1,
    m): row t is an annulus of modulus ``w[t]`` in (0, 1) where
    ``annulus[t]``, else a disk pair glued at ``w[t]``, whose defect is the
    unweighted node defect.  An annulus takes the node defect at ``z =
    delta`` on the core circle ``|x| = |y| = sqrt(delta)``, the fixed circle
    of the swap ``x <-> delta/x``: mode ``n`` is divided by
    ``delta^(|n|/2)``, so the defect is symmetric in ``(xi, eta)``.  The
    weights enter split by `np.frexp` (from ``log2`` below the normal float
    range), the mantissas dividing and the exponents as a shift, so a zero
    defect entry stays zero where ``delta^(-N/2)`` overflows, and a defect
    past the float range reads as the largest float.
    """
    table = node_model._power_table(w, xi, eta)
    if not annulus.any():
        return node_model._membership_residuals(table, xi, eta, s)[0]
    half = np.abs(np.arange(xi.shape[1]) - xi.shape[1] // 2) / 2.0
    delta = np.asarray(w)[annulus].real
    core = delta[:, None] ** half
    mant, exp = np.frexp(core)
    low = core < np.finfo(float).tiny
    if low.any():
        log_core = (half * np.log2(delta)[:, None])[low]
        exp[low] = np.floor(log_core) + 1
        mant[low] = np.exp2(log_core - exp[low])
    weight, shift = np.ones(xi.shape[:2]), np.zeros(xi.shape[:2], dtype=exp.dtype)
    weight[annulus], shift[annulus] = 2.0 * mant, 1 - exp
    return node_model._membership_residuals(table, xi, eta, s, weight[:, :, None], shift[:, :, None])[0]


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
    return _node_defects(np.zeros(len(charted)), np.zeros(len(charted), dtype=bool), xi, eta, s), exact


def annulus_pair_residuals(delta: np.ndarray, laurent: np.ndarray,
                           s: float = DEFAULT_SOBOLEV_S) -> tuple:
    """Swap asymmetries ``|d(xi, eta) - d(eta, xi)| / (1 + d(xi, eta))`` and
    annulus defects ``d(xi, eta)``, shape (T,) each, of the Laurent loops
    ``xi`` of ``laurent`` (T, 2N+1, m) paired with their restrictions
    ``eta_n = delta^(-n) xi_{-n}`` (Python float powers) to the other circle
    of ``A(delta, 1)``.  The swap check is exact by design: the loops share
    their constant, so the asymmetry reads 0.0."""
    n_max = laurent.shape[1] // 2
    weights = np.array([[d ** float(-n) for n in range(-n_max, n_max + 1)] for d in delta.tolist()])
    restricted = laurent[:, ::-1] * weights[:, :, None]
    annulus = np.ones(len(delta), dtype=bool)
    fwd, rev = (_node_defects(delta, annulus, *pair, s) for pair in ((laurent, restricted), (restricted, laurent)))
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
        if self.kind == "annulus" and (self.delta is None or not (0.0 < self.delta < 1.0)):
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


def vprime_membership(nodes, ball_check: bool = True, tol: float = DEFAULT_TOL,
                      s: float = DEFAULT_SOBOLEV_S) -> VPrimeReport:
    """Nodewise extension report for loops written in unit-ball charts.

    For each record checks (a) the sampled sup-norm stays inside the open
    unit ball, and (b) disk-pair matching or (c) annulus matching as the
    kind dictates.  The configuration is a member iff every node passes.
    Each shape ``(n_max, m)`` of nodes is one `_node_defects` call and one
    sampled sup of their loops (an overflowing row sampled at scale)."""
    nodes, groups, verdicts = list(nodes), {}, {}
    for i, node in enumerate(nodes):
        groups.setdefault((node.xi.n_max, node.xi.m), []).append(i)
    for (n_max, _), index in groups.items():
        group = [nodes[i] for i in index]
        xi, eta = (np.stack([getattr(node, side).coeffs for node in group]) for side in ("xi", "eta"))
        w = np.array([node.delta if node.kind == "annulus" else node.z for node in group], dtype=complex)
        defects = _node_defects(w, np.array([node.kind == "annulus" for node in group]), xi, eta, s).tolist()
        sups = [None] * len(group)
        if ball_check:
            grid = default_grid_size(n_max)
            sups = _ldexp(*_at_scale(lambda rows: np.sqrt(_mode_power(_samples(rows, grid))).max(axis=1),
                                     np.concatenate((xi, eta)))).reshape(2, -1).max(axis=0).tolist()
        for i, defect, sup in zip(index, defects, sups):
            ball_ok = None if sup is None else sup < 1.0
            verdicts[i] = NodeVerdict(i, nodes[i].kind, ball_ok, sup, defect <= tol, defect)
    verdicts = tuple(verdicts[i] for i in range(len(nodes)))
    return VPrimeReport(verdicts, all(v.passed for v in verdicts))
