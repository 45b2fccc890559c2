"""Marked nodal configurations, stability, and index/dimension formulas.

A `NodalConfig` is the combinatorial shadow of a marked nodal surface:
component genera with ghost flags, node pairs, and marked points.  The
numeric side collects the closed-form dimension counts (moduli dimension,
Riemann-Roch indices, Teichmuller dimension, isotropy groups, core slice
dimensions) and the one Hardy-triple builder, which realizes the indices
of sums of equal line bundles on the sphere as concrete subspace triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fredholm import SubspaceTriple

__all__ = [
    "Component",
    "NodalConfig",
    "TargetData",
    "IsotropyGroup",
    "arithmetic_genus",
    "special_point_count",
    "is_stable_map",
    "moduli_dimension",
    "riemann_roch_index",
    "isotropy_group",
    "teichmuller_dim",
    "core_slice_dims",
    "hardy_triple_for_line_bundle",
]


@dataclass(frozen=True)
class Component:
    genus: int
    ghost: bool = False

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"component genus must be nonnegative, got {self.genus}")


@dataclass(frozen=True)
class NodalConfig:
    """Combinatorial marked nodal surface.

    ``nodes`` are unordered pairs of (component index, point id); ``marks``
    are single (component index, point id) entries.  Point ids must be
    distinct per component across nodes and marks, and the dual graph
    (components as vertices, nodes as edges) must be connected.
    ``points[i]``, derived and not settable, is the frozenset of point ids
    on component i, node endpoints and marks.

    Validation is one flat pass, and its first error is the one raised:
    the components (at least one), then every index and id as an int; then
    the nodes in order, each checked for two points before its first and
    then its second point is checked for a component index in range and
    for an id not yet used on that component; then the marks in order, the
    same two checks each; a disconnected dual graph last.  The union-find
    that joins each node's two components counts the roots as it merges.
    """

    components: tuple
    nodes: tuple = field(default_factory=tuple)
    marks: tuple = field(default_factory=tuple)
    points: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        comps = tuple([c if isinstance(c, Component) else Component(*c) for c in self.components])
        if not comps:
            raise ValueError("configuration needs at least one component")
        nodes = tuple([tuple([(int(ci), int(pid)) for ci, pid in pair]) for pair in self.nodes])
        marks = tuple([(int(ci), int(pid)) for ci, pid in self.marks])
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "marks", marks)
        size = roots = len(comps)
        points = [set() for _ in comps]
        parent = list(range(size))  # union-find: a root is its own parent
        for pair in nodes:
            if len(pair) != 2:
                raise ValueError(f"node must pair two points, got {pair}")
            (ci, _), (cj, _) = pair
            for c, p in pair:
                if not 0 <= c < size:
                    raise ValueError(f"component index {c} out of range")
                on = points[c]
                if p in on:
                    raise ValueError(f"point id {p} on component {c} used twice")
                on.add(p)
            while parent[ci] != ci:
                ci = parent[ci]
            while parent[cj] != cj:
                cj = parent[cj]
            if ci != cj:
                parent[ci] = cj
                roots -= 1
        for c, p in marks:
            if not 0 <= c < size:
                raise ValueError(f"component index {c} out of range")
            on = points[c]
            if p in on:
                raise ValueError(f"point id {p} on component {c} used twice")
            on.add(p)
        if roots != 1:
            raise ValueError("dual graph of the configuration is not connected")
        object.__setattr__(self, "points", tuple(map(frozenset, points)))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class TargetData:
    """Target dimension m and the pairing of c1 of the tangent bundle with
    the map's homology class.  The dimension formulas below are integer
    arithmetic, so they broadcast: a ``c1d`` (or g, n, k) given as an
    integer array gives an array of values."""

    m: int
    c1d: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"target dimension must be nonnegative, got {self.m}")


def special_point_count(cfg: NodalConfig, component: int) -> int:
    """Marks plus node endpoints carried by one component (a self-node
    contributes two), ``cfg.points[component]``."""
    return len(cfg.points[component])


def arithmetic_genus(cfg: NodalConfig) -> int:
    """Genus of the nodal quotient: sum of genera + #nodes - #components + 1."""
    total = sum([c.genus for c in cfg.components])
    return total + cfg.n_nodes - len(cfg.components) + 1


def is_stable_map(cfg: NodalConfig) -> bool:
    """Finite automorphisms: every ghost genus-0 component carries at least
    three special points and every ghost genus-1 component at least one."""
    for i, comp in enumerate(cfg.components):
        if not comp.ghost:
            continue
        special = special_point_count(cfg, i)
        if comp.genus == 0 and special < 3:
            return False
        if comp.genus == 1 and special < 1:
            return False
    return True


def moduli_dimension(g: int, n: int, target: TargetData) -> int:
    """(g-1)(3-m) + <c1, d> + n."""
    return (g - 1) * (3 - target.m) + target.c1d + n


def riemann_roch_index(target: TargetData, g: int) -> int:
    """Complex Riemann-Roch index of the linearized operator: m(1-g) + <c1, d>."""
    return target.m * (1 - g) + target.c1d


@dataclass(frozen=True)
class IsotropyGroup:
    name: str
    complex_dim: int


def isotropy_group(g: int, n: int) -> IsotropyGroup:
    """Identity component of the isotropy group of a (g, n) surface."""
    if n > 2 - 2 * g:
        return IsotropyGroup("trivial", 0)
    if g == 1 and n == 0:
        return IsotropyGroup("T^2", 1)
    if g == 0 and n == 2:
        return IsotropyGroup("C*", 1)
    if g == 0 and n == 1:
        return IsotropyGroup("C* x| C", 2)
    if g == 0 and n == 0:
        return IsotropyGroup("PSL(2,C)", 3)
    raise ValueError(f"no isotropy entry for (g, n) = ({g}, {n})")


def teichmuller_dim(g: int, n: int) -> int:
    """dim A - dim G = 3g - 3 + n in all cases (virtual: may be negative)."""
    return 3 * g - 3 + n


def core_slice_dims(g: int, n: int, k: int, target: TargetData) -> tuple:
    """Slice dimensions with k nodes: (3g-3+n-k, (m-3)(1-g) + <c1,d> + n - k).

    The second entry plus k recovers the moduli dimension exactly.
    """
    dim_core = 3 * g - 3 + n - k
    dim_x0 = (target.m - 3) * (1 - g) + target.c1d + n - k
    return dim_core, dim_x0


def _mode_columns(n_max: int, lo: int, hi: int, m: int) -> np.ndarray:
    """The float64 0/1 columns of the Laurent modes lo..hi among
    -n_max..n_max, each mode a copy of C^m: a shifted identity, the
    ``np.kron`` of the m = 1 columns with ``np.eye(m)``."""
    return np.eye((2 * n_max + 1) * m, (hi - lo + 1) * m, -(lo + n_max) * m)


def hardy_triple_for_line_bundle(deg2d: int, n_max: int, m: int = 1) -> SubspaceTriple:
    """Hardy triple of ``m`` copies of a degree-``deg2d`` twisted bundle on
    the sphere.

    Ambient space: Laurent modes -n_max..n_max, each a copy of C^m.  One
    side spans the modes extending over the inner disk (n >= 0); the other
    spans the modes of a twisted section extending over the outer disk (n <=
    deg2d).  They meet in the polynomials of degree <= deg2d, so the index
    is m (deg2d + 1), the Riemann-Roch count ``riemann_roch_index(
    TargetData(m, m * deg2d), 0)``, independent of the truncation as long as
    n_max > deg2d.  At ``deg2d = 0`` this is the Hardy split of sphere loops
    in C^m, nonnegative against nonpositive modes, meeting in the constants.
    """
    if m < 1:
        raise ValueError(f"target dimension must be positive, got {m}")
    if deg2d < 0:
        raise ValueError(f"twist degree must be nonnegative, got {deg2d}")
    if n_max <= deg2d:
        raise ValueError(f"truncation {n_max} must exceed the twist degree {deg2d}")
    return SubspaceTriple((2 * n_max + 1) * m, _mode_columns(n_max, 0, n_max, m),
                          _mode_columns(n_max, -n_max, deg2d, m))
