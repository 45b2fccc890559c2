"""Hardy-space loop toolkit: standard-node gluing, holomorphic extension
tests, Fredholm subspace intersections, and moduli dimension formulas."""

from .loops import Loop, hardy_project, sobolev_norm
from .node_model import (
    NodeBoundary,
    NodeChart,
    NodePolynomial,
    boundary_traces,
    evaluate_H,
    node_chart,
    node_chart_inverse,
    node_membership,
    transfer_Tz,
)
from .extension import annulus_extension_test, disk_pair_node_test, vprime_membership
from .fredholm import (
    GraphPairLocal,
    SubspaceTriple,
    index_stability_check,
    intersect_newton,
    triple_index,
)
from .moduli import (
    NodalConfig,
    TargetData,
    arithmetic_genus,
    core_slice_dims,
    hardy_triple_for_line_bundle,
    is_stable_map,
    isotropy_group,
    moduli_dimension,
    riemann_roch_index,
    teichmuller_dim,
)
from .degeneration import annulus_energy, apply_deformation, energy_axiom_check

__version__ = "0.1.0"
