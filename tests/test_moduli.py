import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_nodal_config
from hardyglue.fredholm import triple_index
from hardyglue.moduli import (
    Component,
    NodalConfig,
    TargetData,
    arithmetic_genus,
    core_slice_dims,
    hardy_triple_for_line_bundle,
    is_stable_map,
    isotropy_group,
    moduli_dimension,
    riemann_roch_index,
    special_point_count,
    teichmuller_dim,
)

P2_LINE = TargetData(2, 3)


def two_spheres_one_node():
    return NodalConfig((Component(0), Component(0)), nodes=(((0, 0), (1, 0)),))


FAULTS = ("index out of range", "reused id", "node of three points", "disconnected graph")


@st.composite
def planted_faults(draw):
    """``(component count, nodes, marks)``: a connected configuration (a
    spanning tree of nodes, up to two more nodes and up to three marks,
    every id fresh) with two faults of `FAULTS` planted in it, in order."""
    n_comp = draw(st.integers(1, 4))
    fresh = iter(range(100))
    pairs = [(draw(st.integers(0, j - 1)), j) for j in range(1, n_comp)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n_comp - 1), st.integers(0, n_comp - 1)), max_size=2))
    nodes = [[[i, next(fresh)], [j, next(fresh)]] for i, j in draw(st.permutations(pairs))]
    marks = [[c, next(fresh)] for c in draw(st.lists(st.integers(0, n_comp - 1), max_size=3))]
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=2, max_size=2)):
        if not nodes and not marks:
            marks.append([0, next(fresh)])
        points = [point for pair in nodes for point in pair] + marks
        if fault == "index out of range":
            draw(st.sampled_from(points))[0] = draw(st.sampled_from([-1, n_comp, n_comp + 2]))
        elif fault == "reused id":
            marks.insert(draw(st.integers(0, len(marks))), list(draw(st.sampled_from(points))))
        elif fault == "node of three points" and nodes:
            draw(st.sampled_from(nodes)).append([draw(st.integers(0, n_comp - 1)), next(fresh)])
        else:  # a component no node reaches
            n_comp += 1
    return n_comp, tuple(tuple(map(tuple, pair)) for pair in nodes), tuple(map(tuple, marks))


def reference_first_error(n_comp: int, nodes, marks):
    """The first error `NodalConfig` should raise, by a walk written out
    apart from it: nodes in order (the point count, then each point), then
    the marks, then connectivity by depth-first search; None if none."""
    seen = [set() for _ in range(n_comp)]

    def place(c, p):
        if not 0 <= c < n_comp:
            return f"component index {c} out of range"
        if p in seen[c]:
            return f"point id {p} on component {c} used twice"
        seen[c].add(p)

    for pair in nodes:
        if len(pair) != 2:
            return f"node must pair two points, got {pair}"
        for c, p in pair:
            if (msg := place(c, p)) is not None:
                return msg
    for c, p in marks:
        if (msg := place(c, p)) is not None:
            return msg
    neighbours = [set() for _ in range(n_comp)]
    for (a, _), (b, _) in nodes:
        neighbours[a].add(b)
        neighbours[b].add(a)
    reached, stack = {0}, [0]
    while stack:
        for nxt in neighbours[stack.pop()] - reached:
            reached.add(nxt)
            stack.append(nxt)
    return None if len(reached) == n_comp else "dual graph of the configuration is not connected"


class TestNodalConfig:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            NodalConfig((Component(0), Component(1)))

    def test_duplicate_point_id_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            NodalConfig((Component(0), Component(0)),
                        nodes=(((0, 0), (1, 0)),), marks=((0, 0),))

    def test_component_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            NodalConfig((Component(0),), marks=((3, 0),))

    def test_self_node_counts_two_special_points(self):
        cfg = NodalConfig((Component(1),), nodes=(((0, 0), (0, 1)),))
        assert special_point_count(cfg, 0) == 2

    @pytest.mark.parametrize("n_comp, nodes, marks, message", [
        # nodes in order, each checked for two points before its points are;
        # then the marks; a disconnected graph only after every point passes
        (2, (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 2))), (),
         "node must pair two points, got ((0, 0), (1, 0), (1, 1))"),
        (2, (((0, 0), (1, 0)), ((0, 0), (1, 1), (1, 2))), (),
         "node must pair two points, got ((0, 0), (1, 1), (1, 2))"),
        (2, (), ((5, 0),), "component index 5 out of range"),
        (3, (((0, 0), (5, 0)),), (), "component index 5 out of range"),
        (2, (), ((1, 0), (1, 0)), "point id 0 on component 1 used twice"),
        (1, (((0, 0), (0, 0)),), ((3, 0),), "point id 0 on component 0 used twice"),
        (1, (((0, 0), (2, 0)),), ((0, 0),), "component index 2 out of range"),
        (2, (((-1, 0), (1, 0)),), (), "component index -1 out of range"),
    ])
    def test_first_error_of_a_doubly_malformed_config(self, n_comp, nodes, marks, message):
        with pytest.raises(ValueError) as err:
            NodalConfig(tuple(Component(0) for _ in range(n_comp)), nodes, marks)
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(planted_faults())
    def test_first_error_matches_the_reference_walk(self, drawn):
        n_comp, nodes, marks = drawn
        want = reference_first_error(n_comp, nodes, marks)
        comps = tuple(Component(0) for _ in range(n_comp))
        if want is None:  # the second fault undid the first
            NodalConfig(comps, nodes, marks)
            return
        with pytest.raises(ValueError) as err:
            NodalConfig(comps, nodes, marks)
        assert str(err.value) == want

    def test_points_match_the_walk(self, point_walk):
        rng = np.random.default_rng(25)
        for _ in range(300):
            cfg = random_nodal_config(rng)
            walk = point_walk(cfg)
            assert cfg.points == tuple(frozenset(ids) for ids in walk)
            assert [special_point_count(cfg, i) for i in range(len(walk))] == [len(ids) for ids in walk]

    def test_points_derived_not_settable(self):
        cfg = NodalConfig((Component(1), Component(0)), nodes=(((0, 4), (1, 0)), ((0, -2), (0, 7))),
                          marks=((1, 3),))
        assert cfg.points == (frozenset({4, -2, 7}), frozenset({0, 3}))
        with pytest.raises(TypeError):
            NodalConfig((Component(0),), points=(frozenset(),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.points = ()
        # equality, hashing and the repr read components, nodes and marks only
        twin = NodalConfig(cfg.components, cfg.nodes, cfg.marks)
        assert twin == cfg and hash(twin) == hash(cfg) and "points" not in repr(cfg)


class TestArithmeticGenus:
    def test_two_spheres_one_node(self):
        assert arithmetic_genus(two_spheres_one_node()) == 0

    def test_sphere_with_self_node(self):
        # Euler characteristic of the quotient: one component, one node
        cfg = NodalConfig((Component(0),), nodes=(((0, 0), (0, 1)),))
        assert arithmetic_genus(cfg) == 1

    def test_three_spheres_in_cycle(self):
        # first Betti number of the triangle dual graph
        cfg = NodalConfig(
            (Component(0), Component(0), Component(0)),
            nodes=(((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 1))),
        )
        assert arithmetic_genus(cfg) == 1

    def test_smooth_genus(self):
        assert arithmetic_genus(NodalConfig((Component(4),))) == 4

    def test_nonnegative_on_connected_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_comp = int(rng.integers(1, 5))
            comps = tuple(Component(int(rng.integers(0, 3))) for _ in range(n_comp))
            counters = [0] * n_comp
            nodes = []
            for j in range(1, n_comp):
                i = int(rng.integers(0, j))
                nodes.append(((i, counters[i]), (j, counters[j])))
                counters[i] += 1
                counters[j] += 1
            if n_comp == 1 and rng.uniform() < 0.5:
                nodes.append(((0, counters[0]), (0, counters[0] + 1)))
            assert arithmetic_genus(NodalConfig(comps, tuple(nodes))) >= 0


class TestStability:
    def test_ghost_sphere_two_special_points(self):
        cfg = NodalConfig((Component(0, ghost=True), Component(1)),
                          nodes=(((0, 0), (1, 0)),), marks=((0, 1),))
        assert special_point_count(cfg, 0) == 2
        assert not is_stable_map(cfg)

    def test_ghost_torus_no_special_points(self):
        assert not is_stable_map(NodalConfig((Component(1, ghost=True),)))

    def test_nonghost_sphere_unconstrained(self):
        assert is_stable_map(NodalConfig((Component(0, ghost=False),)))

    def test_ghost_sphere_three_points_stable(self):
        cfg = NodalConfig((Component(0, ghost=True), Component(2)),
                          nodes=(((0, 0), (1, 0)),), marks=((0, 1), (0, 2)))
        assert is_stable_map(cfg)

    def test_ghost_torus_one_point_stable(self):
        cfg = NodalConfig((Component(1, ghost=True),), marks=((0, 0),))
        assert is_stable_map(cfg)

    @given(st.integers(min_value=0, max_value=400))
    @settings(deadline=None, max_examples=60)
    def test_adding_a_mark_never_destabilizes(self, seed):
        rng = np.random.default_rng(seed)
        comps = tuple(Component(int(rng.integers(0, 3)), bool(rng.integers(0, 2)))
                      for _ in range(int(rng.integers(1, 4))))
        nodes = []
        counters = [0] * len(comps)
        for j in range(1, len(comps)):
            i = int(rng.integers(0, j))
            nodes.append(((i, counters[i]), (j, counters[j])))
            counters[i] += 1
            counters[j] += 1
        marks = []
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(0, len(comps)))
            marks.append((i, counters[i]))
            counters[i] += 1
        cfg = NodalConfig(comps, tuple(nodes), tuple(marks))
        i = int(rng.integers(0, len(comps)))
        extended = NodalConfig(comps, tuple(nodes), tuple(marks) + ((i, counters[i]),))
        if is_stable_map(cfg):
            assert is_stable_map(extended)


class TestDimensionFormulas:
    def test_lines_in_plane(self):
        assert moduli_dimension(0, 0, P2_LINE) == 2

    def test_point_target_recovers_deligne_mumford(self):
        point = TargetData(0, 0)
        for g in range(2, 6):
            assert moduli_dimension(g, 0, point) == 3 * g - 3

    def test_degree_d_rational_curves(self):
        for d in range(1, 6):
            for n in range(6):
                assert moduli_dimension(0, n, TargetData(2, 3 * d)) == 3 * d - 1 + n

    def test_riemann_roch_sphere_degree_two(self):
        t = TargetData(1, 2)
        assert riemann_roch_index(t, 0) == 3

    def test_riemann_roch_torus(self):
        for m in range(5):
            assert riemann_roch_index(TargetData(m, 0), 1) == 0

    def test_frozen_identity_moduli_rr_teichmuller(self):
        # frozen from the pre-build symbolic oracle: the offset polynomial
        # of moduli - rr_complex - teichmuller vanishes identically
        rng = np.random.default_rng(123)
        for _ in range(1000):
            g = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            target = TargetData(int(rng.integers(0, 7)), int(rng.integers(-15, 16)))
            assert (moduli_dimension(g, n, target)
                    == riemann_roch_index(target, g) + teichmuller_dim(g, n))

    def test_teichmuller_values(self):
        assert teichmuller_dim(2, 0) == 3
        assert teichmuller_dim(0, 3) == 0
        assert teichmuller_dim(1, 1) == 1

    def test_core_slice_examples(self):
        # the formula 3g-3+n-k gives -1 on the first example (the spec's
        # stated pair (1, 4) miscomputes the first entry)
        assert core_slice_dims(0, 3, 1, P2_LINE) == (-1, 4)
        assert core_slice_dims(1, 1, 1, TargetData(3, 0)) == (0, 0)

    def test_core_slice_reduces_at_k_zero(self):
        target = TargetData(3, 7)
        dim_core, dim_x0 = core_slice_dims(2, 4, 0, target)
        assert dim_core == teichmuller_dim(2, 4)
        assert dim_x0 == moduli_dimension(2, 4, target)

    def test_core_slice_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            g, n, k = int(rng.integers(0, 6)), int(rng.integers(0, 6)), int(rng.integers(0, 6))
            target = TargetData(int(rng.integers(0, 5)), int(rng.integers(-9, 10)))
            assert core_slice_dims(g, n, k, target)[1] + k == moduli_dimension(g, n, target)


class TestIsotropy:
    @pytest.mark.parametrize("g,n,name,dim", [
        (0, 0, "PSL(2,C)", 3),
        (0, 1, "C* x| C", 2),
        (0, 2, "C*", 1),
        (1, 0, "T^2", 1),
        (2, 0, "trivial", 0),
        (0, 3, "trivial", 0),
        (1, 1, "trivial", 0),
        (5, 2, "trivial", 0),
    ])
    def test_table(self, g, n, name, dim):
        got = isotropy_group(g, n)
        assert got.name == name and got.complex_dim == dim

    def test_consistent_with_dim_relation(self):
        # dim A - dim G = 3g - 3 + n with dim A = 3g - 3 + n + dim G
        for g in range(4):
            for n in range(4):
                got = isotropy_group(g, n)
                dim_a = 3 * g - 3 + n + got.complex_dim
                assert dim_a - got.complex_dim == teichmuller_dim(g, n)


class TestHardyTriples:
    def test_constants_only(self):
        idx = triple_index(hardy_triple_for_line_bundle(0, 8))
        assert idx == (1, 0, 1)
        assert idx.index == riemann_roch_index(TargetData(1, 0), 0)

    def test_degree_two_twist(self):
        idx = triple_index(hardy_triple_for_line_bundle(4, 16))
        assert idx.index == 5
        assert idx.index == riemann_roch_index(TargetData(1, 4), 0)
        # brute-force basis count: polynomials of degree <= 4
        assert idx.dim_cap == len(range(0, 5))

    def test_degree_ten(self):
        assert triple_index(hardy_triple_for_line_bundle(10, 32)).index == 11

    def test_truncation_independence(self):
        values = {triple_index(hardy_triple_for_line_bundle(4, N)) for N in range(5, 13)}
        assert values == {(5, 0, 5)}

    def test_truncation_too_small_rejected(self):
        with pytest.raises(ValueError):
            hardy_triple_for_line_bundle(8, 8)

    def test_sphere_split_indices(self):
        for m in (1, 2, 3):
            idx = triple_index(hardy_triple_for_line_bundle(0, 16, m))
            assert idx == (m, 0, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [0, 2])
    def test_m_copies_index(self, m, d):
        # m copies of O(d): h0 = m (d + 1), h1 = 0, the Riemann-Roch count
        idx = triple_index(hardy_triple_for_line_bundle(d, 16, m))
        assert idx == (m * (d + 1), 0, m * (d + 1))
        assert idx.index == riemann_roch_index(TargetData(m, m * d), 0)

    def test_no_copies_rejected(self):
        with pytest.raises(ValueError, match="target dimension must be positive"):
            hardy_triple_for_line_bundle(0, 8, 0)

    def test_sphere_bases_are_mode_columns_per_component(self):
        # column (j, comp) is the unit vector of mode n_j in component comp,
        # row (n + n_max) * m + comp
        n_max = 3
        for m in (1, 2, 3):
            t = hardy_triple_for_line_bundle(0, n_max, m)
            for basis, modes in ((t.basis_prime, range(0, n_max + 1)),
                                 (t.basis_dprime, range(-n_max, 1))):
                ref = np.zeros(((2 * n_max + 1) * m, len(modes) * m), dtype=complex)
                for j, n in enumerate(modes):
                    for comp in range(m):
                        ref[(n + n_max) * m + comp, j * m + comp] = 1.0
                assert basis.dtype == np.float64 and np.array_equal(basis, ref)
