import math
import warnings

import numpy as np
import pytest

from conftest import random_nodal_config
from hardyglue import degeneration
from hardyglue.cli import check_residual
from hardyglue.degeneration import (
    _LOG_RHO,
    QUADRATURE_TOL,
    NeckFamily,
    NonseparatingCycle,
    SeparatingCycle,
    annulus_energy,
    annulus_energy_quadrature,
    _orders,
    apply_deformation,
    energy_axiom_check,
    neck_laurent,
)
from hardyglue.loops import Loop
from hardyglue.moduli import Component, NodalConfig, arithmetic_genus, special_point_count
from hardyglue.node_model import NodePolynomial


def scalar(entries, n_max=6):
    return Loop.from_modes(1, n_max, {n: [v] for n, v in entries.items()})


def plant_orders(monkeypatch, angles=None, radii=None):
    """Make `annulus_energy_quadrature` take ``angles`` angles and ``radii``
    radial nodes (before its rounding up to a multiple of 8) in place of
    the orders `_orders` proves; None keeps the proven one."""
    proven = degeneration._orders

    def planted(*args):
        P, k = proven(*args)
        return (P if angles is None else angles, k if radii is None else radii)

    monkeypatch.setattr(degeneration, "_orders", planted)


def coordinate_poly():
    """v(x, y) = x."""
    return NodePolynomial(np.array([[1.0 + 0j]]), np.zeros((0, 1), complex), np.zeros(1, complex))


class TestAnnulusEnergy:
    def test_identity_map(self):
        r, R = 0.3, 0.8
        expected = np.pi * (R**2 - r**2)
        assert annulus_energy(scalar({1: 1.0}), r, R) == pytest.approx(expected, rel=1e-14)
        assert annulus_energy_quadrature(scalar({1: 1.0}), r, R) == pytest.approx(expected, rel=1e-10)

    def test_constant_zero(self):
        assert annulus_energy(scalar({0: 5.0}), 0.2, 0.9) == 0.0

    def test_simple_pole(self):
        r, R = 0.25, 0.75
        expected = np.pi * (r**-2 - R**-2)
        assert annulus_energy(scalar({-1: 1.0}), r, R) == pytest.approx(expected, rel=1e-14)
        assert annulus_energy_quadrature(scalar({-1: 1.0}), r, R) == pytest.approx(expected, rel=1e-8)

    def test_quadrature_agreement_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            loop = Loop(2, 5, 0.5 * (rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))))
            r = float(rng.uniform(0.15, 0.4))
            R = float(rng.uniform(0.6, 0.95))
            closed = annulus_energy(loop, r, R)
            quad = annulus_energy_quadrature(loop, r, R)
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_quadrature_skips_dead_modes(self):
        # r^(-65) overflows; powers formed for the zero rows would turn
        # inf * 0 into NaN
        loop = Loop.from_modes(1, 64, {1: [1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            quad = annulus_energy_quadrature(loop, 1e-6, 0.5)
        assert quad == pytest.approx(annulus_energy(loop, 1e-6, 0.5), rel=1e-8)

    def test_quadrature_samples_pointwise(self, monkeypatch):
        # two angular samples alias |f'|^2 for f = x + x^3; a sum over
        # coefficients would return the closed form instead
        loop = scalar({1: 1.0, 3: 1.0}, n_max=3)
        closed = annulus_energy(loop, 0.3, 0.8)
        assert closed == pytest.approx(4.191654290088907, rel=1e-12)
        assert annulus_energy_quadrature(loop, 0.3, 0.8) == pytest.approx(closed, rel=1e-10)
        plant_orders(monkeypatch, angles=2)
        assert annulus_energy_quadrature(loop, 0.3, 0.8) == pytest.approx(7.975702641337808, rel=1e-12)

    def test_quadrature_agreement_on_necks(self):
        # the radii energy_axiom_check picks at n_max = 32, m = 2, down to
        # r ~ 1e-5, checked to the CLI's tolerance
        rng = np.random.default_rng(21)
        z_seq = tuple(0.5 ** k for k in range(1, 49))
        for _ in range(3):
            deg_x, deg_y = (int(d) for d in rng.integers(0, 4, size=2))
            poly = NodePolynomial(
                rng.standard_normal((deg_x, 2)) + 1j * rng.standard_normal((deg_x, 2)),
                rng.standard_normal((deg_y, 2)) + 1j * rng.standard_normal((deg_y, 2)),
                rng.standard_normal(2) + 1j * rng.standard_normal(2))
            fam = NeckFamily.from_constant(poly, z_seq)
            report = energy_axiom_check(fam, [1e-1, 1e-2, 1e-3, 1e-4], tol=1e-3, n_max=32)
            for row in report.rows:
                neck = neck_laurent(poly, z_seq[row.k_index], 32)
                quad = annulus_energy_quadrature(neck, row.z_abs / row.eps, row.eps)
                assert quad == pytest.approx(row.energy, rel=1e-8)

    def test_radial_additivity(self):
        rng = np.random.default_rng(4)
        loop = Loop(1, 4, rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1)))
        r, rho, R = 0.2, 0.45, 0.9
        whole = annulus_energy(loop, r, R)
        split = annulus_energy(loop, r, rho) + annulus_energy(loop, rho, R)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            loop = Loop(1, 6, rng.standard_normal((13, 1)) + 1j * rng.standard_normal((13, 1)))
            assert annulus_energy(loop, 0.3, 0.8) >= 0.0

    def test_bad_radii(self):
        for r, R in ((0.0, 0.5), (0.5, 0.5), (0.7, 0.2), (0.5, 1.5)):
            with pytest.raises(ValueError):
                annulus_energy(scalar({1: 1.0}), r, R)


def gl_log_bound(a, k):
    """log of the Gauss-Legendre error bound for ``e^(a s)`` on [-1, 1] with
    k nodes (n = k - 1 in Trefethen, ATAP Thm 19.3), least over `_LOG_RHO`."""
    return float(np.min(math.log(64 / 15) + abs(a) * np.cosh(_LOG_RHO) - 2 * (k - 1) * _LOG_RHO
                        - np.log(np.expm1(2 * _LOG_RHO))))


class TestQuadratureOrders:
    """The orders `annulus_energy_quadrature` picks by default, each proven:
    the angle count by the degree of ``|f'|^2``, the radial count by the
    Bernstein-ellipse bound."""

    @staticmethod
    def gap(loop, r, R):
        quad = annulus_energy_quadrature(loop, r, R)
        return abs(annulus_energy(loop, r, R) - quad) / (1.0 + abs(quad))

    @pytest.mark.parametrize("a", [0.5, 3.2, 20.0, 70.0])
    def test_bound_holds_at_the_chosen_order(self, a):
        # mode 1 on e^-a < |x| < 1 has the radial integrand 2 pi h e^(-a) e^(a s):
        # the chosen k is the least whose bound meets the target relative to
        # I_low = 2, and Gauss-Legendre at k nodes stays within the bound, up
        # to a roundoff floor
        _, k = _orders(np.array([1]), np.array([1.0]), math.exp(-a), 1.0)
        log_target = math.log(2.0 * QUADRATURE_TOL / 100)
        assert gl_log_bound(a, k) <= log_target < gl_log_bound(a, k - 1)
        nodes, weights = np.polynomial.legendre.leggauss(k)
        exact = 2.0 * math.sinh(a) / a
        err = abs(math.fsum(weights * np.exp(a * nodes)) - exact)
        assert err <= math.exp(gl_log_bound(a, k)) + 1e-13 * exact

    def test_bound_counts_k_minus_one(self):
        # with rho^(-2k) in place of rho^(-2(k-1)), the bound reads below the error
        nodes, weights = np.polynomial.legendre.leggauss(8)
        err = abs(weights @ np.exp(3.22 * nodes) - 2.0 * math.sinh(3.22) / 3.22)
        assert math.exp(gl_log_bound(3.22, 9)) < err <= math.exp(gl_log_bound(3.22, 8))

    def test_planted_short_orders_fail(self, monkeypatch):
        # x - 0.5 x^-2: |f'|^2 has degree 3 on a circle
        loop = Loop.from_modes(1, 2, {1: [1.0], -2: [-0.5]})
        r, R = 0.01, 0.5
        assert _orders(np.array([-2, 1]), np.array([0.25, 1.0]), r, R) == (4, 14)
        assert self.gap(loop, r, R) <= 1e-12  # 4 angles, 14 radii rounded up to 16
        with monkeypatch.context() as patch:
            plant_orders(patch, radii=14 // 3)  # rounded up to 8 radii
            short_radii = self.gap(loop, r, R)
        with monkeypatch.context() as patch:
            plant_orders(patch, angles=3)
            short_angles = self.gap(loop, r, R)
        assert short_radii == pytest.approx(3.15e-6, rel=0.01)
        assert short_angles == pytest.approx(7.8e-6, rel=0.01)
        for gap in (short_radii, short_angles):
            assert check_residual("quadrature_agreement", gap, QUADRATURE_TOL).status == "fail"

    def test_order_past_the_cap_is_inconclusive(self, monkeypatch):
        # x^60 on (1e-6, 0.9) needs 632 radii; x^100 on (1e-8, 0.9) needs 1395,
        # past the cap of 1024
        wide = Loop.from_modes(1, 60, {60: [1.0]})
        assert _orders(np.array([60]), np.array([1.0]), 1e-6, 0.9) == (1, 632)
        check = check_residual("quadrature_agreement", self.gap(wide, 1e-6, 0.9), QUADRATURE_TOL)
        assert check.status == "pass" and check.residual <= 1e-12
        wider = Loop.from_modes(1, 100, {100: [1.0]})
        assert _orders(np.array([100]), np.array([1.0]), 1e-8, 0.9) == (1, 1395)
        assert math.isnan(annulus_energy_quadrature(wider, 1e-8, 0.9))
        check = check_residual("quadrature_agreement", self.gap(wider, 1e-8, 0.9), QUADRATURE_TOL)
        assert check.status == "inconclusive" and check.residual is None
        # the cap alone makes it NaN: past a raised cap the proven count resolves it
        monkeypatch.setattr(degeneration, "_MAX_RADII", 1400)
        assert self.gap(wider, 1e-8, 0.9) <= 1e-12


class TestNeckLaurent:
    def test_mixed_data(self):
        poly = NodePolynomial(np.array([[2.0 + 0j]]), np.array([[3.0 + 0j]]), np.array([1.0 + 0j]))
        neck = neck_laurent(poly, 0.1, 4)
        assert neck.mode(1)[0] == 2.0
        assert neck.mode(-1)[0] == pytest.approx(0.3)
        assert neck.mode(0)[0] == 1.0

    def test_coefficient_kept_where_the_power_underflows(self):
        # |z|^39 = 1e-390 is below the float range, b_39 z^39 = 1e-90 is not
        z, b39 = 1e-10 * np.exp(0.3j), 1e300 * np.exp(0.7j)
        b = np.zeros((39, 2), complex)
        b[38, 0] = b39
        b[0, 1] = 5.0  # mode -1 keeps the plain product
        poly = NodePolynomial(np.zeros((0, 2), complex), b, np.zeros(2, complex))
        neck = neck_laurent(poly, z, 40)
        assert neck.mode(-39)[0] == pytest.approx(1e-90 * np.exp(1j * (0.7 + 39 * 0.3)), rel=1e-12, abs=0)
        assert neck.mode(-1)[1] == 5.0 * z and not neck.mode(-39)[1]
        # a product below the normal range stays the plain product
        tiny = NodePolynomial(np.zeros((0, 1), complex), np.array([[1.0 + 0j]]), np.zeros(1, complex))
        assert neck_laurent(tiny, 5e-310, 4).mode(-1)[0] == 5e-310

    def test_underflowing_power_no_longer_hides_the_energy(self):
        b = np.zeros((39, 1), complex)
        b[38, 0] = 1e300
        poly = NodePolynomial(np.zeros((0, 1), complex), b, np.zeros(1, complex))
        report = energy_axiom_check(NeckFamily((0.5, 1e-10), (poly, poly)), [1e-4], n_max=40)
        assert report.rows[0].energy != 0.0 and not report.passed


class TestEnergyAxiom:
    z_seq = tuple(2.0 ** (-k) for k in range(1, 49))
    eps_schedule = [1e-1, 1e-2, 1e-3, 1e-4]

    def test_coordinate_family_passes(self):
        fam = NeckFamily.from_constant(coordinate_poly(), self.z_seq)
        report = energy_axiom_check(fam, self.eps_schedule, tol=1e-6, n_max=8)
        assert report.passed
        for row in report.rows:
            assert row.energy == pytest.approx(np.pi * row.eps**2, rel=1e-8)
            assert row.stable

    def test_constant_family_passes_with_zero_energy(self):
        poly = NodePolynomial(np.zeros((0, 1), complex), np.zeros((0, 1), complex),
                              np.array([3.0 + 1j]))
        report = energy_axiom_check(NeckFamily.from_constant(poly, self.z_seq),
                                    self.eps_schedule, tol=1e-6, n_max=8)
        assert report.passed
        assert all(r.energy == 0.0 for r in report.rows)

    def test_fixed_laurent_restrictions_pass(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            poly = NodePolynomial(0.5 * (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))),
                                  0.5 * (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))),
                                  rng.standard_normal(1) + 1j * rng.standard_normal(1))
            report = energy_axiom_check(NeckFamily.from_constant(poly, self.z_seq),
                                        self.eps_schedule, tol=1e-3, n_max=8)
            assert report.passed

    def test_bubble_profile_fails(self):
        # fixed neck coefficient a_{-1} = 1 for every k
        polys = tuple(NodePolynomial(np.zeros((0, 1), complex),
                                     np.array([[1.0 / z]], dtype=complex),
                                     np.zeros(1, complex)) for z in self.z_seq)
        report = energy_axiom_check(NeckFamily(self.z_seq, polys),
                                    self.eps_schedule, tol=1e-6, n_max=8)
        assert not report.passed
        # the k-limits never settle and the eps-limits stay far above tol
        assert not any(r.stable for r in report.rows)
        assert report.rows[-1].energy > 1.0

    def test_report_carries_the_last_neck(self):
        fam = NeckFamily.from_constant(coordinate_poly(), self.z_seq)
        report = energy_axiom_check(fam, self.eps_schedule, tol=1e-6, n_max=8)
        assert {r.k_index for r in report.rows} == {len(self.z_seq) - 1}
        last = neck_laurent(coordinate_poly(), self.z_seq[-1], 8)
        assert np.array_equal(report.neck.coeffs, last.coeffs)

    def test_huge_neck_keeps_the_k_limit_stable(self):
        # |a|^2 = 1e320 overflows; the energy is homogeneous of degree 2, so
        # the k-limit settles exactly as for a = 1, and the energy reads inf
        poly = NodePolynomial(np.array([[1e160 + 0j]]), np.zeros((0, 1), complex), np.zeros(1, complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = energy_axiom_check(NeckFamily.from_constant(poly, self.z_seq),
                                        self.eps_schedule, tol=1e-6, n_max=8)
        assert all(r.stable for r in report.rows)
        assert all(r.energy == np.inf for r in report.rows)
        assert not report.passed

    def test_eps_needs_usable_parameter(self):
        fam = NeckFamily.from_constant(coordinate_poly(), (0.5, 0.25))
        with pytest.raises(ValueError, match="eps"):
            energy_axiom_check(fam, [0.5, 0.1], n_max=4)

    def test_schedule_validation(self):
        fam = NeckFamily.from_constant(coordinate_poly(), self.z_seq)
        with pytest.raises(ValueError):
            energy_axiom_check(fam, [0.1, 0.2], n_max=4)

    def test_family_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            NeckFamily.from_constant(coordinate_poly(), (0.25, 0.5))
        with pytest.raises(ValueError, match="one Laurent"):
            NeckFamily((0.5, 0.25), (coordinate_poly(),))

    @pytest.mark.parametrize("z_seq, k", [((0.5, 0.0), 1), ((0.5, 0.25, 0j), 2),
                                          (tuple(0.5 * 0.5 ** j for j in range(1075)), 1074)])
    def test_zero_parameter_is_named_by_its_index(self, z_seq, k):
        with pytest.raises(ValueError, match=rf"^z_seq\[{k}\]: gluing parameter is 0"):
            NeckFamily.from_constant(coordinate_poly(), z_seq)


class TestApplyDeformation:
    def test_torus_to_nodal_sphere(self):
        torus = NodalConfig((Component(1),))
        out = apply_deformation(torus, [NonseparatingCycle(0)])
        assert len(out.components) == 1
        assert out.components[0].genus == 0
        assert out.n_nodes == 1
        assert arithmetic_genus(out) == arithmetic_genus(torus) == 1

    def test_sphere_separating_split(self):
        sphere = NodalConfig((Component(0),))
        out = apply_deformation(sphere, [SeparatingCycle(0, 0)])
        assert len(out.components) == 2
        assert out.n_nodes == 1
        assert arithmetic_genus(out) == 0

    def test_no_cycles_identity(self):
        cfg = NodalConfig((Component(2),), marks=((0, 0),))
        assert apply_deformation(cfg, []) is cfg

    def test_nonseparating_on_sphere_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            apply_deformation(NodalConfig((Component(0),)), [NonseparatingCycle(0)])

    def test_separating_distributes_points(self):
        cfg = NodalConfig((Component(2), Component(0)),
                          nodes=(((0, 0), (1, 0)),), marks=((0, 1), (0, 2)))
        out = apply_deformation(cfg, [SeparatingCycle(0, 1, points_first=frozenset({0, 1}))])
        assert len(out.components) == 3
        assert out.components[0].genus == 1
        assert out.components[2].genus == 1
        # the node endpoint (0,0) and the mark (0,1) stayed; mark (0,2) moved
        assert (2, 2) in out.marks and (0, 1) in out.marks
        assert arithmetic_genus(out) == arithmetic_genus(cfg)

    def test_genus_split_validation(self):
        with pytest.raises(ValueError, match="genus split"):
            apply_deformation(NodalConfig((Component(1),)), [SeparatingCycle(0, 2)])

    def test_ghost_flag_inherited(self):
        cfg = NodalConfig((Component(2, ghost=True),))
        out = apply_deformation(cfg, [SeparatingCycle(0, 1)])
        assert all(c.ghost for c in out.components)

    def test_sequential_cycles(self):
        cfg = NodalConfig((Component(2),))
        out = apply_deformation(cfg, [NonseparatingCycle(0), NonseparatingCycle(0)])
        assert out.components[0].genus == 0
        assert out.n_nodes == 2
        assert arithmetic_genus(out) == 2

    def test_genus_preserved_on_random_configs(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n_comp = int(rng.integers(1, 4))
            comps = tuple(Component(int(rng.integers(0, 3))) for _ in range(n_comp))
            counters = [0] * n_comp
            nodes = []
            for j in range(1, n_comp):
                i = int(rng.integers(0, j))
                nodes.append(((i, counters[i]), (j, counters[j])))
                counters[i] += 1
                counters[j] += 1
            cfg = NodalConfig(comps, tuple(nodes))
            base = arithmetic_genus(cfg)
            for i, comp in enumerate(comps):
                if comp.genus >= 1:
                    assert arithmetic_genus(apply_deformation(cfg, [NonseparatingCycle(i)])) == base
            target = int(rng.integers(0, n_comp))
            g_first = int(rng.integers(0, comps[target].genus + 1))
            keep = frozenset(pid for ci, pid in
                             [pt for pair in cfg.nodes for pt in pair if pt[0] == target][:1])
            out = apply_deformation(cfg, [SeparatingCycle(target, g_first, keep)])
            assert arithmetic_genus(out) == base
            for i in range(len(out.components)):
                special_point_count(out, i)  # ids stay consistent

    def test_contraction_points_match_the_walk(self, point_walk):
        # each contraction joins at the two smallest ids free on the
        # component (a reused id would be rejected as used twice), and the
        # output's points are those of the walk
        rng = np.random.default_rng(26)
        for _ in range(200):
            cfg = random_nodal_config(rng)
            for _ in range(2):
                i = int(rng.integers(0, len(cfg.components)))
                on_i = point_walk(cfg)[i]
                fresh = [pid for pid in range(len(on_i) + 2) if pid not in on_i][:2]
                if cfg.components[i].genus and rng.uniform() < 0.5:
                    out = apply_deformation(cfg, [NonseparatingCycle(i)])
                    assert out.nodes[-1] == ((i, fresh[0]), (i, fresh[1]))
                else:
                    keep = frozenset(pid for pid in on_i if rng.uniform() < 0.5)
                    g_first = int(rng.integers(0, cfg.components[i].genus + 1))
                    out = apply_deformation(cfg, [SeparatingCycle(i, g_first, keep)])
                    assert out.nodes[-1] == ((i, fresh[0]), (len(cfg.components), fresh[1]))
                walk = point_walk(out)
                assert out.points == tuple(frozenset(ids) for ids in walk)
                assert [special_point_count(out, j) for j in range(len(walk))] == [len(ids) for ids in walk]
                cfg = out

    def test_range_checked_after_the_cycle_type(self):
        cfg = NodalConfig((Component(1),))
        with pytest.raises(ValueError, match="unknown cycle type"):
            apply_deformation(cfg, [NonseparatingCycle(0), "handle"])
        for cycle in (NonseparatingCycle(1), SeparatingCycle(-1, 0), SeparatingCycle(3, 5)):
            with pytest.raises(ValueError, match=f"component index {cycle.component} out of range"):
                apply_deformation(cfg, [cycle])
