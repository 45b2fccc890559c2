import numpy as np
import pytest

from hardyglue.extension import (
    NodeData,
    annulus_extension_test,
    disk_pair_node_test,
    vprime_membership,
)
from hardyglue.loops import Loop, default_grid_size
from hardyglue.node_model import NodeBoundary, node_membership


def scalar(entries, n_max=8):
    return Loop.from_modes(1, n_max, {n: [v] for n, v in entries.items()})


def annulus_pair(laurent_entries, delta, n_max=8):
    """Restrict a Laurent series to both boundary circles of A(delta, 1)."""
    xi = scalar(laurent_entries, n_max)
    eta_entries = {}
    for n, v in laurent_entries.items():
        eta_entries[-n] = v * delta ** float(n)
    return xi, scalar(eta_entries, n_max)


class TestDiskPair:
    def test_matching_constants(self):
        c = scalar({0: 0.5})
        assert disk_pair_node_test(c, c).member

    def test_mismatched_constants_fail(self):
        res = disk_pair_node_test(scalar({0: 1.0, 1: 1.0}), scalar({0: 2.0, 1: 1.0}))
        assert not res.member

    def test_agrees_with_membership_verdicts(self):
        rng = np.random.default_rng(12)
        agree = 0
        trials = 1000
        for _ in range(trials):
            n_max = 6
            if rng.uniform() < 0.5:
                coeffs = np.zeros((2 * n_max + 1, 1), dtype=complex)
                coeffs[n_max:] = rng.standard_normal((n_max + 1, 1)) + 1j * rng.standard_normal((n_max + 1, 1))
                xi = Loop(1, n_max, coeffs)
                eta_coeffs = np.zeros((2 * n_max + 1, 1), dtype=complex)
                eta_coeffs[n_max] = coeffs[n_max]
                eta_coeffs[n_max + 1:] = rng.standard_normal((n_max, 1))
                eta = Loop(1, n_max, eta_coeffs)
            else:
                xi = Loop(1, n_max, rng.standard_normal((2 * n_max + 1, 1))
                          + 1j * rng.standard_normal((2 * n_max + 1, 1)))
                eta = Loop(1, n_max, rng.standard_normal((2 * n_max + 1, 1))
                           + 1j * rng.standard_normal((2 * n_max + 1, 1)))
            pair = disk_pair_node_test(xi, eta, tol=1e-10)
            mem = node_membership(NodeBoundary(0j, xi, eta), tol=1e-10)
            if pair.member == mem.member and pair.residual == mem.residual:
                agree += 1
        assert agree == trials


class TestAnnulusExtension:
    def test_monomial_pair(self):
        xi, eta = scalar({1: 1.0}), scalar({-1: 0.25})
        res = annulus_extension_test(xi, eta, 0.25)
        assert res.member and res.residual <= 1e-15

    def test_pole_pair(self):
        # coefficient-relation oracle: eta_n = xi_{-n} delta^{-n}
        # xi = x^{-1}  =>  eta_1 = xi_{-1} * delta^{-1} = 4
        xi, eta = scalar({-1: 1.0}), scalar({1: 4.0})
        assert annulus_extension_test(xi, eta, 0.25).member

    def test_mismatched_pair_fails(self):
        res = annulus_extension_test(scalar({1: 1.0}), scalar({1: 1.0}), 0.25)
        assert not res.member and res.residual > 1e-3

    def test_defect_past_float_range(self):
        xi, eta = scalar({2: 1e308}), Loop.zeros(1, 8)
        res = annulus_extension_test(xi, eta, 0.25)
        small = annulus_extension_test(xi.with_coeffs(1e-296 * xi.coeffs), eta, 0.25)
        assert not res.member
        assert res.residual == pytest.approx(small.residual, rel=1e-9)

    def test_bad_delta_rejected(self):
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                annulus_extension_test(scalar({1: 1.0}), scalar({-1: 1.0}), delta)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            delta = float(rng.uniform(0.1, 0.9))
            xi = Loop(1, 6, rng.standard_normal((13, 1)) + 1j * rng.standard_normal((13, 1)))
            eta = Loop(1, 6, rng.standard_normal((13, 1)) + 1j * rng.standard_normal((13, 1)))
            fwd = annulus_extension_test(xi, eta, delta)
            rev = annulus_extension_test(eta, xi, delta)
            assert fwd.member == rev.member
            assert fwd.residual == pytest.approx(rev.residual, rel=1e-12, abs=1e-15)

    def test_vector_valued_pair(self):
        # componentwise matching for loops into C^2
        delta = 0.3
        xi = Loop.from_modes(2, 4, {1: [1.0, 0.0], -2: [0.0, 0.5]})
        eta = Loop.from_modes(2, 4, {-1: [delta, 0.0], 2: [0.0, 0.5 * delta**-2]})
        res = annulus_extension_test(xi, eta, delta)
        assert res.member and res.residual <= 1e-12
        rev = annulus_extension_test(eta, xi, delta)
        assert rev.residual == pytest.approx(res.residual, abs=1e-15)

    def test_laurent_restriction_passes(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            delta = float(rng.uniform(0.2, 0.8))
            entries = {n: complex(rng.standard_normal(), rng.standard_normal())
                       for n in range(-5, 6)}
            xi, eta = annulus_pair(entries, delta)
            res = annulus_extension_test(xi, eta, delta)
            assert res.member and res.residual <= 1e-12


class TestVPrime:
    def test_constant_disk_pair_member(self):
        c = scalar({0: 0.5})
        report = vprime_membership([NodeData("disk_pair", c, c)])
        assert report.member
        assert report.nodes[0].ball_ok

    def test_scaled_annulus_member(self):
        # the monomial pair scaled to sup 0.9
        xi, eta = annulus_pair({1: 0.9}, 0.25)
        report = vprime_membership([NodeData("annulus", xi, eta, delta=0.25)])
        assert report.member
        assert report.nodes[0].ball_sup == pytest.approx(0.9)

    def test_large_loop_fails_ball_condition(self):
        big = scalar({0: 1.2})
        report = vprime_membership([NodeData("disk_pair", big, big)])
        assert not report.member
        assert report.nodes[0].ball_sup == pytest.approx(1.2)
        assert report.nodes[0].extends  # condition (b) itself holds

    def test_ball_sup_at_scale_near_the_float_maximum(self):
        # 1.7e308 e^{-i theta}: 4 of its 16 plain samples overflow, and every
        # |sample|^2 does; the sup is taken at scale, and power-of-two
        # multiples give the same bits, scaled
        big = Loop(1, 1, [[1.7e308], [0], [0]])
        sup = vprime_membership([NodeData("disk_pair", big, big)]).nodes[0].ball_sup
        assert sup == pytest.approx(1.7e308, rel=1e-15)
        small = big.with_coeffs(2.0 ** -600 * big.coeffs)
        assert vprime_membership([NodeData("disk_pair", small, small)]).nodes[0].ball_sup * 2.0 ** 600 == sup

    def test_ball_sup_rows_past_the_float_range_taken_at_scale(self):
        # node 0 is sampled as it stands, bit for bit; in node 1 the eta row,
        # 1.7e308 e^{-3i theta} alone, overflows its plain synthesis
        rng = np.random.default_rng(8)
        xi = Loop(2, 4, 1e150 * (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))))
        eta = Loop.from_modes(2, 4, {-3: [1.7e308, 0.0]})
        report = vprime_membership([NodeData("disk_pair", xi, xi), NodeData("disk_pair", xi, eta)])
        P = default_grid_size(4)
        spread = np.zeros((P, 2), dtype=complex)
        spread[np.arange(-4, 5) % P] = xi.coeffs
        plain = np.sqrt(np.sum(np.abs(np.fft.ifft(spread, axis=0) * P) ** 2, axis=1)).max()
        assert report.nodes[0].ball_sup == plain
        assert report.nodes[1].ball_sup == pytest.approx(1.7e308, rel=1e-14)

    def test_ball_check_disabled(self):
        big = scalar({0: 1.2})
        report = vprime_membership([NodeData("disk_pair", big, big)], ball_check=False)
        assert report.member
        assert report.nodes[0].ball_sup is None

    def test_mixed_nodes(self):
        c = scalar({0: 0.5})
        xi, eta = annulus_pair({1: 0.3}, 0.5)
        report = vprime_membership([
            NodeData("disk_pair", c, c),
            NodeData("annulus", xi, eta, delta=0.5),
        ])
        assert report.member and len(report.nodes) == 2

    def test_nonzero_gluing_parameter_record(self):
        b_xi, b_eta = scalar({1: 0.9}, 4), scalar({-1: 0.225}, 4)
        report = vprime_membership([NodeData("disk_pair", b_xi, b_eta, z=0.25)])
        assert report.member

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NodeData("torus", scalar({0: 1.0}), scalar({0: 1.0}))
        with pytest.raises(ValueError):
            NodeData("annulus", scalar({0: 1.0}), scalar({0: 1.0}))

    @pytest.mark.parametrize("depth", [100, 5000])
    def test_deep_kind_quoted_bounded(self, depth):
        # a kind nested past the recursion limit is quoted a few levels deep
        kind = "torus"
        for _ in range(depth):
            kind = [kind]
        with pytest.raises(ValueError) as caught:
            NodeData(kind, scalar({0: 1.0}), scalar({0: 1.0}))
        assert str(caught.value) == "kind must be 'disk_pair' or 'annulus', got [[[[[[[...]]]]]]]"
