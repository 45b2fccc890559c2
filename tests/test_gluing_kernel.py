"""Properties of the node gluing relation ``eta_{-n} = z^n xi_n``,
``xi_{-n} = z^n eta_n``, ``xi_0 = eta_0``: one kernel serves the transfer
operator, the membership defect, the chart, the boundary traces and the
annulus test, so these check it from outside, and check that its stacked
form gives each row the bits of the public functions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyglue.extension import annulus_extension_test
from hardyglue.loops import Loop, _sobolev_norms, sobolev_norm
from hardyglue.node_model import (
    NodeBoundary,
    NodeChart,
    NodePolynomial,
    _chart,
    _chart_inverse,
    _defect,
    _membership_residuals,
    _power_table,
    _transfer,
    boundary_traces,
    membership_defect,
    node_chart,
    node_chart_inverse,
    node_membership,
    transfer_Tz,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def disc(rng, shape, radius=1.0):
    return radius * np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))


def random_loop(rng, m, n_max):
    return Loop(m, n_max, disc(rng, (2 * n_max + 1, m)))


def plus_loop(rng, m, n_max):
    coeffs = np.zeros((2 * n_max + 1, m), dtype=complex)
    coeffs[n_max + 1:] = disc(rng, (n_max, m))
    return Loop(m, n_max, coeffs)


def fft_coeffs(values, n_max):
    """Modes -n_max..n_max of uniform samples on the unit circle."""
    P = values.shape[0]
    spectrum = np.fft.fft(values, axis=0) / P
    return spectrum[np.arange(-n_max, n_max + 1) % P]


class TestTracesAgainstPointwiseOracle:
    @given(seeds, st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=2),
           st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None)
    def test_fft_of_substituted_polynomial(self, seed, n_max, m, z_abs, deg_frac):
        rng = np.random.default_rng(seed)
        deg = int(round(deg_frac * n_max))
        poly = NodePolynomial(disc(rng, (deg, m)), disc(rng, (deg, m)), disc(rng, (m,)))
        z = z_abs * np.exp(2j * np.pi * rng.uniform())
        b = boundary_traces(poly, z, n_max)
        circle = np.exp(2j * np.pi * np.arange(2 * n_max + 2) / (2 * n_max + 2))
        xi = fft_coeffs(np.array([poly(x, z / x) for x in circle]), n_max)
        eta = fft_coeffs(np.array([poly(z / y, y) for y in circle]), n_max)
        np.testing.assert_allclose(b.xi.coeffs, xi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.eta.coeffs, eta, rtol=0, atol=1e-12)


class TestSwapSymmetry:
    @given(seeds, st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=2),
           st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=-12.0, max_value=0.0))
    @settings(deadline=None)
    def test_node_membership(self, seed, n_max, m, z_abs, log_noise):
        rng = np.random.default_rng(seed)
        z = z_abs * np.exp(2j * np.pi * rng.uniform())
        member = node_chart(NodeChart(z, plus_loop(rng, m, n_max), plus_loop(rng, m, n_max),
                                      disc(rng, (m,))))
        noise = 10.0**log_noise
        xi = Loop(m, n_max, member.xi.coeffs + noise * disc(rng, (2 * n_max + 1, m)))
        fwd = node_membership(NodeBoundary(z, xi, member.eta)).residual
        rev = node_membership(NodeBoundary(z, member.eta, xi)).residual
        assert rev == pytest.approx(fwd, rel=1e-13, abs=1e-300)

    @given(seeds, st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=2),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(deadline=None)
    def test_annulus_extension(self, seed, n_max, m, delta):
        rng = np.random.default_rng(seed)
        xi, eta = random_loop(rng, m, n_max), random_loop(rng, m, n_max)
        fwd = annulus_extension_test(xi, eta, delta).residual
        rev = annulus_extension_test(eta, xi, delta).residual
        assert rev == pytest.approx(fwd, rel=1e-13, abs=1e-300)


class TestContinuityAtZero:
    @given(seeds, st.integers(min_value=0, max_value=32), st.integers(min_value=1, max_value=2),
           st.booleans())
    @settings(deadline=None)
    def test_defect_at_tiny_z_equals_defect_at_zero(self, seed, n_max, m, disk_pair):
        rng = np.random.default_rng(seed)
        if disk_pair:  # a member at z = 0: both loops extend and constants agree
            b = node_chart(NodeChart(0j, plus_loop(rng, m, n_max), plus_loop(rng, m, n_max),
                                     disc(rng, (m,))))
            xi, eta = b.xi, b.eta
        else:
            xi, eta = random_loop(rng, m, n_max), random_loop(rng, m, n_max)
        tiny = 1e-300 * np.exp(2j * np.pi * rng.uniform())
        for d_tiny, d_zero in zip(membership_defect(NodeBoundary(tiny, xi, eta)),
                                  membership_defect(NodeBoundary(0j, xi, eta))):
            np.testing.assert_allclose(d_tiny.coeffs, d_zero.coeffs, rtol=0, atol=1e-299)
        at_tiny = node_membership(NodeBoundary(tiny, xi, eta))
        at_zero = node_membership(NodeBoundary(0j, xi, eta))
        assert at_tiny.member == at_zero.member == disk_pair
        assert at_tiny.residual == pytest.approx(at_zero.residual, rel=1e-15, abs=1e-299)


class TestChartRoundtrip:
    @given(seeds, st.integers(min_value=0, max_value=64), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.0, max_value=0.95))
    @settings(deadline=None)
    def test_inverse_of_chart_is_exact(self, seed, n_max, m, z_abs):
        rng = np.random.default_rng(seed)
        z = z_abs * np.exp(2j * np.pi * rng.uniform())
        chart = NodeChart(z, plus_loop(rng, m, n_max), plus_loop(rng, m, n_max), disc(rng, (m,)))
        boundary = node_chart(chart)
        assert node_membership(boundary).residual == 0.0
        back = node_chart_inverse(boundary)
        assert back.z == chart.z
        np.testing.assert_array_equal(back.xi_plus.coeffs, chart.xi_plus.coeffs)
        np.testing.assert_array_equal(back.eta_plus.coeffs, chart.eta_plus.coeffs)
        np.testing.assert_array_equal(back.lam, chart.lam)
        again = node_chart(back)
        np.testing.assert_array_equal(again.xi.coeffs, boundary.xi.coeffs)
        np.testing.assert_array_equal(again.eta.coeffs, boundary.eta.coeffs)


def stack_of(rng, rows, m, n_max, live):
    """``rows`` coefficient arrays of order ``n_max``; row t carries modes
    -top..top for a random top <= ``live``, so the top modes of a row, or of
    the whole stack, may vanish."""
    out = np.zeros((rows, 2 * n_max + 1, m), dtype=complex)
    for t in range(rows):
        top = int(rng.integers(0, live + 1))
        out[t, n_max - top:n_max + top + 1] = disc(rng, (2 * top + 1, m))
    return out


class TestStackedKernelsMatchPublicFunctions:
    """Each row of a stacked kernel equals the public function on that row
    alone, bit for bit (signed zeros compare equal)."""

    @given(seeds, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40),
           st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_rows_bitwise(self, seed, n_max, m, rows, live, huge_row):
        rng = np.random.default_rng(seed)
        live = min(live, n_max)
        xi, eta = stack_of(rng, rows, m, n_max, live), stack_of(rng, rows, m, n_max, live)
        if huge_row:  # past 1e154, where |c|^2 overflows and the norm rescales
            xi[-1] *= 1e200
        xi_plus, eta_plus = np.array(xi), np.array(eta)
        xi_plus[:, :n_max + 1] = 0.0
        eta_plus[:, :n_max + 1] = 0.0
        lam = disc(rng, (rows, m))
        z = disc(rng, rows, radius=0.95)
        z[0] = 0.0
        z_closed = np.array(z)  # the transfer is defined on the closed disk
        z_closed[-1] = np.exp(2j * np.pi * rng.uniform())

        table = _power_table(z_closed, xi_plus)
        moved = _transfer(table, xi_plus)
        table = _power_table(z, xi_plus, eta_plus)
        chart_xi, chart_eta = _chart(table, xi_plus, eta_plus, lam)
        table = _power_table(z, xi, eta)
        dxi, deta = _defect(table, xi, eta)
        residuals = _membership_residuals(table, xi, eta, 1.5)[0]
        norms = _sobolev_norms(xi, 1.5)
        for t in range(rows):
            plus = Loop(m, n_max, xi_plus[t])
            np.testing.assert_array_equal(moved[t], transfer_Tz(z_closed[t], plus).coeffs[:n_max])
            b = node_chart(NodeChart(z[t], plus, Loop(m, n_max, eta_plus[t]), lam[t]))
            np.testing.assert_array_equal(chart_xi[t], b.xi.coeffs)
            np.testing.assert_array_equal(chart_eta[t], b.eta.coeffs)
            pair = NodeBoundary(z[t], Loop(m, n_max, xi[t]), Loop(m, n_max, eta[t]))
            d_xi, d_eta = membership_defect(pair)
            np.testing.assert_array_equal(dxi[t], d_xi.coeffs)
            np.testing.assert_array_equal(deta[t], d_eta.coeffs)
            assert residuals[t] == node_membership(pair).residual
            assert norms[t] == sobolev_norm(pair.xi, 1.5)

    def test_one_non_member_row_trips_the_inverse_gate(self):
        rng = np.random.default_rng(11)
        n_max, m, rows = 16, 2, 5
        xi_plus, eta_plus = stack_of(rng, rows, m, n_max, n_max), stack_of(rng, rows, m, n_max, n_max)
        xi_plus[:, :n_max + 1] = 0.0
        eta_plus[:, :n_max + 1] = 0.0
        z = disc(rng, rows, radius=0.9)
        table = _power_table(z, xi_plus, eta_plus)
        xi, eta = _chart(table, xi_plus, eta_plus, disc(rng, (rows, m)))
        xi[3, n_max - 2] += 1e-6  # row 3 leaves the node: residual ~1e-7 > 1e-8
        residuals = _membership_residuals(table, xi, eta, 1.5)[0]
        assert np.all(np.delete(residuals, 3) <= 1e-12) and residuals[3] > 1e-8
        with pytest.raises(ValueError, match="not a node member") as stacked:
            _chart_inverse(xi, eta, residuals, 1e-8)
        with pytest.raises(ValueError) as scalar:
            node_chart_inverse(NodeBoundary(z[3], Loop(m, n_max, xi[3]), Loop(m, n_max, eta[3])), tol=1e-8)
        assert str(stacked.value) == str(scalar.value)


angles = st.floats(min_value=0.0, max_value=2 * np.pi)
# gluing parameters on the closed disc: its interior, its edge, moduli down
# to the subnormals, and zero parts of either sign, zero itself included
disc_points = st.one_of(
    st.builds(lambda r, t: r * np.exp(1j * t), st.floats(min_value=0.0, max_value=1.0), angles),
    st.builds(lambda t: np.exp(1j * t), angles),
    st.builds(lambda e, t: 10.0**e * np.exp(1j * t), st.floats(min_value=-320.0, max_value=0.0), angles),
    st.builds(lambda x, zero, swap: complex(zero, x) if swap else complex(x, zero),
              st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([0.0, -0.0]), st.booleans()),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1 + 0j, 1j, -1j,
                     5e-324 + 0j, complex(-0.0, 5e-324), complex(2.5e-310, -2.5e-310), 1e-300 + 0j,
                     complex(-1e-300, 1e-300), complex(1 - 1e-16, 0.0)]),
)


class TestPowerTableBits:
    """`_power_table` takes exp-log from n = 100 up; each entry must still
    have the bits of numpy's own ``z ** n``, signed zeros included."""

    @given(st.lists(disc_points, min_size=1, max_size=5), st.sampled_from([1, 3, 99, 100, 101, 512, 1025]))
    @example(points=[0j, 0.5 + 0.5j], width=100)  # the cut, and a zero row past it
    @example(points=[complex(-0.0, -0.0), 0.9j, 1e-300 + 0j], width=1025)
    @settings(deadline=None, max_examples=200)
    def test_equals_numpy_power(self, points, width):
        z = np.array(points, dtype=complex)
        live = np.zeros((len(z), 2 * width + 1, 1), dtype=complex)
        live[:, -1] = 1.0  # mode K is live, so the table has width K
        got = _power_table(z, live).view(float)
        want = (z[:, None] ** np.arange(width, 0, -1)).view(float)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
