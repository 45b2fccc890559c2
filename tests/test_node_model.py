import numpy as np
import pytest
import sympy

from hardyglue.loops import Loop, sobolev_norm
from hardyglue.node_model import (
    NodeBoundary,
    NodeChart,
    NodePolynomial,
    boundary_traces,
    eval_plus,
    evaluate_H,
    membership_defect,
    node_chart,
    node_chart_inverse,
    node_membership,
    transfer_Tz,
)


def scalar(entries, n_max=8):
    return Loop.from_modes(1, n_max, {n: [v] for n, v in entries.items()})


def plus_loop(entries, n_max=8):
    assert all(n > 0 for n in entries)
    return scalar(entries, n_max)


def random_chart(rng, m=1, n_max=8, z_max=0.9):
    def disc(shape):
        return np.sqrt(rng.uniform(0, 1, shape)) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))

    coeffs_xi = np.zeros((2 * n_max + 1, m), dtype=complex)
    coeffs_xi[n_max + 1:] = disc((n_max, m))
    coeffs_eta = np.zeros((2 * n_max + 1, m), dtype=complex)
    coeffs_eta[n_max + 1:] = disc((n_max, m))
    return NodeChart(z_max * disc(()), Loop(m, n_max, coeffs_xi), Loop(m, n_max, coeffs_eta), disc((m,)))


def sympy_trace_oracle(expr, z_val, n_max):
    """Symbolic substitution oracle: restrict v(x, y) to the two boundary
    circles of the node fiber and read off Laurent coefficients."""
    x, y = sympy.symbols("x y")
    onesided = sympy.expand(expr.subs(y, z_val / x))
    other = sympy.expand(expr.subs(x, z_val / y))
    xi = {n: complex(onesided.coeff(x, n)) for n in range(-n_max, n_max + 1)}
    eta = {n: complex(other.coeff(y, n)) for n in range(-n_max, n_max + 1)}
    return xi, eta


class TestBoundaryTraces:
    def test_coordinate_function(self):
        poly = NodePolynomial(np.array([[1.0 + 0j]]), np.zeros((0, 1), complex), np.zeros(1, complex))
        b = boundary_traces(poly, 0.25, 8)
        assert b.xi.mode(1)[0] == 1.0
        assert b.eta.mode(-1)[0] == pytest.approx(0.25)
        assert np.count_nonzero(b.xi.coeffs) == 1 and np.count_nonzero(b.eta.coeffs) == 1

    def test_constant(self):
        poly = NodePolynomial(np.zeros((0, 1), complex), np.zeros((0, 1), complex),
                              np.array([2.0 - 1.0j]))
        b = boundary_traces(poly, 0.5j, 4)
        assert b.xi.mode(0)[0] == 2.0 - 1.0j
        assert b.eta.mode(0)[0] == 2.0 - 1.0j
        assert np.count_nonzero(b.xi.coeffs) == 1

    def test_against_symbolic_substitution(self):
        x, y = sympy.symbols("x y")
        xi_expect, eta_expect = sympy_trace_oracle(x**2 + y, sympy.Rational(1, 10), 8)
        poly = NodePolynomial(np.array([[0.0], [1.0]], dtype=complex),
                              np.array([[1.0]], dtype=complex), np.zeros(1, complex))
        b = boundary_traces(poly, 0.1, 8)
        for n in range(-8, 9):
            assert b.xi.mode(n)[0] == pytest.approx(xi_expect[n], abs=1e-15)
            assert b.eta.mode(n)[0] == pytest.approx(eta_expect[n], abs=1e-15)

    def test_degree_overflow_rejected(self):
        poly = NodePolynomial(np.ones((5, 1), dtype=complex), np.zeros((0, 1), complex),
                              np.zeros(1, complex))
        with pytest.raises(ValueError):
            boundary_traces(poly, 0.1, 4)

    def test_traces_are_members(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            deg = int(rng.integers(1, 8))
            poly = NodePolynomial(rng.standard_normal((deg, 2)) + 1j * rng.standard_normal((deg, 2)),
                                  rng.standard_normal((deg, 2)) + 1j * rng.standard_normal((deg, 2)),
                                  rng.standard_normal(2) + 1j * rng.standard_normal(2))
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            res = node_membership(boundary_traces(poly, z, 16))
            assert res.member and res.residual <= 1e-12


def disc_points(rng, shape):
    return 0.95 * np.sqrt(rng.uniform(0, 1, shape)) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNodePolynomial:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("deg_x, deg_y", [(8, 8), (3, 7), (8, 0), (0, 5), (0, 0)])
    def test_array_call_bitwise_equal_to_term_by_term(self, m, deg_x, deg_y, term_by_term):
        from hardyglue.node_model import h_grid

        rng = np.random.default_rng(10 * m + deg_x + 3 * deg_y)
        poly = NodePolynomial(disc_points(rng, (deg_x, m)), disc_points(rng, (deg_y, m)),
                              disc_points(rng, (m,)))
        xs, ys, _ = h_grid()
        rx, ry = disc_points(rng, (40,)), disc_points(rng, (40,))
        for px, py in ((xs, ys), (rx, ry)):
            got = poly(px, py)
            assert same_bits(got, np.array([term_by_term(poly, x, y) for x, y in zip(px, py)]))
            assert all(same_bits(poly(x, y), row) for x, y, row in zip(px, py, got))
            assert same_bits(poly(complex(px[3]), complex(py[3])), got[3])
        grid = poly(rx[:6, None], ry[None, :5])
        assert grid.shape == (6, 5, m)
        assert all(same_bits(grid[i, j], term_by_term(poly, rx[i], ry[j]))
                   for i in range(6) for j in range(5))
        assert same_bits(poly(rx, ry[0]), np.array([term_by_term(poly, x, ry[0]) for x in rx]))

    def test_oracle_independent_of_gluing_kernels(self, monkeypatch, term_by_term):
        from hardyglue import node_model

        def forbidden(*args, **kwargs):
            raise AssertionError("NodePolynomial.__call__ reached a gluing kernel")

        for name in ("_power_table", "_transfer", "_chart", "_eval_plus"):
            monkeypatch.setattr(node_model, name, forbidden)
        rng = np.random.default_rng(8)
        poly = NodePolynomial(disc_points(rng, (8, 2)), disc_points(rng, (6, 2)), disc_points(rng, (2,)))
        xs, ys, _ = node_model.h_grid()
        got = poly(xs, ys)
        assert same_bits(got, np.array([term_by_term(poly, x, y) for x, y in zip(xs, ys)]))

    def test_caller_arrays_stay_writeable(self):
        a, b, c = np.ones((2, 1), complex), np.ones((1, 1), complex), np.ones(1, complex)
        poly = NodePolynomial(a, b, c)
        for mine, theirs in ((a, poly.a), (b, poly.b), (c, poly.c)):
            assert mine.flags.writeable and not theirs.flags.writeable
            mine[...] = 5.0
            assert np.all(theirs == 1.0)

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_rejected(self, field, bad):
        data = {"a": np.zeros((1, 1), complex), "b": np.zeros((1, 1), complex), "c": np.zeros(1, complex)}
        data[field][0] = bad
        with pytest.raises(ValueError, match=rf"^{field}: coefficients must be finite"):
            NodePolynomial(**data)


class TestTransferOperator:
    def test_half(self):
        out = transfer_Tz(0.5, plus_loop({1: 1.0}))
        assert out.mode(-1)[0] == pytest.approx(0.5)
        assert np.count_nonzero(out.coeffs) == 1

    def test_zero_parameter(self):
        out = transfer_Tz(0.0, plus_loop({1: 1.0, 3: 2.0}))
        assert np.count_nonzero(out.coeffs) == 0

    def test_imaginary_parameter(self):
        # i^2 = -1
        out = transfer_Tz(1j, plus_loop({2: 1.0}))
        assert out.mode(-2)[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("z", [1.5, complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_rejects_a_parameter_off_the_closed_disk(self, z):
        # a NaN modulus is off the disk too: the test is not |z| <= 1
        with pytest.raises(ValueError, match=r"requires \|z\| <= 1"):
            transfer_Tz(z, plus_loop({1: 1.0}))
        with pytest.raises(ValueError, match=r"must satisfy \|z\| < 1"):
            NodeBoundary(z, scalar({1: 1.0}), scalar({-1: 1.0}))

    def test_rejects_nonpositive_support(self):
        with pytest.raises(ValueError):
            transfer_Tz(0.5, scalar({0: 1.0}))
        with pytest.raises(ValueError):
            transfer_Tz(0.5, scalar({-1: 1.0}))

    def test_contraction_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n_max = int(rng.integers(1, 12))
            coeffs = np.zeros((2 * n_max + 1, 1), dtype=complex)
            coeffs[n_max + 1:] = rng.standard_normal((n_max, 1)) + 1j * rng.standard_normal((n_max, 1))
            loop = Loop(1, n_max, coeffs)
            z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) * 0.999
            s = rng.uniform(0.0, 3.0)
            assert sobolev_norm(transfer_Tz(z, loop), s) <= abs(z) * sobolev_norm(loop, s) * (1 + 1e-14)


class TestMembership:
    def test_constant_at_zero(self):
        c = scalar({0: 1.5 - 0.5j})
        res = node_membership(NodeBoundary(0j, c, c))
        assert res.member and res.residual == 0.0

    def test_transfer_relation(self):
        b = NodeBoundary(0.25, scalar({1: 1.0}), scalar({-1: 0.25}))
        assert node_membership(b).member

    def test_negative_mode_at_zero_fails(self):
        res = node_membership(NodeBoundary(0j, scalar({-1: 1.0}), Loop.zeros(1, 8)))
        assert not res.member and res.residual > 0

    def test_residual_past_float_range(self):
        # |xi|_s overflows while the defect norm does not; the residual is
        # scale-free there, so it must match the same data scaled down
        # (a finite defect over an infinite scale would read as 0)
        xi = scalar({0: 1e308, 1: 1e308})
        res = node_membership(NodeBoundary(0.5, xi, Loop.zeros(1, 8)))
        small = node_membership(NodeBoundary(0.5, xi.with_coeffs(1e-296 * xi.coeffs), Loop.zeros(1, 8)))
        assert not res.member
        assert res.residual == pytest.approx(small.residual, rel=1e-9)

    def test_defect_past_float_range_named(self):
        # xi_{-1} - z eta_1 = 1.7e308 + 0.85e308 is past the float range;
        # node_membership tests the pair at scale
        b = NodeBoundary(0.5, Loop(1, 1, [[1.7e308], [0], [0]]), Loop(1, 1, [[0], [0], [-1.7e308]]))
        with pytest.raises(ValueError, match="past the float range.*node_membership"):
            membership_defect(b)
        assert not node_membership(b).member

    def test_perturbation_bracket_at_s0(self):
        # single-relation perturbations of size eps land within [0.1 eps, 10 eps]
        rng = np.random.default_rng(17)
        eps = 1e-3
        for _ in range(300):
            boundary = node_chart(random_chart(rng, m=1, n_max=32))
            n = int(rng.integers(0, 33))
            which = rng.uniform() < 0.5
            coeffs = np.array(boundary.xi.coeffs if which else boundary.eta.coeffs)
            coeffs[32 - n] += eps
            loops = (Loop(1, 32, coeffs), boundary.eta) if which else (boundary.xi, Loop(1, 32, coeffs))
            res = node_membership(NodeBoundary(boundary.z, *loops), tol=1e-10, s=0.0)
            assert not res.member
            assert 0.1 * eps <= res.residual <= 10 * eps


class TestChart:
    def test_affine_example(self):
        chart = NodeChart(0.4, plus_loop({1: 1.0}), Loop.zeros(1, 8), np.array([2.0 + 0j]))
        b = node_chart(chart)
        assert b.xi.mode(0)[0] == 2.0 and b.xi.mode(1)[0] == 1.0
        assert b.eta.mode(0)[0] == 2.0 and b.eta.mode(-1)[0] == pytest.approx(0.4)

    def test_constant_chart(self):
        chart = NodeChart(0j, Loop.zeros(1, 8), Loop.zeros(1, 8), np.array([3.0 + 1j]))
        b = node_chart(chart)
        assert b.xi.mode(0)[0] == 3.0 + 1j and b.eta.mode(0)[0] == 3.0 + 1j
        assert np.count_nonzero(b.xi.coeffs) == 1

    def test_quadratic_example(self):
        chart = NodeChart(0.3, plus_loop({2: 1.0}), plus_loop({1: 1.0}), np.zeros(1, complex))
        b = node_chart(chart)
        assert b.xi.mode(2)[0] == 1.0
        assert b.xi.mode(-1)[0] == pytest.approx(0.3)
        assert b.eta.mode(1)[0] == 1.0
        assert b.eta.mode(-2)[0] == pytest.approx(0.09)

    def test_output_is_member(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            res = node_membership(node_chart(random_chart(rng, m=2, n_max=16)))
            assert res.member and res.residual <= 1e-12


class TestChartInverse:
    def test_constant(self):
        c = scalar({0: 2.0})
        chart = node_chart_inverse(NodeBoundary(0j, c, c))
        assert chart.lam[0] == 2.0
        assert np.count_nonzero(chart.xi_plus.coeffs) == 0

    def test_affine_roundtrip(self):
        z = 0.35 - 0.1j
        chart = NodeChart(z, plus_loop({1: 1.0}), Loop.zeros(1, 8), np.array([2.0 + 0j]))
        back = node_chart_inverse(node_chart(chart))
        assert back.z == z
        assert back.lam[0] == pytest.approx(2.0)
        assert back.xi_plus.mode(1)[0] == pytest.approx(1.0)
        assert np.count_nonzero(back.eta_plus.coeffs) == 0

    def test_distinct_branches_at_zero(self):
        b = NodeBoundary(0j, scalar({1: 1.0}), scalar({1: 1.0}))
        chart = node_chart_inverse(b)
        assert chart.z == 0
        assert chart.xi_plus.mode(1)[0] == 1.0
        assert chart.eta_plus.mode(1)[0] == 1.0
        assert chart.lam[0] == 0.0

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="residual"):
            node_chart_inverse(NodeBoundary(0j, scalar({-2: 1.0}), Loop.zeros(1, 8)))

    def test_roundtrips_random(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            chart = random_chart(rng, m=2, n_max=12)
            boundary = node_chart(chart)
            back = node_chart_inverse(boundary)
            assert abs(back.z - chart.z) == 0
            assert np.max(np.abs(back.xi_plus.coeffs - chart.xi_plus.coeffs)) <= 1e-12
            assert np.max(np.abs(back.eta_plus.coeffs - chart.eta_plus.coeffs)) <= 1e-12
            assert np.max(np.abs(back.lam - chart.lam)) <= 1e-12
            again = node_chart(back)
            assert np.max(np.abs(again.xi.coeffs - boundary.xi.coeffs)) <= 1e-10


class TestEvaluateH:
    @staticmethod
    def constant_family(z, t):
        return NodeChart(z, plus_loop({1: 1.0}), plus_loop({2: 1.0}), np.array([1.0 + 0j]))

    def test_polynomial_family(self):
        for x, y in [(0.3, 0.2), (0.5j, -0.1), (0.0, 0.7), (-0.2 + 0.1j, 0.3 - 0.4j)]:
            got = evaluate_H(self.constant_family, x, y)
            assert got[0] == pytest.approx(x + y**2 + 1.0, rel=1e-14)

    def test_center_value_is_lambda(self):
        assert evaluate_H(self.constant_family, 0.0, 0.0)[0] == pytest.approx(1.0)

    def test_consistency_with_boundary_loop(self):
        # for y != 0 the glued value matches the xi-trace evaluated at x
        chart = NodeChart(0.06, plus_loop({1: 1.0}), plus_loop({2: 1.0}), np.array([1.0 + 0j]))
        b = node_chart(chart)
        x = 0.3 + 0.1j
        y = chart.z / x
        # the truncated Laurent sum of the trace, term by term
        trace_val = sum(b.xi.mode(n) * x ** n for n in range(-b.xi.n_max, b.xi.n_max + 1))
        glued = evaluate_H(lambda z, t: node_chart_inverse(node_chart(
            NodeChart(z, chart.xi_plus, chart.eta_plus, chart.lam))), x, y)
        assert glued[0] == pytest.approx(trace_val[0], rel=1e-10)

    def test_reproduces_laurent_data_on_grid(self, term_by_term):
        poly = NodePolynomial(np.array([[0.0], [1.0]], dtype=complex),
                              np.array([[1.0]], dtype=complex), np.zeros(1, complex))

        def family(z, t):
            return node_chart_inverse(boundary_traces(poly, z, 16))

        worst = 0.0
        for j in range(10):
            x = 0.85 * (j + 0.5) / 10 * np.exp(2j * np.pi * j / 10)
            for k in range(10):
                y = 0.85 * (k + 0.5) / 10 * np.exp(2j * np.pi * (k + 0.3) / 10)
                ref = term_by_term(poly, x, y)[0]
                worst = max(worst, abs(evaluate_H(family, x, y)[0] - ref) / (1.0 + abs(ref)))
        assert worst <= 1e-10

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            evaluate_H(self.constant_family, 1.5, 0.0)

    def test_undefined_family_rejected(self):
        def partial_family(z, t):
            if abs(z) < 0.01:
                raise ValueError("family undefined near the nodal fiber")
            return self.constant_family(z, t)

        with pytest.raises(ValueError, match="undefined"):
            evaluate_H(partial_family, 0.01, 0.01)

    def test_eval_plus_uses_positive_modes_only(self):
        loop = plus_loop({1: 2.0, 3: 1.0})
        assert eval_plus(loop, 0.5)[0] == pytest.approx(2.0 * 0.5 + 0.125)

    @pytest.mark.parametrize("m", [1, 2])
    def test_eval_plus_independent_of_truncation_order(self, m):
        # the same degree-8 series carried by loops of order 8 and 13 is one
        # value: the sum runs over its live modes, not over the loop's order
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = np.sqrt(rng.uniform(size=(8, m))) * np.exp(2j * np.pi * rng.uniform(size=(8, m)))
            x = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            short, long = (Loop.from_modes(m, n, dict(enumerate(rows, start=1))) for n in (8, 13))
            np.testing.assert_array_equal(eval_plus(short, x), eval_plus(long, x))


class TestDefectStructure:
    def test_defect_zero_for_members(self):
        rng = np.random.default_rng(8)
        chart = random_chart(rng, m=1, n_max=10)
        dxi, deta = membership_defect(node_chart(chart))
        assert np.max(np.abs(dxi.coeffs)) <= 1e-15
        assert np.max(np.abs(deta.coeffs)) <= 1e-15

    def test_invalid_gluing_parameter(self):
        with pytest.raises(ValueError):
            NodeBoundary(1.0, scalar({0: 1.0}), scalar({0: 1.0}))
        with pytest.raises(ValueError):
            NodeChart(1.2j, Loop.zeros(1, 4), Loop.zeros(1, 4), np.zeros(1))

    def test_chart_rejects_nonplus_support(self):
        with pytest.raises(ValueError):
            NodeChart(0.1, scalar({0: 1.0}), Loop.zeros(1, 8), np.zeros(1))
