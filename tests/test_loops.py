import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import loop_to_json
from hardyglue.jsonio import loop_from_json
from hardyglue.loops import (
    Loop,
    _samples,
    default_grid_size,
    hardy_project,
    _sobolev_norms,
    sobolev_norm,
)


def scalar(entries, n_max=8):
    return Loop.from_modes(1, n_max, {n: [v] for n, v in entries.items()})


class TestSobolevNorm:
    def test_constant_mode_only(self):
        assert sobolev_norm(scalar({0: 1.0}), 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_first_mode(self):
        assert sobolev_norm(scalar({1: 1.0}), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_weighted_second_mode(self):
        # direct evaluation: sqrt((1+2)^(2*0.5) * 9) = 3*sqrt(3)
        expected = 3.0 * np.sqrt(3.0)
        assert sobolev_norm(scalar({2: 3.0}), 0.5) == pytest.approx(expected, rel=1e-14)

    def test_squares_past_float_range(self):
        # |c|^2 overflows for |c| = 1e200; the norm itself does not
        unit = scalar({0: 1.0, 2: 1.0 - 1.0j})
        huge = unit.with_coeffs(1e200 * unit.coeffs)
        assert sobolev_norm(huge, 1.5) == pytest.approx(1e200 * sobolev_norm(unit, 1.5), rel=1e-14)

    def test_squares_below_float_range(self):
        # |c|^2 underflows to 0 for |c| = 1e-170; the norm itself does not
        tiny = Loop.from_modes(1, 2, {1: [1e-170]})
        assert sobolev_norm(tiny, 1.5) == pytest.approx(2.0**1.5 * 1e-170, rel=1e-15, abs=0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-900, max_value=900))
    @example(0, -540)
    @example(0, 520)
    @settings(deadline=None)
    def test_power_of_two_scale_is_exact(self, seed, k):
        # a power of two times a stack gives the same power times its norms,
        # bit for bit, wherever those norms are normal floats
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((1, 21, 2)) + 1j * rng.standard_normal((1, 21, 2))
        want = np.ldexp(_sobolev_norms(stack, 1.5), k)
        assume(np.finfo(float).tiny <= want[0] < np.inf)
        np.testing.assert_array_equal(_sobolev_norms(stack * 2.0**k, 1.5), want)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(scalar({0: 1.0}), -0.5)

    def test_zero_iff_zero(self):
        assert sobolev_norm(Loop.zeros(3, 5), 1.5) == 0.0

    @given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
    @settings(deadline=None)
    def test_homogeneity(self, c):
        rng = np.random.default_rng(3)
        base = Loop(2, 6, rng.standard_normal((13, 2)) + 1j * rng.standard_normal((13, 2)))
        scaled = base.with_coeffs(c * base.coeffs)
        lhs = sobolev_norm(scaled, 1.5)
        rhs = abs(c) * sobolev_norm(base, 1.5)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0),
           st.integers(min_value=0, max_value=20))
    @settings(deadline=None)
    def test_monotone_in_s(self, s1, s2, seed):
        rng = np.random.default_rng(seed)
        loop = Loop(1, 8, rng.standard_normal((17, 1)) + 1j * rng.standard_normal((17, 1)))
        lo, hi = sorted((s1, s2))
        assert sobolev_norm(loop, lo) <= sobolev_norm(loop, hi) * (1 + 1e-12)


def _layouts(stack):
    """The stack C-ordered, column-major, and as its first row broadcast to
    the stack's shape."""
    return {"C": stack, "F": np.asfortranarray(stack), "broadcast": np.broadcast_to(stack[:1], stack.shape)}


class TestRowBits:
    """A stacked row norm has the bits of its row alone: `_norm_pairs` and
    `_l2_rows` against `row_dots`, one ``np.dot`` per row."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n_max", [8, 64, 512])
    @pytest.mark.parametrize("trials", [1, 3, 100])
    def test_stacks_match_the_per_row_dots(self, row_dots, trials, n_max, m):
        from hardyglue.loops import _l2_rows, _norm_pairs
        sobolev, l2 = row_dots
        rng = np.random.default_rng(trials * n_max + m)
        stack = rng.standard_normal((trials, 2 * n_max + 1, m)) + 1j * rng.standard_normal((trials, 2 * n_max + 1, m))
        stack *= np.exp(rng.uniform(-20, 20, (trials, 1, 1)))
        for layout, rows in _layouts(stack).items():
            for s in (0.0, 1.0, 1.5):
                got, want = _norm_pairs(rows, s), sobolev(rows, s)
                assert got[1] is None and want[1] is None, layout
                assert np.array_equal(got[0], want[0]), (layout, s)
            assert np.array_equal(_l2_rows(rows), l2(rows)), layout

    @pytest.mark.parametrize("m", [1, 2])
    def test_rows_taken_again_at_scale_match(self, row_dots, m):
        # rows near 1e300 overflow the squares and rows near 1e-300 fall
        # below _SMALL, so _at_scale takes each of them again
        from hardyglue.loops import _l2_rows, _norm_pairs
        sobolev, l2 = row_dots
        rng = np.random.default_rng(m)
        stack = rng.uniform(-1, 1, (6, 2 * 64 + 1, m)) + 1j * rng.uniform(-1, 1, (6, 2 * 64 + 1, m))
        stack *= np.array([1.0, 1e300, 1e-300, 1.7e308, 1e-320, 0.0])[:, None, None]
        for layout, rows in _layouts(stack).items():
            got, want = _norm_pairs(rows, 1.0), sobolev(rows, 1.0)
            assert np.array_equal(got[0], want[0]), layout
            assert np.array_equal(got[1], want[1]), layout  # None where no row was taken again
            with np.errstate(over="ignore"):
                assert np.array_equal(_l2_rows(rows), l2(rows)), layout
        taken = _norm_pairs(stack, 1.0)[1]
        assert taken[0] == 0 and (taken[1:] != 0).all()  # the zero row too, at exponent -2**20


class TestModePowerBits:
    """`_mode_power` adds its columns one by one below 8 terms; it must have
    the bits and the strides of ``np.sum(np.abs(c) ** 2, axis=-1)``."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_equals_numpy_sum(self, m):
        from hardyglue.loops import _mode_power
        rng = np.random.default_rng(m)
        stack = rng.standard_normal((5, 2 * 16 + 1, m)) + 1j * rng.standard_normal((5, 2 * 16 + 1, m))
        stack *= np.exp(rng.uniform(-5, 5, stack.shape))
        # rows near 1e300, whose squares are inf, and near 1e-300, whose squares underflow
        stack *= np.array([1.0, 1e300, 1e-300, 1e-160, 1e150])[:, None, None]
        for layout, rows in _layouts(stack).items():
            with np.errstate(over="ignore"):
                got, want = _mode_power(rows), np.sum(np.abs(rows) ** 2, axis=-1)
            assert got.tobytes() == want.tobytes(), layout
            assert got.strides == want.strides, layout
            assert layout == "broadcast" or np.isinf(got[1]).all()


class TestHardyProjection:
    def setup_method(self):
        self.loop = scalar({-1: 1.0, 0: 2.0, 1: 3.0})

    def test_plus(self):
        plus = hardy_project(self.loop, "plus")
        assert plus.mode(1)[0] == 3.0
        assert plus.mode(0)[0] == 0.0
        assert plus.mode(-1)[0] == 0.0

    def test_minus(self):
        minus = hardy_project(self.loop, "minus")
        assert minus.mode(-1)[0] == 1.0
        assert minus.mode(0)[0] == 0.0

    def test_constant(self):
        assert hardy_project(self.loop, "constant")[0] == 2.0

    def test_bad_side(self):
        with pytest.raises(ValueError):
            hardy_project(self.loop, "middle")

    @given(st.integers(min_value=0, max_value=50))
    @settings(deadline=None)
    def test_idempotent_and_complete(self, seed):
        rng = np.random.default_rng(seed)
        loop = Loop(2, 7, rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2)))
        plus = hardy_project(loop, "plus")
        minus = hardy_project(loop, "minus")
        const = hardy_project(loop, "constant")
        again = hardy_project(plus, "plus")
        assert np.array_equal(again.coeffs, plus.coeffs)
        total = np.array(plus.coeffs + minus.coeffs)
        total[loop.n_max] += const
        assert np.array_equal(total, loop.coeffs)


def samples(loop: Loop) -> np.ndarray:
    """The loop's values on the `default_grid_size` grid, shape (P, m)."""
    return _samples(loop.coeffs[None], default_grid_size(loop.n_max))[0]


class TestSamplingRoundtrip:
    def test_fit_inverts_sampling(self):
        rng = np.random.default_rng(5)
        loop = Loop(2, 6, rng.standard_normal((13, 2)) + 1j * rng.standard_normal((13, 2)))
        P = default_grid_size(loop.n_max)
        refit = (np.fft.fft(samples(loop), axis=0) / P)[loop.modes % P]
        assert np.max(np.abs(refit - loop.coeffs)) < 1e-13


class TestLoopValidation:
    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            Loop(1, 2, np.zeros((4, 1), dtype=complex))

    def test_nan_rejected(self):
        bad = np.zeros((5, 1), dtype=complex)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            Loop(1, 2, bad)

    def test_immutability(self):
        loop = scalar({1: 1.0})
        with pytest.raises(ValueError):
            loop.coeffs[0] = 5.0

    def test_json_roundtrip(self):
        rng = np.random.default_rng(9)
        loop = Loop(3, 4, rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
        back = loop_from_json(loop_to_json(loop))
        assert back.m == loop.m and back.n_max == loop.n_max
        assert np.array_equal(back.coeffs, loop.coeffs)
