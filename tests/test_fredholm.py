import importlib.util
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_differences, reference_triple
from hardyglue import fredholm
from hardyglue.fredholm import (
    RANK_TOL,
    GraphPairLocal,
    PolynomialMap,
    FiniteDimReduction,
    SubspaceTriple,
    index_stability_check,
    intersect_newton,
    orthonormal_range,
    polynomial_test_set,
    triple_index,
)
from hardyglue.moduli import hardy_triple_for_line_bundle


def eye_cols(n, cols):
    return np.eye(n, dtype=complex)[:, list(cols)]


def cap_and_outer_widths(t):
    """The widths of the cap and outer bases `_cap_and_outer` gives a triple."""
    return tuple(b.shape[1] for b in fredholm._cap_and_outer(t.basis_prime, t.basis_dprime))


def fd_graph(dims, f, **kwargs):
    """A `GraphPairLocal` of ``f`` with central-difference Jacobians."""
    return GraphPairLocal(dims, f, central_differences(dims, f), **kwargs)


def random_triple(rng, n, p, q):
    return SubspaceTriple(n, rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)),
                          rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q)))


def sympy_triple_oracle(basis_prime, basis_dprime, n):
    """Exact Gaussian-elimination oracle for (dim_cap, codim_sum, index)."""
    bp = sympy.Matrix(basis_prime)
    bq = sympy.Matrix(basis_dprime)
    stacked = bp.row_join(bq)
    rank = stacked.rank()
    dim_cap = bp.shape[1] + bq.shape[1] - rank
    codim = n - rank
    return dim_cap, codim, dim_cap - codim


class TestTripleIndex:
    def test_overlapping_planes(self):
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))
        assert triple_index(t) == (1, 0, 1)

    def test_full_spaces(self):
        e = np.eye(5, dtype=complex)
        assert triple_index(SubspaceTriple(5, e, e)) == (5, 0, 5)

    def test_transverse_deficient(self):
        bp, bq = eye_cols(4, [0, 1]), eye_cols(4, [2])
        assert sympy_triple_oracle(bp, bq, 4) == (0, 1, -1)
        assert triple_index(SubspaceTriple(4, bp, bq)) == (0, 1, -1)

    def test_rank_deficient_basis_rejected(self):
        bad = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            SubspaceTriple(3, bad, eye_cols(3, [0]))

    def test_euler_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            t = random_triple(rng, n, p, q)
            assert triple_index(t).index == p + q - n

    def test_matches_exact_oracle_on_integer_bases(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            bp = rng.integers(-3, 4, (n, p)).astype(complex)
            bq = rng.integers(-3, 4, (n, q)).astype(complex)
            try:
                t = SubspaceTriple(n, bp, bq)
            except ValueError:
                continue
            assert tuple(triple_index(t)) == sympy_triple_oracle(bp, bq, n)

    @pytest.mark.parametrize("p, q, mixed", [(2, 1, False), (0, 3, False), (0, 0, False), (2, 1, True)],
                             ids=["2-1", "0-3", "0-0", "2-1-mixed"])
    def test_spectra_are_the_three_svds(self, p, q, mixed):
        # a mixed triple: B' has one nonzero entry a column and takes its
        # spectrum in closed form, B'' is dense, so [B' | B''] keeps LAPACK's
        # bytes
        rng = np.random.default_rng(4)
        t = random_triple(rng, 4, p, q)
        if mixed:
            t = SubspaceTriple(4, [[2j, 0], [0, 0], [0, -3.5], [0, 0]], t.basis_dprime)
        svd = [np.linalg.svd(b, compute_uv=False)
               for b in (np.hstack([t.basis_prime, t.basis_dprime]), t.basis_prime, t.basis_dprime)]
        lapack = [0, 2] if mixed else [0, 1, 2]
        assert [t.spectra[i].tobytes() for i in lapack] == [svd[i].tobytes() for i in lapack]
        if mixed:
            assert t.spectra[1].tolist() == [3.5, 2.0]
            assert np.max(np.abs(t.spectra[1] - svd[1])) <= 8 * np.finfo(float).eps * svd[1][0]
        assert all(s.dtype == np.float64 and not s.flags.writeable for s in t.spectra)
        with pytest.raises(ValueError, match="read-only"):
            t.spectra[0][:] = 0.0


class TestIndexStability:
    def test_generic_triple_stable(self):
        rng = np.random.default_rng(2)
        result = index_stability_check(random_triple(rng, 8, 3, 3), 1e-6, trials=50)
        assert bool(result) and result.verdict == "stable"
        assert result.min_gap > 1e-5

    def test_plane_example_stable(self):
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))
        assert index_stability_check(t, 1e-6, trials=50)

    def test_tuned_degenerate_inconclusive(self):
        # nearly dependent columns: stacked matrix has a singular gap ~1e-7
        bp = eye_cols(4, [0, 1])
        bq = np.array(eye_cols(4, [2, 1]))
        bq[3, 1] = 1e-7
        result = index_stability_check(SubspaceTriple(4, bp, bq), 1e-6, trials=20)
        assert result.verdict == "inconclusive" and result.trials == 0
        assert not bool(result)
        assert result.min_gap < 1e-6

    def test_inconclusive_draws_no_trial(self, monkeypatch):
        # the verdict rests on the gap alone, so no perturbed triple is built
        import hardyglue.fredholm as fredholm
        bq = np.array(eye_cols(4, [2, 1]))
        bq[3, 1] = 1e-7
        t = SubspaceTriple(4, eye_cols(4, [0, 1]), bq)
        built = []
        monkeypatch.setattr(fredholm, "triple_index", lambda *a: built.append(a))
        monkeypatch.setattr(fredholm.np.random, "default_rng", lambda *a: built.append(a))
        assert index_stability_check(t, 1e-6, trials=20).verdict == "inconclusive"
        assert built == []

    def test_trials_count_the_perturbations_drawn(self):
        # the plane example is certified and draws none; B' = [e0, e0 +
        # 1e-6 e1] has a relative singular value about 5e-7, which a move of
        # eps |B'|_F = 2e-6 could undercut, so the trials run, while the gap
        # of [B' | B''] (rank 3, no s_3) clears the gate
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))
        assert index_stability_check(t, 1e-6, trials=7).trials == 0
        bp = np.array([[1, 1], [0, 1e-6], [0, 0]], dtype=complex)
        result = index_stability_check(SubspaceTriple(3, bp, eye_cols(3, [1, 2])), 1e-6, trials=7)
        assert (result.verdict, result.trials, result.margin) == ("stable", 7, 0.0)
        # [B' | B''] has the relative singular value 1.025e-9 just above the
        # rank tolerance 1e-9 and a gap ten times eps; with seed 3 the
        # fourth perturbation drops it below, so the index changes there
        bq = eye_cols(3, [0]) + 2.05e-9 * eye_cols(3, [1])
        result = index_stability_check(SubspaceTriple(3, eye_cols(3, [0]), bq), 1e-10, trials=9, seed=3)
        assert (result.verdict, result.trials) == ("changed", 4)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-6])
    def test_eps_nan_or_negative_rejected(self, eps):
        # LinAlgError subclasses ValueError: an SVD failing on nan entries
        # is not the rejection
        t = SubspaceTriple(3, eye_cols(3, [0]), eye_cols(3, [1]))
        with pytest.raises(ValueError, match="eps") as err:
            index_stability_check(t, eps)
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_gap_read_at_the_index_rank(self):
        # [e0, e1 | e1] has singular values (sqrt 2, 1, 0): rank 2, so the
        # gap is (1 - 0) / sqrt 2; with no columns at all it is 1
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1]))
        result = index_stability_check(t, 1e-6, trials=5)
        assert result.min_gap == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert index_stability_check(SubspaceTriple(3, np.zeros((3, 0)), np.zeros((3, 0))),
                                     1e-6, trials=5).min_gap == 1.0


class TestStabilityCertificate:
    # eps_weyl is the largest eps the certificate of `index_stability_check`
    # accepts, in closed form from diagonal singular values
    @pytest.mark.parametrize("bp, bq, eps_weyl", [
        # B' = diag(1, 1e-6) against B'' = e1: the side's s_1 must stay above
        # RANK_TOL (s_0 + d') after a move d' = eps |B'|_F
        (np.diag([1.0, 1e-6]), eye_cols(2, [1]), (1e-6 - RANK_TOL) / ((1 + RANK_TOL) * np.hypot(1.0, 1e-6))),
        # B' = B'' = e0: [B' | B''] has s = (sqrt 2, 0), and s_1 + d must stay
        # at or below RANK_TOL (s_0 - d) for d = eps sqrt 2
        (eye_cols(2, [0]), eye_cols(2, [0]), RANK_TOL / (1 + RANK_TOL)),
    ], ids=["side s_1", "stacked s_r"])
    def test_tight_at_the_weyl_bound(self, bp, bq, eps_weyl):
        t = SubspaceTriple(2, bp, bq)
        inside = index_stability_check(t, eps_weyl * (1 - 1e-4), trials=5)
        assert (inside.verdict, inside.trials) == ("stable", 0) and 0 < inside.margin < 1
        outside = index_stability_check(t, eps_weyl * (1 + 1e-4), trials=5)
        assert outside.trials > 0 and outside.margin == 0.0

    def test_certified_verdict_takes_no_svd_and_draws_nothing(self, monkeypatch):
        # the certificate reads the spectra the triple took when it was built
        import hardyglue.fredholm as fredholm
        t = random_triple(np.random.default_rng(8), 8, 3, 3)
        called = []
        monkeypatch.setattr(fredholm.np.linalg, "svd", lambda *a, **k: called.append("svd"))
        monkeypatch.setattr(fredholm.np.random, "default_rng", lambda *a: called.append("rng"))
        result = index_stability_check(t, 1e-6)
        assert (result.verdict, result.trials) == ("stable", 0) and result.margin > 0
        assert called == []

    def test_triple_without_columns_certified(self):
        result = index_stability_check(SubspaceTriple(3, np.zeros((3, 0)), np.zeros((3, 0))), 1e-6)
        assert (result.verdict, result.trials, result.margin) == ("stable", 0, 1 / RANK_TOL)


class TestBasisInput:
    def test_caller_basis_stays_writeable(self):
        b = np.array(eye_cols(3, [0, 1]))
        t = SubspaceTriple(3, b, b)
        assert b.flags.writeable
        assert not t.basis_prime.flags.writeable and not t.basis_dprime.flags.writeable
        b[0, 0] = 2.0
        assert t.basis_prime[0, 0] == 1.0 and t.basis_dprime[0, 0] == 1.0

    @pytest.mark.parametrize("side", ["basis_prime", "basis_dprime"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, side, bad):
        bases = {"basis_prime": np.array([[1.0], [0.0]]), "basis_dprime": np.array([[0.0], [1.0]])}
        bases[side][0, 0] = bad
        with pytest.raises(ValueError, match=rf"^{side}: entries must be finite"):
            SubspaceTriple(2, **bases)

    @pytest.mark.parametrize("n, bp, bq, side", [
        (1, 1.0, np.zeros((1, 0)), "basis_prime"),
        (3, np.ones((3, 2, 2)), np.eye(3), "basis_prime"),
        (3, np.eye(3), np.ones((3, 2, 2)), "basis_dprime"),
    ], ids=["0-D", "3-D prime", "3-D dprime"])
    def test_basis_must_be_1d_or_2d(self, n, bp, bq, side):
        with pytest.raises(ValueError, match=rf"^{side}: expected a 1-D or 2-D array, got \d-D"):
            SubspaceTriple(n, bp, bq)

    @pytest.mark.parametrize("bp, bq, message", [
        (np.zeros((0, 3)), np.eye(2), "basis_prime: expected 2 rows, got shape (0, 3)"),
        (np.zeros((5, 0)), np.eye(2), "basis_prime: expected 2 rows, got shape (5, 0)"),
        (np.eye(2), np.zeros(0), None),
        (np.eye(2), np.zeros((1, 0), complex), "basis_dprime: expected 2 rows, got shape (1, 0)"),
        ([], [[], []], None),
    ], ids=["0 x 3", "5 x 0", "flat empty", "1 x 0", "empty lists"])
    def test_an_empty_array_keeps_its_row_count(self, bp, bq, message):
        # an empty list, (0,) or (0, 0), is the N x 0 basis; every other
        # empty array keeps its row count
        if message is None:
            t = SubspaceTriple(2, bp, bq)
            assert (t.basis_prime.shape[0], t.basis_dprime.shape, triple_index(t)) == (2, (2, 0), (0, 2 - t.p, t.p - 2))
            return
        with pytest.raises(ValueError) as alone:
            SubspaceTriple(2, bp, bq)
        assert str(alone.value) == message

    @pytest.mark.parametrize("bad, message", [
        ([[None], [0]], r"^basis_prime: entries must be finite \(no NaN/Inf\)$"),
        ([["a"], [0]], r"^complex\(\) arg is a malformed string$"),
        ([[1, 0], [0]], r"^setting an array element with a sequence"),
    ], ids=["None", "string", "ragged"])
    def test_unconvertible_entries_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SubspaceTriple(2, bad, [[0], [1]])


def phase_twin(t, rng):
    """A triple spanning the subspaces of ``t``: each basis times
    ``diag(exp(1j theta_j))`` with phases drawn from ``rng``."""
    return SubspaceTriple(t.ambient_dim, *(b * np.exp(1j * rng.uniform(0.0, 2 * np.pi, b.shape[1]))
                                           for b in (t.basis_prime, t.basis_dprime)))


REAL_TRIPLES = ([(f"line bundle d={d}", lambda d=d: hardy_triple_for_line_bundle(2 * d, 64))
                 for d in range(11)]
                + [(f"sphere m={m}", lambda m=m: hardy_triple_for_line_bundle(0, 32, m)) for m in (1, 2, 3)])


class TestRealBases:
    # a basis given as a float64 array is stored real; a complex twin with
    # unitary column phases spans the same subspaces, so every decision
    # must match it
    @pytest.mark.parametrize("build", [b for _, b in REAL_TRIPLES], ids=[n for n, _ in REAL_TRIPLES])
    def test_real_triple_decides_as_its_complex_twin(self, build):
        t = build()
        twin = phase_twin(t, np.random.default_rng(23))
        assert {t.basis_prime.dtype, t.basis_dprime.dtype} == {np.dtype(np.float64)}
        assert {twin.basis_prime.dtype, twin.basis_dprime.dtype} == {np.dtype(np.complex128)}
        assert triple_index(t) == triple_index(twin)
        for s, s_twin in zip(t.spectra, twin.spectra):
            assert s.shape == s_twin.shape
            assert np.max(np.abs(s - s_twin), initial=0.0) <= 1e-13 * s[0]
        assert (index_stability_check(t, 1e-6).verdict
                == index_stability_check(twin, 1e-6).verdict)
        assert cap_and_outer_widths(t) == cap_and_outer_widths(twin)

    @pytest.mark.parametrize("basis, dtype", [
        (np.array([[1.0], [0.0]]), np.float64),
        (np.array([[1], [0]]), np.complex128),
        (np.array([[1 + 0j], [0j]]), np.complex128),
        (np.array([[complex(1.0, -0.0)], [complex(0.0, -0.0)]]), np.complex128),
        ([[1 + 0j], [2]], np.complex128),
        (np.array([[1.0], [1e-300j]]), np.complex128),
        ([[1], [-1j]], np.complex128),
    ], ids=["float", "int", "zero imag", "-0.0 imag", "list", "tiny imag", "list imag"])
    def test_dtype_follows_the_imaginary_parts(self, basis, dtype):
        # the dtype follows the input, not its imaginary parts: a float64
        # array stays float64, and anything else is complex128
        t = SubspaceTriple(2, basis, np.zeros((2, 0)))
        assert t.basis_prime.dtype == dtype and t.basis_prime.flags.c_contiguous
        np.testing.assert_array_equal(t.basis_prime, np.array(basis, dtype=complex))

    def test_svd_dtypes(self, monkeypatch):
        # the Hardy triples of `verify index` are spans of 0/1 mode columns
        # and take their spectra in closed form, no SVD at all; the random
        # triples of `verify fredholm` take complex ones
        from hardyglue import cli
        svd = fredholm.np.linalg.svd
        seen = []

        def recording(a, *args, **kwargs):
            seen.append((a.dtype, a.size))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(fredholm.np.linalg, "svd", recording)
        for build in (b for _, b in REAL_TRIPLES):
            build()
        assert cli.main(["verify", "index"]) == 0
        assert seen == []
        assert cli.main(["verify", "fredholm"]) == 0
        assert {dtype for dtype, size in seen if size} == {np.dtype(np.complex128)}


@st.composite
def coordinate_bases(draw, spread=1200):
    """``(N, B', B'')``, two N x k bases whose columns have at most one
    nonzero entry each: per column a row drawn with repeats, or a zero
    column, and an entry (real, or complex for the whole basis) of size
    about 2^e, e in [-600, 600] and within ``spread`` of the basis's
    smallest; N = 1 gives the 1 x k bases."""
    n = draw(st.integers(1, 6))
    mantissa = st.floats(-2.0, 2.0)
    bases = []
    for _ in range(2):
        cplx = draw(st.booleans())
        lo = draw(st.integers(-600, 600))
        columns = draw(st.lists(st.one_of(st.none(), st.tuples(
            st.integers(0, n - 1), mantissa, mantissa, st.integers(lo, min(lo + spread, 600)))), max_size=n + 2))
        b = np.zeros((n, len(columns)), complex if cplx else float)
        for j, entry in enumerate(columns):
            if entry is not None:
                row, re, im, e = entry
                b[row, j] = math.ldexp(re, e) + (1j * math.ldexp(im, e) if cplx else 0.0)
        bases.append(b)
    return n, *bases


def lapack_rank(s):
    return int(np.count_nonzero(s > RANK_TOL * s[:1]))


class TestCoordinateSpectra:
    # a basis whose columns have at most one nonzero entry each takes its
    # spectrum in closed form, the sorted row norms; LAPACK is the oracle
    @settings(max_examples=200, deadline=None)
    @given(coordinate_bases())
    def test_closed_form_matches_lapack(self, drawn):
        # `_spectra` takes the three, [B' | B''] a coordinate basis too, in
        # closed form, without an SVD
        n, bp, bq = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("an SVD was taken"))
            got = [[c[0] for c in fredholm._spectra([b])] for b in (np.hstack([bp, bq]), bp, bq)]
        for (_, finite, rows, s, _), b in zip(got, (np.hstack([bp, bq]), bp, bq)):
            want = np.linalg.svd(b, compute_uv=False)
            assert finite and rows is not None and not s.flags.writeable
            assert s.shape == want.shape and np.all(s[:-1] >= s[1:])
            assert np.max(np.abs(s - want), initial=0.0) <= 8 * np.finfo(float).eps * want[:1].max(initial=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(coordinate_bases(), coordinate_bases(spread=20)))
    def test_triple_decides_as_lapack(self, drawn):
        n, bp, bq = drawn
        for name, b in (("basis_prime", bp), ("basis_dprime", bq)):
            rank = lapack_rank(np.linalg.svd(b, compute_uv=False))
            if rank < b.shape[1]:
                with pytest.raises(ValueError, match=rf"^{name} is rank deficient: rank {rank} < {b.shape[1]} "
                                                     rf"columns at RANK_TOL {RANK_TOL:g}$"):
                    SubspaceTriple(n, bp, bq)
                return
        t = SubspaceTriple(n, bp, bq)
        assert all(s.dtype == np.float64 and not s.flags.writeable for s in t.spectra)
        rank = lapack_rank(np.linalg.svd(np.hstack([bp, bq]), compute_uv=False))
        assert triple_index(t) == (t.p + t.q - rank, n - rank, t.p + t.q - n)

    @pytest.mark.parametrize("basis", [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 0.0]]),
                                       np.array([[1j, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])],
                             ids=["more entries than columns", "beside a zero column", "complex"])
    def test_two_entries_in_a_column_take_lapack(self, basis):
        _, (finite,), (rows,), (s,), (rank,) = fredholm._spectra([basis])
        assert finite and rows is None and rank == lapack_rank(s)
        assert s.tobytes() == np.linalg.svd(basis, compute_uv=False).tobytes()


def mixed_triples(seed, count=150):
    """``(N, B', B'')`` over N from 1 to 11, each side dense real, dense
    complex, a coordinate basis, rank deficient (its last column a copy of
    its first) or 1-D, and p or q 0 for sides without columns.  Each triple
    comes with its twin, whose dense sides flip between real and complex, so
    that matrices of one shape and two dtypes share a batch.  Every 25th
    input is rejected before its spectra: N = 0, a NaN entry, a 3-D side or
    a side with too many rows."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(1, 12))
        sides, twins = [], []
        for k in (int(v) for v in rng.integers(0, n + 1, 2)):
            kind = int(rng.integers(5))
            b = rng.standard_normal((n, k))
            if kind == 1:
                b = b + 1j * rng.standard_normal((n, k))
            elif kind == 2:
                b = np.zeros((n, k))
                b[rng.integers(0, n, k), np.arange(k)] = rng.standard_normal(k)
            elif kind == 3 and k > 1:
                b[:, -1] = b[:, 0]
            elif kind == 4 and k:
                b = b[:, 0]
            sides.append(b)
            twins.append(b.real.copy() if np.iscomplexobj(b) else b if kind == 2 else b + 1j * rng.standard_normal(b.shape))
        if i % 25 == 24:
            bad = [(0, *sides), (n, np.full((n, 1), np.nan), sides[1]), (n, sides[0], np.ones((n, 1, 1))),
                   (n, np.ones((n + 1, 1)), sides[1])][i // 25 % 4]
            out.append(bad)
        out += [(n, *sides), (n, *twins)]
    return out


def with_imag(re, im):
    b = re.astype(complex)
    b.imag = im
    return b


def same_shape_triples(seed):
    """Triples in C^5 whose sides are 5 x 2 but for some 1-D ones: dense
    real, dense complex, complex with zero (or -0.0) imaginary parts,
    coordinate (real or complex), nested lists of Python numbers, NaN or
    inf entries, a rank-deficient side and a side of 6 rows, drawn into
    pairs and shuffled."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((5, 2))
    kinds = [
        lambda: rng.standard_normal((5, 2)),
        lambda: rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)),
        lambda: rng.standard_normal((5, 2)) + 0j,
        lambda: with_imag(rng.standard_normal((5, 2)), -0.0),
        lambda: np.eye(5)[:, rng.choice(5, 2, replace=False)] * rng.standard_normal(2),
        lambda: np.eye(5, dtype=complex)[:, rng.choice(5, 2, replace=False)] * (1 + 1j),
        lambda: (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))).tolist(),
        lambda: rng.standard_normal((5, 2)).tolist(),
        lambda: rng.standard_normal(5),
        lambda: np.where(rng.random((5, 2)) < 0.2, np.nan, dense),
        lambda: np.where(rng.random((5, 2)) < 0.5, np.inf, dense) + 0j,
        lambda: np.repeat(rng.standard_normal((5, 1)), 2, axis=1),
        lambda: rng.standard_normal((6, 2)),
    ]
    triples = [(5, kinds[i](), kinds[j]()) for i, j in rng.integers(0, len(kinds), (60, 2))]
    return [triples[i] for i in rng.permutation(len(triples))]


def assert_as_reference(triples, batch) -> list:
    """``batch``, the `subspace_triples` of ``triples``, against
    `reference_triple` one triple at a time: the same rejection texts and
    bases, LAPACK's spectra byte for byte, the closed-form ones within 8 ulps
    of ``s_0``, and the `triple_index` of the reference's spectra.  Returns
    the rejections' texts."""
    assert len(batch) == len(triples)
    rejected = []
    for (n, bp, bq), got in zip(triples, batch):
        want = reference_triple(n, bp, bq)
        if isinstance(want, str):
            assert type(got) is ValueError and str(got) == want
            rejected.append(want)
            continue
        bp_want, bq_want, spectra, coordinate = want
        assert type(got) is SubspaceTriple and got.ambient_dim == n
        for a, b in zip((got.basis_prime, got.basis_dprime), (bp_want, bq_want)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()) and not a.flags.writeable
        for s, want_s, closed in zip(got.spectra, spectra, coordinate):
            assert (s.dtype, s.shape, s.flags.writeable) == (np.float64, want_s.shape, False)
            if closed:
                assert np.max(np.abs(s - want_s), initial=0.0) <= 8 * np.finfo(float).eps * want_s[:1].max(initial=0.0)
            else:
                assert s.tobytes() == want_s.tobytes()
        rank = lapack_rank(spectra[0])
        assert triple_index(got) == (got.p + got.q - rank, n - rank, got.p + got.q - n)
    return rejected


DENSE = np.random.default_rng(33).standard_normal((5, 4))


class TestTripleBatch:
    # `subspace_triples` against `reference_triple`, and against
    # `SubspaceTriple` one triple at a time: the same bases, spectra and
    # rejections, bit for bit
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_one_at_a_time(self, seed, monkeypatch):
        triples = mixed_triples(seed)
        stacks = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: stacks.append((a.shape, a.dtype)) or svd(a, **kw))
        batch = fredholm.subspace_triples(iter(triples))
        monkeypatch.setattr(np.linalg, "svd", svd)
        rejected = assert_as_reference(triples, batch)
        lapack = 0
        for (n, bp, bq), got in zip(triples, batch):
            if type(got) is ValueError:
                continue
            want = SubspaceTriple(n, bp, bq)
            for a, b in zip((got.basis_prime, got.basis_dprime, *got.spectra),
                            (want.basis_prime, want.basis_dprime, *want.spectra)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            lapack += sum(not closed for closed in reference_triple(n, bp, bq)[3])
        # one stacked call per shape and dtype in each of the two rounds, the
        # sides and then the [B' | B''], which hold every spectrum without
        # closed form
        assert all(len(shape) == 3 for shape, _ in stacks)
        assert max(Counter((shape[1:], dtype) for shape, dtype in stacks).values()) == 2
        assert sum(shape[0] for shape, _ in stacks) >= lapack
        assert {dtype for _, dtype in stacks} == {np.dtype(np.float64), np.dtype(np.complex128)}
        assert any(shape[0] > 1 for shape, _ in stacks)
        assert {m.split(" ")[1] for m in rejected} >= {"dimension", "is", "entries", "expected"}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(coordinate_bases(), coordinate_bases(spread=20)), min_size=1, max_size=5))
    def test_coordinate_triples_as_reference(self, drawn):
        assert_as_reference(drawn, fredholm.subspace_triples(drawn))

    @pytest.mark.parametrize("bp, bq, fault", [
        (np.ones((5, 2)), DENSE[:, :3], "basis_prime is rank deficient"),
        (DENSE[:, :2], DENSE[:, [0, 1, 0]], "basis_dprime is rank deficient"),
        (np.where(DENSE[:, :2] > 1.0, np.nan, DENSE[:, :2]), DENSE[:, 1:], "basis_prime: entries must be finite"),
        (DENSE[:, :2], np.where(DENSE[:, 1:] > 1.0, np.inf, DENSE[:, 1:]) + 0j, "basis_dprime: entries must be"),
    ], ids=["rank prime", "rank dprime", "nan prime", "inf dprime"])
    def test_rejected_triple_takes_no_pair_svd(self, bp, bq, fault, monkeypatch):
        # a triple rejected for rank or for an entry does not decide its
        # [B' | B'']: LAPACK sees the finite sides alone, 5 x 2 and 5 x 3
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape[1:]) or svd(a, **kw))
        got, = fredholm.subspace_triples([(5, bp, bq)])
        assert type(got) is ValueError and str(got).startswith(fault)
        assert set(calls) == {(5, b.shape[1]) for b in (bp, bq) if np.isfinite(b).all()}

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_of_one_shape_equal_one_at_a_time(self, seed, monkeypatch):
        # one shape, 5 x 2, so every basis but the 1-D ones shares a group,
        # dense and coordinate, real and complex, list and array, among
        # NaN, rank-deficient and mis-shaped sides, in a drawn order
        triples = same_shape_triples(seed)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append((a.shape, a.dtype)) or svd(a, **kw))
        batch = fredholm.subspace_triples(triples)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert len(calls) == len(set(calls))  # one call per matrix shape and dtype
        assert_as_reference(triples, batch)
        got_rejections, want_rejections = [], []
        for (n, bp, bq), got in zip(triples, batch):
            try:
                want = SubspaceTriple(n, bp, bq)
            except ValueError as exc:
                want_rejections.append(str(exc))
                got_rejections.append(str(got))
                continue
            assert type(got) is SubspaceTriple
            for a, b in zip((got.basis_prime, got.basis_dprime, *got.spectra),
                            (want.basis_prime, want.basis_dprime, *want.spectra)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable
        assert got_rejections == want_rejections
        assert {m.split(" ", 2)[1] for m in got_rejections} == {"is", "entries", "expected"}

    @pytest.mark.parametrize("bp, bq, message", [
        # B', its shape and then its entries, before B''
        (np.full((5, 2), np.nan), np.ones((6, 2)), "basis_prime: entries must be finite (no NaN/Inf)"),
        (np.ones((6, 2)), np.full((5, 2), np.nan), "basis_prime: expected 5 rows, got shape (6, 2)"),
        (np.eye(5)[:, :2], np.full((5, 2), np.inf), "basis_dprime: entries must be finite (no NaN/Inf)"),
        (np.full((5, 2), np.inf), np.full((5, 2), np.nan), "basis_prime: entries must be finite (no NaN/Inf)"),
        (np.full((5, 2), np.nan), "x", "basis_prime: entries must be finite (no NaN/Inf)"),
        # every entry is checked before any rank is decided
        (np.ones((5, 2)), np.full((5, 2), np.nan), "basis_dprime: entries must be finite (no NaN/Inf)"),
        (np.ones((5, 2)), np.ones((5, 2)), "basis_prime is rank deficient: rank 1 < 2 columns at RANK_TOL 1e-09"),
        (np.eye(5)[:, :2], np.zeros((5, 1)), "basis_dprime is rank deficient: rank 0 < 1 columns at RANK_TOL 1e-09"),
    ])
    def test_first_fault_rejects(self, bp, bq, message):
        with pytest.raises(ValueError) as alone:
            SubspaceTriple(5, bp, bq)
        good = (5, np.eye(5)[:, :2] + 0.5j, np.eye(5)[:, 2:4])
        got = fredholm.subspace_triples([good, (5, bp, bq), good])
        assert str(alone.value) == str(got[1]) == message
        assert [type(t) for t in got] == [SubspaceTriple, ValueError, SubspaceTriple]

    @pytest.mark.parametrize("bad, message", [
        ((2, np.eye(2), {}), "must be real number, not dict"),
        (("2", np.eye(2), np.eye(2)), "'<' not supported"),
        ((None, np.eye(2), np.eye(2)), "'<' not supported"),
    ], ids=["dict basis", "string dimension", "null dimension"])
    def test_type_error_rejects_its_triple_only(self, bad, message):
        # the TypeError stands in the bad triple's place; the batch goes on
        good = (2, np.eye(2), np.eye(2))
        got = fredholm.subspace_triples([good, bad, good])
        assert [type(t) for t in got] == [SubspaceTriple, TypeError, SubspaceTriple]
        assert message in str(got[1]) and triple_index(got[0]) == triple_index(got[2]) == (2, 0, 2)
        with pytest.raises(TypeError, match=message):
            SubspaceTriple(*bad)

    def test_sides_without_columns_take_no_row_norms(self):
        # an N x 0 side has an empty spectrum: no N-length row norms, and a
        # pair of two such sides takes no hypot
        import tracemalloc

        tracemalloc.start()
        try:
            t = SubspaceTriple(5_000_000, [], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert [s.shape for s in t.spectra] == [(0,)] * 3 and triple_index(t) == (0, 5_000_000, -5_000_000)

    def test_one_side_without_columns_keeps_the_other_spectrum(self):
        # [B' | B''] is then the other side: its closed form, bit for bit
        b = np.diag([3.0, 0.0, 0.0, 4.0])[:, [0, 3]]
        for bp, bq in (([], b), (b, [])):
            t = SubspaceTriple(4, bp, bq)
            assert t.spectra[0].tobytes() == np.array([4.0, 3.0]).tobytes()
            assert triple_index(t) == (0, 2, -2)

    def test_ambient_dim_past_numpy_is_named(self):
        with pytest.raises(ValueError, match=r"^ambient_dim: \d+\.\.\.\d+ is past numpy's largest array dimension$"):
            SubspaceTriple(int(1e308), [], [])

    def test_batch_of_one_is_the_constructor(self):
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))
        got, = fredholm.subspace_triples([(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))])
        assert (got.ambient_dim, got.p, got.q, triple_index(got)) == (3, 2, 2, triple_index(t))
        assert fredholm.subspace_triples([]) == []


class TestBasisRank:
    def test_more_columns_than_rows_is_rank_deficient(self):
        # rank <= N < p: the basis cannot have full column rank
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="basis_prime is rank deficient: rank 2 < 3"):
            SubspaceTriple(2, rng.standard_normal((2, 3)), np.zeros((2, 0)))

    def test_tiny_last_singular_value_rejected(self):
        bq = np.array(eye_cols(3, [0, 1]))
        bq[:, 1] = bq[:, 0] + 1e-12 * bq[:, 1]
        with pytest.raises(ValueError, match="basis_dprime is rank deficient: rank 1 < 2"):
            SubspaceTriple(3, eye_cols(3, [2]), bq)


class TestRankRule:
    def test_every_count_follows_the_one_tolerance(self, monkeypatch):
        # two lines 1e-6 apart: distinct at the default tolerance, one line
        # once the tolerance is looser than their angle
        from hardyglue import fredholm
        b1 = eye_cols(3, [0])
        b2 = b1 + 1e-6 * eye_cols(3, [1])
        t = SubspaceTriple(3, b1, b2)

        def counts():
            return triple_index(t).dim_cap, cap_and_outer_widths(t)

        assert counts() == (0, (0, 1))
        monkeypatch.setattr(fredholm, "RANK_TOL", 1e-3)
        assert counts() == (1, (1, 2))

    @pytest.mark.parametrize("small", [[1], [1, 2]])
    def test_bases_of_scales_past_the_tolerance_read_as_meeting(self, small):
        # a side 1e-10 times the other reads as kernel of [B' | -B'']:
        # orthogonal lines (and a line and an orthogonal plane) are counted
        # as meeting, a known defect of rank decisions on raw bases; the
        # kernel's image is no intersection, so `_cap_and_outer` finds an
        # empty cap and the two widths do not sum to N
        n = 1 + len(small)
        t = SubspaceTriple(n, eye_cols(n, [0]), 1e-10 * eye_cols(n, small))
        assert triple_index(t) == (len(small), len(small), 1 - n + len(small))
        assert cap_and_outer_widths(t) == (0, len(small))


class TestGraphPairLocal:
    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValueError, match="f\\(0,0\\)=0"):
            fd_graph((1, 1, 1, 1), lambda u, xp: u + 1.0)

    def test_nonflat_rejected_by_default(self):
        with pytest.raises(ValueError, match="df\\(0,0\\)=0"):
            fd_graph((1, 0, 0, 1), lambda u, xp: u - 0.3 * np.sin(u))

    def test_nonflat_escape_hatch(self):
        g = fd_graph((1, 0, 0, 1), lambda u, xp: u - 0.3 * np.sin(u), allow_nonflat=True)
        assert g.dims == (1, 0, 0, 1)

    def test_fd_jacobian_matches_exact(self):
        pm = PolynomialMap((2, 1, 0, 2),
                           [[(1.0, (1, 1), (0,))], [(2.0, (0, 2), (1,))]])
        u = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        xp = np.array([0.5 - 0.3j])
        ju_fd, jxp_fd = fd_graph(pm.dims, pm).jacobian(u, xp)
        ju_ex, jxp_ex = pm.jacobian(u, xp)
        assert np.max(np.abs(ju_fd - ju_ex)) <= 1e-8
        assert np.max(np.abs(jxp_fd - jxp_ex)) <= 1e-8

    def test_nan_origin_rejected(self):
        with pytest.raises(ValueError, match="f\\(0,0\\)=0, got \\|f\\(0,0\\)\\|=nan"):
            fd_graph((1, 0, 0, 1), lambda u, xp: u + math.nan)

    @pytest.mark.parametrize("jac", [(), (None,)])
    def test_missing_jacobian_rejected(self, jac):
        # the Jacobians are the caller's: no finite-difference fallback
        with pytest.raises(TypeError, match="jac"):
            GraphPairLocal((1, 0, 0, 1), lambda u, xp: u * u, *jac, allow_nonflat=True)

    @pytest.mark.parametrize("jac", [lambda u, xp: ([[math.nan]], [[0.0]]), lambda u, xp: ([[0.0]], [[math.nan]])])
    def test_nan_slope_at_origin_rejected(self, jac):
        with pytest.raises(ValueError, match="df\\(0,0\\)=0, got \\|df\\(0,0\\)\\|=nan"):
            GraphPairLocal((1, 1, 0, 1), lambda u, xp: u * xp, jac=jac)

    def test_polynomial_flatness_read_from_degree_one_terms(self):
        # f = 1e308 u^2: the evaluated partial 2e308 u reads inf * 0 = NaN at 0
        pm = PolynomialMap((1, 1, 1, 1), [[(1e308, (2,), (0,))]])
        with np.errstate(invalid="ignore"):
            assert np.isnan(pm.jacobian([0j], [0j])[0]).all()
        with pytest.raises(ValueError, match="df\\(0,0\\)=0, got \\|df\\(0,0\\)\\|=nan"):
            GraphPairLocal(pm.dims, pm, jac=pm.jacobian)
        assert pm.as_graph().dims == (1, 1, 1, 1)
        # a degree-1 term is read, with the graph's message; f(0,0) is checked first
        nonflat = PolynomialMap((1, 1, 1, 1), [[(1e308, (2,), (0,)), (0.5, (0,), (1,))]])
        with pytest.raises(ValueError, match=r"^graph map must satisfy df\(0,0\)=0, got \|df\(0,0\)\|=5\.000e-01 "):
            nonflat.as_graph()
        assert nonflat.as_graph(allow_nonflat=True).dims == (1, 1, 1, 1)
        with pytest.raises(ValueError, match="f\\(0,0\\)=0"):
            PolynomialMap((1, 1, 1, 1), [[(1.0, (0,), (0,)), (1.0, (1,), (0,))]]).as_graph()

    def test_polynomial_flatness_matches_the_evaluated_check(self):
        # on maps whose partials stay finite at 0, the degree-1 terms and the
        # evaluated Jacobian give the same verdict and message
        rng = np.random.default_rng(25)
        for _ in range(200):
            d_u, d_xp, d_xi = (int(v) for v in rng.integers(1, 3, 3))
            terms = [[(complex(*(rng.standard_normal(2) * 10.0 ** rng.integers(-10, 3))),
                       tuple(int(p) for p in rng.integers(0, 3, d_u)), tuple(int(p) for p in rng.integers(0, 2, d_xp)))
                      for _ in range(int(rng.integers(1, 4)))] for _ in range(d_xi)]
            terms = [[t for t in comp if sum(t[1]) + sum(t[2])] for comp in terms]  # f(0,0) = 0
            pm = PolynomialMap((d_u, d_xp, 0, d_xi), terms)
            verdicts = []
            for build in (pm.as_graph, lambda: GraphPairLocal(pm.dims, pm, jac=pm.jacobian)):
                try:
                    build()
                    verdicts.append(None)
                except ValueError as exc:
                    verdicts.append(str(exc))
            assert verdicts[0] == verdicts[1], pm.terms

    @pytest.mark.parametrize("coeff", [math.nan, complex(0, math.inf), -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match=r"^components\[1\]\[0\]: coefficient must be finite"):
            PolynomialMap((1, 0, 0, 2), [[(1.0, (2,), ())], [(coeff, (2,), ())]])


def sympy_tangent_oracle(exprs, u_syms, at_point):
    """Symbolic kernel dimension of df/du at a point."""
    jac = sympy.Matrix(exprs).jacobian(u_syms)
    jac_at = jac.subs(dict(zip(u_syms, at_point)))
    return len(u_syms) - jac_at.rank()


def assert_tangent_identities(tc):
    """The reduced and the full pair agree: equal cap and quotient
    dimensions, and caps within the CLI's 1e-6 gap."""
    assert tc.dim_cap_reduced == tc.dim_cap_full, tc
    assert tc.quotient_reduced == tc.quotient_full, tc
    assert tc.subspace_gap <= 1e-6, tc


def block_tangent_bases(red, u) -> dict:
    """The four tangent bases of `FiniteDimReduction.tangent_bases` built
    block by block: the reference its one-identity construction is held to."""
    du, dxp, dxd, dxi = red.dims
    D = du + dxp + dxd + dxi
    ju, jxp = red.graph.jacobian(u, np.zeros(dxp, dtype=complex))

    def rows(u_block, xp_block, xd_block, xi_block, width):
        mat = np.zeros((D, width), dtype=complex)
        mat[:du] = u_block
        mat[du:du + dxp] = xp_block
        mat[du + dxp:du + dxp + dxd] = xd_block
        mat[du + dxp + dxd:] = xi_block
        return mat

    eye_u = np.eye(du, dtype=complex)
    z = np.zeros
    t_uprime = rows(eye_u, z((dxp, du)), z((dxd, du)), ju, du)
    t_udprime = rows(eye_u, z((dxp, du)), z((dxd, du)), z((dxi, du)), du)
    t_xprime = rows(np.hstack([eye_u, z((du, dxp))]),
                    np.hstack([z((dxp, du)), np.eye(dxp, dtype=complex)]),
                    z((dxd, du + dxp)),
                    np.hstack([ju, jxp]), du + dxp)
    t_xdprime = rows(np.hstack([eye_u, z((du, dxd))]),
                     z((dxp, du + dxd)),
                     np.hstack([z((dxd, du)), np.eye(dxd, dtype=complex)]),
                     z((dxi, du + dxd)), du + dxd)
    return {"U'": t_uprime, "U''": t_udprime, "X'": t_xprime, "X''": t_xdprime}


class TestFiniteDimReduction:
    def test_tangent_bases_equal_block_construction(self, monkeypatch):
        # every dims in {0, 1, 2}^4 with a random Jacobian: the same bases bit
        # for bit, and the same tangent check as on the block-built bases
        rng = np.random.default_rng(29)
        for dims in itertools.product(range(3), repeat=4):
            du, dxp, _, dxi = dims
            ju, jxp = (rng.standard_normal((dxi, w)) + 1j * rng.standard_normal((dxi, w)) for w in (du, dxp))
            red = FiniteDimReduction(GraphPairLocal(dims, lambda u, xp, n=dxi: np.zeros(n),
                                                    lambda u, xp, j=(ju, jxp): j, allow_nonflat=True))
            u = rng.standard_normal(du) + 0j
            got, want = red.tangent_bases(u), block_tangent_bases(red, u)
            assert list(got) == list(want), dims
            for key in want:
                assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape), (dims, key)
                assert got[key].tobytes() == want[key].tobytes(), (dims, key)
            check = red.tangent_check(u)
            with monkeypatch.context() as patch:
                patch.setattr(FiniteDimReduction, "tangent_bases", block_tangent_bases)
                assert check == red.tangent_check(u), dims

    def test_double_root_solution(self):
        pm = PolynomialMap((1, 1, 1, 1), [[(1.0, (2,), (0,))]])
        red = FiniteDimReduction(pm.as_graph())
        res = red.solve(np.array([0.5 + 0j]), tol=1e-12)
        assert res.converged
        assert abs(res.u[0]) <= 1e-6

    def test_zero_map_full_intersection(self):
        g = fd_graph((2, 1, 1, 1), lambda u, xp: np.zeros(1, dtype=complex))
        red = FiniteDimReduction(g)
        seed = np.array([0.3 + 0j, -0.1 + 0j])
        res = red.solve(seed)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.u, seed)
        tc = red.tangent_check(seed)
        assert tc.dim_cap_reduced == tc.dim_cap_full == 2
        assert_tangent_identities(tc)

    def test_axes_tangent_at_origin(self):
        # symbolic differentiation oracle: kernel of d(u1*u2) at 0 is everything
        u1, u2 = sympy.symbols("u1 u2")
        assert sympy_tangent_oracle([u1 * u2], (u1, u2), (0, 0)) == 2
        pm = PolynomialMap((2, 1, 1, 1), [[(1.0, (1, 1), (0,))]])
        red = FiniteDimReduction(pm.as_graph())
        tc = red.tangent_check(np.zeros(2, dtype=complex))
        assert tc.dim_cap_reduced == tc.dim_cap_full == 2
        assert_tangent_identities(tc)

    def test_axes_tangent_off_origin(self):
        u1, u2 = sympy.symbols("u1 u2")
        assert sympy_tangent_oracle([u1 * u2], (u1, u2), (sympy.Rational(1, 2), 0)) == 1
        pm = PolynomialMap((2, 1, 1, 1), [[(1.0, (1, 1), (0,))]])
        red = FiniteDimReduction(pm.as_graph())
        tc = red.tangent_check(np.array([0.5 + 0j, 0.0 + 0j]))
        assert tc.dim_cap_reduced == tc.dim_cap_full == 1
        assert_tangent_identities(tc)

    def test_shipped_test_set_tangent_identities(self):
        for pm, seeds in polynomial_test_set():
            red = FiniteDimReduction(pm.as_graph())
            for seed in seeds:
                res = red.solve(seed, max_iter=300, tol=1e-12)
                assert res.converged, (pm.dims, seed)
                tc = red.tangent_check(res.u)
                assert_tangent_identities(tc)


class TestNewton:
    def test_singular_roots_take_few_iterations(self):
        # plain Newton shrinks its steps by (m - 1)/m at a root of multiplicity
        # m (u^2 took 20 iterations, u^3 32); the step scaled by m does not
        cases = [([(1.0, (k,), (0,))], 0.5) for k in range(2, 6)]
        cases.append(([(1.0, (3,), (0,)), (0.5, (4,), (0,))], 0.3))
        for terms, start in cases:
            pm = PolynomialMap((1, 1, 1, 1), [terms])
            res = intersect_newton(pm.as_graph(), np.array([start + 0j]), tol=1e-12)
            assert res.converged and res.iterations <= 6, (terms, res)

    def test_sine_equation_quadratic(self):
        g = fd_graph((1, 0, 0, 1), lambda u, xp: u - 0.3 * np.sin(u), allow_nonflat=True)
        res = intersect_newton(g, np.array([1.0 + 0j]), tol=1e-12)
        assert res.converged
        assert abs(res.u[0]) <= 1e-12
        assert res.iterations <= 10  # quadratic once damping unwinds

    def test_zero_map_returns_seed(self):
        g = fd_graph((2, 0, 0, 1), lambda u, xp: np.zeros(1, dtype=complex))
        seed = np.array([0.2 + 0.1j, -0.4 + 0j])
        res = intersect_newton(g, seed)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.u, seed)

    def test_no_convergence_reported(self):
        # a far seed with a tiny iteration budget cannot reach the double root
        pm = PolynomialMap((1, 1, 1, 1), [[(1.0, (2,), (0,))]])
        res = intersect_newton(pm.as_graph(), np.array([8.0 + 0j]), max_iter=2, tol=1e-14)
        assert not res.converged
        assert res.residual > 0

    def test_seed_shape_validated(self):
        pm = PolynomialMap((2, 0, 0, 1), [[(1.0, (1, 1), ())]])
        with pytest.raises(ValueError):
            intersect_newton(pm.as_graph(), np.array([1.0 + 0j]))

    def test_normal_equations_scaled_past_the_float_range(self):
        # f = 1e308 u + (-1 + i) 1e308 x' + u^2 from u = 1e-300: J^H J reads
        # inf unscaled; divided by 2^1024, two steps land on u = 0
        pm = PolynomialMap((1, 1, 1, 1), [[(1e308, (1,), (0,)), (complex(-1e308, 1e308), (0,), (1,)),
                                           (1.0, (2,), (0,))]])
        res = intersect_newton(pm.as_graph(allow_nonflat=True), np.array([1e-300 + 0j]))
        assert res.converged and (res.residual, res.iterations) == (0.0, 2)
        assert res.u.tolist() == [0j]

    @pytest.mark.parametrize("s", [1.0, 1e150, 1e160, 1e308])
    def test_rank_deficient_jacobian_past_the_float_range(self, s):
        # J = (s, s) has rank 1: the damping, relative to the scaled Gram
        # matrix, keeps the normal equations solvable where 2^-2a underflows
        pm = PolynomialMap((2, 1, 1, 1), [[(s, (1, 0), (0,)), (s, (0, 1), (0,))]])
        res = intersect_newton(pm.as_graph(allow_nonflat=True), np.array([0.5 / s, 0j]))
        assert res.converged and res.iterations <= 4, res

    def test_perfbench_families_converge_fast(self):
        # every family, from the benchmark's seeds: within 15 iterations, the
        # double roots included, and each root's reduced and full tangent
        # dims agree although it lands where |J| nears RANK_TOL
        maps = perfbench_maps(500, seed=32)
        assert len({(pm.dims, len(pm.terms[0])) for pm, _ in maps}) == 5  # every family drawn
        for pm, seeds in maps:
            reduction = FiniteDimReduction(pm.as_graph(allow_nonflat=True))
            for seed in seeds:
                res = reduction.solve(seed, max_iter=300, tol=1e-12)
                assert res.converged and res.iterations <= 15, (pm.terms, seed, res)
                tc = reduction.tangent_check(res.u)
                assert (tc.dim_cap_reduced, tc.quotient_reduced) == (tc.dim_cap_full, tc.quotient_full), (pm.terms, seed)
                assert tc.subspace_gap <= 1e-6, (pm.terms, seed, tc)

    @pytest.mark.parametrize("seed", [[math.inf], [complex(0.5, math.nan)], [-math.inf * 1j]])
    def test_non_finite_seed_rejected(self, seed):
        pm = PolynomialMap((1, 1, 1, 1), [[(1.0, (2,), (0,))]])
        with pytest.raises(ValueError, match="seed entries must be finite"):
            intersect_newton(pm.as_graph(), np.array(seed, dtype=complex))


ROOT = Path(__file__).resolve().parents[1]


def same_bits(got, want) -> bool:
    """Equal complex arrays, bit for bit: the same float64 bits in every
    real and imaginary part (the signs of zeros included), NaN matching
    any NaN."""
    g, w = (np.atleast_1d(np.asarray(a, dtype=complex)).view(float) for a in (got, want))
    return g.shape == w.shape and bool(((g.view(np.uint64) == w.view(np.uint64)) | (np.isnan(g) & np.isnan(w))).all())


def perfbench_maps(count: int, seed: int) -> list:
    """``(PolynomialMap, seeds)`` for ``count`` draws of the
    benchmark's polynomial map families (`perfbench/workloads.py`), each
    with two seeds of its Newton solves."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclass looks itself up in sys.modules
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        params = workloads._polynomial_map(rng)
        terms = [[(complex(*t["c"]), t["u"], t["xp"]) for t in comp] for comp in params["components"]]
        seeds = [np.array([complex(*z) for z in workloads._seed_vector(rng, params["dims"][0])]) for _ in range(2)]
        maps.append((PolynomialMap(params["dims"], terms), seeds))
    return maps


SPECIAL = (0.0, -0.0, 1e-200, -1e-170, 1e154, 1e200, -1e300, math.inf, math.nan)


class TestCompiledPolynomialMap:
    """The compiled map on Python scalars against `polynomial_by_terms`,
    the numpy-scalar definition, bit for bit: values, Jacobians and the
    Newton solves that run on them."""

    @staticmethod
    def assert_same_map(pm, polynomial_by_terms, u, xp):
        want = polynomial_by_terms(pm, u, xp)
        got = (pm(u, xp), *pm.jacobian(u, xp))
        for name, g, w in zip(("f", "df/du", "df/dxp"), got, want):
            assert same_bits(g, w), (name, pm.terms, u, xp, g, w)

    @staticmethod
    def assert_same_solve(pm, polynomial_by_terms, seed, max_iter=300):
        reference = GraphPairLocal(pm.dims, lambda u, xp: polynomial_by_terms(pm, u, xp)[0],
                                   jac=lambda u, xp: polynomial_by_terms(pm, u, xp)[1:], allow_nonflat=True)
        got = intersect_newton(pm.as_graph(allow_nonflat=True), seed, max_iter=max_iter)
        want = intersect_newton(reference, seed, max_iter=max_iter)
        assert same_bits(got.u, want.u) and same_bits(got.residual, want.residual), (pm.terms, seed, got, want)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_perfbench_families(self, polynomial_by_terms):
        maps = perfbench_maps(40, seed=24)
        assert len({(pm.dims, len(pm.terms[0])) for pm, _ in maps}) == 5  # every family drawn
        rng = np.random.default_rng(5)
        for pm, seeds in maps:
            for seed in seeds:
                self.assert_same_map(pm, polynomial_by_terms, seed, rng.standard_normal(pm.dims[1]) + 0.5j)
                self.assert_same_solve(pm, polynomial_by_terms, seed)

    def test_shipped_test_set(self, polynomial_by_terms):
        for pm, seeds in polynomial_test_set():
            for seed in seeds:
                self.assert_same_map(pm, polynomial_by_terms, seed, np.full(pm.dims[1], 0.3 - 0.2j))
                self.assert_same_solve(pm, polynomial_by_terms, seed)

    @pytest.mark.parametrize("p", [*range(1, 13), 99, 100, 101, 400])
    def test_exponents(self, p, polynomial_by_terms):
        rng = np.random.default_rng(p)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pm = PolynomialMap((2, 1, 1, 2), [[(coeffs[0], (p, 0), (0,)), (coeffs[1], (1, p), (1,))],
                                          [(coeffs[2], (0, 0), (p,)), (coeffs[3], (p, 2), (p,))]])
        points = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        points *= np.exp(rng.uniform(-2.0, 2.0, (60, 1)))  # moduli near 1: few powers under- or overflow
        points.real[:20], points.imag[:20] = rng.choice(SPECIAL, (2, 20, 3))
        for point in points:
            self.assert_same_map(pm, polynomial_by_terms, point[:2], point[2:])
        for seed in points[20:25, :2]:
            self.assert_same_solve(pm, polynomial_by_terms, seed, max_iter=30)

    @pytest.mark.parametrize("coeff, seed", [(1e308, [0.4, 0.05]), (1e308, [0.03, -0.5 + 0.1j]),
                                             (1.0, [1e200, 0.0]), (1.0, [1e200j, -1e-200]),
                                             (1e-300, [1e150, 1e150]), (-1e200, [1e100, 3.0])])
    def test_overflow(self, coeff, seed, polynomial_by_terms):
        # pytest makes a RuntimeWarning an error, so this also asserts that none is printed
        pm = PolynomialMap((2, 1, 1, 2), [[(coeff, (1, 1), (0,)), (1.0, (0, 0), (2,))],
                                          [(coeff, (3, 0), (0,)), (2.0 - 1j, (0, 2), (0,))]])
        seed = np.array(seed, dtype=complex)
        for xp in (0.0, 1e200, -1e155j):
            self.assert_same_map(pm, polynomial_by_terms, seed, [xp])
        self.assert_same_solve(pm, polynomial_by_terms, seed)


class TestSubspaceHelpers:
    def test_intersection_of_disjoint_is_empty(self):
        got, _ = fredholm._cap_and_outer(eye_cols(4, [0, 1]), eye_cols(4, [2, 3]))
        assert got.shape == (4, 0)

    def test_intersection_recovers_shared_span(self):
        rng = np.random.default_rng(14)
        shared = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        b1 = np.hstack([shared, rng.standard_normal((6, 1))])
        b2 = np.hstack([shared @ rng.standard_normal((2, 2)), rng.standard_normal((6, 1))])
        cap, _ = fredholm._cap_and_outer(b1, b2)
        assert cap.shape[1] == 2
        # cap lies inside span(shared)
        proj = shared @ np.linalg.lstsq(shared, cap, rcond=None)[0]
        assert np.max(np.abs(proj - cap)) <= 1e-10

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("q", [0, 2])
    def test_empty_inputs_through_the_svd(self, p, q):
        # numpy's SVD of an (r, 0) or (0, n) matrix has no singular values
        # and identity factors, which is every empty case's answer
        empty = np.zeros((0, 3), dtype=complex)
        for got, want in ((orthonormal_range(empty.T), np.zeros((3, 0))),
                          (orthonormal_range(empty), np.zeros((0, 0)))):
            assert got.dtype == complex and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        t = random_triple(np.random.default_rng(p + q), 5, p, q)
        cap, outer = fredholm._cap_and_outer(t.basis_prime, t.basis_dprime)
        assert cap.shape == (5, 0) and outer.shape == (5, 5 - p - q)
        if p + q == 0:
            np.testing.assert_array_equal(outer, np.eye(5))

    def test_plane_example_dims(self):
        t = SubspaceTriple(3, eye_cols(3, [0, 1]), eye_cols(3, [1, 2]))
        assert cap_and_outer_widths(t) == (1, 0)

    def test_equal_subspaces(self):
        t = SubspaceTriple(6, eye_cols(6, [0, 1, 2]), eye_cols(6, [0, 1, 2]))
        assert cap_and_outer_widths(t) == (3, 3)

    def test_zero_width_basis(self):
        t = SubspaceTriple(4, np.zeros((4, 0), dtype=complex), eye_cols(4, [0, 1]))
        assert cap_and_outer_widths(t) == (0, 2)
        assert triple_index(t) == (0, 2, -2)

    def test_blocks_orthogonal_where_required(self):
        # orthonormal blocks; the outer block is orthogonal to the cap and to both sides
        rng = np.random.default_rng(13)
        t = random_triple(rng, 7, 4, 4)
        cap, outer = fredholm._cap_and_outer(t.basis_prime, t.basis_dprime)
        assert cap.shape[1] == 1 and outer.shape[1] == 0
        for block in (cap, outer):
            assert np.max(np.abs(block.conj().T @ block - np.eye(block.shape[1])), initial=0.0) <= 1e-12
        t = random_triple(rng, 7, 2, 3)
        cap, outer = fredholm._cap_and_outer(t.basis_prime, t.basis_dprime)
        assert cap.shape[1] == 0 and outer.shape[1] == 2
        for side in (t.basis_prime, t.basis_dprime):
            assert np.max(np.abs(outer.conj().T @ side)) <= 1e-12 * np.max(np.abs(side))
