"""Acceptance criteria, one test per criterion.

Criteria 1-3 and 5-8 run the `verify` suite code of `hardyglue.cli` (for
criterion 3, the `node-check` handler and the node model's H-grid) at the
sizes pinned here and assert on the check records it returns, so each
criterion has one definition.  Each test prints a single pass/fail line
(run with ``pytest -s`` to see them all); time budgets are pinned in the
assertions.
"""

import time

import numpy as np
import pytest

from hardyglue import cli
from hardyglue.cli import RunOptions
from hardyglue.loops import Loop, sobolev_norm
from hardyglue.fredholm import triple_index
from hardyglue.moduli import TargetData, hardy_triple_for_line_bundle, riemann_roch_index
from hardyglue.node_model import h_reproduction_gaps, transfer_Tz


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def timed(run, *args, **kwargs):
    start = time.perf_counter()
    records = run(*args, **kwargs)
    return records, time.perf_counter() - start


def named(records, prefix: str) -> list:
    return [r for r in records if r.name.startswith(prefix)]


def all_pass(records) -> bool:
    return bool(records) and all(r.status == "pass" for r in records)


@pytest.fixture(scope="module")
def index_suite():
    return timed(cli.suite_index, RunOptions())


def test_criterion_1_hardy_split_of_the_sphere(index_suite):
    records, elapsed = index_suite
    sphere = named(records, "hardy_sphere_m")
    ok = all_pass(sphere) and [r.expected for r in sphere] == [1, 0, 1, 2, 0, 2, 3, 0, 3]
    report(1, ok and elapsed < 1.0,
           f"sphere Hardy split (dim_cap, codim, index) == (m, 0, m) for m=1..3 in {elapsed:.3f}s")


def test_criterion_2_twisted_riemann_roch(index_suite):
    records, elapsed = index_suite
    bundles = named(records, "line_bundle_d")
    expected = [v for d in range(11) for v in (2 * d + 1, 0)]
    ok = all_pass(bundles) and [r.expected for r in bundles] == expected
    ok = ok and all(triple_index(hardy_triple_for_line_bundle(2 * d, 64)).index
                    == riemann_roch_index(TargetData(1, 2 * d), 0) for d in range(11))
    report(2, ok and elapsed < 1.0,
           f"twisted-bundle indices 2d+1 match Riemann-Roch for d=0..10 in {elapsed:.3f}s")


def test_criterion_3_node_roundtrips():
    start = time.perf_counter()
    records = cli.handle_node_check({"trials": 1000, "m": 2, "n_max": 32, "z_max": 0.9, "seed": 7}, RunOptions())
    rng = np.random.default_rng(7)
    h_max = max(float(np.max(h_reproduction_gaps(cli._random_poly(rng, 1, 8)))) for _ in range(50))
    elapsed = time.perf_counter() - start
    ok = (all_pass(records) and [r.tol for r in records] == [1e-12, 1e-12, 1e-12, 1e-10, 1e-10]
          and h_max <= 1e-10 and elapsed < 10.0)
    report(3, ok, "1000 chart roundtrips: " + ", ".join(f"{r.name} {r.residual:.2e}" for r in records)
                  + f", 50 H-grids {h_max:.2e} in {elapsed:.2f}s")


def test_criterion_4_transfer_contraction():
    rng = np.random.default_rng(4)
    worst_excess = 0.0
    for _ in range(1000):
        n_max = int(rng.integers(1, 33))
        coeffs = np.zeros((2 * n_max + 1, 1), dtype=complex)
        coeffs[n_max + 1:] = cli._random_disc(rng, (n_max, 1), radius=3.0)
        loop = Loop(1, n_max, coeffs)
        z = 0.999 * cli._random_disc(rng, ())
        s = float(rng.uniform(0.0, 3.0))
        lhs = sobolev_norm(transfer_Tz(z, loop), s)
        rhs = abs(z) * sobolev_norm(loop, s)
        worst_excess = max(worst_excess, lhs - rhs * (1 + 1e-14))
    report(4, worst_excess <= 0.0,
           f"transfer contraction holds on 1000 samples (worst excess {worst_excess:.2e})")


def test_criterion_5_fredholm_engine():
    records = cli.suite_fredholm(RunOptions(seed=5))
    by_name = {r.name: r for r in records}
    solutions = sum(r.name.endswith("_newton_residual") for r in records)
    ok = (all_pass(records) and by_name["euler_identity_violations"].expected == 0
          and by_name["generic_stability_count"].expected == 100 and solutions > 0)
    report(5, ok, f"Euler identity over 1000 triples, stability "
                  f"{by_name['generic_stability_count'].value}/100, "
                  f"tangent identities at {solutions} Newton solutions")


def test_criterion_6_dimension_formula_table():
    rational = [{"label": f"rational-d{d}-n{n}", "g": 0, "n": n, "m": 2, "c1d": 3 * d,
                 "expect": 3 * d - 1 + n} for d in range(1, 6) for n in range(6)]
    records = cli.handle_moduli_dim({"builtin_table": True, "entries": rational}, RunOptions())
    report(6, all_pass(records) and len(records) == len(cli.CLASSICAL_TABLE) + 30,
           "frozen classical table: lines 2, conics 5, degree-d rational "
           "curves 3d-1+n, Deligne-Mumford 3g-3")


def test_criterion_7_energy_axiom():
    # monomial_k_limit_vs_pi_eps2 holds each energy to pi*eps^2 at relative
    # 1e-8 on a schedule that falls 10x per step, so the energies decrease
    # strictly to 0
    records, elapsed = timed(cli.suite_energy, RunOptions())
    ok = all_pass(records) and len(records) == 4 and [r.tol for r in records[1:3]] == [1e-8, 1e-8]
    report(7, ok and elapsed < 5.0,
           f"eps-limits match pi*eps^2 (closed form vs quadrature), decrease to 0, "
           f"divergent family rejected, in {elapsed:.2f}s")


def test_criterion_8_genus_invariance():
    # the enumeration's 13,668 dual graphs are pinned in tests/test_cli.py
    records, elapsed = timed(cli._suite_genus_invariance, RunOptions(), max_components=4, max_nodes=4)
    report(8, all_pass(records),
           f"genus preserved by every contraction on all dual graphs "
           f"(<=4 components, <=4 nodes) in {elapsed:.2f}s")
