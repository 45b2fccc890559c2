"""Scenario runner: loads JSON scenarios, dispatches to the compute
modules, and emits JSON-lines reports (one check per line plus a summary).

Exit codes: 0 when every check passes, 1 when any check fails or is
inconclusive, 2 on parse/config errors, malformed ``[re, im]`` data
included (the error line names the path of the first bad element).

`main` may be called repeatedly in one process: the argument parser is
built once, on the first call, and keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import degeneration, extension, fredholm, moduli, node_model
from .jsonio import (
    boundary_from_json,
    complex_from_pair,
    loop_from_json,
    matrix_from_json,
    nodal_config_from_json,
    vector_from_json,
)
from .loops import Loop
from .node_model import NodeBoundary, NodeChart, NodePolynomial

__all__ = ["main", "run_scenario", "verify_suite", "ScenarioError", "ScenarioReport", "CheckRecord"]

SUITES = ("node", "extension", "fredholm", "index", "energy", "all")

# classical dimension counts frozen against the closed formulas
CLASSICAL_TABLE = (
    {"label": "lines-in-P2", "g": 0, "n": 0, "m": 2, "c1d": 3, "expect": 2},
    {"label": "conics-in-P2", "g": 0, "n": 0, "m": 2, "c1d": 6, "expect": 5},
    {"label": "DM-genus-2", "g": 2, "n": 0, "m": 0, "c1d": 0, "expect": 3},
    {"label": "DM-genus-3", "g": 3, "n": 0, "m": 0, "c1d": 0, "expect": 6},
    {"label": "DM-genus-4", "g": 4, "n": 0, "m": 0, "c1d": 0, "expect": 9},
    {"label": "DM-genus-5", "g": 5, "n": 0, "m": 0, "c1d": 0, "expect": 12},
)


class ScenarioError(Exception):
    """Schema or configuration problem; maps to exit code 2."""


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # pass | fail | inconclusive
    tol: float
    residual: float | None = None
    value: float | None = None
    expected: float | None = None


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    command: str
    inputs_digest: str
    results: tuple
    wall_time_s: float


@dataclass(frozen=True)
class RunOptions:
    truncation: int = 32
    sobolev_s: float = 1.5
    tol: float = 1e-10
    seed: int = 7


def check_residual(name: str, residual: float, tol: float) -> CheckRecord:
    status = "pass" if residual <= tol else "fail"
    return CheckRecord(name, status, float(tol), residual=float(residual))


def check_int(name: str, value: int, expected: int) -> CheckRecord:
    status = "pass" if int(value) == int(expected) else "fail"
    return CheckRecord(name, status, 0.0, value=int(value), expected=int(expected))


def check_bool(name: str, ok: bool, inconclusive: bool = False) -> CheckRecord:
    status = "inconclusive" if inconclusive else ("pass" if ok else "fail")
    return CheckRecord(name, status, 0.0, value=int(bool(ok)), expected=1)


# ---------------------------------------------------------------------------
# parameter parsing helpers

_REQUIRED = object()


def _get(params: dict, name: str, default=_REQUIRED, where: str = "params"):
    if name not in params:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing field '{name}'")
        return default
    return params[name]


def _decoded(decode, data, where: str):
    """Apply a `jsonio` decoder; malformed data is a ScenarioError."""
    try:
        return decode(data, where)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _bare_pair(data) -> bool:
    return isinstance(data, list) and bool(data) and isinstance(data[0], (int, float))


def _parse_vector_or_scalar(data, where: str) -> np.ndarray:
    if _bare_pair(data):
        return np.array([_decoded(complex_from_pair, data, where)])
    return _decoded(vector_from_json, data, where)


def _parse_coeff_rows(data, where: str) -> np.ndarray:
    """Rows of coefficient vectors; bare [re,im] rows mean m=1."""
    if not isinstance(data, list):
        raise ScenarioError(f"{where}: expected a list")
    if not data:
        return np.zeros((0, 1), dtype=complex)
    return _decoded(matrix_from_json, [[row] if _bare_pair(row) else row for row in data], where)


def _parse_poly(data, where: str) -> NodePolynomial:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object with fields a, b, c")
    c = _parse_vector_or_scalar(_get(data, "c", [0.0, 0.0], where), f"{where}.c")
    a = _parse_coeff_rows(_get(data, "a", [], where), f"{where}.a")
    b = _parse_coeff_rows(_get(data, "b", [], where), f"{where}.b")
    m = len(c)
    if a.size == 0:
        a = np.zeros((0, m), dtype=complex)
    if b.size == 0:
        b = np.zeros((0, m), dtype=complex)
    if a.shape[1] != m or b.shape[1] != m:
        raise ScenarioError(f"{where}: a, b, c disagree on the target dimension")
    return NodePolynomial(a, b, c)


def _parse_cycles(data, where: str) -> list:
    cycles = []
    for i, cyc in enumerate(data):
        w = f"{where}[{i}]"
        kind = _get(cyc, "kind", where=w)
        try:
            if kind == "nonseparating":
                cycles.append(degeneration.NonseparatingCycle(int(_get(cyc, "component", where=w))))
            elif kind == "separating":
                cycles.append(degeneration.SeparatingCycle(
                    int(_get(cyc, "component", where=w)),
                    int(_get(cyc, "genus_first", where=w)),
                    frozenset(int(p) for p in _get(cyc, "points_first", []))))
            else:
                raise ScenarioError(f"{w}.kind: expected 'nonseparating' or 'separating', got {kind!r}")
        except ValueError as exc:
            raise ScenarioError(f"{w}: {exc}") from exc
    return cycles


def _parse_polynomial_map(params: dict, where: str = "params") -> fredholm.PolynomialMap:
    dims = _get(params, "dims", where=where)
    if not (isinstance(dims, list) and len(dims) == 4):
        raise ScenarioError(f"{where}.dims: expected four integers")
    comps_raw = _get(params, "components", where=where)
    if not isinstance(comps_raw, list):
        raise ScenarioError(f"{where}.components: expected a list per output component")
    comps = []
    for i, comp in enumerate(comps_raw):
        terms = []
        for j, term in enumerate(comp):
            w = f"{where}.components[{i}][{j}]"
            coeff = _decoded(complex_from_pair, _get(term, "c", where=w), f"{w}.c")
            terms.append((coeff, tuple(_get(term, "u", where=w)), tuple(_get(term, "xp", where=w))))
        comps.append(terms)
    try:
        return fredholm.PolynomialMap(tuple(int(d) for d in dims), tuple(tuple(c) for c in comps))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# random data generators (shared by node-check and the verify suites)


def _random_disc(rng, shape, radius=1.0):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    return r * np.exp(1j * phi)


def _random_plus_loop(rng, m: int, n_max: int) -> Loop:
    coeffs = np.zeros((2 * n_max + 1, m), dtype=complex)
    coeffs[n_max + 1:] = _random_disc(rng, (n_max, m))
    return Loop(m, n_max, coeffs)


def _random_chart(rng, m: int, n_max: int, z_max: float) -> NodeChart:
    z = _random_disc(rng, ()) * z_max
    return NodeChart(z, _random_plus_loop(rng, m, n_max),
                     _random_plus_loop(rng, m, n_max), _random_disc(rng, (m,)))


def _random_poly(rng, m: int, deg: int) -> NodePolynomial:
    return NodePolynomial(_random_disc(rng, (deg, m)), _random_disc(rng, (deg, m)),
                          _random_disc(rng, (m,)))


def _chart_distance(c1: NodeChart, c2: NodeChart) -> float:
    num = np.linalg.norm(c1.xi_plus.coeffs - c2.xi_plus.coeffs)
    num = np.hypot(num, np.linalg.norm(c1.eta_plus.coeffs - c2.eta_plus.coeffs))
    num = np.hypot(num, np.linalg.norm(c1.lam - c2.lam))
    num = np.hypot(num, abs(c1.z - c2.z))
    scale = 1.0 + np.linalg.norm(c1.xi_plus.coeffs) + np.linalg.norm(c1.eta_plus.coeffs)
    return float(num / scale)


def _boundary_distance(b1: NodeBoundary, b2: NodeBoundary, s: float) -> float:
    diff_xi = Loop(b1.xi.m, b1.xi.n_max, b1.xi.coeffs - b2.xi.coeffs)
    diff_eta = Loop(b1.eta.m, b1.eta.n_max, b1.eta.coeffs - b2.eta.coeffs)
    from .loops import sobolev_norm
    num = np.hypot(sobolev_norm(diff_xi, s), sobolev_norm(diff_eta, s))
    scale = 1.0 + max(sobolev_norm(b1.xi, s), sobolev_norm(b1.eta, s))
    return float(num / scale)


# ---------------------------------------------------------------------------
# command handlers


def _node_random_battery(opts: RunOptions, trials: int, m: int, n_max: int,
                         z_max: float, seed: int) -> list:
    rng = np.random.default_rng(seed)
    s = opts.sobolev_s
    member_max = 0.0
    roundtrip_max = 0.0
    trace_max = 0.0
    boundary_max = 0.0
    for _ in range(trials):
        chart = _random_chart(rng, m, n_max, z_max)
        boundary = node_model.node_chart(chart)
        member_max = max(member_max, node_model.node_membership(boundary, s=s).residual)
        back = node_model.node_chart_inverse(boundary, tol=1e-8, s=s)
        roundtrip_max = max(roundtrip_max, _chart_distance(chart, back))
        boundary_max = max(boundary_max, _boundary_distance(boundary, node_model.node_chart(back), s))
        poly = _random_poly(rng, m, deg=min(8, n_max))
        z = _random_disc(rng, ()) * z_max
        traces = node_model.boundary_traces(poly, z, n_max)
        trace_max = max(trace_max, node_model.node_membership(traces, s=s).residual)
    h_max = _h_reproduction_max(rng, m, n_max)
    return [
        check_residual("chart_membership_max", member_max, 1e-12),
        check_residual("chart_roundtrip_max", roundtrip_max, 1e-12),
        check_residual("trace_membership_max", trace_max, 1e-12),
        check_residual("boundary_roundtrip_max", boundary_max, 1e-10),
        check_residual("h_reproduction_max", h_max, 1e-10),
    ]


def _h_reproduction_max(rng, m: int, n_max: int, grid: int = 10) -> float:
    poly = _random_poly(rng, m, deg=min(8, n_max))

    def family(z, t):
        return node_model.node_chart_inverse(node_model.boundary_traces(poly, z, n_max), tol=1e-8)

    worst = 0.0
    radii = 0.85 * (np.arange(grid) + 0.5) / grid
    for j in range(grid):
        x = radii[j] * np.exp(2j * np.pi * j / grid)
        for k in range(grid):
            y = radii[k] * np.exp(2j * np.pi * (k + 0.3) / grid)
            hval = node_model.evaluate_H(family, x, y)
            ref = poly(x, y)
            worst = max(worst, float(np.max(np.abs(hval - ref))) / (1.0 + float(np.max(np.abs(ref)))))
    return worst


def handle_node_check(params: dict, opts: RunOptions) -> list:
    if "boundary" in params:
        boundary = _decoded(boundary_from_json, params["boundary"], "params.boundary")
        res = node_model.node_membership(boundary, tol=opts.tol, s=opts.sobolev_s)
        return [check_residual("membership", res.residual, opts.tol)]
    trials = int(_get(params, "trials", 200))
    m = int(_get(params, "m", 2))
    n_max = int(_get(params, "n_max", opts.truncation))
    z_max = float(_get(params, "z_max", 0.9))
    seed = int(_get(params, "seed", opts.seed))
    return _node_random_battery(opts, trials, m, n_max, z_max, seed)


def handle_extend_check(params: dict, opts: RunOptions) -> list:
    records_raw = _get(params, "nodes")
    if not isinstance(records_raw, list) or not records_raw:
        raise ScenarioError("params.nodes: expected a nonempty list of node records")
    ball = bool(_get(params, "ball_check", True))
    records = []
    for i, rec in enumerate(records_raw):
        where = f"params.nodes[{i}]"
        kind = _get(rec, "kind", where=where)
        xi = _decoded(loop_from_json, _get(rec, "xi", where=where), f"{where}.xi")
        eta = _decoded(loop_from_json, _get(rec, "eta", where=where), f"{where}.eta")
        try:
            if kind == "disk_pair":
                z = _decoded(complex_from_pair, _get(rec, "z", [0.0, 0.0], where), f"{where}.z")
                records.append(extension.NodeData("disk_pair", xi, eta, z=z))
            elif kind == "annulus":
                records.append(extension.NodeData("annulus", xi, eta,
                                                  delta=float(_get(rec, "delta", where=where))))
            else:
                raise ScenarioError(f"{where}.kind: expected 'disk_pair' or 'annulus', got {kind!r}")
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    report = extension.vprime_membership(records, ball_check=ball, tol=opts.tol, s=opts.sobolev_s)
    out = []
    for v in report.nodes:
        if v.ball_sup is not None:
            out.append(check_residual(f"node{v.index}_ball_sup", v.ball_sup, 1.0))
        out.append(check_residual(f"node{v.index}_{v.kind}_defect", v.defect, opts.tol))
    out.append(check_bool("vprime_member", report.member))
    return out


def handle_index(params: dict, opts: RunOptions) -> list:
    out = []
    if "triples" in params:
        for i, entry in enumerate(params["triples"]):
            where = f"params.triples[{i}]"
            basis_prime = _decoded(matrix_from_json, _get(entry, "basis_prime", where=where),
                                   f"{where}.basis_prime")
            basis_dprime = _decoded(matrix_from_json, _get(entry, "basis_dprime", where=where),
                                    f"{where}.basis_dprime")
            try:
                triple = fredholm.SubspaceTriple(int(_get(entry, "ambient_dim", where=where)),
                                                 basis_prime, basis_dprime)
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            idx = fredholm.triple_index(triple)
            out.append(check_int(f"triple{i}_euler_identity", idx.index,
                                 triple.p + triple.q - triple.ambient_dim))
            expect = entry.get("expect")
            if expect:
                out.append(check_int(f"triple{i}_dim_cap", idx.dim_cap, expect["dim_cap"]))
                out.append(check_int(f"triple{i}_codim_sum", idx.codim_sum, expect["codim_sum"]))
                out.append(check_int(f"triple{i}_index", idx.index, expect["index"]))
    if "line_bundle" in params:
        entry = params["line_bundle"]
        d_max = int(_get(entry, "d_max", 10, "params.line_bundle"))
        n_max = int(_get(entry, "n_max", 64, "params.line_bundle"))
        for d in range(d_max + 1):
            built = moduli.hardy_triple_for_line_bundle(2 * d, n_max)
            idx = fredholm.triple_index(built.triple)
            rr = moduli.riemann_roch_index(moduli.TargetData(1, 2 * d), 0, "complex")
            out.append(check_int(f"line_bundle_d{d}_index", idx.index, rr))
            out.append(check_int(f"line_bundle_d{d}_codim", idx.codim_sum, 0))
    if not out:
        raise ScenarioError("params: provide 'triples' and/or 'line_bundle'")
    return out


def handle_moduli_dim(params: dict, opts: RunOptions) -> list:
    out = []
    entries = list(params.get("entries", []))
    if params.get("builtin_table"):
        entries = list(CLASSICAL_TABLE) + entries
    contractions = params.get("contractions", [])
    if not entries and not contractions:
        raise ScenarioError("params: provide 'entries', 'builtin_table', and/or 'contractions'")
    for i, row in enumerate(entries):
        where = f"params.entries[{i}]"
        label = row.get("label", f"row{i}")
        target = moduli.TargetData(int(_get(row, "m", where=where)), int(_get(row, "c1d", where=where)))
        value = moduli.moduli_dimension(int(_get(row, "g", where=where)),
                                        int(_get(row, "n", where=where)), target)
        out.append(check_int(f"moduli_dim_{label}", value, int(_get(row, "expect", where=where))))
    for i, job in enumerate(contractions):
        where = f"params.contractions[{i}]"
        cfg = _decoded(nodal_config_from_json, _get(job, "config", where=where), f"{where}.config")
        cycles = _parse_cycles(_get(job, "cycles", where=where), f"{where}.cycles")
        label = job.get("label", f"contraction{i}")
        before = moduli.arithmetic_genus(cfg)
        try:
            after_cfg = degeneration.apply_deformation(cfg, cycles)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        out.append(check_int(f"{label}_genus_preserved", moduli.arithmetic_genus(after_cfg), before))
        if "expect_genus" in job:
            out.append(check_int(f"{label}_genus", before, int(job["expect_genus"])))
        if "expect_stable" in job:
            out.append(check_int(f"{label}_stable", int(moduli.is_stable_map(after_cfg)),
                                 int(bool(job["expect_stable"]))))
    return out


def handle_reduce(params: dict, opts: RunOptions) -> list:
    pm = _parse_polynomial_map(params)
    try:
        graph = pm.as_graph(allow_nonflat=bool(_get(params, "allow_nonflat", False)))
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    reduction = fredholm.finite_dim_reduction(graph)
    newton_cfg = _get(params, "newton", {})
    max_iter = int(newton_cfg.get("max_iter", 200))
    tol = float(newton_cfg.get("tol", 1e-12))
    out = []
    seeds = _get(params, "seeds")
    for i, seed_raw in enumerate(seeds):
        seed = _decoded(vector_from_json, seed_raw, f"params.seeds[{i}]")
        result = reduction.solve(seed, max_iter=max_iter, tol=tol)
        out.append(check_residual(f"seed{i}_newton_residual", result.residual, tol))
        if result.converged:
            tc = reduction.tangent_check(result.u)
            out.append(check_int(f"seed{i}_tangent_cap_dims", tc.dim_cap_reduced, tc.dim_cap_full))
            out.append(check_residual(f"seed{i}_tangent_cap_gap", tc.subspace_gap, 1e-6))
            out.append(check_int(f"seed{i}_quotient_dims", tc.quotient_reduced, tc.quotient_full))
    return out


def handle_intersect(params: dict, opts: RunOptions) -> list:
    pm = _parse_polynomial_map(params)
    try:
        graph = pm.as_graph(allow_nonflat=bool(_get(params, "allow_nonflat", False)))
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    seed = _decoded(vector_from_json, _get(params, "seed"), "params.seed")
    max_iter = int(_get(params, "max_iter", 200))
    tol = float(_get(params, "tol", 1e-12))
    result = fredholm.intersect_newton(graph, seed, max_iter=max_iter, tol=tol)
    return [
        check_bool("newton_converged", result.converged),
        check_residual("newton_residual", result.residual, tol),
    ]


def _parse_z_seq(data, where: str) -> tuple:
    if isinstance(data, dict) and "geometric" in data:
        geo = data["geometric"]
        start = float(_get(geo, "start", 0.5, where))
        ratio = float(_get(geo, "ratio", 0.5, where))
        count = int(_get(geo, "count", 34, where))
        if not (0 < ratio < 1) or not (0 < start < 1):
            raise ScenarioError(f"{where}: geometric sequence needs start, ratio in (0,1)")
        return tuple(start * ratio**k for k in range(count))
    if isinstance(data, list):
        return tuple(_decoded(vector_from_json, data, where).tolist())
    raise ScenarioError(f"{where}: expected a list of [re,im] pairs or a geometric sequence")


def handle_energy(params: dict, opts: RunOptions) -> list:
    z_seq = _parse_z_seq(_get(params, "z_seq"), "params.z_seq")
    if "laurents" in params:
        polys = tuple(_parse_poly(p, f"params.laurents[{i}]") for i, p in enumerate(params["laurents"]))
        if len(polys) != len(z_seq):
            raise ScenarioError("params.laurents: need one Laurent datum per z")
        try:
            fam = degeneration.NeckFamily(z_seq, polys)
        except ValueError as exc:
            raise ScenarioError(f"params: {exc}") from exc
    else:
        poly = _parse_poly(_get(params, "laurent"), "params.laurent")
        try:
            fam = degeneration.NeckFamily.from_constant(poly, z_seq)
        except ValueError as exc:
            raise ScenarioError(f"params: {exc}") from exc
    eps_schedule = [float(e) for e in _get(params, "eps_schedule", [1e-1, 1e-2, 1e-3, 1e-4])]
    energy_tol = float(_get(params, "energy_tol", 1e-6))
    n_max = int(_get(params, "n_max", opts.truncation))
    try:
        report = degeneration.energy_axiom_check(fam, eps_schedule, tol=energy_tol, n_max=n_max)
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    out = []
    for row in report.rows:
        neck = degeneration.neck_laurent(fam.polys[row.k_index], fam.z_seq[row.k_index], n_max)
        quad = degeneration.annulus_energy_quadrature(neck, row.z_abs / row.eps, row.eps)
        rel = abs(row.energy - quad) / (1.0 + abs(quad))
        out.append(check_residual(f"eps{row.eps:g}_quadrature_agreement", rel, 1e-8))
        out.append(check_bool(f"eps{row.eps:g}_k_limit_stable", row.stable))
    expect_pass = bool(_get(params, "expect_pass", True))
    out.append(check_int("energy_axiom_verdict", int(report.passed), int(expect_pass)))
    return out


# ---------------------------------------------------------------------------
# verification suites


def suite_node(opts: RunOptions) -> list:
    return _node_random_battery(opts, trials=300, m=2, n_max=opts.truncation,
                                z_max=0.9, seed=opts.seed)


def suite_extension(opts: RunOptions) -> list:
    rng = np.random.default_rng(opts.seed)
    s = opts.sobolev_s
    n_max = 12
    agreements = 0
    trials = 1000
    for _ in range(trials):
        if rng.uniform() < 0.5:
            boundary = node_model.node_chart(_random_chart(rng, 1, n_max, 0.0))
            xi, eta = boundary.xi, boundary.eta
        else:
            xi = Loop(1, n_max, _random_disc(rng, (2 * n_max + 1, 1)))
            eta = Loop(1, n_max, _random_disc(rng, (2 * n_max + 1, 1)))
        pair = extension.disk_pair_node_test(xi, eta, tol=opts.tol, s=s)
        mem = node_model.node_membership(NodeBoundary(0j, xi, eta), tol=opts.tol, s=s)
        if pair.extends == mem.member:
            agreements += 1
    checks = [check_int("disk_pair_vs_membership_agreement", agreements, trials)]

    sym_max = 0.0
    restriction_max = 0.0
    for _ in range(200):
        delta = float(rng.uniform(0.15, 0.85))
        coeffs = _random_disc(rng, (2 * n_max + 1, 1))
        laurent = Loop(1, n_max, coeffs)
        xi = laurent
        eta_modes = {}
        for n in range(-n_max, n_max + 1):
            eta_modes[n] = laurent.mode(-n) * delta ** float(-n)
        eta = Loop.from_modes(1, n_max, eta_modes)
        fwd = extension.annulus_extension_test(xi, eta, delta, tol=opts.tol, s=s)
        rev = extension.annulus_extension_test(eta, xi, delta, tol=opts.tol, s=s)
        sym_max = max(sym_max, abs(fwd.defect - rev.defect) / (1.0 + fwd.defect))
        restriction_max = max(restriction_max, fwd.defect)
    checks.append(check_residual("annulus_swap_symmetry_max", sym_max, 1e-12))
    checks.append(check_residual("laurent_restriction_defect_max", restriction_max, 1e-12))
    return checks


def suite_fredholm(opts: RunOptions) -> list:
    rng = np.random.default_rng(opts.seed)
    violations = 0
    for _ in range(1000):
        N = int(rng.integers(2, 12))
        p = int(rng.integers(0, N + 1))
        q = int(rng.integers(0, N + 1))
        bp = _random_disc(rng, (N, p)) if p else np.zeros((N, 0), complex)
        bq = _random_disc(rng, (N, q)) if q else np.zeros((N, 0), complex)
        try:
            t = fredholm.SubspaceTriple(N, bp, bq)
        except ValueError:
            violations += 1
            continue
        if fredholm.triple_index(t).index != p + q - N:
            violations += 1
    checks = [check_int("euler_identity_violations", violations, 0)]

    stable = 0
    for trial in range(100):
        t = fredholm.SubspaceTriple(8, _random_disc(rng, (8, 3)), _random_disc(rng, (8, 3)))
        if fredholm.index_stability_check(t, 1e-6, trials=20, seed=opts.seed + trial):
            stable += 1
    checks.append(check_int("generic_stability_count", stable, 100))

    for case_idx, (pm, seeds) in enumerate(fredholm.polynomial_test_set()):
        reduction = fredholm.finite_dim_reduction(pm.as_graph())
        for seed_idx, seed in enumerate(seeds):
            result = reduction.solve(seed, max_iter=300, tol=1e-12)
            prefix = f"polyset{case_idx}_seed{seed_idx}"
            checks.append(check_residual(f"{prefix}_newton_residual", result.residual, 1e-12))
            tc = reduction.tangent_check(result.u)
            checks.append(check_int(f"{prefix}_tangent_cap", tc.dim_cap_reduced, tc.dim_cap_full))
            checks.append(check_residual(f"{prefix}_tangent_gap", tc.subspace_gap, 1e-6))
            checks.append(check_int(f"{prefix}_quotient", tc.quotient_reduced, tc.quotient_full))
    return checks


def suite_index(opts: RunOptions) -> list:
    checks = handle_index({"line_bundle": {"d_max": 10, "n_max": 64}}, opts)
    for m in (1, 2, 3):
        idx = fredholm.triple_index(moduli.hardy_sphere_triple(m, 32))
        checks.append(check_int(f"hardy_sphere_m{m}_dim_cap", idx.dim_cap, m))
        checks.append(check_int(f"hardy_sphere_m{m}_codim", idx.codim_sum, 0))
        checks.append(check_int(f"hardy_sphere_m{m}_index", idx.index, m))
    checks.extend(handle_moduli_dim({"builtin_table": True}, opts))
    rng = np.random.default_rng(opts.seed)
    identity_violations = 0
    for _ in range(1000):
        g = int(rng.integers(0, 7))
        n = int(rng.integers(0, 7))
        target = moduli.TargetData(int(rng.integers(0, 6)), int(rng.integers(-12, 13)))
        lhs = moduli.moduli_dimension(g, n, target)
        rhs = moduli.riemann_roch_index(target, g, "complex") + moduli.teichmuller_dim(g, n)
        if lhs != rhs:
            identity_violations += 1
        k = int(rng.integers(0, 5))
        if moduli.core_slice_dims(g, n, k, target)[1] + k != lhs:
            identity_violations += 1
    checks.append(check_int("dimension_identity_violations", identity_violations, 0))
    for (g, n), (name, dim) in {(0, 0): ("PSL(2,C)", 3), (0, 1): ("C* x| C", 2),
                                (0, 2): ("C*", 1), (1, 0): ("T^2", 1), (2, 0): ("trivial", 0),
                                (1, 3): ("trivial", 0)}.items():
        got = moduli.isotropy_group(g, n)
        checks.append(check_int(f"isotropy_g{g}n{n}_dim", got.complex_dim, dim))
        checks.append(check_bool(f"isotropy_g{g}n{n}_name", got.name == name))
    return checks


def suite_energy(opts: RunOptions) -> list:
    z_seq = tuple(2.0 ** (-k) for k in range(1, 49))
    poly = NodePolynomial(np.array([[1.0 + 0j]]), np.zeros((0, 1), complex), np.zeros(1, complex))
    fam = degeneration.NeckFamily.from_constant(poly, z_seq)
    eps_schedule = [1e-1, 1e-2, 1e-3, 1e-4]
    report = degeneration.energy_axiom_check(fam, eps_schedule, tol=1e-6, n_max=8)
    checks = [check_bool("monomial_family_passes", report.passed)]
    closed_max = 0.0
    for row in report.rows:
        closed_max = max(closed_max, abs(row.energy - np.pi * row.eps**2) / (np.pi * row.eps**2))
    checks.append(check_residual("monomial_k_limit_vs_pi_eps2", closed_max, 1e-8))
    row = report.rows[0]
    neck = degeneration.neck_laurent(poly, z_seq[row.k_index], 8)
    quad = degeneration.annulus_energy_quadrature(neck, row.z_abs / row.eps, row.eps)
    checks.append(check_residual("quadrature_agreement", abs(quad - row.energy) / (1.0 + abs(row.energy)), 1e-8))
    # fixed neck coefficient a_{-1} = 1: energy concentrates and diverges
    divergent = degeneration.NeckFamily(
        z_seq, tuple(NodePolynomial(np.zeros((0, 1), complex),
                                    np.array([[1.0 / z]], dtype=complex),
                                    np.zeros(1, complex)) for z in z_seq))
    counter = degeneration.energy_axiom_check(divergent, eps_schedule, tol=1e-6, n_max=8)
    checks.append(check_bool("divergent_family_fails", not counter.passed))
    return checks


def _suite_genus_invariance(opts: RunOptions) -> list:
    violations = 0
    cases = 0
    for comps, nodes in _small_dual_graphs(max_components=3, max_nodes=3):
        cfg = moduli.NodalConfig(comps, nodes)
        base = moduli.arithmetic_genus(cfg)
        for i, comp in enumerate(cfg.components):
            if comp.genus >= 1:
                out = degeneration.apply_deformation(cfg, [degeneration.NonseparatingCycle(i)])
                cases += 1
                if moduli.arithmetic_genus(out) != base:
                    violations += 1
        out = degeneration.apply_deformation(cfg, [degeneration.SeparatingCycle(0, 0)])
        cases += 1
        if moduli.arithmetic_genus(out) != base:
            violations += 1
    return [check_int("genus_invariance_violations", violations, 0),
            check_bool("genus_invariance_cases_nonempty", cases > 0)]


def _small_dual_graphs(max_components: int, max_nodes: int, genera=(0, 1, 2)):
    """Connected dual graphs: all genus assignments and node multigraphs."""
    from itertools import combinations_with_replacement, product

    for c in range(1, max_components + 1):
        slots = [(i, j) for i in range(c) for j in range(i, c)]
        for k in range(0, max_nodes + 1):
            for edges in combinations_with_replacement(slots, k):
                counters = [0] * c
                nodes = []
                for i, j in edges:
                    pid_i = counters[i]
                    counters[i] += 1
                    pid_j = counters[j]
                    counters[j] += 1
                    nodes.append(((i, pid_i), (j, pid_j)))
                nodes = tuple(nodes)
                try:
                    moduli.NodalConfig((moduli.Component(0),) * c, nodes)
                except ValueError:  # disconnected dual graph
                    continue
                for genus_vec in product(genera, repeat=c):
                    yield tuple(moduli.Component(g) for g in genus_vec), nodes


def verify_suite(suite: str, opts: RunOptions | None = None) -> list:
    """Run one named verification suite (or 'all'); returns check records."""
    opts = opts or RunOptions()
    if suite not in SUITES:
        raise ScenarioError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runners = {
        "node": suite_node,
        "extension": suite_extension,
        "fredholm": suite_fredholm,
        "index": suite_index,
        "energy": suite_energy,
    }
    if suite != "all":
        return runners[suite](opts)
    out = []
    for name, runner in runners.items():
        out.extend(CheckRecord(f"{name}.{c.name}", c.status, c.tol, c.residual, c.value, c.expected)
                   for c in runner(opts))
    out.extend(_suite_genus_invariance(opts))
    return out


# ---------------------------------------------------------------------------
# scenario plumbing

HANDLERS = {
    "node-check": handle_node_check,
    "extend-check": handle_extend_check,
    "index": handle_index,
    "reduce": handle_reduce,
    "intersect": handle_intersect,
    "energy": handle_energy,
    "moduli-dim": handle_moduli_dim,
}


def _load_scenario(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
        label = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        label = path
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{label}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{label}: scenario root must be a JSON object")
    return data


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_scenario(path: str, command: str, opts: RunOptions,
                 scenario_id: str | None = None) -> ScenarioReport:
    """Load a scenario file, dispatch to its handler, and assemble a report."""
    data = _load_scenario(path)
    declared = data.get("command")
    if declared is not None and declared != command:
        raise ScenarioError(f"scenario declares command {declared!r} but was invoked as {command!r}")
    params = data.get("params")
    if not isinstance(params, dict):
        raise ScenarioError("scenario: missing object field 'params'")
    sid = scenario_id or data.get("id") or (path if path != "-" else "stdin")
    start = time.perf_counter()
    results = HANDLERS[command](params, opts)
    wall = time.perf_counter() - start
    return ScenarioReport(sid, command, _digest({"command": command, "params": params}),
                          tuple(results), wall)


def _emit_report(report: ScenarioReport, stream) -> int:
    failures = 0
    inconclusive = 0
    for check in report.results:
        line = {"scenario": report.scenario_id, "check": check.name,
                "status": check.status, "tol": check.tol}
        if check.residual is not None:
            line["residual"] = check.residual
        if check.value is not None:
            line["value"] = check.value
        if check.expected is not None:
            line["expected"] = check.expected
        stream.write(json.dumps(line, sort_keys=True) + "\n")
        if check.status == "fail":
            failures += 1
        elif check.status == "inconclusive":
            inconclusive += 1
    summary = {
        "scenario": report.scenario_id, "command": report.command,
        "inputs_digest": report.inputs_digest, "checks": len(report.results),
        "failures": failures, "inconclusive": inconclusive,
        "wall_time_s": round(report.wall_time_s, 6),
    }
    stream.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0 if failures == 0 and inconclusive == 0 else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hardyglue",
                                     description="Hardy-space node model and Fredholm "
                                                 "intersection verification runner")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--truncation", type=int, default=32, help="Fourier truncation order N")
    common.add_argument("--sobolev-s", type=float, default=1.5, dest="sobolev_s",
                        help="Sobolev exponent for residual norms")
    common.add_argument("--tol", type=float, default=1e-10, help="relative residual tolerance")
    common.add_argument("--seed", type=int, default=7, help="seed for randomized batteries")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, parents=[common], help=f"run a {name} scenario file")
        p.add_argument("path", help="scenario JSON file, or '-' for stdin")
        p.add_argument("--id", default=None, help="override the scenario id")
    v = sub.add_parser("verify", parents=[common], help="run built-in verification suites")
    v.add_argument("suite", choices=SUITES)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    opts = RunOptions(truncation=args.truncation, sobolev_s=args.sobolev_s,
                      tol=args.tol, seed=args.seed)
    try:
        if args.subcommand == "verify":
            start = time.perf_counter()
            results = verify_suite(args.suite, opts)
            report = ScenarioReport(f"verify-{args.suite}", "verify",
                                    _digest({"suite": args.suite}), tuple(results),
                                    time.perf_counter() - start)
        else:
            report = run_scenario(args.path, args.subcommand, opts, scenario_id=args.id)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_report(report, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
