"""Scenario runner: loads JSON scenarios, dispatches to the compute
modules, and emits JSON-lines reports (one check per line plus a summary).

The field tables next to `HANDLERS` are the schema of a scenario:
`jsonio._record` reads each record through its table, and a key outside the
table is an error.  A report's ``inputs_digest`` is the sha256 of one
canonical JSON line (the command, the suite for ``verify``, and the four run
options) followed by the scenario text as read.

Exit codes: 0 when every check passes, 1 when any check fails or is
inconclusive, 2 on a flag argparse rejects or a `ScenarioError`, whose error
line names the path of the first bad record, field or value.

`main` may be called repeatedly in one process: the argument parser is
built once, on the first call, and keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import degeneration, extension, fredholm, jsonio, moduli, node_model
from .jsonio import (_REQUIRED, ScenarioError, _any, _boolean, _built, _integer, _list_of, _loop, _matrix, _model,
                     _number, _pair, _quoted, _record, _string, _vector)
from .node_model import NodePolynomial

__all__ = ["main", "run_scenario", "verify_suite", "ScenarioError", "ScenarioReport", "CheckRecord"]

# classical dimension counts frozen against the closed formulas
CLASSICAL_TABLE = (
    {"label": "lines-in-P2", "g": 0, "n": 0, "m": 2, "c1d": 3, "expect": 2},
    {"label": "conics-in-P2", "g": 0, "n": 0, "m": 2, "c1d": 6, "expect": 5},
    {"label": "DM-genus-2", "g": 2, "n": 0, "m": 0, "c1d": 0, "expect": 3},
    {"label": "DM-genus-3", "g": 3, "n": 0, "m": 0, "c1d": 0, "expect": 6},
    {"label": "DM-genus-4", "g": 4, "n": 0, "m": 0, "c1d": 0, "expect": 9},
    {"label": "DM-genus-5", "g": 5, "n": 0, "m": 0, "c1d": 0, "expect": 12},
)


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
    """The four run options; each flag of the parser defaults to its field."""

    truncation: int = 32
    sobolev_s: float = node_model.DEFAULT_SOBOLEV_S
    tol: float = node_model.DEFAULT_TOL
    seed: int = 7


def check_residual(name: str, residual: float, tol: float) -> CheckRecord:
    """Pass iff ``residual <= tol``; a residual that is not finite decides
    nothing, so its check is inconclusive and carries no residual."""
    if not math.isfinite(residual):
        return CheckRecord(name, "inconclusive", float(tol))
    status = "pass" if residual <= tol else "fail"
    return CheckRecord(name, status, float(tol), residual=float(residual))


def check_int(name: str, value: int, expected: int) -> CheckRecord:
    status = "pass" if int(value) == int(expected) else "fail"
    return CheckRecord(name, status, 0.0, value=int(value), expected=int(expected))


def check_bool(name: str, ok: bool) -> CheckRecord:
    status = "pass" if ok else "fail"
    return CheckRecord(name, status, 0.0, value=int(bool(ok)), expected=1)


# ---------------------------------------------------------------------------
# parameter parsing helpers


class _OutOfRange(ValueError, argparse.ArgumentTypeError):
    """A value outside its range: `jsonio._read` quotes it after the
    field's path, argparse after the flag."""


def _within(conv, low, rule: str, below=math.inf):
    """``conv`` followed by the test ``low <= value < below``; a value outside
    is an `_OutOfRange` quoting ``rule``.  Also an argparse ``type``, where
    a value ``conv`` rejects reads as an invalid ``conv`` value."""
    def checked(data, where=None):
        value = conv(data)
        if not low <= value < below:
            raise _OutOfRange(f"expected {rule}")
        return value
    checked.__name__ = conv.__name__
    return checked


_COUNT = _within(_integer, 0, "an integer >= 0")
_SIZE = _within(_number, 0.0, "a number in [0, inf)")


def _bare_pair(data) -> bool:
    return isinstance(data, list) and bool(data) and isinstance(data[0], (int, float))


def _parse_coeff_rows(data, where: str) -> np.ndarray:
    """Rows of coefficient vectors; bare [re,im] rows mean m=1."""
    if isinstance(data, list):
        data = [[row] if _bare_pair(row) else row for row in data]
    return jsonio.matrix_from_json(data, where)


def _constant(data, where: str) -> np.ndarray:
    """The constant of a `NodePolynomial`; a bare [re,im] pair means m=1."""
    if _bare_pair(data):
        return np.array([jsonio.complex_from_pair(data, where)])
    return jsonio.vector_from_json(data, where)


def _cycle(data, where: str):
    """A vanishing cycle: field ``kind`` picks the table that reads the
    record, ``kind`` among its fields, and the model built from the rest."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got {_quoted(data)}")
    kind = data.get("kind")
    if kind not in ("nonseparating", "separating"):
        raise ScenarioError(f"{where}.kind: expected 'nonseparating' or 'separating', got {_quoted(kind)}")
    record = _record(data, _CYCLES[kind], where)
    del record["kind"]
    return _built(_CYCLE_MODELS[kind], where, **record)


def _node_kind(data, where: str) -> str:
    """The ``kind`` of an `extension.NodeData` record."""
    if data not in ("disk_pair", "annulus"):
        raise ScenarioError(f"{where}: expected 'disk_pair' or 'annulus', got {_quoted(data)}")
    return data


def _z_seq(data, where: str) -> tuple:
    """Gluing parameters: a list of [re,im] pairs, or a geometric sequence."""
    if not isinstance(data, dict):
        return tuple(jsonio.vector_from_json(data, where).tolist())
    geo = _record(data, _Z_SEQ, where)["geometric"]
    start, ratio, count = geo["start"], geo["ratio"], geo["count"]
    if not (0 < ratio < 1) or not (0 < start < 1):
        raise ScenarioError(f"{where}: geometric sequence needs start, ratio in (0,1)")
    # a count past the fall to 0.0 (1,075 terms at start = ratio = 0.5) fails at its last
    # pair, read before the tuple is built; past 2**63 steps every power is 0.0
    term = lambda k: start * ratio ** min(k, 2 ** 63)
    if count > 1 and term(count - 1) >= term(count - 2):
        raise ScenarioError(f"{where}: gluing parameter magnitudes must be strictly decreasing; geometric terms "
                            f"{count - 2} and {count - 1} are {term(count - 2)!r} and {term(count - 1)!r}")
    return tuple(term(k) for k in range(count))


def _graph(params: dict) -> fredholm.GraphPairLocal:
    """The graph pair of the polynomial map read by the `_MAP` fields."""
    terms = tuple(tuple((t["c"], t["u"], t["xp"]) for t in comp) for comp in params["components"])
    pm = _built(fredholm.PolynomialMap, "params", params["dims"], terms)
    return _built(pm.as_graph, "params", allow_nonflat=params["allow_nonflat"])


# ---------------------------------------------------------------------------
# random data generators (shared by node-check and the verify suites)


def _disc(u, shape, radius=1.0):
    """Points ``radius * sqrt(u_r) * exp(1j * 2pi * u_phi)`` of ``shape``
    from each row of the doubles ``u`` (..., 2n), n the size of ``shape``:
    the r block, then the phi block.  Numpy's ``uniform(low, high)`` is
    ``low + (high - low) * random()``, so these are the bits of two
    ``uniform`` draws of ``shape`` over the same doubles."""
    lead = u.shape[:-1]
    n = u.shape[-1] // 2
    r = radius * np.sqrt(u[..., :n].reshape(lead + shape))
    return r * np.exp(1j * (2.0 * np.pi * u[..., n:].reshape(lead + shape)))


def _random_disc(rng, shape, radius=1.0):
    return _disc(rng.random(2 * math.prod(shape)), shape, radius)


def _random_poly(rng, m: int, deg: int) -> NodePolynomial:
    return NodePolynomial(_random_disc(rng, (deg, m)), _random_disc(rng, (deg, m)),
                          _random_disc(rng, (m,)))


# ---------------------------------------------------------------------------
# command handlers

# Coefficients per stack in one pass of a random battery: 32 trials of the
# node battery at N = 32, m = 2, or 166 disk pairs of the extension suite.
# Sizing the block in coefficients keeps a battery's traced peak near 1 MB
# whatever N and m are (a fixed 32 trials would take 9 MB at N = 512), and
# each pass still spans enough trials to spread its fixed cost.
_BLOCK_COEFFS = 32 * 65 * 2


def _node_random_battery(opts: RunOptions, trials: int, m: int, n_max: int,
                         z_max: float, seed: int) -> list:
    """The node battery: `node_model.node_battery_residuals` over
    ``trials`` random trials, in blocks of up to `_BLOCK_COEFFS`
    coefficients per stack, then `node_model.h_reproduction_gaps` of a
    random polynomial.  A block's draws are one array, a row per trial cut
    in the order of its draws: a chart ``(z, xi_+ rows, eta_+ rows, lam)``,
    a polynomial ``(a, b, c)`` and the ``z`` of its traces."""
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_COEFFS // ((2 * n_max + 1) * m))
    deg = min(8, n_max)
    shapes = ((), (n_max, m), (n_max, m), (m,), (deg, m), (deg, m), (m,), ())
    cuts = np.cumsum([0] + [2 * math.prod(shape) for shape in shapes]).tolist()
    worst = [0.0] * 4
    for start in range(0, trials, block):
        u = rng.random((min(block, trials - start), cuts[-1]))
        z, xi_rows, eta_rows, lam, a, b, c, z_trace = (
            _disc(u[:, i:j], shape) for i, j, shape in zip(cuts, cuts[1:], shapes))
        del u
        residuals = node_model.node_battery_residuals((z * z_max, xi_rows, eta_rows, lam),
                                                      (z_trace * z_max, a, b, c), n_max, opts.sobolev_s)
        worst = [max([w, *values.tolist()]) for w, values in zip(worst, residuals)]
    h_max = float(np.max(node_model.h_reproduction_gaps(_random_poly(rng, m, deg)), initial=0.0))
    return [
        check_residual("chart_membership_max", worst[0], 1e-12),
        check_residual("chart_roundtrip_max", worst[1], 1e-12),
        check_residual("trace_membership_max", worst[3], 1e-12),
        check_residual("boundary_roundtrip_max", worst[2], 1e-10),
        check_residual("h_reproduction_max", h_max, 1e-10),
    ]


def handle_node_check(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["node-check"], "params")
    if p["boundary"] is not None:
        res = node_model.node_membership(p["boundary"], tol=opts.tol, s=opts.sobolev_s)
        return [check_residual("membership", res.residual, opts.tol)]
    n_max = opts.truncation if p["n_max"] is None else p["n_max"]
    seed = opts.seed if p["seed"] is None else p["seed"]
    return _built(_node_random_battery, "params", opts, p["trials"], p["m"], n_max, p["z_max"], seed)


def handle_extend_check(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["extend-check"], "params")
    if not p["nodes"]:
        raise ScenarioError("params.nodes: expected a nonempty list of node records")
    report = extension.vprime_membership(p["nodes"], ball_check=p["ball_check"], tol=opts.tol, s=opts.sobolev_s)
    out = []
    for v in report.nodes:
        if v.ball_sup is not None:
            out.append(check_residual(f"node{v.index}_ball_sup", v.ball_sup, 1.0))
        out.append(check_residual(f"node{v.index}_{v.kind}_defect", v.defect, opts.tol))
    out.append(check_bool("vprime_member", report.member))
    return out


def handle_index(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["index"], "params")
    out = []
    for i, entry in enumerate(p["triples"]):
        triple = _built(fredholm.SubspaceTriple, f"params.triples[{i}]", entry["ambient_dim"],
                        entry["basis_prime"], entry["basis_dprime"])
        idx = fredholm.triple_index(triple)
        out.append(check_int(f"triple{i}_euler_identity", idx.index, triple.p + triple.q - triple.ambient_dim))
        for key, expected in (entry["expect"] or {}).items():
            out.append(check_int(f"triple{i}_{key}", getattr(idx, key), expected))
    bundle = p["line_bundle"]
    if bundle is not None:
        for d in range(bundle["d_max"] + 1):
            triple = _built(moduli.hardy_triple_for_line_bundle, "params.line_bundle", 2 * d, bundle["n_max"])
            idx = fredholm.triple_index(triple)
            rr = moduli.riemann_roch_index(moduli.TargetData(1, 2 * d), 0)
            out.append(check_int(f"line_bundle_d{d}_index", idx.index, rr))
            out.append(check_int(f"line_bundle_d{d}_codim", idx.codim_sum, 0))
    if not out:
        raise ScenarioError("params: provide 'triples' and/or 'line_bundle'")
    return out


def handle_moduli_dim(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["moduli-dim"], "params")
    if not (p["entries"] or p["builtin_table"] or p["contractions"]):
        raise ScenarioError("params: provide 'entries', 'builtin_table', and/or 'contractions'")
    rows = [(row, row["label"], "params") for row in CLASSICAL_TABLE] if p["builtin_table"] else []
    rows += [(row, f"row{i}" if row["label"] is None else row["label"], f"params.entries[{i}]")
             for i, row in enumerate(p["entries"])]
    out = []
    for row, label, where in rows:
        target = _built(moduli.TargetData, where, row["m"], row["c1d"])
        value = moduli.moduli_dimension(row["g"], row["n"], target)
        out.append(check_int(f"moduli_dim_{label}", value, row["expect"]))
    for i, job in enumerate(p["contractions"]):
        label = f"contraction{i}" if job["label"] is None else job["label"]
        before = moduli.arithmetic_genus(job["config"])
        after_cfg = _built(degeneration.apply_deformation, f"params.contractions[{i}]", job["config"], job["cycles"])
        out.append(check_int(f"{label}_genus_preserved", moduli.arithmetic_genus(after_cfg), before))
        if job["expect_genus"] is not None:
            out.append(check_int(f"{label}_genus", before, job["expect_genus"]))
        if job["expect_stable"] is not None:
            out.append(check_int(f"{label}_stable", int(moduli.is_stable_map(after_cfg)), int(job["expect_stable"])))
    return out


def handle_reduce(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["reduce"], "params")
    reduction = fredholm.FiniteDimReduction(_graph(p))
    max_iter, tol = p["newton"]["max_iter"], p["newton"]["tol"]
    out = []
    for i, seed in enumerate(p["seeds"]):
        result = _built(reduction.solve, f"params.seeds[{i}]", seed, max_iter=max_iter, tol=tol)
        out.append(check_residual(f"seed{i}_newton_residual", result.residual, tol))
        if result.converged:
            tc = reduction.tangent_check(result.u)
            out.append(check_int(f"seed{i}_tangent_cap_dims", tc.dim_cap_reduced, tc.dim_cap_full))
            out.append(check_residual(f"seed{i}_tangent_cap_gap", tc.subspace_gap, 1e-6))
            out.append(check_int(f"seed{i}_quotient_dims", tc.quotient_reduced, tc.quotient_full))
    return out


def handle_intersect(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["intersect"], "params")
    result = _built(fredholm.intersect_newton, "params.seed", _graph(p), p["seed"],
                    max_iter=p["max_iter"], tol=p["tol"])
    return [
        check_bool("newton_converged", result.converged),
        check_residual("newton_residual", result.residual, p["tol"]),
    ]


def handle_energy(params: dict, opts: RunOptions) -> list:
    p = _record(params, FIELDS["energy"], "params")
    if p["laurents"] is not None and p["laurent"] is not None:
        raise ScenarioError("params: give one of 'laurents' and 'laurent', not both")
    if p["laurents"] is not None:
        fam = _built(degeneration.NeckFamily, "params", p["z_seq"], p["laurents"])
    elif p["laurent"] is not None:
        fam = _built(degeneration.NeckFamily.from_constant, "params", p["laurent"], p["z_seq"])
    else:
        raise ScenarioError("params: missing field 'laurent'")
    n_max = opts.truncation if p["n_max"] is None else p["n_max"]
    report = _built(degeneration.energy_axiom_check, "params", fam, p["eps_schedule"],
                    tol=p["energy_tol"], n_max=n_max)
    out = []
    for row, gap in zip(report.rows, degeneration.quadrature_gaps(report)):
        out.append(check_residual(f"eps{row.eps:g}_quadrature_agreement", gap,
                                  degeneration.QUADRATURE_TOL))
        out.append(check_bool(f"eps{row.eps:g}_k_limit_stable", row.stable))
    out.append(check_int("energy_axiom_verdict", int(report.passed), int(p["expect_pass"])))
    return out


# ---------------------------------------------------------------------------
# verification suites


def suite_node(opts: RunOptions) -> list:
    return _node_random_battery(opts, trials=300, m=2, n_max=opts.truncation,
                                z_max=0.9, seed=opts.seed)


def suite_extension(opts: RunOptions) -> list:
    """`extension.disk_pair_residuals` of 1,000 disk pairs, then
    `extension.annulus_pair_residuals` of 200 annulus pairs, in blocks of
    up to `_BLOCK_COEFFS` coefficients per stack, each block's draws one
    array cut in the order of the per-trial draws."""
    rng = np.random.default_rng(opts.seed)
    n_max = 12
    block = _BLOCK_COEFFS // (2 * n_max + 1)
    agreements = 0
    for start in range(0, 1000, block):
        residuals, exact = extension.disk_pair_residuals(*_disk_pair_block(rng, min(block, 1000 - start), n_max),
                                                         opts.sobolev_s)
        agreements += int(np.count_nonzero((residuals <= opts.tol) == exact))
    worst = [0.0, 0.0]
    for start in range(0, 200, block):
        residuals = extension.annulus_pair_residuals(*_annulus_block(rng, min(block, 200 - start), n_max),
                                                     opts.sobolev_s)
        worst = [max([w, *values.tolist()]) for w, values in zip(worst, residuals)]
    return [check_int("disk_pair_vs_membership_agreement", agreements, 1000),
            check_residual("annulus_swap_symmetry_max", worst[0], 1e-12),
            check_residual("laurent_restriction_defect_max", worst[1], 1e-12)]


def _disk_pair_block(rng, trials: int, n_max: int) -> tuple:
    """Draw ``trials`` disk pairs of order ``n_max``, each a chart at ``z =
    0`` or a random pair with even odds: ``(charted, charts, pairs)`` for
    `extension.disk_pair_residuals`.  A trial takes a coin, then a chart
    ``(z, xi_+ rows, eta_+ rows, lam)`` (``z`` unused) or two random loops.
    The coins are walked in a draw of the most the block can take; the
    generator is then put back and draws exactly what the trials take."""
    width = 2 * n_max + 1
    sizes = (4 * n_max + 4, 4 * width)  # chart, pair
    state = rng.bit_generator.state
    bound = rng.random(trials * (1 + sizes[1]))
    starts, end = [], 0
    for _ in range(trials):
        starts.append(end + 1)
        end += 1 + (sizes[0] if bound[end] < 0.5 else sizes[1])
    del bound  # freed before the second draw: holding both raised the peak RSS of verify all by 0.2 MB
    rng.bit_generator.state = state
    u = rng.random(end)
    starts = np.array(starts)
    charted = u[starts - 1] < 0.5
    pairs = _disc(u[starts[~charted, None] + np.arange(sizes[1])].reshape(-1, 2, 2 * width), (width, 1))
    rows = u[starts[charted, None] + np.arange(sizes[0])]
    charts = (*(_disc(rows[:, i:i + 2 * n_max], (n_max, 1)) for i in (2, 2 + 2 * n_max)),
              _disc(rows[:, -2:], (1,)))
    return charted, charts, pairs


def _annulus_block(rng, pairs: int, n_max: int) -> tuple:
    """Draw ``pairs`` annulus pairs, a modulus in [0.15, 0.85) and a random
    Laurent loop each, for `extension.annulus_pair_residuals`."""
    u = rng.random((pairs, 4 * n_max + 3))
    return 0.15 + (0.85 - 0.15) * u[:, 0], _disc(u[:, 1:], (2 * n_max + 1, 1))


def suite_fredholm(opts: RunOptions) -> list:
    rng = np.random.default_rng(opts.seed)
    violations = 0
    # the Euler battery draws N, p and q as arrays, then each (N, p + q)
    # group's [B' | B''] in one array, split at p; it builds one N at a time,
    # which keeps the peak small
    dims = rng.integers(1, 12, 1000)
    p, q = rng.integers(0, dims + 1), rng.integers(0, dims + 1)
    groups = {}  # N -> p + q -> its trials, in order
    for i, (N, width) in enumerate(zip(dims.tolist(), (p + q).tolist())):
        groups.setdefault(N, {}).setdefault(width, []).append(i)
    p = p.tolist()
    for N, widths in sorted(groups.items()):
        triples = []
        for width, at in sorted(widths.items()):
            for i, b in zip(at, _disc(rng.random((len(at), 2 * N * width)), (N, width))):
                triples.append((N, b[:, :p[i]], b[:, p[i]:]))
        for (_, bp, bq), t in zip(triples, fredholm.subspace_triples(triples)):
            if isinstance(t, ValueError) or fredholm.triple_index(t).index != bp.shape[1] + bq.shape[1] - N:
                violations += 1
    checks = [check_int("euler_identity_violations", violations, 0)]

    stable = 0
    bases = _disc(rng.random((100, 2, 48)), (8, 3))
    for trial, t in enumerate(fredholm.subspace_triples((8, bp, bq) for bp, bq in bases)):
        if fredholm.index_stability_check(t, 1e-6, trials=20, seed=opts.seed + trial):
            stable += 1
    checks.append(check_int("generic_stability_count", stable, 100))

    for case_idx, (pm, seeds) in enumerate(fredholm.polynomial_test_set()):
        reduction = fredholm.FiniteDimReduction(pm.as_graph())
        for seed_idx, seed in enumerate(seeds):
            result = reduction.solve(seed, max_iter=300, tol=1e-12)
            prefix = f"polyset{case_idx}_seed{seed_idx}"
            checks.append(check_residual(f"{prefix}_newton_residual", result.residual, 1e-12))
            tc = reduction.tangent_check(result.u)
            checks.append(check_int(f"{prefix}_tangent_cap", tc.dim_cap_reduced, tc.dim_cap_full))
            checks.append(check_residual(f"{prefix}_tangent_gap", tc.subspace_gap, 1e-6))
            checks.append(check_int(f"{prefix}_quotient", tc.quotient_reduced, tc.quotient_full))
    return checks


# the rows of the dimension identities: g, n in 0..6, m in 0..5, <c1, d> in
# -12..12 and k in 0..4, 36,750 in all
_IDENTITY_BOX = (range(7), range(7), range(6), range(-12, 13), range(5))


def suite_index(opts: RunOptions) -> list:
    checks = handle_index({"line_bundle": {"d_max": 10, "n_max": 64}}, opts)
    for m in (1, 2, 3):
        idx = fredholm.triple_index(moduli.hardy_triple_for_line_bundle(0, 32, m))
        checks.append(check_int(f"hardy_sphere_m{m}_dim_cap", idx.dim_cap, m))
        checks.append(check_int(f"hardy_sphere_m{m}_codim", idx.codim_sum, 0))
        checks.append(check_int(f"hardy_sphere_m{m}_index", idx.index, m))
    checks.extend(handle_moduli_dim({"builtin_table": True}, opts))
    # every row (g, n, m, <c1, d>, k) of the box is checked twice, by broadcasting
    # through the moduli formulas: one target per m, its <c1, d> an array
    g, n, c1d, k = np.ix_(*_IDENTITY_BOX[:2], *_IDENTITY_BOX[3:])
    identity_violations = 0
    for m in _IDENTITY_BOX[2]:
        target = moduli.TargetData(m, c1d)
        lhs = moduli.moduli_dimension(g, n, target)
        rhs = moduli.riemann_roch_index(target, g) + moduli.teichmuller_dim(g, n)
        x0 = moduli.core_slice_dims(g, n, k, target)[1]
        identity_violations += (np.count_nonzero(np.broadcast_to(lhs != rhs, x0.shape))
                                + np.count_nonzero(x0 + k != lhs))
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
    closed_max = max(abs(row.energy - np.pi * row.eps**2) / (np.pi * row.eps**2) for row in report.rows)
    checks.append(check_residual("monomial_k_limit_vs_pi_eps2", closed_max, 1e-8))
    checks.append(check_residual("quadrature_agreement", float(np.max(degeneration.quadrature_gaps(report))),
                                 degeneration.QUADRATURE_TOL))
    # fixed neck coefficient a_{-1} = 1: energy concentrates and diverges
    divergent = degeneration.NeckFamily(
        z_seq, tuple(NodePolynomial(np.zeros((0, 1), complex),
                                    np.array([[1.0 / z]], dtype=complex),
                                    np.zeros(1, complex)) for z in z_seq))
    counter = degeneration.energy_axiom_check(divergent, eps_schedule, tol=1e-6, n_max=8)
    checks.append(check_bool("divergent_family_fails", not counter.passed))
    return checks


def _suite_genus_invariance(opts: RunOptions, max_components: int = 3, max_nodes: int = 3) -> list:
    """Genus invariance over connected dual graphs: every nonseparating cycle
    on a component of positive genus, and every split of component 0 with
    ``genus_first`` in 0..genus that keeps none or all of its points."""
    violations = 0
    cases = 0
    for cfg in _small_dual_graphs(max_components, max_nodes):
        base = moduli.arithmetic_genus(cfg)
        contractions = [degeneration.NonseparatingCycle(i)
                        for i, comp in enumerate(cfg.components) if comp.genus >= 1]
        contractions += [degeneration.SeparatingCycle(0, g_first, keep)
                         for g_first in range(cfg.components[0].genus + 1)
                         for keep in (frozenset(), cfg.points[0])]
        for cycle in contractions:
            cases += 1
            if moduli.arithmetic_genus(degeneration.apply_deformation(cfg, [cycle])) != base:
                violations += 1
    return [check_int("genus_invariance_violations", violations, 0),
            check_bool("genus_invariance_cases_nonempty", cases > 0)]


def _small_dual_graphs(max_components: int, max_nodes: int):
    """The validated configuration of each connected dual graph: all
    assignments of genera 0..2 and node multigraphs."""
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
                for genus_vec in product((0, 1, 2), repeat=c):
                    try:
                        cfg = moduli.NodalConfig(tuple(moduli.Component(g) for g in genus_vec), nodes)
                    except ValueError:  # disconnected, whatever the genera
                        break
                    yield cfg


_SUITE_RUNNERS = {"node": suite_node, "extension": suite_extension, "fredholm": suite_fredholm,
                  "index": suite_index, "energy": suite_energy}
SUITES = (*_SUITE_RUNNERS, "all")


def verify_suite(suite: str, opts: RunOptions | None = None) -> list:
    """Run one named verification suite (or 'all'); returns check records.
    'all' runs the suites of `_SUITE_RUNNERS` in order, each check's name
    prefixed with its suite's, then the genus invariance checks."""
    opts = opts or RunOptions()
    if suite not in SUITES:
        raise ScenarioError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite != "all":
        return _SUITE_RUNNERS[suite](opts)
    out = [replace(c, name=f"{name}.{c.name}") for name, runner in _SUITE_RUNNERS.items() for c in runner(opts)]
    return out + _suite_genus_invariance(opts)


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

# The field tables, the schema of a scenario: each maps a key of a record to
# (reader, default), and `jsonio._record` reads the record through it; a key
# outside its table is an error.  A reader is a function of the value and
# its path, or a nested table.  FIELDS holds each command's params; a
# default None for n_max or seed stands for the --truncation or --seed flag.
_POSITIVE = _within(_integer, 1, "an integer >= 1")
_TERM = {"c": (_pair, _REQUIRED), "u": (_list_of(_integer), _REQUIRED), "xp": (_list_of(_integer), _REQUIRED)}
_MAP = {"dims": (_list_of(_integer, 4), _REQUIRED), "components": (_list_of(_list_of(_TERM)), _REQUIRED),
        "allow_nonflat": (_boolean, False)}
_NODE = _model(extension.NodeData, kind=(_node_kind, _REQUIRED), xi=(_loop, _REQUIRED), eta=(_loop, _REQUIRED),
               z=(_pair, 0j), delta=(_number, None))
_TRIPLE = {"ambient_dim": (_integer, _REQUIRED), "basis_prime": (_matrix, _REQUIRED),
           "basis_dprime": (_matrix, _REQUIRED),
           "expect": ({key: (_integer, _REQUIRED) for key in ("dim_cap", "codim_sum", "index")}, None)}
_ENTRY = {"label": (_string, None), **{key: (_integer, _REQUIRED) for key in ("g", "n", "m", "c1d", "expect")}}
_CYCLE_MODELS = {"nonseparating": degeneration.NonseparatingCycle, "separating": degeneration.SeparatingCycle}
_CYCLES = {"nonseparating": {"kind": (_any, _REQUIRED), "component": (_integer, _REQUIRED)},
           "separating": {"kind": (_any, _REQUIRED), "component": (_integer, _REQUIRED),
                          "genus_first": (_integer, _REQUIRED), "points_first": (_list_of(_integer), ())}}
_CONTRACTION = {"label": (_string, None), "config": (jsonio._public("nodal_config_from_json"), _REQUIRED),
                "cycles": (_list_of(_cycle), _REQUIRED), "expect_genus": (_integer, None),
                "expect_stable": (_boolean, None)}
_NEWTON = {"max_iter": (_COUNT, 200), "tol": (_SIZE, 1e-12)}
_Z_SEQ = {"geometric": ({"start": (_number, 0.5), "ratio": (_number, 0.5), "count": (_integer, 34)}, _REQUIRED)}
_LAURENT = _model(NodePolynomial, a=(_parse_coeff_rows, ()), b=(_parse_coeff_rows, ()), c=(_constant, (0j,)))
FIELDS = {
    "node-check": {"boundary": (jsonio._public("boundary_from_json"), None), "trials": (_POSITIVE, 200),
                   "m": (_POSITIVE, 2), "n_max": (_COUNT, None),
                   "z_max": (_within(_number, 0.0, "a number in [0, 1)", below=1.0), 0.9), "seed": (_COUNT, None)},
    "extend-check": {"nodes": (_list_of(_NODE), _REQUIRED), "ball_check": (_boolean, True)},
    "index": {"triples": (_list_of(_TRIPLE), ()),
              "line_bundle": ({"d_max": (_COUNT, 10), "n_max": (_COUNT, 64)}, None)},
    "moduli-dim": {"entries": (_list_of(_ENTRY), ()), "builtin_table": (_boolean, False),
                   "contractions": (_list_of(_CONTRACTION), ())},
    "reduce": {**_MAP, "seeds": (_list_of(_vector), _REQUIRED),
               "newton": (_NEWTON, _record({}, _NEWTON, "params.newton"))},
    "intersect": {**_MAP, "seed": (_vector, _REQUIRED), "max_iter": (_COUNT, 200), "tol": (_SIZE, 1e-12)},
    "energy": {"z_seq": (_z_seq, _REQUIRED), "laurents": (_list_of(_LAURENT), None), "laurent": (_LAURENT, None),
               "eps_schedule": (_list_of(_number), (1e-1, 1e-2, 1e-3, 1e-4)), "energy_tol": (_SIZE, 1e-6),
               "n_max": (_COUNT, None), "expect_pass": (_boolean, True)},
}
_ROOT = {"id": (_string, None), "command": (_any, None), "params": (_any, _REQUIRED)}


def _load_scenario(path: str) -> tuple:
    """``(text, root)`` of the scenario file at ``path`` ('-' for stdin)."""
    label = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{label}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{label}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ScenarioError(f"{label}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ScenarioError(f"{label}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{label}: scenario root must be a JSON object")
    return text, _record(data, _ROOT, "scenario")


def _digest(head: dict, opts: RunOptions, text: str = "") -> str:
    """sha256 of one canonical JSON line, ``head`` (the command, and the
    suite for verify) with the run options, followed by the scenario text
    as read."""
    line = json.dumps({**head, **vars(opts)}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{line}\n{text}".encode("utf-8")).hexdigest()


def run_scenario(path: str, command: str, opts: RunOptions,
                 scenario_id: str | None = None) -> ScenarioReport:
    """Load a scenario file, dispatch to its handler, and assemble a report."""
    text, root = _load_scenario(path)
    if root["command"] is not None and root["command"] != command:
        raise ScenarioError(f"scenario declares command {_quoted(root['command'])} but was invoked as {command!r}")
    sid = scenario_id or root["id"] or (path if path != "-" else "stdin")
    start = time.perf_counter()
    results = HANDLERS[command](root["params"], opts)
    wall = time.perf_counter() - start
    return ScenarioReport(sid, command, _digest({"command": command}, opts, text), tuple(results), wall)


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
        stream.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")
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
    stream.write(json.dumps(summary, sort_keys=True, allow_nan=False) + "\n")
    return 0 if failures == 0 and inconclusive == 0 else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hardyglue",
                                     description="Hardy-space node model and Fredholm "
                                                 "intersection verification runner")
    common = argparse.ArgumentParser(add_help=False)
    count = _within(int, 0, "an integer >= 0")  # flags are strings
    size = _within(float, 0.0, "a number in [0, inf)")
    common.add_argument("--truncation", type=count, help="Fourier truncation order N")
    common.add_argument("--sobolev-s", type=size, dest="sobolev_s", help="Sobolev exponent for residual norms")
    common.add_argument("--tol", type=size, help="relative residual tolerance")
    common.add_argument("--seed", type=count, help="seed for randomized batteries")
    common.set_defaults(**vars(RunOptions()))
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
    opts = RunOptions(**{f.name: getattr(args, f.name) for f in fields(RunOptions)})
    try:
        if args.subcommand == "verify":
            start = time.perf_counter()
            results = verify_suite(args.suite, opts)
            report = ScenarioReport(f"verify-{args.suite}", "verify",
                                    _digest({"command": "verify", "suite": args.suite}, opts), tuple(results),
                                    time.perf_counter() - start)
        else:
            report = run_scenario(args.path, args.subcommand, opts, scenario_id=args.id)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_report(report, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
