"""Seeded input generators for the three benchmark workloads.

Every workload is a list of *rounds*; a round is a fixed mix of jobs, and a
job is one ``hardyglue.cli.main(argv)`` call.  The generators write scenario
files from the seed alone and never import hardyglue, so the program only
ever sees the generated files.  Each job carries the number of check lines
its report must contain; expected values inside the scenarios (dimensions,
genera, energy verdicts) come from closed formulas evaluated here, not from
the program under test.

Workloads
---------
node-highN
    ``node-check`` batteries at N in {128, 256, 512} and m in {1, 2},
    z_max = 0.9, 2-4 trials each.  One round holds all six (N, m) pairs in
    a seeded order.
verify-all
    ``verify all`` at the default options, one job per round, each with a
    fresh ``--seed``.
scenario-mix
    28 jobs per round over every non-node command: 8 ``extend-check``,
    4 ``index`` with explicit triples, 1 ``index`` with line bundles,
    4 ``reduce``, 4 ``intersect``, 2 ``energy`` and 5 ``moduli-dim``.
    Rounds come in blocks of MIX_BLOCK whose energy and line-bundle jobs
    are stratified over their parameter ranges; the pairing of the energy
    jobs' cost factors is a fixed design per block position.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("node-highN", "verify-all", "scenario-mix")

NODE_N = (128, 256, 512)
NODE_M = (1, 2)

# Check lines that `verify all` emits; gate.py pins their names as well.
VERIFY_ALL_CHECKS = 86

MIX_ROUND = (
    ("extend-check", 8),
    ("index-triples", 4),
    ("index-bundle", 1),
    ("reduce", 4),
    ("intersect", 4),
    ("energy", 2),
    ("moduli-dim", 5),
)

# The tail latency's percentile: the highest with at least 10 jobs beyond it
# in a 25 s run of 672-1176 scenario-mix jobs (4-7 blocks) or 54-90
# node-highN jobs; a verify-all run of 13-25 jobs has fewer, so p90 there.  It is fixed
# per workload rather than taken from each run's job count, which the load on
# the machine moves.
TAIL_PERCENTILE = {"node-highN": 80.0, "verify-all": 90.0, "scenario-mix": 98.5}

# Distinct rounds written per run; a run longer than the pool cycles through it.
POOL_ROUNDS = {"node-highN": 24, "verify-all": 64, "scenario-mix": 48}
MIX_BLOCK = 6
MIX_DESIGN_STREAM = 7  # seeds the per-block energy design; independent of --seed
# An untraced run stops only after a multiple of this many measured rounds,
# so a scenario-mix run measures whole stratified blocks.
ROUNDS_PER_STEP = {"node-highN": 1, "verify-all": 1, "scenario-mix": MIX_BLOCK}


@dataclass(frozen=True)
class Job:
    """One CLI call: its argv, the kind of scenario, the scenario id the
    report must carry, the number of check lines, and a trace tag."""

    kind: str
    argv: tuple
    scenario_id: str
    checks: int
    tag: str = ""


def _rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed), stream])


def _disc(rng, shape, radius=1.0):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, shape))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _rows(arr) -> list:
    return [[_pair(v) for v in row] for row in np.atleast_2d(arr)]


def _write(dirpath: str, name: str, scenario: dict) -> str:
    path = os.path.join(dirpath, name + ".json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(scenario, fh, separators=(",", ":"))
    return path


# ---------------------------------------------------------------------------
# node-highN


def _node_job(rng, dirpath: str, sid: str, n_max: int, m: int, trials: int) -> Job:
    scenario = {"id": sid, "command": "node-check",
                "params": {"trials": trials, "n_max": n_max, "m": m, "z_max": 0.9,
                           "seed": int(rng.integers(0, 2**31))}}
    return Job("node-check", ("node-check", _write(dirpath, sid, scenario)), sid, 5, f"n{n_max}")


def _node_round(rng, dirpath: str, r: int) -> list:
    pairs = [(n, m) for n in NODE_N for m in NODE_M]
    order = rng.permutation(len(pairs))
    return [_node_job(rng, dirpath, f"node-{r}-{i}", *pairs[k], trials=int(rng.integers(2, 5)))
            for i, k in enumerate(order)]


# ---------------------------------------------------------------------------
# scenario-mix: extend-check


def _glued_pair(rng, n_max: int, m: int, w: complex):
    """Boundary pair glued by ``w``: xi_{-n} = w^n eta_n, eta_{-n} = w^n xi_n,
    equal constants.  At w = z this is node membership; at w = delta it is
    the annulus relation eta_n = xi_{-n} delta^{-n}.  Coefficients are
    scaled so both loops stay inside the unit ball (l1 bound < 1)."""
    decay = (1.0 + np.arange(1, n_max + 1)) ** -1.5
    a = _disc(rng, (n_max, m)) * decay[:, None]
    b = _disc(rng, (n_max, m)) * decay[:, None]
    c = _disc(rng, (m,))
    wn = w ** np.arange(1, n_max + 1)
    xi = np.zeros((2 * n_max + 1, m), complex)
    eta = np.zeros((2 * n_max + 1, m), complex)
    xi[n_max] = eta[n_max] = c
    xi[n_max + 1:] = a
    eta[n_max + 1:] = b
    xi[:n_max] = (wn[:, None] * b)[::-1]
    eta[:n_max] = (wn[:, None] * a)[::-1]
    l1 = max(np.abs(xi).sum(), np.abs(eta).sum())
    scale = rng.uniform(0.3, 0.95) / l1
    return xi * scale, eta * scale


def _loop_json(coeffs, n_max: int, m: int) -> dict:
    return {"m": m, "n_max": n_max, "coeffs": _rows(coeffs)}


def _extend_scenario(rng, sid: str, plan=None):
    n_max = int(rng.choice([2, 4, 8, 16, 32, 64]))
    m = int(rng.integers(1, 3))
    ball = bool(rng.uniform() < 0.75)
    nodes = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.uniform() < 0.5:
            delta = float(rng.uniform(0.15, 0.85))
            xi, eta = _glued_pair(rng, n_max, m, delta)
            nodes.append({"kind": "annulus", "delta": delta,
                          "xi": _loop_json(xi, n_max, m), "eta": _loop_json(eta, n_max, m)})
        else:
            z = 0j if rng.uniform() < 0.3 else complex(_disc(rng, (), 0.9))
            xi, eta = _glued_pair(rng, n_max, m, z)
            nodes.append({"kind": "disk_pair", "z": _pair(z),
                          "xi": _loop_json(xi, n_max, m), "eta": _loop_json(eta, n_max, m)})
    checks = len(nodes) * (2 if ball else 1) + 1
    return {"ball_check": ball, "nodes": nodes}, checks


# ---------------------------------------------------------------------------
# scenario-mix: index


def _triple_entry(rng) -> dict:
    """Random triple in C^N with a planted k-dimensional common part.
    Generic bases give dim_cap = max(k, p + q - N)."""
    n = int(rng.integers(2, 12))
    p = int(rng.integers(1, n + 1))
    q = int(rng.integers(1, n + 1))
    k = int(rng.integers(0, min(p, q) + 1))
    shared = _disc(rng, (n, k))
    bp = np.hstack([shared, _disc(rng, (n, p - k))])
    bq = np.hstack([shared, _disc(rng, (n, q - k))])
    dim_cap = max(k, p + q - n)
    codim = n - (p + q - dim_cap)
    return {"ambient_dim": n, "basis_prime": _rows(bp), "basis_dprime": _rows(bq),
            "expect": {"dim_cap": dim_cap, "codim_sum": codim, "index": p + q - n}}


def _index_triples_scenario(rng, sid: str, plan=None):
    triples = [_triple_entry(rng) for _ in range(int(rng.integers(1, 5)))]
    return {"triples": triples}, 4 * len(triples)


def _index_bundle_scenario(rng, sid: str, d_max: int):
    n_max = int(rng.integers(max(24, 2 * d_max + 1), 65))
    return {"line_bundle": {"d_max": d_max, "n_max": n_max}}, 2 * (d_max + 1)


# ---------------------------------------------------------------------------
# scenario-mix: reduce / intersect


def _coef(rng) -> list:
    return _pair(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))


def _term(c, u, xp) -> dict:
    return {"c": c, "u": list(u), "xp": list(xp)}


def _polynomial_map(rng):
    """Graph maps modelled on the shipped polynomial test set: a double
    root, a double plus a simple root, the union of two axes, an isolated
    degenerate plane system, and a non-flat map with simple roots."""
    family = int(rng.integers(0, 5))
    if family == 0:
        dims = [1, 1, 1, 1]
        comps = [[_term(_coef(rng), [2], [0]), _term(_coef(rng), [0], [2])]]
    elif family == 1:
        dims = [1, 1, 1, 1]
        comps = [[_term(_coef(rng), [2], [0]), _term(_coef(rng), [3], [0]),
                  _term(_coef(rng), [0], [2])]]
    elif family == 2:
        dims = [2, 1, 1, 1]
        comps = [[_term(_coef(rng), [1, 1], [0]), _term(_coef(rng), [0, 0], [2])]]
    elif family == 3:
        dims = [2, 0, 1, 2]
        c1, c2 = _coef(rng), _coef(rng)
        comps = [[_term(c1, [2, 0], []), _term([-c1[0], -c1[1]], [0, 2], [])],
                 [_term(c2, [1, 1], [])]]
    else:
        dims = [1, 0, 0, 1]
        comps = [[_term(_coef(rng), [1], []), _term(_coef(rng), [2], [])]]
    params = {"dims": dims, "components": comps}
    if family == 4:
        params["allow_nonflat"] = True
    return params


def _seed_vector(rng, d_u: int) -> list:
    return [_pair(v) for v in _disc(rng, (d_u,), 0.5)]


def _reduce_scenario(rng, sid: str, plan=None):
    params = _polynomial_map(rng)
    n_seeds = int(rng.integers(1, 3))
    params["seeds"] = [_seed_vector(rng, params["dims"][0]) for _ in range(n_seeds)]
    params["newton"] = {"max_iter": 300, "tol": 1e-12}
    return params, 4 * n_seeds


def _intersect_scenario(rng, sid: str, plan=None):
    params = _polynomial_map(rng)
    params["seed"] = _seed_vector(rng, params["dims"][0])
    params["max_iter"] = 300
    params["tol"] = 1e-12
    return params, 2


# ---------------------------------------------------------------------------
# scenario-mix: energy

EPS_SCHEDULES = (
    (1e-1, 1e-2, 1e-3, 1e-4),
    (0.2, 0.05, 0.01, 0.002),
    (0.3, 0.1, 0.03, 0.01),
    (0.1, 0.03, 0.01, 0.003, 0.001),
)


def _neck_energy(a, b, z: complex, eps: float) -> float:
    """Closed-form Dirichlet energy of v(x, z/x) on |z|/eps < |x| < eps:
    pi * sum_{n != 0} n |c_n|^2 (R^{2n} - r^{2n})."""
    R, r = eps, abs(z) / eps
    total = 0.0
    for i, row in enumerate(a, start=1):
        total += i * float(np.sum(np.abs(row) ** 2)) * (R ** (2 * i) - r ** (2 * i))
    for j, row in enumerate(b, start=1):
        w = float(np.sum(np.abs(row * z**j) ** 2))
        total += -j * w * (R ** (-2 * j) - r ** (-2 * j))
    return math.pi * total


def _energy_rows(polys, z_seq, eps_schedule):
    """(energy at the k-limit, stable) per eps, by the rule of the axiom
    check: the last k with |z_k| < eps^2/10 against the one before it."""
    rows = []
    for eps in eps_schedule:
        usable = [k for k, z in enumerate(z_seq) if abs(z) < eps * eps / 10.0]
        k, k_prev = usable[-1], usable[-2]
        e = _neck_energy(*polys[k], z_seq[k], eps)
        e_prev = _neck_energy(*polys[k_prev], z_seq[k_prev], eps)
        rows.append((e, abs(e - e_prev) <= 0.1 * abs(e_prev)))
    return rows


def _energy_scenario(rng, sid: str, shape: tuple):
    """Neck families whose verdict is clear by a factor of 20 either way:
    the energy at the smallest eps is scaled to tol/20 or 20*tol.  The
    planned ``shape`` fixes what the job's cost depends on."""
    n_max, deg, m, schedule, ratio, varying = shape
    eps_schedule = EPS_SCHEDULES[schedule]
    start = 0.5
    need = eps_schedule[-1] ** 2 / 10.0
    count = math.ceil(math.log(need / start) / math.log(ratio)) + 2 + int(rng.integers(0, 9))
    z_seq = [start * ratio**k for k in range(count)]
    a = _disc(rng, (deg, m))
    b = _disc(rng, (int(rng.integers(0, deg + 1)), m))
    c = _disc(rng, (m,))
    bump = [1.0 + 2.0 ** -k if varying else 1.0 for k in range(count)]
    polys = [(a * f, b * f) for f in bump]
    energy_tol = 1e-6
    expect_pass = bool(rng.uniform() < 0.6)
    last = _energy_rows(polys, z_seq, eps_schedule[-1:])[0][0]
    scale = math.sqrt(energy_tol * (0.05 if expect_pass else 20.0) / last)
    polys = [(pa * scale, pb * scale) for pa, pb in polys]
    rows = _energy_rows(polys, z_seq, eps_schedule)
    energies = [e for e, _ in rows]
    if not all(st for _, st in rows) or any(y > x for x, y in zip(energies, energies[1:])):
        raise AssertionError(f"{sid}: generated family is not stable and monotone")

    def poly_json(pa, pb):
        return {"a": _rows(pa), "b": _rows(pb), "c": [_pair(v) for v in c]}

    params = {"z_seq": {"geometric": {"start": start, "ratio": ratio, "count": count}},
              "eps_schedule": list(eps_schedule), "energy_tol": energy_tol,
              "n_max": n_max, "expect_pass": expect_pass}
    if varying:
        params["laurents"] = [poly_json(pa, pb) for pa, pb in polys]
        params["z_seq"] = [_pair(z) for z in z_seq]
    else:
        params["laurent"] = poly_json(*polys[0])
    return params, 2 * len(eps_schedule) + 1


# ---------------------------------------------------------------------------
# scenario-mix: moduli-dim


def _contraction(rng, label: str) -> dict:
    """Random connected dual graph plus a valid sequence of vanishing
    cycles; the expected genus is sum g + #nodes - #components + 1."""
    n_comp = int(rng.integers(1, 4))
    genera = [int(g) for g in rng.integers(0, 3, n_comp)]
    next_id = [0] * n_comp

    def point(ci: int) -> list:
        next_id[ci] += 1
        return [ci, next_id[ci] - 1]

    edges = [(int(rng.integers(0, i)), i) for i in range(1, n_comp)]
    edges += [tuple(int(v) for v in rng.integers(0, n_comp, 2))
              for _ in range(int(rng.integers(0, 4 - len(edges))))]
    nodes = [[point(i), point(j)] for i, j in edges]
    marks = [point(int(rng.integers(0, n_comp))) for _ in range(int(rng.integers(0, 3)))]
    expect = sum(genera) + len(nodes) - n_comp + 1
    cycles = []
    live = list(genera)
    for _ in range(int(rng.integers(1, 3))):
        handles = [i for i, g in enumerate(live) if g >= 1]
        if handles and rng.uniform() < 0.5:
            i = int(rng.choice(handles))
            live[i] -= 1
            cycles.append({"kind": "nonseparating", "component": i})
        else:
            i = int(rng.integers(0, len(live)))
            first = int(rng.integers(0, live[i] + 1))
            pts = sorted(int(p) for p in rng.choice(4, int(rng.integers(0, 3)), replace=False))
            live.append(live[i] - first)
            live[i] = first
            cycles.append({"kind": "separating", "component": i, "genus_first": first,
                           "points_first": pts})
    config = {"components": [{"genus": g, "ghost": False} for g in genera],
              "nodes": nodes, "marks": marks}
    return {"label": label, "config": config, "cycles": cycles, "expect_genus": expect}


def _moduli_scenario(rng, sid: str, plan=None):
    params = {}
    checks = 0
    if rng.uniform() < 0.3:
        params["builtin_table"] = True
        checks += 6
    entries = []
    for i in range(int(rng.integers(0, 9))):
        g, n, m = (int(v) for v in rng.integers(0, [7, 7, 6]))
        c1d = int(rng.integers(-12, 13))
        entries.append({"label": f"row{i}", "g": g, "n": n, "m": m, "c1d": c1d,
                        "expect": (g - 1) * (3 - m) + c1d + n})
    contractions = [_contraction(rng, f"cut{i}") for i in range(int(rng.integers(0, 4)))]
    if not entries and not contractions and not checks:
        contractions.append(_contraction(rng, "cut0"))
    if entries:
        params["entries"] = entries
    if contractions:
        params["contractions"] = contractions
    return params, checks + len(entries) + 2 * len(contractions)


MIX_BUILDERS = {
    "extend-check": ("extend-check", _extend_scenario),
    "index-triples": ("index", _index_triples_scenario),
    "index-bundle": ("index", _index_bundle_scenario),
    "reduce": ("reduce", _reduce_scenario),
    "intersect": ("intersect", _intersect_scenario),
    "energy": ("energy", _energy_scenario),
    "moduli-dim": ("moduli-dim", _moduli_scenario),
}


def _mix_job(rng, dirpath: str, sid: str, kind: str, plan=None) -> Job:
    command, build = MIX_BUILDERS[kind]
    params, checks = build(rng, sid, plan)
    path = _write(dirpath, sid, {"id": sid, "command": command, "params": params})
    return Job(kind, (command, path), sid, checks)


def _spread(rng, lo: int, hi: int, count: int, order=None) -> list:
    """``count`` integers from [lo, hi], one from each of ``count`` equal
    slices of the range, in random order or in the slice ``order`` given."""
    width = (hi - lo + 1) / count
    order = rng.permutation(count) if order is None else order
    return [lo + int((k + rng.uniform()) * width) for k in order]


def _dealt(rng, values, count: int) -> list:
    """``values`` repeated to ``count`` entries, in random order."""
    return [values[k % len(values)] for k in rng.permutation(count)]


def _mix_block(rng, dirpath: str, first: int) -> list:
    """MIX_BLOCK rounds whose expensive jobs (energy, line bundles) cover
    their parameter ranges evenly, so the cost of a run's job mix varies
    little from seed to seed.  Which n_max slice goes with which degree, m,
    eps schedule, z ratio and family type is a design drawn from the block's
    position alone, the same for every seed: left to the seed, that pairing
    moved the tail job time by 15% between seeds.  The seed draws n_max within
    its slice and everything else about the job."""
    n_energy = MIX_BLOCK * dict(MIX_ROUND)["energy"]
    design = np.random.default_rng([MIX_DESIGN_STREAM, first])
    shapes = list(zip(_spread(rng, 8, 32, n_energy, design.permutation(n_energy)),
                      _dealt(design, (1, 2, 3), n_energy), _dealt(design, (1, 2), n_energy),
                      _dealt(design, range(len(EPS_SCHEDULES)), n_energy),
                      _dealt(design, (0.5, 0.6), n_energy), _dealt(design, (False, True), n_energy)))
    plans = {"energy": iter(shapes), "index-bundle": iter(_spread(rng, 4, 10, MIX_BLOCK))}
    rounds = []
    for r in range(first, first + MIX_BLOCK):
        kinds = [kind for kind, count in MIX_ROUND for _ in range(count)]
        order = rng.permutation(len(kinds))
        rounds.append([_mix_job(rng, dirpath, f"mix-{r}-{i}-{kinds[k]}", kinds[k],
                                next(plans[kinds[k]]) if kinds[k] in plans else None)
                       for i, k in enumerate(order)])
    return rounds


# ---------------------------------------------------------------------------
# public entry points


def make_rounds(workload: str, seed: int, dirpath: str) -> list:
    """Write the scenario files of the workload's pool of rounds and return
    the rounds as lists of jobs; round 0 is the warm-up.  The same seed
    gives the same files.  scenario-mix puts the first round of a block of
    its own in front of POOL_ROUNDS rounds, so the measured rounds are whole
    blocks."""
    n_rounds = POOL_ROUNDS[workload]
    rng = _rng(workload, seed)
    if workload == "node-highN":
        return [_node_round(rng, dirpath, r) for r in range(n_rounds)]
    if workload == "scenario-mix":
        pool = [rnd for first in range(0, n_rounds, MIX_BLOCK)
                for rnd in _mix_block(rng, dirpath, first)]
        return _mix_block(rng, dirpath, n_rounds)[:1] + pool
    if workload == "verify-all":
        return [[Job("verify", ("verify", "all", "--seed", str(int(s))), "verify-all",
                     VERIFY_ALL_CHECKS)]
                for s in rng.integers(0, 2**31, n_rounds)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def setup_job(workload: str, dirpath: str) -> Job:
    """The small job a fresh interpreter runs after importing the CLI, for
    the set-up time: the first-call path of the workload at a small size."""
    rng = _rng(workload, 0, stream=1)
    if workload == "node-highN":
        return _node_job(rng, dirpath, "setup-node", n_max=32, m=2, trials=1)
    if workload == "scenario-mix":
        return _mix_job(rng, dirpath, "setup-mix", "extend-check")
    return Job("verify", ("verify", "energy"), "verify-energy", 4)
