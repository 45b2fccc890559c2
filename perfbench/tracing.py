"""Per-layer tracing of hardyglue from outside the package.

`Tracer.install()` replaces every public function of each module in
``src/hardyglue`` with a timing wrapper, at every place the function is
bound: the defining module, every package module that imported it by name,
and module-level dicts such as the CLI's handler table.  A few methods are
wrapped on their classes (``Loop.__post_init__``, ``FiniteDimReduction.solve``
and ``.tangent_check``), and the CLI's ``json`` module is swapped for a proxy
whose ``loads``/``dumps`` count as the jsonio layer.  `uninstall()` puts
every original back.

Each call records a span ``(id, parent, job, name, start, end, ok)``; spans
stay in memory.  A layer is a module, and a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import types
from collections import defaultdict
from itertools import count
from time import perf_counter

LAYERS = ("loops", "node_model", "extension", "fredholm", "moduli", "degeneration", "jsonio", "cli")

# Private functions that still mark a layer boundary worth a span.
EXTRA_FUNCTIONS = {"cli": ("_suite_genus_invariance",)}
METHODS = (("loops", "Loop", "__post_init__"),
           ("fredholm", "FiniteDimReduction", "solve"),
           ("fredholm", "FiniteDimReduction", "tangent_check"))

NODE_KERNELS = ("membership_defect", "transfer_Tz", "boundary_traces", "node_chart",
                "node_chart_inverse", "node_membership", "evaluate_H", "eval_plus")
EXTENSION_FUNCS = ("annulus_extension_test", "disk_pair_node_test", "vprime_membership")
RANK_FUNCS = ("matrix_rank", "nullspace", "orthonormal_range", "subspace_intersection")
DEGENERATION_FUNCS = ("annulus_energy", "annulus_energy_quadrature", "neck_laurent",
                      "energy_axiom_check", "apply_deformation")
SUITES = ("node", "extension", "fredholm", "index", "energy", "genus_invariance")
N_TAGS = ("n128", "n256", "n512")


def _loop_shape(obj):
    """(n_max, m) of the loop a node-model call works on, or None."""
    for attr in ("xi", "xi_plus"):
        obj = getattr(obj, attr, obj)
    if hasattr(obj, "n_max") and hasattr(obj, "m"):
        return obj.n_max, obj.m
    return None


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.job_tags = []
        self.counters = defaultdict(float)
        self._ids = count()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, tag: str = "") -> None:
        self.job_tags.append(tag)
        self.job = len(self.job_tags) - 1

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, ids = self.spans, self.stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end, ok))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- hooks that read arguments and results -----------------------------

    def _coeff_bytes_hook(self, name: str):
        """Adds (2N+1)*m*16 per call, for the loop order N and width m the
        kernel works on; boundary_traces takes N as its third argument."""
        counters = self.counters

        def hook(args, kwargs):
            if name == "boundary_traces":
                shape = (int(args[2] if len(args) > 2 else kwargs["n_max"]), args[0].m)
            else:
                shape = next(filter(None, map(_loop_shape, args)), None)
            if shape is not None:
                counters["node_model.coeff_bytes"] += (2 * shape[0] + 1) * shape[1] * 16

        return hook

    def _count_json_bytes(self, args, kwargs):
        if args and isinstance(args[0], (str, bytes)):
            self.counters["jsonio.bytes_parsed"] += len(args[0])

    def _newton_result(self, result):
        self.counters["fredholm.newton.results"] += 1
        self.counters["fredholm.newton.iterations"] += int(result.iterations)
        self.counters["fredholm.newton.converged"] += int(bool(result.converged))

    def _stability_result(self, result):
        self.counters["fredholm.stability.attempts"] += 1
        self.counters["fredholm.stability.inconclusive"] += int(result.verdict == "inconclusive")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"hardyglue.{layer}") for layer in LAYERS}
        package = importlib.import_module("hardyglue")
        wrapped = {}
        for layer, mod in mods.items():
            extras = EXTRA_FUNCTIONS.get(layer, ())
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and name not in extras:
                    continue
                on_call = on_result = None
                if layer == "node_model":
                    on_call = self._coeff_bytes_hook(name)
                elif name == "intersect_newton":
                    on_result = self._newton_result
                elif name == "index_stability_check":
                    on_result = self._stability_result
                wrapped[obj] = self.wrap(f"{layer}.{name}", obj, on_call, on_result)
        for owner in [package, *mods.values()]:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(owner, attr, wrapped[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._set_item(value, key, wrapped[item])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.loads = self.wrap("jsonio.json.loads", json.loads, on_call=self._count_json_bytes)
        proxy.dumps = self.wrap("jsonio.json.dumps", json.dumps)
        self._set(mods["cli"], "json", proxy)

    def _set(self, owner, attr, value) -> None:
        self._patches.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            how, owner, key, original = self._patches.pop()
            if how == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name calls / total / self / errors, per-layer self time, per
        (layer, tag) self time, and per-job per-layer self time."""
        child = {}
        names = defaultdict(lambda: [0, 0.0, 0.0, 0])
        layer_self = defaultdict(float)
        tag_self = defaultdict(float)
        job_layer = defaultdict(lambda: defaultdict(float))
        job_wall = defaultdict(float)
        for sid, parent, job, name, start, end, ok in self.spans:
            dur = end - start
            own = dur - child.pop(sid, 0.0)
            if own < -1e-9:
                raise AssertionError(f"negative self time {own:.3g} s in span {name}")
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + dur
            else:
                job_wall[job] += dur
            rec = names[name]
            rec[0] += 1
            rec[1] += dur
            rec[2] += own
            rec[3] += 0 if ok else 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            tag_self[(layer, self.job_tags[job] if job >= 0 else "")] += own
            job_layer[job][layer] += own
        if child:
            raise AssertionError(f"{len(child)} spans have children but never closed")
        return {"names": names, "layer_self": layer_self, "tag_self": tag_self,
                "job_layer": job_layer, "job_wall": job_wall}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  checks: int) -> dict:
    """The per-layer metrics, as ``{name: (value, unit)}``."""
    s = tracer.summarize()
    names, layer_self, counters = s["names"], s["layer_self"], tracer.counters

    def calls(name):
        return names[name][0] if name in names else 0

    def self_s(*spans):
        return sum(names[n][2] for n in spans if n in names)

    def layer_calls(layer):
        return sum(rec[0] for n, rec in names.items() if n.startswith(layer + "."))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
        out[f"{layer}.self_share"] = (_ratio(layer_self.get(layer, 0.0), traced_wall), "ratio")

    out["loops.Loop.constructed"] = (calls("loops.Loop.__post_init__"), "count")
    out["loops.sobolev_norm.calls"] = (calls("loops.sobolev_norm"), "count")
    out["loops.sobolev_norm.self_s"] = (self_s("loops.sobolev_norm"), "s")
    out["loops.sample_values.self_s"] = (self_s("loops.sample_values"), "s")

    out["node_model.calls"] = (layer_calls("node_model"), "count")
    out["node_model.errors"] = (sum(rec[3] for n, rec in names.items()
                                    if n.startswith("node_model.")), "count")
    for fn in NODE_KERNELS:
        out[f"node_model.{fn}.calls"] = (calls(f"node_model.{fn}"), "count")
        out[f"node_model.{fn}.self_s"] = (self_s(f"node_model.{fn}"), "s")
    out["node_model.coeff_bytes"] = (counters["node_model.coeff_bytes"], "B")
    for tag in N_TAGS:
        out[f"node_model.self_s.{tag}"] = (s["tag_self"].get(("node_model", tag), 0.0), "s")

    for fn in EXTENSION_FUNCS:
        out[f"extension.{fn}.calls"] = (calls(f"extension.{fn}"), "count")
        out[f"extension.{fn}.self_s"] = (self_s(f"extension.{fn}"), "s")

    rank = [f"fredholm.{fn}" for fn in RANK_FUNCS]
    out["fredholm.rank_decisions"] = (sum(calls(n) for n in rank), "count")
    out["fredholm.rank.self_s"] = (self_s(*rank), "s")
    out["fredholm.triple_index.calls"] = (calls("fredholm.triple_index"), "count")
    out["fredholm.triple_index.self_s"] = (self_s("fredholm.triple_index"), "s")
    out["fredholm.index_stability_check.self_s"] = (self_s("fredholm.index_stability_check"), "s")
    out["fredholm.stability.inconclusive_frac"] = (
        _ratio(counters["fredholm.stability.inconclusive"], counters["fredholm.stability.attempts"]),
        "ratio")
    out["fredholm.newton.iterations"] = (counters["fredholm.newton.iterations"], "count")
    out["fredholm.newton.converged_frac"] = (
        _ratio(counters["fredholm.newton.converged"], counters["fredholm.newton.results"]), "ratio")
    out["fredholm.newton.self_s"] = (
        self_s("fredholm.intersect_newton", "fredholm.FiniteDimReduction.solve"), "s")
    out["fredholm.tangent_check.self_s"] = (self_s("fredholm.FiniteDimReduction.tangent_check"), "s")

    out["moduli.hardy_triple_for_line_bundle.self_s"] = (
        self_s("moduli.hardy_triple_for_line_bundle"), "s")
    out["moduli.arithmetic_genus.calls"] = (calls("moduli.arithmetic_genus"), "count")

    for fn in DEGENERATION_FUNCS:
        out[f"degeneration.{fn}.calls"] = (calls(f"degeneration.{fn}"), "count")
        out[f"degeneration.{fn}.self_s"] = (self_s(f"degeneration.{fn}"), "s")

    out["jsonio.calls"] = (layer_calls("jsonio"), "count")
    out["jsonio.bytes_parsed"] = (counters["jsonio.bytes_parsed"], "B")

    out["cli.emit.self_s"] = (self_s("cli.main"), "s")
    out["cli.checks"] = (checks, "count")
    for suite in SUITES:
        rec = names.get(f"cli.suite_{suite}") or names.get(f"cli._suite_{suite}")
        out[f"cli.suite.{suite}.s"] = (rec[1] if rec else 0.0, "s")

    # The slowest tenth of the traced jobs, and each layer's share of them.
    walls = sorted(s["job_wall"].items(), key=lambda kv: kv[1], reverse=True)
    tail = walls[:max(1, math.ceil(len(walls) / 10))]
    tail_wall = sum(w for _, w in tail)
    for layer in LAYERS:
        own = sum(s["job_layer"][job].get(layer, 0.0) for job, _ in tail)
        out[f"{layer}.tail_share"] = (_ratio(own, tail_wall), "ratio")

    attributed = sum(layer_self.values())
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unattributed_s"] = (traced_wall - attributed, "s")
    out["trace_overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return out
