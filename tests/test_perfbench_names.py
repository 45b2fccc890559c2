"""`perfbench/tracing.py` finds what it times by name: the functions and
methods it wraps and the spans its per-layer metrics read.  A rename in the
package would not fail the benchmark; the metric would read 0.  This guard
reads the tracer's tables and the string arguments of ``calls(...)`` and
``self_s(...)`` in its `layer_metrics`, and resolves each name in the package
as the tracer would wrap it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from hardyglue.fredholm import FiniteDimReduction

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the tracer lists that the package no longer defines, each with its
# reason; their metrics read 0.
GONE = {
    "loops.sample_values": "deleted with the public functions no command reached",
    "fredholm.matrix_rank": "deleted with the public functions no command reached",
    "fredholm.nullspace": "deleted with the public functions no command reached",
    "fredholm.subspace_intersection": "deleted with the public functions no command reached",
    "extension.annulus_extension_test": "folded into the one node-relation kernel of vprime_membership",
}


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metric_span_names(source: str) -> list:
    """The string literals passed to ``calls`` and ``self_s`` in `layer_metrics`."""
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    return [arg.value for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("calls", "self_s")
            for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]


def traced_names(tracing) -> list:
    """Every ``layer.name`` or ``layer.Class.method`` the tracer looks up."""
    names = [f"{layer}.{cls}.{meth}" for layer, cls, meth in tracing.METHODS]
    names += [f"{layer}.{fn}" for layer, fns in tracing.EXTRA_FUNCTIONS.items() for fn in fns]
    for layer, fns in (("node_model", tracing.NODE_KERNELS), ("extension", tracing.EXTENSION_FUNCS),
                       ("degeneration", tracing.DEGENERATION_FUNCS), ("fredholm", tracing.RANK_FUNCS)):
        names += [f"{layer}.{fn}" for fn in fns]
    cli = importlib.import_module("hardyglue.cli")
    names += [f"cli.suite_{s}" if hasattr(cli, f"suite_{s}") else f"cli._suite_{s}" for s in tracing.SUITES]
    return names + metric_span_names(TRACING.read_text(encoding="utf-8"))


def wrapped_by_tracer(name: str, extras: dict) -> bool:
    """Whether the tracer wraps ``name``: a method in its class's
    ``__dict__``, or a function defined in its layer's module, public or
    listed in ``extras``."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"hardyglue.{layer}")
    if len(path) == 2:
        return inspect.isclass(getattr(module, path[0], None)) and path[1] in vars(getattr(module, path[0]))
    obj = vars(module).get(path[0])
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and (not path[0].startswith("_") or path[0] in extras.get(layer, ())))


def missing_traced_names() -> list:
    tracing = tracing_module()
    return sorted({name for name in traced_names(tracing) if not wrapped_by_tracer(name, tracing.EXTRA_FUNCTIONS)})


def test_every_traced_name_is_in_the_package():
    assert missing_traced_names() == sorted(GONE)


def test_planted_rename_fails_the_guard(monkeypatch):
    from hardyglue import moduli

    monkeypatch.setattr(moduli, "hardy_triple_for_bundle", moduli.hardy_triple_for_line_bundle, raising=False)
    monkeypatch.delattr(moduli, "hardy_triple_for_line_bundle")
    assert missing_traced_names() == sorted([*GONE, "moduli.hardy_triple_for_line_bundle"])


def test_deleted_method_fails_the_guard(monkeypatch):
    monkeypatch.delattr(FiniteDimReduction, "solve")
    assert missing_traced_names() == sorted([*GONE, "fredholm.FiniteDimReduction.solve"])


def test_suite_names_follow_the_cli(monkeypatch):
    from hardyglue import cli

    monkeypatch.delattr(cli, "_suite_genus_invariance")
    assert missing_traced_names() == sorted([*GONE, "cli._suite_genus_invariance"])
