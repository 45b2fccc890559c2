import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyglue.cli import HANDLERS, RunOptions, ScenarioError, _build_parser, main, run_scenario, verify_suite

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
QUADRATIC_MAP = {"dims": [1, 1, 1, 1], "components": [[{"c": [1, 0], "u": [2], "xp": [0]}]]}


def strict_json_lines(text):
    """Parse JSON lines, rejecting NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite constant {token}")

    return [json.loads(line, parse_constant=reject) for line in text.strip().splitlines()]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return code, lines[:-1], lines[-1]


def run_params(tmp_path, capsys, command, params):
    """Run one scenario through `main` with warnings recorded; returns the exit
    code, the strict-JSON stdout lines, stderr and the warnings."""
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps({"command": command, "params": params}), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(f)])
    captured = capsys.readouterr()
    return code, strict_json_lines(captured.out), captured.err, caught


def json_paths(node, at=()):
    """The path of ``node`` and of every value inside its dicts and lists."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, at + (key,))


# what the index fuzzer puts in: null, booleans, strings, extreme and
# subnormal floats, integers, and empty, ragged and 3-D lists
ODD_VALUES = (None, True, False, "", "2", 1e308, -1e308, 1e-320, 0, 2, -1, [], [[]], [[], [[1, 0]]],
              [[[[1, 0]]]], [[[1e308, 1e308]], [[1e-320, 0]], [[0, 0]]])


@st.composite
def fuzzed_index_params(draw):
    """The params of ``scenarios/hardy_index.json`` after one to three
    edits, each at a path drawn inside the triple record or the
    ``line_bundle`` record: a field deleted, a value wrapped in one more
    list, or a value replaced by one of `ODD_VALUES`."""
    params = json.loads((SCENARIOS / "hardy_index.json").read_text(encoding="utf-8"))["params"]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([at for at in json_paths(params)
                                     if at[:1] == ("line_bundle",) or len(at) > 2 and at[:2] == ("triples", 0)]))
        parent = params
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(["delete", "wrap", "replace"] if isinstance(parent, dict) else ["wrap", "replace"]))
        if edit == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = [parent[path[-1]]] if edit == "wrap" else json.loads(json.dumps(draw(
                st.sampled_from(ODD_VALUES))))
    return params


def annulus_defect_oracle(delta, xi, eta, s=1.5):
    """The annulus defect of one pair of coefficient arrays (2N+1, m) in
    mpmath at 40 digits: the node relation at ``z = delta`` read on the core
    circle (mode ``-n`` of each defect over ``delta^(n/2)``), its Sobolev-s
    norm over ``1 + max(|xi|_s, |eta|_s)``."""
    import mpmath

    with mpmath.workdps(40):
        n_max = xi.shape[0] // 2
        d = mpmath.mpf(float(delta))

        def c(z):
            return mpmath.mpc(float(z.real), float(z.imag))

        def norm(entries):
            return mpmath.sqrt(mpmath.fsum((1 + abs(n)) ** (2 * mpmath.mpf(s)) * abs(v) ** 2
                                           for n, v in entries))

        defect = [(0, c(a) - c(b)) for a, b in zip(xi[n_max], eta[n_max])]
        for n in range(1, n_max + 1):
            for j in range(xi.shape[1]):
                defect.append((n, c(xi[n_max - n, j]) - d ** n * c(eta[n_max + n, j])))
                defect.append((n, c(eta[n_max - n, j]) - d ** n * c(xi[n_max + n, j])))
        core = norm([(n, v / d ** (mpmath.mpf(n) / 2)) for n, v in defect])
        refs = [norm([(k - n_max, c(v)) for k, row in enumerate(x) for v in row]) for x in (xi, eta)]
        return core / (1 + max(refs))


ENERGY_FAMILY = {"z_seq": {"geometric": {"start": 0.5, "ratio": 0.5, "count": 34}},
                 "eps_schedule": [0.1, 0.01, 0.001, 0.0001]}
LOOP_1 = {"m": 1, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]], [[0, 0]]]}
LOOP_MODE_1 = {"m": 1, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]], [[0.5, 0]]]}
LOOP_2 = {"m": 1, "n_max": 2, "coeffs": [[[0, 0]], [[0, 0]], [[1, 0]], [[0, 0]], [[0, 0]]]}


class TestScenarioFiles:
    def test_node_roundtrip_all_pass(self, capsys):
        code, checks, summary = run_cli(capsys, "node-check", str(SCENARIOS / "node_roundtrip.json"))
        assert code == 0
        assert summary["failures"] == 0
        assert {c["status"] for c in checks} == {"pass"}
        assert summary["checks"] == len(checks)

    def test_moduli_table_matches_frozen_values(self, capsys):
        code, checks, summary = run_cli(capsys, "moduli-dim", str(SCENARIOS / "moduli_table.json"))
        assert code == 0
        by_name = {c["check"]: c for c in checks}
        assert by_name["moduli_dim_lines-in-P2"]["value"] == 2
        assert by_name["moduli_dim_conics-in-P2"]["value"] == 5
        assert by_name["moduli_dim_DM-genus-2"]["value"] == 3

    def test_index_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "index", str(SCENARIOS / "hardy_index.json"))
        assert code == 0
        assert any(c["check"] == "line_bundle_d10_index" and c["value"] == 21 for c in checks)

    def test_energy_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "energy", str(SCENARIOS / "energy_neck.json"))
        assert code == 0
        assert any(c["check"] == "energy_axiom_verdict" for c in checks)

    def test_reduce_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "reduce", str(SCENARIOS / "reduce_quadratic.json"))
        assert code == 0
        assert sum(1 for c in checks if "tangent" in c["check"]) >= 4

    def test_extend_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "extend-check", str(SCENARIOS / "annulus_pair.json"))
        assert code == 0
        assert any(c["check"] == "vprime_member" and c["value"] == 1 for c in checks)

    def test_thin_annulus_at_high_order_passes(self, tmp_path, capsys):
        # delta^(-n/2) overflows at delta = 1e-6, n = 110; a clean member
        # pair must still pass with strict-JSON output.
        from conftest import loop_to_json
        from hardyglue.loops import Loop
        xi = Loop.from_modes(1, 110, {0: [0.5], 1: [0.4]})
        eta = Loop.from_modes(1, 110, {0: [0.5], -1: [0.4e-6]})
        f = tmp_path / "annulus.json"
        f.write_text(json.dumps({"command": "extend-check", "params": {"nodes": [
            {"kind": "annulus", "delta": 1e-6, "xi": loop_to_json(xi), "eta": loop_to_json(eta)},
        ]}}), encoding="utf-8")
        code = main(["extend-check", str(f)])
        lines = strict_json_lines(capsys.readouterr().out)
        assert code == 0
        by_name = {c["check"]: c for c in lines[:-1]}
        assert by_name["node0_annulus_defect"]["status"] == "pass"
        assert by_name["node0_annulus_defect"]["residual"] == 0.0
        assert by_name["vprime_member"]["value"] == 1

    # A nonzero defect entry whose core weight delta^(-|n|/2) is past the
    # float range: 1e-6^(-100) = 1e600, and 1e-4^(-100) = 1e400 on 1e-300.
    @pytest.mark.parametrize("delta, low, expected", [
        (1e-6, 1.0, 1.7976931348623157e308),  # 201^1.5 * 1e600: only a lower bound fits
        (1e-4, 1e-300, 201.0**1.5 * 1e100),
    ])
    def test_annulus_weight_past_float_range_fails_finite(self, tmp_path, capsys, delta, low, expected):
        from conftest import loop_to_json
        from hardyglue.loops import Loop
        xi = Loop.from_modes(1, 200, {-200: [low]})
        f = tmp_path / "annulus.json"
        f.write_text(json.dumps({"command": "extend-check", "params": {"ball_check": False, "nodes": [
            {"kind": "annulus", "delta": delta, "xi": loop_to_json(xi),
             "eta": loop_to_json(Loop.zeros(1, 200))},
        ]}}), encoding="utf-8")
        code = main(["extend-check", str(f)])
        lines = strict_json_lines(capsys.readouterr().out)
        assert code == 1
        by_name = {c["check"]: c for c in lines[:-1]}
        assert by_name["node0_annulus_defect"]["status"] == "fail"
        assert by_name["node0_annulus_defect"]["residual"] == pytest.approx(expected, rel=1e-12)
        assert by_name["vprime_member"]["value"] == 0

    def test_annulus_weighted_sum_past_float_range_warns_nothing(self, tmp_path, capsys):
        # delta 1e-3 at order 110: the on-core defect entries reach 1e165, so
        # each square is a float and their weighted sum is not
        from conftest import loop_to_json
        from hardyglue.loops import Loop
        rng = np.random.default_rng(0)
        xi, eta = (Loop(1, 110, rng.uniform(-0.7, 0.7, (221, 1, 2)) @ [1, 1j]) for _ in range(2))
        code, lines, err, caught = run_params(tmp_path, capsys, "extend-check", {"nodes": [
            {"kind": "annulus", "delta": 1e-3, "xi": loop_to_json(xi), "eta": loop_to_json(eta)}]})
        assert caught == [] and err == ""
        assert code == 1
        by_name = {c["check"]: c for c in lines[:-1]}
        assert by_name["node0_annulus_defect"]["status"] == "fail"
        expected = float(annulus_defect_oracle(1e-3, xi.coeffs, eta.coeffs))
        assert by_name["node0_annulus_defect"]["residual"] == pytest.approx(expected, rel=1e-12)

    def test_ball_sup_past_squares_fails_finite(self, tmp_path, capsys):
        # |1e200|^2 is past the float range; the sampled sup is not
        big = {"m": 1, "n_max": 0, "coeffs": [[[1e200, 0]]]}
        code, lines, err, caught = run_params(tmp_path, capsys, "extend-check", {"nodes": [
            {"kind": "disk_pair", "xi": big, "eta": big}]})
        assert caught == [] and err == ""
        assert code == 1
        by_name = {c["check"]: c for c in lines[:-1]}
        assert by_name["node0_ball_sup"]["status"] == "fail"
        assert by_name["node0_ball_sup"]["residual"] == pytest.approx(1e200, rel=1e-15)
        assert by_name["node0_disk_pair_defect"]["status"] == "pass"

    @pytest.mark.parametrize("command, record, expected", [
        ("node-check", {"z": [0.5, 0.0]}, 1.5),
        ("extend-check", {"kind": "disk_pair", "z": [0.5, 0.0]}, 1.5),
        ("extend-check", {"kind": "annulus", "delta": 0.5}, 1.5 * 2 ** 0.5)])
    def test_defect_past_float_range_fails_finite(self, tmp_path, capsys, command, record, expected):
        # xi_{-1} - z eta_1 = 1.7e308 + 0.85e308 is past the float range; the
        # residual is 1.5 (on the annulus core circle, over delta^(1/2))
        xi = {"m": 1, "n_max": 1, "coeffs": [[[1.7e308, 0]], [[0, 0]], [[0, 0]]]}
        eta = {"m": 1, "n_max": 1, "coeffs": [[[0, 0]], [[0, 0]], [[-1.7e308, 0]]]}
        record = dict(record, xi=xi, eta=eta)
        params = {"boundary": record} if command == "node-check" else {"nodes": [record]}
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert caught == [] and err == ""
        assert code == 1
        by_name = {c["check"]: c for c in lines[:-1]}
        defect = by_name.get("membership") or by_name[f"node0_{record.get('kind')}_defect"]
        assert defect["status"] == "fail"
        assert defect["residual"] == pytest.approx(expected, rel=1e-15)
        if command == "extend-check":
            assert by_name["node0_ball_sup"]["status"] == "fail"
            assert by_name["node0_ball_sup"]["residual"] == pytest.approx(1.7e308, rel=1e-15)

    def test_contraction_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "moduli-dim", str(SCENARIOS / "vanishing_cycles.json"))
        assert code == 0
        assert any(c["check"] == "torus-pinch_genus_preserved" for c in checks)

    def test_explicit_boundary_membership(self, tmp_path, capsys):
        from conftest import boundary_to_json
        from hardyglue.loops import Loop
        from hardyglue.node_model import NodeBoundary
        b = NodeBoundary(0.25, Loop.from_modes(1, 2, {1: [1.0]}),
                         Loop.from_modes(1, 2, {-1: [0.25]}))
        f = tmp_path / "boundary.json"
        f.write_text(json.dumps({"command": "node-check",
                                 "params": {"boundary": boundary_to_json(b)}}), encoding="utf-8")
        code, checks, _ = run_cli(capsys, "node-check", str(f))
        assert code == 0
        assert checks[0]["check"] == "membership" and checks[0]["status"] == "pass"

    def test_huge_boundary_residual_is_finite(self, tmp_path, capsys):
        # |xi_0|^2 overflows; the membership residual must stay a number,
        # and the overflow that the rescale handles is not reported
        from conftest import boundary_to_json
        from hardyglue.loops import Loop
        from hardyglue.node_model import NodeBoundary
        b = NodeBoundary(0.5, Loop.from_modes(1, 1, {0: [1e200]}), Loop.zeros(1, 1))
        f = tmp_path / "boundary.json"
        f.write_text(json.dumps({"command": "node-check",
                                 "params": {"boundary": boundary_to_json(b)}}), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["node-check", str(f)])
        captured = capsys.readouterr()
        assert caught == [] and captured.err == ""
        lines = strict_json_lines(captured.out)
        assert code == 1
        assert lines[0]["check"] == "membership" and lines[0]["status"] == "fail"
        assert lines[0]["residual"] == pytest.approx(1.0, rel=1e-12)

    def test_intersect_scenario(self, tmp_path, capsys):
        f = tmp_path / "intersect.json"
        f.write_text(json.dumps({
            "command": "intersect",
            "params": {
                "dims": [1, 1, 1, 1],
                "components": [[{"c": [1, 0], "u": [2], "xp": [0]}]],
                "seed": [[0.5, 0]],
                "max_iter": 200,
                "tol": 1e-12,
            },
        }), encoding="utf-8")
        code, checks, _ = run_cli(capsys, "intersect", str(f))
        assert code == 0
        assert any(c["check"] == "newton_converged" and c["value"] == 1 for c in checks)

    @pytest.mark.parametrize("command, params, checks", [
        # f = 2e306 at the seed has a finite norm, and the damping of the
        # rank-1 J = 1e308 (u2, u1), relative to its scaled Gram matrix, does
        # not underflow: both seeds land on a root, where the tangent checks
        # compare a graph of slope 1e308 with unit axes, scales more than
        # 1/RANK_TOL apart, so their rank decisions differ
        ("reduce", {"dims": [2, 1, 1, 1], "components": [[{"c": [1e308, 0], "u": [1, 1], "xp": [0]},
                                                          {"c": [1, 0], "u": [0, 0], "xp": [2]}]],
                    "seeds": [[[0.4, 0], [0.05, 0]], [[0.03, 0], [-0.5, 0.1]]]},
         [{"check": "seed0_newton_residual", "residual": 0.0, "status": "pass", "tol": 1e-12},
          {"check": "seed0_tangent_cap_dims", "expected": 1, "status": "pass", "tol": 0.0, "value": 1},
          {"check": "seed0_tangent_cap_gap", "residual": 0.0, "status": "pass", "tol": 1e-06},
          {"check": "seed0_quotient_dims", "expected": 4, "status": "fail", "tol": 0.0, "value": 2},
          {"check": "seed1_newton_residual", "residual": 0.0, "status": "pass", "tol": 1e-12},
          {"check": "seed1_tangent_cap_dims", "expected": 2, "status": "fail", "tol": 0.0, "value": 1},
          {"check": "seed1_tangent_cap_gap", "residual": 1.0, "status": "fail", "tol": 1e-06},
          {"check": "seed1_quotient_dims", "expected": 4, "status": "fail", "tol": 0.0, "value": 2}]),
        # the seed's square, 1e400, is past the float range
        ("intersect", {**QUADRATIC_MAP, "seed": [[1e200, 0]]},
         [{"check": "newton_converged", "expected": 1, "status": "fail", "tol": 0.0, "value": 0},
          {"check": "newton_residual", "status": "inconclusive", "tol": 1e-12}]),
        # f = 1e308 u^2 is flat although its partial 2e308 u reads inf * 0 at
        # the origin; scenarios/reduce_quadratic.json with "c": [1e308, 0].
        # The infinite Jacobian gives no step, and the residual at each seed
        # is finite: 1e308 |seed|^2
        ("reduce", {"dims": [1, 1, 1, 1], "components": [[{"c": [1e308, 0], "u": [2], "xp": [0]}]],
                    "seeds": [[[0.5, 0]], [[-0.35, 0.2]]], "newton": {"max_iter": 300, "tol": 1e-12}},
         [{"check": "seed0_newton_residual", "residual": 2.5e307, "status": "fail", "tol": 1e-12},
          {"check": "seed1_newton_residual", "residual": 1.6249999999999996e307, "status": "fail", "tol": 1e-12}]),
    ])
    def test_newton_past_float_range_warns_nothing(self, tmp_path, capsys, command, params, checks):
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert caught == [] and err == ""
        assert code == 1
        assert [{k: v for k, v in c.items() if k != "scenario"} for c in lines[:-1]] == checks
        counts = [sum(c["status"] == status for c in checks) for status in ("fail", "inconclusive")]
        assert [lines[-1]["failures"], lines[-1]["inconclusive"]] == counts


    @pytest.mark.parametrize("command", ["intersect", "reduce"])
    def test_newton_normal_equations_past_the_float_range(self, tmp_path, capsys, command):
        # |df/du| = 1e308 squares past the float range in the normal
        # equations; scaled by powers of two, Newton lands on the simple
        # root u = 0 (the reduction's tangent checks are another matter)
        params = {"dims": [1, 1, 1, 1], "allow_nonflat": True,
                  "components": [[{"c": [1e308, 0], "u": [1], "xp": [0]},
                                  {"c": [-1e308, 1e308], "u": [0], "xp": [1]},
                                  {"c": [1, 0], "u": [2], "xp": [0]}]]}
        params.update({"seed": [[1e-300, 0]]} if command == "intersect" else {"seeds": [[[1e-300, 0]]]})
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert caught == [] and err == ""
        by_name = {c["check"]: c for c in lines[:-1]}
        residual = by_name["newton_residual" if command == "intersect" else "seed0_newton_residual"]
        assert residual["status"] == "pass" and residual["residual"] == 0.0
        if command == "intersect":
            assert code == 0 and by_name["newton_converged"]["value"] == 1


class TestErrorPaths:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["node-check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"id": "x", "command": "extend-check", "params": {}}),
                     encoding="utf-8")
        assert main(["extend-check", str(f)]) == 2
        assert "nodes" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"command": "energy", "params": {}}), encoding="utf-8")
        assert main(["node-check", str(f)]) == 2

    def test_missing_file(self, capsys):
        assert main(["node-check", "/nonexistent/path.json"]) == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        # nested past the recursion limit, whatever the limit and the stack depth
        ('{"params": ' + "[" * (sys.getrecursionlimit() + 10) + "]" * (sys.getrecursionlimit() + 10)
         + "}").encode(),
        # an integer of more digits than the interpreter converts
        ('{"params": {"line_bundle": {"d_max": ' + "1" * 5000 + "}}}").encode(),
    ], ids=["not-utf8", "nested-too-deep", "integer-past-digit-limit"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, content):
        f = tmp_path / "scenario.json"
        f.write_bytes(content)
        assert main(["index", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {f}: ") and err.count("\n") == 1

    # a value nested just short of the recursion limit, where each command
    # reads it: a [re, im] pair, a record, a scalar, a list or a matrix
    DEEP_PARAMS = {
        "energy": [{"z_seq": [0.5, 0], "laurent": {"a": "DEEP"}}, {"z_seq": "DEEP"},
                   {"z_seq": [[0.5, 0]], "eps_schedule": "DEEP"}],
        "node-check": [{"trials": "DEEP"}, {"boundary": {"z": "DEEP"}}, {"boundary": "DEEP"}],
        "index": [{"line_bundle": "DEEP"}, {"triples": [{"ambient_dim": 2, "basis_prime": "DEEP"}]},
                  {"triples": [{"ambient_dim": "DEEP"}]}],
    }

    @pytest.mark.parametrize("command", DEEP_PARAMS)
    def test_deep_values_exit_2_with_bounded_quotes(self, tmp_path, capsys, command):
        # each run on a new thread, whose stack starts as short as the CLI's
        from hardyglue.jsonio import QUOTE_LIMIT

        f = tmp_path / "scenario.json"
        quoted = 0
        for depth in range(960, 1000, 3):
            for params in self.DEEP_PARAMS[command]:
                text = json.dumps({"command": command, "params": params})
                f.write_text(text.replace('"DEEP"', "[" * depth + "0" + "]" * depth), encoding="utf-8")
                codes = []
                thread = threading.Thread(target=lambda: codes.append(main([command, str(f)])))
                thread.start()
                thread.join()
                assert codes == [2]
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                if "[[[" in err:  # quoted, not too deep to parse: a prefix of the bound's length
                    quote = re.search(r" (?:got|invalid value) (\[+)\.\.\.(?: \(.*\))?$", err)
                    assert quote and len(quote[1]) + 3 == QUOTE_LIMIT
                    quoted += 1
        assert quoted > 0

    def test_deep_node_kind_exits_2_with_bounded_quote(self, tmp_path, capsys):
        # a node record's kind nested just short of the recursion limit is
        # quoted to the bound, or is too deep to parse; never a traceback
        from hardyglue.jsonio import QUOTE_LIMIT

        loop = {"m": 1, "n_max": 0, "coeffs": [[[0.0, 0.0]]]}
        f = tmp_path / "scenario.json"
        head = "error: params.nodes[0].kind: expected 'disk_pair' or 'annulus', got "
        quoted = 0
        for depth in range(900, 1000, 3):
            node = {"kind": "DEEP", "xi": loop, "eta": loop}
            text = json.dumps({"command": "extend-check", "params": {"nodes": [node]}})
            f.write_text(text.replace('"DEEP"', "[" * depth + "0" + "]" * depth), encoding="utf-8")
            codes = []
            thread = threading.Thread(target=lambda: codes.append(main(["extend-check", str(f)])))
            thread.start()
            thread.join()
            assert codes == [2], depth
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            if err.startswith(head):
                assert len(err) - len(head) - 1 <= QUOTE_LIMIT and err.endswith("...\n")
                quoted += 1
            else:
                assert err == f"error: {f}: JSON nested too deeply to parse\n"
        assert quoted > 0

    def test_failing_check_exits_1(self, tmp_path, capsys):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({
            "command": "moduli-dim",
            "params": {"entries": [{"g": 0, "n": 0, "m": 2, "c1d": 3, "expect": 99}]},
        }), encoding="utf-8")
        assert main(["moduli-dim", str(f)]) == 1

    def test_nonmember_scenario_run_api(self, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"command": "node-check", "params": {"trials": 5, "n_max": 8}}),
                     encoding="utf-8")
        report = run_scenario(str(f), "node-check", RunOptions())
        assert report.command == "node-check"
        assert len(report.results) == 5

    def test_unknown_suite(self):
        with pytest.raises(ScenarioError):
            verify_suite("everything")

    def test_one_scenario_error(self):
        from hardyglue import jsonio

        assert ScenarioError is jsonio.ScenarioError and issubclass(ScenarioError, ValueError)

    def test_report_refuses_non_finite_numbers(self):
        from hardyglue.cli import CheckRecord, ScenarioReport, _emit_report

        check = CheckRecord("gap", "fail", 1e-8, residual=math.nan)
        with pytest.raises(ValueError, match="JSON compliant"):
            _emit_report(ScenarioReport("x", "energy", "0" * 64, (check,), 0.0), io.StringIO())

    @pytest.mark.parametrize("command, params, path", [
        ("extend-check",
         {"nodes": [{"kind": "disk_pair", "z": [0, 0],
                     "xi": {"m": 1, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]]]},
                     "eta": {"m": 1, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]], [[0, 0]]]}}]},
         "params.nodes[0].xi.coeffs"),
        ("index",
         {"triples": [{"ambient_dim": 2, "basis_prime": [[[1, 0]], [[0, None]]],
                       "basis_dprime": [[[0, 0]], [[1, 0]]]}]},
         "params.triples[0].basis_prime[1][0]"),
        ("extend-check",
         {"nodes": [{"kind": "annulus", "delta": 0.5,
                     "xi": {"m": 2, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]], [[0, 0]]]},
                     "eta": {"m": 2, "n_max": 1, "coeffs": [[[0, 0]], [[1, 0]], [[0, 0]]]}}]},
         "params.nodes[0].xi.coeffs"),
        ("extend-check", {"nodes": [5]}, "params.nodes[0]"),
        ("node-check", {"trials": "x"}, "params.trials"),
        ("index", {"line_bundle": {"d_max": "x"}}, "params.line_bundle.d_max"),
        ("reduce", {**QUADRATIC_MAP, "seeds": 5}, "params.seeds"),
        ("reduce", {**QUADRATIC_MAP, "dims": [None, 1, 1, 1], "seeds": []}, "params.dims[0]"),
        ("reduce", {**QUADRATIC_MAP, "newton": {"max_iter": "x"}, "seeds": []}, "params.newton.max_iter"),
        ("energy", {"z_seq": {"geometric": {"count": "x"}}, "laurent": {"a": [[1, 0]]}},
         "params.z_seq.geometric.count"),
        ("moduli-dim", {"entries": [{"g": "x", "n": 0, "m": 2, "c1d": 3, "expect": 2}]},
         "params.entries[0].g"),
        ("moduli-dim", {"contractions": [{"config": {"components": [5]}, "cycles": []}]},
         "params.contractions[0].config.components[0]"),
        ("moduli-dim", {"contractions": [{"config": {"components": [{"genus": 1}], "nodes": [[1]]},
                                          "cycles": []}]},
         "params.contractions[0].config.nodes[0]"),
        ("reduce", {**QUADRATIC_MAP, "components": [5], "seeds": []}, "params.components[0]"),
        # out-of-range node-check parameters and malformed loop fields
        ("node-check", {"m": 0}, "params.m"),
        ("node-check", {"n_max": -1}, "params.n_max"),
        ("node-check", {"z_max": 1.5}, "params.z_max"),
        ("node-check", {"z_max": 1.0}, "params.z_max"),
        ("node-check", {"z_max": -0.1}, "params.z_max"),
        ("node-check", {"trials": 0}, "params.trials"),
        ("node-check", {"seed": -1}, "params.seed"),
        ("node-check", {"boundary": 7}, "params.boundary"),
        ("node-check", {"boundary": {"z": [0, 0], "xi": LOOP_1, "eta": {**LOOP_1, "n_max": "a"}}},
         "params.boundary.eta.n_max"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": 5, "eta": LOOP_1}]}, "params.nodes[0].xi"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": "m", "eta": LOOP_1}]}, "params.nodes[0].xi"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": LOOP_1, "eta": {**LOOP_1, "n_max": "a"}}]},
         "params.nodes[0].eta.n_max"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": {**LOOP_1, "m": None}, "eta": LOOP_1}]},
         "params.nodes[0].xi.m"),
        # values the constructors reject
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": {"m": 0, "n_max": 0, "coeffs": [[]]},
                                     "eta": LOOP_1}]}, "params.nodes[0].xi"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": LOOP_1,
                                     "eta": {**LOOP_1, "coeffs": [[[1e400, 0]], [[1, 0]], [[0, 0]]]}}]},
         "params.nodes[0].eta"),
        ("node-check", {"boundary": {"z": [2, 0], "xi": LOOP_1, "eta": LOOP_1}}, "params.boundary"),
        ("node-check", {"boundary": {"z": [0, 0], "xi": LOOP_1,
                                     "eta": {"m": 2, "n_max": 1, "coeffs": [[[0, 0], [0, 0]]] * 3}}},
         "params.boundary"),
        # a polynomial whose rows and constant disagree on m, an unknown cycle
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[[1, 0], [0, 0]]], "c": [0, 0]}}, "params.laurent"),
        ("moduli-dim", {"contractions": [{"config": {"components": [{"genus": 1}]},
                                          "cycles": [{"kind": "twisted", "component": 0}]}]},
         "params.contractions[0].cycles[0].kind"),
        # values a model constructor or solver rejects, named by their record
        ("extend-check", {"nodes": [{"kind": "disk_pair", "xi": LOOP_1, "eta": LOOP_2}]}, "params.nodes[0]"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "z": [2, 0], "xi": LOOP_1, "eta": LOOP_1}]},
         "params.nodes[0]"),
        ("extend-check", {"nodes": [{"kind": "annulus", "delta": 0.5, "xi": LOOP_1, "eta": LOOP_2}]},
         "params.nodes[0]"),
        ("index", {"line_bundle": {"d_max": 5, "n_max": 4}}, "params.line_bundle"),
        ("moduli-dim", {"entries": [{"g": 0, "n": 0, "m": -1, "c1d": 3, "expect": 2}]}, "params.entries[0]"),
        ("reduce", {**QUADRATIC_MAP, "seeds": [[[0.5, 0], [0.1, 0]]]}, "params.seeds[0]"),
        ("intersect", {**QUADRATIC_MAP, "seed": [[0.5, 0], [0.1, 0]]}, "params.seed"),
        # tolerances that are not finite
        ("intersect", {**QUADRATIC_MAP, "seed": [[0.5, 0]], "tol": math.nan}, "params.tol"),
        ("reduce", {**QUADRATIC_MAP, "newton": {"tol": math.inf}, "seeds": [[[0.5, 0]]]}, "params.newton.tol"),
        # a negative exponent, which would divide by zero at the origin
        ("intersect", {"dims": [1, 1, 1, 1], "components": [[{"c": [1, 0], "u": [-1], "xp": [0]}]],
                       "seed": [[0.5, 0]]}, "params"),
        ("reduce", {"dims": [1, 1, 1, 1], "components": [[{"c": [1, 0], "u": [-1], "xp": [0]}]],
                    "seeds": [[[0.5, 0]]]}, "params"),
        # sizes past numpy's largest dimension, and an empty eps schedule
        ("node-check", {"m": 2 ** 64}, "params"),
        ("node-check", {"n_max": 1e308}, "params"),
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]}, "eps_schedule": []}, "params"),
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]}, "eps_schedule": {}}, "params.eps_schedule"),
        # a coefficient or a Newton seed that is not finite
        ("reduce", {"dims": [1, 1, 1, 1], "components": [[{"c": [1, 0], "u": [2], "xp": [0]},
                                                          {"c": [math.nan, 0], "u": [3], "xp": [0]}]],
                    "seeds": [[[0.5, 0]]]}, "params.components[0][1]"),
        ("intersect", {**QUADRATIC_MAP, "seed": [[math.inf, 0]]}, "params.seed"),
        ("reduce", {**QUADRATIC_MAP, "seeds": [[[0.5, 0]], [[0, -math.inf]]]}, "params.seeds[1]"),
        ("reduce", {**QUADRATIC_MAP, "seeds": [[[math.nan, 0]]]}, "params.seeds[0]"),
    ])
    def test_malformed_numeric_data_exits_2(self, tmp_path, capsys, command, params, path):
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert code == 2 and lines == [] and caught == []
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command, params, message", [
        ("index", {"triples": [{"ambient_dim": 2, "basis_prime": [[[math.nan, 0]], [[0, 0]]],
                                "basis_dprime": [[[0, 0]], [[1, 0]]]}]},
         "params.triples[0]: basis_prime: entries must be finite (no NaN/Inf)"),
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]], "b": [[math.inf, 0]]}},
         "params.laurent: b: coefficients must be finite (no NaN/Inf)"),
    ])
    def test_non_finite_model_data_names_its_field(self, tmp_path, capsys, command, params, message):
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert code == 2 and lines == [] and caught == []
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rows, code, message", [
        ([[], [], [], [], []], 2, "params.triples[0]: basis_prime: expected 2 rows, got shape (5, 0)"),
        ([[]], 2, "params.triples[0]: basis_prime: expected 2 rows, got shape (1, 0)"),
        ([[], []], 0, ""),
        ([], 0, ""),
    ], ids=["5 empty rows", "1 empty row", "2 empty rows", "no rows"])
    def test_basis_without_columns_keeps_its_row_count(self, tmp_path, capsys, rows, code, message):
        # only the empty list of rows stands for the N x 0 basis
        params = {"triples": [{"ambient_dim": 2, "basis_prime": rows, "basis_dprime": [[[1, 0]], [[0, 0]]]}]}
        got, lines, err, caught = run_params(tmp_path, capsys, "index", params)
        assert (got, err, caught) == (code, f"error: {message}\n" if message else "", [])
        assert (lines == []) == bool(message)

    @settings(max_examples=150, deadline=None)
    @given(fuzzed_index_params())
    def test_fuzzed_index_records_exit_cleanly(self, params):
        # exit 0, 1 or 2, no exception or warning, strict JSON lines, and a
        # quote in an error at most QUOTE_LIMIT characters long
        from hardyglue.jsonio import QUOTE_LIMIT

        text = json.dumps({"command": "index", "params": params})
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), mock.patch.object(sys, "stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["index", "-"])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            quote = re.search(r"(?:got|invalid value) (.*?)(?: \(expected [^()]*\))?$", err.rstrip("\n"))
            assert quote is None or len(quote[1]) <= QUOTE_LIMIT
        else:
            assert err == "" and strict_json_lines(out)[-1]["command"] == "index"

    @pytest.mark.parametrize("exc, text", [
        (MemoryError("Unable to allocate 8.00 EiB for an array"), "Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "MemoryError"),
    ])
    def test_memory_error_names_its_record(self, tmp_path, capsys, monkeypatch, exc, text):
        # raised by a stand-in: an allocation that is overcommitted and then
        # touched can end the process instead of raising
        from hardyglue import cli

        def battery(*args):
            raise exc

        monkeypatch.setattr(cli, "_node_random_battery", battery)
        code, lines, err, caught = run_params(tmp_path, capsys, "node-check", {"trials": 3})
        assert code == 2 and lines == [] and caught == []
        assert err == f"error: params: {text}\n"


def random_chart(disc, rng, m, n_max, z_max):
    """The `NodeChart` of one random chart, drawn by ``disc`` in the order
    of the batteries: ``z``, the xi_+ rows (modes 1..N), the eta_+ rows and
    ``lam``."""
    from hardyglue.loops import Loop
    from hardyglue.node_model import NodeChart, _plus_stack

    z = disc(rng, ()) * z_max
    xi_rows, eta_rows, lam = disc(rng, (n_max, m)), disc(rng, (n_max, m)), disc(rng, (m,))
    return NodeChart(z, Loop(m, n_max, _plus_stack(xi_rows[None], n_max)[0]),
                     Loop(m, n_max, _plus_stack(eta_rows[None], n_max)[0]), lam)


def random_poly(disc, rng, m, deg):
    """A random `NodePolynomial` of degree ``deg``, drawn by ``disc``: ``a``,
    ``b``, then ``c``."""
    from hardyglue.node_model import NodePolynomial

    return NodePolynomial(disc(rng, (deg, m)), disc(rng, (deg, m)), disc(rng, (m,)))


def record_results(monkeypatch, module, name):
    """Record the result of each call of ``module.name``."""
    results = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: results.append(real(*args)) or results[-1])
    return results


def first_generator(monkeypatch, run):
    """Call ``run()`` and return the first generator it made with
    `np.random.default_rng`, to read where the battery left it."""
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(real(*args)) or made[-1])
    try:
        run()
    finally:
        monkeypatch.setattr(np.random, "default_rng", real)
    return made[0]


class TestBulkDraws:
    """Each battery draws a block's doubles in one array and cuts it in the
    order of the per-trial draws; the points must have the bits of the
    reference `uniform_disc`, and the generator must end where the
    trial-by-trial loop ends."""

    @pytest.mark.parametrize("shape", [(), (8, 3), (11, 6), (25, 1), (0, 2)])
    @pytest.mark.parametrize("radius", [1.0, 3.0])
    def test_random_disc_bitwise(self, shape, radius, uniform_disc):
        from hardyglue.cli import _random_disc

        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got, want = _random_disc(rng, shape, radius), uniform_disc(ref, shape, radius)
                assert type(got) is type(want) and np.shape(got) == shape
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert rng.random() == ref.random()

    @staticmethod
    def capture(monkeypatch, module, name):
        """Record the arguments of each call of ``module.name``."""
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("kind, trials", [("chart", 1), ("pair", 1), ("mixed", 40)])
    def test_disk_pair_stacks_bitwise(self, kind, trials, uniform_disc, monkeypatch):
        from hardyglue import extension, node_model
        from hardyglue.cli import _disk_pair_block

        n_max = 12
        seed = next(s for s in range(100) if kind == "mixed" or
                    (np.random.default_rng(s).random() < 0.5) == (kind == "chart"))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        calls = self.capture(monkeypatch, node_model, "_membership_residuals")
        residuals, exact = extension.disk_pair_residuals(*_disk_pair_block(rng, trials, n_max))
        assert np.count_nonzero((residuals <= RunOptions().tol) == exact) == trials
        xi_got, eta_got = calls[-1][1:3]
        charted = []
        for t in range(trials):
            charted.append(ref.uniform() < 0.5)
            if charted[-1]:
                boundary = node_model.node_chart(random_chart(uniform_disc, ref, 1, n_max, 0.0))
                xi, eta = boundary.xi.coeffs, boundary.eta.coeffs
            else:
                xi, eta = (uniform_disc(ref, (2 * n_max + 1, 1)) for _ in range(2))
            assert xi_got[t].tobytes() == xi.tobytes() and eta_got[t].tobytes() == eta.tobytes()
        assert kind == "mixed" and 0 < sum(charted) < trials or charted == [kind == "chart"]
        assert rng.random() == ref.random()

    def test_annulus_draws_bitwise(self, uniform_disc):
        from hardyglue.cli import _annulus_block

        n_max = 12
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        delta, laurent = _annulus_block(rng, 9, n_max)
        for t in range(9):
            assert delta[t] == ref.uniform(0.15, 0.85)
            assert laurent[t].tobytes() == uniform_disc(ref, (2 * n_max + 1, 1)).tobytes()
        assert rng.random() == ref.random()

    @staticmethod
    def first_gate_failure(disc, trials, m, n_max, z_max, seed):
        """The message of the first ``|z| >= 1`` in the trial-by-trial draws
        of the node battery, or None."""
        from hardyglue import node_model

        rng = np.random.default_rng(seed)
        for _ in range(trials):
            z = disc(rng, ()) * z_max
            for shape in [(n_max, m)] * 2 + [(m,)] + [(min(8, n_max), m)] * 2 + [(m,)]:
                disc(rng, shape)
            for z in (z, disc(rng, ()) * z_max):
                try:
                    node_model._check_gluing(complex(z))
                except ValueError as exc:
                    return str(exc)
        return None

    # z_max 1.01 puts about 2% of the gluing parameters past the gate.  At
    # N = 64, m = 2 a block holds 16 trials; the first failure falls on a
    # trace's z in block 0 (seed 0), on a chart's z in block 0 (seed 1) and
    # in block 2 (seed 4), on a trace's z in block 2 (seed 8); seed 2 passes
    # the gate in all 60 trials
    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 8])
    def test_node_gate_names_first_failure(self, seed, uniform_disc):
        from hardyglue.cli import _node_random_battery

        message = self.first_gate_failure(uniform_disc, 60, 2, 64, 1.01, seed)
        if message is None:
            assert seed == 2 and len(_node_random_battery(RunOptions(), 60, 2, 64, 1.01, seed)) == 5
            return
        with pytest.raises(ValueError) as caught:
            _node_random_battery(RunOptions(), 60, 2, 64, 1.01, seed)
        assert str(caught.value) == message


class TestStackedNodeBattery:
    """The node battery checks its trials in stacks
    (`node_model.node_battery_residuals`) and its H-grid in one pass
    (`node_model.h_reproduction_gaps`); each residual of each trial and
    point must have the bits of the trial-by-trial and point-by-point loops
    over the public scalar API below."""

    @staticmethod
    def reference_battery(trials, m, n_max, z_max, seed, disc, s=1.5):
        from hardyglue import node_model as nm
        from hardyglue.loops import Loop, sobolev_norm

        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(trials):
            chart = random_chart(disc, rng, m, n_max, z_max)
            boundary = nm.node_chart(chart)
            member = nm.node_membership(boundary, s=s).residual
            back = nm.node_chart_inverse(boundary, tol=1e-8, s=s)
            num = np.linalg.norm(chart.xi_plus.coeffs - back.xi_plus.coeffs)
            num = np.hypot(num, np.linalg.norm(chart.eta_plus.coeffs - back.eta_plus.coeffs))
            num = np.hypot(num, np.linalg.norm(chart.lam - back.lam))
            num = np.hypot(num, abs(chart.z - back.z))
            scale = 1.0 + np.linalg.norm(chart.xi_plus.coeffs) + np.linalg.norm(chart.eta_plus.coeffs)
            roundtrip = float(num / scale)
            again = nm.node_chart(back)
            diffs = [Loop(m, n_max, p.coeffs - q.coeffs)
                     for p, q in ((boundary.xi, again.xi), (boundary.eta, again.eta))]
            num = np.hypot(*(sobolev_norm(d, s) for d in diffs))
            scale = 1.0 + max(sobolev_norm(boundary.xi, s), sobolev_norm(boundary.eta, s))
            poly = random_poly(disc, rng, m, deg=min(8, n_max))
            z = disc(rng, ()) * z_max
            trace = nm.node_membership(nm.boundary_traces(poly, z, n_max), s=s).residual
            rows.append((member, roundtrip, float(num / scale), trace))
        return rows, rng

    @staticmethod
    def reference_h_grid(rng, m, n_max, term_by_term, disc, grid=10):
        from hardyglue import node_model as nm

        poly = random_poly(disc, rng, m, deg=min(8, n_max))

        def family(z, t):
            return nm.node_chart_inverse(nm.boundary_traces(poly, z, n_max), tol=1e-8)

        gaps = []
        radii = 0.85 * (np.arange(grid) + 0.5) / grid
        for j in range(grid):
            x = radii[j] * np.exp(2j * np.pi * j / grid)
            for k in range(grid):
                y = radii[k] * np.exp(2j * np.pi * (k + 0.3) / grid)
                hval = nm.evaluate_H(family, x, y)
                ref = term_by_term(poly, x, y)
                gaps.append(float(np.max(np.abs(hval - ref))) / (1.0 + float(np.max(np.abs(ref)))))
        return gaps

    # 33 trials fill one block at N = 8 and several at N >= 64; N = 13 is no
    # multiple of 8, where numpy's pairwise sum of one column would round
    # differently at the polynomial's width.
    @pytest.mark.parametrize("n_max", [8, 13, 64, 256])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_battery_bitwise_equal_to_trial_loop(self, n_max, m, seed, term_by_term, uniform_disc,
                                                 monkeypatch):
        from hardyglue import node_model
        from hardyglue.cli import _node_random_battery

        passes = record_results(monkeypatch, node_model, "node_battery_residuals")
        grids = record_results(monkeypatch, node_model, "h_reproduction_gaps")
        records = []
        made = first_generator(monkeypatch, lambda: records.extend(
            _node_random_battery(RunOptions(), 33, m, n_max, 0.9, seed)))
        rows, rng = self.reference_battery(33, m, n_max, 0.9, seed, uniform_disc)
        gaps = self.reference_h_grid(rng, m, n_max, term_by_term, uniform_disc)
        # member, chart roundtrip, boundary roundtrip, trace member, trial by trial
        assert [np.concatenate(col).tolist() for col in zip(*passes)] == [list(col) for col in zip(*rows)]
        assert len(grids) == 1 and grids[0].tolist() == gaps
        worst = [max(col) for col in zip(*rows)]
        assert [r.residual for r in records] == [worst[0], worst[1], worst[3], worst[2], max(gaps)]
        assert made.random() == rng.random()

    def test_norms_taken_once_per_block(self, monkeypatch):
        # the trace and chart membership passes take 4 norm pairs each (xi,
        # eta and their two defects); the boundary roundtrip takes 2, of its
        # differences, and reads the references of xi and eta from the
        # chart pass: 10 a block, where a second pass over xi and eta made 12
        from hardyglue import loops, node_model
        from hardyglue.cli import _node_random_battery

        calls = []
        real = loops._norm_pairs
        for module in (loops, node_model):
            monkeypatch.setattr(module, "_norm_pairs", lambda *args: calls.append(args) or real(*args))
        blocks = record_results(monkeypatch, node_model, "node_battery_residuals")
        monkeypatch.setattr(node_model, "h_reproduction_gaps", lambda poly: np.zeros(1))
        _node_random_battery(RunOptions(), 100, 2, 64, 0.9, 5)
        assert len(blocks) == 7 and len(calls) == 10 * len(blocks)  # 16 trials a block at N = 64, m = 2


class TestStackedExtensionSuite:
    """`suite_extension` checks its trials as stacks; its records must equal
    those of the trial-by-trial loop over the public API below, and each row
    of the stacked annulus kernel must equal the scalar test on that row."""

    @staticmethod
    def reference_suite(opts, disc):
        from hardyglue import extension, node_model
        from hardyglue.cli import check_int, check_residual
        from hardyglue.loops import Loop

        rng = np.random.default_rng(opts.seed)
        s = opts.sobolev_s
        n_max = 12
        agreements = 0
        trials = 1000
        for _ in range(trials):
            if rng.uniform() < 0.5:
                boundary = node_model.node_chart(random_chart(disc, rng, 1, n_max, 0.0))
                xi, eta = boundary.xi, boundary.eta
            else:
                xi = Loop(1, n_max, disc(rng, (2 * n_max + 1, 1)))
                eta = Loop(1, n_max, disc(rng, (2 * n_max + 1, 1)))
            pair = extension.disk_pair_node_test(xi, eta, tol=opts.tol, s=s)
            exact = (not xi.coeffs[:n_max].any() and not eta.coeffs[:n_max].any()
                     and np.array_equal(xi.coeffs[n_max], eta.coeffs[n_max]))
            if pair.member == exact:
                agreements += 1
        checks = [check_int("disk_pair_vs_membership_agreement", agreements, trials)]
        sym_max = 0.0
        restriction_max = 0.0
        for _ in range(200):
            delta = float(rng.uniform(0.15, 0.85))
            laurent = Loop(1, n_max, disc(rng, (2 * n_max + 1, 1)))
            eta = Loop.from_modes(1, n_max, {n: laurent.mode(-n) * delta ** float(-n)
                                             for n in range(-n_max, n_max + 1)})
            fwd = extension.annulus_extension_test(laurent, eta, delta, tol=opts.tol, s=s)
            rev = extension.annulus_extension_test(eta, laurent, delta, tol=opts.tol, s=s)
            sym_max = max(sym_max, abs(fwd.residual - rev.residual) / (1.0 + fwd.residual))
            restriction_max = max(restriction_max, fwd.residual)
        checks.append(check_residual("annulus_swap_symmetry_max", sym_max, 1e-12))
        checks.append(check_residual("laurent_restriction_defect_max", restriction_max, 1e-12))
        return checks

    @pytest.mark.parametrize("seed", [0, 7, 11, 12345])
    def test_records_equal_to_trial_loop(self, seed, uniform_disc, monkeypatch):
        opts = RunOptions(seed=seed)
        got, want = [], []
        made = first_generator(monkeypatch, lambda: got.extend(verify_suite("extension", opts)))
        rng = first_generator(monkeypatch, lambda: want.extend(self.reference_suite(opts, uniform_disc)))
        assert got == want
        assert made.random() == rng.random()

    @pytest.mark.parametrize("seed", range(6))
    def test_block_of_one_trial(self, seed):
        # a block of one trial holds no chart or no random pair: the 1,000
        # trials end in a block of 4 at 166 per block
        from hardyglue import extension
        from hardyglue.cli import _disk_pair_block
        residuals, exact = extension.disk_pair_residuals(*_disk_pair_block(np.random.default_rng(seed), 1, 12))
        assert (residuals <= RunOptions().tol) == exact and residuals.shape == (1,)

    def test_pair_passes_rows_equal_scalar_tests(self):
        # every row of the two public passes against the scalar tests on
        # that pair alone, over blocks the CLI draws
        from hardyglue import extension, node_model
        from hardyglue.cli import _annulus_block, _disk_pair_block
        from hardyglue.loops import Loop

        n_max = 12
        rng = np.random.default_rng(11)
        charted, charts, pairs = _disk_pair_block(rng, 40, n_max)
        residuals, exact = extension.disk_pair_residuals(charted, charts, pairs)
        loops = iter(pairs)
        rows = iter(zip(*charts))
        for t in range(40):
            if charted[t]:
                xi_rows, eta_rows, lam = next(rows)
                plus = [Loop(1, n_max, node_model._plus_stack(r[None], n_max)[0]) for r in (xi_rows, eta_rows)]
                boundary = node_model.node_chart(node_model.NodeChart(0.0, *plus, lam))
                xi, eta = boundary.xi, boundary.eta
            else:
                xi, eta = (Loop(1, n_max, c) for c in next(loops))
            assert residuals[t] == extension.disk_pair_node_test(xi, eta).residual
            assert exact[t] == (not xi.coeffs[:n_max].any() and not eta.coeffs[:n_max].any()
                                and np.array_equal(xi.coeffs[n_max], eta.coeffs[n_max]))
        assert 0 < charted.sum() < 40 and exact.any() and not exact.all()
        delta, laurent = _annulus_block(rng, 9, n_max)
        asymmetry, defects = extension.annulus_pair_residuals(delta, laurent)
        for t, d in enumerate(delta.tolist()):
            xi = Loop(1, n_max, laurent[t])
            eta = Loop.from_modes(1, n_max, {n: xi.mode(-n) * d ** float(-n) for n in range(-n_max, n_max + 1)})
            fwd, rev = (extension.annulus_extension_test(p, q, d).residual for p, q in ((xi, eta), (eta, xi)))
            assert defects[t] == fwd and asymmetry[t] == abs(fwd - rev) / (1.0 + fwd)

    def test_annulus_kernel_rows_equal_scalar_test(self):
        # random, restricted (member) and overflow rows in one stack at
        # per-row deltas; n_max = 40, so delta^20 is the smallest weight
        from hardyglue import extension
        from hardyglue.cli import _random_disc
        from hardyglue.loops import Loop

        n_max, m = 40, 2
        rng = np.random.default_rng(5)
        rows = []
        for k in range(12):
            delta = float(rng.uniform(0.05, 0.95))
            xi = _random_disc(rng, (2 * n_max + 1, m)) * 10.0 ** rng.integers(-3, 4)
            weights = np.array([delta ** float(-n) for n in range(-n_max, n_max + 1)])[:, None]
            eta = xi[::-1] * weights if k % 2 else _random_disc(rng, (2 * n_max + 1, m))
            rows.append((delta, xi, eta))
        spike = np.zeros((2 * n_max + 1, m), dtype=complex)
        spike[0, 0] = 10.0  # mode -40
        zero = np.zeros_like(spike)
        rows += [(1e-16, spike, zero),         # a weight below the normal float range
                 (1e-12, 1e100 * spike, zero),  # a weighted entry past the float range
                 (10.0 ** -15.35, spike, zero),  # a weighted norm past the float range
                 (1e-16, zero, zero)]           # a zero defect needs no weight
        delta, xi, eta = (np.array(col) for col in zip(*rows))
        stacked = extension._annulus_defects(delta, xi, eta, 1.5).tolist()
        # the overflow rows against mpmath: 41^1.5 * 1e321 / (1 + 41^1.5 * 10)
        # is past the float range and reads as the largest float
        oracle = [annulus_defect_oracle(*row) for row in rows[12:15]]
        assert oracle[0] > np.finfo(float).max and stacked[12] == np.finfo(float).max
        assert stacked[13:15] == pytest.approx([float(x) for x in oracle[1:]], rel=1e-12)
        scalar = [extension.annulus_extension_test(Loop(m, n_max, x), Loop(m, n_max, y), d).residual
                  for d, x, y in rows]
        assert stacked == scalar
        assert max(stacked[1:12:2]) < 1e-12 < min(stacked[0:12:2])  # restrictions extend
        assert all(math.isfinite(d) for d in stacked) and stacked[-1] == 0.0


class TestStackedFredholmSuite:
    """`index_stability_check` certifies most triples without a trial and
    runs its trials one at a time otherwise; each verdict must equal that
    of the trial-by-trial loop below, and the records of `suite_fredholm`
    those of the suite over that loop."""

    @staticmethod
    def reference_stability(t, eps, trials, seed):
        from hardyglue import fredholm

        s = np.linalg.svd(np.hstack([t.basis_prime, t.basis_dprime]), compute_uv=False)
        base = fredholm.triple_index(t)
        rank = t.p + t.q - base.dim_cap
        below = s[rank] / s[0] if rank < s.size else 0.0
        gap = float(s[rank - 1] / s[0] - below) if s.size else 1.0
        if eps >= 0.1 * gap:
            return fredholm.StabilityResult("inconclusive", gap, 0)
        rng = np.random.default_rng(seed)

        def perturb(b):
            if b.size == 0:
                return b
            g = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            return b + eps * (np.linalg.norm(b) / np.linalg.norm(g)) * g

        for k in range(1, trials + 1):
            try:
                t2 = fredholm.SubspaceTriple(t.ambient_dim, perturb(t.basis_prime),
                                             perturb(t.basis_dprime))
            except ValueError:
                return fredholm.StabilityResult("changed", gap, k)
            if fredholm.triple_index(t2) != base:
                return fredholm.StabilityResult("changed", gap, k)
        return fredholm.StabilityResult("stable", gap, trials)

    @classmethod
    def reference_suite(cls, opts, disc, built):
        """The suite's records, trial by trial; each triple's ``(N, B', B'')``
        is appended to ``built`` in the order of the draws."""
        from hardyglue import fredholm
        from hardyglue.cli import check_int, check_residual

        # the Euler battery draws N, p and q as three arrays, then each [B' | B'']
        # by N, by width p + q and by trial, and splits it at p
        rng = np.random.default_rng(opts.seed)
        dims = rng.integers(1, 12, 1000)
        dims, ps, qs = (a.tolist() for a in (dims, rng.integers(0, dims + 1), rng.integers(0, dims + 1)))
        violations = 0
        for N in range(1, 12):
            for width in sorted({p + q for n, p, q in zip(dims, ps, qs) if n == N}):
                for n, p, q in zip(dims, ps, qs):
                    if n != N or p + q != width:
                        continue
                    b = disc(rng, (N, width))
                    built.append((N, b[:, :p], b[:, p:]))
                    try:
                        t = fredholm.SubspaceTriple(N, b[:, :p], b[:, p:])
                    except ValueError:
                        violations += 1
                        continue
                    if fredholm.triple_index(t).index != p + q - N:
                        violations += 1
        checks = [check_int("euler_identity_violations", violations, 0)]
        stable = 0
        for trial in range(100):
            built.append((8, disc(rng, (8, 3)), disc(rng, (8, 3))))
            t = fredholm.SubspaceTriple(*built[-1])
            if cls.reference_stability(t, 1e-6, 20, opts.seed + trial):
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

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_records_equal_to_trial_loop(self, seed, uniform_disc, monkeypatch):
        # and the suite's stacked builds take the reference's triples, bit for bit
        from hardyglue import fredholm

        opts = RunOptions(seed=seed)
        got, want, stacked, built = [], [], [], []
        build = fredholm.subspace_triples

        def recording(triples):
            stacked.extend(triples := list(triples))
            return build(triples)

        monkeypatch.setattr(fredholm, "subspace_triples", recording)
        made = first_generator(monkeypatch, lambda: got.extend(verify_suite("fredholm", opts)))
        monkeypatch.setattr(fredholm, "subspace_triples", build)
        rng = first_generator(monkeypatch, lambda: want.extend(self.reference_suite(opts, uniform_disc, built)))
        assert got == want
        assert made.random() == rng.random()
        assert len(stacked) == len(built) == 1100
        for (n, bp, bq), (n_ref, bp_ref, bq_ref) in zip(stacked, built):
            assert n == n_ref and bp.shape == bp_ref.shape and bq.shape == bq_ref.shape
            assert bp.tobytes() == bp_ref.tobytes() and bq.tobytes() == bq_ref.tobytes()

    @staticmethod
    def triples():
        """Random triples of every shape with a few near-dependent columns,
        then the engineered ones: a basis and [B' | B''] each with a relative
        singular value just above the rank tolerance, a near-degenerate
        triple, and one without columns."""
        from hardyglue.fredholm import SubspaceTriple

        rng = np.random.default_rng(123)
        for i in range(60):
            N = int(rng.integers(1, 9))
            p, q = (int(v) for v in rng.integers(0, N + 1, 2))
            bp = rng.standard_normal((N, p)) + 1j * rng.standard_normal((N, p))
            bq = rng.standard_normal((N, q)) + 1j * rng.standard_normal((N, q))
            if i % 5 == 0 and p and q:
                bq[:, 0] = bp[:, 0] + 10.0 ** -rng.integers(3, 9) * bq[:, 0]
            try:
                yield SubspaceTriple(N, bp, bq), float(10.0 ** -rng.uniform(2, 9))
            except ValueError:
                continue
        eye = np.eye(4, dtype=complex)
        thin = eye[:3, :2].copy()
        thin[1, 1] = 1.02e-9
        yield SubspaceTriple(3, thin, eye[:3, 2:3]), 9e-11
        yield SubspaceTriple(3, eye[:3, :1], eye[:3, :1] + 2.05e-9 * eye[:3, 1:2]), 1e-10
        near = eye[:, [2, 1]].copy()
        near[3, 1] = 1e-7
        yield SubspaceTriple(4, eye[:, :2], near), 1e-6
        yield SubspaceTriple(3, np.zeros((3, 0)), np.zeros((3, 0))), 1e-6

    @staticmethod
    def near_threshold():
        """Small random triples with one rank decision near the rule's
        threshold, each with an eps from a third to three times the largest
        that Weyl's inequality allows for that decision: a side with a
        relative singular value just above `RANK_TOL` against an invertible
        other side, then ``[a u0 | b (u0 + mu u1)]`` with its relative s_1
        below `RANK_TOL` and just above it."""
        from hardyglue.fredholm import RANK_TOL, SubspaceTriple

        rng = np.random.default_rng(99)

        def unitary(n):
            return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

        for i in range(36):
            factor = 10.0 ** rng.uniform(-0.5, 0.5)
            if i % 3 == 0:
                tau = RANK_TOL * (1 + 10.0 ** rng.uniform(-2, 0))
                bp, bq = unitary(2) @ np.diag([1.0, tau]) @ unitary(2), unitary(2)
                eps = factor * (tau - RANK_TOL) / np.linalg.norm(bp)
                yield SubspaceTriple(2, *((bq, bp) if i % 2 else (bp, bq))), eps
                continue
            N = int(rng.integers(2, 4))
            u = unitary(N)
            rel = RANK_TOL * (rng.uniform(0.1, 0.9) if i % 3 == 1 else 1 + 10.0 ** rng.uniform(-2, -0.5))
            a, b = rng.uniform(0.5, 2, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            # the relative s_1 is about |a b| mu / s_0^2, with s_0^2 about |a|^2 + |b|^2
            mu = rel * (abs(a) ** 2 + abs(b) ** 2) / abs(a * b)
            stacked = np.hstack([a * u[:, :1], b * (u[:, :1] + mu * u[:, 1:2])])
            s = np.linalg.svd(stacked, compute_uv=False)
            yield SubspaceTriple(N, stacked[:, :1], stacked[:, 1:]), \
                factor * abs(s[1] - RANK_TOL * s[0]) / np.linalg.norm(stacked)

    @classmethod
    def certified_but_changed(cls, triples):
        """The triples the certificate decides that the trial loop finds
        changed within 200 trials at one of 3 seeds."""
        from hardyglue import fredholm

        for t, eps in triples:
            if fredholm.index_stability_check(t, eps, trials=0).margin > 0:
                if any(cls.reference_stability(t, eps, 200, seed).verdict != "stable" for seed in range(3)):
                    yield t, eps

    def test_certified_triples_read_stable_in_the_trial_loop(self):
        from hardyglue import fredholm

        triples = [*self.triples(), *self.near_threshold()]
        assert list(self.certified_but_changed(triples)) == []
        certified = [fredholm.index_stability_check(t, eps, trials=0).margin > 0 for t, eps in triples]
        assert sum(certified[:64]) == 61 and sum(certified[64:]) == 11

    @pytest.mark.parametrize("mutant", ["d halved", "sides skipped"])
    def test_unsound_certificate_caught(self, monkeypatch, mutant):
        # the test above must fail under a certificate that claims too much
        from hardyglue import fredholm

        if mutant == "d halved":
            weyl_margin = fredholm._weyl_margin
            monkeypatch.setattr(fredholm, "_weyl_margin", lambda s, d: weyl_margin(s, d / 2))
        else:
            monkeypatch.setattr(fredholm, "_certificate", lambda t, eps: fredholm._weyl_margin(
                t.spectra[0], eps * np.linalg.norm(np.hstack([t.basis_prime, t.basis_dprime]))))
        assert next(self.certified_but_changed(self.near_threshold()), None) is not None

    def test_verdicts_equal_to_trial_loop(self, monkeypatch):
        from hardyglue import fredholm

        verdicts, certified = [], 0
        for i, (t, eps) in enumerate(self.triples()):
            for seed in (i, i + 1000):
                got = fredholm.index_stability_check(t, eps, trials=12, seed=seed)
                want = self.reference_stability(t, eps, 12, seed)
                if got.margin > 0:  # certified: past the gate, no trial drawn, "stable" in the loop
                    assert (got.verdict, got.trials) == ("stable", 0) and eps < 0.1 * got.min_gap
                    assert (want.verdict, want.min_gap) == (got.verdict, got.min_gap)
                    certified += 1
                    # the trials behind the certificate still give the loop's result
                    with monkeypatch.context() as patch:
                        patch.setattr(fredholm, "_certificate", lambda *args: 0.0)
                        got = fredholm.index_stability_check(t, eps, trials=12, seed=seed)
                assert got == want
                verdicts.append((got.verdict, got.trials))
        assert {v for v, _ in verdicts} == {"stable", "changed", "inconclusive"}
        assert max(k for v, k in verdicts if v == "changed") > 2
        assert certified == 122  # 61 of the 64 triples, at both seeds
        assert fredholm.index_stability_check(next(self.triples())[0], 1e-6, trials=0).trials == 0

    def test_svd_calls_pinned(self, monkeypatch):
        # verify fredholm at the default seed builds its triples in stacks, one
        # SVD per matrix shape N x width (and dtype, complex here) in each of a
        # build's two rounds, the sides and then [B' | B'']: the Euler battery
        # builds one N at a time.  A basis with N = 1 (1 x 1 or empty) or
        # without columns is a coordinate basis and takes its spectrum in
        # closed form, and so does [B' | B''] when both sides are.  So each
        # N >= 2 adds one call per width w >= 1 that it draws as p or q, 65
        # side shapes at seed 7, and one per p + q >= 1, 124 pair shapes.  The
        # 100 stability triples are one build, 8 x 3 sides and 8 x 6
        # [B' | B''], so 2 more; the certificate decides all 100 from the
        # spectra kept.  The five tangent checks make 22 calls of one matrix
        # each: per pair one SVD of the stacked bases and one of the cap, 4 a
        # check, plus the gap in the two checks whose caps have columns.  The
        # stacks hold one matrix per side with columns of each N >= 2 triple
        # and one per such triple's [B' | B''], 2,438, plus 300 from the
        # stability triples; no Euler triple is rejected.  One SVD per
        # spectrum of each triple made 2,752 calls.
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: calls.append(a.shape[:-2]) or real(a, *r, **k))
        verify_suite("fredholm")
        rng = np.random.default_rng(RunOptions().seed)
        dims = rng.integers(1, 12, 1000)
        p, q = rng.integers(0, dims + 1), rng.integers(0, dims + 1)
        drawn = [(n, p_i, q_i) for n, p_i, q_i in zip(dims.tolist(), p.tolist(), q.tolist()) if n > 1]
        sides = {(n, w) for n, *widths in drawn for w in widths if w}
        pairs = {(n, p_i + q_i) for n, p_i, q_i in drawn if p_i + q_i}
        assert (len(sides), len(pairs)) == (65, 124)
        assert len(calls) == 65 + 124 + 2 + 22 == 213
        stacked = sum((p_i > 0) + (q_i > 0) + (p_i + q_i > 0) for _, p_i, q_i in drawn)
        assert calls.count(()) == 22
        assert sum(shape[0] for shape in calls if shape) == stacked + 300 == 2738


def private_reads(source: str) -> list:
    """The underscore-prefixed names of the compute modules that ``source``
    reads, by ``from ... import`` or by attribute access on a name bound to
    one of those modules; `jsonio` is not among them."""
    modules = {"node_model", "extension", "loops", "degeneration", "fredholm", "moduli"}
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if origin in modules and alias.name.startswith("_"):
                    found.append(f"{origin}.{alias.name}")
                elif origin not in modules and alias.name in modules:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name.rsplit(".", 1)[-1] in modules)
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and node.attr.startswith("_")]
    return found


def package_sources() -> dict:
    """``{module name: source}`` of every module of the package."""
    from hardyglue import cli

    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(Path(cli.__file__).parent.glob("*.py"))}


def _binds_all(stmt) -> bool:
    """Whether a top-level statement assigns ``__all__``."""
    return isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _all_names(tree) -> list:
    """The names a module lists in ``__all__``."""
    return [elt.value for stmt in tree.body if _binds_all(stmt) for elt in stmt.value.elts]


# Definitions no command or suite reaches that stay, each with its reason;
# the layout guard starts its walk from them as well as from `cli`.
EXTRA_ROOTS = {
    "node_model.node_chart_inverse": "perfbench/selftest.py pins its call structure",
    "extension.disk_pair_node_test": "perfbench/selftest.py pins its call structure",
    "node_model.evaluate_H": "the bit-for-bit reference that h_reproduction_gaps is checked against",
}


def _import_origin(node):
    """The last part of the module a relative or ``hardyglue`` ``from``
    import reads (``""`` for ``from . import``), or None for another package."""
    if node.level or node.module.startswith("hardyglue"):
        return (node.module or "").rsplit(".", 1)[-1]
    return None


def _definition_graph(sources: dict) -> tuple:
    """``(trees, bound, reads)`` of the package: ``bound`` maps each
    ``(module, name)`` bound at top level by ``def``, ``class`` or
    assignment to its statement, and ``reads(module, node)`` is the set of
    those keys that the statement ``node`` of ``module`` reads.

    A read is a ``Name``, resolved through the module's imports from the
    package; an ``Attribute`` of a name bound to a package module (``from .
    import node_model``); a name imported inside a body; or a string
    literal equal to a bound name, in any module (the ``jsonio._public``
    lookups)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bound, imported, modules = {}, {}, {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound[module, stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    bound.update(((module, node.id), stmt) for node in ast.walk(target) if isinstance(node, ast.Name))
            elif isinstance(stmt, ast.ImportFrom) and _import_origin(stmt) is not None:
                origin = _import_origin(stmt)
                for alias in stmt.names:
                    if origin in sources:
                        imported[module, alias.asname or alias.name] = (origin, alias.name)
                    elif alias.name in sources:
                        modules[module, alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.Import):
                modules.update(((module, alias.asname), alias.name.rsplit(".", 1)[-1]) for alias in stmt.names
                               if alias.asname and alias.name.rsplit(".", 1)[-1] in sources)

    def resolve(module, name):
        key = (module, name)
        while key in imported:
            key = imported[key]
        return key if key in bound else None

    def reads(module, stmt) -> set:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(resolve(module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add(resolve(modules.get((module, node.value.id)), node.attr))
            elif isinstance(node, ast.ImportFrom):
                found.update(resolve(_import_origin(node), alias.name) for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(key for key in bound if key[1] == node.value)
        return found - {None}

    return trees, bound, reads


def reached_keys(sources: dict, roots=()) -> set:
    """The ``(module, name)`` keys reached by following reads from the
    statements of `cli` that run on import (its field tables, `HANDLERS`,
    the ``__main__`` call of `main`; not its definitions, imports or
    ``__all__``), and from the definitions named ``module.name`` in
    ``roots``."""
    trees, bound, reads = _definition_graph(sources)
    start = [key for key in (tuple(root.split(".", 1)) for root in roots) if key in bound]
    todo = [("cli", stmt) for stmt in trees["cli"].body
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)) and not _binds_all(stmt)]
    todo += [(key[0], bound[key]) for key in start]
    reached = set(start)
    while todo:
        module, stmt = todo.pop()
        for key in reads(module, stmt) - reached:
            reached.add(key)
            todo.append((key[0], bound[key]))
    return reached


def unreached_definitions(sources: dict, roots=EXTRA_ROOTS) -> list:
    """``module.name`` of each top-level ``def`` or ``class`` of the
    package, public or private, that `reached_keys` does not reach from
    `cli` and ``roots``.  A re-export in ``__init__`` is not a read."""
    reached = reached_keys(sources, roots)
    return [f"{module}.{stmt.name}" for module, text in sources.items() for stmt in ast.parse(text).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (module, stmt.name) not in reached]


def stale_roots(sources: dict, roots=EXTRA_ROOTS) -> list:
    """The entries of ``roots`` that name no top-level ``def`` or ``class``,
    or that are reached without them (from `cli` and the other roots)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    return [root for root in roots if root not in defined
            or tuple(root.split(".", 1)) in reached_keys(sources, [other for other in roots if other != root])]


def undefined_exports(sources: dict) -> list:
    """``module.name`` of each name in a module's ``__all__`` that the
    module does not bind at top level (by ``def``, ``class``, assignment or
    import)."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        bound = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    bound.update(node.id for node in ast.walk(target) if isinstance(node, ast.Name))
        found += [f"{module}.{name}" for name in _all_names(tree) if name not in bound]
    return found


class TestLayout:
    """The CLI draws, calls the public functions of the compute modules and
    reports; every relation pass lives next to its relation, and every
    definition of the package is reached from `cli` or goes."""

    PLANTED = ('\n\ndef planted(n):\n    """planted"""\n    return planted(n - 1) if n else _planted_helper()\n'
               '\n\ndef _planted_helper():\n    return 0\n')

    def planted_sources(self) -> dict:
        # `loops.planted` listed in ``__all__`` and re-exported by ``__init__``,
        # read only by its own body and docstring; its helper only by it
        sources = package_sources()
        sources["loops"] = sources["loops"].replace('__all__ = [\n', '__all__ = [\n    "planted",\n', 1) + self.PLANTED
        sources["__init__"] += "from .loops import planted\n"
        return sources

    def test_every_definition_is_reached_from_cli(self):
        assert unreached_definitions(package_sources()) == []

    def test_allow_list_is_short_and_live(self):
        assert len(EXTRA_ROOTS) <= 3 and stale_roots(package_sources()) == []
        # each entry is needed: without the list the three go unreached, and
        # the two helpers only they read with them
        assert sorted(unreached_definitions(package_sources(), ())) == [
            "extension.disk_pair_node_test", "loops.hardy_project", "node_model.eval_plus",
            "node_model.evaluate_H", "node_model.node_chart_inverse"]

    def test_every_name_in_all_is_defined(self):
        assert undefined_exports(package_sources()) == []

    def test_planted_unread_function_fails_the_guard(self):
        # a re-export and ``__all__`` are no readers, and neither is a
        # module that reads the name without importing it
        sources = self.planted_sources()
        assert unreached_definitions(sources) == ["loops.planted", "loops._planted_helper"]
        bare = {**sources, "cli": sources["cli"] + "\n_PLANTED = planted(3)\n"}
        assert unreached_definitions(bare) == ["loops.planted", "loops._planted_helper"]
        # an imported name, a module attribute or the string lookup run from
        # a statement of cli reaches it, and its helper through it
        for read in ("from .loops import planted as _p\n_PLANTED = _p(3)",
                     "import hardyglue.loops as _loops\n_PLANTED = _loops.planted(3)",
                     '_PLANTED = jsonio._public("planted")'):
            reached = {**sources, "cli": sources["cli"] + f"\n{read}\n"}
            assert unreached_definitions(reached) == []
        # a name listed in ``__all__`` but never bound fails the second rule
        del_def = sources["loops"].rsplit("\n\ndef planted", 1)[0]
        assert undefined_exports({**sources, "loops": del_def}) == ["loops.planted"]

    def test_helper_of_an_unreached_caller_fails_the_guard(self):
        # read by a definition of cli that nothing reaches: both unreached;
        # from `main`, through an import inside its body: both reached
        sources = self.planted_sources()
        caller = "\n\ndef _unreached():\n    from .loops import planted\n    return planted(2)\n"
        cli = sources["cli"].replace('\n\nif __name__ == "__main__":', caller + '\n\nif __name__ == "__main__":', 1)
        assert unreached_definitions({**sources, "cli": cli}) == [
            "cli._unreached", "loops.planted", "loops._planted_helper"]
        cli = cli.replace("def main(argv=None) -> int:\n", "def main(argv=None) -> int:\n    _unreached()\n", 1)
        assert unreached_definitions({**sources, "cli": cli}) == []

    def test_stale_allow_list_entry_fails_the_guard(self):
        # a name cli reaches anyway, one another entry reaches, and one never defined
        roots = {**EXTRA_ROOTS, "loops.sobolev_norm": "reached", "node_model.eval_plus": "reached by evaluate_H",
                 "loops.winding_number": "gone"}
        assert stale_roots(package_sources(), roots) == [
            "loops.sobolev_norm", "node_model.eval_plus", "loops.winding_number"]

    def test_cli_reads_no_private_name_of_the_compute_modules(self):
        from hardyglue import cli

        assert private_reads(Path(cli.__file__).read_text(encoding="utf-8")) == []

    def test_guard_sees_each_form_of_read(self):
        source = ("from . import node_model, fredholm as fh\n"
                  "from .loops import _l2_rows, sobolev_norm\n"
                  "from .jsonio import _record\n"
                  "import hardyglue.extension as ext\n"
                  "node_model._chart(node_model.node_chart, fh._rank, ext._annulus_defects)\n")
        assert sorted(private_reads(source)) == ["ext._annulus_defects", "fh._rank",
                                                 "loops._l2_rows", "node_model._chart"]

    def test_planted_power_table_fault_reaches_every_caller(self, monkeypatch, capsys):
        # one binding patched: each caller reads node_model._power_table
        # through the module, the annulus kernel in extension included
        from hardyglue import node_model

        real = node_model._power_table
        monkeypatch.setattr(node_model, "_power_table", lambda *args: real(*args) * 1.0001)
        code, checks, _ = run_cli(capsys, "verify", "all", "--seed", "7")
        status = {c["check"]: c["status"] for c in checks}
        assert code == 1
        assert status["node.h_reproduction_max"] == "fail"
        assert status["extension.laurent_restriction_defect_max"] == "fail"


class TestDeterminism:
    def test_reports_byte_identical_modulo_wall_time(self, capsys):
        def run_once():
            main(["node-check", str(SCENARIOS / "node_roundtrip.json"), "--seed", "7"])
            out = capsys.readouterr().out
            lines = out.strip().splitlines()
            summary = json.loads(lines[-1])
            summary.pop("wall_time_s")
            return lines[:-1], summary

        first_checks, first_summary = run_once()
        second_checks, second_summary = run_once()
        assert first_checks == second_checks
        assert first_summary == second_summary

    def test_cached_parser_carries_no_state(self, capsys):
        def run_all():
            out = []
            for path in sorted(SCENARIOS.glob("*.json")):
                command = json.loads(path.read_text(encoding="utf-8"))["command"]
                code = main([command, str(path)])
                text = re.sub(r'"wall_time_s": [^,}]*', '"wall_time_s": 0', capsys.readouterr().out)
                out.append((code, text))
            return out

        first = run_all()
        assert main(["verify", "energy", "--seed", "3", "--tol", "1e-9"]) == 0
        capsys.readouterr()
        assert run_all() == first
        assert len(first) == 10
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("argv", [["verify", "all"], *([name, "scenario.json"] for name in HANDLERS)],
                             ids=lambda argv: argv[0])
    def test_flag_defaults_are_the_run_options(self, argv):
        args = vars(_build_parser().parse_args(argv))
        assert {key: args[key] for key in vars(RunOptions())} == vars(RunOptions())

    def test_digest_tracks_inputs(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"command": "moduli-dim",
                                 "params": {"entries": [{"g": 0, "n": 0, "m": 2, "c1d": 3, "expect": 2}]}}))
        b.write_text(json.dumps({"command": "moduli-dim",
                                 "params": {"entries": [{"g": 0, "n": 1, "m": 2, "c1d": 3, "expect": 3}]}}))
        ra = run_scenario(str(a), "moduli-dim", RunOptions())
        rb = run_scenario(str(b), "moduli-dim", RunOptions())
        assert ra.inputs_digest != rb.inputs_digest
        ra2 = run_scenario(str(a), "moduli-dim", RunOptions())
        assert ra.inputs_digest == ra2.inputs_digest

    def test_digest_is_the_options_line_then_the_text(self):
        # a golden digest formed from its definition: sha256 of the command
        # and run options as one canonical JSON line, then the file's text
        path = SCENARIOS / "hardy_index.json"
        line = '{"command":"index","seed":7,"sobolev_s":1.5,"tol":1e-10,"truncation":32}'
        want = hashlib.sha256(f"{line}\n{path.read_text(encoding='utf-8')}".encode("utf-8")).hexdigest()
        golden = GOLDEN / "scenario_hardy_index.jsonl"
        assert json.loads(golden.read_text(encoding="utf-8").splitlines()[-1])["inputs_digest"] == want

    @pytest.mark.parametrize("flag", ["--truncation=31", "--sobolev-s=1.25", "--tol=1e-9", "--seed=11"])
    def test_each_flag_changes_the_digest(self, capsys, flag):
        def digests(*argv):
            main(["moduli-dim", str(SCENARIOS / "moduli_table.json"), *argv])
            main(["verify", "energy", *argv])
            return [json.loads(line)["inputs_digest"] for line in capsys.readouterr().out.splitlines()
                    if "inputs_digest" in line]

        plain, flagged = digests(), digests(flag)
        assert len(plain) == 2 and plain[0] != flagged[0] and plain[1] != flagged[1]

    def test_whitespace_edit_changes_the_digest(self, tmp_path):
        text = (SCENARIOS / "moduli_table.json").read_text(encoding="utf-8")
        for name, body in (("a.json", text), ("b.json", text.replace(": ", ":  ", 1))):
            (tmp_path / name).write_text(body, encoding="utf-8")
        reports = [run_scenario(str(tmp_path / name), "moduli-dim", RunOptions()) for name in ("a.json", "b.json")]
        assert reports[0].results == reports[1].results
        assert reports[0].inputs_digest != reports[1].inputs_digest


class TestVerify:
    def test_index_suite_passes(self, capsys):
        code, checks, summary = run_cli(capsys, "verify", "index")
        assert code == 0
        assert summary["failures"] == 0
        names = {c["check"] for c in checks}
        assert any(n.startswith("line_bundle_d10") for n in names)
        assert "hardy_sphere_m3_index" in names

    def test_identity_box_is_every_row(self, monkeypatch):
        # the dimension identities are checked on the whole box the random
        # draws sampled: every (g, n, m, <c1, d>, k), 7 * 7 * 6 * 25 * 5 rows
        from hardyglue import moduli

        rows, real = [], moduli.core_slice_dims

        def counting(g, n, k, target):
            rows.append((target.m, np.broadcast(g, n, k, target.c1d).size))
            return real(g, n, k, target)

        monkeypatch.setattr(moduli, "core_slice_dims", counting)
        checks = {c.name: c for c in verify_suite("index")}
        assert checks["dimension_identity_violations"].value == 0
        assert [m for m, _ in rows] == list(range(6)) and sum(size for _, size in rows) == 36750

    def test_identity_box_catches_a_fault_at_its_corner(self, monkeypatch, capsys):
        # a +1 fault at the single row (6, 6, 5, 12, 4), which 1,000 uniform
        # draws from the box miss with probability (1 - 1/36750)^1000, 97%
        from hardyglue import moduli

        real = moduli.core_slice_dims

        def planted(g, n, k, target):
            core, x0 = real(g, n, k, target)
            return core, x0 + ((g == 6) & (n == 6) & (k == 4) & (target.m == 5) & (target.c1d == 12))

        monkeypatch.setattr(moduli, "core_slice_dims", planted)
        code, checks, _ = run_cli(capsys, "verify", "index")
        failed = [c for c in checks if c["status"] != "pass"]
        assert code == 1 and [(c["check"], c["value"]) for c in failed] == [("dimension_identity_violations", 1)]

    def test_energy_suite_passes(self, capsys):
        code, _, summary = run_cli(capsys, "verify", "energy")
        assert code == 0 and summary["failures"] == 0

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        payload = json.dumps({"command": "moduli-dim",
                              "params": {"entries": [{"g": 2, "n": 0, "m": 0, "c1d": 0, "expect": 3}]}})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, checks, _ = run_cli(capsys, "moduli-dim", "-")
        assert code == 0
        assert checks[0]["status"] == "pass"

    def test_every_check_carries_tolerance_and_number(self, capsys):
        code, checks, _ = run_cli(capsys, "verify", "index")
        assert code == 0
        for c in checks:
            assert "tol" in c
            assert ("residual" in c) or ("value" in c)

    def test_verify_all_check_names_pinned(self, cli_output):
        # perfbench/gate.py holds the digest the benchmark gates on; pinning
        # it here makes a renamed or reordered check fail the tests too.  The
        # run at the default seed is shared with tests/test_golden.py.
        spec = importlib.util.spec_from_file_location("gate", SCENARIOS.parent / "perfbench" / "gate.py")
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        code, out = cli_output(("verify", "all", "--seed", "7"))
        *checks, summary = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(checks) == summary["checks"] == 86
        names = "\n".join(c["check"] for c in checks).encode()
        assert hashlib.sha256(names).hexdigest() == gate.VERIFY_ALL_NAMES_SHA256

    def test_dual_graph_enumeration_counts(self):
        # connected dual graphs with genera 0..2, counted before the
        # enumeration reused NodalConfig's connectivity check
        from hardyglue.cli import _small_dual_graphs
        assert sum(1 for _ in _small_dual_graphs(3, 3)) == 615
        assert sum(1 for _ in _small_dual_graphs(4, 4)) == 13668


class TestEnergyScale:
    def test_huge_neck_compares_on_the_scaled_neck(self, tmp_path, capsys):
        # |a|^2 = 1e320 overflows; both energies are homogeneous of degree 2,
        # so the comparisons are those of a divided by the power of two
        # 2^531 <= 1e160, and the energy itself (pi * 1e320 * eps^2) is past
        # the float range: the family fails
        params = {**ENERGY_FAMILY, "laurent": {"a": [[1e160, 0]]}, "expect_pass": False}
        code, lines, err, caught = run_params(tmp_path, capsys, "energy", params)
        assert code == 0 and err == "" and caught == []
        by_name = {c["check"]: c for c in lines[:-1]}
        unit = {**ENERGY_FAMILY, "laurent": {"a": [[math.ldexp(1e160, -531), 0]]}}
        _, unit_lines, _, _ = run_params(tmp_path, capsys, "energy", unit)
        for eps in ("0.1", "0.01", "0.001", "0.0001"):
            assert by_name[f"eps{eps}_k_limit_stable"]["status"] == "pass"
            check = by_name[f"eps{eps}_quadrature_agreement"]
            assert check["status"] == "pass"
            assert check["residual"] == next(c["residual"] for c in unit_lines
                                             if c["check"] == f"eps{eps}_quadrature_agreement")
        assert by_name["energy_axiom_verdict"]["value"] == 0

    def test_comparison_past_float_range_is_inconclusive(self, tmp_path, capsys):
        # the neck coefficient z*b = 5e-310 sits on a circle of radius
        # |z|/eps = 5e-156: r^-2 is past the float range even for the
        # scaled neck, so the quadrature agreement cannot be decided
        params = {"z_seq": [[0.5, 0], [5e-310, 0]], "laurent": {"b": [[1, 0]]},
                  "eps_schedule": [1e-154], "n_max": 4}
        code, lines, err, caught = run_params(tmp_path, capsys, "energy", params)
        assert code == 1 and err == "" and caught == []
        check = lines[0]
        assert check["check"] == "eps1e-154_quadrature_agreement"
        assert check["status"] == "inconclusive" and "residual" not in check
        assert lines[-1]["inconclusive"] == 1 and lines[-1]["failures"] == 0

    def test_neck_coefficient_past_an_underflowing_power(self, tmp_path, capsys):
        # z^39 = 1e-390 underflows, but b_39 z^39 = 1e-90 is a normal float:
        # the neck keeps it, so its energy on 1e-6 < |x| < 1e-4 (about
        # 39 pi 1e-180 1e468) is past the float range instead of 0, the
        # quadrature comparison is inconclusive and the family fails
        params = {"laurent": {"b": [[0, 0]] * 38 + [[1e300, 0]]}, "z_seq": [[0.5, 0], [1e-10, 0]],
                  "eps_schedule": [1e-4], "n_max": 40}
        code, lines, err, caught = run_params(tmp_path, capsys, "energy", params)
        assert code == 1 and err == "" and caught == []
        by_name = {c["check"]: c for c in lines[:-1]}
        assert by_name["eps0.0001_quadrature_agreement"]["status"] == "inconclusive"
        assert by_name["energy_axiom_verdict"]["value"] == 0

    @pytest.mark.parametrize("argv, calls", [
        (["energy", str(SCENARIOS / "energy_neck.json")], 2),
        (["verify", "energy"], 4),
    ])
    def test_necks_built_once_per_family(self, capsys, monkeypatch, argv, calls):
        # the last two parameters' necks, once per family (two families in
        # the suite), whatever the number of eps rows
        from hardyglue import degeneration
        made = []
        real = degeneration.neck_laurent
        monkeypatch.setattr(degeneration, "neck_laurent", lambda *a: made.append(a) or real(*a))
        assert main(argv) == 0
        strict_json_lines(capsys.readouterr().out)
        assert len(made) == calls


class TestParameterRanges:
    @pytest.mark.parametrize("params", [{"n_max": 0, "trials": 2}, {"z_max": 0.0, "trials": 2},
                                        {"m": 1, "trials": 1}])
    def test_edges_of_the_ranges_run(self, tmp_path, capsys, params):
        code, lines, err, caught = run_params(tmp_path, capsys, "node-check", params)
        assert code == 0 and err == "" and caught == []
        assert lines[-1]["checks"] == 5 and lines[-1]["failures"] == 0

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "node", "--truncation=-1"], "--truncation"),
        (["verify", "node", "--seed=-1"], "--seed"),
        (["extend-check", str(SCENARIOS / "annulus_pair.json"), "--sobolev-s=-1"], "--sobolev-s"),
        (["node-check", str(SCENARIOS / "node_roundtrip.json"), "--sobolev-s=inf"], "--sobolev-s"),
        (["extend-check", str(SCENARIOS / "annulus_pair.json"), "--tol=nan"], "--tol"),
        (["verify", "extension", "--sobolev-s=nan"], "--sobolev-s"),
        (["verify", "node", "--seed=x"], "--seed"),
    ])
    def test_common_flag_out_of_range_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        captured = capsys.readouterr()
        assert stop.value.code == 2 and captured.out == ""
        assert f"error: argument {flag}: " in captured.err

    def test_geometric_count_is_bounded_before_the_sequence_is_built(self, tmp_path, capsys):
        # at start = ratio = 0.5 term 1074 is 2**-1075, which rounds to 0.0,
        # and so is every later term: 1075 terms still decrease, 1076 do not
        from hardyglue import cli
        from hardyglue.degeneration import NeckFamily

        def z_seq(count):
            return cli._z_seq({"geometric": {"start": 0.5, "ratio": 0.5, "count": count}}, "params.z_seq")

        accepted = z_seq(1075)
        assert accepted == tuple(0.5 * 0.5 ** k for k in range(1075)) and accepted[-2:] == (5e-324, 0.0)
        with pytest.raises(ValueError, match=r"^z_seq\[1074\]: gluing parameter is 0"):
            NeckFamily.from_constant(None, accepted)
        assert z_seq(1) == (0.5,) and z_seq(0) == ()
        with pytest.raises(ValueError, match="strictly decreasing"):
            NeckFamily.from_constant(None, tuple(0.5 * 0.5 ** k for k in range(1076)))
        for count in (1076, 2_000_000, 10 ** 8, 10 ** 30):
            start = time.perf_counter()
            code, lines, err, _ = run_params(tmp_path, capsys, "energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]},
                                                                          "z_seq": {"geometric": {"count": count}}})
            assert time.perf_counter() - start < 0.5, count
            assert code == 2 and lines == []
            assert err == (f"error: params.z_seq: gluing parameter magnitudes must be strictly decreasing; "
                           f"geometric terms {count - 2} and {count - 1} are 0.0 and 0.0\n")

    @pytest.mark.parametrize("z_seq, k", [([[0.5, 0], [0, 0]], 1),
                                          ({"geometric": {"start": 0.5, "ratio": 0.5, "count": 1075}}, 1074)])
    def test_zero_gluing_parameter_names_its_term(self, tmp_path, capsys, z_seq, k):
        # only the last term of a decreasing sequence can be 0: 0.0 after
        # 0.5, or geometric term 1074, which rounds to 0.0 after 5e-324
        code, lines, err, caught = run_params(tmp_path, capsys, "energy", {**ENERGY_FAMILY, "z_seq": z_seq,
                                                                           "laurent": {"a": [[1, 0]]}})
        assert code == 2 and lines == [] and caught == []
        assert err == f"error: params.z_seq[{k}]: gluing parameter is 0; a neck needs 0 < |z| < 1\n"

    @pytest.mark.parametrize("command, params, where", [
        ("node-check", {"boundary": {"z": [math.nan, 0], "xi": LOOP_MODE_1, "eta": LOOP_MODE_1}}, "params.boundary"),
        ("extend-check", {"nodes": [{"kind": "disk_pair", "z": [math.nan, 0], "xi": LOOP_MODE_1,
                                     "eta": LOOP_MODE_1}]}, "params.nodes[0]"),
    ])
    def test_nan_gluing_parameter_names_its_record(self, tmp_path, capsys, command, params, where):
        # json reads NaN, and |z| >= 1 is False for it: the range test is
        # "not |z| < 1", or the NaN defect of mode 1 ends in a traceback
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert code == 2 and lines == [] and caught == []
        assert err == f"error: {where}: gluing parameter must satisfy |z| < 1, got |z|=nan\n"

    def test_common_flags_accept_zero(self, capsys):
        code = main(["extend-check", str(SCENARIOS / "annulus_pair.json"),
                     "--tol=0", "--sobolev-s=0", "--seed=0", "--truncation=0"])
        assert code in (0, 1) and strict_json_lines(capsys.readouterr().out)


class TestScenarioFields:
    def run(self, tmp_path, capsys, command, params):
        code, lines, err, caught = run_params(tmp_path, capsys, command, params)
        assert err == "" and caught == []
        return code, lines[:-1]

    def test_one_laurent_per_parameter_is_the_shared_laurent(self, tmp_path, capsys):
        shared = self.run(tmp_path, capsys, "energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]}})
        per_z = self.run(tmp_path, capsys, "energy",
                         {**ENERGY_FAMILY, "laurents": [{"a": [[1, 0]]}] * 34})
        assert per_z == shared and shared[0] == 0

    def test_laurents_and_laurent_together_exit_2(self, tmp_path, capsys):
        # neither field may silently win over the other
        params = {**ENERGY_FAMILY, "laurents": [{"a": [[1, 0]]}] * 34, "laurent": {"b": [[1, 0]]}}
        code, lines, err, caught = run_params(tmp_path, capsys, "energy", params)
        assert code == 2 and lines == [] and caught == []
        assert err == "error: params: give one of 'laurents' and 'laurent', not both\n"

    def test_laurents_with_a_growing_neck_fail(self, tmp_path, capsys):
        # b_1 = 1/z puts the fixed coefficient 1 on the neck mode x^-1: the
        # energy concentrates, no k-limit settles and the family fails
        z_seq = [0.5 ** k for k in range(1, 35)]
        params = {**ENERGY_FAMILY, "laurents": [{"b": [[1 / z, 0]]} for z in z_seq],
                  "expect_pass": False}
        code, checks = self.run(tmp_path, capsys, "energy", params)
        assert code == 1
        assert {c["status"] for c in checks if c["check"].endswith("_k_limit_stable")} == {"fail"}
        assert checks[-1] == {**checks[-1], "check": "energy_axiom_verdict", "status": "pass", "value": 0}

    def test_bare_pair_constant_means_m_1(self, tmp_path, capsys):
        bare = self.run(tmp_path, capsys, "energy",
                        {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]], "c": [0.5, 0]}})
        listed = self.run(tmp_path, capsys, "energy",
                          {**ENERGY_FAMILY, "laurent": {"a": [[[1, 0]]], "c": [[0.5, 0]]}})
        assert bare == listed and bare[0] == 0

    def test_expect_stable(self, tmp_path, capsys):
        # pinching a ghost torus leaves a ghost sphere with a node: two
        # special points, unstable; a mark on the torus makes it three
        def pinched(label, marks, stable):
            return {"label": label, "expect_stable": stable,
                    "config": {"components": [{"genus": 1, "ghost": True}], "marks": marks},
                    "cycles": [{"kind": "nonseparating", "component": 0}]}

        params = {"contractions": [pinched("bare", [], False), pinched("marked", [[0, 0]], True),
                                   pinched("wrong", [], True)]}
        code, checks = self.run(tmp_path, capsys, "moduli-dim", params)
        stable = {c["check"]: (c["status"], c["value"]) for c in checks if c["check"].endswith("_stable")}
        assert code == 1
        assert stable == {"bare_stable": ("pass", 0), "marked_stable": ("pass", 1),
                          "wrong_stable": ("fail", 0)}


    def test_builtin_table_leaves_user_entries_their_own_index(self, tmp_path, capsys):
        entry = {"g": 0, "n": 0, "m": 2, "c1d": 3, "expect": 2}
        code, checks = self.run(tmp_path, capsys, "moduli-dim", {"builtin_table": True, "entries": [entry]})
        assert code == 0 and len(checks) == 7 and checks[-1]["check"] == "moduli_dim_row0"
        code, lines, err, _ = run_params(tmp_path, capsys, "moduli-dim",
                                         {"builtin_table": True, "entries": [{**entry, "g": "x"}]})
        assert code == 2 and err.startswith("error: params.entries[0].g: ")


def contraction(**fields):
    """One torus-pinch contraction record with ``fields`` replaced."""
    config = {"components": [{"genus": 1, "ghost": False}], "marks": []}
    record = {"config": config, "cycles": [{"kind": "nonseparating", "component": 0}]}
    for key, value in fields.items():
        (config["components"][0] if key in ("genus", "ghost") else
         record["cycles"][0] if key == "component" else record)[key] = value
    return {"contractions": [record]}


def annulus_nodes(**fields):
    """``scenarios/annulus_pair.json`` with ``fields`` replaced; ``m`` goes
    to the first node's xi."""
    params = json.loads((SCENARIOS / "annulus_pair.json").read_text(encoding="utf-8"))["params"]
    if "m" in fields:
        params["nodes"][0]["xi"]["m"] = fields.pop("m")
    return {**params, **fields}


class TestStrictReaders:
    """Booleans, integers and numbers are read strictly: a string, null or
    a value of the wrong kind exits 2, naming the field's path, instead of
    reading as a truth value, a truncated integer or a float."""

    @pytest.mark.parametrize("value", ["false", "no", None, 0, 1, 1.5, [True]])
    def test_boolean_reader_rejects(self, tmp_path, capsys, value):
        code, lines, err, _ = run_params(tmp_path, capsys, "extend-check", annulus_nodes(ball_check=value))
        assert code == 2 and lines == []
        assert err.startswith(f"error: params.ball_check: invalid value {value!r} (expected true or false)")

    @pytest.mark.parametrize("value", [True, False, "2", None, 2.9, -0.5, [2]])
    def test_integer_reader_rejects(self, tmp_path, capsys, value):
        entry = {"g": value, "n": 0, "m": 0, "c1d": 0, "expect": 3}
        code, lines, err, _ = run_params(tmp_path, capsys, "moduli-dim", {"entries": [entry]})
        assert code == 2 and lines == []
        assert err.startswith(f"error: params.entries[0].g: invalid value {value!r} (expected an integer)")

    def test_valid_values_read(self, tmp_path, capsys):
        # an integral float is its integer; false switches the ball check off
        entry = {"g": 2, "n": 0, "m": 0, "c1d": 0, "expect": 3}
        as_int = run_params(tmp_path, capsys, "moduli-dim", {"entries": [entry]})
        as_float = run_params(tmp_path, capsys, "moduli-dim", {"entries": [{**entry, "g": 2.0}]})
        assert as_int[0] == as_float[0] == 0 and as_int[1][:-1] == as_float[1][:-1]
        code, lines, _, _ = run_params(tmp_path, capsys, "extend-check", annulus_nodes(ball_check=False))
        assert code == 0 and not any(line.get("check", "").endswith("_ball_sup") for line in lines)

    @pytest.mark.parametrize("command, params, path", [
        ("moduli-dim", {"builtin_table": "no"}, "params.builtin_table"),
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]}, "expect_pass": "true"}, "params.expect_pass"),
        ("moduli-dim", contraction(expect_stable=1), "params.contractions[0].expect_stable"),
        ("moduli-dim", contraction(ghost="no"), "params.contractions[0].config.components[0].ghost"),
        ("reduce", {**QUADRATIC_MAP, "allow_nonflat": 1, "seeds": [[[0.5, 0]]]}, "params.allow_nonflat"),
        ("node-check", {"trials": 2.5}, "params.trials"),
        ("node-check", {"n_max": "8"}, "params.n_max"),
        ("index", {"line_bundle": {"d_max": 1.5}}, "params.line_bundle.d_max"),
        ("index", {"triples": [{"ambient_dim": True, "basis_prime": [], "basis_dprime": []}]},
         "params.triples[0].ambient_dim"),
        ("reduce", {**QUADRATIC_MAP, "seeds": [[[0.5, 0]]], "newton": {"max_iter": "300"}},
         "params.newton.max_iter"),
        ("energy", {**ENERGY_FAMILY, "z_seq": {"geometric": {"count": 34.5}}, "laurent": {"a": [[1, 0]]}},
         "params.z_seq.geometric.count"),
        ("extend-check", annulus_nodes(m=1.5), "params.nodes[0].xi.m"),
        ("reduce", {**QUADRATIC_MAP, "dims": [1, 1, 1, 1.5], "seeds": [[[0.5, 0]]]}, "params.dims[3]"),
        ("moduli-dim", contraction(genus="1"), "params.contractions[0].config.components[0].genus"),
        ("moduli-dim", contraction(component=False), "params.contractions[0].cycles[0].component"),
        ("moduli-dim", contraction(expect_genus=1.5), "params.contractions[0].expect_genus"),
        # numbers: a boolean or a numeric string is not a float
        ("intersect", {**QUADRATIC_MAP, "seed": [[0.5, 0]], "tol": True}, "params.tol"),
        ("node-check", {"trials": 1, "z_max": "0.5"}, "params.z_max"),
        ("energy", {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]}, "eps_schedule": ["0.1"]}, "params.eps_schedule[0]"),
    ])
    def test_every_field_reads_strictly(self, tmp_path, capsys, command, params, path):
        code, lines, err, _ = run_params(tmp_path, capsys, command, params)
        assert code == 2 and lines == [] and err.startswith(f"error: {path}: ")


class TestExtensionSuite:
    def test_disk_pairs_checked_against_the_exact_conditions(self, monkeypatch):
        # the disk pairs go through one stacked membership pass, so neither
        # node_membership nor Loop runs per trial; the agreement is with the
        # exact conditions
        from hardyglue import extension, loops, node_model
        calls, built = [], []
        real = node_model.node_membership
        counted = lambda *a, **k: calls.append(1) or real(*a, **k)
        monkeypatch.setattr(node_model, "node_membership", counted)
        monkeypatch.setattr(extension, "node_membership", counted)
        real_init = loops.Loop.__post_init__
        monkeypatch.setattr(loops.Loop, "__post_init__", lambda self: built.append(1) or real_init(self))
        records = verify_suite("extension")
        assert len(calls) == 0 and len(built) == 0
        agreement = records[0]
        assert agreement.name == "disk_pair_vs_membership_agreement"
        assert agreement.status == "pass" and agreement.value == agreement.expected == 1000


def closure(fn) -> dict:
    """The free variables of the function ``fn`` by name; {} for anything
    without a closure."""
    cells = getattr(fn, "__closure__", None)
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in cells))) if cells else {}


def table_fields(*modules) -> dict:
    """``{id(field): (key, reader)}`` for each ``(reader, default)`` field of
    every table reachable from the globals of ``modules``: a table is a
    dict of such pairs, searched through nested tables and the closures of
    readers."""
    fields, seen = {}, set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, dict):
            table = bool(obj) and all(isinstance(v, tuple) and len(v) == 2 for v in obj.values())
            for key, value in obj.items():
                if table:
                    fields[id(value)] = (key, value[0])
                visit(value[0] if table else value)
        else:
            for value in closure(obj).values():
                visit(value)

    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("__"):
                visit(value)
    return fields


def read_params(command):
    from hardyglue import cli

    return lambda params: cli._record(params, cli.FIELDS[command], "params")


def table_reads():
    """``(path of the root, data, read)`` cases that together reach every
    field table: the root of a scenario, each file in `scenarios/`, a
    boundary and an intersection."""
    from hardyglue import cli

    files = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIOS.glob("*.json"))]
    return [("scenario", {"id": "x", "command": "index", "params": {}},
             lambda data: cli._record(data, cli._ROOT, "scenario")),
            *(("params", scenario["params"], read_params(scenario["command"])) for scenario in files),
            ("params", {"boundary": {"z": [0, 0], "xi": LOOP_1, "eta": LOOP_1}}, read_params("node-check")),
            ("params", {**QUADRATIC_MAP, "seed": [[0.5, 0]]}, read_params("intersect"))]


def at_path(data, path: str):
    """The element of ``data`` at a path suffix such as ``.nodes[0].xi``."""
    for name, index in re.findall(r"\.(\w+)|\[(\d+)\]", path):
        data = data[name] if name else data[int(index)]
    return data


class TestFieldTables:
    """Each record is read through its field table: a key outside it exits
    2 naming the record's path and its known keys, and every strict field
    of every table rejects a value of the wrong kind."""

    @pytest.mark.parametrize("command, scenario, message", [
        ("moduli-dim", {"command": "moduli-dim", "params": {"builtin_table": True}, "comment": "x"},
         "scenario: unknown field 'comment'; known fields: id, command, params"),
        ("node-check", {"params": {"trails": 1000, "n_max": 8}},
         "params: unknown field 'trails'; known fields: boundary, trials, m, n_max, z_max, seed"),
        ("extend-check", {"params": annulus_nodes(nodes=[{**annulus_nodes()["nodes"][0],
                                                            "xi": {**LOOP_1, "n_min": 0}}])},
         "params.nodes[0].xi: unknown field 'n_min'; known fields: m, n_max, coeffs"),
        ("reduce", {"params": {**QUADRATIC_MAP, "seeds": [],
                               "components": [[{"c": [1, 0], "u": [2], "xp": [0], "deg": 2}]]}},
         "params.components[0][0]: unknown field 'deg'; known fields: c, u, xp"),
        ("moduli-dim", {"params": contraction(name="torus")},
         "params.contractions[0]: unknown field 'name'; known fields: label, config, cycles, expect_genus, "
         "expect_stable"),
        ("moduli-dim", {"params": {"contractions": [{"config": {"components": [{"genus": 1, "name": "torus"}]},
                                                      "cycles": []}]}},
         "params.contractions[0].config.components[0]: unknown field 'name'; known fields: genus, ghost"),
        ("energy", {"params": {**ENERGY_FAMILY, "laurent": {"a": [[1, 0]]},
                               "z_seq": {"geometric": {"start": 0.5, "stop": 1e-9}}}},
         "params.z_seq.geometric: unknown field 'stop'; known fields: start, ratio, count"),
        ("moduli-dim", {"params": contraction(cycles=[{"kind": "nonseparating", "component": 0, "genus_first": 1}])},
         "params.contractions[0].cycles[0]: unknown field 'genus_first'; known fields: kind, component"),
        ("moduli-dim", {"params": contraction(cycles=[{"kind": "separating", "component": 0, "genus_first": 1,
                                                       "points": []}])},
         "params.contractions[0].cycles[0]: unknown field 'points'; known fields: kind, component, genus_first, "
         "points_first"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, command, scenario, message):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(scenario), encoding="utf-8")
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("scenario, path, value", [
        ({"id": {"a": 1}, "params": {"builtin_table": True}}, "scenario.id", {"a": 1}),
        ({"id": None, "params": {"builtin_table": True}}, "scenario.id", None),
        ({"params": {"entries": [{"label": [1, 2], "g": 0, "n": 3, "m": 1, "c1d": 2, "expect": 5}]}},
         "params.entries[0].label", [1, 2]),
        ({"params": contraction(label=3)}, "params.contractions[0].label", 3),
    ])
    def test_ids_and_labels_are_strings(self, tmp_path, capsys, scenario, path, value):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["moduli-dim", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: invalid value {value!r} (expected a string)\n"

    def test_every_strict_field_rejects_a_wrong_kind(self, monkeypatch):
        # the tables are walked, so a field added to any of them is probed;
        # each is probed at the first record that reaches its table
        from hardyglue import cli, jsonio

        bad_values = {jsonio._boolean: ("x", 1, None), jsonio._integer: ("x", True, None),
                      jsonio._number: ("x", True, None), jsonio._string: (1, ["x"], None)}

        def strict(reader):
            reader = closure(reader).get("conv", reader)  # a range check reads through its conv
            return next((kind for kind in bad_values if reader is kind), None)

        reached, real, case = {}, jsonio._record, None

        def recording(data, fields, where):
            for key, field in fields.items():
                reached.setdefault(id(field), (case, where, key, field[0]))
            return real(data, fields, where)

        monkeypatch.setattr(jsonio, "_record", recording)
        monkeypatch.setattr(cli, "_record", recording)
        for case in table_reads():
            case[2](json.loads(json.dumps(case[1])))
        fields = table_fields(jsonio, cli)
        assert sorted(key for fid, (key, _) in fields.items() if fid not in reached) == []
        monkeypatch.undo()

        def known(reader):
            # a nested table, a model, a public reader, a list of known
            # items, a strict scalar, or one of the structured readers
            cells = closure(reader)
            if isinstance(reader, dict) or "fields" in cells or "name" in cells:
                return True
            if "length" in cells:
                return known(cells["reader"])
            return strict(reader) is not None or reader in (jsonio._any, cli._parse_coeff_rows, cli._constant,
                                                               cli._cycle, cli._node_kind, cli._z_seq)

        assert sorted(key for key, reader in fields.values() if not known(reader)) == []

        probed = 0
        for (root, base, read), where, key, reader in reached.values():
            item = closure(reader).get("reader") if "length" in closure(reader) else None
            kind = strict(reader if item is None else item)
            if kind is None:
                continue
            for bad in bad_values[kind]:
                data = json.loads(json.dumps(base))
                record = at_path(data, where[len(root):])
                if item is None:
                    record[key], path = bad, f"{where}.{key}"
                else:
                    record[key], path = [bad, *record.get(key, [])[1:]], f"{where}.{key}[0]"
                with pytest.raises(ScenarioError) as raised:
                    read(data)
                assert str(raised.value).startswith(f"{path}: invalid value {bad!r} ("), str(raised.value)
            probed += 1
        assert probed >= 40

    def test_scenarios_and_workload_rounds_run_clean(self, tmp_path, capsys, monkeypatch, cli_output):
        for path in sorted(SCENARIOS.glob("*.json")):
            command = json.loads(path.read_text(encoding="utf-8"))["command"]
            assert cli_output((command, str(path)))[0] == 0, path.name
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        # the smallest pools: make_rounds still writes round 0 of each
        monkeypatch.setitem(workloads.POOL_ROUNDS, "node-highN", 1)
        monkeypatch.setitem(workloads.POOL_ROUNDS, "scenario-mix", 0)
        for workload in ("node-highN", "scenario-mix"):
            jobs = workloads.make_rounds(workload, 1, str(tmp_path))[0]
            codes = [main(list(job.argv)) for job in jobs]
            assert codes == [0] * len(jobs), capsys.readouterr().err
        capsys.readouterr()
