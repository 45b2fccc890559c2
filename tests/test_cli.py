import json
import re
import warnings
from pathlib import Path

import pytest

from hardyglue.cli import RunOptions, ScenarioError, _build_parser, main, run_scenario, verify_suite

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        from hardyglue.jsonio import loop_to_json
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

    def test_contraction_scenario(self, capsys):
        code, checks, _ = run_cli(capsys, "moduli-dim", str(SCENARIOS / "vanishing_cycles.json"))
        assert code == 0
        assert any(c["check"] == "torus-pinch_genus_preserved" for c in checks)

    def test_explicit_boundary_membership(self, tmp_path, capsys):
        from hardyglue.jsonio import boundary_to_json
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
        from hardyglue.jsonio import boundary_to_json
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
    ])
    def test_malformed_numeric_data_exits_2(self, tmp_path, capsys, command, params, path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"command": command, "params": params}), encoding="utf-8")
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")


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
        assert len(first) == 7
        assert _build_parser() is _build_parser()

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


class TestVerify:
    def test_index_suite_passes(self, capsys):
        code, checks, summary = run_cli(capsys, "verify", "index")
        assert code == 0
        assert summary["failures"] == 0
        names = {c["check"] for c in checks}
        assert any(n.startswith("line_bundle_d10") for n in names)
        assert "hardy_sphere_m3_index" in names

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

    def test_dual_graph_enumeration_counts(self):
        # connected dual graphs with genera 0..2, counted before the
        # enumeration reused NodalConfig's connectivity check
        from hardyglue.cli import _small_dual_graphs
        assert sum(1 for _ in _small_dual_graphs(3, 3)) == 615
        assert sum(1 for _ in _small_dual_graphs(4, 4)) == 13668
