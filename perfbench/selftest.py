"""Self-test of the benchmark's tracer and correctness gate.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It traces a few calls on a fixed tiny input (N = 2, m = 1) and compares the
recorded call counts with counts worked out by hand from the source:

* ``node_chart`` calls ``transfer_Tz`` twice and builds 2 loops of its own;
  each ``transfer_Tz`` builds 1 loop.
* ``node_membership`` calls ``membership_defect`` once (2 loops) and
  ``sobolev_norm`` four times (both defects, xi and eta).
* ``node_chart_inverse`` calls ``node_membership`` once and ``hardy_project``
  three times, two of which build a loop.
* ``extension.disk_pair_node_test`` reaches ``node_membership`` through the
  name that ``extension`` imported from ``node_model``.
* ``moduli-dim`` on the builtin table through ``cli.main`` computes 6
  dimensions, parses the file once and dumps 8 JSON strings (1 digest,
  6 check lines, 1 summary).

It also checks that self times plus the unattributed remainder add up to
the traced wall time, that uninstalling restores every binding, and that
the gate rejects ``NaN``, failed checks and a wrong check count.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    from hardyglue import cli, extension, loops, node_model
    from hardyglue.loops import Loop
    from hardyglue.node_model import NodeChart

    from gate import check_report, run_job
    from tracing import Tracer, layer_metrics
    from workloads import Job

    results = []

    def expect(label, got, want):
        results.append((label, got, want))

    plus = np.zeros((5, 1), complex)
    plus[3:] = [[0.5], [0.25j]]
    chart = NodeChart(0.3 + 0.1j, Loop(1, 2, plus), Loop(1, 2, plus * 2), np.array([0.2]))
    originals = {"loops.sobolev_norm": loops.sobolev_norm,
                 "node_model.sobolev_norm": node_model.sobolev_norm,
                 "extension.node_membership": extension.node_membership,
                 "cli.HANDLERS[moduli-dim]": cli.HANDLERS["moduli-dim"],
                 "cli.json": cli.json, "Loop.__post_init__": Loop.__post_init__}

    scratch = Path.cwd() / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        scenario = os.path.join(tmp, "table.json")
        with open(scenario, "w", encoding="ascii") as fh:
            json.dump({"id": "table", "command": "moduli-dim", "params": {"builtin_table": True}}, fh)
        size = os.path.getsize(scenario)

        tracer = Tracer()
        with tracer:
            start = perf_counter()
            tracer.begin_job("n2")
            boundary = node_model.node_chart(chart)
            node_model.node_membership(boundary)
            node_model.node_chart_inverse(boundary)
            extension.disk_pair_node_test(boundary.xi, boundary.eta)
            tracer.begin_job()
            _, reason, _ = run_job(cli, Job("moduli-dim", ("moduli-dim", scenario), "table", 6))
            wall = perf_counter() - start
        expect("moduli-dim job passes the gate", reason, None)

    names = tracer.summarize()["names"]

    def calls(name):
        return names[name][0] if name in names else 0

    expect("node_chart calls", calls("node_model.node_chart"), 1)
    expect("transfer_Tz calls (2 per node_chart)", calls("node_model.transfer_Tz"), 2)
    expect("node_membership calls (direct 1, inverse 1, disk pair 1)",
           calls("node_model.node_membership"), 3)
    expect("membership_defect calls (1 per membership)", calls("node_model.membership_defect"), 3)
    expect("sobolev_norm calls (4 per membership)", calls("loops.sobolev_norm"), 12)
    expect("hardy_project calls", calls("loops.hardy_project"), 3)
    expect("Loop constructions (4 chart + 2x3 defects + 2 projections)",
           calls("loops.Loop.__post_init__"), 12)
    expect("disk_pair_node_test calls", calls("extension.disk_pair_node_test"), 1)
    expect("moduli_dimension calls", calls("moduli.moduli_dimension"), 6)
    expect("check_int calls", calls("cli.check_int"), 6)
    expect("handler reached through HANDLERS", calls("cli.handle_moduli_dim"), 1)
    expect("json.loads calls", calls("jsonio.json.loads"), 1)
    expect("json.dumps calls", calls("jsonio.json.dumps"), 8)
    expect("bytes parsed", tracer.counters["jsonio.bytes_parsed"], size)
    # (2N+1)*m*16 = 80 bytes per node-model call on the N=2 loops:
    # chart 1+2, membership 1+1, inverse 1+1+1, disk pair 1+1 = 10 calls.
    expect("node_model.coeff_bytes", tracer.counters["node_model.coeff_bytes"], 800)

    by_id = {span[0]: span for span in tracer.spans}
    tz_parents = {by_id[span[1]][3] for span in tracer.spans if span[3] == "node_model.transfer_Tz"}
    expect("transfer_Tz spans are children of node_chart", tz_parents, {"node_model.node_chart"})

    metrics = layer_metrics(tracer, wall, wall, 6)
    total = sum(metrics[f"{layer}.self_s"][0] for layer in
                ("loops", "node_model", "extension", "fredholm", "moduli", "degeneration",
                 "jsonio", "cli")) + metrics["trace.unattributed_s"][0]
    expect("layer self times + unattributed == wall", abs(total - wall) < 1e-9, True)
    expect("self time of a job tagged n2 stays out of the n128 split",
           metrics["node_model.self_s.n128"][0], 0.0)
    expect("cli.checks", metrics["cli.checks"][0], 6)

    restored = {"loops.sobolev_norm": loops.sobolev_norm,
                "node_model.sobolev_norm": node_model.sobolev_norm,
                "extension.node_membership": extension.node_membership,
                "cli.HANDLERS[moduli-dim]": cli.HANDLERS["moduli-dim"],
                "cli.json": cli.json, "Loop.__post_init__": Loop.__post_init__}
    for key, fn in originals.items():
        expect(f"{key} restored", restored[key] is fn, True)

    job = Job("energy", ("energy", "x.json"), "s", 1)
    ok_line = json.dumps({"scenario": "s", "check": "c", "status": "pass", "tol": 0.0})
    summary = json.dumps({"scenario": "s", "checks": 1, "failures": 0, "inconclusive": 0})
    expect("gate passes a clean report", check_report(job, 0, f"{ok_line}\n{summary}\n")[0], None)
    nan_line = ok_line.replace('"tol": 0.0', '"tol": NaN')
    expect("gate rejects NaN", check_report(job, 0, f"{nan_line}\n{summary}\n")[0] is not None, True)
    fail_line = ok_line.replace('"pass"', '"fail"')
    expect("gate rejects a failed check",
           check_report(job, 0, f"{fail_line}\n{summary}\n")[0] is not None, True)
    expect("gate rejects a wrong check count",
           check_report(Job("energy", job.argv, "s", 2), 0, f"{ok_line}\n{summary}\n")[0]
           is not None, True)
    expect("gate rejects a non-zero exit code", check_report(job, 1, "")[0] is not None, True)

    bad = [(label, got, want) for label, got, want in results if got != want]
    for label, got, want in bad:
        print(f"FAIL {label}: got {got!r}, expected {want!r}")
    print(f"selftest: {len(results) - len(bad)} of {len(results)} checks passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
