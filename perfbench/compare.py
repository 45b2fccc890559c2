"""Side-by-side report of two benchmark result files.  Report only: it
always exits 0 once both files are read, and gates nothing.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the run records ``run.py`` appends (one JSON object per
line).  For every workload the report prints each end-to-end metric's
median and quartiles over the untraced runs of both files (with the raw
timings in seconds below them, for reading only), then the median
per-layer self times and counts over the traced runs and their change,
with ``node_model`` self time split by N.  Provenance that differs between
the files (cores, CPU, Python, numpy, BLAS threads) is printed first, so
results from different machines are never compared silently.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

PROVENANCE_KEYS = ("cores", "cpu", "machine", "python", "numpy", "blas_threads")
# Raw timings kept in the details of untraced runs, shown below the metrics.
RAW_DETAILS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms", "reference_ms": "ms"}


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records: list, trace: int) -> dict:
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, m in rec["result"]["metrics"].items():
            out[rec["workload"]][name].append(m["value"])
        for name in RAW_DETAILS:
            if name in rec["details"]:
                out[rec["workload"]][f"raw.{name}"].append(rec["details"][name])
        out[rec["workload"]]["#runs"].append(1)
    return out


def units(records: list) -> dict:
    out = {f"raw.{name}": unit for name, unit in RAW_DETAILS.items()}
    out.update((name, m["unit"]) for rec in records for name, m in rec["result"]["metrics"].items())
    return out


def change(base: float, new: float) -> str:
    if base == 0:
        return "   n/a" if new else "     0"
    return f"{100.0 * (new - base) / base:+6.1f}%"


def provenance_report(base: list, new: list) -> list:
    lines = []
    for key in PROVENANCE_KEYS:
        a = sorted({str(r["provenance"].get(key)) for r in base})
        b = sorted({str(r["provenance"].get(key)) for r in new})
        if a != b or len(a) > 1:
            lines.append(f"WARNING provenance differs on {key}: base {a} vs new {b}")
    for label, recs in (("base", base), ("new", new)):
        commits = sorted({r["provenance"].get("git_commit") or r["provenance"]["src_sha256"][:12]
                          for r in recs})
        lines.append(f"{label}: {len(recs)} runs of {', '.join(commits)}")
    return lines


def end_to_end_report(base: list, new: list) -> list:
    a_all, b_all, unit = by_workload(base, 0), by_workload(new, 0), units(base + new)
    lines = []
    for workload in sorted(set(a_all) | set(b_all)):
        a, b = a_all.get(workload, {}), b_all.get(workload, {})
        lines.append(f"\n== {workload}: end to end (runs: base {len(a.get('#runs', []))}, "
                     f"new {len(b.get('#runs', []))}); median [q1, q3]")
        names = sorted((set(a) | set(b)) - {"#runs"}, key=lambda n: (n.startswith("raw."), n))
        for name in names:
            cells = []
            for side in (a, b):
                if side.get(name):
                    q1, med, q3 = quartiles(side[name])
                    cells.append(f"{med:12.6g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cells.append(f"{'-':>12}")
            delta = (change(statistics.median(a[name]), statistics.median(b[name]))
                     if a.get(name) and b.get(name) else "")
            lines.append(f"  {name:<16} {unit.get(name, ''):<6} {cells[0]:<36} {cells[1]:<36} {delta}")
    return lines


def layer_report(base: list, new: list) -> list:
    a_all, b_all, unit = by_workload(base, 1), by_workload(new, 1), units(base + new)
    lines = []
    for workload in sorted(set(a_all) | set(b_all)):
        a, b = a_all.get(workload, {}), b_all.get(workload, {})
        lines.append(f"\n== {workload}: per layer, median of traced runs "
                     f"(base {len(a.get('#runs', []))}, new {len(b.get('#runs', []))})")
        for name in sorted((set(a) | set(b)) - {"#runs"}):
            va = statistics.median(a[name]) if a.get(name) else None
            vb = statistics.median(b[name]) if b.get(name) else None
            if not va and not vb:
                continue
            if va is None or vb is None:
                lines.append(f"  {name:<46} {va if va is not None else '-':>12} "
                             f"{vb if vb is not None else '-':>12}")
                continue
            diff = vb - va
            lines.append(f"  {name:<46} {va:12.6g} {vb:12.6g} {diff:+12.4g} {unit.get(name, ''):<6}"
                         f" {change(va, vb)}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for line in provenance_report(base, new) + end_to_end_report(base, new) + layer_report(base, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
