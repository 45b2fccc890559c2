"""Runs one job through ``hardyglue.cli.main`` in-process and checks its report.

A job fails when it raises, returns a non-zero exit code, writes a line that
is not strict JSON (``NaN`` and ``Infinity`` are rejected), reports a check
whose status is not ``pass``, or emits a different number of checks than
its scenario asks for.  For ``verify all`` the ordered list of check names
is pinned by digest as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from time import perf_counter

# sha256 of the newline-joined check names that `verify all` emits, in order.
VERIFY_ALL_NAMES_SHA256 = "be50fe487b9a3aa9ffc690f10976dd8f276d914c65bf8de5def1b1c216227706"


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token}")


def check_report(job, rc, text: str):
    """Return ``(reason, n_checks)``; reason is None when the report passes."""
    if rc != 0:
        return f"exit code {rc}", 0
    lines = text.splitlines()
    if not lines:
        return "no output", 0
    try:
        records = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    except ValueError as exc:
        return f"output is not strict JSON: {exc}", 0
    *checks, summary = records
    for rec in checks:
        if rec.get("status") != "pass":
            return f"check {rec.get('check')!r} has status {rec.get('status')!r}", len(checks)
        if rec.get("scenario") != job.scenario_id:
            return f"check {rec.get('check')!r} names scenario {rec.get('scenario')!r}", len(checks)
    if (summary.get("scenario") != job.scenario_id or summary.get("checks") != len(checks)
            or summary.get("failures") != 0 or summary.get("inconclusive") != 0):
        return f"summary line disagrees with the checks: {summary}", len(checks)
    if len(checks) != job.checks:
        return f"expected {job.checks} checks, got {len(checks)}", len(checks)
    if job.kind == "verify" and job.argv[1] == "all":
        names = "\n".join(rec["check"] for rec in checks).encode()
        if hashlib.sha256(names).hexdigest() != VERIFY_ALL_NAMES_SHA256:
            return "verify all emitted a different list of check names", len(checks)
    return None, len(checks)


def run_job(cli, job):
    """Run one job; return ``(seconds, reason, n_checks)``.  Exceptions are
    caught and reported as the reason, so a run keeps going."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            return perf_counter() - start, f"exited via SystemExit({exc.code!r})", 0
        except Exception as exc:  # a failing job is counted, never fatal
            return perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0
        elapsed = perf_counter() - start
    reason, n_checks = check_report(job, rc, out.getvalue())
    if reason and err.getvalue():
        reason += f" (stderr: {err.getvalue().strip()[:200]})"
    return elapsed, reason, n_checks
